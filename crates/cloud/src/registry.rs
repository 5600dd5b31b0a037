//! What the manufacturer provisions per device.
//!
//! IDs are provisioned at manufacture time, each with a *factory secret*
//! used to model vendor channels the paper's authors could not inspect
//! ("O" cells) and, for the AWS-style reference design, a signing key.
//! The per-device `DeviceRecord` lives in the device's slot of the
//! cloud's device table; the `KeyRing` indexes the signing keys by key
//! id, the handle a device presents.

use rb_netsim::hash::HashMap;
use rb_wire::ids::DevId;

/// Simulated public-key signature over a device ID; see
/// [`rb_wire::crypto::sign_dev_id`].
pub fn sign(secret: u128, dev_id: &DevId) -> u128 {
    rb_wire::crypto::sign_dev_id(secret, dev_id)
}

/// Per-device manufacturing record.
#[derive(Debug, Clone)]
pub(crate) struct DeviceRecord {
    /// The 128-bit factory secret burned in at manufacture (models the
    /// opaque vendor channel).
    pub(crate) factory_secret: u128,
    /// Key id + signing secret, when the design provisions a key pair.
    pub(crate) key: Option<(u64, u128)>,
}

/// The signing keys of every manufactured device, by key id.
#[derive(Debug, Default)]
pub(crate) struct KeyRing {
    keys: HashMap<u64, u128>,
}

impl KeyRing {
    /// Learns the key of a freshly manufactured device, if it has one.
    pub(crate) fn add(&mut self, record: &DeviceRecord) {
        if let Some((key_id, secret)) = record.key {
            self.keys.insert(key_id, secret);
        }
    }

    /// Verifies a public-key signature for `key_id` over `dev_id`.
    pub(crate) fn verify_signature(&self, key_id: u64, dev_id: &DevId, signature: u128) -> bool {
        match self.keys.get(&key_id) {
            Some(secret) => sign(*secret, dev_id) == signature,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::DeviceTable;
    use rb_wire::ids::MacAddr;

    fn id(n: u8) -> DevId {
        DevId::Mac(MacAddr::new([n, 0, 0, 0, 0, 1]))
    }

    fn record(factory_secret: u128, key: Option<(u64, u128)>) -> DeviceRecord {
        DeviceRecord {
            factory_secret,
            key,
        }
    }

    #[test]
    fn add_and_lookup() {
        let mut devices = DeviceTable::default();
        assert_eq!(devices.len(), 0);
        let slot = devices.manufacture(id(1), record(42, None));
        assert_eq!(devices.slot(&id(1)), Some(slot));
        assert_eq!(devices.slot(&id(2)), None);
        assert_eq!(devices[slot].made.factory_secret, 42);
        assert_eq!(devices.len(), 1);
        // Manufacturing the same ID again replaces its record, not its slot.
        assert_eq!(devices.manufacture(id(1), record(43, None)), slot);
        assert_eq!(devices[slot].made.factory_secret, 43);
        assert_eq!(devices.len(), 1);
    }

    #[test]
    fn signature_verification() {
        let mut keys = KeyRing::default();
        let secret = 0xdead_beef_cafe_babe_0123_4567_89ab_cdef;
        keys.add(&record(1, Some((7, secret))));
        let sig = sign(secret, &id(1));
        assert!(keys.verify_signature(7, &id(1), sig));
        // Wrong key id, wrong signature, wrong device all fail.
        assert!(!keys.verify_signature(8, &id(1), sig));
        assert!(!keys.verify_signature(7, &id(1), sig ^ 1));
        assert!(!keys.verify_signature(7, &id(2), sig));
    }

    #[test]
    fn signatures_differ_across_devices_and_keys() {
        assert_ne!(sign(1, &id(1)), sign(1, &id(2)));
        assert_ne!(sign(1, &id(1)), sign(2, &id(1)));
    }
}
