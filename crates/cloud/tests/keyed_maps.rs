//! The cloud's keyed maps with the keys the cloud actually stores.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::hash::BuildHasher;

use rb_netsim::hash::{HashMap, HashSet, KeyedState};
use rb_wire::bytestr::ByteStr;
use rb_wire::ids::IdScheme;

#[test]
fn sequential_serial_dev_ids_hash_apart() {
    let state = KeyedState::default();
    let scheme = IdScheme::SequentialSerial {
        vendor: 0x1a2b,
        start: 1_000_000,
    };
    let hashes: HashSet<u64> = (0..50_000)
        .map(|i| state.hash_one(scheme.id_at(i)))
        .collect();
    assert_eq!(hashes.len(), 50_000);
    let digits = IdScheme::ShortDigits { width: 7 };
    let hashes: HashSet<u64> = (0..50_000)
        .map(|i| state.hash_one(digits.id_at(i)))
        .collect();
    assert_eq!(hashes.len(), 50_000);
}

#[test]
fn byte_str_keyed_maps_answer_str_lookups() {
    let mut map: HashMap<ByteStr, u32> = HashMap::default();
    for i in 0..100 {
        map.insert(ByteStr::new(format!("user{i}@example.com")), i);
    }
    assert_eq!(map.get("user42@example.com"), Some(&42));
    assert_eq!(map.get("user100@example.com"), None);
}
