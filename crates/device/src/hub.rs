//! Four-party architecture: Zigbee/BLE children behind an IP hub.
//!
//! Paper Section VIII: "it may be interesting to see if our study could be
//! generalized to other communication architectures that involve four
//! parties: the Zigbee/Bluetooth device, the IP-based hub device, the user,
//! and the cloud." This module implements that architecture: [`ZigbeeChild`]
//! actors speak a LAN-local radio-like frame protocol to a [`HubAgent`],
//! which carries the *cloud* protocol on their behalf. The binding between
//! user and cloud covers the hub; children inherit its fate — so every
//! attack on the hub's binding transitively hits all paired children, which
//! is the amplification the extension experiment measures.

use bytes::Bytes;
use rb_core::design::DeviceKind;
use rb_netsim::{Actor, Ctx, Dest, NodeId, TimerKey};
use rb_wire::telemetry::TelemetryFrame;

use crate::agent::DeviceAgent;

const TIMER_CHILD_REPORT: TimerKey = 10;
const FRAME_TAG: u8 = 0xC1;

/// A radio frame from a child to its hub: `[0xC1, child_id, kind, value…]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChildFrame {
    /// Which child (hub-local address).
    pub(crate) child_id: u8,
    /// The reading.
    pub(crate) reading: ChildReading,
}

/// A child sensor reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChildReading {
    /// Temperature in milli-degrees Celsius.
    TemperatureMilliC(i32),
    /// Open/close contact state.
    Contact {
        /// Whether the contact is closed.
        closed: bool,
    },
}

impl ChildFrame {
    /// Serializes the radio frame.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = vec![FRAME_TAG, self.child_id];
        match self.reading {
            ChildReading::TemperatureMilliC(t) => {
                out.push(1);
                out.extend_from_slice(&t.to_be_bytes());
            }
            ChildReading::Contact { closed } => {
                out.push(2);
                out.push(u8::from(closed));
            }
        }
        out
    }

    /// Parses a radio frame; `None` if the bytes are not a child frame.
    pub(crate) fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 3 || bytes[0] != FRAME_TAG {
            return None;
        }
        let child_id = bytes[1];
        let reading = match bytes[2] {
            1 if bytes.len() == 7 => {
                ChildReading::TemperatureMilliC(i32::from_be_bytes(bytes[3..7].try_into().ok()?))
            }
            2 if bytes.len() == 4 => ChildReading::Contact {
                closed: bytes[3] == 1,
            },
            _ => return None,
        };
        Some(ChildFrame { child_id, reading })
    }

    /// Converts the reading into cloud telemetry.
    pub(crate) fn to_telemetry(self) -> TelemetryFrame {
        match self.reading {
            ChildReading::TemperatureMilliC(t) => TelemetryFrame::TemperatureMilliC(t),
            ChildReading::Contact { closed } => TelemetryFrame::SwitchState { on: closed },
        }
    }
}

/// A battery sensor behind the hub. It has no IP stack: it can only reach
/// its hub over the local radio (modeled as LAN unicast).
#[derive(Debug)]
pub struct ZigbeeChild {
    hub: NodeId,
    child_id: u8,
    period: u64,
    /// Reports sent (experiment counter).
    pub(crate) reports: u64,
}

impl ZigbeeChild {
    /// A child reporting to `hub` every `period` ticks.
    pub fn new(hub: NodeId, child_id: u8, period: u64) -> Self {
        ZigbeeChild {
            hub,
            child_id,
            period,
            reports: 0,
        }
    }
}

impl Actor for ZigbeeChild {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period, TIMER_CHILD_REPORT);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: TimerKey) {
        if key == TIMER_CHILD_REPORT {
            let t = 18_000 + ctx.rng().range_u64(0, 8_000) as i32;
            let frame = ChildFrame {
                child_id: self.child_id,
                reading: ChildReading::TemperatureMilliC(t),
            };
            ctx.send(Dest::Unicast(self.hub), frame.encode());
            self.reports += 1;
            ctx.set_timer(self.period, TIMER_CHILD_REPORT);
        }
    }
}

/// An IP hub: a [`DeviceAgent`] toward the cloud, a frame sink toward its
/// children. Child readings are queued and attached to the hub's next
/// heartbeat as its own telemetry.
#[derive(Debug)]
pub struct HubAgent {
    /// The embedded cloud-facing firmware (the hub *is* a device).
    pub(crate) device: DeviceAgent,
    /// Latest reading per child.
    latest: std::collections::BTreeMap<u8, TelemetryFrame>,
    /// Frames received from children.
    pub child_frames: u64,
}

/// [`HubAgent::new`] was given firmware of a product kind other than
/// [`DeviceKind::Sensor`]: hubs report aggregate sensor telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotSensorFirmware {
    /// The product kind the firmware was built for.
    pub kind: DeviceKind,
}

impl std::fmt::Display for NotSensorFirmware {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hubs report aggregate sensor telemetry, but the firmware is a {}",
            self.kind
        )
    }
}

impl std::error::Error for NotSensorFirmware {}

impl HubAgent {
    /// Wraps device firmware into a hub.
    ///
    /// # Errors
    ///
    /// [`NotSensorFirmware`] unless the firmware's product kind is
    /// [`DeviceKind::Sensor`].
    pub fn new(device: DeviceAgent) -> Result<Self, NotSensorFirmware> {
        let kind = device.config().design.device;
        if kind != DeviceKind::Sensor {
            return Err(NotSensorFirmware { kind });
        }
        Ok(HubAgent {
            device,
            latest: std::collections::BTreeMap::new(),
            child_frames: 0,
        })
    }

    /// Latest reading per child (experiment accessor).
    pub fn child_readings(&self) -> impl Iterator<Item = (&u8, &TelemetryFrame)> {
        self.latest.iter()
    }
}

impl Actor for HubAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.device.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &Bytes) {
        if let Some(frame) = ChildFrame::decode(payload) {
            self.latest.insert(frame.child_id, frame.to_telemetry());
            self.child_frames += 1;
            return;
        }
        self.device.on_packet(ctx, from, payload);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: TimerKey) {
        // Attach the children's latest readings to the hub's own telemetry
        // before any heartbeat the timer may trigger.
        self.device
            .set_extra_telemetry(self.latest.values().cloned().collect());
        self.device.on_timer(ctx, key);
    }

    fn on_power(&mut self, ctx: &mut Ctx<'_>, powered: bool) {
        self.device.on_power(ctx, powered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_frame_roundtrip() {
        for frame in [
            ChildFrame {
                child_id: 3,
                reading: ChildReading::TemperatureMilliC(-5000),
            },
            ChildFrame {
                child_id: 0,
                reading: ChildReading::Contact { closed: true },
            },
        ] {
            assert_eq!(ChildFrame::decode(&frame.encode()), Some(frame));
        }
    }

    #[test]
    fn garbage_is_not_a_frame() {
        assert_eq!(ChildFrame::decode(&[]), None);
        assert_eq!(ChildFrame::decode(&[0xC1, 1]), None);
        assert_eq!(ChildFrame::decode(&[0xC2, 1, 1, 0, 0, 0, 0]), None);
        assert_eq!(ChildFrame::decode(&[0xC1, 1, 9, 0]), None);
    }

    #[test]
    fn telemetry_conversion() {
        let f = ChildFrame {
            child_id: 1,
            reading: ChildReading::TemperatureMilliC(21_000),
        };
        assert_eq!(f.to_telemetry(), TelemetryFrame::TemperatureMilliC(21_000));
        let f = ChildFrame {
            child_id: 1,
            reading: ChildReading::Contact { closed: false },
        };
        assert_eq!(f.to_telemetry(), TelemetryFrame::SwitchState { on: false });
    }
}
