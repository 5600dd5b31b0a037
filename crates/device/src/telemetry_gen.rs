//! Telemetry generation per product kind.

use rb_core::design::DeviceKind;
use rb_netsim::SimRng;
use rb_wire::telemetry::TelemetryFrame;

/// Generates one heartbeat's worth of telemetry for a device kind.
///
/// The shapes are realistic enough for the experiments to be meaningful:
/// plugs report load-dependent power, sensors drift around room
/// temperature, cameras occasionally see motion.
pub(crate) fn sample(
    kind: DeviceKind,
    on: bool,
    brightness: u8,
    rng: &mut SimRng,
) -> Vec<TelemetryFrame> {
    match kind {
        DeviceKind::SmartPlug | DeviceKind::SmartSocket => {
            let base = if on { 45_000 } else { 120 }; // 45 W load vs vampire draw
            let jitter = rng.range_u64(0, if on { 5_000 } else { 40 });
            vec![
                TelemetryFrame::PowerMilliwatts(base + jitter),
                TelemetryFrame::SwitchState { on },
            ]
        }
        DeviceKind::SmartBulb => {
            vec![
                TelemetryFrame::SwitchState { on },
                TelemetryFrame::Brightness(if on { brightness } else { 0 }),
            ]
        }
        DeviceKind::IpCamera => {
            let motion = rng.chance(1, 10);
            vec![TelemetryFrame::Motion {
                confidence: if motion {
                    50 + (rng.range_u64(0, 50) as u8)
                } else {
                    0
                },
            }]
        }
        DeviceKind::SmartLock => {
            vec![TelemetryFrame::SwitchState { on }]
        }
        DeviceKind::Sensor => {
            // 18–26 °C room drift.
            let t = 18_000 + rng.range_u64(0, 8_000) as i32;
            vec![TelemetryFrame::TemperatureMilliC(t)]
        }
        DeviceKind::FireAlarm => {
            vec![TelemetryFrame::Alarm { triggered: false }]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plug_power_reflects_switch_state() {
        let mut rng = SimRng::new(1);
        let on = sample(DeviceKind::SmartPlug, true, 0, &mut rng);
        let off = sample(DeviceKind::SmartPlug, false, 0, &mut rng);
        let power = |frames: &[TelemetryFrame]| match frames[0] {
            TelemetryFrame::PowerMilliwatts(mw) => mw,
            _ => panic!("plug reports power first"),
        };
        assert!(power(&on) >= 45_000);
        assert!(power(&off) < 1_000);
    }

    #[test]
    fn bulb_brightness_zero_when_off() {
        let mut rng = SimRng::new(1);
        let frames = sample(DeviceKind::SmartBulb, false, 80, &mut rng);
        assert!(frames.contains(&TelemetryFrame::Brightness(0)));
        let frames = sample(DeviceKind::SmartBulb, true, 80, &mut rng);
        assert!(frames.contains(&TelemetryFrame::Brightness(80)));
    }

    #[test]
    fn sensor_stays_in_room_range() {
        let mut rng = SimRng::new(2);
        for _ in 0..100 {
            let frames = sample(DeviceKind::Sensor, true, 0, &mut rng);
            match frames[0] {
                TelemetryFrame::TemperatureMilliC(t) => assert!((18_000..=26_000).contains(&t)),
                _ => panic!("sensor reports temperature"),
            }
        }
    }

    #[test]
    fn camera_sees_motion_sometimes_but_not_always() {
        let mut rng = SimRng::new(3);
        let mut detections = 0;
        for _ in 0..1000 {
            let frames = sample(DeviceKind::IpCamera, true, 0, &mut rng);
            if frames[0].is_alarming() {
                detections += 1;
            }
        }
        assert!(detections > 20, "some motion: {detections}");
        assert!(detections < 300, "not constant motion: {detections}");
    }

    #[test]
    fn alarm_idles_untriggered() {
        let mut rng = SimRng::new(4);
        let frames = sample(DeviceKind::FireAlarm, true, 0, &mut rng);
        assert_eq!(frames, vec![TelemetryFrame::Alarm { triggered: false }]);
    }
}
