//! `dos_flood`: the §V-C binding denial of service. An OZWI-style camera
//! series with sequential serials; the attacker logs in, then enumerates
//! the ID window with forged `Bind:(DevId, UserToken)` probes in an open
//! loop — a fixed batch every few ticks via `Adversary::fire`, replies
//! collected with `Adversary::drain` — and occupies every sold device
//! before its owner unboxes it. Telemetry stays on, as in every default
//! world. `rb-cloud` (handlers and monitor), `rb-wire` and netsim delivery
//! do most of the work; timers do little.

use std::time::Instant;

use rb_attack::adversary::{ATTACKER_ID, ATTACKER_PW};
use rb_attack::Adversary;
use rb_cloud::{CloudConfig, CloudService};
use rb_core::design::VendorDesign;
use rb_core::vendors;
use rb_netsim::{SimRng, Tick};
use rb_prof::Profiler;
use rb_scenario::{World, WorldBuilder};
use rb_wire::envelope::{CorrId, Envelope};
use rb_wire::ids::IdScheme;
use rb_wire::messages::{BindPayload, Message, Response};
use rb_wire::tokens::{UserId, UserPw, UserToken};

use crate::layers::{nanos, Recorder, SimCounts};
use crate::{stats, Metrics, RepOutcome, Workload};

/// Workload dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Victim homes (devices 0..homes of the series, still boxed).
    pub homes: usize,
    /// Distinct IDs probed per rep: the swept window of the series.
    pub window: u64,
    /// One in this many IDs beyond the victims' is a sold device.
    pub sold_one_in: u64,
    /// Probes fired per batch.
    pub batch: u64,
    /// Ticks between batches.
    pub batch_ticks: u64,
}

impl Sizes {
    /// The benchmark's sizes: 200,000 IDs per rep, 16 probes every 4 ticks.
    pub const BENCH: Sizes = Sizes {
        homes: 4,
        window: 200_000,
        sold_one_in: 16,
        batch: 16,
        batch_ticks: 4,
    };
    /// Small sizes for the self-tests.
    pub const TEST: Sizes = Sizes {
        window: 3_000,
        ..Sizes::BENCH
    };
}

/// Ticks the last replies need to arrive after the final batch.
const TAIL_TICKS: u64 = 16;
/// The victims' setup budget in the lock-out check, as in `exp_dos_scale`.
const VICTIM_TICKS: u64 = 150_000;

/// The attacked series: OZWI's design with sequential serial numbers.
pub fn design() -> VendorDesign {
    let mut d = vendors::ozwi();
    d.id_scheme = IdScheme::SequentialSerial {
        vendor: 0x0102,
        start: 0,
    };
    d
}

/// Indices of the sold devices in the swept window beyond the victims',
/// drawn from the workload seed.
pub fn sold_indices(seed: u64, sizes: Sizes) -> Vec<u64> {
    let mut rng = SimRng::new(seed ^ 0xd05_f100d);
    (sizes.homes as u64..sizes.window)
        .filter(|_| rng.next_u64().is_multiple_of(sizes.sold_one_in))
        .collect()
}

/// What the attacker saw in one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sweep {
    /// Probes fired.
    pub fired: u64,
    /// Probes answered.
    pub answered: u64,
    /// `Bound` replies: devices the attacker now occupies.
    pub bound: u64,
    /// `Denied` replies.
    pub denied: u64,
}

/// Checks a sweep: every probe answered, and the occupied count equals the
/// number of sold devices in the window.
pub fn check(sweep: &Sweep, sold_in_window: u64) -> RepOutcome {
    let mut problems = Vec::new();
    if sweep.answered != sweep.fired {
        problems.push(format!(
            "dos_flood: {} of {} probes answered",
            sweep.answered, sweep.fired
        ));
    }
    if sweep.bound != sold_in_window {
        problems.push(format!(
            "dos_flood: occupied {} devices, the window holds {sold_in_window} sold",
            sweep.bound
        ));
    }
    RepOutcome {
        attempted: sweep.fired,
        completed: sweep.answered,
        problems,
        counts: Vec::new(),
    }
}

/// A fresh flood world: victims boxed, the series manufactured, the
/// attacker logged in.
struct Target {
    world: World,
    token: UserToken,
    profiler: Profiler,
}

/// The `dos_flood` workload.
pub struct DosFlood {
    seed: u64,
    sizes: Sizes,
    traced: bool,
    sold: Vec<u64>,
    target: Option<Target>,
    /// Traced run: simulator counts and sweep totals over the traced
    /// reps, the last rep's sweep and counts, world build times (ms), and
    /// the last rep's probe stream `(tick, id index)` for the replay.
    sim: SimCounts,
    totals: Sweep,
    last: (Sweep, SimCounts),
    alerts: u64,
    build_ms: Vec<f64>,
    stream: Vec<(u64, u64)>,
}

impl DosFlood {
    /// The flood for `seed`; `traced` worlds carry a wall-clock profiler.
    pub fn new(seed: u64, sizes: Sizes, traced: bool) -> Self {
        DosFlood {
            seed,
            sizes,
            traced,
            sold: sold_indices(seed, sizes),
            target: None,
            sim: SimCounts::default(),
            totals: Sweep::default(),
            last: (Sweep::default(), SimCounts::default()),
            alerts: 0,
            build_ms: Vec::new(),
            stream: Vec::new(),
        }
    }

    fn sold_in_window(&self) -> u64 {
        self.sizes.homes as u64 + self.sold.len() as u64
    }

    fn build(&self) -> Target {
        let profiler = if self.traced {
            Profiler::new().with_wall_clock()
        } else {
            Profiler::disabled()
        };
        let d = design();
        let mut world = WorldBuilder::new(d.clone(), self.seed)
            .homes(self.sizes.homes)
            .victim_paused()
            .with_profiler(profiler.clone())
            .build();
        let mut rng = SimRng::new(self.seed ^ 0x005e_41a1);
        for &i in &self.sold {
            world
                .cloud_mut()
                .manufacture(d.id_scheme.id_at(i), rng.entropy128(), None);
        }
        let token = Adversary::new().login(&mut world);
        Target {
            world,
            token,
            profiler,
        }
    }

    /// A fresh world for the next rep: each rep sweeps the same window of
    /// a newly unboxed series, so every rep does the same work.
    fn prepare_target(&mut self) {
        // Free the swept world before building the next one.
        self.target = None;
        let t = Instant::now();
        self.target = Some(self.build());
        self.build_ms.push(nanos(t) as f64 / 1e6);
    }

    /// The sweep, with `span` wrapping each public call (fire, run, drain).
    fn sweep(
        &mut self,
        mut span: impl FnMut(&'static str, &mut dyn FnMut()),
        record: bool,
    ) -> Sweep {
        let sizes = self.sizes;
        let scheme = design().id_scheme;
        let mut stream = Vec::new();
        let Some(target) = self.target.as_mut() else {
            unreachable!("Workload::prepare builds the target before each rep");
        };
        let (world, token) = (&mut target.world, target.token);
        let mut adv = Adversary::new();
        let mut next = 0u64;
        while next < sizes.window {
            let end = (next + sizes.batch).min(sizes.window);
            span("attack.fire", &mut || {
                for i in next..end {
                    if record {
                        stream.push((world.now().as_u64(), i));
                    }
                    adv.fire(
                        world,
                        Message::Bind(BindPayload::AclApp {
                            dev_id: scheme.id_at(i),
                            user_token: token,
                        }),
                    );
                }
            });
            next = end;
            let ticks = if next < sizes.window {
                sizes.batch_ticks
            } else {
                TAIL_TICKS
            };
            span("netsim", &mut || world.run_for(ticks));
            span("attack.drain", &mut || {
                adv.drain(world, None);
            });
        }
        let replies = adv.stashed_responses();
        if record {
            self.stream = stream;
        }
        Sweep {
            fired: sizes.window,
            answered: replies.len() as u64,
            bound: replies
                .iter()
                .filter(|(_, r)| matches!(r, Response::Bound { .. }))
                .count() as u64,
            denied: replies
                .iter()
                .filter(|(_, r)| matches!(r, Response::Denied { .. }))
                .count() as u64,
        }
    }

    /// Unboxes the victims of the swept world and lets them try to set up:
    /// every one must stay locked out. Returns the problems found.
    fn victims_locked_out(&mut self) -> Vec<String> {
        let Some(target) = self.target.as_mut() else {
            return vec!["dos_flood: no swept world to check".to_owned()];
        };
        let world = &mut target.world;
        world.resume_victims();
        let converged = world.try_run_setup(VICTIM_TICKS);
        let bound = (0..world.homes.len())
            .filter(|&i| world.app(i).is_bound())
            .count();
        if converged || bound > 0 {
            vec![format!(
                "dos_flood: {bound} of {} victims bound despite the flood",
                world.homes.len()
            )]
        } else {
            Vec::new()
        }
    }

    /// Replays the last traced rep's request stream through
    /// `CloudService::handle_message` on a freshly provisioned cloud and
    /// times the codec on the same frames.
    fn replay(&self, out: &mut Metrics) -> Vec<String> {
        let mut problems = Vec::new();
        let d = design();
        let mut cloud = CloudService::new(CloudConfig::new(d.clone()));
        cloud.provision_account(UserId::new(ATTACKER_ID), UserPw::new(ATTACKER_PW));
        let mut rng = SimRng::new(self.seed ^ 0x005e_41a1);
        for i in (0..self.sizes.homes as u64).chain(self.sold.iter().copied()) {
            cloud.manufacture(d.id_scheme.id_at(i), rng.entropy128(), None);
        }
        let Some(attacker) = self.target.as_ref().map(|t| t.world.attacker) else {
            return vec!["dos_flood replay: no traced world".to_owned()];
        };
        cloud.set_public_ip(attacker, 9_999);
        let mut rng = SimRng::new(self.seed);
        let login = Message::Login {
            user_id: UserId::new(ATTACKER_ID),
            user_pw: UserPw::new(ATTACKER_PW),
        };
        let token = match cloud
            .handle_message(attacker, Tick(0), &login, &mut rng)
            .reply
        {
            Response::LoginOk { user_token } => user_token,
            other => return vec![format!("dos_flood replay: login answered {other:?}")],
        };
        let mut frames = Vec::with_capacity(self.stream.len() * 2);
        let mut handle_us = Vec::with_capacity(self.stream.len());
        let mut sweep = Sweep::default();
        for (n, &(tick, i)) in self.stream.iter().enumerate() {
            let msg = Message::Bind(BindPayload::AclApp {
                dev_id: d.id_scheme.id_at(i),
                user_token: token,
            });
            let t = Instant::now();
            let outcome = cloud.handle_message(attacker, Tick(tick), &msg, &mut rng);
            handle_us.push(nanos(t) as f64 / 1e3);
            sweep.fired += 1;
            sweep.answered += 1;
            match outcome.reply {
                Response::Bound { .. } => sweep.bound += 1,
                Response::Denied { .. } => sweep.denied += 1,
                _ => {}
            }
            let corr = CorrId(n as u64 + 1);
            frames.push(Envelope::Request { corr, msg });
            frames.push(Envelope::Response {
                corr,
                rsp: outcome.reply,
            });
        }
        let (world, world_sim) = self.last;
        if (sweep.bound, sweep.denied) != (world.bound, world.denied) {
            problems.push(format!(
                "dos_flood replay: {} bound / {} denied, the world saw {} / {}",
                sweep.bound, sweep.denied, world.bound, world.denied
            ));
        }
        let calls = handle_us.len();
        out.put("cloud.handle_us_p50", stats::median(&handle_us), calls);
        out.put(
            "cloud.handle_us_p99",
            stats::percentile(&handle_us, 99.0),
            calls,
        );
        out.put(
            "cloud.handle_ms_total",
            handle_us.iter().sum::<f64>() / 1e3,
            calls,
        );

        let codec = self
            .target
            .as_ref()
            .map(|t| t.world.codec())
            .unwrap_or_default();
        let t = Instant::now();
        let encoded: Vec<bytes::Bytes> = frames.iter().map(|f| f.encode_with(codec)).collect();
        let encode_ns = nanos(t);
        let t = Instant::now();
        let decoded: Vec<_> = encoded
            .iter()
            .map(|b| Envelope::decode_with(codec, b))
            .collect();
        let decode_ns = nanos(t);
        if decoded
            .iter()
            .zip(&frames)
            .any(|(d, f)| d.as_ref() != Ok(f))
        {
            problems.push("dos_flood replay: a frame did not survive the codec".to_owned());
        }
        if frames.len() as u64 != world_sim.cloud_frames {
            problems.push(format!(
                "dos_flood replay: {} frames, the world's cloud coded {}",
                frames.len(),
                world_sim.cloud_frames
            ));
        }
        let count = frames.len();
        let n = count.max(1) as f64;
        out.put("wire.frames", count as f64, 1);
        out.put(
            "wire.bytes_per_frame",
            encoded.iter().map(bytes::Bytes::len).sum::<usize>() as f64 / n,
            count,
        );
        out.put("wire.encode_ns_per_frame", encode_ns as f64 / n, count);
        out.put("wire.decode_ns_per_frame", decode_ns as f64 / n, count);
        problems
    }
}

impl Workload for DosFlood {
    fn prepare(&mut self) {
        self.prepare_target();
    }

    fn rep(&mut self) -> RepOutcome {
        let sweep = self.sweep(|_, f| f(), false);
        check(&sweep, self.sold_in_window())
    }

    fn finish(&mut self) -> Vec<String> {
        self.victims_locked_out()
    }

    fn rep_size(&self) -> String {
        format!(
            "{} probes over a window holding {} sold devices",
            self.sizes.window,
            self.sold_in_window()
        )
    }

    fn traced_rep(&mut self, rec: &mut Recorder) -> RepOutcome {
        let before = match &self.target {
            Some(t) => SimCounts::of(&t.profiler.snapshot()),
            None => SimCounts::default(),
        };
        let sweep = self.sweep(
            |key, f| {
                let layer = if key == "netsim" { "netsim" } else { "attack" };
                rec.span(layer, &[key], |_| f());
            },
            true,
        );
        let Some(target) = self.target.as_ref() else {
            unreachable!("the sweep ran on a prepared target");
        };
        let after = SimCounts::of(&target.profiler.snapshot());
        let sim = after.minus(&before);
        self.sim.add(&sim);
        self.last = (sweep, sim);
        self.totals.fired += sweep.fired;
        self.totals.answered += sweep.answered;
        self.totals.bound += sweep.bound;
        self.totals.denied += sweep.denied;
        let alerts = target.world.cloud().monitor().alert_log().len() as u64;
        self.alerts += alerts;
        let mut outcome = check(&sweep, self.sold_in_window());
        let c = sim.counts_only();
        outcome.counts = vec![
            ("timer_events".into(), c.timer_events),
            ("deliver_events".into(), c.deliver_events),
            ("cloud_requests".into(), c.cloud_requests),
            ("cloud_frames".into(), c.cloud_frames),
            ("bound".into(), sweep.bound),
            ("denied".into(), sweep.denied),
            ("alerts".into(), alerts),
        ];
        outcome
    }

    fn layer_metrics(&mut self, _rec: &Recorder, reps: usize, out: &mut Metrics) -> Vec<String> {
        let n = reps.max(1) as f64;
        let s = self.sim;
        out.put("netsim.timer_events", s.timer_events as f64 / n, reps);
        out.put("netsim.deliver_events", s.deliver_events as f64 / n, reps);
        out.put(
            "netsim.useful_event_ratio",
            s.deliver_events as f64 / s.events().max(1) as f64,
            reps,
        );
        out.put("netsim.timer_self_ms", s.timer_ns as f64 / 1e6 / n, reps);
        out.put(
            "netsim.deliver_self_ms",
            s.deliver_ns as f64 / 1e6 / n,
            reps,
        );
        out.put(
            "netsim.events_per_probe",
            s.events() as f64 / self.totals.fired.max(1) as f64,
            reps,
        );
        out.put("cloud.requests", s.cloud_requests as f64 / n, reps);
        out.put("cloud.denials", self.totals.denied as f64 / n, reps);
        out.put(
            "cloud.deny_ratio",
            self.totals.denied as f64 / s.cloud_requests.max(1) as f64,
            reps,
        );
        out.put("cloud.alerts", self.alerts as f64 / n, reps);
        out.put(
            "attack.probes_unanswered",
            (self.totals.fired - self.totals.answered) as f64 / n,
            reps,
        );
        out.put("scenario.builds", 1.0, reps);
        out.put(
            "scenario.build_ms_p50",
            stats::median(&self.build_ms),
            self.build_ms.len(),
        );
        let mut problems = self.replay(out);
        let t = Instant::now();
        problems.extend(self.victims_locked_out());
        out.put("scenario.setup_ms_p50", nanos(t) as f64 / 1e6, 1);
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sold_devices_are_deterministic_per_seed() {
        let a = sold_indices(9, Sizes::TEST);
        assert_eq!(a, sold_indices(9, Sizes::TEST));
        assert_ne!(a, sold_indices(10, Sizes::TEST));
        assert!(!a.is_empty() && a.iter().all(|i| (4..Sizes::TEST.window).contains(i)));
    }

    #[test]
    fn sweep_occupies_every_sold_device_and_locks_victims_out() {
        let mut w = DosFlood::new(2, Sizes::TEST, false);
        w.prepare();
        let outcome = w.rep();
        assert!(outcome.problems.is_empty(), "{:?}", outcome.problems);
        assert_eq!(outcome.attempted, Sizes::TEST.window);
        assert_eq!(outcome.failed(), 0);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn check_rejects_an_occupied_count_off_by_one() {
        let sweep = Sweep {
            fired: 100,
            answered: 100,
            bound: 7,
            denied: 93,
        };
        assert!(check(&sweep, 7).problems.is_empty());
        assert!(!check(&sweep, 8).problems.is_empty());
        let unanswered = Sweep {
            answered: 99,
            ..sweep
        };
        let bad = check(&unanswered, 7);
        assert!(!bad.problems.is_empty() && bad.failed() == 1);
    }
}
