//! `mc_sweep`: `rb_mc::diag::verify_design(d, 1)` over a fixed stride
//! through the coherent design space — the checker's designs/sec. The
//! simulator, the cloud and the codec do no work here, so it is the
//! control workload for changes to those layers.

use rb_core::design::VendorDesign;
use rb_core::explore::all_designs;
use rb_mc::diag::verify_design;

use crate::layers::Recorder;
use crate::{stats, Metrics, RepOutcome, Workload};

/// Every `STRIDE`-th design is verified: 512 of the 17,920 per rep.
pub const STRIDE: usize = 35;

/// The designs one rep verifies: a stride through `all_designs()` whose
/// offset comes from the workload seed.
pub fn designs(seed: u64, stride: usize) -> Vec<VendorDesign> {
    let offset = (seed % stride as u64) as usize;
    all_designs()
        .into_iter()
        .skip(offset)
        .step_by(stride)
        .collect()
}

/// Checks one rep: every design verified with zero disagreements.
pub fn check(disagreements: &[usize]) -> RepOutcome {
    let bad = disagreements.iter().filter(|&&d| d > 0).count();
    RepOutcome {
        attempted: disagreements.len() as u64,
        completed: (disagreements.len() - bad) as u64,
        problems: if bad > 0 {
            vec![format!("mc_sweep: {bad} designs with disagreements")]
        } else {
            Vec::new()
        },
        counts: Vec::new(),
    }
}

/// The `mc_sweep` workload.
pub struct McSweep {
    designs: Vec<VendorDesign>,
    /// Traced run: reachable states and transitions over the traced reps.
    reachable: u64,
    transitions: u64,
}

impl McSweep {
    /// The sweep for `seed`.
    pub fn new(seed: u64, stride: usize) -> Self {
        McSweep {
            designs: designs(seed, stride),
            reachable: 0,
            transitions: 0,
        }
    }
}

impl Workload for McSweep {
    fn rep(&mut self) -> RepOutcome {
        let disagreements: Vec<usize> = self
            .designs
            .iter()
            .map(|d| verify_design(d, 1).disagreements.len())
            .collect();
        check(&disagreements)
    }

    fn rep_size(&self) -> String {
        format!("{} designs", self.designs.len())
    }

    fn traced_rep(&mut self, rec: &mut Recorder) -> RepOutcome {
        let (mut reachable, mut transitions) = (0u64, 0u64);
        let mut disagreements = Vec::with_capacity(self.designs.len());
        for d in &self.designs {
            let v = rec.span("mc", &["mc.verify"], |_| verify_design(d, 1));
            reachable += v.mc.reachable as u64;
            transitions += v.mc.transitions as u64;
            disagreements.push(v.disagreements.len());
        }
        self.reachable += reachable;
        self.transitions += transitions;
        let mut outcome = check(&disagreements);
        outcome.counts = vec![
            ("reachable".into(), reachable),
            ("transitions".into(), transitions),
        ];
        outcome
    }

    fn layer_metrics(&mut self, rec: &Recorder, reps: usize, out: &mut Metrics) -> Vec<String> {
        let n = reps.max(1) as f64;
        let verify = rec.samples("mc.verify");
        out.put("mc.verify_ms_p50", stats::median(verify), verify.len());
        out.put(
            "mc.verify_ms_p90",
            stats::percentile(verify, 90.0),
            verify.len(),
        );
        out.put("mc.reachable_states", self.reachable as f64 / n, reps);
        out.put("mc.transitions", self.transitions as f64 / n, reps);
        let verify_s = verify.iter().sum::<f64>() / 1e3;
        out.put(
            "mc.states_per_s",
            self.reachable as f64 / verify_s.max(f64::MIN_POSITIVE),
            verify.len(),
        );
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_is_deterministic_and_seeded() {
        let names = |seed| -> Vec<String> {
            designs(seed, 700)
                .iter()
                .map(|d| format!("{d:?}"))
                .collect()
        };
        assert_eq!(names(3), names(3));
        assert_ne!(names(3), names(4));
        assert_eq!(designs(0, STRIDE).len(), 512);
    }

    #[test]
    fn check_rejects_a_disagreement() {
        assert!(check(&[0, 0, 0]).problems.is_empty());
        let bad = check(&[0, 1, 0]);
        assert!(!bad.problems.is_empty() && bad.failed() == 1);
        let mut w = McSweep::new(1, 2_000);
        let outcome = w.rep();
        assert!(outcome.problems.is_empty() && outcome.attempted > 0);
    }
}
