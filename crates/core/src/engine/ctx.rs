//! The shared per-run state threaded through every pipeline stage.

use crate::governor::{DegradationNote, DegradationPolicy, RunGovernor};
use crate::report::RunReport;
use crate::wal::MergeWal;
use rand::{rngs::StdRng, SeedableRng};

/// Everything one clustering run carries between stages.
///
/// A `RunCtx` is created by [`crate::engine::Pipeline`] and handed by
/// mutable reference to each [`crate::engine::Stage`]; it owns the
/// governor (budgets + cancellation), the optional merge WAL, the
/// sampling/labeling RNG stream, the degradation policy and the report
/// being accumulated.
///
/// | Field | Carries | Consumed by |
/// |---|---|---|
/// | `governor` | budgets, cancellation, kill injection | every stage entry + in-loop checkpoints |
/// | `wal` | merge journal / continuation log | merge + resume stages |
/// | `rng` | the seeded sampling/labeling stream | sample + label stages |
/// | `degradation` | what to do on a budget trip | links (downshift), pipeline (subsample/components) |
/// | `report` | per-phase timings, outcome counters | the pipeline runner |
/// | `note` | provenance of an applied degradation | links stage + pipeline runner |
#[derive(Debug)]
pub struct RunCtx<'w> {
    /// Budgets and cancellation for this run. Held by value: the
    /// governor is `Arc`-backed, so the pipeline can swap in a retry
    /// governor (subsample restart) while clones elsewhere keep sharing
    /// the original token, clock and memory meter.
    pub governor: RunGovernor,
    /// Merge write-ahead log, when the run journals its merge decisions
    /// (or writes a continuation log during resume). `None` for
    /// unjournaled runs.
    pub wal: Option<&'w mut MergeWal>,
    /// The run's RNG stream. Sampling and labeling draw from this one
    /// stream in stage order, which is what makes a seeded governed run
    /// reproduce the plain driver's draws exactly.
    pub rng: StdRng,
    /// What to do when a governor budget trips mid-run.
    pub degradation: DegradationPolicy,
    /// The report accumulated across stages (phase timings are recorded
    /// by the pipeline runner; counters by the stages that own them).
    pub report: RunReport,
    /// Provenance of a degradation applied earlier in this run, if any;
    /// moved into [`RunReport::degraded`] when the run completes.
    pub note: Option<DegradationNote>,
}

impl<'w> RunCtx<'w> {
    /// A context with the given governor and policy, no WAL, and an RNG
    /// seeded from `seed` (or from the OS when `None`).
    pub fn new(governor: RunGovernor, degradation: DegradationPolicy, seed: Option<u64>) -> Self {
        RunCtx {
            governor,
            wal: None,
            rng: match seed {
                Some(s) => StdRng::seed_from_u64(s),
                None => StdRng::from_os_rng(),
            },
            degradation,
            report: RunReport::new(),
            note: None,
        }
    }

    /// Attaches a merge WAL, rebinding the context lifetime to the
    /// journal borrow.
    pub fn with_wal(self, wal: &mut MergeWal) -> RunCtx<'_> {
        RunCtx {
            governor: self.governor,
            wal: Some(wal),
            rng: self.rng,
            degradation: self.degradation,
            report: self.report,
            note: self.note,
        }
    }
}
