//! Run governance: cooperative cancellation, deadlines, memory budgets
//! and graceful-degradation policy.
//!
//! The §4.3 merge loop is the expensive, open-loop part of ROCK: on
//! paper-scale data it executes tens of thousands of heap operations with
//! no natural yield point. [`RunGovernor`] turns it (and every other
//! pipeline phase) into a *governed* computation: a cloneable
//! cancellation token, an optional wall-clock budget and an optional
//! memory budget are checked at phase boundaries and every
//! `check_every` merges (64; 1 when serving), surfacing
//! [`RockError::Interrupted`] instead of running away or dying to the OOM
//! killer.
//!
//! Checks are *cooperative*: a trip is observed at the next checkpoint,
//! so cancellation latency is bounded by one check interval (one merge
//! batch, one labeling batch, or one phase — whichever granularity the
//! phase runs at). All governor state lives behind an `Arc`, so clones
//! share the same token, clock and memory meter; cancel from any thread.
//!
//! Deterministic fault injection for the test harness rides the same
//! mechanism: [`RunGovernor::with_kill_at`] trips at an exact phase
//! checkpoint index, which is how the kill-at-merge-k crash/resume matrix
//! is driven (see `rock_data::faults`).
//!
//! See `DESIGN.md` §"Failure model" for the checkpoint placement table
//! and the degradation decision table.

use crate::error::RockError;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A pipeline phase, as reported by [`RockError::Interrupted`] and the
/// degradation notes in [`crate::report::RunReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Drawing the random sample (Fig. 2, step 1).
    Sample,
    /// Building the θ-neighbor graph (§3.1).
    Neighbors,
    /// Computing link counts (§3.2, §4.4).
    Links,
    /// The heap-driven agglomeration (§4.3, Fig. 3).
    Merge,
    /// Labeling the remaining data (§4.6).
    Labeling,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Sample => "sample",
            Phase::Neighbors => "neighbors",
            Phase::Links => "links",
            Phase::Merge => "merge",
            Phase::Labeling => "labeling",
        })
    }
}

/// Why a governed run stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TripReason {
    /// The cancellation token fired (externally, or via an injected
    /// kill point simulating a crash).
    Cancelled,
    /// The wall-clock budget ran out.
    DeadlineExceeded,
    /// The charged-memory budget was exceeded.
    MemoryBudgetExceeded,
}

impl fmt::Display for TripReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TripReason::Cancelled => "cancelled",
            TripReason::DeadlineExceeded => "deadline exceeded",
            TripReason::MemoryBudgetExceeded => "memory budget exceeded",
        })
    }
}

/// A cloneable cancellation flag shared by all clones of a governor.
///
/// Cancelling is idempotent and irreversible for the run it governs.
#[derive(Clone, Debug, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        CancellationToken::default()
    }

    /// Fires the token: every governed loop sharing it stops at its next
    /// checkpoint.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token has fired.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Shared state behind every clone of a [`RunGovernor`].
#[derive(Debug)]
struct GovernorInner {
    cancel: CancellationToken,
    /// Wall-clock budget, measured from the first checkpoint.
    time_budget: Option<Duration>,
    /// Anchored lazily at the first checkpoint (or by [`RunGovernor::arm`])
    /// so a governor built ahead of time doesn't burn its budget idling.
    started: OnceLock<Instant>,
    memory_budget: Option<u64>,
    memory_charged: AtomicU64,
    /// Deterministic fault injection: trip at exactly this `(phase,
    /// checkpoint index)`, simulating a kill signal.
    kill_at: Option<(Phase, u64)>,
}

/// Budgets and cancellation for one clustering run.
///
/// The default governor is [`unlimited`](RunGovernor::unlimited): every
/// check passes, so governed entry points behave exactly like their
/// ungoverned counterparts. Clones share state — build the governor
/// [`with_cancel_token`](RunGovernor::with_cancel_token) and call
/// [`CancellationToken::cancel`] from another thread to stop the run.
#[derive(Clone, Debug)]
pub struct RunGovernor {
    inner: Arc<GovernorInner>,
    check_every: u64,
}

impl Default for RunGovernor {
    fn default() -> Self {
        RunGovernor::unlimited()
    }
}

impl RunGovernor {
    /// A governor with no budgets: all checks pass (unless the token is
    /// cancelled — an unlimited governor is still cancellable).
    pub fn unlimited() -> Self {
        RunGovernor {
            inner: Arc::new(GovernorInner {
                cancel: CancellationToken::new(),
                time_budget: None,
                started: OnceLock::new(),
                memory_budget: None,
                memory_charged: AtomicU64::new(0),
                kill_at: None,
            }),
            check_every: 64,
        }
    }

    /// Sets the wall-clock budget, measured from the first checkpoint
    /// (or from the moment a run arms the governor).
    pub fn with_time_budget(self, budget: Duration) -> Self {
        self.rebuild(|inner| inner.time_budget = Some(budget))
    }

    /// Uses `token` as the cancellation flag (e.g. one shared with a
    /// signal handler).
    pub fn with_cancel_token(self, token: CancellationToken) -> Self {
        self.rebuild(|inner| inner.cancel = token)
    }

    /// Sets the charged-memory budget in bytes.
    ///
    /// There is no portable resident-set meter, so the governor meters
    /// the dominant *tracked* allocations instead: phases charge their
    /// big structures (neighbor graph rows, link matrix) to the governor
    /// and the budget trips when the total would exceed `bytes`.
    pub fn with_memory_budget(self, bytes: u64) -> Self {
        self.rebuild(|inner| inner.memory_budget = Some(bytes))
    }

    /// Sets the merge-checkpoint granularity: deadline/cancel/memory are
    /// re-checked every `n ≥ 1` merges (default 64). Smaller values give
    /// tighter cancellation latency for more checking overhead.
    pub(crate) fn with_check_every(mut self, n: u64) -> Self {
        assert!(n >= 1, "check interval must be >= 1");
        self.check_every = n;
        self
    }

    /// Deterministic fault injection: trip (as [`TripReason::Cancelled`])
    /// at exactly checkpoint `index` of `phase` — e.g. after `index`
    /// merges. This is how the crash/resume fault matrix injects a kill
    /// at merge `k` without OS signals or timing races.
    pub fn with_kill_at(self, phase: Phase, index: u64) -> Self {
        self.rebuild(|inner| inner.kill_at = Some((phase, index)))
    }

    /// Rebuilds the shared state with `f` applied; used by the `with_*`
    /// builders (which run before the governor is shared, so the clone
    /// cost is irrelevant).
    fn rebuild(self, f: impl FnOnce(&mut GovernorInner)) -> Self {
        let inner = &self.inner;
        let mut out = GovernorInner {
            cancel: inner.cancel.clone(),
            time_budget: inner.time_budget,
            started: OnceLock::new(),
            memory_budget: inner.memory_budget,
            memory_charged: AtomicU64::new(inner.memory_charged.load(Ordering::Relaxed)),
            kill_at: inner.kill_at,
        };
        if let Some(&t) = inner.started.get() {
            let _ = out.started.set(t);
        }
        f(&mut out);
        RunGovernor {
            inner: Arc::new(out),
            check_every: self.check_every,
        }
    }

    /// The shared cancellation token.
    pub(crate) fn cancel_token(&self) -> CancellationToken {
        self.inner.cancel.clone()
    }

    /// A child governor for one unit of supervised work (e.g. one shard
    /// of a shard-and-merge run): it shares this governor's cancellation
    /// token, start instant and time budget — cancelling the parent, or
    /// running past its deadline, stops every child at its next
    /// checkpoint — but keeps a memory meter of its own, empty and
    /// unbudgeted, so a child's charges never eat into the parent's.
    /// Creating a child anchors this governor's clock if no checkpoint
    /// has yet. Give the child further budgets with the usual `with_*`
    /// builders.
    pub(crate) fn child(&self) -> RunGovernor {
        let started = OnceLock::new();
        let _ = started.set(*self.inner.started.get_or_init(Instant::now));
        RunGovernor {
            inner: Arc::new(GovernorInner {
                cancel: self.inner.cancel.clone(),
                time_budget: self.inner.time_budget,
                started,
                memory_budget: None,
                memory_charged: AtomicU64::new(0),
                kill_at: None,
            }),
            check_every: self.check_every,
        }
    }

    /// Anchors the wall-clock budget at "now". Called implicitly by the
    /// first checkpoint; call explicitly to start the clock earlier.
    pub(crate) fn arm(&self) {
        let _ = self.inner.started.set(Instant::now());
    }

    /// Adds `bytes` to the charged-memory meter.
    pub(crate) fn charge(&self, bytes: u64) {
        self.inner.memory_charged.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Subtracts `bytes` from the charged-memory meter (saturating).
    pub(crate) fn release(&self, bytes: u64) {
        let _ = self
            .inner
            .memory_charged
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_sub(bytes))
            });
    }

    /// Currently charged bytes.
    fn charged(&self) -> u64 {
        self.inner.memory_charged.load(Ordering::Relaxed)
    }

    /// Whether charging `extra` more bytes would exceed the memory
    /// budget (always `false` without a budget).
    pub(crate) fn would_exceed(&self, extra: u64) -> bool {
        match self.inner.memory_budget {
            Some(budget) => self.charged().saturating_add(extra) > budget,
            None => false,
        }
    }

    /// The first reason to stop, if any budget has tripped.
    fn trip(&self) -> Option<TripReason> {
        if self.inner.cancel.is_cancelled() {
            return Some(TripReason::Cancelled);
        }
        if let Some(budget) = self.inner.time_budget {
            let started = self.inner.started.get_or_init(Instant::now);
            if started.elapsed() > budget {
                return Some(TripReason::DeadlineExceeded);
            }
        }
        if let Some(budget) = self.inner.memory_budget {
            if self.charged() > budget {
                return Some(TripReason::MemoryBudgetExceeded);
            }
        }
        None
    }

    /// Phase-boundary checkpoint: errors with
    /// [`RockError::Interrupted`] (`resumable: false` — the caller
    /// upgrades it where a WAL makes resumption possible) if any budget
    /// has tripped.
    ///
    /// # Errors
    /// [`RockError::Interrupted`] when cancelled, past the deadline or
    /// over the memory budget.
    pub fn check(&self, phase: Phase) -> Result<(), RockError> {
        match self.trip() {
            Some(reason) => Err(RockError::Interrupted {
                phase,
                reason,
                resumable: false,
            }),
            None => Ok(()),
        }
    }

    /// In-phase checkpoint number `index` (e.g. `index` = merges done so
    /// far): applies the injected kill point exactly, and the budget
    /// checks every `check_every`-th index.
    ///
    /// # Errors
    /// As [`check`](RunGovernor::check), plus the injected kill.
    pub fn check_at(&self, phase: Phase, index: u64) -> Result<(), RockError> {
        if let Some((p, at)) = self.inner.kill_at {
            if p == phase && index >= at {
                return Err(RockError::Interrupted {
                    phase,
                    reason: TripReason::Cancelled,
                    resumable: false,
                });
            }
        }
        if index.is_multiple_of(self.check_every) {
            self.check(phase)
        } else {
            Ok(())
        }
    }
}

/// What to do when a budget trips mid-run (chosen via
/// [`crate::rock::RockBuilder::degradation`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DegradationPolicy {
    /// Propagate [`RockError::Interrupted`] (the default).
    Fail,
    /// On a *memory* trip at kernel selection: force the sparse link
    /// kernel instead of the dense §4.4 matrix square when the dense
    /// kernel's bit-row arena (`Σ_c c · ⌈c/64⌉ · 8` bytes over the
    /// neighbor graph's component sizes `c`) would exceed the budget.
    /// Identical results, usually slower.
    SparseLinks,
    /// On a trip in the merge phase: restart on a random sub-sample of
    /// this fraction of the current sample (rounded up, floored at `k`).
    /// The clustering is a paper-faithful approximation (Fig. 2 with a
    /// smaller sample), recorded in the run report's provenance note.
    Subsample {
        /// Fraction of the sample to keep, in `(0, 1)`.
        fraction: f64,
    },
    /// On a trip in the merge phase: finish via the
    /// [`crate::components::neighbor_components`] fast path — connected
    /// components of the θ-neighbor graph, dropping components smaller
    /// than `min_cluster_size`. Coarser than link agglomeration, but
    /// linear-time and allocation-light.
    Components {
        /// Components smaller than this become outliers.
        min_cluster_size: usize,
    },
}

impl fmt::Display for DegradationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationPolicy::Fail => write!(f, "fail"),
            DegradationPolicy::SparseLinks => write!(f, "sparse-links"),
            DegradationPolicy::Subsample { fraction } => {
                write!(f, "subsample({fraction})")
            }
            DegradationPolicy::Components { min_cluster_size } => {
                write!(f, "components(min size {min_cluster_size})")
            }
        }
    }
}

/// Provenance of a degraded run: which policy fired, where, and why.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradationNote {
    /// The policy that was applied.
    pub policy: DegradationPolicy,
    /// The phase whose budget tripped.
    pub phase: Phase,
    /// The budget that tripped.
    pub reason: TripReason,
    /// Human-readable provenance (what was dropped or downshifted).
    pub detail: String,
}

impl fmt::Display for DegradationNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in {} phase ({}): {}",
            self.policy, self.phase, self.reason, self.detail
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_passes() {
        let g = RunGovernor::unlimited();
        for i in 0..1000 {
            g.check(Phase::Merge).unwrap();
            g.check_at(Phase::Merge, i).unwrap();
        }
    }

    #[test]
    fn cancellation_trips_every_clone() {
        let g = RunGovernor::unlimited();
        let clone = g.clone();
        g.cancel_token().cancel();
        let err = clone.check(Phase::Links).unwrap_err();
        assert_eq!(
            err,
            RockError::Interrupted {
                phase: Phase::Links,
                reason: TripReason::Cancelled,
                resumable: false,
            }
        );
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let g = RunGovernor::unlimited().with_time_budget(Duration::ZERO);
        g.arm();
        assert!(matches!(
            g.check(Phase::Merge),
            Err(RockError::Interrupted {
                reason: TripReason::DeadlineExceeded,
                ..
            })
        ));
    }

    #[test]
    fn generous_deadline_passes() {
        let g = RunGovernor::unlimited().with_time_budget(Duration::from_secs(3600));
        g.check(Phase::Merge).unwrap();
    }

    #[test]
    fn memory_budget_meters_charges() {
        let g = RunGovernor::unlimited().with_memory_budget(1000);
        assert!(!g.would_exceed(1000));
        assert!(g.would_exceed(1001));
        g.charge(600);
        g.check(Phase::Links).unwrap();
        assert!(g.would_exceed(500));
        g.charge(600);
        assert!(matches!(
            g.check(Phase::Links),
            Err(RockError::Interrupted {
                reason: TripReason::MemoryBudgetExceeded,
                ..
            })
        ));
        g.release(600);
        g.check(Phase::Links).unwrap();
        assert_eq!(g.charged(), 600);
    }

    #[test]
    fn kill_at_fires_exactly_at_its_index_and_phase() {
        let g = RunGovernor::unlimited().with_kill_at(Phase::Merge, 5);
        for i in 0..5 {
            g.check_at(Phase::Merge, i).unwrap();
        }
        g.check_at(Phase::Labeling, 5).unwrap();
        assert!(g.check_at(Phase::Merge, 5).is_err());
        assert!(g.check_at(Phase::Merge, 6).is_err());
    }

    #[test]
    fn child_shares_cancellation_and_deadline_but_not_memory() {
        let parent = RunGovernor::unlimited()
            .with_time_budget(Duration::ZERO)
            .with_memory_budget(10)
            .with_check_every(7);
        parent.arm();
        parent.charge(100);
        // The child trips on the parent's expired deadline (same clock,
        // same budget) and inherits the checkpoint granularity …
        let child = parent.child();
        assert!(matches!(
            child.check(Phase::Merge),
            Err(RockError::Interrupted {
                reason: TripReason::DeadlineExceeded,
                ..
            })
        ));
        assert!(child.check_at(Phase::Merge, 3).is_ok());
        assert!(child.check_at(Phase::Merge, 7).is_err());
        // … but its memory meter and budget are its own.
        assert_eq!(child.charged(), 0);
        assert!(!child.would_exceed(u64::MAX));
        child.charge(1_000);
        assert_eq!(parent.charged(), 100);
        let roomy = RunGovernor::unlimited().with_memory_budget(10);
        roomy.charge(100);
        let child = roomy.child();
        child.check(Phase::Merge).unwrap();
        // Cancellation is shared both ways (same token).
        roomy.cancel_token().cancel();
        assert!(matches!(
            child.check(Phase::Merge),
            Err(RockError::Interrupted {
                reason: TripReason::Cancelled,
                ..
            })
        ));
    }

    #[test]
    fn check_every_gates_budget_checks() {
        let g = RunGovernor::unlimited()
            .with_time_budget(Duration::ZERO)
            .with_check_every(10);
        g.arm();
        // Off-interval indices skip the (tripped) budget check entirely.
        g.check_at(Phase::Merge, 3).unwrap();
        assert!(g.check_at(Phase::Merge, 10).is_err());
    }

    #[test]
    fn displays_are_informative() {
        assert_eq!(Phase::Merge.to_string(), "merge");
        assert_eq!(TripReason::DeadlineExceeded.to_string(), "deadline exceeded");
        let note = DegradationNote {
            policy: DegradationPolicy::Components { min_cluster_size: 3 },
            phase: Phase::Merge,
            reason: TripReason::MemoryBudgetExceeded,
            detail: "finished via neighbor components".into(),
        };
        let s = note.to_string();
        assert!(s.contains("components"), "{s}");
        assert!(s.contains("merge"), "{s}");
    }
}
