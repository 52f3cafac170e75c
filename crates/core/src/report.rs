//! Structured run reporting for graceful degradation.
//!
//! The paper's Fig.-2 pipeline touches a disk-resident database — the one
//! place this reproduction meets the messy outside world. When the
//! resilient drivers skip a comment line, quarantine a malformed record,
//! retry a transient read or drop a point as an outlier, that decision
//! must be *visible*, not silent. [`RunReport`] is the single structured
//! account of everything a run tolerated, returned alongside the results
//! by [`crate::rock::Rock::run`] and by
//! `rock_data::resilient::label_stream_resilient`.

use crate::governor::{DegradationNote, Phase, TripReason};
use crate::perf::PerfCounters;
use std::fmt;
use std::time::{Duration, Instant};

/// One malformed or unlabelable input record set aside instead of
/// aborting the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedRecord {
    /// 1-based line number in the input stream.
    pub line: u64,
    /// Human-readable reason (parse failure, non-finite similarity, …).
    pub reason: String,
}

/// In-flight measurement of one pipeline phase: wall-clock time and work counters.
///
/// This is the only sanctioned way for pipeline code to time a phase:
/// report.rs owns the process's wall-clock dependency, so the
/// deterministic modules (`rock.rs`, `algorithm.rs`, …) never read
/// `Instant::now` themselves — rock-tidy's `wall-clock` rule enforces
/// that boundary.
#[derive(Debug)]
pub struct PhaseTimer {
    started: Instant,
    counted: PerfCounters,
}

impl PhaseTimer {
    /// Starts the clock and takes this thread's counter reading.
    #[must_use]
    pub fn start() -> Self {
        PhaseTimer {
            started: Instant::now(),
            counted: crate::perf::snapshot(),
        }
    }

    /// Stops the clock and appends the phase's timing and counter delta to `report`.
    pub fn record(self, report: &mut RunReport, name: &str) {
        report.record_phase(name, self.started.elapsed());
        report.record_phase_perf(name, crate::perf::snapshot().since(&self.counted));
    }
}

/// Wall-clock duration of one pipeline phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Phase name (`"sample"`, `"cluster"`, `"label"`, …).
    pub name: String,
    /// Elapsed wall-clock time.
    pub duration: Duration,
}

/// Work counters attributed to one pipeline phase.
///
/// Unlike [`PhaseTiming`] these are *work* measurements, not time:
/// pairs emitted, bytes touched, similarity evaluations (see
/// [`crate::perf`]). They are deterministic for a given input — the
/// same run produces the same counters at every thread count — so they
/// are safe to persist and compare across hosts, where wall-clock
/// numbers are not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhasePerf {
    /// Phase name (`"sample"`, `"cluster"`, `"label"`, …).
    pub name: String,
    /// Counter deltas attributed to this phase.
    pub counters: PerfCounters,
}

/// Provenance of one quarantined shard in a shard-and-merge run (see
/// `crate::engine::supervisor::ShardSupervisor`): after the supervisor's
/// retry ladder is exhausted, the shard's points are excluded from the
/// final clustering and this note records exactly what was lost and why —
/// mirroring the Subsample degradation provenance of single runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardDegradationNote {
    /// Index of the quarantined shard. By convention the supervisor uses
    /// `shard == shard count` (one past the last shard) for a degraded
    /// coarse merge pass, which excludes no points — the shard-level
    /// clusters are kept unmerged instead.
    pub shard: usize,
    /// Every excluded point, as global input ids. Empty for a degraded
    /// merge pass.
    pub points: Vec<u32>,
    /// Attempts spent before giving up.
    pub attempts: u32,
    /// The final failure, rendered.
    pub reason: String,
}

impl fmt::Display for ShardDegradationNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} quarantined after {} attempt{}: {} ({} points excluded)",
            self.shard,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.reason,
            self.points.len()
        )
    }
}

/// Structured account of a run: what was read, what was tolerated, and
/// where the time went.
///
/// Counter fields are cumulative over one driver invocation. A resumed
/// invocation starts its own report (with
/// [`RunReport::resumed_from_offset`] set); cumulative progress across
/// invocations lives in the checkpoint, not the report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Records successfully ingested and processed.
    pub records_read: u64,
    /// Blank and `#`-comment lines skipped by the basket format.
    pub records_skipped: u64,
    /// Malformed or unlabelable records set aside (≤ the configured cap).
    pub records_quarantined: u64,
    /// Detail for the first quarantined records (bounded; the counter
    /// above is authoritative).
    pub quarantined: Vec<QuarantinedRecord>,
    /// Transient I/O errors observed (each consumed one retry attempt).
    pub transient_io_errors: u64,
    /// Read attempts retried after a transient error.
    pub io_retries: u64,
    /// Points labeled as outliers (no neighbors in any labeling set).
    pub outliers: u64,
    /// Checkpoints emitted during the run.
    pub checkpoints_written: u64,
    /// Byte offset this run resumed from, if it continued a checkpoint.
    pub resumed_from_offset: Option<u64>,
    /// Per-phase wall-clock timings, in execution order.
    pub phases: Vec<PhaseTiming>,
    /// Per-phase work counters, in execution order. Only phases that
    /// did counted work appear; zero deltas are skipped by
    /// [`RunReport::record_phase_perf`].
    pub phase_perf: Vec<PhasePerf>,
    /// Provenance of a graceful degradation, if one fired: which
    /// [`crate::governor::DegradationPolicy`] was applied, in which
    /// phase, and why (see [`crate::rock::RockBuilder::degradation`]).
    pub degraded: Option<DegradationNote>,
    /// Where a governed run was interrupted, if it did not complete:
    /// the phase that observed the trip and the reason. Set on reports
    /// that travel with partial results (e.g. a resilient ingest error);
    /// completed runs leave it `None`.
    pub interrupted: Option<(Phase, TripReason)>,
    /// How many shards a shard-and-merge run partitioned the input into
    /// (`None` for unsharded runs). Per-phase timings and work counters
    /// of a sharded report are sums across these shards.
    pub shard_count: Option<usize>,
    /// Quarantine provenance of a shard-and-merge run, one note per
    /// shard the supervisor gave up on; empty when every shard
    /// completed.
    pub shard_notes: Vec<ShardDegradationNote>,
}

impl RunReport {
    /// An empty report.
    pub fn new() -> Self {
        RunReport::default()
    }

    /// Appends a phase timing.
    pub fn record_phase(&mut self, name: &str, duration: Duration) {
        self.phases.push(PhaseTiming {
            name: name.to_string(),
            duration,
        });
    }

    /// Appends a phase's work-counter delta, unless it is all zeros.
    ///
    /// [`PhaseTimer::record`] passes its thread's counts for the phase,
    /// workers folded in. A phase that ran no counted kernel leaves no
    /// entry, so models without counted kernels persist no counters.
    pub fn record_phase_perf(&mut self, name: &str, counters: PerfCounters) {
        if counters.is_zero() {
            return;
        }
        self.phase_perf.push(PhasePerf {
            name: name.to_string(),
            counters,
        });
    }

    /// The recorded work counters of phase `name`, if present.
    pub fn phase_counters(&self, name: &str) -> Option<PerfCounters> {
        self.phase_perf
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.counters)
    }

    /// The recorded duration of phase `name`, if present.
    pub fn phase_duration(&self, name: &str) -> Option<Duration> {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.duration)
    }

    /// Counts a quarantined record, keeping detail for at most
    /// `detail_cap` of them.
    pub fn quarantine(&mut self, line: u64, reason: impl Into<String>, detail_cap: usize) {
        self.records_quarantined += 1;
        if self.quarantined.len() < detail_cap {
            self.quarantined.push(QuarantinedRecord {
                line,
                reason: reason.into(),
            });
        }
    }

    /// Whether the run degraded in any visible way (quarantines, retries,
    /// transient errors, an applied degradation policy or an
    /// interruption). Outliers are a normal ROCK outcome and do not
    /// count as degradation.
    pub fn degraded(&self) -> bool {
        self.records_quarantined > 0
            || self.transient_io_errors > 0
            || self.io_retries > 0
            || self.degraded.is_some()
            || self.interrupted.is_some()
            || !self.shard_notes.is_empty()
    }

    /// Global ids of every point excluded by shard quarantine, sorted
    /// ascending (empty for unsharded or fully surviving runs).
    pub fn excluded_points(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .shard_notes
            .iter()
            .flat_map(|n| n.points.iter().copied())
            .collect();
        out.sort_unstable();
        out
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "run report:")?;
        writeln!(
            f,
            "  records: {} read, {} skipped, {} quarantined",
            self.records_read, self.records_skipped, self.records_quarantined
        )?;
        writeln!(
            f,
            "  io: {} transient errors, {} retries",
            self.transient_io_errors, self.io_retries
        )?;
        writeln!(f, "  outliers: {}", self.outliers)?;
        match self.resumed_from_offset {
            Some(off) => writeln!(
                f,
                "  checkpoints: {} written (resumed from byte {off})",
                self.checkpoints_written
            )?,
            None => writeln!(f, "  checkpoints: {} written", self.checkpoints_written)?,
        }
        if !self.phases.is_empty() {
            write!(f, "  phases:")?;
            for p in &self.phases {
                write!(f, " {} {:.1?}", p.name, p.duration)?;
            }
            writeln!(f)?;
        }
        for p in &self.phase_perf {
            writeln!(f, "  perf: {} [{}]", p.name, p.counters)?;
        }
        if let Some(shards) = self.shard_count {
            writeln!(
                f,
                "  shards: {} total, {} quarantined",
                shards,
                self.shard_notes.len()
            )?;
        }
        if let Some(note) = &self.degraded {
            writeln!(f, "  degraded: {note}")?;
        }
        for note in &self.shard_notes {
            writeln!(f, "  degraded: {note}")?;
        }
        if let Some((phase, reason)) = &self.interrupted {
            writeln!(f, "  interrupted: {phase} phase ({reason})")?;
        }
        for q in &self.quarantined {
            writeln!(f, "  quarantined line {}: {}", q.line, q.reason)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_caps_detail_but_counts_all() {
        let mut r = RunReport::new();
        for i in 0..10 {
            r.quarantine(i, "bad token", 3);
        }
        assert_eq!(r.records_quarantined, 10);
        assert_eq!(r.quarantined.len(), 3);
        assert!(r.degraded());
    }

    #[test]
    fn phases_accumulate() {
        let mut r = RunReport::new();
        r.record_phase("sample", Duration::from_millis(2));
        r.record_phase("cluster", Duration::from_millis(5));
        assert_eq!(r.phase_duration("cluster"), Some(Duration::from_millis(5)));
        assert_eq!(r.phase_duration("label"), None);
    }

    #[test]
    fn phase_perf_skips_zero_deltas_and_displays_nonzero() {
        let mut r = RunReport::new();
        r.record_phase_perf("sample", PerfCounters::default());
        assert!(r.phase_perf.is_empty(), "zero delta must leave no entry");

        let counters = PerfCounters {
            pairs_emitted: 12,
            bytes_touched: 4096,
            ..PerfCounters::default()
        };
        r.record_phase_perf("cluster", counters);
        assert_eq!(r.phase_counters("cluster"), Some(counters));
        assert_eq!(r.phase_counters("sample"), None);
        let s = r.to_string();
        assert!(s.contains("perf: cluster"), "missing perf line in:\n{s}");
        assert!(s.contains("pairs=12"), "missing counter in:\n{s}");
    }

    #[test]
    fn clean_run_is_not_degraded() {
        let mut r = RunReport::new();
        r.records_read = 100;
        r.outliers = 5;
        assert!(!r.degraded());
    }

    #[test]
    fn shard_notes_count_as_degradation_and_display() {
        let mut r = RunReport::new();
        r.shard_count = Some(4);
        assert!(!r.degraded(), "a fully surviving sharded run is clean");
        r.shard_notes.push(ShardDegradationNote {
            shard: 2,
            points: vec![20, 21, 22],
            attempts: 3,
            reason: "run interrupted in merge phase: cancelled".into(),
        });
        assert!(r.degraded());
        assert_eq!(r.excluded_points(), vec![20, 21, 22]);
        let s = r.to_string();
        assert!(s.contains("shards: 4 total, 1 quarantined"), "{s}");
        assert!(s.contains("shard 2 quarantined after 3 attempts"), "{s}");
        assert!(s.contains("3 points excluded"), "{s}");
    }

    #[test]
    fn excluded_points_merge_sorted_across_notes() {
        let mut r = RunReport::new();
        for (shard, points) in [(1usize, vec![7u32, 9]), (0, vec![1, 3])] {
            r.shard_notes.push(ShardDegradationNote {
                shard,
                points,
                attempts: 1,
                reason: "x".into(),
            });
        }
        assert_eq!(r.excluded_points(), vec![1, 3, 7, 9]);
    }

    #[test]
    fn display_mentions_every_counter() {
        let mut r = RunReport::new();
        r.records_read = 42;
        r.records_skipped = 3;
        r.transient_io_errors = 2;
        r.io_retries = 2;
        r.outliers = 7;
        r.checkpoints_written = 1;
        r.resumed_from_offset = Some(512);
        r.quarantine(17, "bad item token \"x\"", 8);
        let s = r.to_string();
        for needle in ["42", "3 skipped", "2 retries", "7", "512", "line 17"] {
            assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
        }
    }
}
