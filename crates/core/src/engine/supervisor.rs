//! The shard supervisor: retry, resume, quarantine and merge for
//! fault-isolated shard-and-merge runs.
//!
//! Each shard moves through a small state machine, driven entirely by
//! typed errors (never panics):
//!
//! ```text
//!   Pending ──► Running(attempt n) ──ok──────────────────────► Done
//!                  │        ▲
//!                  │ trip   │ backoff · carry shard WAL
//!                  ▼        │
//!              Retrying(n) ─┘──ladder exhausted / poisoned──► Quarantined
//! ```
//!
//! * **Running** — the shard's slice runs the staged
//!   [`Pipeline::fit_wal`] composition (θ-neighbors → journaled merge)
//!   under a *child* governor ([`RunGovernor::child`]): its own deadline
//!   and memory slice, the parent's cancellation token.
//! * **Retrying** — a deadline/memory/kill trip sleeps the configured
//!   (optionally seed-jittered) backoff, then resumes from the shard's
//!   carried WAL when the interruption was resumable — a replay is
//!   bit-identical to an uninterrupted run — or restarts from scratch
//!   when it was not (or the carried log turned out damaged).
//! * **Quarantined** — after `1 + max_retries` failed attempts (or
//!   immediately on a poisoned, NaN-producing shard: deterministic
//!   corruption is never retried), the shard's points are excluded and
//!   recorded as a [`ShardDegradationNote`] in the report. The run
//!   continues; one bad shard never takes down or silently skews the
//!   whole clustering.
//!
//! An externally cancelled parent is authoritative: it aborts the whole
//! run with [`RockError::Interrupted`], and is never masked as a
//! quarantine.
//!
//! Surviving shard clusters are merged by a coarse ROCK pass over their
//! `Lᵢ` representative sets ([`RepSetSimilarity`]), run under the same
//! retry ladder (fault plans address it by the sentinel shard index
//! `shard count`). If *that* ladder is exhausted, the run degrades to
//! the concatenation of shard-level clusters — recorded, never silent.
//!
//! [`RunGovernor::child`]: crate::governor::RunGovernor::child
//! [`ShardDegradationNote`]: crate::report::ShardDegradationNote
//! [`RockError::Interrupted`]: crate::error::RockError::Interrupted

use crate::algorithm::{OutlierPolicy, RockRun};
use crate::cluster::Clustering;
use crate::engine::pipeline::Pipeline;
use crate::engine::shard::{
    shard_ranges, NoFaults, RepSetSimilarity, ShardConfig, ShardFaultPlan, ShardRun,
};
use crate::error::RockError;
use crate::governor::{DegradationPolicy, Phase, RunGovernor};
use crate::report::{PhaseTimer, RunReport, ShardDegradationNote};
use crate::rock::RockConfig;
use crate::similarity::{CheckedSimilarity, PairwiseSimilarity, PointsWith, Similarity};
use crate::wal::MergeWal;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A supervised multi-shard ROCK run: deterministic sharding, per-shard
/// fault isolation, representative-level merge.
///
/// Build one with [`ShardSupervisor::new`] (or
/// [`crate::rock::Rock::shard_supervisor`]) and call
/// [`ShardSupervisor::run`]. With `shards == 1` the result is
/// bit-identical to the unsharded journaled pipeline
/// ([`crate::rock::Rock::cluster_wal`]) at every thread count.
#[derive(Clone, Debug)]
pub struct ShardSupervisor {
    config: RockConfig,
    shard: ShardConfig,
    governor: RunGovernor,
}

/// The outcome of a supervised shard-and-merge run.
#[derive(Clone, Debug)]
pub struct ShardedRun {
    /// The final clustering over the full input, in global point ids.
    /// Points of quarantined shards appear in neither clusters nor
    /// outliers — they are listed in the report's shard notes.
    pub clustering: Clustering,
    /// The surviving shards' local runs, in shard order.
    pub shard_runs: Vec<ShardRun>,
    /// The aggregated report: shard count, per-phase timings and work
    /// counters summed across shards, and quarantine provenance.
    pub report: RunReport,
}

impl ShardedRun {
    /// Global ids of every point excluded by shard quarantine, sorted
    /// ascending (empty when every shard survived).
    pub fn excluded_points(&self) -> Vec<u32> {
        self.report.excluded_points()
    }
}

/// What one shard's retry ladder concluded.
enum ShardOutcome {
    Done { run: RockRun, attempts: u32 },
    Quarantined { attempts: u32, reason: String },
}

impl ShardSupervisor {
    /// Validates `shard` against `config` and builds a supervisor whose
    /// parent governor is `governor`.
    ///
    /// # Errors
    /// [`RockError::InvalidShardCount`] for zero shards,
    /// [`RockError::InvalidLabelingFraction`] for a representative
    /// fraction outside `(0, 1]`, [`RockError::InvalidTheta`] for a
    /// merge θ outside `[0, 1]`.
    pub fn new(
        config: RockConfig,
        shard: ShardConfig,
        governor: RunGovernor,
    ) -> Result<Self, RockError> {
        if shard.shards == 0 {
            return Err(RockError::InvalidShardCount(0));
        }
        if !(shard.representative_fraction > 0.0 && shard.representative_fraction <= 1.0) {
            return Err(RockError::InvalidLabelingFraction(
                shard.representative_fraction,
            ));
        }
        if let Some(t) = shard.merge_theta {
            if !(0.0..=1.0).contains(&t) {
                return Err(RockError::InvalidTheta(t));
            }
        }
        Ok(ShardSupervisor {
            config,
            shard,
            governor,
        })
    }

    /// The shard configuration this supervisor runs under.
    pub fn shard_config(&self) -> &ShardConfig {
        &self.shard
    }

    /// Runs the supervised shard-and-merge pipeline over `data`.
    ///
    /// # Errors
    /// [`RockError::Interrupted`] when the *parent* governor is
    /// cancelled or out of budget (per-shard failures quarantine instead
    /// of erroring), [`RockError::NonFiniteSimilarity`] never — a
    /// poisoned shard is quarantined with provenance.
    pub fn run<P, S>(&self, data: &[P], measure: &S) -> Result<ShardedRun, RockError>
    where
        P: Clone + Sync,
        S: Similarity<P> + Sync,
    {
        self.run_with_plan(data, measure, &NoFaults)
    }

    /// [`ShardSupervisor::run`] with a deterministic fault plan applied
    /// to every shard attempt (and to the coarse merge pass, addressed
    /// as shard index `shard count`) — the chaos-matrix test seam.
    ///
    /// # Errors
    /// As [`ShardSupervisor::run`].
    pub fn run_with_plan<P, S, F>(
        &self,
        data: &[P],
        measure: &S,
        plan: &F,
    ) -> Result<ShardedRun, RockError>
    where
        P: Clone + Sync,
        S: Similarity<P> + Sync,
        F: ShardFaultPlan,
    {
        self.run_inner(data, measure, plan, &[])
    }

    /// Runs only the shards *not* listed in `excluded` (fault-free),
    /// quarantining the excluded ones by fiat with zero attempts — the
    /// oracle the quarantine-ladder proptests compare a faulted run
    /// against: surviving output must be bit-identical.
    ///
    /// # Errors
    /// As [`ShardSupervisor::run`].
    pub fn run_excluding<P, S>(
        &self,
        data: &[P],
        measure: &S,
        excluded: &[usize],
    ) -> Result<ShardedRun, RockError>
    where
        P: Clone + Sync,
        S: Similarity<P> + Sync,
    {
        self.run_inner(data, measure, &NoFaults, excluded)
    }

    fn run_inner<P, S, F>(
        &self,
        data: &[P],
        measure: &S,
        plan: &F,
        excluded: &[usize],
    ) -> Result<ShardedRun, RockError>
    where
        P: Clone + Sync,
        S: Similarity<P> + Sync,
        F: ShardFaultPlan,
    {
        self.governor.arm();
        let ranges = shard_ranges(data.len(), self.shard.shards);
        let mut report = RunReport::new();
        report.records_read = data.len() as u64;
        report.shard_count = Some(ranges.len());

        // Phase "cluster": every shard's attempts. The perf counters are
        // process-global, so one snapshot window around the whole loop
        // sums the per-shard kernel work — satellite aggregation for
        // free, comparable with single-run reports.
        let t = PhaseTimer::start();
        let perf_before = crate::perf::snapshot();
        let mut shard_runs: Vec<ShardRun> = Vec::new();
        for (s, range) in ranges.iter().enumerate() {
            if excluded.contains(&s) {
                report.shard_notes.push(ShardDegradationNote {
                    shard: s,
                    points: range.clone().map(|i| i as u32).collect(),
                    attempts: 0,
                    reason: "excluded by caller".to_string(),
                });
                continue;
            }
            // tidy-allow(panic-reach): plan ranges partition 0..data.len() by construction in plan_shards
            let points = &data[range.clone()];
            match self.run_shard(points, measure, s, plan)? {
                ShardOutcome::Done { run, attempts } => shard_runs.push(ShardRun {
                    shard: s,
                    range: range.clone(),
                    attempts,
                    run,
                }),
                ShardOutcome::Quarantined { attempts, reason } => {
                    report.shard_notes.push(ShardDegradationNote {
                        shard: s,
                        points: range.clone().map(|i| i as u32).collect(),
                        attempts,
                        reason,
                    });
                }
            }
        }
        t.record(&mut report, "cluster");
        report.record_phase_perf("cluster", crate::perf::snapshot().since(&perf_before));

        // Phase "merge": the coarse representative-level pass.
        let t = PhaseTimer::start();
        let perf_before = crate::perf::snapshot();
        let clustering = self.merge(data, measure, ranges.len(), &shard_runs, plan, &mut report)?;
        t.record(&mut report, "merge");
        report.record_phase_perf("merge", crate::perf::snapshot().since(&perf_before));

        report.outliers = clustering.outliers.len() as u64;
        Ok(ShardedRun {
            clustering,
            shard_runs,
            report,
        })
    }

    /// The child governor a shard attempt starts from: shared parent
    /// cancellation, plus the configured per-shard budgets.
    fn child_governor(&self) -> RunGovernor {
        let mut g = self.governor.child();
        if let Some(d) = self.shard.shard_deadline {
            g = g.with_time_budget(d);
        }
        if let Some(m) = self.shard.shard_memory_budget {
            g = g.with_memory_budget(m);
        }
        g
    }

    /// One shard's retry ladder (see the module diagram).
    fn run_shard<P, S, F>(
        &self,
        points: &[P],
        measure: &S,
        shard: usize,
        plan: &F,
    ) -> Result<ShardOutcome, RockError>
    where
        P: Clone + Sync,
        S: Similarity<P> + Sync,
        F: ShardFaultPlan,
    {
        let attempts_budget = self.shard.retry.max_retries.saturating_add(1);
        let mut carried: Option<Vec<u8>> = None;
        let mut last_failure = String::new();
        let mut attempt = 0u32;
        while attempt < attempts_budget {
            // A cancelled or over-budget *parent* aborts the whole run;
            // quarantine never masks it.
            self.governor.check(Phase::Merge)?;
            let gov = plan.governor(shard, attempt, self.child_governor());
            gov.arm();
            let checked = CheckedSimilarity::new(measure);
            let pw = PointsWith::new(points, &checked);
            let mut wal = MergeWal::new();
            let pipeline = Pipeline::new(self.config, gov).attach_wal(&mut wal);
            let outcome = match carried.as_deref() {
                Some(bytes) => pipeline.resume(&pw, bytes),
                None => pipeline.fit_wal(&pw),
            };
            let failure = match outcome {
                Ok(run) => match checked.error() {
                    None => {
                        return Ok(ShardOutcome::Done {
                            run,
                            attempts: attempt + 1,
                        })
                    }
                    Some(e) => e,
                },
                Err(e) => e,
            };
            last_failure = failure.to_string();
            match failure {
                // A deterministic poison no retry can fix: quarantine
                // now (the corruption-never-retried rule).
                RockError::NonFiniteSimilarity { .. } => {
                    return Ok(ShardOutcome::Quarantined {
                        attempts: attempt + 1,
                        reason: last_failure,
                    });
                }
                RockError::Interrupted {
                    phase,
                    reason,
                    resumable,
                } => {
                    // Distinguish a real external cancellation (parent
                    // token fired) from an injected kill or a tripped
                    // per-shard budget: the former is authoritative.
                    if self.governor.cancel_token().is_cancelled() {
                        return Err(RockError::Interrupted {
                            phase,
                            reason,
                            resumable,
                        });
                    }
                    if resumable && !wal.is_empty() {
                        // Carry the shard's WAL into the next attempt:
                        // the resume replays to a bit-identical result.
                        // A log damaged in flight (torn write past the
                        // recoverable tail) is useless to resume from —
                        // validate now rather than burn a ladder rung on
                        // a doomed resume; torn *tails* parse fine and
                        // replay truncated.
                        let bytes = plan.wal_bytes(shard, attempt, wal.into_bytes());
                        if crate::wal::parse_wal(&bytes).is_ok() {
                            carried = Some(bytes);
                        }
                    }
                    // Otherwise keep whatever log the previous attempt
                    // carried (still valid to resume from), or None for
                    // a from-scratch retry.
                }
                // The carried log turned out damaged or foreign: drop it
                // and retry from scratch.
                RockError::WalCorrupt { .. } | RockError::WalMismatch { .. } => {
                    carried = None;
                }
                // Anything else burns a ladder rung too — the shard ends
                // in provenance-carrying quarantine, not a global abort.
                _ => {}
            }
            attempt += 1;
            if attempt < attempts_budget {
                let delay = self.shard.retry.backoff(attempt - 1);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
        }
        Ok(ShardOutcome::Quarantined {
            attempts: attempts_budget,
            reason: last_failure,
        })
    }

    /// Representative set `Lᵢ` of one shard cluster: all members at
    /// fraction 1.0, otherwise a deterministic seeded sample keyed by
    /// `(seed, shard, cluster)` — independent of retry history, so
    /// faulted and fault-free runs draw identical sets.
    fn representatives<P: Clone>(
        &self,
        shard: usize,
        cluster: usize,
        global: &[u32],
        data: &[P],
    ) -> Vec<P> {
        let frac = self.shard.representative_fraction;
        if frac >= 1.0 || global.is_empty() {
            return global
                .iter()
                .filter_map(|&g| data.get(g as usize).cloned())
                .collect();
        }
        let keep = ((global.len() as f64 * frac).ceil() as usize).clamp(1, global.len());
        let mix = crate::util::splitmix64(
            self.config.seed.unwrap_or(0)
                ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (cluster as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        );
        let mut rng = StdRng::seed_from_u64(mix);
        crate::sampling::sample_indices(global.len(), keep, &mut rng)
            .iter()
            .filter_map(|&i| global.get(i).and_then(|&g| data.get(g as usize)).cloned())
            .collect()
    }

    /// The coarse merge: shard-level outliers become global outliers;
    /// surviving shard clusters become coarse points (their `Lᵢ`
    /// representative sets) clustered by a second ROCK pass on
    /// representative link density, then completed down to the target k
    /// by density single-link (tiny coarse graphs are often too
    /// link-starved for goodness-based merging alone). One surviving
    /// shard skips the pass outright — that is what makes `shards == 1`
    /// bit-identical to the unsharded pipeline.
    fn merge<P, S, F>(
        &self,
        data: &[P],
        measure: &S,
        num_shards: usize,
        shard_runs: &[ShardRun],
        plan: &F,
        report: &mut RunReport,
    ) -> Result<Clustering, RockError>
    where
        P: Clone + Sync,
        S: Similarity<P> + Sync,
        F: ShardFaultPlan,
    {
        let mut outliers: Vec<u32> = Vec::new();
        for sr in shard_runs {
            for &o in &sr.run.clustering.outliers {
                outliers.push(sr.range.start as u32 + o);
            }
        }
        if shard_runs.is_empty() {
            return Ok(Clustering::new(Vec::new(), outliers));
        }
        if let [only] = shard_runs {
            let base = only.range.start as u32;
            let clusters = only
                .run
                .clustering
                .clusters
                .iter()
                .map(|c| c.iter().map(|&p| base + p).collect())
                .collect();
            return Ok(Clustering::new(clusters, outliers));
        }

        // Coarse points: one per surviving shard cluster.
        let mut sets: Vec<Vec<P>> = Vec::new();
        let mut members: Vec<Vec<u32>> = Vec::new();
        for sr in shard_runs {
            for (ci, cluster) in sr.run.clustering.clusters.iter().enumerate() {
                let global: Vec<u32> = cluster
                    .iter()
                    .map(|&p| sr.range.start as u32 + p)
                    .collect();
                sets.push(self.representatives(sr.shard, ci, &global, data));
                members.push(global);
            }
        }

        let checked = CheckedSimilarity::new(measure);
        let sim = RepSetSimilarity::new(&sets, &checked, self.config.theta);
        let coarse_config = RockConfig {
            theta: self.shard.merge_theta.unwrap_or(self.config.theta),
            // Isolated shard clusters must stay clusters, not vanish as
            // coarse-level outliers.
            outliers: OutlierPolicy::disabled(),
            sample_size: None,
            degradation: DegradationPolicy::Fail,
            ..self.config
        };

        // The coarse pass runs the same retry ladder, addressed by the
        // sentinel shard index `num_shards`. Attempts restart from
        // scratch — the pass is tiny (one point per shard cluster).
        let attempts_budget = self.shard.retry.max_retries.saturating_add(1);
        let mut last_failure = String::new();
        let mut coarse: Option<RockRun> = None;
        let mut attempt = 0u32;
        let mut attempts_used = 0u32;
        while attempt < attempts_budget {
            self.governor.check(Phase::Merge)?;
            let gov = plan.governor(num_shards, attempt, self.child_governor());
            gov.arm();
            attempts_used = attempt + 1;
            match Pipeline::new(coarse_config, gov).fit_wal(&sim) {
                Ok(run) => match checked.error() {
                    None => {
                        coarse = Some(run);
                        break;
                    }
                    Some(e) => {
                        // Poisoned representatives: deterministic, so
                        // exhaust the ladder immediately.
                        last_failure = e.to_string();
                        break;
                    }
                },
                Err(e) => {
                    if self.governor.cancel_token().is_cancelled() {
                        return Err(e);
                    }
                    last_failure = e.to_string();
                    attempt += 1;
                    if attempt < attempts_budget {
                        let delay = self.shard.retry.backoff(attempt - 1);
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                    }
                }
            }
        }

        let Some(run) = coarse else {
            report.shard_notes.push(ShardDegradationNote {
                shard: num_shards,
                points: Vec::new(),
                attempts: attempts_used,
                reason: format!(
                    "coarse merge abandoned ({last_failure}); shard clusters kept unmerged"
                ),
            });
            return Ok(Clustering::new(members, outliers));
        };

        // Coarse groups of coarse-point ids. The coarse outlier policy
        // is disabled, but a coarse point can still end up outside every
        // cluster (e.g. pruned as neighborless); keep it as its own
        // group rather than dropping its points.
        let mut groups: Vec<Vec<u32>> = run.clustering.clusters.clone();
        for &cp in &run.clustering.outliers {
            groups.push(vec![cp]);
        }

        // Density single-link completion. ROCK's goodness needs *common*
        // neighbors, and a handful of coarse points rarely has any — a
        // split cluster whose two halves are each other's only neighbor
        // would stay split forever. Finish the agglomeration down to the
        // target k by merging the densest remaining pair of groups while
        // its best cross-pair representative density still clears the
        // coarse θ. Deterministic: first maximal pair in index order.
        while groups.len() > self.config.k {
            let mut best = (0usize, 0usize, f64::NEG_INFINITY);
            for i in 0..groups.len() {
                for j in (i + 1)..groups.len() {
                    let mut density = f64::NEG_INFINITY;
                    // tidy-allow(panic-reach): i < j < groups.len() by the loop bounds
                    for &a in &groups[i] {
                        for &b in &groups[j] {
                            let s = sim.sim(a as usize, b as usize);
                            if s > density {
                                density = s;
                            }
                        }
                    }
                    if density > best.2 {
                        best = (i, j, density);
                    }
                }
            }
            // Densities are finite in [0, 1] (or −∞ when a group pair
            // has no cross pairs), so `<` is the exact negation here.
            if best.2 < coarse_config.theta {
                break;
            }
            let absorbed = groups.swap_remove(best.1);
            // tidy-allow(panic-reach): best.0 < best.1 < groups.len() — the pair search only improves best with in-bounds indices, and the θ break above rejects the (0, 0, −∞) initial value
            groups[best.0].extend(absorbed);
        }

        // Map coarse groups back to global point sets.
        let clusters: Vec<Vec<u32>> = groups
            .iter()
            .map(|group| {
                group
                    .iter()
                    .flat_map(|&cp| members.get(cp as usize).into_iter().flatten().copied())
                    .collect()
            })
            .collect();
        Ok(Clustering::new(clusters, outliers))
    }
}
