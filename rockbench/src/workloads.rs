//! The five workloads: inputs, measured loops, correctness checks and the
//! traced replicas that attribute time and work to layers.
//!
//! Every workload runs on one thread: fits use `threads(1)` and the serve
//! loop is closed with one client, because the reference host has two
//! shared cores and a second client spread throughput by 20% run to run.

use crate::metrics::{self, PER_LAYER};
use crate::stats::{median, percentile};
use crate::trace::{self_seconds, CountingSimilarity, Tracer};
use rand::{rngs::StdRng, SeedableRng};
use rock_core::engine::{LabelStage, LinksStage, MergeStage, NeighborsStage, SampleStage};
use rock_core::{
    AssignService, CheckedSimilarity, ClusterModel, Clustering, ConstantF, Goodness, Jaccard,
    LinkKernel, LinkMatrix, ModelArtifact, OnlineAssignService, PointsWith, Rock, RockAlgorithm,
    RockModel, RunGovernor, ServeConfig, StalenessPolicy, Transaction,
};
use rock_data::{generate_baskets, generate_drift_stream, DriftStreamSpec, SyntheticBasketSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5, θ = 0.5: a dense neighbor graph; links and merge dominate.
    FitDense,
    /// Fig. 5, θ = 0.8: a sparse graph; the neighbor scan dominates.
    FitSparse,
    /// Fig. 2: a small sample of a large set; labeling dominates.
    FitWide,
    /// Closed-loop §4.6 assign requests against a reloaded artifact.
    ServeAssign,
    /// Online absorbs of a drifting stream, each followed by reads.
    OnlineUpdate,
}

/// Every workload, in the order `--all` runs them.
pub const ALL: [Workload; 5] = [
    Workload::FitDense,
    Workload::FitSparse,
    Workload::FitWide,
    Workload::ServeAssign,
    Workload::OnlineUpdate,
];

impl Workload {
    /// The workload's name, as `--workload` and `BENCHMARK.json` spell it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FitDense => "fit_dense",
            Workload::FitSparse => "fit_sparse",
            Workload::FitWide => "fit_wide",
            Workload::ServeAssign => "serve_assign",
            Workload::OnlineUpdate => "online_update",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload once.
    ///
    /// # Errors
    /// A set-up failure (the workload could not start) as text.
    pub fn run(self, args: &RunArgs) -> Result<Outcome, String> {
        match self {
            Workload::FitDense => run_fit(&FIT_DENSE, args),
            Workload::FitSparse => run_fit(&FIT_SPARSE, args),
            Workload::FitWide => run_fit(&FIT_WIDE, args),
            Workload::ServeAssign => run_serve(&SERVE_ASSIGN, args),
            Workload::OnlineUpdate => run_online(&ONLINE_UPDATE, args),
        }
    }
}

/// How one run is driven.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Seeds the data generators.
    pub seed: u64,
    /// Wall-clock length of the measured loop.
    pub seconds: f64,
    /// Whether to add the traced replica and report per-layer metrics.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans: PathBuf,
    /// Scratch directory for artifact round trips.
    pub scratch: PathBuf,
}

impl RunArgs {
    /// Length of the untraced loop: all of `seconds`, or half of it when
    /// the traced round follows.
    fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured loops.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub mismatches: Vec<String>,
    /// Every metric of the run's mode, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines: sample counts, tails, phase shares.
    pub notes: Vec<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// Sampling and labeling seed of every ROCK fit. The data seed comes from
/// `--seed`; holding this one fixed keeps each run's fits comparable.
const ROCK_SEED: u64 = 7;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Labeling fraction of every fit (the paper's 0.25).
const FRACTION: f64 = 0.25;

struct FitConfig {
    scale: f64,
    theta: f64,
    k: usize,
    sample: usize,
    /// Lowest acceptable ARI against the generator's ground truth.
    ari_floor: f64,
}

const FIT_DENSE: FitConfig = FitConfig {
    scale: 0.05,
    theta: 0.5,
    k: 10,
    sample: 3000,
    ari_floor: 0.99,
};
const FIT_SPARSE: FitConfig = FitConfig {
    scale: 0.05,
    theta: 0.8,
    k: 10,
    sample: 4000,
    ari_floor: 0.35,
};
const FIT_WIDE: FitConfig = FitConfig {
    scale: 0.25,
    theta: 0.5,
    k: 10,
    sample: 1000,
    ari_floor: 0.99,
};

fn rock(theta: f64, k: usize, sample: usize) -> rock_core::RockBuilder {
    Rock::builder()
        .theta(theta)
        .clusters(k)
        .sample_size(sample)
        .labeling_fraction(FRACTION)
        .seed(ROCK_SEED)
        .threads(1)
}

fn baskets(scale: f64, seed: u64) -> rock_data::SyntheticBasketData {
    generate_baskets(
        &SyntheticBasketSpec::paper_scaled(scale),
        &mut StdRng::seed_from_u64(seed),
    )
}

/// Runs `setup` [`SETUP_REPS`] times, keeping the last result and the
/// median duration.
fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous repetition first, so each one starts alike.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    crate::heap::reset_peak();
    let setup_s = median(&times).ok_or("no set-up ran")?;
    last.map(|v| (v, setup_s))
        .ok_or_else(|| "no set-up ran".to_string())
}

/// ARI of predicted against true assignments, outliers one extra class on
/// each side.
fn ari(pred: &[Option<usize>], truth: &[Option<usize>]) -> f64 {
    let kp = pred.iter().flatten().max().map_or(0, |m| m + 1);
    let kt = truth.iter().flatten().max().map_or(0, |m| m + 1);
    rock_eval::adjusted_rand_index(
        &rock_eval::dense_labels(pred, kp),
        &rock_eval::dense_labels(truth, kt),
    )
}

/// Fills in the end-to-end metrics shared by every workload. The heap
/// peak counts from the end of set-up.
fn end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    op_s: &[f64],
    items: f64,
    quality: f64,
) -> Result<(), String> {
    let p50 = median(op_s).ok_or("no operation was timed")?;
    let busy: f64 = op_s.iter().sum();
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("op_p50_ms", p50 * 1e3);
    out.metrics.insert("items_per_s", items / busy);
    out.metrics.insert("ari", quality);
    out.metrics.insert(
        "peak_heap_mb",
        crate::heap::peak_bytes() as f64 / (1024.0 * 1024.0),
    );
    Ok(())
}

/// A tail note: the p99 when at least ten samples lie beyond it.
fn tail_note(what: &str, samples: &[f64], scale: f64, unit: &str) -> String {
    let p50 = median(samples).unwrap_or(0.0) * scale;
    match percentile(samples, 99.0) {
        Some(p99) => format!(
            "{what}: p50 {p50:.3} {unit}, p99 {:.3} {unit} over {} samples",
            p99 * scale,
            samples.len()
        ),
        None => format!(
            "{what}: p50 {p50:.3} {unit} over {} samples (too few for a p99)",
            samples.len()
        ),
    }
}

/// `part / whole`, or 0 when there is no whole.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The per-layer map with every layer at zero; traced replicas fill in
/// the layers they exercise.
fn zero_layers() -> BTreeMap<&'static str, f64> {
    PER_LAYER.iter().map(|m| (m.name, 0.0)).collect()
}

/// Adds span self times to the layer map and the trace overhead, then
/// writes the spans.
fn finish_trace(
    out: &mut Outcome,
    mut layers: BTreeMap<&'static str, f64>,
    tracer: &Tracer,
    traced_op_s: &[f64],
    untraced_op_s: &[f64],
    spans: &Path,
) -> Result<(), String> {
    for (name, secs) in self_seconds(tracer.spans()) {
        let key = format!("{name}.self_s");
        if let Some(m) = metrics::find(&key) {
            layers.insert(m.name, secs);
        }
    }
    let traced = median(traced_op_s).ok_or("no traced operation")?;
    let untraced = median(untraced_op_s).ok_or("no untraced operation")?;
    layers.insert("trace.overhead_frac", traced / untraced - 1.0);
    tracer
        .write_jsonl(spans)
        .map_err(|e| format!("writing spans to {}: {e}", spans.display()))?;
    out.notes.push(format!(
        "spans: {} written to {}",
        tracer.spans().len(),
        spans.display()
    ));
    out.metrics = layers;
    Ok(())
}

/// The deadline of a measured loop that runs for `seconds`.
struct Deadline(Instant, f64);

impl Deadline {
    fn after(seconds: f64) -> Self {
        Deadline(Instant::now(), seconds)
    }

    fn passed(&self) -> bool {
        self.0.elapsed().as_secs_f64() >= self.1
    }
}

// ---------------------------------------------------------------- fits

fn run_fit(cfg: &FitConfig, args: &RunArgs) -> Result<Outcome, String> {
    let ((data, model), setup_s) = repeated_setup(|| {
        let data = baskets(cfg.scale, args.seed);
        let rock = rock(cfg.theta, cfg.k, cfg.sample)
            .build()
            .map_err(|e| e.to_string())?;
        Ok((data, RockModel::new(rock, Jaccard)))
    })?;
    let points = &data.transactions[..];
    let mut out = Outcome::default();

    // The warm-up fit is the reference every timed fit must equal.
    let reference = model.fit(points).map_err(|e| format!("warm-up fit: {e}"))?;
    let quality = ari(&reference.assignments(points.len()), &data.labels);
    out.check(quality >= cfg.ari_floor, || {
        format!("ARI {quality:.4} below the floor {}", cfg.ari_floor)
    });

    let deadline = Deadline::after(args.untraced_seconds());
    let mut fit_s = Vec::new();
    while fit_s.len() < 3 || !deadline.passed() {
        let t = Instant::now();
        let fit = model.fit(points);
        fit_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        match fit {
            Ok(fit) => {
                let n = fit_s.len();
                out.check(fit.clustering == reference.clustering, || {
                    format!("timed fit {n} differs from the warm-up fit")
                });
            }
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("fit failed: {e}"));
            }
        }
    }
    out.notes.push(format!(
        "fit_s: median {:.4} s over {} fits of {} points (sample {}, θ {})",
        median(&fit_s).unwrap_or(0.0),
        fit_s.len(),
        points.len(),
        cfg.sample,
        cfg.theta
    ));

    if args.trace {
        let mut tracer = Tracer::new();
        let mut layers = zero_layers();
        let t = Instant::now();
        let traced = traced_fit(model.rock(), points, &mut tracer, &mut layers)
            .map_err(|e| format!("traced fit: {e}"))?;
        let traced_s = t.elapsed().as_secs_f64();
        out.attempted += 1;
        out.check(traced == reference.clustering, || {
            "traced fit differs from the untraced fit".to_string()
        });
        let total: f64 = traced_s.max(f64::MIN_POSITIVE);
        let shares: Vec<String> = self_seconds(tracer.spans())
            .into_iter()
            .filter(|(name, _)| *name != "fit")
            .map(|(name, s)| format!("{name} {:.1}%", 100.0 * s / total))
            .collect();
        out.notes
            .push(format!("traced fit {traced_s:.4} s: {}", shares.join(", ")));
        finish_trace(&mut out, layers, &tracer, &[traced_s], &fit_s, &args.spans)?;
    } else {
        end_to_end(
            &mut out,
            setup_s,
            &fit_s,
            (points.len() * fit_s.len()) as f64,
            quality,
        )?;
    }
    Ok(out)
}

/// One fit through the five public stages, in the order and on the RNG
/// stream of `Pipeline::fit_with_labeler`, with a span and a counter
/// reading around each stage. Returns the full-data clustering.
fn traced_fit(
    rock: &Rock,
    data: &[Transaction],
    tracer: &mut Tracer,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<Clustering, rock_core::RockError> {
    let cfg = *rock.config();
    let counting = CountingSimilarity::new(Jaccard, cfg.theta);
    let checked = CheckedSimilarity::new(&counting);
    let mut pipe = rock.session();
    tracer.span("fit", 0, |tracer| {
        let sample = tracer.span("sampling", 0, |_| {
            let idx = pipe.stage(SampleStage {
                data_len: data.len(),
                sample_size: cfg.sample_size,
            })?;
            Ok::<Vec<Transaction>, rock_core::RockError>(
                idx.iter().map(|&i| data[i].clone()).collect(),
            )
        })?;

        let pw = PointsWith::new(&sample, &checked);
        let graph = tracer.span("neighbors", 0, |_| {
            pipe.stage(NeighborsStage {
                sim: &pw,
                theta: cfg.theta,
                threads: cfg.threads,
            })
        })?;
        if let Some(e) = checked.error() {
            return Err(e);
        }
        let (evals, _) = counting.take();
        let edges = (0..graph.len()).map(|i| graph.degree(i)).sum::<usize>() / 2;
        layers.insert("neighbors.sim_evals", evals as f64);
        layers.insert("neighbors.edges", edges as f64);
        layers.insert("neighbors.yield", ratio(edges as u64, evals));

        let before = rock_core::perf::snapshot();
        let links = tracer.span("links_matrix", 0, |_| {
            pipe.stage(LinksStage {
                graph: &graph,
                threads: cfg.threads,
            })
        })?;
        let work = rock_core::perf::snapshot().since(&before);
        layers.insert("links_matrix.pairs_emitted", work.pairs_emitted as f64);
        layers.insert("links_matrix.bytes_touched", work.bytes_touched as f64);
        layers.insert("links_matrix.linked_pairs", links.num_linked_pairs() as f64);
        let dense = LinkMatrix::choose_kernel(&graph) == LinkKernel::Dense;
        layers.insert("links_matrix.dense_kernel", f64::from(u8::from(dense)));

        let goodness = Goodness::new(cfg.theta, ConstantF(cfg.ftheta), cfg.goodness_kind);
        let mut algorithm = RockAlgorithm::new(goodness, cfg.k, cfg.outliers);
        if let Some(seed) = cfg.hash_seed {
            algorithm = algorithm.with_hash_seed(seed);
        }
        let before = rock_core::perf::snapshot();
        let run = tracer.span("algorithm", 0, |_| {
            pipe.stage(MergeStage {
                graph: &graph,
                links: Some(&links),
                algorithm,
                threads: cfg.threads,
            })
        })?;
        let work = rock_core::perf::snapshot().since(&before);
        layers.insert("algorithm.merges", run.merges.len() as f64);
        layers.insert("algorithm.scratch_reused", work.scratch_reused as f64);

        let (_, labeling) = tracer.span("labeling", 0, |_| {
            pipe.stage(LabelStage {
                sample: &sample,
                clusters: &run.clustering.clusters,
                data,
                measure: &checked,
                fraction: cfg.labeling_fraction,
                theta: cfg.theta,
                ftheta: cfg.ftheta,
                threads: cfg.threads,
            })
        })?;
        if let Some(e) = checked.error() {
            return Err(e);
        }
        let (evals, hits) = counting.take();
        layers.insert("labeling.sim_evals", evals as f64);
        layers.insert("labeling.hit_frac", ratio(hits, evals));
        layers.insert(
            "labeling.outlier_frac",
            ratio(labeling.num_outliers as u64, data.len() as u64),
        );
        let result = rock_core::RockResult {
            sample_indices: Vec::new(),
            sample_run: run,
            labeling,
        };
        Ok(result.full_clustering())
    })
}

// --------------------------------------------------------------- serve

struct ServeSpec {
    /// Generated set: `paper_scaled(scale)`.
    scale: f64,
    /// Baskets the served model is fitted on; the rest of the generated
    /// set are the held-out queries. Queries must come from the same
    /// generated set: a second generator seed draws new item sets.
    train: usize,
    /// Sample size of the served fit (θ 0.5, k 10).
    sample: usize,
    /// Lowest acceptable ARI of the served held-out queries.
    ari_floor: f64,
}

const SERVE_ASSIGN: ServeSpec = ServeSpec {
    scale: 0.25,
    train: 20_000,
    sample: 1000,
    ari_floor: 0.99,
};

/// Queries per assign request.
const QUERY_BATCH: usize = 16;

/// A served model: the reloaded artifact and the timings of its round trip.
struct RoundTrip {
    artifact: ModelArtifact,
    save_s: f64,
    load_s: f64,
    bytes: u64,
}

/// Saves `artifact` under `scratch` and loads it back, timing both.
fn round_trip(artifact: &ModelArtifact, scratch: &Path, tag: &str) -> Result<RoundTrip, String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let path = scratch.join(format!("{tag}-{}.rart", std::process::id()));
    let t = Instant::now();
    artifact
        .save(&path)
        .map_err(|e| format!("artifact save: {e}"))?;
    let save_s = t.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let t = Instant::now();
    let loaded = ModelArtifact::load(&path).map_err(|e| format!("artifact load: {e}"));
    let load_s = t.elapsed().as_secs_f64();
    // Best effort: a leftover scratch file is harmless.
    let _ = std::fs::remove_file(&path);
    Ok(RoundTrip {
        artifact: loaded?,
        save_s,
        load_s,
        bytes,
    })
}

/// Medians of the artifact timings over the set-up repetitions.
fn artifact_layers(layers: &mut BTreeMap<&'static str, f64>, trips: &[(f64, f64, u64)]) {
    let save: Vec<f64> = trips.iter().map(|t| t.0).collect();
    let load: Vec<f64> = trips.iter().map(|t| t.1).collect();
    layers.insert("artifact.save_s", median(&save).unwrap_or(0.0));
    layers.insert("artifact.load_s", median(&load).unwrap_or(0.0));
    layers.insert("artifact.bytes", trips.last().map_or(0.0, |t| t.2 as f64));
}

/// `n` queries from `pool`, starting at `start` and wrapping around.
fn cyclic<T: Clone>(pool: &[T], start: usize, n: usize) -> Vec<T> {
    (0..n)
        .map(|i| pool[(start + i) % pool.len()].clone())
        .collect()
}

fn run_serve(spec: &ServeSpec, args: &RunArgs) -> Result<Outcome, String> {
    let mut trips = Vec::new();
    let ((queries, truth, artifact, service), setup_s) = repeated_setup(|| {
        let mut data = baskets(spec.scale, args.seed);
        let queries = data.transactions.split_off(spec.train);
        let truth = data.labels.split_off(spec.train);
        let rock = rock(0.5, 10, spec.sample)
            .build()
            .map_err(|e| e.to_string())?;
        let (_, artifact) = RockModel::new(rock, Jaccard)
            .fit_artifact(&data.transactions)
            .map_err(|e| format!("fit_artifact: {e}"))?;
        let trip = round_trip(&artifact, &args.scratch, "serve")?;
        trips.push((trip.save_s, trip.load_s, trip.bytes));
        let service = AssignService::new(&trip.artifact, Jaccard, ServeConfig::default())
            .map_err(|e| format!("service: {e}"))?;
        Ok((queries, truth, trip.artifact, service))
    })?;
    let labeler = artifact
        .labeler::<Transaction>()
        .map_err(|e| e.to_string())?;
    let expected: Vec<Option<usize>> = queries
        .iter()
        .map(|q| labeler.label_point(q, &Jaccard))
        .collect();
    let mut out = Outcome::default();

    // Warm-up: one pass over the held-out queries.
    for start in (0..queries.len()).step_by(QUERY_BATCH) {
        let _ = service.assign_batch(&cyclic(&queries, start, QUERY_BATCH));
    }
    let requests: Vec<(usize, Vec<Transaction>)> = (0..queries.len().div_ceil(QUERY_BATCH))
        .map(|r| {
            (
                r * QUERY_BATCH,
                cyclic(&queries, r * QUERY_BATCH, QUERY_BATCH),
            )
        })
        .collect();
    let mut served: Vec<Option<usize>> = vec![None; queries.len()];
    let deadline = Deadline::after(args.untraced_seconds());
    let mut request_s = Vec::new();
    for (r, (start, batch)) in requests.iter().cycle().enumerate() {
        if r >= requests.len() && deadline.passed() {
            break;
        }
        let t = Instant::now();
        let result = service.assign_batch(batch);
        request_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        serve_check(
            &mut out,
            result,
            &expected,
            *start,
            (r < requests.len()).then_some(&mut served),
        );
    }
    let quality = ari(&served, &truth);
    out.check(quality >= spec.ari_floor, || {
        format!("served ARI {quality:.4} below the floor {}", spec.ari_floor)
    });
    out.notes.push(tail_note(
        "assign request (16 queries)",
        &request_s,
        1e6,
        "µs",
    ));

    if args.trace {
        let mut layers = zero_layers();
        artifact_layers(&mut layers, &trips);
        let mut tracer = Tracer::new();
        let counting = CountingSimilarity::new(Jaccard, artifact.theta());
        let traced_service = AssignService::new(&artifact, &counting, ServeConfig::default())
            .map_err(|e| format!("service: {e}"))?;
        let mut traced_s = Vec::with_capacity(requests.len());
        for (r, (start, batch)) in requests.iter().enumerate() {
            let t = Instant::now();
            let result = tracer.span("request", r as u64, |tracer| {
                tracer.span("serve", r as u64, |_| traced_service.assign_batch(batch))
            });
            traced_s.push(t.elapsed().as_secs_f64());
            out.attempted += 1;
            serve_check(&mut out, result, &expected, *start, None);
        }
        serve_layers(&mut layers, &counting, &traced_service);
        finish_trace(
            &mut out,
            layers,
            &tracer,
            &traced_s,
            &request_s,
            &args.spans,
        )?;
    } else {
        end_to_end(
            &mut out,
            setup_s,
            &request_s,
            (request_s.len() * QUERY_BATCH) as f64,
            quality,
        )?;
    }
    Ok(out)
}

/// Checks one served batch against the labeler's assignments of the same
/// queries, counting a failed, degraded or quarantining batch as failed.
fn serve_check(
    out: &mut Outcome,
    result: Result<rock_core::ServeBatch, rock_core::RockError>,
    expected: &[Option<usize>],
    start: usize,
    served: Option<&mut Vec<Option<usize>>>,
) {
    match result {
        Ok(batch) => {
            if !served_whole(&batch) {
                out.failed += 1;
            }
            let want = cyclic(expected, start, batch.assignments.len());
            out.check(batch.assignments == want, || {
                format!("served assignments at query {start} differ from the artifact's labeler")
            });
            if let Some(served) = served {
                for (i, a) in batch.assignments.iter().enumerate() {
                    let slot = (start + i) % served.len();
                    served[slot] = *a;
                }
            }
        }
        Err(e) => {
            out.failed += 1;
            out.notes.push(format!("assign failed: {e}"));
        }
    }
}

/// Whether a batch was served in full: not degraded, nothing quarantined.
fn served_whole(batch: &rock_core::ServeBatch) -> bool {
    batch.report.degraded.is_none() && batch.report.records_quarantined == 0
}

fn serve_layers<S>(
    layers: &mut BTreeMap<&'static str, f64>,
    counting: &CountingSimilarity<Jaccard>,
    service: &AssignService<Transaction, S>,
) {
    let (evals, hits) = counting.take();
    let (stats, _) = service.lifetime_stats();
    layers.insert("serve.sim_evals_per_query", ratio(evals, stats.queries));
    layers.insert("serve.hit_frac", ratio(hits, evals));
    layers.insert("serve.degraded_batches", stats.degraded_batches as f64);
    layers.insert("serve.quarantined", stats.quarantined as f64);
}

// -------------------------------------------------------------- online

/// The drifting stream and the rounds replayed over it.
struct OnlineSpec {
    /// Points per stream window; window 0 is the base fit (θ 0.5, k 3,
    /// the whole window as the sample).
    window: usize,
    /// Absorbs per round: one round replays the whole stream after
    /// window 0, from a fresh service.
    absorbs: usize,
    /// Lowest acceptable ARI of the evolved clustering over the stream.
    ari_floor: f64,
}

const ONLINE_UPDATE: OnlineSpec = OnlineSpec {
    window: 500,
    absorbs: 2000,
    ari_floor: 0.95,
};

/// Arrivals per absorb.
const ABSORB_BATCH: usize = 32;
/// Read requests after every absorb.
const READS_PER_ABSORB: usize = 4;

fn run_online(spec: &OnlineSpec, args: &RunArgs) -> Result<Outcome, String> {
    let stream_spec = DriftStreamSpec {
        window_size: spec.window,
        num_windows: 1 + (spec.absorbs * ABSORB_BATCH).div_ceil(spec.window),
        ..DriftStreamSpec::small()
    };
    let mut trips = Vec::new();
    let ((stream, truth, artifact), setup_s) = repeated_setup(|| {
        let data = generate_drift_stream(&stream_spec, &mut StdRng::seed_from_u64(args.seed));
        let stream = data.all_transactions();
        let truth = data.all_labels();
        // Weeding keeps every sample cluster non-empty after labeling;
        // without it some seeds fail `fit_artifact` with ArtifactMismatch.
        let rock = rock(0.5, 3, spec.window)
            .weed_outliers(3.0, 5)
            .build()
            .map_err(|e| e.to_string())?;
        let (_, artifact) = RockModel::new(rock, Jaccard)
            .fit_artifact(&stream[..spec.window])
            .map_err(|e| format!("base fit_artifact: {e}"))?;
        let trip = round_trip(&artifact, &args.scratch, "online")?;
        trips.push((trip.save_s, trip.load_s, trip.bytes));
        // Building the service is part of set-up; each round starts a
        // fresh one from the same artifact.
        OnlineAssignService::new(
            &trip.artifact,
            Jaccard,
            ServeConfig::default(),
            StalenessPolicy::default(),
        )
        .map_err(|e| format!("online service: {e}"))?;
        Ok((stream, truth, trip.artifact))
    })?;
    let arrivals = &stream[spec.window..spec.window + spec.absorbs * ABSORB_BATCH];
    let processed = spec.window + arrivals.len();
    let governor = RunGovernor::unlimited();
    let mut out = Outcome::default();

    let deadline = Deadline::after(args.untraced_seconds());
    let mut absorb_s = Vec::new();
    let mut read_s = Vec::new();
    let mut reference: Option<(u32, f64)> = None;
    while reference.is_none() || !deadline.passed() {
        let mut service = OnlineAssignService::new(
            &artifact,
            Jaccard,
            ServeConfig::default(),
            StalenessPolicy::default(),
        )
        .map_err(|e| format!("online service: {e}"))?;
        for (b, batch) in arrivals.chunks(ABSORB_BATCH).enumerate() {
            let t = Instant::now();
            let absorbed = service.absorb_batch(batch, &governor);
            absorb_s.push(t.elapsed().as_secs_f64());
            out.attempted += 1;
            if let Err(e) = absorbed {
                out.failed += 1;
                out.notes.push(format!("absorb {b} failed: {e}"));
            }
            for q in upcoming_queries(arrivals, b) {
                let t = Instant::now();
                let read = service.assign_batch(&q);
                read_s.push(t.elapsed().as_secs_f64());
                out.attempted += 1;
                if !read.as_ref().is_ok_and(served_whole) {
                    out.failed += 1;
                }
            }
        }
        let digest = service.state().digest();
        match reference {
            None => {
                let pred = Clustering::new(
                    service.state().clusters().to_vec(),
                    service.state().outliers().to_vec(),
                )
                .assignments(processed);
                reference = Some((digest, ari(&pred, &truth[..processed])));
            }
            Some((want, _)) => out.check(digest == want, || {
                "an online round ended on another state digest".to_string()
            }),
        }
    }
    let (digest, quality) = reference.ok_or("no online round ran")?;
    out.check(quality >= spec.ari_floor, || {
        format!("online ARI {quality:.4} below the floor {}", spec.ari_floor)
    });
    out.notes
        .push(tail_note("absorb (32 arrivals)", &absorb_s, 1e3, "ms"));
    out.notes
        .push(tail_note("read (16 queries)", &read_s, 1e6, "µs"));

    if args.trace {
        let mut layers = zero_layers();
        artifact_layers(&mut layers, &trips);
        let mut tracer = Tracer::new();
        let (traced_digest, traced_s) =
            traced_online(&artifact, arrivals, &mut tracer, &mut layers, &mut out)
                .map_err(|e| format!("traced online replica: {e}"))?;
        out.check(traced_digest == digest, || {
            "the traced online replica ended on another state digest".to_string()
        });
        finish_trace(&mut out, layers, &tracer, &traced_s, &absorb_s, &args.spans)?;
    } else {
        end_to_end(
            &mut out,
            setup_s,
            &absorb_s,
            (absorb_s.len() * ABSORB_BATCH) as f64,
            quality,
        )?;
    }
    Ok(out)
}

/// The read requests issued after absorb `b`: the next arrivals, before
/// they are absorbed.
fn upcoming_queries(
    arrivals: &[Transaction],
    b: usize,
) -> impl Iterator<Item = Vec<Transaction>> + '_ {
    let start = (b + 1) * ABSORB_BATCH;
    (0..READS_PER_ABSORB).map(move |j| cyclic(arrivals, start + j * QUERY_BATCH, QUERY_BATCH))
}

/// One round through the public calls `absorb_batch` composes —
/// `IncrementalRockState::update`, `to_artifact`, `AssignService::new` —
/// with reads served from the latest snapshot. Returns the final state
/// digest and each absorb's duration.
fn traced_online(
    artifact: &ModelArtifact,
    arrivals: &[Transaction],
    tracer: &mut Tracer,
    layers: &mut BTreeMap<&'static str, f64>,
    out: &mut Outcome,
) -> Result<(u32, Vec<f64>), rock_core::RockError> {
    let counting = CountingSimilarity::new(Jaccard, artifact.theta());
    let read_counting = CountingSimilarity::new(Jaccard, artifact.theta());
    let governor = RunGovernor::unlimited();
    let mut state = rock_core::IncrementalRockState::<Transaction>::from_artifact(
        artifact,
        StalenessPolicy::default(),
    )?;
    let mut service = AssignService::new(artifact, &read_counting, ServeConfig::default())?;
    let start = state.provenance();
    let (mut calm_ms, mut remerge_ms, mut absorb_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut snapshot_s, mut build_s) = (0.0, 0.0);
    let (mut read_queries, mut degraded, mut quarantined) = (0u64, 0u64, 0u64);
    for (b, batch) in arrivals.chunks(ABSORB_BATCH).enumerate() {
        let id = b as u64;
        let t = Instant::now();
        let next = tracer.span("absorb", id, |tracer| {
            let passes = state.provenance().remerges;
            let t = Instant::now();
            let outcome = tracer.span("incremental.update", id, |_| {
                state.update(batch, &counting, &governor)
            })?;
            let update_ms = t.elapsed().as_secs_f64() * 1e3;
            if state.provenance().remerges > passes {
                remerge_ms.push(update_ms);
            } else {
                calm_ms.push(update_ms);
            }
            if outcome.absorbed == 0 && outcome.remerged.is_empty() {
                return Ok(None);
            }
            let t = Instant::now();
            let next = tracer.span("incremental.snapshot", id, |_| state.to_artifact())?;
            snapshot_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let service = tracer.span("incremental.service_build", id, |_| {
                AssignService::new(&next, &read_counting, ServeConfig::default())
            })?;
            build_s += t.elapsed().as_secs_f64();
            Ok::<_, rock_core::RockError>(Some(service))
        })?;
        absorb_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        if let Some(next) = next {
            service = next;
        }
        for q in upcoming_queries(arrivals, b) {
            let read = tracer.span("read", id, |tracer| {
                tracer.span("serve", id, |_| service.assign_batch(&q))
            });
            out.attempted += 1;
            read_queries += q.len() as u64;
            if let Ok(r) = &read {
                degraded += u64::from(r.report.degraded.is_some());
                quarantined += r.report.records_quarantined;
            }
            if !read.as_ref().is_ok_and(served_whole) {
                out.failed += 1;
            }
        }
    }

    let end = state.provenance();
    let (evals, _) = counting.take();
    let (read_evals, read_hits) = read_counting.take();
    let relabels = end.relabels - start.relabels;
    layers.insert(
        "incremental.update_calm_p50_ms",
        median(&calm_ms).unwrap_or(0.0),
    );
    layers.insert(
        "incremental.update_remerge_p50_ms",
        median(&remerge_ms).unwrap_or(0.0),
    );
    layers.insert(
        "incremental.remerge_passes",
        (end.remerges - start.remerges) as f64,
    );
    layers.insert(
        "incremental.remerge_merges",
        (end.remerge_merges - start.remerge_merges) as f64,
    );
    layers.insert("incremental.relabels", relabels as f64);
    layers.insert(
        "incremental.dirty_links",
        (end.dirty_links - start.dirty_links) as f64,
    );
    layers.insert(
        "incremental.rejected_frac",
        ratio(end.points_rejected - start.points_rejected, relabels),
    );
    layers.insert("incremental.sim_evals", evals as f64);
    layers.insert("incremental.snapshot_s", snapshot_s);
    layers.insert("incremental.service_build_s", build_s);
    layers.insert("serve.sim_evals_per_query", ratio(read_evals, read_queries));
    layers.insert("serve.hit_frac", ratio(read_hits, read_evals));
    layers.insert("serve.degraded_batches", degraded as f64);
    layers.insert("serve.quarantined", quarantined as f64);
    out.notes.push(format!(
        "traced online: {} absorbs ({} with a re-merge pass), {} reads",
        absorb_s.len(),
        remerge_ms.len(),
        absorb_s.len() * READS_PER_ABSORB
    ));
    Ok((state.digest(), absorb_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{result_line, END_TO_END};

    // Each workload's code path at a size a debug build runs in seconds;
    // no quality floor at these sizes.
    const TINY_FIT: FitConfig = FitConfig {
        scale: 0.005,
        theta: 0.5,
        k: 10,
        sample: 200,
        ari_floor: -1.0,
    };
    const TINY_SERVE: ServeSpec = ServeSpec {
        scale: 0.01,
        train: 800,
        sample: 200,
        ari_floor: -1.0,
    };
    const TINY_ONLINE: OnlineSpec = OnlineSpec {
        window: 100,
        absorbs: 10,
        ari_floor: -1.0,
    };

    /// Runs `run` untraced and traced; both must pass their checks and
    /// emit exactly their mode's catalog.
    fn emits_its_catalog(tag: &str, run: impl Fn(&RunArgs) -> Result<Outcome, String>) {
        let dir = std::env::temp_dir().join(format!("rockbench-test-{}-{tag}", std::process::id()));
        for trace in [false, true] {
            let args = RunArgs {
                seed: 3,
                seconds: 0.0,
                trace,
                spans: dir.join("spans.jsonl"),
                scratch: dir.join("scratch"),
            };
            let out = run(&args).unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert!(out.mismatches.is_empty(), "{tag}: {:?}", out.mismatches);
            assert_eq!(out.failed, 0, "{tag}");
            assert!(out.attempted > 0, "{tag}");
            let catalog = if trace { PER_LAYER } else { END_TO_END };
            result_line(catalog, &out.metrics, true, out.attempted, out.failed)
                .unwrap_or_else(|e| panic!("{tag} (trace {trace}): {e}"));
            if trace {
                let spans = std::fs::read_to_string(&args.spans).expect("spans written");
                assert!(spans.lines().count() > 1, "{tag}");
            } else {
                for name in ["setup_s", "op_p50_ms", "items_per_s", "peak_heap_mb"] {
                    assert!(out.metrics[name] > 0.0, "{tag}: {name}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fit_workload_emits_its_catalog() {
        emits_its_catalog("fit", |args| run_fit(&TINY_FIT, args));
    }

    #[test]
    fn serve_workload_emits_its_catalog() {
        emits_its_catalog("serve", |args| run_serve(&TINY_SERVE, args));
    }

    #[test]
    fn online_workload_emits_its_catalog() {
        emits_its_catalog("online", |args| run_online(&TINY_ONLINE, args));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("fit"), None);
    }
}
