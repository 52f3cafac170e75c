//! Fault-tolerant streaming ingest and labeling — the Fig.-2 "label data
//! on disk" phase hardened for real disks.
//!
//! The paper's pipeline clusters a sample in memory and then makes one
//! sequential pass over the disk-resident database to label every record
//! (§4.6). On real storage that pass meets transient read errors, torn
//! lines and garbage tokens. This module makes the pass *resilient*:
//!
//! * transient I/O errors ([`io::ErrorKind::Interrupted`],
//!   [`io::ErrorKind::WouldBlock`], [`io::ErrorKind::TimedOut`]) are
//!   retried with bounded exponential backoff ([`RetryPolicy`]);
//! * malformed records — unparsable tokens, or records whose similarity
//!   evaluation degenerates to NaN — are *quarantined* (skipped and
//!   recorded in the [`RunReport`]) up to a configurable cap;
//! * progress is checkpointed periodically ([`Checkpoint`]: byte offset
//!   plus cumulative labeling counts), and a run interrupted by a hard
//!   failure can resume from its checkpoint and produce output
//!   bit-identical to an uninterrupted run over the same bytes;
//! * every stop is a typed [`IngestError`] carrying the last consistent
//!   checkpoint and everything salvaged before the failure — never a
//!   panic, never silent data loss.
//!
//! Determinism contract: the drivers themselves are deterministic (no
//! RNG); given the same bytes, labeler and similarity measure, an
//! interrupted-then-resumed run yields exactly the assignments and final
//! checkpoint of an uninterrupted run. The fault-injection harness
//! ([`crate::faults`]) keeps its schedules deterministic for the same
//! reason, so the resilience tests can assert bit-identity.

// IngestError is intentionally heavy: it must carry the full salvage
// state (run report, checkpoint, partial assignments) or an interrupted
// run could not resume losslessly.
#![allow(clippy::result_large_err)]

use crate::basketio::parse_numeric_line;
use rock_core::governor::{Phase, RunGovernor, TripReason};
use rock_core::labeling::{LabelPass, Labeler, Labeling};
use rock_core::points::Transaction;
use rock_core::report::{PhaseTimer, RunReport};
use rock_core::similarity::Similarity;
use rock_core::util::frame::{append_frame, put_u32, put_u64, read_frame, Cursor};
use rock_core::RockError;
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead};
use std::time::Duration;

pub use rock_core::util::retry::RetryPolicy;

/// The 8-byte magic prefix of an encoded [`Checkpoint`].
const CHECKPOINT_MAGIC: &[u8; 8] = b"ROCKCKP1";

/// The kind byte of a checkpoint's one frame.
const REC_CHECKPOINT: u8 = 1;

/// Configuration for the resilient drivers.
#[derive(Clone, Debug)]
pub struct ResilientConfig {
    /// Transient-error retry policy. The budget applies per record: each
    /// record read gets up to `max_retries` retries before the error is
    /// surfaced as hard.
    pub retry: RetryPolicy,
    /// Hard cap on quarantined records (cumulative across resumptions);
    /// exceeding it aborts with [`IngestErrorKind::QuarantineOverflow`].
    pub max_quarantine: usize,
    /// How many quarantined records keep per-record detail in the report
    /// (the counter is always exact).
    pub quarantine_detail: usize,
    /// Emit a checkpoint every this many input lines (0 = no periodic
    /// checkpoints; the final state is always returned).
    pub checkpoint_every: u64,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            // Ingest reads disks and sockets, so it retries a little
            // longer than the unified RetryPolicy default.
            retry: RetryPolicy {
                max_retries: 4,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_secs(1),
            },
            max_quarantine: 64,
            quarantine_detail: 16,
            checkpoint_every: 1024,
        }
    }
}

/// Resumable progress of a resilient pass: where in the byte stream the
/// next record starts, plus cumulative counts over *all* invocations so
/// far (unlike the per-invocation [`RunReport`]).
///
/// Persists through [`Checkpoint::encode`] / [`Checkpoint::decode`] as a
/// magic and one CRC frame, the codec of the workspace's other durable
/// formats, so `decode` rejects a torn or damaged checkpoint instead of
/// resuming from wrong counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Byte offset of the first unprocessed line.
    pub byte_offset: u64,
    /// Input lines fully consumed (data, blank and comment alike).
    pub lines_seen: u64,
    /// Records successfully labeled/ingested.
    pub records_read: u64,
    /// Blank/comment lines skipped.
    pub records_skipped: u64,
    /// Records quarantined.
    pub records_quarantined: u64,
    /// Cumulative per-cluster assignment counts (labeling driver; empty
    /// for the plain reader).
    pub cluster_counts: Vec<u64>,
    /// Cumulative outliers (labeling driver).
    pub outliers: u64,
}

impl Checkpoint {
    /// A fresh checkpoint at the start of the stream.
    pub fn new(num_clusters: usize) -> Self {
        Checkpoint {
            byte_offset: 0,
            lines_seen: 0,
            records_read: 0,
            records_skipped: 0,
            records_quarantined: 0,
            cluster_counts: vec![0; num_clusters],
            outliers: 0,
        }
    }

    /// Encodes the checkpoint as the magic `ROCKCKP1` followed by one
    /// CRC frame ([`rock_core::util::frame`]) whose payload is the six
    /// counters (`byte_offset`, `lines_seen`, `records_read`,
    /// `records_skipped`, `records_quarantined`, `outliers`) as `u64`s,
    /// then a `u32` count and the `cluster_counts` as `u64`s.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(6 * 8 + 4 + 8 * self.cluster_counts.len());
        for v in [
            self.byte_offset,
            self.lines_seen,
            self.records_read,
            self.records_skipped,
            self.records_quarantined,
            self.outliers,
        ] {
            put_u64(&mut payload, v);
        }
        put_u32(&mut payload, self.cluster_counts.len() as u32);
        for &count in &self.cluster_counts {
            put_u64(&mut payload, count);
        }
        let mut bytes = CHECKPOINT_MAGIC.to_vec();
        append_frame(&mut bytes, REC_CHECKPOINT, &payload);
        bytes
    }

    /// Decodes a checkpoint produced by [`Checkpoint::encode`].
    ///
    /// # Errors
    /// `InvalidData` on any damage: a wrong magic (the pre-frame text
    /// checkpoints included), a torn or CRC-failing frame, a wrong record
    /// kind, bytes after the frame, or a payload that does not decode
    /// exactly.
    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        let bad =
            |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("checkpoint: {msg}"));
        let framed = bytes
            .strip_prefix(CHECKPOINT_MAGIC.as_slice())
            .ok_or_else(|| bad("missing ROCKCKP1 magic"))?;
        let (kind, payload, end) =
            read_frame(framed, 0).ok_or_else(|| bad("truncated or damaged frame"))?;
        if kind != REC_CHECKPOINT {
            return Err(bad(&format!("unexpected record kind {kind}")));
        }
        if end != framed.len() {
            return Err(bad("trailing bytes after the frame"));
        }
        let mut c = Cursor::new(payload);
        let fields = (|| {
            let [byte_offset, lines_seen, records_read, records_skipped, records_quarantined, outliers] =
                [c.u64()?, c.u64()?, c.u64()?, c.u64()?, c.u64()?, c.u64()?];
            let n = c.u32()? as usize;
            let cluster_counts = c.list(n, 8, Cursor::u64)?;
            c.done().then_some(Checkpoint {
                byte_offset,
                lines_seen,
                records_read,
                records_skipped,
                records_quarantined,
                cluster_counts,
                outliers,
            })
        })();
        fields.ok_or_else(|| bad("payload does not decode"))
    }
}

/// Why a resilient pass stopped early.
#[derive(Debug)]
pub enum IngestErrorKind {
    /// A non-transient I/O error, or a transient one that exhausted its
    /// retry budget.
    Io(io::Error),
    /// The cumulative quarantine count exceeded
    /// [`ResilientConfig::max_quarantine`].
    QuarantineOverflow {
        /// The configured cap that was exceeded.
        cap: usize,
    },
    /// The resume checkpoint is inconsistent with this labeler or stream.
    BadCheckpoint(String),
    /// A [`RunGovernor`] budget tripped (cancellation, deadline or
    /// memory). The carried checkpoint is consistent, so the pass can
    /// resume once the budget is lifted — this is an orderly pause, not
    /// a failure.
    Interrupted {
        /// The phase that observed the trip (always
        /// [`Phase::Labeling`] for these drivers).
        phase: Phase,
        /// Which budget tripped.
        reason: TripReason,
    },
}

/// Typed failure of a resilient pass, carrying everything salvaged before
/// the stop so no processed work is lost.
///
/// [`IngestError::checkpoint`] is the last *consistent* state — its byte
/// offset points at the first unprocessed line, so passing it back as
/// `resume` continues exactly where this run stopped.
#[derive(Debug)]
pub struct IngestError {
    /// What stopped the run.
    pub kind: IngestErrorKind,
    /// 1-based input line at which the run stopped.
    pub line: u64,
    /// Degradation observed by this invocation up to the stop.
    pub report: RunReport,
    /// Last consistent cumulative state; resume from here.
    pub checkpoint: Checkpoint,
    /// Assignments produced by this invocation before the stop (labeling
    /// driver; empty for the plain reader).
    pub partial_assignments: Vec<Option<usize>>,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            IngestErrorKind::Io(e) => write!(
                f,
                "ingest stopped at line {}: {e} (resume from byte {})",
                self.line, self.checkpoint.byte_offset
            ),
            IngestErrorKind::QuarantineOverflow { cap } => write!(
                f,
                "ingest stopped at line {}: quarantine cap {cap} exceeded",
                self.line
            ),
            IngestErrorKind::BadCheckpoint(msg) => {
                write!(f, "cannot resume: {msg}")
            }
            IngestErrorKind::Interrupted { phase, reason } => write!(
                f,
                "ingest interrupted at line {} in {phase} phase: {reason} \
                 (resume from byte {})",
                self.line, self.checkpoint.byte_offset
            ),
        }
    }
}

impl Error for IngestError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.kind {
            IngestErrorKind::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Result of one resilient labeling invocation.
#[derive(Clone, Debug)]
pub struct ResilientLabelRun {
    /// Labeling of the records processed by *this* invocation (a resumed
    /// run labels only the suffix; concatenate assignments across
    /// invocations to reconstruct the whole pass).
    pub labeling: Labeling,
    /// Degradation and timing for this invocation.
    pub report: RunReport,
    /// Cumulative end state (resumable).
    pub checkpoint: Checkpoint,
}

/// What scoring did with a parsed record.
enum Handled {
    /// Plain ingest: record accepted.
    Stored,
    /// Labeling: record assigned to a cluster (`Some`) or declared an
    /// outlier (`None`).
    Labeled(Option<usize>),
    /// Record rejected; quarantine it with this reason.
    Quarantine(String),
}

/// A line read ahead of the fold.
enum Pending {
    /// Blank or comment line.
    Skip,
    /// A parsed record, scored with the rest of its batch.
    Record,
    /// Parse failure to quarantine.
    Bad(String),
}

/// Transient errors met while reading one line and the retries they
/// cost. They are added to the report when that line is folded, so a
/// pass that stops at line k reports the reads of lines 1..=k only.
#[derive(Clone, Copy, Debug, Default)]
struct ReadRetries {
    transient: u64,
    retries: u64,
}

impl ReadRetries {
    /// Runs `op` under `policy`, adding the transient errors it met and
    /// the retries they cost. Every retry answers one transient error;
    /// a transient error that exhausts the budget is counted too.
    fn run<T>(&mut self, policy: &RetryPolicy, op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let mut retries = 0;
        let outcome = policy.run(&mut retries, op);
        let exhausted = matches!(&outcome, Err(e) if RetryPolicy::is_transient(e));
        self.retries += retries;
        self.transient += retries + u64::from(exhausted);
        outcome
    }
}

/// Mutable state of one pass: the cumulative checkpoint, this
/// invocation's report and what it produced.
struct LoopState {
    checkpoint: Checkpoint,
    report: RunReport,
    /// Labels of the labeled records, in input order.
    assignments: Vec<Option<usize>>,
    /// The stored records (plain ingest), in input order.
    records: Vec<Transaction>,
}

impl LoopState {
    /// The per-line governor checkpoint, at index `lines_seen`
    /// (cumulative across resumptions), then the line's read retries.
    fn admit(
        &mut self,
        governor: &RunGovernor,
        read: ReadRetries,
    ) -> Result<(), (IngestErrorKind, u64)> {
        if let Err(e) = governor.check_at(Phase::Labeling, self.checkpoint.lines_seen) {
            let line = self.checkpoint.lines_seen + 1;
            return Err(interrupt_stop(e, &mut self.report, line));
        }
        self.report.transient_io_errors += read.transient;
        self.report.io_retries += read.retries;
        Ok(())
    }

    /// Quarantines the record at `lineno`, failing once the cumulative
    /// count exceeds the cap.
    fn quarantine(
        &mut self,
        config: &ResilientConfig,
        lineno: u64,
        reason: String,
    ) -> Result<(), (IngestErrorKind, u64)> {
        self.checkpoint.records_quarantined += 1;
        self.report
            .quarantine(lineno, reason, config.quarantine_detail);
        if self.checkpoint.records_quarantined > config.max_quarantine as u64 {
            return Err((
                IngestErrorKind::QuarantineOverflow {
                    cap: config.max_quarantine,
                },
                lineno,
            ));
        }
        Ok(())
    }
}

/// Reads one line (through `\n` or EOF) with retries, returning the bytes
/// consumed from the reader. Uses `read_until` on raw bytes so invalid
/// UTF-8 damages at most the affected record (lossily decoded, then
/// quarantined by the parser) instead of aborting the pass.
fn read_record_retry<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    retry: &RetryPolicy,
    read: &mut ReadRetries,
) -> io::Result<usize> {
    let start = buf.len();
    // Partial bytes from failed attempts stay in `buf`, so the total
    // consumed is the length delta, not the last call's count.
    read.run(retry, || reader.read_until(b'\n', buf))?;
    Ok(buf.len() - start)
}

/// Discards exactly `n` bytes (the resume skip), retrying transients.
/// One retry budget covers the whole skip.
fn skip_bytes<R: BufRead>(
    reader: &mut R,
    mut n: u64,
    retry: &RetryPolicy,
    read: &mut ReadRetries,
) -> io::Result<()> {
    read.run(retry, || {
        while n > 0 {
            let available = reader.fill_buf()?.len();
            if available == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("checkpoint offset lies {n} bytes beyond end of stream"),
                ));
            }
            let take = (available as u64).min(n) as usize;
            reader.consume(take);
            n -= take as u64;
        }
        Ok(())
    })
}

/// Converts a governor trip into an ingest stop, recording the
/// interruption in the report. Only `RockError::Interrupted` reaches
/// here (it is all the governor's checks return).
fn interrupt_stop(e: RockError, report: &mut RunReport, line: u64) -> (IngestErrorKind, u64) {
    let RockError::Interrupted { phase, reason, .. } = e else {
        // tidy-allow(panic): only RockError::Interrupted reaches this adapter: it is all the governor's checks return
        unreachable!("governor checks only return RockError::Interrupted, got {e}");
    };
    report.interrupted = Some((phase, reason));
    (IngestErrorKind::Interrupted { phase, reason }, line)
}

/// Lines per read-score-fold round. Large enough to amortise the
/// scoring fan-out, small enough that a stop wastes at most one batch of
/// read-ahead.
const READ_BATCH: usize = 4096;

/// The read-score-fold loop every resilient pass runs.
///
/// Each round reads up to [`READ_BATCH`] lines sequentially (with
/// retries), parses them, scores the parsed records with `score` (the
/// only step that may fan out, over the workers it owns), then folds
/// the lines in input order: the governor checkpoint, the line's read
/// retries, the checkpoint and report counters, quarantine and the
/// periodic checkpoint cadence. The fold visits exactly the lines a one-line-at-a-
/// time loop would, so results, reports, checkpoints and every stop are
/// the same for any thread count; lines read past a stop are neither
/// folded nor counted.
///
/// Returns `(kind, line)` on a hard stop; the caller owns the salvage.
fn ingest_loop<R, F, H>(
    reader: &mut R,
    config: &ResilientConfig,
    governor: &RunGovernor,
    state: &mut LoopState,
    on_checkpoint: &mut F,
    score: &H,
) -> Result<(), (IngestErrorKind, u64)>
where
    R: BufRead,
    F: FnMut(&Checkpoint),
    H: Fn(&[Transaction]) -> Vec<Handled>,
{
    let mut buf = Vec::new();
    let mut since_checkpoint = 0u64;
    loop {
        let mut lines: Vec<(u64, ReadRetries, Pending)> = Vec::with_capacity(READ_BATCH);
        let mut records: Vec<Transaction> = Vec::new();
        // The read that ended the batch early: end of stream (`None`) or
        // a hard failure.
        let mut end: Option<(ReadRetries, Option<io::Error>)> = None;
        while lines.len() < READ_BATCH {
            buf.clear();
            let mut read = ReadRetries::default();
            match read_record_retry(reader, &mut buf, &config.retry, &mut read) {
                Ok(0) => {
                    end = Some((read, None));
                    break;
                }
                Ok(consumed) => {
                    let pending = match parse_numeric_line(&String::from_utf8_lossy(&buf)) {
                        Ok(None) => Pending::Skip,
                        Ok(Some(txn)) => {
                            records.push(txn);
                            Pending::Record
                        }
                        Err(reason) => Pending::Bad(reason),
                    };
                    lines.push((consumed as u64, read, pending));
                }
                Err(e) => {
                    end = Some((read, Some(e)));
                    break;
                }
            }
        }

        let handled = score(&records);
        let mut scored = records.into_iter().zip(handled);
        for (consumed, read, pending) in lines {
            state.admit(governor, read)?;
            state.checkpoint.byte_offset += consumed;
            state.checkpoint.lines_seen += 1;
            let lineno = state.checkpoint.lines_seen;
            match pending {
                Pending::Skip => {
                    state.checkpoint.records_skipped += 1;
                    state.report.records_skipped += 1;
                }
                Pending::Bad(reason) => state.quarantine(config, lineno, reason)?,
                Pending::Record => {
                    // tidy-allow(panic): score returns one result per parsed record, and each is taken exactly once in line order
                    let (txn, handled) = scored.next().expect("every parsed record is scored");
                    match handled {
                        Handled::Quarantine(reason) => state.quarantine(config, lineno, reason)?,
                        Handled::Stored => {
                            state.checkpoint.records_read += 1;
                            state.report.records_read += 1;
                            state.records.push(txn);
                        }
                        Handled::Labeled(assignment) => {
                            state.checkpoint.records_read += 1;
                            state.report.records_read += 1;
                            match assignment {
                                Some(c) => state.checkpoint.cluster_counts[c] += 1,
                                None => {
                                    state.checkpoint.outliers += 1;
                                    state.report.outliers += 1;
                                }
                            }
                            state.assignments.push(assignment);
                        }
                    }
                }
            }
            since_checkpoint += 1;
            if config.checkpoint_every > 0 && since_checkpoint >= config.checkpoint_every {
                since_checkpoint = 0;
                on_checkpoint(&state.checkpoint);
                state.report.checkpoints_written += 1;
            }
        }

        if let Some((read, failure)) = end {
            state.admit(governor, read)?;
            return match failure {
                None => Ok(()),
                Some(e) => Err((IngestErrorKind::Io(e), state.checkpoint.lines_seen + 1)),
            };
        }
    }
}

/// Prepares the loop state for a run, validating any resume checkpoint.
fn start_state(
    resume: Option<&Checkpoint>,
    num_clusters: usize,
) -> Result<LoopState, IngestError> {
    let mut report = RunReport::new();
    let checkpoint = match resume {
        Some(cp) => {
            if cp.cluster_counts.len() != num_clusters {
                return Err(IngestError {
                    kind: IngestErrorKind::BadCheckpoint(format!(
                        "checkpoint has {} cluster counters but the labeler has {} clusters",
                        cp.cluster_counts.len(),
                        num_clusters
                    )),
                    line: cp.lines_seen,
                    report: RunReport::new(),
                    checkpoint: cp.clone(),
                    partial_assignments: Vec::new(),
                });
            }
            report.resumed_from_offset = Some(cp.byte_offset);
            cp.clone()
        }
        None => Checkpoint::new(num_clusters),
    };
    Ok(LoopState {
        checkpoint,
        report,
        assignments: Vec::new(),
        records: Vec::new(),
    })
}

/// One resilient pass: validates the resume checkpoint, skips to its
/// byte offset, runs [`ingest_loop`] and records `phase` (its time and
/// work counters) in the report.
/// A hard stop becomes an [`IngestError`] carrying the salvage.
#[allow(clippy::too_many_arguments)]
fn run_pass<R, F, H>(
    mut reader: R,
    config: &ResilientConfig,
    resume: Option<&Checkpoint>,
    num_clusters: usize,
    governor: &RunGovernor,
    on_checkpoint: &mut F,
    score: &H,
    phase: &str,
) -> Result<LoopState, IngestError>
where
    R: BufRead,
    F: FnMut(&Checkpoint),
    H: Fn(&[Transaction]) -> Vec<Handled>,
{
    let timer = PhaseTimer::start();
    let mut state = start_state(resume, num_clusters)?;
    let mut read = ReadRetries::default();
    let skipped = skip_bytes(&mut reader, state.checkpoint.byte_offset, &config.retry, &mut read);
    state.report.transient_io_errors += read.transient;
    state.report.io_retries += read.retries;
    let outcome = match skipped {
        Err(e) => Err((IngestErrorKind::Io(e), state.checkpoint.lines_seen)),
        Ok(()) => ingest_loop(
            &mut reader,
            config,
            governor,
            &mut state,
            on_checkpoint,
            score,
        ),
    };
    timer.record(&mut state.report, phase);
    match outcome {
        Ok(()) => Ok(state),
        Err((kind, line)) => Err(IngestError {
            kind,
            line,
            report: state.report,
            checkpoint: state.checkpoint,
            partial_assignments: state.assignments,
        }),
    }
}

/// Streams numeric basket lines from `reader`, labeling each record
/// against `labeler` (§4.6) with retries, quarantine and checkpoints.
///
/// * `resume` — a [`Checkpoint`] from an earlier interrupted run over the
///   same byte stream; the driver skips to its byte offset and continues.
///   Pass `None` to start from the beginning.
/// * `on_checkpoint` — invoked with the cumulative state every
///   [`ResilientConfig::checkpoint_every`] input lines; persist it (e.g.
///   [`Checkpoint::encode`]) to make the pass resumable.
/// * `governor` — consulted before every input line (at checkpoint index
///   `lines_seen`, cumulative across resumptions), so cancellation,
///   deadlines, memory trips and injected kills
///   (`with_kill_at(Phase::Labeling, k)`) stop the pass with a
///   consistent, resumable [`Checkpoint`] —
///   [`IngestErrorKind::Interrupted`], mirrored in the report's
///   `interrupted` field. Pass [`RunGovernor::unlimited`] for an
///   ungoverned pass.
/// * `threads` — workers for scoring. The pass builds one
///   [`LabelPass`] (one item index) per call and processes the stream in
///   rounds of up to 4096 lines: reads (with retries) and parsing stay
///   sequential, each round's parsed records are scored by
///   [`LabelPass::label_checked`] on up to `threads` workers, and the
///   lines are folded back in input order. Assignments, reports,
///   checkpoint cadence and every salvaged [`IngestError`] are
///   bit-identical for every thread count, and a run may resume from a
///   checkpoint taken at any other thread count.
///
/// Records whose tokens fail to parse, or whose scan meets a non-finite
/// similarity ([`rock_core::RockError::NonFiniteSimilarity`]), are
/// quarantined rather than mislabeled. A record is scored exactly as
/// [`Labeler::label_all`] would score it — through the item index when
/// one exists and the measure exposes the record's items — except that
/// the brute-force scan stops at the first non-finite value, as
/// [`Labeler::label_point_checked`] does. The scan's similarity
/// evaluations are counted in `rock_core::perf`. The returned
/// [`ResilientLabelRun`] holds this invocation's [`Labeling`], its
/// [`RunReport`] and the final cumulative [`Checkpoint`].
///
/// On a stop mid-round, lines read beyond the stopping line are
/// discarded: the checkpoint's byte offset still points at the first
/// unprocessed line, and the report counts only the read retries of the
/// lines up to the stop.
///
/// # Errors
/// [`IngestError`] on a hard I/O failure, quarantine overflow, governor
/// trip or an inconsistent resume checkpoint — always carrying the
/// partial results and a resumable checkpoint.
///
/// # Panics
/// Panics if `threads == 0`.
#[allow(clippy::too_many_arguments)]
pub fn label_stream_resilient<R, S, F>(
    reader: R,
    labeler: &Labeler<Transaction>,
    sim: &S,
    config: &ResilientConfig,
    resume: Option<&Checkpoint>,
    mut on_checkpoint: F,
    governor: &RunGovernor,
    threads: usize,
) -> Result<ResilientLabelRun, IngestError>
where
    R: BufRead,
    S: Similarity<Transaction> + Sync,
    F: FnMut(&Checkpoint),
{
    assert!(threads > 0, "need at least one thread");
    let pass = LabelPass::new(labeler, sim);
    let score = |records: &[Transaction]| {
        let scored = pass.label_checked(records, threads);
        scored
            .into_iter()
            .map(|outcome| match outcome {
                Ok(assignment) => Handled::Labeled(assignment),
                Err(RockError::NonFiniteSimilarity { value }) => {
                    Handled::Quarantine(format!("non-finite similarity {value}"))
                }
                Err(e) => Handled::Quarantine(e.to_string()),
            })
            .collect()
    };
    let state = run_pass(
        reader,
        config,
        resume,
        labeler.num_clusters(),
        governor,
        &mut on_checkpoint,
        &score,
        "label-stream",
    )?;
    Ok(ResilientLabelRun {
        labeling: pass.labeling(state.assignments),
        report: state.report,
        checkpoint: state.checkpoint,
    })
}

/// Reads numeric basket records with retries, quarantine and checkpoints
/// but no labeling — the resilient counterpart of
/// [`crate::basketio::read_baskets_numeric`]. It runs the same loop as
/// [`label_stream_resilient`], ungoverned and on one thread.
///
/// # Errors
/// [`IngestError`] on a hard I/O failure or quarantine overflow (its
/// `partial_assignments` is always empty for this driver).
pub fn read_baskets_resilient<R: BufRead>(
    reader: R,
    config: &ResilientConfig,
    resume: Option<&Checkpoint>,
) -> Result<(Vec<Transaction>, RunReport, Checkpoint), IngestError> {
    let state = run_pass(
        reader,
        config,
        resume,
        resume.map_or(0, |cp| cp.cluster_counts.len()),
        &RunGovernor::unlimited(),
        &mut |_: &Checkpoint| {},
        &|records: &[Transaction]| records.iter().map(|_| Handled::Stored).collect(),
        "ingest",
    )?;
    Ok((state.records, state.report, state.checkpoint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultSpec, FaultyReader};
    use rock_core::similarity::Jaccard;
    use std::io::BufReader;

    fn test_labeler() -> Labeler<Transaction> {
        let sample = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([2, 3, 4]),
            Transaction::from([10, 11, 12]),
            Transaction::from([10, 11, 13]),
            Transaction::from([11, 12, 13]),
        ];
        let clusters = vec![vec![0, 1, 2], vec![3, 4, 5]];
        Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0)
    }

    fn no_sleep_config() -> ResilientConfig {
        ResilientConfig {
            retry: RetryPolicy::no_backoff(8),
            ..ResilientConfig::default()
        }
    }

    #[test]
    fn clean_stream_labels_like_label_all() {
        let labeler = test_labeler();
        let input = "1 2 3\n# comment\n\n10 11 12\n55 66 77\n2 3 4\n";
        let run = label_stream_resilient(
            BufReader::new(input.as_bytes()),
            &labeler,
            &Jaccard,
            &no_sleep_config(),
            None,
            |_| {},
            &RunGovernor::unlimited(),
            1,
        )
        .unwrap();
        assert_eq!(
            run.labeling.assignments,
            vec![Some(0), Some(1), None, Some(0)]
        );
        assert_eq!(run.labeling.cluster_counts, vec![2, 1]);
        assert_eq!(run.labeling.num_outliers, 1);
        assert_eq!(run.checkpoint.records_read, 4);
        assert_eq!(run.checkpoint.records_skipped, 2);
        assert_eq!(run.checkpoint.byte_offset, input.len() as u64);
        assert_eq!(run.checkpoint.cluster_counts, vec![2, 1]);
        assert_eq!(run.checkpoint.outliers, 1);
        assert!(!run.report.degraded());
        assert!(run.report.phase_duration("label-stream").is_some());
    }

    #[test]
    fn garbage_lines_are_quarantined_not_fatal() {
        let labeler = test_labeler();
        let input = "1 2 3\n1 2 x7!\n10 11 12\n";
        let run = label_stream_resilient(
            BufReader::new(input.as_bytes()),
            &labeler,
            &Jaccard,
            &no_sleep_config(),
            None,
            |_| {},
            &RunGovernor::unlimited(),
            1,
        )
        .unwrap();
        assert_eq!(run.labeling.assignments, vec![Some(0), Some(1)]);
        assert_eq!(run.checkpoint.records_quarantined, 1);
        assert_eq!(run.report.quarantined.len(), 1);
        assert_eq!(run.report.quarantined[0].line, 2);
        assert!(run.report.quarantined[0].reason.contains("x7!"));
        assert!(run.report.degraded());
    }

    #[test]
    fn quarantine_cap_aborts_with_salvage() {
        let labeler = test_labeler();
        let input = "1 2 3\nbad\nworse\nworst\n10 11 12\n";
        let config = ResilientConfig {
            max_quarantine: 2,
            ..no_sleep_config()
        };
        let err = label_stream_resilient(
            BufReader::new(input.as_bytes()),
            &labeler,
            &Jaccard,
            &config,
            None,
            |_| {},
            &RunGovernor::unlimited(),
            1,
        )
        .unwrap_err();
        assert!(matches!(
            err.kind,
            IngestErrorKind::QuarantineOverflow { cap: 2 }
        ));
        assert_eq!(err.line, 4);
        assert_eq!(err.partial_assignments, vec![Some(0)]);
        // The checkpoint is consistent: the overflowing line was consumed.
        assert_eq!(err.checkpoint.lines_seen, 4);
        assert!(err.to_string().contains("quarantine cap 2"));
    }

    #[test]
    fn transient_faults_are_retried_and_reported() {
        let labeler = test_labeler();
        let input: String = (0..100)
            .map(|i| {
                if i % 2 == 0 {
                    "1 2 3\n".to_string()
                } else {
                    "10 11 12\n".to_string()
                }
            })
            .collect();
        let spec = FaultSpec::none(11).transient(0.15, 1).chunk(8);
        let faulty = FaultyReader::new(input.as_bytes(), spec);
        let run = label_stream_resilient(
            BufReader::new(faulty),
            &labeler,
            &Jaccard,
            &no_sleep_config(),
            None,
            |_| {},
            &RunGovernor::unlimited(),
            1,
        )
        .unwrap();
        assert_eq!(run.checkpoint.records_read, 100);
        assert!(run.report.transient_io_errors > 0, "no faults fired");
        assert_eq!(run.report.io_retries, run.report.transient_io_errors);
        assert!(run.report.degraded());
        // Retried output matches a clean pass bit for bit.
        let clean = label_stream_resilient(
            BufReader::new(input.as_bytes()),
            &labeler,
            &Jaccard,
            &no_sleep_config(),
            None,
            |_| {},
            &RunGovernor::unlimited(),
            1,
        )
        .unwrap();
        assert_eq!(run.labeling, clean.labeling);
        assert_eq!(run.checkpoint, clean.checkpoint);
    }

    #[test]
    fn burst_beyond_retry_budget_is_a_hard_error_with_checkpoint() {
        let labeler = test_labeler();
        let input: String = (0..50).map(|_| "1 2 3\n").collect();
        // Burst of 6 against a budget of 2 → hard failure mid-stream.
        let spec = FaultSpec::none(5).transient(0.2, 6).chunk(8);
        let faulty = FaultyReader::new(input.as_bytes(), spec);
        let config = ResilientConfig {
            retry: RetryPolicy::no_backoff(2),
            ..ResilientConfig::default()
        };
        let err = label_stream_resilient(
            BufReader::new(faulty),
            &labeler,
            &Jaccard,
            &config,
            None,
            |_| {},
            &RunGovernor::unlimited(),
            1,
        )
        .unwrap_err();
        let IngestErrorKind::Io(e) = &err.kind else {
            panic!("expected Io error, got {:?}", err.kind);
        };
        assert!(RetryPolicy::is_transient(e));
        // Resume from the checkpoint over a clean reader finishes the job.
        let resumed = label_stream_resilient(
            BufReader::new(input.as_bytes()),
            &labeler,
            &Jaccard,
            &config,
            Some(&err.checkpoint),
            |_| {},
            &RunGovernor::unlimited(),
            1,
        )
        .unwrap();
        assert_eq!(resumed.report.resumed_from_offset, Some(err.checkpoint.byte_offset));
        let mut all = err.partial_assignments.clone();
        all.extend(resumed.labeling.assignments.iter().copied());
        assert_eq!(all, vec![Some(0); 50]);
        assert_eq!(resumed.checkpoint.records_read, 50);
        assert_eq!(resumed.checkpoint.byte_offset, input.len() as u64);
    }

    #[test]
    fn periodic_checkpoints_fire_and_resume_mid_stream() {
        let labeler = test_labeler();
        let input: String = (0..20)
            .map(|i| if i < 10 { "1 2 3\n" } else { "10 11 12\n" })
            .collect();
        let config = ResilientConfig {
            checkpoint_every: 7,
            ..no_sleep_config()
        };
        let mut checkpoints = Vec::new();
        let full = label_stream_resilient(
            BufReader::new(input.as_bytes()),
            &labeler,
            &Jaccard,
            &config,
            None,
            |cp| checkpoints.push(cp.clone()),
            &RunGovernor::unlimited(),
            1,
        )
        .unwrap();
        assert_eq!(checkpoints.len(), 2); // lines 7 and 14 of 20
        assert_eq!(full.report.checkpoints_written, 2);
        // Resume from each periodic checkpoint; totals must match the
        // uninterrupted run exactly.
        for cp in &checkpoints {
            let resumed = label_stream_resilient(
                BufReader::new(input.as_bytes()),
                &labeler,
                &Jaccard,
                &config,
                Some(cp),
                |_| {},
                &RunGovernor::unlimited(),
                1,
            )
            .unwrap();
            assert_eq!(resumed.checkpoint, full.checkpoint, "resume from {cp:?}");
            assert_eq!(
                resumed.labeling.assignments,
                full.labeling.assignments[cp.records_read as usize..].to_vec()
            );
        }
    }

    fn three_cluster_checkpoint() -> Checkpoint {
        Checkpoint {
            byte_offset: 12345,
            lines_seen: 290,
            records_read: 283,
            records_skipped: 4,
            records_quarantined: 3,
            cluster_counts: vec![100, 120, 63],
            outliers: 2,
        }
    }

    #[test]
    fn checkpoint_roundtrips() {
        let cp = three_cluster_checkpoint();
        assert_eq!(Checkpoint::decode(&cp.encode()).unwrap(), cp);
        // Empty cluster counts (plain-reader checkpoints) round-trip too.
        let cp0 = Checkpoint::new(0);
        assert_eq!(Checkpoint::decode(&cp0.encode()).unwrap(), cp0);
    }

    #[test]
    fn checkpoint_decode_is_total_over_prefixes_and_bit_flips() {
        let cp = three_cluster_checkpoint();
        let bytes = cp.encode();
        let rejected_or_equal = |bad: &[u8], what: &str| match Checkpoint::decode(bad) {
            Ok(got) => assert_eq!(got, cp, "{what} decoded to a different checkpoint"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}"),
        };
        for cut in 0..bytes.len() {
            rejected_or_equal(&bytes[..cut], &format!("cut at {cut}"));
        }
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                rejected_or_equal(&bad, &format!("flip of bit {bit} at {i}"));
            }
        }
    }

    #[test]
    fn checkpoint_decode_rejects_well_framed_damage() {
        let good = three_cluster_checkpoint().encode();
        let (_, payload, _) = read_frame(&good, CHECKPOINT_MAGIC.len()).unwrap();
        let framed = |kind: u8, payload: &[u8]| {
            let mut bytes = CHECKPOINT_MAGIC.to_vec();
            append_frame(&mut bytes, kind, payload);
            bytes
        };
        let mut unread = payload.to_vec();
        unread.push(0);
        let mut lying = payload[..6 * 8].to_vec();
        put_u32(&mut lying, u32::MAX);
        let mut trailing = good.clone();
        trailing.push(0);
        // The field lines of the pre-frame text checkpoints.
        let text = "byte_offset=0\nlines_seen=0\nrecords_read=0\nrecords_skipped=0\n\
                    records_quarantined=0\noutliers=0\ncluster_counts=0,0\n";
        for (what, bad, detail) in [
            ("wrong magic", [b"ROCKWAL1", &good[8..]].concat(), "magic"),
            ("line text", text.as_bytes().to_vec(), "magic"),
            ("wrong kind", framed(REC_CHECKPOINT + 1, payload), "kind"),
            ("trailing byte", trailing, "trailing"),
            ("unread payload", framed(REC_CHECKPOINT, &unread), "payload"),
            ("lying count", framed(REC_CHECKPOINT, &lying), "payload"),
        ] {
            let e = Checkpoint::decode(&bad).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(e.to_string().contains(detail), "{what}: {e}");
        }
    }

    #[test]
    fn mismatched_resume_checkpoint_is_rejected() {
        let labeler = test_labeler(); // 2 clusters
        let cp = Checkpoint::new(5);
        let err = label_stream_resilient(
            BufReader::new("1 2 3\n".as_bytes()),
            &labeler,
            &Jaccard,
            &no_sleep_config(),
            Some(&cp),
            |_| {},
            &RunGovernor::unlimited(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err.kind, IngestErrorKind::BadCheckpoint(_)));
        assert!(err.to_string().contains("cannot resume"));
    }

    #[test]
    fn checkpoint_beyond_eof_is_unexpected_eof() {
        let labeler = test_labeler();
        let mut cp = Checkpoint::new(2);
        cp.byte_offset = 10_000;
        let err = label_stream_resilient(
            BufReader::new("1 2 3\n".as_bytes()),
            &labeler,
            &Jaccard,
            &no_sleep_config(),
            Some(&cp),
            |_| {},
            &RunGovernor::unlimited(),
            1,
        )
        .unwrap_err();
        let IngestErrorKind::Io(e) = &err.kind else {
            panic!("expected Io, got {:?}", err.kind);
        };
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn nan_similarity_quarantines_the_record() {
        struct NanOnBigItems;
        impl Similarity<Transaction> for NanOnBigItems {
            fn similarity(&self, a: &Transaction, b: &Transaction) -> f64 {
                if a.items().iter().chain(b.items()).any(|&i| i >= 100) {
                    f64::NAN
                } else {
                    Jaccard.similarity(a, b)
                }
            }
        }
        let labeler = test_labeler();
        let input = "1 2 3\n100 2 3\n10 11 12\n";
        let run = label_stream_resilient(
            BufReader::new(input.as_bytes()),
            &labeler,
            &NanOnBigItems,
            &no_sleep_config(),
            None,
            |_| {},
            &RunGovernor::unlimited(),
            1,
        )
        .unwrap();
        assert_eq!(run.labeling.assignments, vec![Some(0), Some(1)]);
        assert_eq!(run.checkpoint.records_quarantined, 1);
        assert!(run.report.quarantined[0]
            .reason
            .contains("non-finite similarity"));
    }

    #[test]
    fn invalid_utf8_is_quarantined_not_fatal() {
        let labeler = test_labeler();
        let mut bytes = b"1 2 3\n".to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFE, b'\n']);
        bytes.extend_from_slice(b"10 11 12\n");
        let run = label_stream_resilient(
            BufReader::new(bytes.as_slice()),
            &labeler,
            &Jaccard,
            &no_sleep_config(),
            None,
            |_| {},
            &RunGovernor::unlimited(),
            1,
        )
        .unwrap();
        assert_eq!(run.labeling.assignments, vec![Some(0), Some(1)]);
        assert_eq!(run.checkpoint.records_quarantined, 1);
    }

    #[test]
    fn resilient_reader_matches_plain_reader_on_clean_input() {
        let input = "1 2 3\n# c\n10 11\n";
        let (ts, report, cp) = read_baskets_resilient(
            BufReader::new(input.as_bytes()),
            &no_sleep_config(),
            None,
        )
        .unwrap();
        let plain =
            crate::basketio::read_baskets_numeric(BufReader::new(input.as_bytes())).unwrap();
        assert_eq!(ts, plain);
        assert_eq!(report.records_read, 2);
        assert_eq!(cp.byte_offset, input.len() as u64);
        assert!(report.phase_duration("ingest").is_some());
    }

    #[test]
    fn resilient_reader_quarantines_and_resumes() {
        let input = "1 2 3\nnot numbers\n10 11\n";
        let (ts, report, cp) = read_baskets_resilient(
            BufReader::new(input.as_bytes()),
            &no_sleep_config(),
            None,
        )
        .unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(report.records_quarantined, 1);
        // Resuming from the final checkpoint reads nothing more.
        let (rest, _, cp2) = read_baskets_resilient(
            BufReader::new(input.as_bytes()),
            &no_sleep_config(),
            Some(&cp),
        )
        .unwrap();
        assert!(rest.is_empty());
        assert_eq!(cp2.byte_offset, cp.byte_offset);
    }

    /// Thread counts every stream-labeling sweep covers.
    const THREADS: [usize; 3] = [1, 2, 8];

    /// A pass over `input` with [`test_labeler`] and Jaccard.
    fn label_with(
        input: &str,
        config: &ResilientConfig,
        resume: Option<&Checkpoint>,
        governor: &RunGovernor,
        threads: usize,
    ) -> (Result<ResilientLabelRun, IngestError>, Vec<Checkpoint>) {
        let mut checkpoints = Vec::new();
        let run = label_stream_resilient(
            BufReader::new(input.as_bytes()),
            &test_labeler(),
            &Jaccard,
            config,
            resume,
            |cp| checkpoints.push(cp.clone()),
            governor,
            threads,
        );
        (run, checkpoints)
    }

    #[test]
    fn labeling_is_bit_identical_for_every_thread_count() {
        // Mix of labels, outliers, comments, blanks and garbage.
        let input: String = (0..500)
            .map(|i| match i % 7 {
                0 => "1 2 3\n".to_string(),
                1 => "10 11 12\n".to_string(),
                2 => "55 66 77\n".to_string(), // outlier
                3 => "# comment\n".to_string(),
                4 => "\n".to_string(),
                5 => "2 3 4\n".to_string(),
                _ => "11 12 13\n".to_string(),
            })
            .collect();
        let config = ResilientConfig {
            checkpoint_every: 37,
            ..no_sleep_config()
        };
        let unlimited = RunGovernor::unlimited();
        let (seq, seq_cps) = label_with(&input, &config, None, &unlimited, 1);
        let seq = seq.unwrap();
        assert_eq!(seq_cps.len(), 500 / 37);
        for threads in THREADS {
            let (par, par_cps) = label_with(&input, &config, None, &unlimited, threads);
            let par = par.unwrap();
            assert_eq!(par.labeling, seq.labeling, "threads={threads}");
            assert_eq!(par.checkpoint, seq.checkpoint, "threads={threads}");
            assert_eq!(par_cps, seq_cps, "threads={threads}");
            assert_eq!(
                par.report.checkpoints_written,
                seq.report.checkpoints_written
            );
        }
    }

    #[test]
    fn quarantine_overflow_salvage_is_the_same_for_every_thread_count() {
        let input = "1 2 3\nbad\n10 11 12\nworse\nworst\n1 2 3\n";
        let config = ResilientConfig {
            max_quarantine: 2,
            ..no_sleep_config()
        };
        for threads in THREADS {
            let err = label_with(input, &config, None, &RunGovernor::unlimited(), threads)
                .0
                .unwrap_err();
            assert!(matches!(
                err.kind,
                IngestErrorKind::QuarantineOverflow { cap: 2 }
            ));
            assert_eq!(err.line, 5, "threads={threads}");
            assert_eq!(err.checkpoint.lines_seen, 5, "threads={threads}");
            assert_eq!(err.partial_assignments, vec![Some(0), Some(1)], "threads={threads}");
        }
    }

    #[test]
    fn runs_resume_from_checkpoints_taken_at_any_thread_count() {
        let input: String = (0..60)
            .map(|i| if i % 2 == 0 { "1 2 3\n" } else { "10 11 12\n" })
            .collect();
        let config = ResilientConfig {
            checkpoint_every: 13,
            ..no_sleep_config()
        };
        let unlimited = RunGovernor::unlimited();
        for taken_at in THREADS {
            let (full, cps) = label_with(&input, &config, None, &unlimited, taken_at);
            let full = full.unwrap();
            assert!(!cps.is_empty());
            for threads in THREADS {
                let resumed = label_with(&input, &config, Some(&cps[0]), &unlimited, threads)
                    .0
                    .unwrap();
                assert_eq!(resumed.checkpoint, full.checkpoint);
                assert_eq!(
                    resumed.labeling.assignments,
                    full.labeling.assignments[cps[0].records_read as usize..].to_vec()
                );
            }
        }
    }

    #[test]
    fn labeling_with_transient_faults_matches_clean_run() {
        let labeler = test_labeler();
        let input: String = (0..120)
            .map(|i| {
                if i % 3 == 0 {
                    "1 2 3\n".to_string()
                } else {
                    "10 11 12\n".to_string()
                }
            })
            .collect();
        let clean = label_with(&input, &no_sleep_config(), None, &RunGovernor::unlimited(), 1)
            .0
            .unwrap();
        for threads in THREADS {
            let spec = FaultSpec::none(23).transient(0.1, 1).chunk(8);
            let faulty = FaultyReader::new(input.as_bytes(), spec);
            let run = label_stream_resilient(
                BufReader::new(faulty),
                &labeler,
                &Jaccard,
                &no_sleep_config(),
                None,
                |_| {},
                &RunGovernor::unlimited(),
                threads,
            )
            .unwrap();
            assert!(run.report.transient_io_errors > 0, "no faults fired");
            assert_eq!(run.labeling, clean.labeling, "threads={threads}");
            assert_eq!(run.checkpoint, clean.checkpoint, "threads={threads}");
        }
    }

    #[test]
    fn governed_kill_interrupts_then_resume_is_bit_identical() {
        let input: String = (0..60)
            .map(|i| match i % 3 {
                0 => "1 2 3\n",
                1 => "10 11 12\n",
                _ => "55 66 77\n", // outlier
            })
            .collect();
        let config = ResilientConfig {
            checkpoint_every: 7,
            ..no_sleep_config()
        };
        let unlimited = RunGovernor::unlimited();
        let baseline = label_with(&input, &config, None, &unlimited, 1).0.unwrap();

        for threads in THREADS {
            // Kill at absolute line 20 (check_at uses cumulative lines_seen).
            let governor = RunGovernor::unlimited().with_kill_at(Phase::Labeling, 20);
            let err = label_with(&input, &config, None, &governor, threads)
                .0
                .unwrap_err();
            assert!(matches!(
                err.kind,
                IngestErrorKind::Interrupted {
                    phase: Phase::Labeling,
                    reason: TripReason::Cancelled,
                }
            ));
            assert_eq!(err.line, 21);
            assert_eq!(err.checkpoint.lines_seen, 20);
            assert_eq!(err.report.interrupted, Some((Phase::Labeling, TripReason::Cancelled)));
            assert!(err.report.degraded());
            assert!(err.to_string().contains("resume from byte"));

            // Resume from the interruption checkpoint with no governor
            // limits: the tail concatenated onto the salvage is
            // bit-identical.
            let resumed = label_with(&input, &config, Some(&err.checkpoint), &unlimited, threads)
                .0
                .unwrap();
            assert_eq!(resumed.checkpoint, baseline.checkpoint);
            let mut stitched = err.partial_assignments.clone();
            stitched.extend(resumed.labeling.assignments.iter().cloned());
            assert_eq!(stitched, baseline.labeling.assignments);
        }
    }

    #[test]
    fn governed_pass_stops_at_the_same_line_for_any_thread_count() {
        let input: String = (0..90)
            .map(|i| {
                if i % 2 == 0 {
                    "1 2 3\n".to_string()
                } else {
                    "10 11 12\n".to_string()
                }
            })
            .collect();
        let config = ResilientConfig {
            checkpoint_every: 11,
            ..no_sleep_config()
        };
        let kill = |threads: usize| {
            let governor = RunGovernor::unlimited().with_kill_at(Phase::Labeling, 40);
            label_with(&input, &config, None, &governor, threads).0.unwrap_err()
        };
        let seq = kill(1);
        assert_eq!(seq.checkpoint.lines_seen, 40);
        for threads in THREADS {
            let par = kill(threads);
            assert_eq!(par.line, seq.line, "threads={threads}");
            assert_eq!(par.checkpoint, seq.checkpoint, "threads={threads}");
            assert_eq!(
                par.partial_assignments, seq.partial_assignments,
                "threads={threads}"
            );
        }
        // Read-ahead past the stop line is discarded: the checkpoint byte
        // offset points at the first unprocessed line.
        let prefix: usize = input
            .lines()
            .take(seq.checkpoint.lines_seen as usize)
            .map(|l| l.len() + 1)
            .sum();
        assert_eq!(seq.checkpoint.byte_offset, prefix as u64);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(35),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(35));
        assert_eq!(p.backoff(63), Duration::from_millis(35));
        assert_eq!(RetryPolicy::no_backoff(3).backoff(5), Duration::ZERO);
    }
}
