//! Deterministic fault injection — the workspace's fault harness: I/O
//! faults, damaged artifacts, governor kills, shard chaos and a
//! NaN-poisoned similarity measure ([`PoisonedSimilarity`]).
//!
//! Real basket databases fail in three characteristic ways: reads fail
//! *transiently* (network filesystems, flaky disks), lines arrive
//! *truncated* (torn writes, partial transfers), and tokens arrive as
//! *garbage* (encoding damage, foreign rows). [`FaultyReader`] injects the
//! first from a seeded schedule at the `Read` layer; [`corrupt_baskets`]
//! applies the other two to the data image itself. Every fault is a pure
//! function of `(seed, position)`, so a schedule reproduces exactly across
//! runs and across checkpoint resumptions — which is what lets the
//! resilience tests assert bit-identical resumed output.

use rock_core::util::seeded_hit;
use rock_core::{Phase, RunGovernor};
use std::io::{self, Read};
use std::time::Duration;

/// Stream ids separating the independent fault schedules drawn from one
/// seed.
const STREAM_TRANSIENT: u64 = 0x10;
const STREAM_GARBAGE: u64 = 0x20;
const STREAM_TRUNCATE: u64 = 0x30;
const STREAM_ARTIFACT: u64 = 0x40;

/// A garbage token no numeric basket parser accepts.
pub const GARBAGE_TOKEN: &str = "x7!";

/// A seeded schedule of injected faults.
///
/// All rates are independent per-event Bernoulli probabilities, decided
/// deterministically from the seed (see
/// [`rock_core::util::seeded_hit`]). The zero-rate spec injects nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Seed for every schedule stream.
    pub seed: u64,
    /// Probability that a `read()` call site starts a transient-error
    /// burst.
    pub transient_rate: f64,
    /// Consecutive transient errors per burst (1 = a single retry
    /// recovers; set above the retry budget to force a hard failure).
    pub transient_burst: u32,
    /// Probability that a data line gains a garbage token
    /// ([`GARBAGE_TOKEN`]).
    pub garbage_rate: f64,
    /// Probability that a data line is truncated.
    pub truncate_rate: f64,
    /// Maximum bytes delivered per successful `read()` (0 = unlimited).
    /// A small chunk models a slow device and — because `BufReader`
    /// otherwise swallows a whole test input in one call — gives the
    /// transient schedule enough call sites to fire on.
    pub chunk: usize,
}

impl FaultSpec {
    /// A schedule that injects nothing.
    pub fn none(seed: u64) -> Self {
        FaultSpec {
            seed,
            transient_rate: 0.0,
            transient_burst: 1,
            garbage_rate: 0.0,
            truncate_rate: 0.0,
            chunk: 0,
        }
    }

    /// Sets the transient-error rate.
    pub fn transient(mut self, rate: f64, burst: u32) -> Self {
        self.transient_rate = rate;
        self.transient_burst = burst.max(1);
        self
    }

    /// Sets the garbage-token rate.
    pub fn garbage(mut self, rate: f64) -> Self {
        self.garbage_rate = rate;
        self
    }

    /// Sets the line-truncation rate.
    pub fn truncate(mut self, rate: f64) -> Self {
        self.truncate_rate = rate;
        self
    }

    /// Caps bytes delivered per successful `read()` (0 = unlimited).
    pub fn chunk(mut self, bytes: usize) -> Self {
        self.chunk = bytes;
        self
    }
}

/// Wraps a reader and injects transient `io::Error`s on a seeded schedule
/// of `read()` call indices.
///
/// A scheduled call index starts a *burst* of
/// [`FaultSpec::transient_burst`] consecutive failures; once the burst is
/// exhausted the retried call reaches the inner reader, so a retry loop
/// with budget ≥ burst always recovers and the byte stream delivered is
/// unchanged. Injected errors alternate between
/// [`io::ErrorKind::WouldBlock`] and [`io::ErrorKind::TimedOut`] — kinds
/// the resilient drivers classify as transient. (`Interrupted` is
/// deliberately not injected: `BufRead::read_line` retries it internally,
/// which would hide the fault from the layer under test.)
///
/// Over a fixed image (`Vec<u8>`) it is [`FaultyArtifactSource`]: the
/// same schedule, with fetch calls in place of read calls.
#[derive(Clone, Debug)]
pub struct FaultyReader<R> {
    inner: R,
    spec: FaultSpec,
    calls: u64,
    pending_burst: u32,
    injected: u64,
}

impl<R> FaultyReader<R> {
    /// Wraps `inner` under `spec`.
    pub fn new(inner: R, spec: FaultSpec) -> Self {
        FaultyReader {
            inner,
            spec,
            calls: 0,
            pending_burst: 0,
            injected: 0,
        }
    }

    /// Takes one call off the schedule: `Err` with the next injected
    /// error when the call falls in a burst, `Ok` when it may reach the
    /// inner source.
    fn schedule(&mut self) -> io::Result<()> {
        if self.pending_burst > 0 {
            self.pending_burst -= 1;
        } else {
            let i = self.calls;
            self.calls += 1;
            if !(self.spec.transient_rate > 0.0
                && seeded_hit(self.spec.seed, STREAM_TRANSIENT, i, self.spec.transient_rate))
            {
                return Ok(());
            }
            self.pending_burst = self.spec.transient_burst.saturating_sub(1);
        }
        let kind = if self.injected.is_multiple_of(2) {
            io::ErrorKind::WouldBlock
        } else {
            io::ErrorKind::TimedOut
        };
        let e = io::Error::new(kind, format!("injected transient fault #{}", self.injected));
        self.injected += 1;
        Err(e)
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.schedule()?;
        let cap = match self.spec.chunk {
            0 => buf.len(),
            c => buf.len().min(c),
        };
        self.inner.read(&mut buf[..cap])
    }
}

/// Deterministically corrupts a basket-file image: per the schedule, data
/// lines gain a [`GARBAGE_TOKEN`] or lose their tail.
///
/// Blank and `#`-comment lines are left alone (they are skipped by every
/// reader anyway, so corrupting them would test nothing). Corruption is
/// applied to the *image*, before any reader sees it, so an uninterrupted
/// run and a checkpoint-resumed run observe the same bytes.
pub fn corrupt_baskets(input: &str, spec: &FaultSpec) -> String {
    let mut out = String::with_capacity(input.len() + 16);
    for (lineno, line) in input.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        let i = lineno as u64;
        if seeded_hit(spec.seed, STREAM_GARBAGE, i, spec.garbage_rate) {
            out.push_str(line);
            out.push(' ');
            out.push_str(GARBAGE_TOKEN);
        } else if seeded_hit(spec.seed, STREAM_TRUNCATE, i, spec.truncate_rate) && !line.is_empty()
        {
            // Cut somewhere strictly inside the line so something is lost.
            let mut cut = 1 + (seeded_hit_index(spec.seed, i) as usize % line.len().max(1));
            cut = cut.min(line.len().saturating_sub(1)).max(1);
            while cut > 0 && !line.is_char_boundary(cut) {
                cut -= 1;
            }
            out.push_str(&line[..cut]);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// A deterministic index helper for picking truncation points.
fn seeded_hit_index(seed: u64, line: u64) -> u64 {
    rock_core::util::splitmix64(seed ^ STREAM_TRUNCATE ^ line.wrapping_mul(0x9E37_79B9))
}

/// Flips exactly one seeded bit of an artifact image — the single-bit
/// damage injector for the artifact corruption matrix. Pure function of
/// `(seed, image length)`; returns the image unchanged only when empty.
pub fn flip_artifact_bit(bytes: &[u8], seed: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return out;
    }
    let r = rock_core::util::splitmix64(seed ^ STREAM_ARTIFACT);
    let offset = (r as usize) % out.len();
    let bit = ((r >> 32) % 8) as u32;
    out[offset] ^= 1u8 << bit;
    out
}

/// Truncates an artifact image at a seeded offset strictly inside it
/// (torn write / partial transfer). Pure function of
/// `(seed, image length)`.
pub fn truncate_artifact(bytes: &[u8], seed: u64) -> Vec<u8> {
    if bytes.is_empty() {
        return Vec::new();
    }
    let r = rock_core::util::splitmix64(seed ^ STREAM_ARTIFACT.rotate_left(8));
    let cut = (r as usize) % bytes.len();
    bytes[..cut].to_vec()
}

/// An [`ArtifactSource`](rock_core::artifact::ArtifactSource) serving a
/// fixed image through the seeded transient-error schedule of a
/// [`FaultSpec`] — the injector behind the serve layer's
/// retry-with-backoff tests. Fetch call indices play the role read call
/// indices play for [`FaultyReader`]; a scheduled index starts a burst
/// of [`FaultSpec::transient_burst`] consecutive failures, so a retry
/// budget ≥ burst always recovers the exact image.
pub type FaultyArtifactSource = FaultyReader<Vec<u8>>;

impl rock_core::artifact::ArtifactSource for FaultyArtifactSource {
    fn fetch(&mut self) -> io::Result<Vec<u8>> {
        self.schedule()?;
        Ok(self.inner.clone())
    }
}

/// A governor that simulates a kill signal at checkpoint `index` of an
/// arbitrary `phase` (e.g. a labeling batch).
pub fn kill_at(phase: Phase, index: u64) -> RunGovernor {
    RunGovernor::unlimited().with_kill_at(phase, index)
}

/// A deterministic chaos schedule for the shard supervisor — the
/// workspace's [`ShardFaultPlan`](rock_core::ShardFaultPlan)
/// implementation.
///
/// Each entry targets one `(shard, attempt)` cell of the retry matrix
/// (attempts are 0-based; the coarse merge pass is addressed by the
/// sentinel shard index `shard count`):
///
/// * **crash** — the attempt's governor kills the run after exactly `k`
///   merge decisions, like a process death mid-merge;
/// * **hang** — the attempt's wall-clock budget is already expired, so
///   its first checkpoint trips, like a shard stuck past its deadline;
/// * **memory trip** — a 1-byte memory budget trips on the first charge;
/// * **torn WAL** — the shard WAL carried out of the attempt is
///   truncated to `keep` bytes before the next attempt resumes from it.
///
/// The schedule is plain data: the same schedule replayed against the
/// same input produces bit-identical supervisor behavior, which is what
/// lets the chaos-matrix proptests compare a faulted run against the
/// exclusion oracle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardFaultSchedule {
    /// Crash injections: `(shard, attempt, kill after k merges)`.
    pub crashes: Vec<(usize, u32, u64)>,
    /// Hang injections: `(shard, attempt)`.
    pub hangs: Vec<(usize, u32)>,
    /// Memory-trip injections: `(shard, attempt)`.
    pub memory_trips: Vec<(usize, u32)>,
    /// Torn-WAL injections: `(shard, attempt, bytes kept)`.
    pub torn_wals: Vec<(usize, u32, usize)>,
}

impl ShardFaultSchedule {
    /// An empty schedule (injects nothing).
    pub fn new() -> Self {
        ShardFaultSchedule::default()
    }

    /// Kills attempt `attempt` of shard `shard` after `k` merge
    /// decisions.
    pub fn crash_at_merge(mut self, shard: usize, attempt: u32, k: u64) -> Self {
        self.crashes.push((shard, attempt, k));
        self
    }

    /// Expires attempt `attempt` of shard `shard` at its first
    /// checkpoint (a pre-elapsed deadline).
    pub fn hang(mut self, shard: usize, attempt: u32) -> Self {
        self.hangs.push((shard, attempt));
        self
    }

    /// Trips attempt `attempt` of shard `shard` on its first memory
    /// charge.
    pub fn trip_memory(mut self, shard: usize, attempt: u32) -> Self {
        self.memory_trips.push((shard, attempt));
        self
    }

    /// Tears the WAL carried out of attempt `attempt` of shard `shard`
    /// down to its first `keep` bytes.
    pub fn tear_wal(mut self, shard: usize, attempt: u32, keep: usize) -> Self {
        self.torn_wals.push((shard, attempt, keep));
        self
    }
}

impl rock_core::ShardFaultPlan for ShardFaultSchedule {
    fn governor(&self, shard: usize, attempt: u32, base: RunGovernor) -> RunGovernor {
        // Injection priority when a cell carries several faults:
        // hang, then memory trip, then crash — mirrors which budget the
        // governor's own trip check consults first.
        if self.hangs.contains(&(shard, attempt)) {
            return base.with_time_budget(Duration::ZERO);
        }
        if self.memory_trips.contains(&(shard, attempt)) {
            return base.with_memory_budget(1);
        }
        if let Some(&(_, _, k)) = self
            .crashes
            .iter()
            .find(|&&(s, a, _)| s == shard && a == attempt)
        {
            return base.with_kill_at(Phase::Merge, k);
        }
        base
    }

    fn wal_bytes(&self, shard: usize, attempt: u32, mut bytes: Vec<u8>) -> Vec<u8> {
        if let Some(&(_, _, keep)) = self
            .torn_wals
            .iter()
            .find(|&&(s, a, _)| s == shard && a == attempt)
        {
            bytes.truncate(keep.min(bytes.len()));
        }
        bytes
    }
}

/// A similarity measure poisoned by a marker item: any pair touching a
/// transaction that contains `marker` yields NaN; every other pair is
/// plain Jaccard. Deterministic, so a poisoned shard fails identically
/// on every retry — the input the quarantine ladder's
/// corruption-never-retried rule exists for.
#[derive(Clone, Copy, Debug)]
pub struct PoisonedSimilarity {
    /// The item id whose presence poisons a pair.
    pub marker: u32,
}

impl rock_core::Similarity<rock_core::Transaction> for PoisonedSimilarity {
    fn similarity(&self, a: &rock_core::Transaction, b: &rock_core::Transaction) -> f64 {
        if a.items().contains(&self.marker) || b.items().contains(&self.marker) {
            return f64::NAN;
        }
        rock_core::Jaccard.similarity(a, b)
    }
}

/// Appends `marker` to every transaction in `range`, making that slice
/// poisonous under [`PoisonedSimilarity`]. Out-of-bounds tails of the
/// range are ignored.
pub fn poison_range(data: &mut [rock_core::Transaction], range: std::ops::Range<usize>, marker: u32) {
    for t in data.iter_mut().take(range.end).skip(range.start) {
        let mut items = t.items().to_vec();
        items.push(marker);
        *t = rock_core::Transaction::new(items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Cursor};

    #[test]
    fn zero_spec_is_transparent() {
        let data = b"1 2 3\n4 5\n".to_vec();
        let mut r = FaultyReader::new(Cursor::new(data.clone()), FaultSpec::none(9));
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(r.injected, 0);
    }

    #[test]
    fn transient_errors_fire_and_bytes_survive_retries() {
        let data: Vec<u8> = (0..200u32)
            .flat_map(|i| format!("{i} {} {}\n", i + 1, i + 2).into_bytes())
            .collect();
        let spec = FaultSpec::none(7).transient(0.3, 1);
        let mut r = FaultyReader::new(Cursor::new(data.clone()), spec);
        // A retry loop with budget 1 per fault must reassemble the exact
        // byte stream.
        let mut out = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match r.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) => {
                    assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ),
                        "unexpected kind {e:?}"
                    );
                }
            }
        }
        assert_eq!(out, data);
        assert!(r.injected > 0, "schedule never fired at rate 0.3");
    }

    #[test]
    fn burst_length_is_respected() {
        // Read byte-by-byte and record the length of every consecutive
        // error run: each scheduled call contributes exactly `burst`
        // errors, so runs are always multiples of 3 (adjacent scheduled
        // calls chain into one longer run).
        let spec = FaultSpec::none(1).transient(0.05, 3);
        let data = vec![7u8; 400];
        let mut r = FaultyReader::new(Cursor::new(data.clone()), spec);
        let mut buf = [0u8; 1];
        let mut got = 0usize;
        let mut runs = Vec::new();
        let mut current = 0u32;
        loop {
            match r.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    got += n;
                    if current > 0 {
                        runs.push(current);
                        current = 0;
                    }
                }
                Err(_) => current += 1,
            }
        }
        if current > 0 {
            runs.push(current);
        }
        assert_eq!(got, data.len(), "every payload byte must arrive eventually");
        assert!(!runs.is_empty(), "schedule never fired at rate 0.05");
        assert!(
            runs.iter().all(|&n| n % 3 == 0),
            "bursts must come in multiples of 3: {runs:?}"
        );
    }

    #[test]
    fn unit_rate_never_recovers() {
        // Rate 1.0 schedules every fresh call: the reader is permanently
        // down — the harness's way of forcing a hard failure.
        let spec = FaultSpec::none(2).transient(1.0, 1);
        let mut r = FaultyReader::new(Cursor::new(b"abc".to_vec()), spec);
        let mut buf = [0u8; 4];
        for _ in 0..20 {
            assert!(r.read(&mut buf).is_err());
        }
    }

    #[test]
    fn chunking_limits_read_sizes_without_losing_bytes() {
        let data = b"0123456789abcdef".to_vec();
        let mut r = FaultyReader::new(Cursor::new(data.clone()), FaultSpec::none(4).chunk(3));
        let mut out = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match r.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    assert!(n <= 3, "chunk cap violated: {n}");
                    out.extend_from_slice(&buf[..n]);
                }
                Err(e) => panic!("zero-rate spec errored: {e}"),
            }
        }
        assert_eq!(out, data);
    }

    #[test]
    fn corruption_is_deterministic_and_bounded() {
        let clean: String = (0..100).map(|i| format!("{i} {} {}\n", i + 1, i + 2)).collect();
        let spec = FaultSpec::none(13).garbage(0.1).truncate(0.1);
        let a = corrupt_baskets(&clean, &spec);
        let b = corrupt_baskets(&clean, &spec);
        assert_eq!(a, b, "corruption must be a pure function of (seed, image)");
        assert_ne!(a, clean, "rates 0.1 over 100 lines should corrupt something");
        assert!(a.contains(GARBAGE_TOKEN));
        // Clean spec leaves the image untouched.
        assert_eq!(corrupt_baskets(&clean, &FaultSpec::none(13)), clean);
    }

    #[test]
    fn comments_and_blanks_are_never_corrupted() {
        let input = "# header\n\n1 2 3\n";
        let spec = FaultSpec::none(2).garbage(1.0);
        let out = corrupt_baskets(input, &spec);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "# header");
        assert_eq!(lines[1], "");
        assert_eq!(lines[2], format!("1 2 3 {GARBAGE_TOKEN}"));
    }

    #[test]
    fn kill_at_trips_at_its_checkpoint() {
        let g = kill_at(Phase::Merge, 3);
        g.check_at(Phase::Merge, 2).unwrap();
        assert!(g.check_at(Phase::Merge, 3).is_err());

        let g = kill_at(Phase::Labeling, 0);
        assert!(g.check_at(Phase::Labeling, 0).is_err());
        g.check_at(Phase::Merge, 0).unwrap();
    }

    #[test]
    fn artifact_injectors_are_deterministic_and_damaging() {
        let image: Vec<u8> = (0..255u8).collect();
        let flipped = flip_artifact_bit(&image, 11);
        assert_eq!(flipped, flip_artifact_bit(&image, 11));
        assert_eq!(flipped.len(), image.len());
        assert_eq!(
            image.iter().zip(&flipped).filter(|(a, b)| a != b).count(),
            1,
            "exactly one byte must differ"
        );
        let cut = truncate_artifact(&image, 11);
        assert_eq!(cut, truncate_artifact(&image, 11));
        assert!(cut.len() < image.len());
        assert_eq!(cut, image[..cut.len()]);
        assert!(flip_artifact_bit(&[], 1).is_empty());
        assert!(truncate_artifact(&[], 1).is_empty());
    }

    #[test]
    fn faulty_artifact_source_recovers_after_burst() {
        use rock_core::artifact::ArtifactSource;
        let image = b"ROCKART1 pretend image".to_vec();
        // Pick a seed whose schedule fires on fetch 0 but not fetch 1,
        // so the burst length alone decides when recovery happens.
        let seed = (0..)
            .find(|&s| {
                seeded_hit(s, STREAM_TRANSIENT, 0, 0.5) && !seeded_hit(s, STREAM_TRANSIENT, 1, 0.5)
            })
            .unwrap();
        let spec = FaultSpec::none(seed).transient(0.5, 2);
        let mut source = FaultyArtifactSource::new(image.clone(), spec);
        // Fetch 0 starts a burst of 2; the third attempt reaches the
        // unscheduled fetch 1 and serves the image intact.
        assert!(source.fetch().is_err());
        assert!(source.fetch().is_err());
        assert_eq!(source.fetch().unwrap(), image);
        assert_eq!(source.injected, 2);
        // Zero-rate spec is transparent.
        let mut clean = FaultyArtifactSource::new(image.clone(), FaultSpec::none(5));
        assert_eq!(clean.fetch().unwrap(), image);
        assert_eq!(clean.injected, 0);
    }

    #[test]
    fn corrupted_stream_still_reads_line_by_line() {
        let clean: String = (0..50).map(|i| format!("{i}\n")).collect();
        let spec = FaultSpec::none(3).garbage(0.2).truncate(0.2);
        let corrupted = corrupt_baskets(&clean, &spec);
        let reader = BufReader::new(Cursor::new(corrupted.into_bytes()));
        assert_eq!(reader.lines().count(), 50);
    }
}
