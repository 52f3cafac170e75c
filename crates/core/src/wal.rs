//! Merge write-ahead log: crash-safe persistence of the §4.3 merge loop.
//!
//! The agglomeration phase is deterministic — given the same neighbor
//! graph, configuration and merge prefix, the loop continues identically
//! (heap ties break on keys, so peeks are pure functions of heap
//! *content*). That makes the merge sequence itself the ideal durable
//! artifact: logging every merge decision as it commits lets a crashed or
//! interrupted run be replayed to the exact state it died in and then
//! continued, with a final clustering, dendrogram and criterion profile
//! **bit-identical** to an uninterrupted run.
//!
//! ## Format
//!
//! A WAL is `b"ROCKWAL1"` followed by CRC-framed records:
//!
//! ```text
//! frame   := type:u8  len:u32le  payload[len]  crc32:u32le
//! crc32   := CRC-32/IEEE over type ‖ len ‖ payload
//! records := Begin (Merge | Snapshot)* Finish?
//! ```
//!
//! The frame codec is shared with the fitted-model artifact
//! ([`crate::artifact`]); see [`crate::util::frame`]. So are the record
//! layouts: each is decided in one module and written by one encoder,
//! whichever image carries it.
//!
//! | Layout | Lives in | Carried by |
//! |---|---|---|
//! | [`MergeRecord`] (44 bytes) | [`crate::cluster`] | Merge records, artifact Dendrogram section |
//! | update fingerprint (θ, `f(θ)`, fraction, hash seed, policy) | [`crate::incremental`] | UpdateBase, head of the state digest image |
//! | [`crate::incremental::StalenessPolicy`] | [`crate::incremental`] | update fingerprint, artifact Update section |
//! | optional `u64`, counted blob lists | [`crate::util::frame`] | hash seed, point blobs in Update records, artifact and digest pools |
//!
//! * **Begin** — configuration fingerprint (k, goodness exponent/kind,
//!   outlier policy) plus the initial arena: point id of every
//!   post-pruning singleton and the pruned outliers.
//! * **Merge** — one [`MergeRecord`]: pair ids, minted id, sizes, cross
//!   links and the goodness value (exact f64 bits).
//! * **Snapshot** — a periodic full image of the live clustering state
//!   (arena occupancy, members, cross-link table, weed status). The
//!   two-level heaps of Fig. 3 are *not* stored: every heap entry is
//!   `goodness(link[i][j], |i|, |j|)` by invariant, so heaps are rebuilt
//!   from the link table on restore. A snapshot makes a WAL
//!   self-contained — resumption needs no neighbor graph.
//! * **Finish** — marks a run that completed; replaying it is optional.
//!
//! ## Update logs
//!
//! The online update path ([`crate::incremental`]) keeps its own log
//! under the same magic and frame codec, with a disjoint record grammar:
//!
//! ```text
//! records := UpdateBase Update*
//! ```
//!
//! * **UpdateBase** — the evolving model's fingerprint (θ, `f(θ)`,
//!   labeling fraction — exact f64 bits — the hash seed and the
//!   [`crate::incremental::StalenessPolicy`] in force), then a CRC-32
//!   digest of the base model's canonical state image. That image opens
//!   with the same fingerprint bytes.
//! * **Update** — one applied update batch: its sequence number, the
//!   encoded arrival points (self-contained
//!   [`crate::artifact::ArtifactPoint`] blobs), and the digest of the
//!   canonical state image *after* the batch applied. Updates are
//!   deterministic, so replaying the blobs from the base model
//!   reproduces each digest bit-for-bit — [`parse_update_wal`] applies
//!   the merge-WAL torn-tail discipline (damage to magic/UpdateBase is
//!   [`RockError::WalCorrupt`]; later damage or an out-of-sequence
//!   record truncates).
//!
//! The record-type spaces are disjoint (Begin..Finish = 1..=4,
//! UpdateBase/Update = 5/6), so a log handed to the wrong parser
//! degrades into a typed error or an empty truncated replay — never a
//! misread record.
//!
//! ## Torn tails
//!
//! Crashes tear the last frame. [`parse_wal`] accepts any log whose
//! magic and Begin record are intact, and *truncates* at the first frame
//! that is incomplete, fails its CRC, or has an unknown type — reporting
//! [`WalReplay::truncated`] rather than an error. Only damage to the
//! magic/Begin prefix (nothing to resume from) is a
//! [`RockError::WalCorrupt`]. Both grammars run through one scanner that
//! owns this rule; each parser only says which records it accepts.
//!
//! ## Writing logs to disk
//!
//! [`MergeWal`] and [`UpdateWal`] share one in-memory buffer type, and
//! their `write_to` replaces the target file atomically through the
//! artifact's write routine: `<path>.tmp`, fsync, rename. A crash during
//! the write leaves the previous log intact.
//!
//! Entry points: [`crate::algorithm::RockAlgorithm::run_governed`]
//! (writes), [`crate::algorithm::RockAlgorithm::resume`] (replays), and
//! [`crate::rock::Rock::cluster_wal`] / [`crate::rock::Rock::resume_cluster`].

use crate::artifact::write_atomic;
use crate::cluster::MergeRecord;
use crate::error::RockError;
use crate::incremental::UpdateFingerprint;
use crate::util::frame::{
    append_frame, put_blobs, put_u32, put_u32_slice, put_u64, read_frame, Cursor,
};
use std::path::Path;

/// The 8-byte magic prefix of every merge WAL.
pub const WAL_MAGIC: &[u8; 8] = b"ROCKWAL1";

const REC_BEGIN: u8 = 1;
const REC_MERGE: u8 = 2;
const REC_SNAPSHOT: u8 = 3;
const REC_FINISH: u8 = 4;
const REC_UBASE: u8 = 5;
const REC_UPDATE: u8 = 6;

/// Configuration fingerprint + initial arena, logged once at the head of
/// every WAL.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct WalBegin {
    /// Number of input points the run was started on.
    pub n_points: u32,
    /// The merge engine's configuration.
    pub config: WalConfig,
    /// Point id of each initial (post-pruning) singleton cluster.
    pub initial_points: Vec<u32>,
    /// Points pruned up front as neighbor-less outliers.
    pub pruned_outliers: Vec<u32>,
}

/// What a merge WAL must agree on with the engine that resumes it,
/// built by `RockAlgorithm::wal_config`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct WalConfig {
    /// Target cluster count `k`.
    pub k: u32,
    /// Bits of the goodness exponent `1 + 2·f(θ)`.
    pub exponent_bits: u64,
    /// Goodness kind discriminant (0 = normalized, 1 = raw links).
    pub kind: u8,
    /// `OutlierPolicy::min_neighbors`.
    pub min_neighbors: u32,
    /// Weed policy, if any: `(stop_multiple bits, min_cluster_size)`.
    pub weed: Option<(u64, u32)>,
}

impl WalConfig {
    /// Appends the five fields in declaration order, the weed policy as
    /// a presence byte and its two fields.
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.k);
        put_u64(buf, self.exponent_bits);
        buf.push(self.kind);
        put_u32(buf, self.min_neighbors);
        match self.weed {
            Some((mult_bits, min_size)) => {
                buf.push(1);
                put_u64(buf, mult_bits);
                put_u32(buf, min_size);
            }
            None => buf.push(0),
        }
    }

    /// Decodes [`encode`](Self::encode)'s layout.
    fn decode(c: &mut Cursor<'_>) -> Option<WalConfig> {
        Some(WalConfig {
            k: c.u32()?,
            exponent_bits: c.u64()?,
            kind: c.u8()?,
            min_neighbors: c.u32()?,
            weed: match c.u8()? {
                0 => None,
                1 => Some((c.u64()?, c.u32()?)),
                _ => return None,
            },
        })
    }
}

/// A full image of the merge-loop state at `merges_done` merges.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct WalSnapshot {
    /// Merges applied when the snapshot was taken.
    pub merges_done: u64,
    /// Length of the cluster-id arena (initial clusters + merges done).
    pub arena_len: u64,
    /// Whether the §4.6 mid-flight weeding has already fired.
    pub weeded: bool,
    /// All outliers accumulated so far (pruned + weeded).
    pub outliers: Vec<u32>,
    /// Live clusters: `(arena id, member point ids)`.
    pub clusters: Vec<(u32, Vec<u32>)>,
    /// Cross-link table, upper triangle: `(i, j, count)` with `i < j`,
    /// sorted ascending. Heaps are derived from this on restore.
    pub links: Vec<(u32, u32, u64)>,
}

/// The head of every update WAL: the evolving model's fingerprint and a
/// digest of the base model's canonical state image.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct UpdateBase {
    /// Labeling parameters, hash seed and staleness policy.
    pub fingerprint: UpdateFingerprint,
    /// CRC-32 of the base model's canonical state image.
    pub base_digest: u32,
}

/// One applied update batch: sequence number, encoded arrival points,
/// and the digest of the canonical state image after it applied.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct UpdateRecord {
    /// 0-based batch index; must equal the number of updates before it.
    pub seq: u64,
    /// Self-contained [`crate::artifact::ArtifactPoint`] encodings of
    /// the arrivals, in arrival order.
    pub points: Vec<Vec<u8>>,
    /// CRC-32 of the canonical state image after this batch applied.
    pub post_digest: u32,
}

/// The in-memory image both logs append to: the magic, then frames.
#[derive(Clone, Debug)]
struct LogBuf(Vec<u8>);

impl Default for LogBuf {
    fn default() -> Self {
        LogBuf(WAL_MAGIC.to_vec())
    }
}

impl LogBuf {
    fn is_empty(&self) -> bool {
        self.0.len() <= WAL_MAGIC.len()
    }

    fn write_to(&self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, &self.0).map_err(|(_, e)| e)
    }

    fn frame(&mut self, kind: u8, payload: &[u8]) {
        append_frame(&mut self.0, kind, payload);
    }
}

/// An append-only, CRC-framed merge log held in memory.
///
/// Obtain the bytes with [`as_bytes`](MergeWal::as_bytes) (persist them
/// however suits the deployment — [`write_to`](MergeWal::write_to) is
/// the simple file path) and hand them back to
/// [`crate::algorithm::RockAlgorithm::resume`] to continue an
/// interrupted run.
#[derive(Clone, Debug)]
pub struct MergeWal {
    log: LogBuf,
    snapshot_every: u64,
}

impl Default for MergeWal {
    fn default() -> Self {
        MergeWal::new()
    }
}

impl MergeWal {
    /// An empty WAL (magic only), snapshotting every 512 merges.
    pub fn new() -> Self {
        MergeWal {
            log: LogBuf::default(),
            snapshot_every: 512,
        }
    }

    /// Sets the snapshot cadence: a full state image every `n` merges
    /// (`0` disables snapshots; such a WAL needs the neighbor graph to
    /// resume).
    pub fn with_snapshot_every(mut self, n: u64) -> Self {
        self.snapshot_every = n;
        self
    }

    /// The configured snapshot cadence (0 = disabled).
    pub fn snapshot_every(&self) -> u64 {
        self.snapshot_every
    }

    /// The encoded log bytes (magic + frames).
    pub fn as_bytes(&self) -> &[u8] {
        &self.log.0
    }

    /// Consumes the WAL, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.log.0
    }

    /// Encoded size in bytes.
    pub fn len(&self) -> usize {
        self.log.0.len()
    }

    /// Whether the WAL holds no records yet (magic only).
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Atomically replaces `path` with the encoded log: the bytes are
    /// written to `<path>.tmp`, fsync'd and renamed over `path`, so a
    /// crash leaves either the previous log or this one.
    ///
    /// # Errors
    /// Any I/O error from create/write/sync/rename; `path` is then
    /// untouched.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        self.log.write_to(path)
    }

    pub(crate) fn append_begin(&mut self, b: &WalBegin) {
        let mut p = Vec::new();
        put_u32(&mut p, b.n_points);
        b.config.encode(&mut p);
        put_u32_slice(&mut p, &b.initial_points);
        put_u32_slice(&mut p, &b.pruned_outliers);
        self.log.frame(REC_BEGIN, &p);
    }

    pub(crate) fn append_merge(&mut self, m: &MergeRecord) {
        let mut p = Vec::with_capacity(MergeRecord::ENCODED_LEN);
        m.encode(&mut p);
        self.log.frame(REC_MERGE, &p);
    }

    pub(crate) fn append_snapshot(&mut self, s: &WalSnapshot) {
        let mut p = Vec::new();
        put_u64(&mut p, s.merges_done);
        put_u64(&mut p, s.arena_len);
        p.push(u8::from(s.weeded));
        put_u32_slice(&mut p, &s.outliers);
        put_u32(&mut p, s.clusters.len() as u32);
        for (id, members) in &s.clusters {
            put_u32(&mut p, *id);
            put_u32_slice(&mut p, members);
        }
        put_u64(&mut p, s.links.len() as u64);
        for &(i, j, c) in &s.links {
            put_u32(&mut p, i);
            put_u32(&mut p, j);
            put_u64(&mut p, c);
        }
        self.log.frame(REC_SNAPSHOT, &p);
    }

    pub(crate) fn append_finish(&mut self, merges_total: u64) {
        let mut p = Vec::with_capacity(8);
        put_u64(&mut p, merges_total);
        self.log.frame(REC_FINISH, &p);
    }
}

/// An append-only, CRC-framed update log held in memory — the
/// durability companion of the online update path
/// ([`crate::incremental::IncrementalRockState`]).
///
/// Encoding is deterministic, so replaying the same updates from the
/// same base model regenerates the log byte-for-byte: resumption never
/// needs to splice onto old bytes.
#[derive(Clone, Debug, Default)]
pub struct UpdateWal {
    log: LogBuf,
}

impl UpdateWal {
    /// An empty update WAL (magic only).
    pub fn new() -> Self {
        UpdateWal::default()
    }

    /// The encoded log bytes (magic + frames).
    pub fn as_bytes(&self) -> &[u8] {
        &self.log.0
    }

    /// Consumes the WAL, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.log.0
    }

    /// Encoded size in bytes.
    pub fn len(&self) -> usize {
        self.log.0.len()
    }

    /// Whether the WAL holds no records yet (magic only).
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Atomically replaces `path` with the encoded log, as
    /// [`MergeWal::write_to`] does.
    ///
    /// # Errors
    /// Any I/O error from create/write/sync/rename; `path` is then
    /// untouched.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        self.log.write_to(path)
    }

    pub(crate) fn append_base(&mut self, b: &UpdateBase) {
        let mut p = Vec::new();
        b.fingerprint.encode(&mut p);
        put_u32(&mut p, b.base_digest);
        self.log.frame(REC_UBASE, &p);
    }

    pub(crate) fn append_update(&mut self, u: &UpdateRecord) {
        let mut p = Vec::new();
        put_u64(&mut p, u.seq);
        put_blobs(&mut p, u.points.iter());
        put_u32(&mut p, u.post_digest);
        self.log.frame(REC_UPDATE, &p);
    }
}

/// The replayable content of a parsed WAL.
#[derive(Clone, Debug)]
pub struct WalReplay {
    pub(crate) begin: WalBegin,
    /// Every logged merge, in commit order (complete from merge 0, even
    /// past snapshots — resumption re-logs the prefix into fresh WALs).
    pub(crate) merges: Vec<MergeRecord>,
    /// The latest intact snapshot, if any.
    pub(crate) snapshot: Option<WalSnapshot>,
    /// Whether a Finish record was seen (the run completed).
    pub finished: bool,
    /// Whether a torn tail was truncated during parsing.
    pub truncated: bool,
}

impl WalReplay {
    /// Number of merges recoverable from the log.
    pub fn num_merges(&self) -> usize {
        self.merges.len()
    }

    /// The logged merges, in commit order.
    pub fn merges(&self) -> &[MergeRecord] {
        &self.merges
    }

    /// Whether the log carries a snapshot (and can thus be resumed
    /// without recomputing the neighbor graph).
    pub fn has_snapshot(&self) -> bool {
        self.snapshot.is_some()
    }

    /// Number of input points the logged run started from.
    pub fn num_points(&self) -> usize {
        self.begin.n_points as usize
    }
}

fn parse_begin(payload: &[u8]) -> Option<WalBegin> {
    let mut c = Cursor::new(payload);
    let n_points = c.u32()?;
    let config = WalConfig::decode(&mut c)?;
    let initial_points = c.u32_vec()?;
    let pruned_outliers = c.u32_vec()?;
    c.done().then_some(WalBegin {
        n_points,
        config,
        initial_points,
        pruned_outliers,
    })
}

fn parse_merge(payload: &[u8]) -> Option<MergeRecord> {
    let mut c = Cursor::new(payload);
    MergeRecord::decode(&mut c).filter(|_| c.done())
}

fn parse_snapshot(payload: &[u8]) -> Option<WalSnapshot> {
    let mut c = Cursor::new(payload);
    let merges_done = c.u64()?;
    let arena_len = c.u64()?;
    let weeded = match c.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let outliers = c.u32_vec()?;
    let num_clusters = c.u32()? as usize;
    let mut clusters = Vec::new();
    for _ in 0..num_clusters {
        let id = c.u32()?;
        let members = c.u32_vec()?;
        clusters.push((id, members));
    }
    let num_links = c.u64()? as usize;
    // Each link entry is 16 bytes.
    let links = c.list(num_links, 16, |c| Some((c.u32()?, c.u32()?, c.u64()?)))?;
    c.done().then_some(WalSnapshot {
        merges_done,
        arena_len,
        weeded,
        outliers,
        clusters,
        links,
    })
}

/// The torn-tail scanner both log grammars share.
///
/// Checks the magic, decodes the first frame with `head` (it must have
/// type `head_kind`), then feeds every following frame to `record` until
/// one is incomplete, fails its CRC, or is refused. Returns the head and
/// whether a tail was cut.
///
/// # Errors
/// [`RockError::WalCorrupt`] when the magic is missing or the head
/// record (named `head_name` in the detail) is torn or refused — there
/// is nothing to replay onto.
fn scan_log<H>(
    bytes: &[u8],
    (head_kind, head_name): (u8, &str),
    head: impl FnOnce(&[u8]) -> Option<H>,
    mut record: impl FnMut(u8, &[u8]) -> bool,
) -> Result<(H, bool), RockError> {
    let corrupt = |offset: usize, detail: String| RockError::WalCorrupt {
        offset: offset as u64,
        detail,
    };
    if !bytes.starts_with(WAL_MAGIC) {
        return Err(corrupt(0, "missing ROCKWAL1 magic".into()));
    }
    let mut at = WAL_MAGIC.len();
    let Some((kind, payload, next)) = read_frame(bytes, at) else {
        let detail = format!("log ends before a complete {head_name} record");
        return Err(corrupt(at, detail));
    };
    let Some(h) = (kind == head_kind).then(|| head(payload)).flatten() else {
        return Err(corrupt(at, format!("damaged {head_name} record")));
    };
    at = next;
    while at < bytes.len() {
        match read_frame(bytes, at) {
            Some((kind, payload, next)) if record(kind, payload) => at = next,
            _ => return Ok((h, true)),
        }
    }
    Ok((h, false))
}

/// Parses a merge WAL, truncating any torn tail.
///
/// # Errors
/// [`RockError::WalCorrupt`] when the magic or the Begin record is
/// missing or damaged — there is nothing to resume from. Damage *after*
/// a valid Begin is treated as a torn tail: the valid prefix is kept and
/// [`WalReplay::truncated`] is set.
pub fn parse_wal(bytes: &[u8]) -> Result<WalReplay, RockError> {
    let mut merges: Vec<MergeRecord> = Vec::new();
    let mut snapshot: Option<WalSnapshot> = None;
    let mut finished = false;
    let head = (REC_BEGIN, "Begin");
    let (begin, truncated) = scan_log(bytes, head, parse_begin, |kind, payload| {
        if finished {
            return false; // nothing may follow Finish
        }
        match kind {
            REC_MERGE => parse_merge(payload).map(|m| merges.push(m)).is_some(),
            // A snapshot claiming more merges than are logged before it
            // cannot be replayed; treat it as tail damage.
            REC_SNAPSHOT => match parse_snapshot(payload) {
                Some(s) if s.merges_done as usize <= merges.len() => {
                    snapshot = Some(s);
                    true
                }
                _ => false,
            },
            REC_FINISH => {
                let mut c = Cursor::new(payload);
                let total = c.u64();
                finished = c.done() && total == Some(merges.len() as u64);
                finished
            }
            _ => false, // unknown type or a second Begin
        }
    })?;
    Ok(WalReplay {
        begin,
        merges,
        snapshot,
        finished,
        truncated,
    })
}

/// The replayable content of a parsed update WAL.
#[derive(Clone, Debug)]
pub struct UpdateReplay {
    pub(crate) base: UpdateBase,
    /// Every intact update record, in sequence order.
    pub(crate) updates: Vec<UpdateRecord>,
    /// Whether a torn tail was truncated during parsing.
    pub truncated: bool,
}

impl UpdateReplay {
    /// Number of update batches recoverable from the log.
    pub fn num_updates(&self) -> usize {
        self.updates.len()
    }
}

fn parse_update_base(payload: &[u8]) -> Option<UpdateBase> {
    let mut c = Cursor::new(payload);
    let fingerprint = UpdateFingerprint::decode(&mut c)?;
    let base_digest = c.u32()?;
    if fingerprint.policy.check().is_err() {
        return None;
    }
    c.done().then_some(UpdateBase {
        fingerprint,
        base_digest,
    })
}

fn parse_update_record(payload: &[u8]) -> Option<UpdateRecord> {
    let mut c = Cursor::new(payload);
    let seq = c.u64()?;
    let points = c.blobs()?;
    let post_digest = c.u32()?;
    c.done().then_some(UpdateRecord {
        seq,
        points,
        post_digest,
    })
}

/// Parses an update WAL, truncating any torn tail.
///
/// The discipline mirrors [`parse_wal`]: damage to the magic or the
/// UpdateBase record (nothing to replay onto) is fatal, while a frame
/// after a valid base that is incomplete, fails its CRC, has an unknown
/// type, or carries an out-of-sequence number truncates the log there
/// with [`UpdateReplay::truncated`] set.
///
/// # Errors
/// [`RockError::WalCorrupt`] when the magic or the UpdateBase record is
/// missing or damaged.
pub fn parse_update_wal(bytes: &[u8]) -> Result<UpdateReplay, RockError> {
    let mut updates: Vec<UpdateRecord> = Vec::new();
    let head = (REC_UBASE, "UpdateBase");
    let (base, truncated) = scan_log(bytes, head, parse_update_base, |kind, payload| {
        // Anything but the next update in sequence ends the log.
        let next = (kind == REC_UPDATE)
            .then(|| parse_update_record(payload))
            .flatten()
            .filter(|u| u.seq as usize == updates.len());
        next.map(|u| updates.push(u)).is_some()
    })?;
    Ok(UpdateReplay {
        base,
        updates,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::tmp_path;
    use crate::incremental::StalenessPolicy;

    fn sample_begin() -> WalBegin {
        WalBegin {
            n_points: 6,
            config: WalConfig {
                k: 2,
                exponent_bits: 1.5f64.to_bits(),
                kind: 0,
                min_neighbors: 1,
                weed: Some((2.0f64.to_bits(), 3)),
            },
            initial_points: vec![0, 1, 2, 4, 5],
            pruned_outliers: vec![3],
        }
    }

    fn sample_merge(i: u32) -> MergeRecord {
        MergeRecord {
            left: i,
            right: i + 1,
            merged: 5 + i,
            sizes: (1, 2),
            cross_links: 7,
            goodness: 0.25 + f64::from(i),
        }
    }

    fn sample_snapshot() -> WalSnapshot {
        WalSnapshot {
            merges_done: 2,
            arena_len: 7,
            weeded: false,
            outliers: vec![3],
            clusters: vec![(4, vec![5]), (6, vec![0, 1, 2, 4])],
            links: vec![(4, 6, 9)],
        }
    }

    #[test]
    fn round_trips_all_record_types() {
        let mut wal = MergeWal::new();
        wal.append_begin(&sample_begin());
        wal.append_merge(&sample_merge(0));
        wal.append_merge(&sample_merge(1));
        wal.append_snapshot(&sample_snapshot());
        wal.append_finish(2);

        let replay = parse_wal(wal.as_bytes()).unwrap();
        assert_eq!(replay.begin, sample_begin());
        assert_eq!(replay.merges, vec![sample_merge(0), sample_merge(1)]);
        assert_eq!(replay.snapshot, Some(sample_snapshot()));
        assert!(replay.finished);
        assert!(!replay.truncated);
    }

    #[test]
    fn goodness_bits_survive_exactly() {
        let mut wal = MergeWal::new();
        wal.append_begin(&sample_begin());
        let mut m = sample_merge(0);
        m.goodness = f64::from_bits(0x3FF7_1234_5678_9ABC);
        wal.append_merge(&m);
        let replay = parse_wal(wal.as_bytes()).unwrap();
        assert_eq!(replay.merges[0].goodness.to_bits(), m.goodness.to_bits());
    }

    #[test]
    fn empty_or_bad_magic_is_corrupt() {
        assert!(matches!(
            parse_wal(b""),
            Err(RockError::WalCorrupt { .. })
        ));
        assert!(matches!(
            parse_wal(b"NOTAWAL!rest"),
            Err(RockError::WalCorrupt { .. })
        ));
    }

    #[test]
    fn torn_begin_is_corrupt_torn_tail_is_truncated() {
        let mut wal = MergeWal::new();
        wal.append_begin(&sample_begin());
        let begin_end = wal.len();
        wal.append_merge(&sample_merge(0));
        let merge0_end = wal.len();
        wal.append_merge(&sample_merge(1));
        let bytes = wal.as_bytes();

        // Any cut inside the Begin record (past the magic) is fatal.
        for cut in WAL_MAGIC.len()..begin_end {
            assert!(
                matches!(parse_wal(&bytes[..cut]), Err(RockError::WalCorrupt { .. })),
                "cut at {cut} should be corrupt"
            );
        }
        // Any cut after Begin only truncates; cuts landing exactly on a
        // frame boundary leave a clean (un-torn) shorter log.
        for cut in begin_end..bytes.len() {
            let replay = parse_wal(&bytes[..cut]).unwrap();
            let boundary = cut == begin_end || cut == merge0_end;
            assert_eq!(replay.truncated, !boundary, "cut at {cut}");
            assert!(replay.num_merges() <= 2);
        }
        // The full log parses both merges.
        assert_eq!(parse_wal(bytes).unwrap().num_merges(), 2);
    }

    #[test]
    fn bit_flip_in_a_merge_record_truncates_there() {
        let mut wal = MergeWal::new();
        wal.append_begin(&sample_begin());
        wal.append_merge(&sample_merge(0));
        let first_merge_end = wal.len();
        wal.append_merge(&sample_merge(1));
        let mut bytes = wal.into_bytes();
        bytes[first_merge_end + 7] ^= 0x40; // inside the second merge frame
        let replay = parse_wal(&bytes).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.merges, vec![sample_merge(0)]);
    }

    #[test]
    fn snapshot_claiming_unlogged_merges_is_tail_damage() {
        let mut wal = MergeWal::new();
        wal.append_begin(&sample_begin());
        wal.append_merge(&sample_merge(0));
        let mut snap = sample_snapshot();
        snap.merges_done = 5; // only 1 merge logged before it
        wal.append_snapshot(&snap);
        let replay = parse_wal(wal.as_bytes()).unwrap();
        assert!(replay.truncated);
        assert!(replay.snapshot.is_none());
        assert_eq!(replay.num_merges(), 1);
    }

    #[test]
    fn records_after_finish_are_truncated() {
        let mut wal = MergeWal::new();
        wal.append_begin(&sample_begin());
        wal.append_merge(&sample_merge(0));
        wal.append_finish(1);
        wal.append_merge(&sample_merge(1));
        let replay = parse_wal(wal.as_bytes()).unwrap();
        assert!(replay.finished);
        assert!(replay.truncated);
        assert_eq!(replay.num_merges(), 1);
    }

    fn sample_update_base() -> UpdateBase {
        UpdateBase {
            fingerprint: UpdateFingerprint {
                theta_bits: 0.5f64.to_bits(),
                ftheta_bits: 1.0f64.to_bits(),
                fraction_bits: 0.25f64.to_bits(),
                hash_seed: Some(7),
                policy: StalenessPolicy::default(),
            },
            base_digest: 0xDEAD_BEEF,
        }
    }

    fn sample_update(seq: u64) -> UpdateRecord {
        UpdateRecord {
            seq,
            points: vec![vec![1, 2, 3], vec![], vec![9]],
            post_digest: 0x1234_0000 + seq as u32,
        }
    }

    #[test]
    fn update_log_round_trips() {
        let mut wal = UpdateWal::new();
        wal.append_base(&sample_update_base());
        wal.append_update(&sample_update(0));
        wal.append_update(&sample_update(1));
        let replay = parse_update_wal(wal.as_bytes()).unwrap();
        assert_eq!(replay.base, sample_update_base());
        assert_eq!(replay.updates, vec![sample_update(0), sample_update(1)]);
        assert!(!replay.truncated);
        assert_eq!(replay.num_updates(), 2);
    }

    #[test]
    fn default_update_wal_is_a_valid_empty_image() {
        let wal = UpdateWal::default();
        assert!(wal.is_empty());
        assert_eq!(wal.as_bytes(), WAL_MAGIC);
        assert!(matches!(
            parse_update_wal(wal.as_bytes()),
            Err(RockError::WalCorrupt { .. })
        ));
    }

    #[test]
    fn torn_update_base_is_corrupt_torn_tail_is_truncated() {
        let mut wal = UpdateWal::new();
        wal.append_base(&sample_update_base());
        let base_end = wal.len();
        wal.append_update(&sample_update(0));
        let bytes = wal.as_bytes();
        for cut in WAL_MAGIC.len()..base_end {
            assert!(
                matches!(
                    parse_update_wal(&bytes[..cut]),
                    Err(RockError::WalCorrupt { .. })
                ),
                "cut at {cut} should be corrupt"
            );
        }
        for cut in base_end..bytes.len() {
            let replay = parse_update_wal(&bytes[..cut]).unwrap();
            assert_eq!(replay.truncated, cut != base_end, "cut at {cut}");
            assert!(replay.updates.is_empty());
        }
        assert_eq!(parse_update_wal(bytes).unwrap().num_updates(), 1);
    }

    #[test]
    fn out_of_sequence_update_truncates() {
        let mut wal = UpdateWal::new();
        wal.append_base(&sample_update_base());
        wal.append_update(&sample_update(0));
        wal.append_update(&sample_update(2)); // gap: seq 1 missing
        let replay = parse_update_wal(wal.as_bytes()).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.updates, vec![sample_update(0)]);
    }

    #[test]
    fn bit_flip_in_an_update_record_truncates_there() {
        let mut wal = UpdateWal::new();
        wal.append_base(&sample_update_base());
        wal.append_update(&sample_update(0));
        let first_end = wal.len();
        wal.append_update(&sample_update(1));
        let mut bytes = wal.into_bytes();
        bytes[first_end + 7] ^= 0x40; // inside the second update frame
        let replay = parse_update_wal(&bytes).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.updates, vec![sample_update(0)]);
    }

    #[test]
    fn merge_records_in_an_update_log_truncate() {
        // Record-type spaces are disjoint: a Merge frame after the
        // UpdateBase reads as an unknown type and truncates.
        let mut wal = UpdateWal::new();
        wal.append_base(&sample_update_base());
        let mut p = Vec::new();
        put_u64(&mut p, 1);
        wal.log.frame(REC_MERGE, &p);
        let replay = parse_update_wal(wal.as_bytes()).unwrap();
        assert!(replay.truncated);
        assert!(replay.updates.is_empty());
        // And the other way round: an update log handed to the merge
        // parser fails on its (damaged-looking) head.
        assert!(matches!(
            parse_wal(wal.as_bytes()),
            Err(RockError::WalCorrupt { .. })
        ));
    }

    #[test]
    fn update_base_with_invalid_policy_is_corrupt() {
        let mut base = sample_update_base();
        base.fingerprint.policy.rep_cap = 0;
        let mut wal = UpdateWal::new();
        wal.append_base(&base);
        assert!(matches!(
            parse_update_wal(wal.as_bytes()),
            Err(RockError::WalCorrupt { .. })
        ));
    }

    #[test]
    fn update_file_round_trip() {
        let mut wal = UpdateWal::new();
        wal.append_base(&sample_update_base());
        wal.append_update(&sample_update(0));
        let dir = std::env::temp_dir().join("rock-wal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("update-roundtrip-{}.wal", std::process::id()));
        wal.write_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(bytes, wal.as_bytes());
        assert_eq!(parse_update_wal(&bytes).unwrap().num_updates(), 1);
    }

    #[test]
    fn file_round_trip() {
        let mut wal = MergeWal::new();
        wal.append_begin(&sample_begin());
        wal.append_merge(&sample_merge(0));
        let dir = std::env::temp_dir().join("rock-wal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("roundtrip-{}.wal", std::process::id()));
        wal.write_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(bytes, wal.as_bytes());
        assert_eq!(parse_wal(&bytes).unwrap().num_merges(), 1);
    }

    #[test]
    fn write_to_replaces_the_log_atomically() {
        let dir = std::env::temp_dir().join("rock-wal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("atomic-{}.wal", std::process::id()));
        let mut merge = MergeWal::new();
        merge.append_begin(&sample_begin());
        merge.write_to(&path).unwrap();
        assert!(!tmp_path(&path).exists(), "tmp staging file left behind");
        let mut update = UpdateWal::new();
        update.append_base(&sample_update_base());
        update.write_to(&path).unwrap();
        assert!(!tmp_path(&path).exists(), "tmp staging file left behind");
        assert_eq!(std::fs::read(&path).unwrap(), update.as_bytes());

        // A directory squatting on the staging path makes both writes
        // fail before `path` is touched: the previous log survives.
        std::fs::create_dir_all(tmp_path(&path)).unwrap();
        merge.append_merge(&sample_merge(0));
        assert!(merge.write_to(&path).is_err());
        update.append_update(&sample_update(0));
        assert!(update.write_to(&path).is_err());
        let on_disk = std::fs::read(&path).unwrap();
        std::fs::remove_dir(tmp_path(&path)).ok();
        std::fs::remove_file(&path).ok();
        let mut expect = UpdateWal::new();
        expect.append_base(&sample_update_base());
        assert_eq!(on_disk, expect.as_bytes(), "the old log was overwritten");
    }
}
