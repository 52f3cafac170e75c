//! Durable fitted-model artifacts: a versioned, CRC-framed, atomically
//! written snapshot of a clustering that outlives the process that fit
//! it.
//!
//! The paper's Fig.-2 design — cluster a sample offline, label the rest
//! of the (disk-resident) data against it (§4.6) — implies a model that
//! is fit once and then *served*: new points are assigned against the
//! per-cluster representative sets without refitting. [`ModelArtifact`]
//! is that servable object. It persists the fitted parameters (θ,
//! `f(θ)`, labeling fraction, hash seed), the flat clustering, the
//! exact Lᵢ representative sets drawn at fit time, the dendrogram cut
//! when the run has one, and a provenance copy of the
//! [`crate::report::RunReport`] — so labeling through a reloaded
//! artifact is **bit-identical** to labeling on the live model.
//!
//! ## Binary format
//!
//! An artifact is `b"ROCKART1"` followed by CRC-framed sections (the
//! same frame codec as the merge WAL — [`crate::util::frame`]):
//!
//! ```text
//! frame    := type:u8  len:u32le  payload[len]  crc32:u32le
//! v1       := Header Clusters Representatives Dendrogram Report End
//! v2       := Header Clusters Representatives Dendrogram Report Update End
//! ```
//!
//! Every record a section shares with another image is written by that
//! record's one encoder: the Dendrogram section's merges by
//! [`MergeRecord`]'s (in [`crate::cluster`], shared with the merge WAL),
//! the Update section's provenance and policy by [`UpdateProvenance`]'s
//! and [`StalenessPolicy`]'s (in [`crate::incremental`], shared with the
//! update WAL and the state digest), the Clusters section by the
//! clustering image the state digest also uses, and the Header's hash
//! seed and the Representatives pool by the optional-`u64` and blob-list
//! primitives of [`crate::util::frame`]. The loader decodes through the
//! same pairs and keeps its own checks: any damage is fatal here.
//!
//! Version 2 (this build's native format) adds the **Update** section —
//! the evolving-model state of the online update path
//! ([`crate::incremental`]): cumulative [`UpdateProvenance`], the
//! [`StalenessPolicy`] in force, and the pending/dirty-link
//! accumulators — and widens the per-phase
//! perf entries in the Report section with the update-path counters.
//! [`ModelArtifact::to_bytes`] writes version 1 whenever the artifact
//! carries no update state, so batch fits stay byte-identical to what
//! version-1 builds wrote, and [`ModelArtifact::from_bytes`] loads both
//! versions. [`ModelArtifact::from_bytes_capped`] models an older
//! reader: a version-2 image handed to a version-1 cap fails with
//! [`RockError::ArtifactVersion`], never `ArtifactCorrupt`.
//!
//! Unlike the WAL — whose torn tail is legitimately truncated, because
//! a crash mid-append is an expected state — an artifact is only ever
//! published whole (see [`ModelArtifact::save`]), so **any** damage is
//! fatal: a missing section, a frame that fails its CRC, a record that
//! does not decode, bytes after the End marker, or an internally
//! inconsistent section all surface as typed [`RockError`]s
//! ([`RockError::ArtifactCorrupt`] / [`RockError::ArtifactVersion`] /
//! [`RockError::ArtifactMismatch`]), never as a silently wrong
//! clustering. CRC-32 detects every burst error up to 32 bits, so every
//! single-byte flip and every truncation offset is caught.
//!
//! ## Atomicity
//!
//! [`ModelArtifact::save`] writes `<path>.tmp`, fsyncs it, and renames
//! it over `path` — a crash between write and rename leaves the
//! previous artifact intact and loadable. The merge and update WALs'
//! `write_to` go through the same routine. This module and
//! [`crate::wal`] are the only rock-core modules allowed to touch the
//! filesystem (rock-tidy's `file-io` rule enforces the boundary).

use crate::cluster::{decode_clustering, encode_clustering, Clustering, MergeRecord};
use crate::dendrogram::Dendrogram;
use crate::engine::model::ModelFit;
use crate::error::RockError;
use crate::governor::{DegradationNote, DegradationPolicy, Phase, TripReason};
use crate::incremental::{StalenessPolicy, UpdateProvenance};
use crate::labeling::Labeler;
use crate::perf::PerfCounters;
use crate::report::{PhasePerf, PhaseTiming, QuarantinedRecord, RunReport};
use crate::util::frame::{
    append_frame, put_blobs, put_f64, put_option_u64, put_str, put_u32, put_u32_slice, put_u64,
    read_frame, Cursor,
};
use std::io::Write as _;
use std::path::Path;

/// The 8-byte magic prefix of every model artifact.
pub const ARTIFACT_MAGIC: &[u8; 8] = b"ROCKART1";

/// The newest artifact format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 2;

const SEC_HEADER: u8 = 1;
const SEC_CLUSTERS: u8 = 2;
const SEC_REPS: u8 = 3;
const SEC_DENDRO: u8 = 4;
const SEC_REPORT: u8 = 5;
const SEC_END: u8 = 6;
const SEC_UPDATE: u8 = 7;

/// Section frames between Header and End shared by every version, in
/// required order (version 2 appends the Update section after these).
const SECTION_ORDER: [u8; 4] = [SEC_CLUSTERS, SEC_REPS, SEC_DENDRO, SEC_REPORT];

/// A point type that can travel through an artifact's representative
/// section.
///
/// Encoding must be self-delimiting under [`Cursor`] reads and decode
/// must be total: any byte damage yields `None` (surfaced as a typed
/// error by the loader), never a panic. `decode` must also re-establish
/// the type's own invariants — artifact bytes are untrusted input.
pub trait ArtifactPoint: Sized {
    /// Appends this point's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes one point, or `None` if the bytes do not parse.
    fn decode(cursor: &mut Cursor<'_>) -> Option<Self>;
}

impl ArtifactPoint for crate::points::Transaction {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32_slice(buf, self.items());
    }

    fn decode(cursor: &mut Cursor<'_>) -> Option<Self> {
        // `new` re-sorts and dedups: decoded bytes are untrusted, and
        // the sorted-items invariant must hold by construction, not by
        // trust.
        Some(crate::points::Transaction::new(cursor.u32_vec()?))
    }
}

impl ArtifactPoint for Vec<f64> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.len() as u32);
        for &v in self {
            put_f64(buf, v);
        }
    }

    fn decode(cursor: &mut Cursor<'_>) -> Option<Self> {
        let n = cursor.u32()? as usize;
        if n > cursor.remaining() / 8 {
            return None;
        }
        (0..n).map(|_| cursor.f64()).collect()
    }
}

/// One point's self-contained blob: the encoding pooled in the
/// Representatives section, logged in update-WAL records and imaged by
/// the update state digest.
pub(crate) fn point_blob<P: ArtifactPoint>(point: &P) -> Vec<u8> {
    let mut blob = Vec::new();
    point.encode(&mut blob);
    blob
}

/// Decodes [`point_blob`]s back into points.
///
/// # Errors
/// The index of the first blob that does not decode exactly as a `P`;
/// each caller reports it under its own error type.
pub(crate) fn decode_points<P: ArtifactPoint>(blobs: &[Vec<u8>]) -> Result<Vec<P>, usize> {
    let mut points = Vec::with_capacity(blobs.len());
    for (i, blob) in blobs.iter().enumerate() {
        let mut cursor = Cursor::new(blob);
        points.push(P::decode(&mut cursor).filter(|_| cursor.done()).ok_or(i)?);
    }
    Ok(points)
}

/// The per-cluster representative sets, stored as an encoded point pool
/// plus index lists into it.
#[derive(Clone, Debug, PartialEq)]
struct Representatives {
    /// Encoded points (each entry one [`ArtifactPoint::encode`] blob).
    pool: Vec<Vec<u8>>,
    /// `sets[i]` = pool indices of cluster `i`'s representatives.
    sets: Vec<Vec<u32>>,
}

/// A fitted clustering model, serialized and served from bytes.
///
/// Build one from a live fit ([`ModelArtifact::from_labeled`] for ROCK
/// runs with representative sets, [`ModelArtifact::from_fit`] for any
/// [`ModelFit`]), persist with [`ModelArtifact::save`], reload with
/// [`ModelArtifact::load`] / [`ModelArtifact::from_bytes`], and serve
/// queries through [`crate::serve::AssignService`].
#[derive(Clone, Debug, PartialEq)]
pub struct ModelArtifact {
    model: String,
    theta: f64,
    ftheta: f64,
    labeling_fraction: f64,
    hash_seed: Option<u64>,
    clustering: Clustering,
    representatives: Option<Representatives>,
    dendrogram: Option<ArtifactDendrogram>,
    report: RunReport,
    update: Option<UpdateExtension>,
}

/// The evolving-model state a version-2 artifact carries: everything
/// the online update path ([`crate::incremental::IncrementalRockState`])
/// needs to continue absorbing points exactly where the saved model
/// left off.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateExtension {
    /// Cumulative update provenance since the batch fit.
    pub provenance: UpdateProvenance,
    /// The staleness/re-merge policy the model evolves under.
    pub policy: StalenessPolicy,
    /// Points absorbed since the last re-merge.
    pub pending: u64,
    /// Per-cluster dirty-link accumulators, parallel to the clustering.
    pub dirty: Vec<u64>,
    /// The next point id the update path will mint.
    pub next_point: u32,
}

/// The persisted dendrogram parts (kept pre-validated: construction
/// goes through [`Dendrogram::from_parts`]).
#[derive(Clone, Debug, PartialEq)]
struct ArtifactDendrogram {
    initial_points: Vec<u32>,
    merges: Vec<MergeRecord>,
    outliers: Vec<u32>,
}

impl ModelArtifact {
    /// An artifact of `fit` under model name `model`: clustering,
    /// dendrogram and report, but no representative section (labeling
    /// parameters default to the inert θ = 0, `f(θ)` = 0, fraction = 1).
    ///
    /// This is what the generic
    /// [`crate::engine::model::ClusterModel::save`] persists for
    /// baseline models; use [`ModelArtifact::from_labeled`] when the
    /// fit has representative sets to serve from.
    pub fn from_fit(model: &str, fit: &ModelFit) -> ModelArtifact {
        ModelArtifact {
            model: model.to_string(),
            theta: 0.0,
            ftheta: 0.0,
            labeling_fraction: 1.0,
            hash_seed: None,
            clustering: fit.clustering.clone(),
            representatives: None,
            dendrogram: fit.dendrogram.as_ref().map(|d| ArtifactDendrogram {
                initial_points: d.initial_points().to_vec(),
                merges: d.merges().to_vec(),
                outliers: d.outliers().to_vec(),
            }),
            report: fit.report.clone(),
            update: None,
        }
    }

    /// An artifact of a labeled fit: [`ModelArtifact::from_fit`] plus
    /// the exact Lᵢ representative sets of `labeler` (θ and `f(θ)` are
    /// taken from it), the labeling `fraction` the sets were drawn at,
    /// and the merge engine's `hash_seed`.
    ///
    /// # Errors
    /// [`RockError::ArtifactMismatch`] if the labeler's cluster count
    /// differs from the fit's — the sets would not index the clustering
    /// they claim to represent.
    pub fn from_labeled<P: ArtifactPoint + Clone>(
        model: &str,
        fit: &ModelFit,
        labeler: &Labeler<P>,
        fraction: f64,
        hash_seed: Option<u64>,
    ) -> Result<ModelArtifact, RockError> {
        if labeler.num_clusters() != fit.clustering.num_clusters() {
            return Err(RockError::ArtifactMismatch {
                detail: format!(
                    "cluster count mismatch: {} labeling sets for {} clusters",
                    labeler.num_clusters(),
                    fit.clustering.num_clusters()
                ),
            });
        }
        let mut pool = Vec::new();
        let mut sets = Vec::with_capacity(labeler.num_clusters());
        for set in labeler.sets() {
            let mut indices = Vec::with_capacity(set.len());
            for point in set {
                indices.push(pool.len() as u32);
                pool.push(point_blob(point));
            }
            sets.push(indices);
        }
        let mut artifact = ModelArtifact::from_fit(model, fit);
        artifact.theta = labeler.theta();
        artifact.ftheta = labeler.ftheta();
        artifact.labeling_fraction = fraction;
        artifact.hash_seed = hash_seed;
        artifact.representatives = Some(Representatives { pool, sets });
        Ok(artifact)
    }

    /// The model name this artifact was saved under (`"rock"`, …).
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The similarity threshold θ the model was fit at.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The resolved `f(θ)` used by labeling normalisation.
    pub fn ftheta(&self) -> f64 {
        self.ftheta
    }

    /// The fraction of each cluster drawn as its labeling set.
    pub fn labeling_fraction(&self) -> f64 {
        self.labeling_fraction
    }

    /// The merge engine's hash seed, if one was configured.
    pub fn hash_seed(&self) -> Option<u64> {
        self.hash_seed
    }

    /// The persisted flat clustering.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// The persisted run report (fit provenance).
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Whether the artifact carries representative sets to serve from.
    pub fn has_representatives(&self) -> bool {
        self.representatives.is_some()
    }

    /// The evolving-model update state, if this artifact was saved by
    /// the online update path (version-2 artifacts only).
    pub fn update_state(&self) -> Option<&UpdateExtension> {
        self.update.as_ref()
    }

    pub(crate) fn set_update_state(&mut self, ext: Option<UpdateExtension>) {
        self.update = ext;
    }

    /// Rebuilds the persisted dendrogram, if the fit had one.
    pub fn dendrogram(&self) -> Option<Dendrogram> {
        self.dendrogram.as_ref().and_then(|d| {
            Dendrogram::from_parts(
                d.initial_points.clone(),
                d.merges.clone(),
                d.outliers.clone(),
            )
        })
    }

    /// Rebuilds the [`Labeler`] from the representative section —
    /// labeling through it is bit-identical to the run that saved the
    /// artifact.
    ///
    /// # Errors
    /// [`RockError::ArtifactMismatch`] when the artifact has no
    /// representative section or a pooled point does not decode as `P`.
    pub fn labeler<P: ArtifactPoint + Clone>(&self) -> Result<Labeler<P>, RockError> {
        let Some(reps) = &self.representatives else {
            return Err(RockError::ArtifactMismatch {
                detail: "artifact has no representative section to label with".into(),
            });
        };
        let decoded: Vec<P> =
            decode_points(&reps.pool).map_err(|i| RockError::ArtifactMismatch {
                detail: format!("representative {i} does not decode as the point type"),
            })?;
        let sets = reps
            .sets
            .iter()
            .map(|indices| {
                indices
                    .iter()
                    .map(|&i| {
                        decoded.get(i as usize).cloned().ok_or_else(|| {
                            RockError::ArtifactMismatch {
                                detail: format!(
                                    "representative index {i} out of range ({} pooled)",
                                    decoded.len()
                                ),
                            }
                        })
                    })
                    .collect::<Result<Vec<P>, RockError>>()
            })
            .collect::<Result<Vec<Vec<P>>, RockError>>()?;
        Labeler::from_sets(sets, self.theta, self.ftheta)
    }

    /// Reassembles the [`ModelFit`] this artifact persists.
    pub fn to_fit(&self) -> ModelFit {
        ModelFit {
            clustering: self.clustering.clone(),
            dendrogram: self.dendrogram(),
            report: self.report.clone(),
        }
    }

    /// Serializes the artifact (magic + framed sections) at the lowest
    /// format version that can represent it: version 1 when there is no
    /// update state (byte-identical to what version-1 builds wrote),
    /// version 2 otherwise.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode(if self.update.is_some() { 2 } else { 1 })
    }

    /// Serializes the artifact at an explicit format `version` — the
    /// compatibility seam for writing images an older reader accepts.
    ///
    /// # Errors
    /// [`RockError::ArtifactVersion`] when `version` is not one this
    /// build writes, and [`RockError::ArtifactMismatch`] when the
    /// artifact carries update state that `version` cannot represent.
    pub fn to_bytes_versioned(&self, version: u32) -> Result<Vec<u8>, RockError> {
        if !(1..=FORMAT_VERSION).contains(&version) {
            return Err(RockError::ArtifactVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        if version < 2 && self.update.is_some() {
            return Err(RockError::ArtifactMismatch {
                detail: "update state cannot be represented in a version-1 artifact".into(),
            });
        }
        Ok(self.encode(version))
    }

    fn encode(&self, version: u32) -> Vec<u8> {
        let mut buf = ARTIFACT_MAGIC.to_vec();

        let mut p = Vec::new();
        put_u32(&mut p, version);
        put_str(&mut p, &self.model);
        put_f64(&mut p, self.theta);
        put_f64(&mut p, self.ftheta);
        put_f64(&mut p, self.labeling_fraction);
        put_option_u64(&mut p, self.hash_seed);
        append_frame(&mut buf, SEC_HEADER, &p);

        let mut p = Vec::new();
        encode_clustering(&mut p, &self.clustering.clusters, &self.clustering.outliers);
        append_frame(&mut buf, SEC_CLUSTERS, &p);

        let mut p = Vec::new();
        match &self.representatives {
            None => p.push(0),
            Some(reps) => {
                p.push(1);
                put_blobs(&mut p, reps.pool.iter());
                put_u32(&mut p, reps.sets.len() as u32);
                for indices in &reps.sets {
                    put_u32_slice(&mut p, indices);
                }
            }
        }
        append_frame(&mut buf, SEC_REPS, &p);

        let mut p = Vec::new();
        match &self.dendrogram {
            None => p.push(0),
            Some(d) => {
                p.push(1);
                put_u32_slice(&mut p, &d.initial_points);
                put_u64(&mut p, d.merges.len() as u64);
                for m in &d.merges {
                    m.encode(&mut p);
                }
                put_u32_slice(&mut p, &d.outliers);
            }
        }
        append_frame(&mut buf, SEC_DENDRO, &p);

        let mut p = Vec::new();
        encode_report(&mut p, &self.report, version);
        append_frame(&mut buf, SEC_REPORT, &p);

        let mut sections = 1 + SECTION_ORDER.len() as u32;
        if version >= 2 {
            let mut p = Vec::new();
            match &self.update {
                None => p.push(0),
                Some(ext) => {
                    p.push(1);
                    encode_update_ext(&mut p, ext);
                }
            }
            append_frame(&mut buf, SEC_UPDATE, &p);
            sections += 1;
        }

        let mut p = Vec::new();
        put_u32(&mut p, sections);
        append_frame(&mut buf, SEC_END, &p);
        buf
    }

    /// Parses and validates an artifact image.
    ///
    /// # Errors
    /// [`RockError::ArtifactCorrupt`] for structural damage (bad magic,
    /// torn/CRC-failing/undecodable frames, missing or out-of-order
    /// sections, trailing bytes), [`RockError::ArtifactVersion`] for a
    /// format version this build does not read, and
    /// [`RockError::ArtifactMismatch`] for sections that decode but
    /// contradict each other.
    pub fn from_bytes(bytes: &[u8]) -> Result<ModelArtifact, RockError> {
        ModelArtifact::from_bytes_capped(bytes, FORMAT_VERSION)
    }

    /// [`ModelArtifact::from_bytes`] as a reader supporting only format
    /// versions up to `max_version` would behave — the compatibility
    /// seam the backward/forward tests pin: a newer image fails with
    /// [`RockError::ArtifactVersion`] (the version is decoded before
    /// anything else), never `ArtifactCorrupt`.
    ///
    /// # Errors
    /// As [`ModelArtifact::from_bytes`], with
    /// [`RockError::ArtifactVersion`] for any version outside
    /// `1..=max_version`.
    pub fn from_bytes_capped(bytes: &[u8], max_version: u32) -> Result<ModelArtifact, RockError> {
        // tidy-allow(panic-reach): the length check short-circuits before the magic slice
        if bytes.len() < ARTIFACT_MAGIC.len() || &bytes[..ARTIFACT_MAGIC.len()] != ARTIFACT_MAGIC {
            return Err(RockError::ArtifactCorrupt {
                offset: 0,
                detail: "missing ROCKART1 magic".into(),
            });
        }
        let mut at = ARTIFACT_MAGIC.len();
        let next_frame = |expect: u8, at: &mut usize| -> Result<Vec<u8>, RockError> {
            let Some((kind, payload, end)) = read_frame(bytes, *at) else {
                return Err(RockError::ArtifactCorrupt {
                    offset: *at as u64,
                    detail: "truncated or damaged frame".into(),
                });
            };
            if kind != expect {
                return Err(RockError::ArtifactCorrupt {
                    offset: *at as u64,
                    detail: format!("expected section {expect}, found {kind}"),
                });
            }
            let payload = payload.to_vec();
            *at = end;
            Ok(payload)
        };

        let header = next_frame(SEC_HEADER, &mut at)?;
        let header_offset = ARTIFACT_MAGIC.len() as u64;
        let mut c = Cursor::new(&header);
        let version = c.u32().ok_or_else(|| RockError::ArtifactCorrupt {
            offset: header_offset,
            detail: "header record does not decode".into(),
        })?;
        if !(1..=max_version).contains(&version) {
            return Err(RockError::ArtifactVersion {
                found: version,
                supported: max_version,
            });
        }
        let header_fields = (|| {
            let model = c.str()?;
            let theta = c.f64()?;
            let ftheta = c.f64()?;
            let fraction = c.f64()?;
            let hash_seed = c.option_u64()?;
            c.done().then_some((model, theta, ftheta, fraction, hash_seed))
        })();
        let Some((model, theta, ftheta, labeling_fraction, hash_seed)) = header_fields else {
            return Err(RockError::ArtifactCorrupt {
                offset: header_offset,
                detail: "header record does not decode".into(),
            });
        };

        let mut payloads = Vec::with_capacity(SECTION_ORDER.len());
        for kind in SECTION_ORDER {
            let offset = at as u64;
            payloads.push((next_frame(kind, &mut at)?, offset));
        }
        let mut sections = 1 + SECTION_ORDER.len() as u32;
        let update = if version >= 2 {
            sections += 1;
            let offset = at as u64;
            let payload = next_frame(SEC_UPDATE, &mut at)?;
            parse_update_ext(&payload).ok_or_else(|| RockError::ArtifactCorrupt {
                offset,
                detail: "update record does not decode".into(),
            })?
        } else {
            None
        };
        let end = next_frame(SEC_END, &mut at)?;
        let mut c = Cursor::new(&end);
        if c.u32() != Some(sections) || !c.done() {
            return Err(RockError::ArtifactCorrupt {
                offset: at as u64,
                detail: "end marker section count mismatch".into(),
            });
        }
        if at != bytes.len() {
            return Err(RockError::ArtifactCorrupt {
                offset: at as u64,
                detail: format!("{} trailing bytes after end marker", bytes.len() - at),
            });
        }

        let corrupt = |&(_, offset): &(Vec<u8>, u64), what: &str| RockError::ArtifactCorrupt {
            offset,
            detail: format!("{what} record does not decode"),
        };
        // tidy-allow(panic-reach): payloads has exactly SECTION_ORDER.len() == 4 entries — the loop above pushed one per section or returned early
        let clustering = parse_clusters(&payloads[0].0)
            .ok_or_else(|| corrupt(&payloads[0], "clusters"))?;
        // tidy-allow(panic-reach): payloads has exactly SECTION_ORDER.len() == 4 entries — the loop above pushed one per section or returned early
        let representatives = parse_representatives(&payloads[1].0)
            .ok_or_else(|| corrupt(&payloads[1], "representatives"))?;
        // tidy-allow(panic-reach): payloads has exactly SECTION_ORDER.len() == 4 entries — the loop above pushed one per section or returned early
        let dendro_parts = parse_dendrogram(&payloads[2].0)
            .ok_or_else(|| corrupt(&payloads[2], "dendrogram"))?;
        // tidy-allow(panic-reach): payloads has exactly SECTION_ORDER.len() == 4 entries — the loop above pushed one per section or returned early
        let report = parse_report(&payloads[3].0, version)
            .ok_or_else(|| corrupt(&payloads[3], "report"))?;

        let artifact = ModelArtifact {
            model,
            theta,
            ftheta,
            labeling_fraction,
            hash_seed,
            clustering,
            representatives,
            dendrogram: dendro_parts,
            report,
            update,
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// Cross-section consistency checks on a decoded artifact.
    fn validate(&self) -> Result<(), RockError> {
        let mismatch = |detail: String| Err(RockError::ArtifactMismatch { detail });
        if !(0.0..=1.0).contains(&self.theta) {
            return mismatch(format!("theta {} outside [0, 1]", self.theta));
        }
        if !(self.ftheta.is_finite() && self.ftheta >= 0.0) {
            return mismatch(format!("f(theta) {} not finite and non-negative", self.ftheta));
        }
        if !(self.labeling_fraction > 0.0 && self.labeling_fraction <= 1.0) {
            return mismatch(format!(
                "labeling fraction {} outside (0, 1]",
                self.labeling_fraction
            ));
        }
        if let Some(reps) = &self.representatives {
            if reps.sets.len() != self.clustering.clusters.len() {
                return mismatch(format!(
                    "cluster count mismatch: {} representative sets for {} clusters",
                    reps.sets.len(),
                    self.clustering.clusters.len()
                ));
            }
            for indices in &reps.sets {
                for &i in indices {
                    if i as usize >= reps.pool.len() {
                        return mismatch(format!(
                            "representative index {i} out of range ({} pooled)",
                            reps.pool.len()
                        ));
                    }
                }
            }
        }
        if let Some(d) = &self.dendrogram {
            if Dendrogram::from_parts(
                d.initial_points.clone(),
                d.merges.clone(),
                d.outliers.clone(),
            )
            .is_none()
            {
                return mismatch("dendrogram merge trace does not replay".into());
            }
        }
        if let Some(ext) = &self.update {
            if let Err(detail) = ext.policy.check() {
                return mismatch(detail);
            }
            if ext.dirty.len() != self.clustering.clusters.len() {
                return mismatch(format!(
                    "dirty-link count mismatch: {} accumulators for {} clusters",
                    ext.dirty.len(),
                    self.clustering.clusters.len()
                ));
            }
        }
        Ok(())
    }

    /// Atomically writes the artifact to `path`: the bytes go to
    /// `<path>.tmp`, are fsync'd, and the tmp file is renamed over
    /// `path` (with a best-effort fsync of the parent directory). A
    /// crash at any point leaves either the old artifact or the new one
    /// — never a torn mix.
    ///
    /// # Errors
    /// [`RockError::ArtifactIo`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), RockError> {
        write_atomic(path, &self.to_bytes()).map_err(|(op, e)| RockError::ArtifactIo {
            detail: format!("{op} {}: {e}", path.display()),
        })
    }

    /// Loads and validates an artifact from `path`.
    ///
    /// # Errors
    /// [`RockError::ArtifactIo`] if the file cannot be read, otherwise
    /// as [`ModelArtifact::from_bytes`].
    pub fn load(path: &Path) -> Result<ModelArtifact, RockError> {
        let bytes = std::fs::read(path).map_err(|e| RockError::ArtifactIo {
            detail: format!("read {}: {e}", path.display()),
        })?;
        ModelArtifact::from_bytes(&bytes)
    }
}

/// Atomically replaces `path` with `bytes`: they go to `<path>.tmp`,
/// are fsync'd, and the tmp file is renamed over `path` (with a
/// best-effort fsync of the parent directory). A crash at any point
/// leaves either the old file or the new one, never a torn mix. The one
/// durable write behind [`ModelArtifact::save`] and the WALs'
/// `write_to`.
///
/// # Errors
/// The step that failed (`"create"`, `"write"`, `"sync"` or `"rename"`)
/// and its I/O error; `path` itself is untouched.
pub(crate) fn write_atomic(
    path: &Path,
    bytes: &[u8],
) -> Result<(), (&'static str, std::io::Error)> {
    let tmp = tmp_path(path);
    let mut f = std::fs::File::create(&tmp).map_err(|e| ("create", e))?;
    f.write_all(bytes).map_err(|e| ("write", e))?;
    f.sync_all().map_err(|e| ("sync", e))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| ("rename", e))?;
    // Publishing the rename durably needs the directory entry flushed
    // too; failure here does not un-publish the file.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// The sibling temp path [`write_atomic`] stages into before renaming.
pub(crate) fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// A pluggable byte source for artifact images — the seam the serve
/// layer's bounded retry wraps (see
/// [`crate::serve::load_artifact_with_retry`]) and rock-data's fault
/// injectors implement.
pub trait ArtifactSource {
    /// Reads one complete artifact image.
    ///
    /// # Errors
    /// Any I/O failure; transient kinds (`WouldBlock`, `TimedOut`,
    /// `Interrupted`) are retried by the serve layer.
    fn fetch(&mut self) -> std::io::Result<Vec<u8>>;
}

/// The plain filesystem [`ArtifactSource`]: reads the artifact file on
/// every fetch.
#[derive(Clone, Debug)]
pub struct FileSource {
    path: std::path::PathBuf,
}

impl FileSource {
    /// A source reading `path`.
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        FileSource { path: path.into() }
    }
}

impl ArtifactSource for FileSource {
    fn fetch(&mut self) -> std::io::Result<Vec<u8>> {
        std::fs::read(&self.path)
    }
}

fn parse_clusters(payload: &[u8]) -> Option<Clustering> {
    let mut c = Cursor::new(payload);
    let clustering = decode_clustering(&mut c).filter(|_| c.done())?;
    // Round-trip through the normalising constructor and require a
    // fixpoint: an artifact must store the canonical order, otherwise
    // cluster indices would silently shift on load.
    let normalized = Clustering::new(clustering.clusters.clone(), clustering.outliers.clone());
    (normalized == clustering).then_some(clustering)
}

fn parse_representatives(payload: &[u8]) -> Option<Option<Representatives>> {
    let mut c = Cursor::new(payload);
    match c.u8()? {
        0 => c.done().then_some(None),
        1 => {
            let pool = c.blobs()?;
            let num_sets = c.u32()? as usize;
            let sets = c.list(num_sets, 4, Cursor::u32_vec)?;
            c.done().then_some(Some(Representatives { pool, sets }))
        }
        _ => None,
    }
}

fn parse_dendrogram(payload: &[u8]) -> Option<Option<ArtifactDendrogram>> {
    let mut c = Cursor::new(payload);
    match c.u8()? {
        0 => c.done().then_some(None),
        1 => {
            let initial_points = c.u32_vec()?;
            let n = c.u64()? as usize;
            let merges = c.list(n, MergeRecord::ENCODED_LEN, MergeRecord::decode)?;
            let outliers = c.u32_vec()?;
            c.done().then_some(Some(ArtifactDendrogram {
                initial_points,
                merges,
                outliers,
            }))
        }
        _ => None,
    }
}

fn phase_code(p: Phase) -> u8 {
    match p {
        Phase::Sample => 0,
        Phase::Neighbors => 1,
        Phase::Links => 2,
        Phase::Merge => 3,
        Phase::Labeling => 4,
    }
}

fn phase_from(code: u8) -> Option<Phase> {
    Some(match code {
        0 => Phase::Sample,
        1 => Phase::Neighbors,
        2 => Phase::Links,
        3 => Phase::Merge,
        4 => Phase::Labeling,
        _ => return None,
    })
}

fn reason_code(r: TripReason) -> u8 {
    match r {
        TripReason::Cancelled => 0,
        TripReason::DeadlineExceeded => 1,
        TripReason::MemoryBudgetExceeded => 2,
    }
}

fn reason_from(code: u8) -> Option<TripReason> {
    Some(match code {
        0 => TripReason::Cancelled,
        1 => TripReason::DeadlineExceeded,
        2 => TripReason::MemoryBudgetExceeded,
        _ => return None,
    })
}

fn encode_policy(buf: &mut Vec<u8>, p: &DegradationPolicy) {
    match p {
        DegradationPolicy::Fail => buf.push(0),
        DegradationPolicy::SparseLinks => buf.push(1),
        DegradationPolicy::Subsample { fraction } => {
            buf.push(2);
            put_f64(buf, *fraction);
        }
        DegradationPolicy::Components { min_cluster_size } => {
            buf.push(3);
            put_u64(buf, *min_cluster_size as u64);
        }
    }
}

fn decode_policy(c: &mut Cursor<'_>) -> Option<DegradationPolicy> {
    Some(match c.u8()? {
        0 => DegradationPolicy::Fail,
        1 => DegradationPolicy::SparseLinks,
        2 => DegradationPolicy::Subsample { fraction: c.f64()? },
        3 => DegradationPolicy::Components {
            min_cluster_size: c.u64()? as usize,
        },
        _ => return None,
    })
}

fn encode_update_ext(buf: &mut Vec<u8>, ext: &UpdateExtension) {
    ext.provenance.encode(buf);
    ext.policy.encode(buf);
    put_u64(buf, ext.pending);
    put_u32(buf, ext.next_point);
    put_u32(buf, ext.dirty.len() as u32);
    for &d in &ext.dirty {
        put_u64(buf, d);
    }
}

/// Decodes the Update section payload: presence byte, then the
/// extension. Outer `None` = does not decode; inner `None` = no update
/// state recorded.
fn parse_update_ext(payload: &[u8]) -> Option<Option<UpdateExtension>> {
    let mut c = Cursor::new(payload);
    match c.u8()? {
        0 => c.done().then_some(None),
        1 => {
            let provenance = UpdateProvenance::decode(&mut c)?;
            let policy = StalenessPolicy::decode(&mut c)?;
            let pending = c.u64()?;
            let next_point = c.u32()?;
            let n = c.u32()? as usize;
            let dirty = c.list(n, 8, Cursor::u64)?;
            c.done().then_some(Some(UpdateExtension {
                provenance,
                policy,
                pending,
                dirty,
                next_point,
            }))
        }
        _ => None,
    }
}

fn encode_report(buf: &mut Vec<u8>, r: &RunReport, version: u32) {
    put_u64(buf, r.records_read);
    put_u64(buf, r.records_skipped);
    put_u64(buf, r.records_quarantined);
    put_u32(buf, r.quarantined.len() as u32);
    for q in &r.quarantined {
        put_u64(buf, q.line);
        put_str(buf, &q.reason);
    }
    put_u64(buf, r.transient_io_errors);
    put_u64(buf, r.io_retries);
    put_u64(buf, r.outliers);
    put_u64(buf, r.checkpoints_written);
    put_option_u64(buf, r.resumed_from_offset);
    put_u32(buf, r.phases.len() as u32);
    for p in &r.phases {
        put_str(buf, &p.name);
        put_u64(buf, p.duration.as_secs());
        put_u32(buf, p.duration.subsec_nanos());
    }
    put_u32(buf, r.phase_perf.len() as u32);
    for p in &r.phase_perf {
        put_str(buf, &p.name);
        put_u64(buf, p.counters.pairs_emitted);
        put_u64(buf, p.counters.bytes_touched);
        put_u64(buf, p.counters.sim_evals);
        put_u64(buf, p.counters.scratch_reused);
        put_u64(buf, p.counters.allocs);
        put_u64(buf, p.counters.alloc_bytes);
        // Version 1 predates the update-path counters; they are always
        // zero on the batch fits a v1 image can represent.
        if version >= 2 {
            put_u64(buf, p.counters.relabels);
            put_u64(buf, p.counters.dirty_links);
            put_u64(buf, p.counters.remerges);
        }
    }
    match &r.degraded {
        None => buf.push(0),
        Some(note) => {
            buf.push(1);
            encode_policy(buf, &note.policy);
            buf.push(phase_code(note.phase));
            buf.push(reason_code(note.reason));
            put_str(buf, &note.detail);
        }
    }
    match &r.interrupted {
        None => buf.push(0),
        Some((phase, reason)) => {
            buf.push(1);
            buf.push(phase_code(*phase));
            buf.push(reason_code(*reason));
        }
    }
}

fn parse_report(payload: &[u8], version: u32) -> Option<RunReport> {
    let mut c = Cursor::new(payload);
    let mut r = RunReport::new();
    r.records_read = c.u64()?;
    r.records_skipped = c.u64()?;
    r.records_quarantined = c.u64()?;
    let nq = c.u32()? as usize;
    if nq > payload.len() / 12 {
        return None; // each quarantine entry costs at least 12 bytes
    }
    for _ in 0..nq {
        r.quarantined.push(QuarantinedRecord {
            line: c.u64()?,
            reason: c.str()?,
        });
    }
    r.transient_io_errors = c.u64()?;
    r.io_retries = c.u64()?;
    r.outliers = c.u64()?;
    r.checkpoints_written = c.u64()?;
    r.resumed_from_offset = c.option_u64()?;
    let np = c.u32()? as usize;
    if np > payload.len() / 16 {
        return None; // each phase timing costs at least 16 bytes
    }
    for _ in 0..np {
        let name = c.str()?;
        let secs = c.u64()?;
        let nanos = c.u32()?;
        if nanos >= 1_000_000_000 {
            return None; // would carry into secs and could overflow
        }
        r.phases.push(PhaseTiming {
            name,
            duration: std::time::Duration::new(secs, nanos),
        });
    }
    let npp = c.u32()? as usize;
    let per_entry = if version >= 2 { 76 } else { 52 };
    if npp > payload.len() / per_entry {
        return None; // entry = 4-byte name length + 6 (v1) or 9 (v2) u64s
    }
    for _ in 0..npp {
        let name = c.str()?;
        let mut counters = PerfCounters {
            pairs_emitted: c.u64()?,
            bytes_touched: c.u64()?,
            sim_evals: c.u64()?,
            scratch_reused: c.u64()?,
            allocs: c.u64()?,
            alloc_bytes: c.u64()?,
            ..PerfCounters::default()
        };
        if version >= 2 {
            counters.relabels = c.u64()?;
            counters.dirty_links = c.u64()?;
            counters.remerges = c.u64()?;
        }
        r.phase_perf.push(PhasePerf { name, counters });
    }
    r.degraded = match c.u8()? {
        0 => None,
        1 => Some(DegradationNote {
            policy: decode_policy(&mut c)?,
            phase: phase_from(c.u8()?)?,
            reason: reason_from(c.u8()?)?,
            detail: c.str()?,
        }),
        _ => return None,
    };
    r.interrupted = match c.u8()? {
        0 => None,
        1 => Some((phase_from(c.u8()?)?, reason_from(c.u8()?)?)),
        _ => return None,
    };
    c.done().then_some(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::Transaction;
    use std::time::Duration;

    fn sample_report() -> RunReport {
        let mut r = RunReport::new();
        r.records_read = 100;
        r.records_skipped = 2;
        r.quarantine(17, "bad token", 8);
        r.transient_io_errors = 1;
        r.io_retries = 1;
        r.outliers = 3;
        r.resumed_from_offset = Some(512);
        r.record_phase("sample", Duration::from_micros(1500));
        r.record_phase("cluster", Duration::new(2, 345));
        r.record_phase_perf(
            "cluster",
            PerfCounters {
                pairs_emitted: 4242,
                bytes_touched: 1 << 20,
                sim_evals: 99,
                scratch_reused: 7,
                ..PerfCounters::default()
            },
        );
        r.degraded = Some(DegradationNote {
            policy: DegradationPolicy::Subsample { fraction: 0.5 },
            phase: Phase::Merge,
            reason: TripReason::MemoryBudgetExceeded,
            detail: "restarted on a smaller sample".into(),
        });
        r.interrupted = Some((Phase::Labeling, TripReason::Cancelled));
        r
    }

    fn sample_fit() -> ModelFit {
        ModelFit {
            clustering: Clustering::new(vec![vec![0, 1, 2], vec![3, 4]], vec![5]),
            dendrogram: None,
            report: sample_report(),
        }
    }

    fn sample_labeler() -> Labeler<Transaction> {
        Labeler::from_sets(
            vec![
                vec![Transaction::from([1, 2, 3]), Transaction::from([1, 2, 4])],
                vec![Transaction::from([10, 11])],
            ],
            0.4,
            1.0 / 3.0,
        )
        .unwrap()
    }

    fn sample_artifact() -> ModelArtifact {
        ModelArtifact::from_labeled("rock", &sample_fit(), &sample_labeler(), 0.25, Some(7))
            .unwrap()
    }

    #[test]
    fn bytes_round_trip_exactly() {
        let artifact = sample_artifact();
        let reloaded = ModelArtifact::from_bytes(&artifact.to_bytes()).unwrap();
        assert_eq!(reloaded, artifact);
        assert_eq!(reloaded.model(), "rock");
        assert_eq!(reloaded.hash_seed(), Some(7));
        assert_eq!(reloaded.report(), &sample_report());
        let labeler: Labeler<Transaction> = reloaded.labeler().unwrap();
        assert_eq!(labeler.sets(), sample_labeler().sets());
        assert_eq!(labeler.theta(), 0.4);
    }

    #[test]
    fn fit_artifact_without_representatives_round_trips() {
        let artifact = ModelArtifact::from_fit("kmeans", &sample_fit());
        let reloaded = ModelArtifact::from_bytes(&artifact.to_bytes()).unwrap();
        assert_eq!(reloaded, artifact);
        assert!(!reloaded.has_representatives());
        assert!(matches!(
            reloaded.labeler::<Transaction>(),
            Err(RockError::ArtifactMismatch { .. })
        ));
        let fit = reloaded.to_fit();
        assert_eq!(fit.clustering, sample_fit().clustering);
    }

    #[test]
    fn vec_f64_points_round_trip() {
        let labeler: Labeler<Vec<f64>> = Labeler::from_sets(
            vec![vec![vec![1.0, -0.0], vec![f64::MIN_POSITIVE, 2.5]], vec![]],
            0.7,
            0.25,
        )
        .unwrap();
        let artifact =
            ModelArtifact::from_labeled("centroid", &sample_fit(), &labeler, 1.0, None).unwrap();
        let reloaded = ModelArtifact::from_bytes(&artifact.to_bytes()).unwrap();
        let back: Labeler<Vec<f64>> = reloaded.labeler().unwrap();
        assert_eq!(back.sets(), labeler.sets());
        // -0.0 survives as exact bits.
        assert!(back.sets()[0][0][1].is_sign_negative());
    }

    #[test]
    fn cluster_count_mismatch_is_typed_at_build() {
        let labeler: Labeler<Transaction> =
            Labeler::from_sets(vec![vec![Transaction::from([1])]], 0.4, 0.3).unwrap();
        assert!(matches!(
            ModelArtifact::from_labeled("rock", &sample_fit(), &labeler, 0.25, None),
            Err(RockError::ArtifactMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        assert!(matches!(
            ModelArtifact::from_bytes(b"NOTANART"),
            Err(RockError::ArtifactCorrupt { offset: 0, .. })
        ));
        // Flip the version field to 9 and re-frame the header.
        let artifact = sample_artifact();
        let bytes = artifact.to_bytes();
        let (_, header, _) = read_frame(&bytes, ARTIFACT_MAGIC.len()).unwrap();
        let mut forged = header.to_vec();
        forged[0] = 9;
        let mut out = ARTIFACT_MAGIC.to_vec();
        append_frame(&mut out, SEC_HEADER, &forged);
        assert!(matches!(
            ModelArtifact::from_bytes(&out),
            Err(RockError::ArtifactVersion {
                found: 9,
                supported: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn representative_index_out_of_range_is_typed() {
        let mut artifact = sample_artifact();
        let reps = artifact.representatives.as_mut().unwrap();
        reps.sets[0][0] = reps.pool.len() as u32;
        assert!(matches!(
            ModelArtifact::from_bytes(&artifact.to_bytes()),
            Err(RockError::ArtifactMismatch { detail })
                if detail.contains("representative index")
        ));
    }

    #[test]
    fn cluster_count_mismatch_is_typed_at_load() {
        let mut artifact = sample_artifact();
        artifact.representatives.as_mut().unwrap().sets.pop();
        assert!(matches!(
            ModelArtifact::from_bytes(&artifact.to_bytes()),
            Err(RockError::ArtifactMismatch { detail })
                if detail.contains("cluster count mismatch")
        ));
    }

    #[test]
    fn non_canonical_clustering_is_rejected() {
        // Hand-craft a clusters section whose members are unsorted; the
        // loader must reject it rather than shift cluster semantics.
        let mut artifact = sample_artifact();
        artifact.representatives = None;
        artifact.clustering.clusters[0] = vec![2, 1, 0];
        assert!(matches!(
            ModelArtifact::from_bytes(&artifact.to_bytes()),
            Err(RockError::ArtifactCorrupt { .. })
        ));
    }

    fn sample_update_ext() -> UpdateExtension {
        UpdateExtension {
            provenance: UpdateProvenance {
                updates_applied: 3,
                points_absorbed: 40,
                points_rejected: 2,
                relabels: 42,
                dirty_links: 120,
                remerges: 1,
                remerge_merges: 2,
            },
            policy: StalenessPolicy::default(),
            pending: 5,
            dirty: vec![7, 0], // sample_fit has two clusters
            next_point: 46,
        }
    }

    fn sample_v2_artifact() -> ModelArtifact {
        let mut artifact = sample_artifact();
        artifact.report.record_phase_perf(
            "update",
            PerfCounters {
                relabels: 42,
                dirty_links: 120,
                remerges: 1,
                ..PerfCounters::default()
            },
        );
        artifact.update = Some(sample_update_ext());
        artifact
    }

    /// The version field of an encoded image (first 4 bytes of the
    /// header payload).
    fn encoded_version(bytes: &[u8]) -> u32 {
        let (kind, header, _) = read_frame(bytes, ARTIFACT_MAGIC.len()).unwrap();
        assert_eq!(kind, SEC_HEADER);
        Cursor::new(header).u32().unwrap()
    }

    #[test]
    fn batch_artifacts_still_write_version_1() {
        let bytes = sample_artifact().to_bytes();
        assert_eq!(encoded_version(&bytes), 1);
        assert_eq!(sample_artifact().to_bytes_versioned(1).unwrap(), bytes);
    }

    #[test]
    fn v2_round_trips_exactly() {
        let artifact = sample_v2_artifact();
        let bytes = artifact.to_bytes();
        assert_eq!(encoded_version(&bytes), 2);
        let reloaded = ModelArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(reloaded, artifact);
        assert_eq!(reloaded.update_state(), Some(&sample_update_ext()));
        let perf = reloaded.report().phase_counters("update").unwrap();
        assert_eq!(perf.relabels, 42);
        assert_eq!(perf.dirty_links, 120);
        assert_eq!(perf.remerges, 1);
    }

    #[test]
    fn explicit_v2_without_update_state_round_trips() {
        let artifact = sample_artifact();
        let bytes = artifact.to_bytes_versioned(2).unwrap();
        assert_eq!(encoded_version(&bytes), 2);
        let reloaded = ModelArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(reloaded, artifact);
        assert!(reloaded.update_state().is_none());
    }

    #[test]
    fn to_bytes_versioned_rejects_unrepresentable_requests() {
        assert!(matches!(
            sample_v2_artifact().to_bytes_versioned(1),
            Err(RockError::ArtifactMismatch { .. })
        ));
        for v in [0, 3] {
            assert!(matches!(
                sample_artifact().to_bytes_versioned(v),
                Err(RockError::ArtifactVersion {
                    found,
                    supported: FORMAT_VERSION
                }) if found == v
            ));
        }
    }

    #[test]
    fn v2_image_under_a_v1_cap_is_a_version_error_not_corrupt() {
        let bytes = sample_v2_artifact().to_bytes();
        assert!(matches!(
            ModelArtifact::from_bytes_capped(&bytes, 1),
            Err(RockError::ArtifactVersion {
                found: 2,
                supported: 1
            })
        ));
        // A v1 image loads under any cap that includes version 1.
        let v1 = sample_artifact().to_bytes();
        assert!(ModelArtifact::from_bytes_capped(&v1, 1).is_ok());
        assert!(ModelArtifact::from_bytes_capped(&v1, 2).is_ok());
    }

    #[test]
    fn dirty_accumulator_count_mismatch_is_typed() {
        let mut artifact = sample_v2_artifact();
        artifact.update.as_mut().unwrap().dirty.pop();
        assert!(matches!(
            ModelArtifact::from_bytes(&artifact.to_bytes()),
            Err(RockError::ArtifactMismatch { detail })
                if detail.contains("dirty-link count mismatch")
        ));
    }

    #[test]
    fn invalid_policy_in_update_section_is_typed() {
        let mut artifact = sample_v2_artifact();
        artifact.update.as_mut().unwrap().policy.max_pending = 0;
        assert!(matches!(
            ModelArtifact::from_bytes(&artifact.to_bytes()),
            Err(RockError::ArtifactMismatch { detail })
                if detail.contains("staleness policy")
        ));
    }

    #[test]
    fn v2_every_single_byte_flip_is_typed_never_silent() {
        let bytes = sample_v2_artifact().to_bytes();
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut bad = bytes.clone();
                bad[i] ^= bit;
                match ModelArtifact::from_bytes(&bad) {
                    Err(
                        RockError::ArtifactCorrupt { .. }
                        | RockError::ArtifactVersion { .. }
                        | RockError::ArtifactMismatch { .. },
                    ) => {}
                    Err(other) => panic!("flip at {i}: unexpected error {other}"),
                    Ok(_) => panic!("flip at {i} bit {bit:#x} loaded successfully"),
                }
            }
        }
    }

    #[test]
    fn v2_every_truncation_is_typed_never_silent() {
        let bytes = sample_v2_artifact().to_bytes();
        for cut in 0..bytes.len() {
            match ModelArtifact::from_bytes(&bytes[..cut]) {
                Err(RockError::ArtifactCorrupt { .. }) => {}
                Err(other) => panic!("cut at {cut}: unexpected error {other}"),
                Ok(_) => panic!("cut at {cut} loaded successfully"),
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_typed_never_silent() {
        let artifact = sample_artifact();
        let bytes = artifact.to_bytes();
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut bad = bytes.clone();
                bad[i] ^= bit;
                match ModelArtifact::from_bytes(&bad) {
                    Err(
                        RockError::ArtifactCorrupt { .. }
                        | RockError::ArtifactVersion { .. }
                        | RockError::ArtifactMismatch { .. },
                    ) => {}
                    Err(other) => panic!("flip at {i}: unexpected error {other}"),
                    Ok(_) => panic!("flip at {i} bit {bit:#x} loaded successfully"),
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_typed_never_silent() {
        let artifact = sample_artifact();
        let bytes = artifact.to_bytes();
        for cut in 0..bytes.len() {
            match ModelArtifact::from_bytes(&bytes[..cut]) {
                Err(RockError::ArtifactCorrupt { .. }) => {}
                Err(other) => panic!("cut at {cut}: unexpected error {other}"),
                Ok(_) => panic!("cut at {cut} loaded successfully"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_artifact().to_bytes();
        bytes.push(0);
        assert!(matches!(
            ModelArtifact::from_bytes(&bytes),
            Err(RockError::ArtifactCorrupt { detail, .. }) if detail.contains("trailing")
        ));
    }

    #[test]
    fn atomic_save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("rock-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("roundtrip-{}.rockart", std::process::id()));
        let artifact = sample_artifact();
        artifact.save(&path).unwrap();
        assert!(!tmp_path(&path).exists(), "tmp staging file left behind");
        let reloaded = ModelArtifact::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(reloaded, artifact);
    }

    #[test]
    fn kill_between_write_and_rename_leaves_previous_artifact_loadable() {
        let dir = std::env::temp_dir().join("rock-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("killed-{}.rockart", std::process::id()));
        let v1 = sample_artifact();
        v1.save(&path).unwrap();
        // Simulate a crash mid-save of v2: the staging tmp exists (even
        // torn) but the rename never happened.
        let mut v2 = sample_artifact();
        v2.model = "rock-v2".into();
        let torn: Vec<u8> = v2.to_bytes().into_iter().take(10).collect();
        std::fs::write(tmp_path(&path), torn).unwrap();
        let reloaded = ModelArtifact::load(&path).unwrap();
        assert_eq!(reloaded, v1, "previous artifact must stay loadable");
        // A subsequent completed save replaces both.
        v2.save(&path).unwrap();
        assert_eq!(ModelArtifact::load(&path).unwrap().model(), "rock-v2");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_source_fetches_saved_bytes() {
        let dir = std::env::temp_dir().join("rock-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("source-{}.rockart", std::process::id()));
        let artifact = sample_artifact();
        artifact.save(&path).unwrap();
        let mut source = FileSource::new(&path);
        let bytes = source.fetch().unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(bytes, artifact.to_bytes());
    }

    #[test]
    fn dendrogram_section_round_trips() {
        use crate::algorithm::{OutlierPolicy, RockAlgorithm};
        use crate::goodness::{ConstantF, Goodness, GoodnessKind};
        use crate::neighbors::NeighborGraph;
        use crate::similarity::{Jaccard, PointsWith};
        let ts = crate::testdata::figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5);
        let goodness = Goodness::new(0.5, ConstantF(1.0), GoodnessKind::Normalized);
        let run = RockAlgorithm::new(goodness, 2, OutlierPolicy::default()).run(&g);
        let fit = ModelFit {
            clustering: run.clustering.clone(),
            dendrogram: Dendrogram::from_run(&run),
            report: RunReport::new(),
        };
        assert!(fit.dendrogram.is_some());
        let artifact = ModelArtifact::from_fit("rock", &fit);
        let reloaded = ModelArtifact::from_bytes(&artifact.to_bytes()).unwrap();
        let d = reloaded.dendrogram().expect("dendrogram preserved");
        assert_eq!(d.cut(2), run.clustering);
    }
}
