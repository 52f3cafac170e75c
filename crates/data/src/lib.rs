//! # rock-data — data substrates for the ROCK reproduction
//!
//! Generators and parsers for every data set in the paper's evaluation
//! (§5):
//!
//! * [`synthetic`] — the §5.3 market-basket scalability data set
//!   (114,586 transactions, 10 clusters, 5% outliers), generated exactly
//!   to the paper's specification;
//! * [`votes`] — the Congressional-votes data set: a generator calibrated
//!   from the paper's Table 7 plus a UCI `house-votes-84.data` parser;
//! * [`mushroom`] — the mushroom data set: a species-template generator
//!   patterned on Tables 3/8/9 plus a UCI `agaricus-lepiota.data`
//!   parser;
//! * [`mutualfund`] — the US mutual-fund time series: a factor-model
//!   generator with Table-4 groups, staggered inceptions (missing
//!   values) and the §5.1 Up/Down/No discretisation;
//! * [`basketio`] — market-basket file IO, including lazy streaming for
//!   reservoir sampling straight off disk;
//! * [`dist`] — the Normal sampler (Box–Muller) the generators share.
//!
//! All generators take a caller-supplied `rand::Rng`, so fixed seeds give
//! fully reproducible data sets.
//!
//! ## Resilience
//!
//! The Fig.-2 labeling pass reads a disk-resident database, so this crate
//! also ships the fault-tolerant side of the pipeline:
//!
//! * [`resilient`] — streaming ingest/labeling with transient-error
//!   retries, quarantine of malformed records, periodic [`Checkpoint`]s
//!   (persisted as one CRC frame, the codec of the merge WAL and the
//!   artifact, so a torn or damaged checkpoint is rejected) and
//!   bit-identical resume after interruption;
//! * [`faults`] — deterministic fault injection ([`FaultyReader`],
//!   [`corrupt_baskets`]) used to test all of the above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basketio;
pub mod dist;
pub mod faults;
pub mod mushroom;
pub mod mutualfund;
pub mod resilient;
pub mod synthetic;
pub mod votes;

pub use basketio::{read_baskets, read_baskets_numeric, stream_baskets, write_baskets};
pub use faults::{
    corrupt_baskets, kill_at, poison_range, FaultSpec, FaultyReader, PoisonedSimilarity,
    ShardFaultSchedule, GARBAGE_TOKEN,
};
pub use resilient::{
    label_stream_resilient, read_baskets_resilient, Checkpoint, IngestError, IngestErrorKind,
    ResilientConfig, ResilientLabelRun, RetryPolicy,
};
pub use mushroom::{generate_mushrooms, parse_mushrooms, Edibility, MushroomData, MushroomSpec};
pub use mutualfund::{generate_funds, Fund, FundData, FundSpec};
pub use synthetic::{
    generate_baskets, generate_drift_stream, DriftStreamData, DriftStreamSpec, DriftWindow,
    SyntheticBasketData, SyntheticBasketSpec,
};
pub use votes::{generate_votes, parse_votes, Party, VotesData, VotesSpec};
