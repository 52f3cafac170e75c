//! Internal utilities: checksums, CRC framing, stateless mixing,
//! retry backoff and the item postings index.

pub mod crc32;
pub mod frame;
pub(crate) mod postings;
pub mod ranges;
pub mod retry;
pub mod splitmix;

pub(crate) use crc32::crc32;
pub use frame::{append_frame, read_frame, Cursor};
pub(crate) use ranges::balanced_ranges;
pub use retry::RetryPolicy;
pub use splitmix::{seeded_hit, splitmix64};
