//! Internal utilities: bitsets, checksums, CRC framing, stateless mixing,
//! retry backoff and the item postings index.

pub mod bitset;
pub mod crc32;
pub mod frame;
pub(crate) mod postings;
pub mod ranges;
pub mod retry;
pub mod splitmix;

pub use bitset::BitSet;
pub use crc32::crc32;
pub use frame::{append_frame, read_frame, Cursor};
pub use ranges::balanced_ranges;
pub use retry::RetryPolicy;
pub use splitmix::{seeded_hit, splitmix64};
