//! Point representations the paper clusters over: market-basket
//! transactions (§3.1.1) and categorical records with missing values
//! (§3.1.2).

pub mod categorical;
pub mod transaction;

pub use categorical::{AttributeDef, CategoricalRecord, CategoricalSchema};
pub(crate) use transaction::jaccard_from_counts;
pub use transaction::{ItemCatalog, Transaction};
