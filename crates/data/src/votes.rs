//! The Congressional-votes data set (§5.1, Tables 1–2, 7).
//!
//! The paper uses the 1984 United States Congressional Voting Records
//! from the UCI repository: 435 records (168 Republicans, 267 Democrats),
//! 16 boolean issues, very few missing values. The file is not shipped
//! here; two paths are provided:
//!
//! * [`generate_votes`] — a generator **calibrated from the paper's own
//!   Table 7**, which reports the per-party frequency of the dominant
//!   vote on every issue. Sampling each vote independently from those
//!   per-party Bernoulli rates reproduces the structure that drives
//!   Table 2 (two well-separated blocks with a minority of crossover
//!   voters).
//! * [`parse_votes`] — a parser for the original UCI
//!   `house-votes-84.data` format, so the real file can be dropped in.

use rand::Rng;
use rock_core::points::{CategoricalRecord, CategoricalSchema};

/// Party label of a Congress member.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Party {
    /// Republican.
    Republican,
    /// Democrat.
    Democrat,
}

/// The 16 issues, in the canonical UCI column order.
pub const VOTE_ISSUES: [&str; 16] = [
    "handicapped-infants",
    "water-project-cost-sharing",
    "adoption-of-the-budget-resolution",
    "physician-fee-freeze",
    "el-salvador-aid",
    "religious-groups-in-schools",
    "anti-satellite-test-ban",
    "aid-to-nicaraguan-contras",
    "mx-missile",
    "immigration",
    "synfuels-corporation-cutback",
    "education-spending",
    "superfund-right-to-sue",
    "crime",
    "duty-free-exports",
    "export-administration-act-south-africa",
];

/// P(vote = Yes) per issue, calibrated from Table 7 of the paper
/// (frequency of the reported dominant value, complemented when the
/// dominant value is "No"). `water-project-cost-sharing` is absent from
/// the paper's Democrat column — the issue was an even split — so it is
/// 0.5.
const P_YES_REPUBLICAN: [f64; 16] = [
    0.15, 0.51, 0.13, 0.92, 0.99, 0.93, 0.16, 0.10, 0.07, 0.51, 0.23, 0.86, 0.90, 0.98, 0.11,
    0.55,
];
const P_YES_DEMOCRAT: [f64; 16] = [
    0.65, 0.50, 0.94, 0.04, 0.08, 0.33, 0.89, 0.97, 0.86, 0.51, 0.44, 0.10, 0.21, 0.27, 0.68,
    0.70,
];

/// Specification of a generated votes data set.
#[derive(Clone, Copy, Debug)]
pub struct VotesSpec {
    /// Number of Republican records (paper: 168).
    pub num_republicans: usize,
    /// Number of Democrat records (paper: 267).
    pub num_democrats: usize,
    /// Per-vote probability of a missing value (paper: "very few").
    pub missing_rate: f64,
    /// Fraction of Democrats who are *crossover* voters — members whose
    /// votes blend towards the other party's distribution. The real 1984
    /// data has a sizable bloc of conservative ("boll weevil") Democrats,
    /// which is why the paper's Table 2 shows Democrats landing in the
    /// Republican cluster (52/209 for the traditional algorithm, 22/166
    /// for ROCK).
    pub crossover_democrats: f64,
    /// Fraction of Republicans who are crossover voters.
    pub crossover_republicans: f64,
}

impl VotesSpec {
    /// The paper's Table-1 configuration, with crossover fractions tuned
    /// so the Table-2 contamination pattern is reproduced.
    pub fn paper() -> Self {
        VotesSpec {
            num_republicans: 168,
            num_democrats: 267,
            missing_rate: 0.03,
            crossover_democrats: 0.18,
            crossover_republicans: 0.05,
        }
    }

    /// A clean two-bloc variant without crossover voters.
    pub fn clean() -> Self {
        VotesSpec {
            crossover_democrats: 0.0,
            crossover_republicans: 0.0,
            ..Self::paper()
        }
    }
}

/// The generated data set.
#[derive(Clone, Debug)]
pub struct VotesData {
    /// The records, shuffled; value id 0 = No, 1 = Yes.
    pub records: Vec<CategoricalRecord>,
    /// Ground-truth party per record.
    pub labels: Vec<Party>,
    /// Schema: 16 attributes with domain `{n, y}`.
    pub schema: CategoricalSchema,
}

/// The 16-issue schema (domain `{"n", "y"}` per issue; value 1 = Yes).
fn votes_schema() -> CategoricalSchema {
    let mut schema = CategoricalSchema::new();
    for issue in VOTE_ISSUES {
        schema.add_attribute(issue, vec!["n", "y"]);
    }
    schema
}

/// Generates a votes data set from the Table-7-calibrated model.
///
/// # Panics
/// Panics if `missing_rate ∉ [0, 1)`.
pub fn generate_votes<R: Rng + ?Sized>(spec: &VotesSpec, rng: &mut R) -> VotesData {
    assert!(
        (0.0..1.0).contains(&spec.missing_rate),
        "missing rate must be in [0, 1)"
    );
    let schema = votes_schema();
    let mut records = Vec::with_capacity(spec.num_republicans + spec.num_democrats);
    let mut labels = Vec::with_capacity(records.capacity());
    let push = |party: Party, rng: &mut R, records: &mut Vec<CategoricalRecord>| {
        let (own, other, crossover_rate) = match party {
            Party::Republican => (
                &P_YES_REPUBLICAN,
                &P_YES_DEMOCRAT,
                spec.crossover_republicans,
            ),
            Party::Democrat => (
                &P_YES_DEMOCRAT,
                &P_YES_REPUBLICAN,
                spec.crossover_democrats,
            ),
        };
        // A crossover member blends towards the other party's vote
        // distribution with a per-member strength in [0.5, 0.9].
        let blend = if rng.random::<f64>() < crossover_rate {
            0.5 + 0.4 * rng.random::<f64>()
        } else {
            0.0
        };
        let values = own
            .iter()
            .zip(other)
            .map(|(&po, &px)| {
                if rng.random::<f64>() < spec.missing_rate {
                    None
                } else {
                    let p = po * (1.0 - blend) + px * blend;
                    Some(u32::from(rng.random::<f64>() < p))
                }
            })
            .collect();
        records.push(CategoricalRecord::new(values));
    };
    for _ in 0..spec.num_republicans {
        push(Party::Republican, rng, &mut records);
        labels.push(Party::Republican);
    }
    for _ in 0..spec.num_democrats {
        push(Party::Democrat, rng, &mut records);
        labels.push(Party::Democrat);
    }
    // Shuffle records and labels together.
    for i in (1..records.len()).rev() {
        let j = rng.random_range(0..=i);
        records.swap(i, j);
        labels.swap(i, j);
    }
    VotesData {
        records,
        labels,
        schema,
    }
}

/// Parses the UCI `house-votes-84.data` format: one record per line,
/// `party,vote1,...,vote16` with votes `y`/`n`/`?`.
///
/// Returns records in file order. Lines that are empty or start with `#`
/// are skipped.
pub fn parse_votes(content: &str) -> Result<VotesData, String> {
    let schema = votes_schema();
    let mut records = Vec::new();
    let mut labels = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 17 {
            return Err(format!(
                "line {}: expected 17 fields, got {}",
                lineno + 1,
                fields.len()
            ));
        }
        let party = match fields[0] {
            "republican" => Party::Republican,
            "democrat" => Party::Democrat,
            other => return Err(format!("line {}: unknown party {other:?}", lineno + 1)),
        };
        let record = schema
            .parse_record(&fields[1..], "?")
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        records.push(record);
        labels.push(party);
    }
    Ok(VotesData {
        records,
        labels,
        schema,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn paper_spec_counts() {
        let mut rng = StdRng::seed_from_u64(1984);
        let data = generate_votes(&VotesSpec::paper(), &mut rng);
        assert_eq!(data.records.len(), 435);
        let reps = data.labels.iter().filter(|p| **p == Party::Republican).count();
        assert_eq!(reps, 168);
        assert_eq!(data.schema.num_attributes(), 16);
    }

    #[test]
    fn party_vote_rates_match_table7() {
        let mut rng = StdRng::seed_from_u64(7);
        let spec = VotesSpec {
            num_republicans: 4000,
            num_democrats: 4000,
            missing_rate: 0.0,
            ..VotesSpec::clean()
        };
        let data = generate_votes(&spec, &mut rng);
        // physician-fee-freeze (issue 3): R yes ≈ 0.92, D yes ≈ 0.04.
        let mut r_yes = 0usize;
        let mut d_yes = 0usize;
        for (rec, party) in data.records.iter().zip(&data.labels) {
            if rec.value(3) == Some(1) {
                match party {
                    Party::Republican => r_yes += 1,
                    Party::Democrat => d_yes += 1,
                }
            }
        }
        let r_rate = r_yes as f64 / 4000.0;
        let d_rate = d_yes as f64 / 4000.0;
        assert!((r_rate - 0.92).abs() < 0.03, "R rate {r_rate}");
        assert!((d_rate - 0.04).abs() < 0.03, "D rate {d_rate}");
    }

    #[test]
    fn missing_rate_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let spec = VotesSpec {
            num_republicans: 1000,
            num_democrats: 1000,
            missing_rate: 0.1,
            ..VotesSpec::clean()
        };
        let data = generate_votes(&spec, &mut rng);
        let total: usize = data.records.iter().map(|r| r.arity()).sum();
        let present: usize = data.records.iter().map(|r| r.num_present()).sum();
        let rate = 1.0 - present as f64 / total as f64;
        assert!((rate - 0.1).abs() < 0.02, "missing rate {rate}");
    }

    #[test]
    fn crossover_democrats_vote_more_republican() {
        // With crossover on, the average Democrat agreement with the
        // Republican platform must rise.
        let base = VotesSpec {
            num_republicans: 0,
            num_democrats: 4000,
            missing_rate: 0.0,
            ..VotesSpec::clean()
        };
        let crossed = VotesSpec {
            crossover_democrats: 0.3,
            ..base
        };
        // physician-fee-freeze: D yes rate 0.04 clean; blending raises it.
        let rate = |spec: &VotesSpec, seed: u64| {
            let data = generate_votes(spec, &mut StdRng::seed_from_u64(seed));
            data.records
                .iter()
                .filter(|r| r.value(3) == Some(1))
                .count() as f64
                / data.records.len() as f64
        };
        let clean = rate(&base, 10);
        let noisy = rate(&crossed, 10);
        assert!(noisy > clean + 0.1, "clean {clean}, crossover {noisy}");
    }

    #[test]
    fn parse_roundtrip() {
        let content = "\
republican,n,y,n,y,y,y,n,n,n,y,?,y,y,y,n,y
democrat,?,y,y,?,y,y,n,n,n,n,n,n,y,y,y,y
# a comment

democrat,y,y,y,n,n,n,y,y,y,n,y,n,n,n,y,y
";
        let data = parse_votes(content).unwrap();
        assert_eq!(data.records.len(), 3);
        assert_eq!(data.labels[0], Party::Republican);
        assert_eq!(data.records[0].value(0), Some(0)); // n
        assert_eq!(data.records[0].value(1), Some(1)); // y
        assert_eq!(data.records[0].value(10), None); // ?
        assert_eq!(data.records[1].value(0), None);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_votes("republican,y,n").is_err());
        assert!(parse_votes("green,n,y,n,y,y,y,n,n,n,y,n,y,y,y,n,y").is_err());
        assert!(parse_votes("republican,n,y,n,y,y,maybe,n,n,n,y,n,y,y,y,n,y").is_err());
    }
}
