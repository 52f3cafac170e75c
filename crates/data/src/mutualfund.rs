//! The US mutual-fund time-series data set (§5.1, Table 4).
//!
//! The paper clusters 795 funds by the *sign pattern* of their daily
//! closing-price changes over 548 business days (Jan 4 1993 – Mar 3
//! 1995): each day becomes a categorical attribute with domain
//! {Up, Down, No}; days before a fund's inception are missing values,
//! and similarity uses the pair-restricted policy of §3.1.2
//! ([`rock_core::similarity::MissingPolicy::CommonAttributes`]).
//!
//! The original MIT AI Lab price server is long gone, so
//! [`generate_funds`] substitutes a **factor model**: every fund's daily
//! return is `β·market(t) + group(t) + ε`, funds in the same group share
//! the group factor, and staggered inception dates reproduce the missing
//! prefixes of young funds. The group list and sizes follow Table 4;
//! additional 2-fund groups model the paper's 24 interesting size-2
//! clusters (e.g. the two funds run by the same portfolio manager), and
//! the rest are idiosyncratic outliers.

use crate::dist::{standard_normal, Normal};
use rand::Rng;
use rock_core::points::{CategoricalRecord, CategoricalSchema};

/// A named fund group with a size and volatility profile.
#[derive(Clone, Debug)]
pub struct FundGroup {
    /// Cluster name (Table 4, column 1).
    pub name: String,
    /// Number of funds.
    pub size: usize,
    /// Market beta.
    pub beta: f64,
    /// Daily group-factor volatility.
    pub group_vol: f64,
    /// Daily idiosyncratic volatility (should be well below `group_vol`
    /// for the group to be discoverable).
    pub idio_vol: f64,
}

/// Specification of the generated fund universe.
#[derive(Clone, Debug)]
pub struct FundSpec {
    /// Named groups (Table 4's 16 clusters by default).
    pub groups: Vec<FundGroup>,
    /// Number of additional 3-fund mini-families (paper: 24 interesting
    /// clusters of size 2). A *pair* of funds with no third similar fund
    /// has `link = 0` (links count common neighbors) and can never be
    /// merged by ROCK, so each mini-family carries three correlated
    /// funds; clustering typically recovers them as size-3 or size-2
    /// clusters.
    pub num_pairs: usize,
    /// Number of idiosyncratic outlier funds.
    pub num_outliers: usize,
    /// Number of business days (paper: 548 price dates → 548 attributes;
    /// we generate `days + 1` prices so every day has a change).
    pub days: usize,
    /// Fraction of funds that are "young" (late inception, missing
    /// prefix).
    pub young_fraction: f64,
    /// Latest possible inception day for a young fund.
    pub max_inception: usize,
    /// Returns with |r| below this become `No` change.
    pub no_band: f64,
}

impl FundSpec {
    /// The Table-4 configuration: 16 named groups (304 funds), 24 pairs,
    /// and outliers padding the universe to 795 funds over 548 days.
    pub fn paper() -> Self {
        let g = |name: &str, size: usize, beta: f64, group_vol: f64| FundGroup {
            name: name.to_owned(),
            size,
            beta,
            group_vol,
            idio_vol: group_vol / 12.0,
        };
        let groups = vec![
            g("Bonds 1", 4, 0.05, 0.0030),
            g("Bonds 2", 10, 0.05, 0.0031),
            g("Bonds 3", 24, 0.05, 0.0032),
            g("Bonds 4", 15, 0.05, 0.0033),
            g("Bonds 5", 5, 0.06, 0.0034),
            g("Bonds 6", 3, 0.06, 0.0035),
            g("Bonds 7", 26, 0.06, 0.0036),
            g("Financial Service", 3, 0.9, 0.0080),
            g("Precious Metals", 10, -0.2, 0.0120),
            g("International 1", 4, 0.4, 0.0090),
            g("International 2", 4, 0.4, 0.0095),
            g("International 3", 6, 0.4, 0.0100),
            g("Balanced", 5, 0.6, 0.0050),
            g("Growth 1", 8, 1.0, 0.0070),
            g("Growth 2", 107, 1.0, 0.0072),
            g("Growth 3", 70, 1.1, 0.0074),
        ];
        let named: usize = groups.iter().map(|g| g.size).sum(); // 304
        FundSpec {
            groups,
            num_pairs: 24,
            num_outliers: 795 - named - 3 * 24, // 419
            days: 548,
            young_fraction: 0.25,
            max_inception: 400,
            no_band: 0.0003,
        }
    }

    /// A scaled-down variant: group sizes multiplied by `scale`
    /// (minimum 2), pairs/outliers/days scaled likewise.
    ///
    /// # Panics
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn paper_scaled(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let mut spec = Self::paper();
        for gr in &mut spec.groups {
            gr.size = ((gr.size as f64 * scale).round() as usize).max(2);
        }
        spec.num_pairs = ((spec.num_pairs as f64 * scale).round() as usize).max(1);
        spec.num_outliers = ((spec.num_outliers as f64 * scale).round() as usize).max(1);
        spec.days = ((spec.days as f64 * scale.max(0.25)).round() as usize).max(40);
        spec.max_inception = spec.days * 3 / 4;
        spec
    }

    /// Total number of funds.
    fn total_funds(&self) -> usize {
        self.groups.iter().map(|g| g.size).sum::<usize>() + 3 * self.num_pairs + self.num_outliers
    }
}

/// One generated fund.
#[derive(Clone, Debug)]
pub struct Fund {
    /// Synthetic ticker, e.g. `"GROWTH2-041"`.
    pub ticker: String,
    /// Group index into [`FundData::group_names`], or `None` for
    /// outliers.
    pub group: Option<usize>,
    /// Closing prices; `None` before inception.
    pub prices: Vec<Option<f64>>,
}

/// The generated universe.
#[derive(Clone, Debug)]
pub struct FundData {
    /// The funds (shuffled).
    pub funds: Vec<Fund>,
    /// Up/Down/No records per fund (aligned with `funds`); attribute `t`
    /// is the change from day `t` to day `t+1`, missing before
    /// inception.
    pub records: Vec<CategoricalRecord>,
    /// Schema: one {No, Up, Down} attribute per day.
    pub schema: CategoricalSchema,
    /// Group names: the named Table-4 groups, then `"Pair i"` entries.
    pub group_names: Vec<String>,
}

/// Value ids in each day attribute's domain.
pub mod change {
    /// No change (|r| within the no-band).
    pub const NO: u32 = 0;
    /// Price went up.
    pub const UP: u32 = 1;
    /// Price went down.
    pub const DOWN: u32 = 2;
}

/// The per-day {No, Up, Down} schema for `days` attributes.
fn fund_schema(days: usize) -> CategoricalSchema {
    let mut schema = CategoricalSchema::new();
    for d in 0..days {
        schema.add_attribute(&format!("day-{d:03}"), vec!["no", "up", "down"]);
    }
    schema
}

/// Discretises a price series into an Up/Down/No record (§5.1): attribute
/// `t` compares `prices[t+1]` with `prices[t]`; missing if either is
/// absent.
fn prices_to_record(prices: &[Option<f64>], no_band: f64) -> CategoricalRecord {
    let values = prices
        .windows(2)
        .map(|w| match (w[0], w[1]) {
            (Some(prev), Some(next)) => {
                let r = next / prev - 1.0;
                Some(if r > no_band {
                    change::UP
                } else if r < -no_band {
                    change::DOWN
                } else {
                    change::NO
                })
            }
            _ => None,
        })
        .collect();
    CategoricalRecord::new(values)
}

/// Generates the fund universe from `spec`.
pub fn generate_funds<R: Rng + ?Sized>(spec: &FundSpec, rng: &mut R) -> FundData {
    let days = spec.days;
    let schema = fund_schema(days);
    // Market factor, shared by everyone.
    let market = Normal::new(0.0003, 0.006);
    let market_path: Vec<f64> = (0..days).map(|_| market.sample(rng)).collect();

    let mut group_names: Vec<String> = spec.groups.iter().map(|g| g.name.clone()).collect();
    let mut funds: Vec<Fund> = Vec::with_capacity(spec.total_funds());

    let make_fund = |ticker: String,
                         group: Option<usize>,
                         beta: f64,
                         group_path: Option<&[f64]>,
                         idio_vol: f64,
                         rng: &mut R| {
        let inception = if rng.random::<f64>() < spec.young_fraction {
            rng.random_range(1..=spec.max_inception)
        } else {
            0
        };
        let mut prices: Vec<Option<f64>> = vec![None; days + 1];
        let mut price = 10.0 + rng.random::<f64>() * 40.0;
        for t in inception..=days {
            if t > inception {
                let g = group_path.map_or(0.0, |p| p[t - 1]);
                let r = beta * market_path[t - 1] + g + idio_vol * standard_normal(rng);
                price *= 1.0 + r;
            }
            prices[t] = Some(price);
        }
        Fund {
            ticker,
            group,
            prices,
        }
    };

    let mut group_paths: Vec<Vec<f64>> = Vec::with_capacity(spec.groups.len());
    for (gi, g) in spec.groups.iter().enumerate() {
        let group_dist = Normal::new(0.0, g.group_vol);
        let path: Vec<f64> = (0..days).map(|_| group_dist.sample(rng)).collect();
        for i in 0..g.size {
            let ticker = format!("{}-{i:03}", g.name.to_uppercase().replace(' ', ""));
            funds.push(make_fund(ticker, Some(gi), g.beta, Some(&path), g.idio_vol, rng));
        }
        group_paths.push(path);
    }
    // Mini-families of three correlated funds (see `FundSpec::num_pairs`
    // for why two is not enough under a link-based merge criterion).
    for p in 0..spec.num_pairs {
        let gi = group_names.len();
        group_names.push(format!("Pair {p}"));
        let vol = 0.004 + rng.random::<f64>() * 0.008;
        let beta = rng.random::<f64>() * 1.2;
        let dist = Normal::new(0.0, vol);
        let path: Vec<f64> = (0..days).map(|_| dist.sample(rng)).collect();
        for i in 0..3 {
            funds.push(make_fund(
                format!("PAIR{p:02}-{i}"),
                Some(gi),
                beta,
                Some(&path),
                vol / 12.0,
                rng,
            ));
        }
    }
    for o in 0..spec.num_outliers {
        let vol = 0.004 + rng.random::<f64>() * 0.010;
        let beta = rng.random::<f64>() * 1.2;
        funds.push(make_fund(format!("OUT-{o:03}"), None, beta, None, vol, rng));
    }

    // Shuffle funds.
    for i in (1..funds.len()).rev() {
        let j = rng.random_range(0..=i);
        funds.swap(i, j);
    }
    let records = funds
        .iter()
        .map(|f| prices_to_record(&f.prices, spec.no_band))
        .collect();
    FundData {
        funds,
        records,
        schema,
        group_names,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use rock_core::similarity::{CategoricalJaccard, MissingPolicy, Similarity};

    #[test]
    fn paper_spec_counts() {
        let spec = FundSpec::paper();
        assert_eq!(spec.total_funds(), 795);
        assert_eq!(spec.days, 548);
        assert_eq!(spec.groups.len(), 16);
        // Table 4's named groups hold 304 funds.
        assert_eq!(spec.groups.iter().map(|g| g.size).sum::<usize>(), 304);
    }

    #[test]
    fn records_have_one_attribute_per_day() {
        let spec = FundSpec::paper_scaled(0.05);
        let mut rng = StdRng::seed_from_u64(93);
        let data = generate_funds(&spec, &mut rng);
        for r in &data.records {
            assert_eq!(r.arity(), spec.days);
        }
    }

    #[test]
    fn young_funds_have_missing_prefix() {
        let spec = FundSpec::paper_scaled(0.1);
        let mut rng = StdRng::seed_from_u64(94);
        let data = generate_funds(&spec, &mut rng);
        let with_missing = data
            .records
            .iter()
            .filter(|r| r.num_present() < r.arity())
            .count();
        assert!(with_missing > 0, "some funds must be young");
        // Missing values form a prefix: present after first present.
        for r in &data.records {
            let first = r.values().iter().position(|v| v.is_some());
            if let Some(first) = first {
                assert!(r.values()[first..].iter().all(|v| v.is_some()));
            }
        }
    }

    #[test]
    fn same_group_more_similar_than_cross_group() {
        let spec = FundSpec::paper_scaled(0.15);
        let mut rng = StdRng::seed_from_u64(95);
        let data = generate_funds(&spec, &mut rng);
        let sim = CategoricalJaccard::new(MissingPolicy::CommonAttributes);
        // Average within- vs cross-group similarity over the named groups.
        let named = spec.groups.len();
        let mut within = (0.0, 0usize);
        let mut cross = (0.0, 0usize);
        for i in 0..data.funds.len() {
            for j in (i + 1)..data.funds.len() {
                let (gi, gj) = (data.funds[i].group, data.funds[j].group);
                let (Some(gi), Some(gj)) = (gi, gj) else { continue };
                if gi >= named || gj >= named {
                    continue;
                }
                let s = sim.similarity(&data.records[i], &data.records[j]);
                if gi == gj {
                    within.0 += s;
                    within.1 += 1;
                } else {
                    cross.0 += s;
                    cross.1 += 1;
                }
            }
        }
        let w = within.0 / within.1 as f64;
        let c = cross.0 / cross.1 as f64;
        assert!(
            w > 0.8,
            "within-group mean similarity {w} (cross {c})"
        );
        assert!(w > c + 0.2, "within {w} vs cross {c}");
    }

    #[test]
    fn discretisation_boundaries() {
        let prices = vec![Some(100.0), Some(100.05), Some(100.05), Some(99.0), None];
        let r = prices_to_record(&prices, 0.0008);
        assert_eq!(r.values().len(), 4);
        assert_eq!(r.value(0), Some(change::NO)); // +0.05% inside band
        assert_eq!(r.value(1), Some(change::NO)); // exactly zero
        assert_eq!(r.value(2), Some(change::DOWN));
        assert_eq!(r.value(3), None);
    }

    #[test]
    fn deterministic_for_seed() {
        let spec = FundSpec::paper_scaled(0.05);
        let a = generate_funds(&spec, &mut StdRng::seed_from_u64(1));
        let b = generate_funds(&spec, &mut StdRng::seed_from_u64(1));
        assert_eq!(a.records, b.records);
        assert_eq!(
            a.funds.iter().map(|f| &f.ticker).collect::<Vec<_>>(),
            b.funds.iter().map(|f| &f.ticker).collect::<Vec<_>>()
        );
    }
}
