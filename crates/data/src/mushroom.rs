//! The mushroom data set (§5.1, Tables 1, 3, 8–9).
//!
//! The paper uses the UCI Agaricus/Lepiota data: 8,124 records, 22
//! categorical attributes, 4,208 edible / 3,916 poisonous. Two paths:
//!
//! * [`generate_mushrooms`] — a **species-template generator** patterned
//!   on the paper's findings: the data decomposes into ~22 species-like
//!   blocks with strongly non-uniform sizes (8…1728); within a block
//!   records differ on only a few attributes; different blocks share many
//!   attribute values (clusters are *not* well-separated, Tables 8–9);
//!   and the `odor` attribute perfectly separates edible (none / anise /
//!   almond) from poisonous (foul / fishy / spicy) mushrooms. The block
//!   sizes default to the exact pure-cluster sizes ROCK found (Table 3).
//! * [`parse_mushrooms`] — a parser for the original UCI
//!   `agaricus-lepiota.data` letter-coded format, so the real file can be
//!   dropped in.

use rand::Rng;
use rock_core::points::{CategoricalRecord, CategoricalSchema};

/// Edibility label.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Edibility {
    /// Edible mushroom.
    Edible,
    /// Poisonous mushroom.
    Poisonous,
}

/// The 22 UCI attributes: `(name, [(letter code, value name), …])`.
const ATTRIBUTES: [(&str, &[(&str, &str)]); 22] = [
    ("cap-shape", &[("b", "bell"), ("c", "conical"), ("x", "convex"), ("f", "flat"), ("k", "knobbed"), ("s", "sunken")]),
    ("cap-surface", &[("f", "fibrous"), ("g", "grooves"), ("y", "scaly"), ("s", "smooth")]),
    ("cap-color", &[("n", "brown"), ("b", "buff"), ("c", "cinnamon"), ("g", "gray"), ("r", "green"), ("p", "pink"), ("u", "purple"), ("e", "red"), ("w", "white"), ("y", "yellow")]),
    ("bruises", &[("t", "bruises"), ("f", "no")]),
    ("odor", &[("a", "almond"), ("l", "anise"), ("c", "creosote"), ("y", "fishy"), ("f", "foul"), ("m", "musty"), ("n", "none"), ("p", "pungent"), ("s", "spicy")]),
    ("gill-attachment", &[("a", "attached"), ("d", "descending"), ("f", "free"), ("n", "notched")]),
    ("gill-spacing", &[("c", "close"), ("w", "crowded"), ("d", "distant")]),
    ("gill-size", &[("b", "broad"), ("n", "narrow")]),
    ("gill-color", &[("k", "black"), ("n", "brown"), ("b", "buff"), ("h", "chocolate"), ("g", "gray"), ("r", "green"), ("o", "orange"), ("p", "pink"), ("u", "purple"), ("e", "red"), ("w", "white"), ("y", "yellow")]),
    ("stalk-shape", &[("e", "enlarging"), ("t", "tapering")]),
    ("stalk-root", &[("b", "bulbous"), ("c", "club"), ("u", "cup"), ("e", "equal"), ("z", "rhizomorphs"), ("r", "rooted")]),
    ("stalk-surface-above-ring", &[("f", "fibrous"), ("y", "scaly"), ("k", "silky"), ("s", "smooth")]),
    ("stalk-surface-below-ring", &[("f", "fibrous"), ("y", "scaly"), ("k", "silky"), ("s", "smooth")]),
    ("stalk-color-above-ring", &[("n", "brown"), ("b", "buff"), ("c", "cinnamon"), ("g", "gray"), ("o", "orange"), ("p", "pink"), ("e", "red"), ("w", "white"), ("y", "yellow")]),
    ("stalk-color-below-ring", &[("n", "brown"), ("b", "buff"), ("c", "cinnamon"), ("g", "gray"), ("o", "orange"), ("p", "pink"), ("e", "red"), ("w", "white"), ("y", "yellow")]),
    ("veil-type", &[("p", "partial"), ("u", "universal")]),
    ("veil-color", &[("n", "brown"), ("o", "orange"), ("w", "white"), ("y", "yellow")]),
    ("ring-number", &[("n", "none"), ("o", "one"), ("t", "two")]),
    ("ring-type", &[("c", "cobwebby"), ("e", "evanescent"), ("f", "flaring"), ("l", "large"), ("n", "none"), ("p", "pendant"), ("s", "sheathing"), ("z", "zone")]),
    ("spore-print-color", &[("k", "black"), ("n", "brown"), ("b", "buff"), ("h", "chocolate"), ("r", "green"), ("o", "orange"), ("u", "purple"), ("w", "white"), ("y", "yellow")]),
    ("population", &[("a", "abundant"), ("c", "clustered"), ("n", "numerous"), ("s", "scattered"), ("v", "several"), ("y", "solitary")]),
    ("habitat", &[("g", "grasses"), ("l", "leaves"), ("m", "meadows"), ("p", "paths"), ("u", "urban"), ("w", "waste"), ("d", "woods")]),
];

/// Index of the `odor` attribute.
const ODOR: usize = 4;
/// Index of `veil-type` (constant "partial" in the real data).
const VEIL_TYPE: usize = 15;
/// Odor value ids for edible species: almond (0), anise (1), none (6).
const EDIBLE_ODORS: [u32; 3] = [0, 1, 6];
/// Odor value ids for poisonous species: fishy (3), foul (4), spicy (8)
/// (the three the paper observed in its clusters).
const POISONOUS_ODORS: [u32; 3] = [3, 4, 8];

/// The 22-attribute UCI schema with full value names.
fn mushroom_schema() -> CategoricalSchema {
    let mut schema = CategoricalSchema::new();
    for (name, values) in ATTRIBUTES {
        schema.add_attribute(name, values.iter().map(|&(_, v)| v).collect());
    }
    schema
}

/// The pure-cluster sizes ROCK found on the real data (Table 3):
/// `(size, edibility)` per species block. Sums to 4,208 edible +
/// 3,916 poisonous = 8,124.
fn paper_species_sizes() -> Vec<(usize, Edibility)> {
    use Edibility::{Edible as E, Poisonous as P};
    vec![
        (96, E), (256, P), (704, E), (96, E), (768, E), (192, P), (1728, E), (32, P),
        (1296, P), (8, P), (48, E), (48, E), (288, P), (192, E), (32, E), (72, P),
        (1728, P), (288, E), (8, P), (192, E), (16, E), (36, P),
    ]
}

/// Specification of a generated mushroom data set.
#[derive(Clone, Debug)]
pub struct MushroomSpec {
    /// `(record count, edibility)` per species block.
    pub species: Vec<(usize, Edibility)>,
    /// Maximum number of attributes that vary *within* a species (the
    /// rest are fixed by the species template). The actual count scales
    /// with block size — `min(varying_attributes, log2(size))` — as
    /// in the real data, where the 1728-record block varies on ~9
    /// attributes (paper Table 8, cluster 3) while the 8-record blocks
    /// are nearly constant. Large-block variation is what smears the
    /// traditional algorithm's centroids (§1.1's "ripple effect").
    pub varying_attributes: usize,
    /// Consecutive species are grouped into *genera* of this size:
    /// sibling species share a base template and differ only in
    /// `mutations_per_species` attributes (plus odor across the
    /// edible/poisonous divide). This is what makes the clusters "not
    /// well-separated" (§5.2) and defeats centroid-based clustering —
    /// lookalike edible and poisonous species sit close in Euclidean
    /// space — while the link structure still separates them.
    pub species_per_genus: usize,
    /// Number of attributes a species mutates away from its genus base.
    /// Sibling species mutate *disjoint* attribute sets, so any two
    /// siblings differ on at least `2 · mutations_per_species`
    /// attributes — beyond the θ = 0.8 neighbor radius, which is what
    /// lets ROCK keep lookalike species apart.
    pub mutations_per_species: usize,
    /// Probability that a poisonous species is *odorless* (odor = none).
    /// The real data has deadly odorless species; without them the odor
    /// attribute alone separates the classes in Euclidean space and the
    /// traditional comparator gets an unrealistically easy ride.
    pub odorless_poisonous_rate: f64,
    /// Per-attribute probability of replacing a value with a uniformly
    /// random one (recording noise).
    pub noise_rate: f64,
    /// Per-value probability of a missing value (paper: "very few").
    pub missing_rate: f64,
}

impl MushroomSpec {
    /// The paper-faithful configuration: Table-3 block sizes, genera of
    /// 4 lookalike species 3 mutations apart, up to 9 size-scaled
    /// varying attributes, 30% odorless poisonous species, 0.2% noise,
    /// 0.3% missing values.
    pub fn paper() -> Self {
        MushroomSpec {
            species: paper_species_sizes(),
            varying_attributes: 12,
            species_per_genus: 4,
            mutations_per_species: 3,
            odorless_poisonous_rate: 0.3,
            noise_rate: 0.002,
            missing_rate: 0.003,
        }
    }

    /// A proportionally scaled-down variant (block sizes multiplied by
    /// `scale`, minimum 2), for tests and quick experiments.
    ///
    /// # Panics
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn paper_scaled(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let mut spec = Self::paper();
        for (s, _) in &mut spec.species {
            *s = ((*s as f64 * scale).round() as usize).max(2);
        }
        spec
    }

    /// Total number of records.
    fn total_records(&self) -> usize {
        self.species.iter().map(|&(s, _)| s).sum()
    }
}

/// The generated data set.
#[derive(Clone, Debug)]
pub struct MushroomData {
    /// The records, shuffled.
    pub records: Vec<CategoricalRecord>,
    /// Edibility per record.
    pub labels: Vec<Edibility>,
    /// Ground-truth species block per record.
    pub species: Vec<usize>,
    /// The schema.
    pub schema: CategoricalSchema,
}

/// Generates a mushroom data set from species templates.
///
/// Template construction: every species fixes all but
/// `spec.varying_attributes` attributes. Fixed values are drawn from the
/// first few values of each domain (weighted towards the first two), so
/// different species frequently agree on individual attributes — the
/// paper's "clusters are not well-separated". Odor follows the
/// edible/poisonous split exactly; veil-type is always "partial" as in
/// the real data. Varying attributes take one of 2 template-chosen
/// values per record.
///
/// # Panics
/// Panics if `varying_attributes ≥ 21` or `missing_rate ∉ [0, 1)`.
pub fn generate_mushrooms<R: Rng + ?Sized>(spec: &MushroomSpec, rng: &mut R) -> MushroomData {
    assert!(
        spec.varying_attributes < 21,
        "too many varying attributes ({})",
        spec.varying_attributes
    );
    assert!(
        (0.0..1.0).contains(&spec.missing_rate),
        "missing rate must be in [0, 1)"
    );
    let schema = mushroom_schema();
    let num_attrs = schema.num_attributes();

    struct Template {
        /// Allowed value ids per attribute (singleton = fixed).
        allowed: Vec<Vec<u32>>,
        edibility: Edibility,
    }

    // Genus base templates: consecutive runs of `species_per_genus`
    // species share one base, so sibling species are lookalikes.
    let genus_of = |si: usize| si / spec.species_per_genus.max(1);
    let num_genera = genus_of(spec.species.len().saturating_sub(1)) + 1;
    let mut genus_bases: Vec<Vec<u32>> = Vec::with_capacity(num_genera);
    for _ in 0..num_genera {
        let base: Vec<u32> = schema
            .attributes()
            .iter()
            .enumerate()
            .map(|(a, attr)| {
                let domain = attr.domain_size() as u32;
                if a == VEIL_TYPE {
                    return 0; // "partial", as in the real data
                }
                // Weighted towards the low-id values so even different
                // genera overlap on individual attributes: ~45% value 0,
                // ~30% value 1, the rest spread over the domain.
                let r: f64 = rng.random();
                if r < 0.45 || domain == 1 {
                    0
                } else if r < 0.75 || domain == 2 {
                    1.min(domain - 1)
                } else {
                    rng.random_range(0..domain)
                }
            })
            .collect();
        genus_bases.push(base);
    }

    // Per genus: a *mutation pool* of attributes with domains large
    // enough that every sibling can take a distinct value (pairwise
    // Hamming distance between sibling templates = mutations_per_species
    // exactly), and a *varying pool* shared by all siblings — the same
    // {base, alt} choice per attribute, so within-species and
    // cross-sibling records look alike on those attributes. Net effect:
    // sibling species are close in Euclidean space (the traditional
    // algorithm confuses them) but always ≥ mutations_per_species
    // attributes apart (outside the θ = 0.8 neighbor radius, so ROCK
    // separates them).
    struct GenusPlan {
        /// (attribute, per-sibling distinct values).
        mutation_pool: Vec<(usize, Vec<u32>)>,
        /// (attribute, the two allowed values).
        varying_pool: Vec<(usize, [u32; 2])>,
    }
    let siblings = spec.species_per_genus.max(1);
    let mut plans: Vec<GenusPlan> = Vec::with_capacity(num_genera);
    for base in &genus_bases {
        let mut order: Vec<usize> = (0..num_attrs)
            .filter(|&a| a != ODOR && a != VEIL_TYPE)
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let mut mutation_pool = Vec::with_capacity(spec.mutations_per_species);
        let mut varying_pool = Vec::with_capacity(spec.varying_attributes);
        for &a in &order {
            let domain = schema.attributes()[a].domain_size() as u32;
            if mutation_pool.len() < spec.mutations_per_species
                && domain as usize > siblings
            {
                // Distinct value per sibling, all different from base:
                // base+offset+k for k in 0..siblings with
                // 1 ≤ offset ≤ domain−siblings never wraps onto base.
                let offset = rng.random_range(1..=(domain - siblings as u32));
                let values = (0..siblings as u32)
                    .map(|k| (base[a] + offset + k) % domain)
                    .collect();
                mutation_pool.push((a, values));
            } else if varying_pool.len() < spec.varying_attributes && domain >= 2 {
                let mut alt = rng.random_range(0..domain);
                if alt == base[a] {
                    alt = (alt + 1) % domain;
                }
                varying_pool.push((a, [base[a], alt]));
            }
            if mutation_pool.len() == spec.mutations_per_species
                && varying_pool.len() == spec.varying_attributes
            {
                break;
            }
        }
        plans.push(GenusPlan {
            mutation_pool,
            varying_pool,
        });
    }

    let mut templates: Vec<Template> = Vec::with_capacity(spec.species.len());
    for (si, &(_, edibility)) in spec.species.iter().enumerate() {
        let genus = genus_of(si);
        let plan = &plans[genus];
        let sib = si % siblings;
        let mut allowed: Vec<Vec<u32>> = genus_bases[genus]
            .iter()
            .map(|&v| vec![v])
            .collect();
        // Odor tracks edibility (the paper's observed rule), except for
        // the occasional odorless poisonous species.
        let odor = match edibility {
            Edibility::Edible => EDIBLE_ODORS[rng.random_range(0..EDIBLE_ODORS.len())],
            Edibility::Poisonous => {
                if rng.random::<f64>() < spec.odorless_poisonous_rate {
                    6 // "none"
                } else {
                    POISONOUS_ODORS[rng.random_range(0..POISONOUS_ODORS.len())]
                }
            }
        };
        allowed[ODOR] = vec![odor];
        for (a, values) in &plan.mutation_pool {
            allowed[*a] = vec![values[sib]];
        }
        // Size-scaled variation over the genus-shared varying pool.
        let size = spec.species[si].0;
        let v = (size.max(2).ilog2() as usize).clamp(1, plan.varying_pool.len());
        for (a, values) in plan.varying_pool.iter().take(v) {
            allowed[*a] = values.to_vec();
        }
        templates.push(Template { allowed, edibility });
    }

    let total = spec.total_records();
    let mut records = Vec::with_capacity(total);
    let mut labels = Vec::with_capacity(total);
    let mut species_of = Vec::with_capacity(total);
    for (si, &(count, _)) in spec.species.iter().enumerate() {
        let t = &templates[si];
        for _ in 0..count {
            let values: Vec<Option<u32>> = t
                .allowed
                .iter()
                .enumerate()
                .map(|(a, choices)| {
                    if rng.random::<f64>() < spec.missing_rate {
                        return None;
                    }
                    if a != ODOR && rng.random::<f64>() < spec.noise_rate {
                        let domain = schema.attributes()[a].domain_size() as u32;
                        return Some(rng.random_range(0..domain));
                    }
                    if choices.len() == 1 {
                        Some(choices[0])
                    } else {
                        Some(choices[rng.random_range(0..choices.len())])
                    }
                })
                .collect();
            records.push(CategoricalRecord::new(values));
            labels.push(t.edibility);
            species_of.push(si);
        }
    }

    // Shuffle everything together.
    for i in (1..records.len()).rev() {
        let j = rng.random_range(0..=i);
        records.swap(i, j);
        labels.swap(i, j);
        species_of.swap(i, j);
    }

    MushroomData {
        records,
        labels,
        species: species_of,
        schema,
    }
}

/// Parses the UCI `agaricus-lepiota.data` format: one record per line,
/// `label,a1,...,a22` with single-letter codes, `?` for missing
/// (stalk-root).
pub fn parse_mushrooms(content: &str) -> Result<MushroomData, String> {
    let schema = mushroom_schema();
    let mut records = Vec::new();
    let mut labels = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 23 {
            return Err(format!(
                "line {}: expected 23 fields, got {}",
                lineno + 1,
                fields.len()
            ));
        }
        let label = match fields[0] {
            "e" => Edibility::Edible,
            "p" => Edibility::Poisonous,
            other => return Err(format!("line {}: unknown label {other:?}", lineno + 1)),
        };
        let mut values = Vec::with_capacity(22);
        for (a, &code) in fields[1..].iter().enumerate() {
            if code == "?" {
                values.push(None);
                continue;
            }
            let v = ATTRIBUTES[a]
                .1
                .iter()
                .position(|&(c, _)| c == code)
                .ok_or_else(|| {
                    format!(
                        "line {}: unknown code {code:?} for attribute {:?}",
                        lineno + 1,
                        ATTRIBUTES[a].0
                    )
                })?;
            values.push(Some(v as u32));
        }
        records.push(CategoricalRecord::new(values));
        labels.push(label);
    }
    let species = vec![0; records.len()]; // unknown for real data
    Ok(MushroomData {
        records,
        labels,
        species,
        schema,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use rock_core::similarity::{CategoricalJaccard, Similarity};

    #[test]
    fn paper_sizes_sum_to_table1() {
        let spec = MushroomSpec::paper();
        assert_eq!(spec.total_records(), 8124);
        let edible: usize = spec
            .species
            .iter()
            .filter(|(_, e)| *e == Edibility::Edible)
            .map(|&(s, _)| s)
            .sum();
        assert_eq!(edible, 4208);
        assert_eq!(spec.total_records() - edible, 3916);
    }

    #[test]
    fn odor_separates_edibility() {
        let mut rng = StdRng::seed_from_u64(22);
        let data = generate_mushrooms(&MushroomSpec::paper_scaled(0.02), &mut rng);
        for (r, l) in data.records.iter().zip(&data.labels) {
            if let Some(odor) = r.value(ODOR) {
                match l {
                    Edibility::Edible => assert!(EDIBLE_ODORS.contains(&odor)),
                    // Poisonous species are foul/fishy/spicy or odorless.
                    Edibility::Poisonous => {
                        assert!(POISONOUS_ODORS.contains(&odor) || odor == 6)
                    }
                }
            }
        }
    }

    #[test]
    fn within_species_neighbor_structure() {
        // The real data's species blocks are cross-products: not every
        // within-species pair is a θ = 0.8 neighbor, but a sizable
        // fraction is, and within-species similarity dominates
        // cross-species similarity.
        let mut rng = StdRng::seed_from_u64(5);
        let data = generate_mushrooms(&MushroomSpec::paper_scaled(0.02), &mut rng);
        let sim = CategoricalJaccard::default();
        let mut within = (0.0f64, 0usize, 0usize); // (sum, count, neighbors)
        let mut cross = (0.0f64, 0usize);
        for i in 0..data.records.len() {
            for j in (i + 1)..data.records.len() {
                let s = sim.similarity(&data.records[i], &data.records[j]);
                if data.species[i] == data.species[j] {
                    within.0 += s;
                    within.1 += 1;
                    if s >= 0.8 {
                        within.2 += 1;
                    }
                } else {
                    cross.0 += s;
                    cross.1 += 1;
                }
            }
        }
        let avg_within = within.0 / within.1 as f64;
        let avg_cross = cross.0 / cross.1 as f64;
        assert!(
            avg_within > avg_cross + 0.15,
            "within {avg_within} vs cross {avg_cross}"
        );
        let neighbor_frac = within.2 as f64 / within.1 as f64;
        assert!(
            neighbor_frac > 0.2,
            "within-species neighbor fraction {neighbor_frac}"
        );
    }

    #[test]
    fn species_share_attribute_values() {
        // Paper: "records in different clusters could be identical with
        // respect to some attribute values" — templates must overlap.
        let mut rng = StdRng::seed_from_u64(6);
        let data = generate_mushrooms(&MushroomSpec::paper_scaled(0.01), &mut rng);
        let (a, b) = (0usize, 1usize);
        let ra = data
            .records
            .iter()
            .zip(&data.species)
            .find(|(_, s)| **s == a)
            .unwrap()
            .0;
        let rb = data
            .records
            .iter()
            .zip(&data.species)
            .find(|(_, s)| **s == b)
            .unwrap()
            .0;
        let matches = ra
            .values()
            .iter()
            .zip(rb.values())
            .filter(|(x, y)| x.is_some() && x == y)
            .count();
        assert!(matches >= 3, "different species share only {matches} values");
    }

    #[test]
    fn parse_uci_line() {
        let content = "p,x,s,n,t,p,f,c,n,k,e,e,s,s,w,w,p,w,o,p,k,s,u\n\
                       e,x,s,y,t,a,f,c,b,k,e,c,s,s,w,w,p,w,o,p,n,n,g\n\
                       e,x,y,w,t,?,f,c,b,n,t,b,s,s,w,w,p,w,o,p,n,a,g";
        let data = parse_mushrooms(content).unwrap();
        assert_eq!(data.records.len(), 3);
        assert_eq!(data.labels[0], Edibility::Poisonous);
        assert_eq!(data.labels[1], Edibility::Edible);
        // odor of line 1 is 'p' = pungent (id 7).
        assert_eq!(data.records[0].value(ODOR), Some(7));
        assert_eq!(data.records[2].value(ODOR), None);
    }

    #[test]
    fn parse_rejects_bad_code() {
        let content = "e,Z,s,y,t,a,f,c,b,k,e,c,s,s,w,w,p,w,o,p,n,n,g";
        assert!(parse_mushrooms(content).is_err());
    }

    #[test]
    fn schema_has_22_attributes() {
        let s = mushroom_schema();
        assert_eq!(s.num_attributes(), 22);
        assert_eq!(s.attributes()[ODOR].name(), "odor");
        assert_eq!(s.attributes()[VEIL_TYPE].name(), "veil-type");
    }
}
