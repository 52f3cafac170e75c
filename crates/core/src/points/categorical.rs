//! Categorical records with missing values (§3.1.2).
//!
//! A data set with `d` categorical attributes is described by a
//! [`CategoricalSchema`] (attribute names and per-attribute value domains).
//! A [`CategoricalRecord`] stores, for each attribute, either the index of
//! the attribute's value in its domain or `None` for a missing value.
//!
//! §3.1.2 maps a record to a transaction over items `A.v` — one item per
//! (attribute, value) combination — and computes Jaccard similarity between
//! the induced transactions. Missing attributes simply contribute no item.
//! For time-series-style data the paper refines this: only attributes
//! present in *both* records of a pair are considered, so the transactions
//! are rebuilt per pair. Both policies are implemented in
//! [`crate::similarity::CategoricalJaccard`].

use super::Transaction;
use std::collections::HashMap;
use std::fmt;

/// Definition of one categorical attribute: a name and its value domain.
#[derive(Clone, Debug)]
pub struct AttributeDef {
    name: String,
    values: Vec<String>,
    value_ids: HashMap<String, u32>,
}

impl AttributeDef {
    /// The attribute name (e.g. `"odor"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The value domain, indexed by value id.
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// The label of value `v`, if in the domain.
    pub fn value_name(&self, v: u32) -> Option<&str> {
        self.values.get(v as usize).map(String::as_str)
    }

    /// The id of value `name`, if in the domain.
    fn value_id(&self, name: &str) -> Option<u32> {
        self.value_ids.get(name).copied()
    }

    /// Number of values in the domain.
    pub fn domain_size(&self) -> usize {
        self.values.len()
    }
}

/// Schema of a categorical data set: the ordered list of attributes.
///
/// The schema also assigns every `(attribute, value)` pair a distinct global
/// *item id* (attribute domains laid out contiguously), which is what makes
/// the §3.1.2 record → transaction mapping cheap.
#[derive(Clone, Debug, Default)]
pub struct CategoricalSchema {
    attributes: Vec<AttributeDef>,
    /// `offsets[a]` = first global item id of attribute `a`'s domain.
    offsets: Vec<u32>,
    total_items: u32,
}

impl CategoricalSchema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a schema from `(name, domain)` pairs.
    ///
    /// # Panics
    /// Panics if a domain contains duplicate values.
    pub fn from_attributes<S: AsRef<str>>(attrs: &[(S, Vec<S>)]) -> Self {
        let mut schema = Self::new();
        for (name, domain) in attrs {
            schema.add_attribute(
                name.as_ref(),
                domain.iter().map(AsRef::as_ref).collect::<Vec<_>>(),
            );
        }
        schema
    }

    /// Appends an attribute with the given value domain; returns its index.
    ///
    /// # Panics
    /// Panics if the domain contains duplicate values.
    pub fn add_attribute(&mut self, name: &str, domain: Vec<&str>) -> usize {
        let mut value_ids = HashMap::new();
        for (i, v) in domain.iter().enumerate() {
            let prev = value_ids.insert((*v).to_owned(), i as u32);
            assert!(prev.is_none(), "duplicate value {v:?} in domain of {name:?}");
        }
        self.offsets.push(self.total_items);
        // tidy-allow(panic): documented `# Panics` contract: attribute domains beyond u32::MAX values are a caller error
        self.total_items += u32::try_from(domain.len()).expect("domain too large");
        self.attributes.push(AttributeDef {
            name: name.to_owned(),
            values: domain.into_iter().map(str::to_owned).collect(),
            value_ids,
        });
        self.attributes.len() - 1
    }

    /// The attributes, in schema order.
    pub fn attributes(&self) -> &[AttributeDef] {
        &self.attributes
    }

    /// Number of attributes.
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Total number of distinct `(attribute, value)` items.
    pub fn num_items(&self) -> usize {
        self.total_items as usize
    }

    /// The global item id of value `v` of attribute `a`.
    ///
    /// # Panics
    /// Panics if `a` or `v` is out of range.
    #[inline]
    fn item_id(&self, a: usize, v: u32) -> u32 {
        assert!(
            (v as usize) < self.attributes[a].domain_size(),
            "value id {v} out of domain for attribute {a}"
        );
        self.offsets[a] + v
    }

    /// §3.1.2 record → transaction mapping: one item `A.v` per non-missing
    /// attribute.
    ///
    /// # Panics
    /// Panics if the record arity differs from the schema.
    pub fn to_transaction(&self, record: &CategoricalRecord) -> Transaction {
        assert_eq!(
            record.arity(),
            self.num_attributes(),
            "record arity does not match schema"
        );
        let items: Vec<u32> = record
            .values()
            .iter()
            .enumerate()
            .filter_map(|(a, v)| v.map(|v| self.item_id(a, v)))
            .collect();
        // Item ids are produced in ascending attribute order with ascending
        // offsets, so they are already sorted and unique.
        Transaction::from_sorted(items)
    }

    /// Parses a record from textual values, treating `missing_marker`
    /// (e.g. `"?"`) as a missing value.
    ///
    /// Returns an error naming the offending attribute/value on unknown
    /// values or arity mismatch.
    pub fn parse_record(
        &self,
        fields: &[&str],
        missing_marker: &str,
    ) -> Result<CategoricalRecord, String> {
        if fields.len() != self.num_attributes() {
            return Err(format!(
                "expected {} fields, got {}",
                self.num_attributes(),
                fields.len()
            ));
        }
        let mut values = Vec::with_capacity(fields.len());
        for (a, field) in fields.iter().enumerate() {
            if *field == missing_marker {
                values.push(None);
            } else {
                match self.attributes[a].value_id(field) {
                    Some(v) => values.push(Some(v)),
                    None => {
                        return Err(format!(
                            "unknown value {:?} for attribute {:?}",
                            field,
                            self.attributes[a].name()
                        ))
                    }
                }
            }
        }
        Ok(CategoricalRecord::new(values))
    }
}

/// A record over a [`CategoricalSchema`]: per attribute, a value id or
/// `None` for missing.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CategoricalRecord {
    values: Box<[Option<u32>]>,
}

impl CategoricalRecord {
    /// Builds a record from per-attribute value ids.
    pub fn new(values: Vec<Option<u32>>) -> Self {
        CategoricalRecord {
            values: values.into_boxed_slice(),
        }
    }

    /// Builds a fully-observed record (no missing values).
    pub fn complete(values: Vec<u32>) -> Self {
        CategoricalRecord {
            values: values.into_iter().map(Some).collect(),
        }
    }

    /// The per-attribute values.
    #[inline]
    pub fn values(&self) -> &[Option<u32>] {
        &self.values
    }

    /// Value of attribute `a` (`None` if missing).
    #[inline]
    pub fn value(&self, a: usize) -> Option<u32> {
        self.values[a]
    }

    /// Number of attributes (including missing ones).
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Number of non-missing attributes.
    pub fn num_present(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }
}

impl fmt::Debug for CategoricalRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut list = f.debug_list();
        for v in self.values.iter() {
            match v {
                Some(v) => list.entry(v),
                None => list.entry(&"?"),
            };
        }
        list.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_schema() -> CategoricalSchema {
        CategoricalSchema::from_attributes(&[
            ("color", vec!["brown", "black", "white"]),
            ("size", vec!["narrow", "broad"]),
            ("odor", vec!["none", "foul", "spicy", "almond"]),
        ])
    }

    #[test]
    fn item_ids_are_contiguous_per_attribute() {
        let s = toy_schema();
        assert_eq!(s.num_items(), 9);
        assert_eq!(s.item_id(0, 0), 0);
        assert_eq!(s.item_id(0, 2), 2);
        assert_eq!(s.item_id(1, 0), 3);
        assert_eq!(s.item_id(2, 3), 8);
    }

    #[test]
    fn to_transaction_skips_missing() {
        let s = toy_schema();
        let r = CategoricalRecord::new(vec![Some(1), None, Some(2)]);
        let t = s.to_transaction(&r);
        assert_eq!(t.items(), &[1, 7]);
    }

    #[test]
    fn parse_record_handles_missing_and_unknown() {
        let s = toy_schema();
        let ok = s.parse_record(&["white", "?", "foul"], "?").unwrap();
        assert_eq!(ok.values(), &[Some(2), None, Some(1)]);
        assert!(s.parse_record(&["white", "?"], "?").is_err());
        assert!(s.parse_record(&["white", "huge", "foul"], "?").is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate value")]
    fn duplicate_domain_value_panics() {
        let mut s = CategoricalSchema::new();
        s.add_attribute("color", vec!["red", "red"]);
    }

    #[test]
    fn complete_record_has_no_missing() {
        let r = CategoricalRecord::complete(vec![0, 1, 3]);
        assert_eq!(r.num_present(), 3);
        assert_eq!(r.value(2), Some(3));
    }
}
