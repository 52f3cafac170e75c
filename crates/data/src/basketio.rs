//! Reading and writing market-basket files — the "database on disk" the
//! paper's Fig.-2 pipeline samples from and labels.
//!
//! Format: one transaction per line, whitespace- or comma-separated item
//! tokens. Tokens may be arbitrary strings (interned through an
//! [`ItemCatalog`]) or raw non-negative integers (parsed directly with
//! [`read_baskets_numeric`]). Empty lines and `#` comments are skipped.
//!
//! [`stream_baskets`] wraps any `BufRead` into a lazy transaction
//! iterator so the reservoir samplers
//! ([`rock_core::sampling::reservoir_sample_x`]) can draw a sample
//! without materialising the database in memory.

use rock_core::points::{ItemCatalog, Transaction};
use std::io::{self, BufRead, Write};

/// Splits a basket line into item tokens (commas or whitespace).
fn tokens(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| c == ',' || c.is_whitespace())
        .map(str::trim)
        .filter(|t| !t.is_empty())
}

/// Annotates an I/O error with the 1-based line it occurred on,
/// preserving its kind so callers can still classify it.
fn annotate_line(lineno: usize, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("line {lineno}: {e}"))
}

/// Reads transactions with arbitrary string items, interning through
/// `catalog`.
///
/// I/O errors (including invalid UTF-8, surfaced by `lines()` as
/// `InvalidData`) name the offending line, matching
/// [`read_baskets_numeric`]'s error style.
pub fn read_baskets<R: BufRead>(
    reader: R,
    catalog: &mut ItemCatalog,
) -> io::Result<Vec<Transaction>> {
    let mut out = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| annotate_line(lineno + 1, e))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(tokens(line).map(|t| catalog.intern(t)).collect());
    }
    Ok(out)
}

/// Parses one numeric basket line: `Ok(None)` for a blank or `#`
/// comment line, otherwise its transaction, or the text naming the first
/// token that is not a non-negative integer. The one line parser of
/// [`stream_baskets`] (and so [`read_baskets_numeric`]) and the
/// resilient readers.
pub(crate) fn parse_numeric_line(line: &str) -> Result<Option<Transaction>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let items = tokens(line)
        .map(|t| {
            t.parse::<u32>()
                .map_err(|_| format!("bad item token {t:?}"))
        })
        .collect::<Result<Vec<u32>, String>>()?;
    Ok(Some(Transaction::new(items)))
}

/// Reads transactions whose items are non-negative integers: the
/// collected [`stream_baskets`].
///
/// Returns an `InvalidData` error naming the offending line and token;
/// I/O errors are likewise annotated with their line number.
pub fn read_baskets_numeric<R: BufRead>(reader: R) -> io::Result<Vec<Transaction>> {
    stream_baskets(reader).collect()
}

/// Lazily streams numeric transactions from a reader; parse errors end
/// the stream as an `Err` item.
pub fn stream_baskets<R: BufRead>(
    reader: R,
) -> impl Iterator<Item = io::Result<Transaction>> {
    reader
        .lines()
        .enumerate()
        .filter_map(|(lineno, line)| match line {
            Err(e) => Some(Err(annotate_line(lineno + 1, e))),
            Ok(line) => parse_numeric_line(&line)
                .map_err(|reason| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("line {}: {reason}", lineno + 1),
                    )
                })
                .transpose(),
        })
}

/// Writes transactions as space-separated numeric item lines.
pub fn write_baskets<W: Write>(writer: &mut W, transactions: &[Transaction]) -> io::Result<()> {
    for t in transactions {
        let mut first = true;
        for &item in t.items() {
            if !first {
                write!(writer, " ")?;
            }
            write!(writer, "{item}")?;
            first = false;
        }
        writeln!(writer)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::io::BufReader;

    #[test]
    fn string_items_roundtrip_through_catalog() {
        let input = "milk, diapers, toys\n# comment\n\nwine cheese\n";
        let mut catalog = ItemCatalog::new();
        let ts = read_baskets(BufReader::new(input.as_bytes()), &mut catalog).unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].len(), 3);
        assert!(ts[0].contains(catalog.get("diapers").unwrap()));
        assert!(ts[1].contains(catalog.get("cheese").unwrap()));
    }

    #[test]
    fn numeric_roundtrip() {
        let original = vec![
            Transaction::from([3, 1, 2]),
            Transaction::from([7]),
            Transaction::from([10, 20, 30]),
        ];
        let mut buf = Vec::new();
        write_baskets(&mut buf, &original).unwrap();
        let read = read_baskets_numeric(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(read, original);
    }

    #[test]
    fn numeric_rejects_garbage() {
        let err = read_baskets_numeric(BufReader::new("1 2 x".as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn io_errors_name_the_offending_line() {
        // Invalid UTF-8 on line 2 surfaces as InvalidData from lines();
        // every reader must keep the kind and add the line number.
        let bytes: &[u8] = b"1 2 3\n\xFF\xFE\n4 5\n";

        let err = read_baskets_numeric(BufReader::new(bytes)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "got: {err}");

        let mut catalog = ItemCatalog::new();
        let err = read_baskets(BufReader::new(bytes), &mut catalog).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "got: {err}");

        let items: Vec<io::Result<Transaction>> =
            stream_baskets(BufReader::new(bytes)).collect();
        let err = items[1].as_ref().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "got: {err}");
    }

    #[test]
    fn streaming_supports_reservoir_sampling() {
        // A "disk-resident" database sampled without materialising it.
        let mut buf = Vec::new();
        let db: Vec<Transaction> = (0..500u32)
            .map(|i| Transaction::from([i, i + 1, i + 2]))
            .collect();
        write_baskets(&mut buf, &db).unwrap();
        let stream = stream_baskets(BufReader::new(buf.as_slice())).map(Result::unwrap);
        let mut rng = StdRng::seed_from_u64(17);
        let sample = rock_core::sampling::reservoir_sample_x(stream, 50, &mut rng);
        assert_eq!(sample.len(), 50);
        let mut uniq = sample.clone();
        uniq.sort_by_key(|t| t.items()[0]);
        uniq.dedup();
        assert_eq!(uniq.len(), 50);
    }

    #[test]
    fn stream_reports_parse_error() {
        let items: Vec<io::Result<Transaction>> =
            stream_baskets(BufReader::new("1 2\nbad\n3".as_bytes())).collect();
        assert_eq!(items.len(), 3);
        assert!(items[0].is_ok());
        assert!(items[1].is_err());
    }
}
