//! Random sampling (§4.6, \[Vit85\]).
//!
//! ROCK clusters a main-memory random sample and labels the rest of the
//! data afterwards. The paper defers to Vitter's reservoir algorithms for
//! drawing the sample; both the classic Algorithm R and the skip-based
//! Algorithm X are implemented here over arbitrary iterators (a stream of
//! records "on disk" need never fit in memory).

use rand::Rng;

/// Reservoir sampling, Algorithm R: processes every element, replacing a
/// random reservoir slot with decreasing probability.
///
/// Returns `min(k, stream length)` elements. Every subset of size `k` is
/// equally likely. O(n) random draws.
pub fn reservoir_sample_r<T, I, R>(stream: I, k: usize, rng: &mut R) -> Vec<T>
where
    I: IntoIterator<Item = T>,
    R: Rng + ?Sized,
{
    let mut reservoir: Vec<T> = Vec::with_capacity(k);
    if k == 0 {
        return reservoir;
    }
    for (seen, item) in stream.into_iter().enumerate() {
        if seen < k {
            reservoir.push(item);
        } else {
            let j = rng.random_range(0..=seen);
            if j < k {
                reservoir[j] = item;
            }
        }
    }
    reservoir
}

/// Reservoir sampling, Algorithm X: like Algorithm R but computes how many
/// records to *skip* before the next replacement, drawing O(k·(1+log(n/k)))
/// random variates instead of n — the point of \[Vit85\] for disk-resident
/// data.
pub fn reservoir_sample_x<T, I, R>(stream: I, k: usize, rng: &mut R) -> Vec<T>
where
    I: IntoIterator<Item = T>,
    R: Rng + ?Sized,
{
    let mut it = stream.into_iter();
    let mut reservoir: Vec<T> = Vec::with_capacity(k);
    if k == 0 {
        return reservoir;
    }
    for item in it.by_ref().take(k) {
        reservoir.push(item);
    }
    if reservoir.len() < k {
        return reservoir; // stream shorter than k
    }
    // t = number of records seen so far.
    let mut t = k;
    loop {
        // Draw the skip S: the number of records passed over before the
        // next record enters the reservoir. Algorithm X finds the smallest
        // s with  V >  (t+1−k)(t+2−k)…(t+s+1−k) / ((t+1)(t+2)…(t+s+1))
        // by linear search over the cumulative product.
        let v: f64 = rng.random::<f64>();
        let mut s = 0usize;
        // quot = P(skip > s): product over the first s+1 records of the
        // probability that each is NOT selected.
        let mut quot = (t + 1 - k) as f64 / (t + 1) as f64;
        while quot > v {
            s += 1;
            let tt = t + s;
            quot *= (tt + 1 - k) as f64 / (tt + 1) as f64;
        }
        // Skip s records, then replace a random slot with the next one.
        match it.nth(s) {
            Some(item) => {
                let slot = rng.random_range(0..k);
                reservoir[slot] = item;
                t += s + 1;
            }
            None => break,
        }
    }
    reservoir
}

/// Draws `k` distinct indices from `0..n` (a sample of *positions*), via
/// Algorithm R over the index range.
pub fn sample_indices<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    let mut idx = reservoir_sample_r(0..n, k, rng);
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn r_returns_k_elements() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = reservoir_sample_r(0..1000, 50, &mut rng);
        assert_eq!(s.len(), 50);
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 50, "sampled without replacement");
        assert!(uniq.iter().all(|&x| x < 1000));
    }

    #[test]
    fn r_short_stream_returns_all() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = reservoir_sample_r(0..5, 10, &mut rng);
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn x_matches_contract() {
        let mut rng = StdRng::seed_from_u64(13);
        let s = reservoir_sample_x(0..1000, 50, &mut rng);
        assert_eq!(s.len(), 50);
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 50);
    }

    #[test]
    fn x_short_stream_returns_all() {
        let mut rng = StdRng::seed_from_u64(13);
        let s = reservoir_sample_x(0..3, 10, &mut rng);
        assert_eq!(s, vec![0, 1, 2]);
    }

    #[test]
    fn k_zero_is_empty() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(reservoir_sample_r(0..100, 0, &mut rng).is_empty());
        assert!(reservoir_sample_x(0..100, 0, &mut rng).is_empty());
    }

    /// χ²-style sanity check that each element is selected with roughly
    /// uniform probability k/n.
    fn uniformity_of(sampler: fn(std::ops::Range<u32>, usize, &mut StdRng) -> Vec<u32>) {
        let (n, k, trials) = (100u32, 10usize, 4000usize);
        let mut counts = vec![0u32; n as usize];
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..trials {
            for x in sampler(0..n, k, &mut rng) {
                counts[x as usize] += 1;
            }
        }
        let expected = trials as f64 * k as f64 / n as f64; // 400
        for (i, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expected).abs() / expected;
            assert!(dev < 0.25, "element {i} selected {c} times, expected ~{expected}");
        }
    }

    #[test]
    fn r_is_roughly_uniform() {
        uniformity_of(reservoir_sample_r);
    }

    #[test]
    fn x_is_roughly_uniform() {
        uniformity_of(reservoir_sample_x);
    }

    #[test]
    fn sample_indices_sorted_distinct() {
        let mut rng = StdRng::seed_from_u64(5);
        let idx = sample_indices(500, 40, &mut rng);
        assert_eq!(idx.len(), 40);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
    }
}
