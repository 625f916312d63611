//! Seeded request streams and delta sequences.
//!
//! Everything here is a pure function of its seed, so a run is
//! reproducible from `--seed` alone and a caller can vary the seed
//! without changing what a workload means.

/// SplitMix64: tiny, fast, and good enough to drive a load generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_f64() * n as f64) as usize % n
    }
}

/// Derive an independent sub-seed (per connection, per purpose).
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    Rng::new(seed ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// `len` indices into `0..n`, rank `r` drawn with probability
/// ∝ 1/(r+1)^`exponent` (the head-heavy shape of query logs).
pub fn zipf_indices(n: usize, len: usize, exponent: f64, seed: u64) -> Vec<usize> {
    assert!(n > 0, "zipf over an empty set");
    let weights: Vec<f64> = (0..n)
        .map(|r| 1.0 / ((r + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| {
            let u = rng.next_f64();
            cdf.partition_point(|&c| c < u).min(n - 1)
        })
        .collect()
}

/// `len` indices drawn uniformly from `0..n`.
pub fn uniform_indices(n: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    (0..len).map(|_| rng.below(n)).collect()
}

/// `0..n` in a seeded order (Fisher–Yates): every index exactly once.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut xs: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        xs.swap(i, rng.below(i + 1));
    }
    xs
}

/// How one `/relax` request names its query concept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// `{"concept": id}`: a pre-resolved id.
    Concept,
    /// `{"term": name}`: the concept's primary name.
    Term,
    /// `{"term": "<modifier> name"}`: a leading modifier word the server's
    /// strip-modifiers fallback removes.
    Modified,
}

/// `len` request forms: half concept ids, half terms, and a third of the
/// terms carry a leading modifier word.
pub fn forms(len: usize, seed: u64) -> Vec<Form> {
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| match rng.below(6) {
            0..=2 => Form::Concept,
            3 | 4 => Form::Term,
            _ => Form::Modified,
        })
        .collect()
}

/// The writer's delta sequence: `count` deltas, each a list of corpus
/// document indices to clone as new documents. Sizes follow a fixed
/// pattern (every third delta carries 10 documents, the rest one), so the
/// mix of cheap and expensive updates is the same for every seed; which
/// documents are cloned is drawn from the seed.
pub fn delta_plan(count: usize, corpus_docs: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(corpus_docs > 0, "delta plan over an empty corpus");
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|i| {
            let size = if i % 3 == 2 { 10 } else { 1 };
            (0..size).map(|_| rng.below(corpus_docs)).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            assert!(r.below(5) < 5);
        }
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(
            zipf_indices(32, 500, 1.07, 3),
            zipf_indices(32, 500, 1.07, 3)
        );
        assert_ne!(
            zipf_indices(32, 500, 1.07, 3),
            zipf_indices(32, 500, 1.07, 4)
        );
        assert_eq!(uniform_indices(4096, 500, 3), uniform_indices(4096, 500, 3));
        assert_ne!(uniform_indices(4096, 500, 3), uniform_indices(4096, 500, 4));
        assert_eq!(forms(500, 9), forms(500, 9));
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
    }

    #[test]
    fn zipf_is_head_heavy_and_in_range() {
        let xs = zipf_indices(32, 20_000, 1.07, 11);
        assert!(xs.iter().all(|&i| i < 32));
        let head = xs.iter().filter(|&&i| i == 0).count();
        let tail = xs.iter().filter(|&&i| i == 31).count();
        assert!(
            head > 10 * tail,
            "rank 0 ({head}) must dominate rank 31 ({tail})"
        );
    }

    #[test]
    fn uniform_covers_the_set() {
        let xs = uniform_indices(64, 20_000, 5);
        let mut seen = [false; 64];
        for &i in &xs {
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn permutation_is_seeded_and_covers_each_index_once() {
        let a = permutation(2048, 5);
        assert_eq!(a, permutation(2048, 5));
        assert_ne!(a, permutation(2048, 6));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..2048).collect::<Vec<_>>());
        assert!(permutation(0, 1).is_empty());
    }

    #[test]
    fn forms_mix_concepts_terms_and_modifiers() {
        let fs = forms(6_000, 2);
        let count = |f: Form| fs.iter().filter(|&&x| x == f).count();
        assert!((2_700..3_300).contains(&count(Form::Concept)));
        assert!((1_700..2_300).contains(&count(Form::Term)));
        assert!((800..1_200).contains(&count(Form::Modified)));
    }

    #[test]
    fn delta_plan_is_deterministic_with_a_fixed_size_pattern() {
        let a = delta_plan(9, 1000, 42);
        assert_eq!(a, delta_plan(9, 1000, 42));
        assert_ne!(a, delta_plan(9, 1000, 43));
        let sizes: Vec<usize> = a.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![1, 1, 10, 1, 1, 10, 1, 1, 10]);
        let other: Vec<usize> = delta_plan(9, 1000, 43).iter().map(Vec::len).collect();
        assert_eq!(sizes, other, "the size mix must not depend on the seed");
        assert!(a.iter().flatten().all(|&d| d < 1000));
    }
}
