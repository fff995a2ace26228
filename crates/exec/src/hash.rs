//! Deterministic mixing for reproducible probability draws.
//!
//! The simulator must be fully deterministic: whether a step fails, whether
//! a re-executed step's inputs drift, which agent a load-balancing decision
//! picks — all of it derives from a run seed plus stable entity identifiers,
//! never from global RNG state. We use the SplitMix64 finalizer, which is
//! tiny, fast and well distributed.

/// SplitMix64 finalization step. `const`, so a fixed salt can be mixed
/// at compile time.
#[inline]
pub const fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Combine a seed with a sequence of parts into one well-mixed word.
/// `combine(seed, [a, b, c])` is `mix64(combine(seed, [a, b]) ^ mix64(c))`,
/// so callers that draw several keys sharing a prefix can mix it once.
#[inline]
pub fn combine(seed: u64, parts: &[u64]) -> u64 {
    let mut acc = mix64(seed);
    for &p in parts {
        acc = mix64(acc ^ mix64(p));
    }
    acc
}

/// The uniform double in `[0, 1)` that a mixed word's 53 high bits make.
#[inline]
pub fn unit(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic draw in `[0, 1)` keyed by `seed` and `parts`.
#[inline]
pub fn unit_draw(seed: u64, parts: &[u64]) -> f64 {
    unit(combine(seed, parts))
}

/// Deterministic boolean with probability `p`, keyed by `seed`/`parts`.
#[inline]
pub fn draw(seed: u64, parts: &[u64], p: f64) -> bool {
    p > 0.0 && unit_draw(seed, parts) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(combine(1, &[2, 3]), combine(1, &[2, 3]));
        assert_ne!(combine(1, &[2, 3]), combine(1, &[3, 2]));
        assert_ne!(combine(1, &[2, 3]), combine(2, &[2, 3]));
    }

    #[test]
    fn unit_draw_in_range_and_spread() {
        let mut below_half = 0;
        for i in 0..1000 {
            let u = unit_draw(42, &[i]);
            assert!((0.0..1.0).contains(&u));
            if u < 0.5 {
                below_half += 1;
            }
        }
        // Very loose uniformity check.
        assert!((300..700).contains(&below_half), "{below_half}");
    }

    #[test]
    fn probability_edges() {
        assert!(!draw(7, &[1], 0.0));
        assert!(draw(7, &[1], 1.0));
        let hits = (0..1000).filter(|&i| draw(9, &[i], 0.2)).count();
        assert!((120..280).contains(&hits), "{hits}");
    }
}
