//! Seeded input generation: every op, think time and payload byte of a
//! workload derives from the `--seed` argument through these functions,
//! so one seed always yields the same inputs.

/// SplitMix64: a small, fast, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by the seed and any number of labels (workload,
    /// client, purpose), so streams never overlap by accident.
    pub fn new(seed: u64, labels: &[u64]) -> Rng {
        let mut r = Rng(seed ^ 0x5851_f42d_4c95_7f2d);
        for &l in labels {
            r.0 ^= mix(l.wrapping_add(r.next()));
        }
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fill `out` with the payload for `key` (a block's identity and version).
/// Distinct keys give distinct bytes, so a read that returns any other
/// block or version of a block fails the comparison.
pub fn fill(seed: u64, key: u64, out: &mut [u8]) {
    let mut r = Rng::new(seed, &[0xda7a, key]);
    let mut chunks = out.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&r.next().to_le_bytes());
    }
    let rest = chunks.into_remainder();
    let last = r.next().to_le_bytes();
    rest.copy_from_slice(&last[..rest.len()]);
}

/// FNV-1a over a byte string: the run digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_labels() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, &[1, 2]);
                move |_| r.next()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, &[1, 2]);
                move |_| r.next()
            })
            .collect();
        let c = Rng::new(7, &[1, 3]).next();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        let mut r = Rng::new(1, &[]);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }

    #[test]
    fn payloads_are_keyed() {
        let mut x = vec![0u8; 4099];
        let mut y = vec![0u8; 4099];
        fill(1, 5, &mut x);
        fill(1, 5, &mut y);
        assert_eq!(x, y);
        fill(1, 6, &mut y);
        assert_ne!(x, y);
    }
}
