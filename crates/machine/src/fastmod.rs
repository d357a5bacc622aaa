//! Exact remainders by a fixed divisor without a division instruction.
//!
//! Lemire, Kaser and Kurz ("Faster Remainder by Direct Computation", 2019):
//! with `c = ⌈2¹²⁸ / d⌉`, every 64-bit `x` has
//! `x mod d = ((c · x mod 2¹²⁸) · d) >> 128`. Two 64×64→128-bit multiplies
//! and a wrapping 128-bit one replace a 64-bit `div`, which is tens of
//! cycles on the hosts this simulator runs on. The constant itself costs a
//! 128-bit division, so callers compute it once per batch of remainders,
//! not per remainder.

/// A divisor `d ≥ 2` with its reciprocal constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FastMod {
    d: u64,
    /// `⌈2¹²⁸ / d⌉`.
    c: u128,
}

impl FastMod {
    /// # Panics
    /// Panics if `d < 2` (`⌈2¹²⁸ / 1⌉` does not fit in 128 bits).
    pub(crate) fn new(d: u64) -> Self {
        assert!(d >= 2, "fast modulo by {d}");
        FastMod {
            d,
            // ⌊(2¹²⁸ − 1) / d⌋ + 1 is ⌈2¹²⁸ / d⌉ unless d divides 2¹²⁸, and
            // then it is 2¹²⁸ / d exactly, for which the identity holds too.
            c: u128::MAX / u128::from(d) + 1,
        }
    }

    /// `x % d`, exactly, for every `x`.
    #[inline(always)]
    pub(crate) fn rem(self, x: u64) -> u64 {
        let low = self.c.wrapping_mul(u128::from(x));
        // The top 64 bits of the 192-bit product `low · d`.
        let d = u128::from(self.d);
        let lo = (low as u64 as u128) * d;
        let hi = (low >> 64) * d;
        ((hi + (lo >> 64)) >> 64) as u64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    /// Lines at the edges of the divisor and of the 32- and 64-bit ranges,
    /// then seeded random lines, small and full-width.
    pub(crate) fn lines(d: u64, seed: u64) -> impl Iterator<Item = u64> {
        let edges = [
            0,
            1,
            d - 1,
            d,
            d + 1,
            2 * d - 1,
            2 * d,
            u64::from(u32::MAX),
            1 << 32,
            (1 << 34) | 5,
            u64::MAX / d * d,
            u64::MAX / d * d - 1,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut rng = SmallRng::seed_from_u64(seed);
        let random = (0..20_000).map(move |k| {
            let x = rng.next_u64();
            if k % 2 == 0 {
                x >> (x % 64)
            } else {
                x
            }
        });
        edges.into_iter().chain(random)
    }

    #[test]
    fn fast_modulo_equals_the_remainder_for_every_shipped_set_count() {
        let mut sets: Vec<u64> = [
            MachineConfig::nehalem_w3550(),
            MachineConfig::datacenter_e5640(),
            MachineConfig::core2_machine(),
            MachineConfig::ppc970_machine(),
        ]
        .iter()
        .flat_map(|cfg| [cfg.uarch.l1d, cfg.uarch.l2, cfg.uarch.l3])
        .map(|g| g.num_sets())
        .collect();
        assert!(sets.contains(&12_288), "the E5640 L3");
        // Other L3 sizes the experiments and tests configure, and small and
        // large odd divisors.
        sets.extend([192, 3, 7, 1_000_003, u64::from(u32::MAX), u64::MAX / 3]);
        for &d in &sets {
            let fast = FastMod::new(d);
            for x in lines(d, d) {
                assert_eq!(fast.rem(x), x % d, "{x} mod {d}");
            }
        }
    }
}
