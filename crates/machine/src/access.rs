//! Seeded, per-task memory address-stream generators.
//!
//! Each task's memory behaviour is a mixture of *working-set tiers*: e.g.
//! 429.mcf touches a small hot region almost every access, a multi-megabyte
//! warm region often, and a gigabyte-scale cold arena rarely. The tier sizes
//! relative to the (shared) cache capacities are what make the paper's
//! contention experiments work: one mcf's warm tier fits the 8 MB L3, three
//! don't.
//!
//! Streams are deterministic: a task's addresses depend only on its stream
//! seed and the number of addresses drawn so far.

use rand::rngs::SmallRng;
use rand::{RngCore, RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::fastmod::FastMod;

/// How addresses are drawn within one tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Consecutive lines, wrapping at the tier end (streaming).
    Sequential,
    /// Fixed stride in bytes, wrapping at the tier end.
    Strided(u64),
    /// Uniformly random byte offsets (pointer-chasing-like footprints).
    Random,
}

/// One tier of a task's working set.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkingSetTier {
    /// Tier size in bytes (≥ one cache line).
    pub bytes: u64,
    /// Relative probability an access lands in this tier.
    pub weight: f64,
    pub pattern: AccessPattern,
}

impl WorkingSetTier {
    pub fn new(bytes: u64, weight: f64, pattern: AccessPattern) -> Self {
        assert!(bytes >= 64, "tier smaller than a cache line");
        assert!(
            weight > 0.0 && weight.is_finite(),
            "tier weight must be positive and finite"
        );
        WorkingSetTier {
            bytes,
            weight,
            pattern,
        }
    }
}

/// A task's complete memory behaviour: its working-set tiers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemoryBehavior {
    tiers: Vec<WorkingSetTier>,
    /// Cumulative normalized weights, same length as `tiers`.
    cdf: Vec<f64>,
    /// Byte offset of each tier in the task's virtual address space.
    bases: Vec<u64>,
}

impl MemoryBehavior {
    /// Build from tiers. Tiers are laid out contiguously from address 0.
    ///
    /// # Panics
    /// Panics if `tiers` is empty.
    pub fn new(tiers: Vec<WorkingSetTier>) -> Self {
        assert!(!tiers.is_empty(), "at least one working-set tier required");
        let total: f64 = tiers.iter().map(|t| t.weight).sum();
        let mut acc = 0.0;
        let cdf = tiers
            .iter()
            .map(|t| {
                acc += t.weight / total;
                acc
            })
            .collect();
        let mut base = 0u64;
        let bases = tiers
            .iter()
            .map(|t| {
                let b = base;
                // Page-align tier starts so strides never straddle tiers.
                base += (t.bytes + 4095) & !4095;
                b
            })
            .collect();
        MemoryBehavior { tiers, cdf, bases }
    }

    /// Single uniformly-random working set of `bytes` — the simplest model.
    pub fn uniform(bytes: u64) -> Self {
        MemoryBehavior::new(vec![WorkingSetTier::new(bytes, 1.0, AccessPattern::Random)])
    }

    /// Pure streaming over `bytes`.
    pub fn streaming(bytes: u64) -> Self {
        MemoryBehavior::new(vec![WorkingSetTier::new(
            bytes,
            1.0,
            AccessPattern::Sequential,
        )])
    }

    pub fn tiers(&self) -> &[WorkingSetTier] {
        &self.tiers
    }

    /// Total footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.tiers.iter().map(|t| t.bytes).sum()
    }

    fn pick_tier(&self, u: f64) -> usize {
        self.cdf
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.tiers.len() - 1)
    }
}

/// Per-task mutable stream state: RNG + per-tier cursors + the address-space
/// id that namespaces this task's lines in the shared caches.
#[derive(Clone, Debug)]
pub struct TaskStream {
    asid: u64,
    rng: SmallRng,
    cursors: Vec<u64>,
    drawn: u64,
}

impl TaskStream {
    /// `asid` must be unique per task (the kernel uses the pid); `seed`
    /// determines the random tier/offset choices.
    pub fn new(asid: u64, seed: u64) -> Self {
        TaskStream {
            asid,
            rng: SmallRng::seed_from_u64(seed ^ 0x7469_7074_6f70_5f73), // "tiptop_s"
            cursors: Vec::new(),
            drawn: 0,
        }
    }

    pub fn asid(&self) -> u64 {
        self.asid
    }

    /// Re-namespace the stream under a new address-space id, preserving the
    /// RNG state, tier cursors, and draw count. Used when a checkpointed task
    /// is resumed under a fresh pid: the access *sequence* continues exactly
    /// where it left off, but its lines must not alias another task's.
    pub fn with_asid(mut self, asid: u64) -> Self {
        self.asid = asid;
        self
    }

    /// Number of addresses drawn so far.
    pub fn drawn(&self) -> u64 {
        self.drawn
    }

    /// Draw the next byte address, qualified with the address-space id in the
    /// high bits (bit 40 upward), ready to feed to the cache hierarchy.
    pub fn next_addr(&mut self, mem: &MemoryBehavior) -> u64 {
        if self.cursors.len() != mem.tiers.len() {
            self.cursors = vec![0; mem.tiers.len()];
        }
        self.drawn += 1;
        let u: f64 = self.rng.random();
        let ti = mem.pick_tier(u);
        let tier = &mem.tiers[ti];
        let offset = match tier.pattern {
            AccessPattern::Sequential => {
                let o = self.cursors[ti];
                self.cursors[ti] = wrap_add(o, 64, tier.bytes);
                o
            }
            AccessPattern::Strided(stride) => {
                let o = self.cursors[ti];
                self.cursors[ti] = wrap_add(o, stride, tier.bytes);
                o
            }
            // `random_range(0..bytes)` is `next_u64() % bytes`; for a
            // power-of-two size that is the low bits.
            AccessPattern::Random if tier.bytes.is_power_of_two() => {
                self.rng.next_u64() & (tier.bytes - 1)
            }
            AccessPattern::Random => self.rng.random_range(0..tier.bytes),
        };
        (self.asid << 40) | (mem.bases[ti] + offset)
    }
}

/// Tiers [`TaskStream::fill`] resolves into a table on the stack. A
/// behaviour with more tiers (none shipped has over three) is drawn address
/// by address.
const TABLE_TIERS: usize = 4;

/// How one tier turns draws into byte offsets, resolved once per batch.
#[derive(Clone, Copy)]
enum Offsets {
    /// The tier's cursor, advanced by `step` and wrapped at `bytes`.
    Cursor { step: u64, bytes: u64 },
    /// `next_u64() & mask`: a random tier of `mask + 1` bytes.
    Mask(u64),
    /// `next_u64() % bytes`: a random tier of any other size.
    Modulo(FastMod),
}

impl TaskStream {
    /// Fill `out` with the next `out.len()` addresses: exactly the
    /// addresses, RNG draws, cursor moves and [`TaskStream::drawn`] count
    /// of as many [`TaskStream::next_addr`] calls.
    ///
    /// The tier count is checked once per batch, and each tier's base and
    /// mask, reciprocal or cursor step are read from a small table. The
    /// tier is picked without a branch: tier weights are positive and
    /// finite, so the cumulative weights are non-decreasing, and the first
    /// tier whose bound is at least `u` is the count of bounds below `u`,
    /// over every tier but the last.
    pub fn fill(&mut self, mem: &MemoryBehavior, out: &mut [u64]) {
        let tiers = mem.tiers.len();
        if tiers > TABLE_TIERS || out.is_empty() {
            for addr in out {
                *addr = self.next_addr(mem);
            }
            return;
        }
        if self.cursors.len() != tiers {
            self.cursors = vec![0; tiers];
        }
        // A bound of 2 is above every `u`, so padding tiers are never picked.
        let mut bounds = [2.0; TABLE_TIERS - 1];
        bounds[..tiers - 1].copy_from_slice(&mem.cdf[..tiers - 1]);
        let asid = self.asid << 40;
        let mut bases = [0; TABLE_TIERS];
        let mut cursors = [0; TABLE_TIERS];
        let mut offsets = [Offsets::Mask(0); TABLE_TIERS];
        for (ti, tier) in mem.tiers.iter().enumerate() {
            bases[ti] = mem.bases[ti];
            cursors[ti] = self.cursors[ti];
            offsets[ti] = match tier.pattern {
                AccessPattern::Sequential => Offsets::Cursor {
                    step: 64,
                    bytes: tier.bytes,
                },
                AccessPattern::Strided(step) => Offsets::Cursor {
                    step,
                    bytes: tier.bytes,
                },
                AccessPattern::Random if tier.bytes.is_power_of_two() => {
                    Offsets::Mask(tier.bytes - 1)
                }
                AccessPattern::Random => Offsets::Modulo(FastMod::new(tier.bytes)),
            };
        }
        for addr in out.iter_mut() {
            let u: f64 = self.rng.random();
            let ti: usize = bounds.iter().map(|&c| usize::from(u > c)).sum();
            let offset = match offsets[ti] {
                Offsets::Cursor { step, bytes } => {
                    let o = cursors[ti];
                    cursors[ti] = wrap_add(o, step, bytes);
                    o
                }
                Offsets::Mask(mask) => self.rng.next_u64() & mask,
                Offsets::Modulo(bytes) => bytes.rem(self.rng.next_u64()),
            };
            *addr = asid | (bases[ti] + offset);
        }
        self.cursors.copy_from_slice(&cursors[..tiers]);
        self.drawn += out.len() as u64;
    }
}

/// `(cursor + step) % bytes`, by one compare and subtract when the sum is
/// below `2 * bytes`: always, for a cursor already inside the tier and a
/// step smaller than it. A cursor left past the end by an earlier, larger
/// tier, or a step of a tier or more, falls back to the division.
#[inline]
fn wrap_add(cursor: u64, step: u64, bytes: u64) -> u64 {
    let next = cursor + step;
    if next < bytes {
        next
    } else if next - bytes < bytes {
        next - bytes
    } else {
        next % bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_addresses_stay_in_footprint() {
        let mem = MemoryBehavior::uniform(1 << 20);
        let mut s = TaskStream::new(3, 99);
        for _ in 0..1000 {
            let a = s.next_addr(&mem);
            assert_eq!(a >> 40, 3, "asid in high bits");
            assert!((a & ((1 << 40) - 1)) < (1 << 20));
        }
        assert_eq!(s.drawn(), 1000);
    }

    #[test]
    fn sequential_walks_lines_in_order() {
        let mem = MemoryBehavior::streaming(64 * 10);
        let mut s = TaskStream::new(0, 1);
        let addrs: Vec<u64> = (0..12).map(|_| s.next_addr(&mem)).collect();
        assert_eq!(addrs[0], 0);
        assert_eq!(addrs[1], 64);
        assert_eq!(addrs[9], 64 * 9);
        assert_eq!(addrs[10], 0, "wraps at tier end");
    }

    #[test]
    fn strided_wraps() {
        let mem = MemoryBehavior::new(vec![WorkingSetTier::new(
            4096,
            1.0,
            AccessPattern::Strided(1024),
        )]);
        let mut s = TaskStream::new(0, 1);
        let offs: Vec<u64> = (0..5).map(|_| s.next_addr(&mem)).collect();
        assert_eq!(offs, vec![0, 1024, 2048, 3072, 0]);
    }

    #[test]
    fn tiers_are_disjoint_in_address_space() {
        let mem = MemoryBehavior::new(vec![
            WorkingSetTier::new(128 * 1024, 0.8, AccessPattern::Random),
            WorkingSetTier::new(5 << 20, 0.2, AccessPattern::Random),
        ]);
        let mut s = TaskStream::new(1, 7);
        let mut hot = 0;
        let n = 20_000;
        for _ in 0..n {
            let a = s.next_addr(&mem) & ((1 << 40) - 1);
            if a < 128 * 1024 {
                hot += 1;
            } else {
                assert!(a >= 128 * 1024, "cold tier starts after hot tier");
                assert!(a < mem.footprint() + 8192);
            }
        }
        // ~80% of accesses hit the hot tier.
        let frac = hot as f64 / n as f64;
        assert!((0.77..0.83).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mem = MemoryBehavior::uniform(1 << 24);
        let mut a = TaskStream::new(1, 42);
        let mut b = TaskStream::new(1, 42);
        let mut c = TaskStream::new(1, 43);
        let va: Vec<u64> = (0..100).map(|_| a.next_addr(&mem)).collect();
        let vb: Vec<u64> = (0..100).map(|_| b.next_addr(&mem)).collect();
        let vc: Vec<u64> = (0..100).map(|_| c.next_addr(&mem)).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    /// `next_addr` as it was before division-free draws: `random_range`
    /// for random offsets and `%` to wrap cursors.
    fn reference_next_addr(s: &mut TaskStream, mem: &MemoryBehavior) -> u64 {
        if s.cursors.len() != mem.tiers.len() {
            s.cursors = vec![0; mem.tiers.len()];
        }
        s.drawn += 1;
        let u: f64 = s.rng.random();
        let ti = mem.pick_tier(u);
        let tier = &mem.tiers[ti];
        let offset = match tier.pattern {
            AccessPattern::Sequential => {
                let o = s.cursors[ti];
                s.cursors[ti] = (o + 64) % tier.bytes;
                o
            }
            AccessPattern::Strided(stride) => {
                let o = s.cursors[ti];
                s.cursors[ti] = (o + stride) % tier.bytes;
                o
            }
            AccessPattern::Random => s.rng.random_range(0..tier.bytes),
        };
        (s.asid << 40) | (mem.bases[ti] + offset)
    }

    /// The division-free draw against the reference over 10k draws per
    /// behaviour: random tiers of power-of-two and other sizes, sequential
    /// tiers that are not a whole number of lines, strides below, equal to
    /// and above the tier, and a phase change that leaves cursors past the
    /// end of smaller tiers.
    #[test]
    fn next_addr_matches_the_division_reference() {
        use AccessPattern::{Random, Sequential, Strided};
        let tiers = |t: &[(u64, AccessPattern)]| {
            MemoryBehavior::new(
                t.iter()
                    .map(|&(bytes, pattern)| WorkingSetTier::new(bytes, 1.0, pattern))
                    .collect(),
            )
        };
        let behaviours = [
            tiers(&[(16 << 10, Random), (4 << 20, Random)]),
            tiers(&[(5 << 20, Random), (24_000, Random), (64, Random)]),
            tiers(&[(1000, Sequential), (64 * 7 + 8, Sequential)]),
            tiers(&[
                (4096, Strided(192)),
                (4096, Strided(4096)),
                (4096, Strided(10_000)),
            ]),
            tiers(&[
                (5000, Strided(4999)),
                (640, Strided(64)),
                (100, Strided(250)),
            ]),
        ];
        let shrunk = tiers(&[(200, Sequential), (300, Strided(128)), (96, Strided(64))]);
        for (b, mem) in behaviours.iter().enumerate() {
            let mut fast = TaskStream::new(b as u64 + 1, 17 * b as u64);
            let mut reference = fast.clone();
            for k in 0..10_000 {
                // Same tier count, smaller tiers: cursors left past the end.
                let mem = if b >= 3 && k >= 5_000 { &shrunk } else { mem };
                assert_eq!(
                    fast.next_addr(mem),
                    reference_next_addr(&mut reference, mem),
                    "behaviour {b}, draw {k}"
                );
                assert_eq!(fast.cursors, reference.cursors, "behaviour {b}, draw {k}");
            }
            assert_eq!(fast.drawn(), reference.drawn());
        }
    }

    /// Batches through `fill` against the same draws one `next_addr` at a
    /// time: the addresses, `drawn()`, and the address each stream draws
    /// next (which depends on its RNG state and cursors) must agree, over
    /// every pattern, power-of-two and other random tiers, strides below,
    /// at and above the tier, one to six tiers (more than the fill table
    /// holds), and cursors left past the end of a smaller tier.
    #[test]
    fn fill_matches_repeated_next_addr() {
        use AccessPattern::{Random, Sequential, Strided};
        let tiers = |t: &[(u64, f64, AccessPattern)]| {
            MemoryBehavior::new(
                t.iter()
                    .map(|&(bytes, weight, pattern)| WorkingSetTier::new(bytes, weight, pattern))
                    .collect(),
            )
        };
        let behaviours = [
            MemoryBehavior::uniform(16 << 10),
            MemoryBehavior::uniform(24_000),
            MemoryBehavior::streaming(1000),
            tiers(&[(16 << 10, 0.7, Random), (5 << 20, 0.3, Random)]),
            tiers(&[
                (144 << 10, 0.5, Random),
                (4_718_592, 0.3, Random),
                (400 << 20, 0.2, Random),
            ]),
            tiers(&[
                (4096, 1.0, Strided(192)),
                (4096, 1.0, Strided(4096)),
                (4096, 1.0, Strided(10_000)),
                (5000, 2.0, Strided(4999)),
            ]),
            tiers(&[
                (640, 0.1, Strided(64)),
                (100, 0.2, Strided(250)),
                (64 * 7 + 8, 0.3, Sequential),
                (24_000, 0.2, Random),
                (1 << 20, 0.1, Random),
            ]),
            tiers(&[
                (64, 1.0, Random),
                (65, 1.0, Random),
                (200, 1.0, Sequential),
                (300, 1.0, Strided(128)),
                (4096, 1.0, Strided(8192)),
                (3 << 30, 1.0, Random),
            ]),
        ];
        // Tier sizes of the last three behaviours, shrunk: cursors left past
        // the end of the smaller tiers.
        let shrunk = [
            tiers(&[
                (100, 1.0, Strided(192)),
                (200, 1.0, Strided(4096)),
                (64, 1.0, Strided(10_000)),
                (128, 2.0, Strided(4999)),
            ]),
            tiers(&[
                (64, 0.1, Strided(64)),
                (96, 0.2, Strided(250)),
                (100, 0.3, Sequential),
                (24_000, 0.2, Random),
                (1 << 20, 0.1, Random),
            ]),
            tiers(&[
                (64, 1.0, Random),
                (65, 1.0, Random),
                (64, 1.0, Sequential),
                (100, 1.0, Strided(128)),
                (128, 1.0, Strided(8192)),
                (3 << 30, 1.0, Random),
            ]),
        ];
        let batches = [0, 1, 3, 64, 1000, 4096];
        for (b, mem) in behaviours.iter().enumerate() {
            let mut batched = TaskStream::new(b as u64 + 1, 31 * b as u64);
            let mut single = batched.clone();
            let mut buf = vec![0; 4096];
            for (k, &len) in batches.iter().cycle().take(24).enumerate() {
                let mem = match b.checked_sub(behaviours.len() - shrunk.len()) {
                    Some(s) if k >= 12 => &shrunk[s],
                    _ => mem,
                };
                let ctx = format!("behaviour {b}, batch {k} of {len}");
                batched.fill(mem, &mut buf[..len]);
                let expected: Vec<u64> = (0..len).map(|_| single.next_addr(mem)).collect();
                assert_eq!(buf[..len], expected[..], "{ctx}: addresses");
                assert_eq!(batched.drawn(), single.drawn(), "{ctx}: drawn");
                assert_eq!(batched.cursors, single.cursors, "{ctx}: cursors");
                let (mut a, mut s) = (batched.clone(), single.clone());
                assert_eq!(a.next_addr(mem), s.next_addr(mem), "{ctx}: next address");
            }
        }
    }

    /// An infinite weight would make the cumulative weights NaN, and the
    /// tier pick of `fill` would then differ from `next_addr`'s.
    #[test]
    #[should_panic(expected = "positive and finite")]
    fn infinite_tier_weight_panics() {
        WorkingSetTier::new(4096, f64::INFINITY, AccessPattern::Random);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_tiers_panic() {
        MemoryBehavior::new(vec![]);
    }

    #[test]
    fn with_asid_preserves_sequence_under_new_namespace() {
        let mem = MemoryBehavior::uniform(1 << 24);
        let mut a = TaskStream::new(1, 42);
        let mut b = TaskStream::new(1, 42);
        // Advance both identically, then move `b` to a new address space.
        for _ in 0..50 {
            a.next_addr(&mem);
            b.next_addr(&mem);
        }
        let mut b = b.with_asid(9);
        assert_eq!(b.asid(), 9);
        assert_eq!(b.drawn(), 50);
        let va: Vec<u64> = (0..100)
            .map(|_| a.next_addr(&mem) & ((1 << 40) - 1))
            .collect();
        let vb: Vec<u64> = (0..100)
            .map(|_| {
                let addr = b.next_addr(&mem);
                assert_eq!(addr >> 40, 9, "remapped asid in high bits");
                addr & ((1 << 40) - 1)
            })
            .collect();
        assert_eq!(va, vb, "offsets continue identically after the remap");
    }
}
