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
//!
//! Each stream draws from its own SplitMix64, seeded as the vendored `rand`
//! stub's `SmallRng` was, so every stream draws what it always drew.
//! SplitMix64 is counter-based (draw `k` after state `s` is
//! `mix(s + k·γ)`), so a batch can be drawn in lanes: when every tier of a
//! behaviour is random and CPUID reports AVX-512F and AVX-512DQ,
//! [`TaskStream::fill`] draws eight addresses per step in vector
//! registers. A tier size that is a power of two is reduced by a mask, and
//! any other `o·2ᵏ` (odd `o`, `k ≥ 11`, every such size shipped) by an
//! exact remainder in lanes. Sequential and strided tiers, smaller `k`,
//! and hosts without those extensions take the scalar loop, and
//! [`TaskStream::next_addr`], one address at a time, stays the reference
//! both batch forms are checked against.

use crate::fastmod::FastMod;
use crate::vector::Avx512Dq;

/// How addresses are drawn within one tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPattern {
    /// Consecutive lines, wrapping at the tier end (streaming).
    Sequential,
    /// Fixed stride in bytes, wrapping at the tier end.
    Strided(u64),
    /// Uniformly random byte offsets (pointer-chasing-like footprints).
    Random,
}

/// One tier of a task's working set.
#[derive(Clone, Debug, PartialEq)]
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
#[derive(Clone, Debug, PartialEq)]
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
    rng: SplitMix64,
    cursors: Vec<u64>,
    drawn: u64,
}

impl TaskStream {
    /// `asid` must be unique per task (the kernel uses the pid); `seed`
    /// determines the random tier/offset choices.
    pub fn new(asid: u64, seed: u64) -> Self {
        TaskStream {
            asid,
            rng: SplitMix64::new(seed ^ 0x7469_7074_6f70_5f73), // "tiptop_s"
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
        let u = self.rng.next_f64();
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
            // For a power-of-two size, the remainder is the low bits.
            AccessPattern::Random if tier.bytes.is_power_of_two() => {
                self.rng.next_u64() & (tier.bytes - 1)
            }
            AccessPattern::Random => self.rng.next_u64() % tier.bytes,
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
    ///
    /// When every tier is random, each a power of two in size or `o·2ᵏ`
    /// bytes with `k ≥ 11` and at most 2⁵³ bytes, and the host has
    /// AVX-512F and AVX-512DQ, the batch is drawn eight addresses at a
    /// time, and only its last `len % 8` by the scalar loop, which draws
    /// every other batch. The lanes' table is resolved per batch on the
    /// stack, like the scalar one, so building a behaviour costs nothing
    /// more; the scalar table is resolved only when the scalar loop has
    /// addresses left to draw.
    pub fn fill(&mut self, mem: &MemoryBehavior, out: &mut [u64]) {
        self.fill_on(Avx512Dq::detect(), mem, out);
    }

    /// [`TaskStream::fill`], drawing in eight lanes only when `vector`
    /// proves the host can.
    fn fill_on(&mut self, vector: Option<Avx512Dq>, mem: &MemoryBehavior, out: &mut [u64]) {
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
        self.drawn += out.len() as u64;
        // A bound of 2 is above every `u`, so padding tiers are never picked.
        let mut bounds = [2.0; TABLE_TIERS - 1];
        bounds[..tiers - 1].copy_from_slice(&mem.cdf[..tiers - 1]);
        let asid = self.asid << 40;
        let mut bases = [0; TABLE_TIERS];
        bases[..tiers].copy_from_slice(&mem.bases);
        let mut rest = &mut *out;
        #[cfg(target_arch = "x86_64")]
        if let Some(dq) = vector {
            if let Some(table) = DrawTable::new(mem, bounds, bases, asid) {
                let (lanes, tail) = rest.split_at_mut(rest.len() / LANES * LANES);
                let rng = &mut self.rng;
                // A table of powers of two takes the mask-only kernel. The
                // reducing one gives the same addresses there, but 256-address
                // fills of 32 KiB, 16 KiB + 4 MiB and 32 KiB + 2 MiB + 1 GiB
                // tables cost it 1.68–1.71 ns per address against 1.13–1.15
                // (medians of 20 alternating pairs, the mask form faster in
                // every pair; Xeon family 6 model 143, 2 vCPUs).
                //
                // SAFETY: `dq` is an `Avx512Dq`, which only exists where
                // CPUID reported AVX-512F and AVX-512DQ (`Avx512Dq::detect`).
                unsafe {
                    if table.divisors.iter().any(|&d| d != 0) {
                        draw_avx512::<true>(dq, rng, &table, lanes);
                    } else {
                        draw_avx512::<false>(dq, rng, &table, lanes);
                    }
                }
                rest = tail;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = vector;
        // The lanes draw whole batches of random tiers, which move no
        // cursor, so a batch they finish needs no scalar table (whose
        // reciprocals each cost a 128-bit division).
        if rest.is_empty() {
            return;
        }
        let mut cursors = [0; TABLE_TIERS];
        let mut offsets = [Offsets::Mask(0); TABLE_TIERS];
        for (ti, tier) in mem.tiers.iter().enumerate() {
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
        for addr in rest.iter_mut() {
            let u = self.rng.next_f64();
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
    }
}

/// SplitMix64, the generator of every address stream: the vendored `rand`
/// stub's `SmallRng`, seeded the same way, so every stream draws what it
/// drew through the stub. It is counter-based: after state `s`, draw `k`
/// (from 1) is `mix(s + k·γ)`, so a batch of draws can be computed in
/// lanes, each from the state it starts from.
#[derive(Clone, Debug)]
struct SplitMix64 {
    state: u64,
}

/// SplitMix64's increment γ, the golden ratio in 64-bit fixed point.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
/// SplitMix64's two mixing multipliers.
const MIX: [u64; 2] = [0xBF58_476D_1CE4_E5B9, 0x94D0_49BB_1331_11EB];

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(MIX[0]);
        z = (z ^ (z >> 27)).wrapping_mul(MIX[1]);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits of a draw, exactly.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * UNIT
    }
}

/// `2^-53`: one step of [`SplitMix64::next_f64`].
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// Addresses [`draw_avx512`] draws per step: one per 64-bit lane.
#[cfg(target_arch = "x86_64")]
const LANES: usize = 8;

/// Low bits of an offset draw [`lane_rem`] drops before it converts the
/// rest to a double: what is left is below 2⁵³, so it converts exactly.
#[cfg(target_arch = "x86_64")]
const LANE_SHIFT: u32 = 11;

/// The tier table of a batch whose tiers are all random, padded to
/// [`TABLE_TIERS`]: the bounds of the tier pick, each tier's
/// [`lane_rem`] constants and base, and the address-space bits.
#[cfg(target_arch = "x86_64")]
struct DrawTable {
    bounds: [f64; TABLE_TIERS - 1],
    /// `2¹¹ / bytes`, rounded to nearest, for a tier that is not a power
    /// of two; 0 for one that is.
    scales: [f64; TABLE_TIERS],
    /// The size in bytes of a tier that is not a power of two; 0 for one
    /// that is.
    divisors: [u64; TABLE_TIERS],
    /// `bytes − 1` for a power of two; all ones for any other size.
    masks: [u64; TABLE_TIERS],
    bases: [u64; TABLE_TIERS],
    asid: u64,
}

#[cfg(target_arch = "x86_64")]
impl DrawTable {
    /// The table of `mem`'s tiers, if [`lane_rem`] reduces every one of
    /// them exactly: each is random, and its size is a power of two or
    /// `o·2ᵏ` with `k ≥ 11` and at most 2⁵³ bytes. Padding tiers, never
    /// picked, keep zeros.
    fn new(
        mem: &MemoryBehavior,
        bounds: [f64; TABLE_TIERS - 1],
        bases: [u64; TABLE_TIERS],
        asid: u64,
    ) -> Option<Self> {
        let mut table = DrawTable {
            bounds,
            scales: [0.0; TABLE_TIERS],
            divisors: [0; TABLE_TIERS],
            masks: [0; TABLE_TIERS],
            bases,
            asid,
        };
        for (ti, tier) in mem.tiers.iter().enumerate() {
            let bytes = tier.bytes;
            if tier.pattern != AccessPattern::Random {
                return None;
            } else if bytes.is_power_of_two() {
                table.masks[ti] = bytes - 1;
            } else if bytes.trailing_zeros() >= LANE_SHIFT && bytes <= 1 << 53 {
                // Both operands are exact doubles, so the quotient is
                // rounded once.
                table.scales[ti] = (1u64 << LANE_SHIFT) as f64 / bytes as f64;
                table.divisors[ti] = bytes;
                table.masks[ti] = u64::MAX;
            } else {
                return None;
            }
        }
        Some(table)
    }
}

/// `x mod bytes` in each lane, exactly, for a lane's [`DrawTable`]
/// constants: `scale`, `divisor` and `mask`.
///
/// A size that is not a power of two is `D = o·2ᵏ` with `o ≥ 3` odd,
/// `k ≥ 11` and `D ≤ 2⁵³`. Write `q = ⌊x / 2¹¹⌋`, which is below 2⁵³ and
/// so converts to a double exactly, and `D′ = D / 2¹¹ = o·2ᵏ⁻¹¹ ≥ 3`, an
/// integer, so that `n = ⌊x / D⌋ = ⌊q / D′⌋`. The scale is `s = 1/D′`
/// rounded once, and `p = q·s` is rounded once more, each with a relative
/// error of at most `u = 2⁻⁵³`. So `|p − q/D′| ≤ (q/D′)(2u + u²)`, which
/// is below `2⁵³/D′ · 2.01·2⁻⁵³ = 2.01/D′ < 1`. Then `p ≥ 0` truncates
/// (`vcvttpd2uqq`) to `t ∈ {n − 1, n, n + 1}`, and `r = x − t·D` is
/// `x mod D` plus `D`, 0 or `−D`: a value in `[−D, 2D)`, held mod 2⁶⁴.
/// Of `r − D`, `r` and `r + D` exactly one is `x mod D`, in `[0, D)`. Each
/// other one lies in `[D, 3D)`, or is negative and wraps to at least
/// `2⁶⁴ − 2D`, which is above `D` since `3D ≤ 2⁶⁴`. So their unsigned
/// minimum is `x mod D`, and the mask of all ones keeps it.
///
/// A power of two has scale and divisor 0: then `t·D = 0`, all three
/// candidates are `x`, and the mask `D − 1` takes `x mod D`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
#[inline]
fn lane_rem(
    x: std::arch::x86_64::__m512i,
    scale: std::arch::x86_64::__m512d,
    divisor: std::arch::x86_64::__m512i,
    mask: std::arch::x86_64::__m512i,
) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_and_si512, _mm512_cvtepu64_pd, _mm512_cvttpd_epu64,
        _mm512_min_epu64, _mm512_mul_pd, _mm512_mullo_epi64, _mm512_srli_epi64, _mm512_sub_epi64,
    };
    let q = _mm512_cvtepu64_pd(_mm512_srli_epi64::<LANE_SHIFT>(x));
    let t = _mm512_cvttpd_epu64(_mm512_mul_pd(q, scale));
    let r = _mm512_sub_epi64(x, _mm512_mullo_epi64(t, divisor));
    let low = _mm512_min_epu64(r, _mm512_sub_epi64(r, divisor));
    _mm512_and_si512(_mm512_min_epu64(low, _mm512_add_epi64(r, divisor)), mask)
}

/// Fill `out`, a whole number of [`LANES`] long, with the addresses the
/// scalar loop of [`TaskStream::fill`] draws from `table`, eight at a time
/// in AVX-512F and AVX-512DQ, leaving `rng` where that loop leaves it.
///
/// Every address takes two draws, its `u` and its offset, so address `a`
/// of a step takes draws `2a + 1` and `2a + 2` past the step's state, which
/// SplitMix64 being counter-based computes in lanes: `vpmullq` mixes
/// them, the top 53 bits of `u`'s draw convert exactly (`vcvtuqq2pd`),
/// three `vcmppd` compares against the bounds count the tier, `vpermq`
/// gathers each lane's tier constants and base from the table, and
/// [`lane_rem`] reduces the offset draw to the tier.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn draw_avx512<const REDUCE: bool>(
    _: Avx512Dq,
    rng: &mut SplitMix64,
    table: &DrawTable,
    out: &mut [u64],
) {
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_cmp_pd_mask, _mm512_cvtepu64_pd,
        _mm512_loadu_epi64, _mm512_mask_add_epi64, _mm512_maskz_loadu_epi64, _mm512_maskz_loadu_pd,
        _mm512_mul_pd, _mm512_mullo_epi64, _mm512_or_si512, _mm512_permutexvar_epi64,
        _mm512_permutexvar_pd, _mm512_set1_epi64, _mm512_set1_pd, _mm512_setzero_si512,
        _mm512_srli_epi64, _mm512_storeu_epi64, _mm512_xor_si512, _CMP_GT_OQ,
    };
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn mix(z: __m512i, mul: [__m512i; 2]) -> __m512i {
        let z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)), mul[0]);
        let z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), mul[1]);
        _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
    }
    let tier_lanes = (1 << TABLE_TIERS) - 1;
    // SAFETY: each load reads the first `TABLE_TIERS` lanes, which each
    // table holds, and no memory for the lanes its mask leaves out.
    let (scales, divisors, masks, bases) = unsafe {
        (
            _mm512_maskz_loadu_pd(tier_lanes, table.scales.as_ptr()),
            _mm512_maskz_loadu_epi64(tier_lanes, table.divisors.as_ptr().cast()),
            _mm512_maskz_loadu_epi64(tier_lanes, table.masks.as_ptr().cast()),
            _mm512_maskz_loadu_epi64(tier_lanes, table.bases.as_ptr().cast()),
        )
    };
    let bounds = table.bounds.map(|c| _mm512_set1_pd(c));
    let unit = _mm512_set1_pd(UNIT);
    let one = _mm512_set1_epi64(1);
    let asid = _mm512_set1_epi64(table.asid as i64);
    let mul = MIX.map(|m| _mm512_set1_epi64(m as i64));
    // Lane `a` draws its `u` at `2a + 1` increments past a step's state,
    // and its offset at `2a + 2`.
    let steps: [u64; LANES] = std::array::from_fn(|a| GAMMA.wrapping_mul(2 * a as u64 + 1));
    // SAFETY: `steps` holds the eight 64-bit lanes the load reads.
    let u_steps = unsafe { _mm512_loadu_epi64(steps.as_ptr().cast()) };
    let offset_steps = _mm512_add_epi64(u_steps, _mm512_set1_epi64(GAMMA as i64));
    let batch = GAMMA.wrapping_mul(2 * LANES as u64);
    for chunk in out.chunks_exact_mut(LANES) {
        let state = _mm512_set1_epi64(rng.state as i64);
        let u_draw = mix(_mm512_add_epi64(state, u_steps), mul);
        let offset_draw = mix(_mm512_add_epi64(state, offset_steps), mul);
        rng.state = rng.state.wrapping_add(batch);
        let u = _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(u_draw)), unit);
        // Each bound below `u` adds one to the lane's tier.
        let tier = bounds.iter().fold(_mm512_setzero_si512(), |tier, &c| {
            _mm512_mask_add_epi64(tier, _mm512_cmp_pd_mask::<_CMP_GT_OQ>(u, c), tier, one)
        });
        let mask = _mm512_permutexvar_epi64(tier, masks);
        let offset = if REDUCE {
            let scale = _mm512_permutexvar_pd(tier, scales);
            lane_rem(
                offset_draw,
                scale,
                _mm512_permutexvar_epi64(tier, divisors),
                mask,
            )
        } else {
            _mm512_and_si512(offset_draw, mask)
        };
        let addr = _mm512_or_si512(
            asid,
            _mm512_add_epi64(_mm512_permutexvar_epi64(tier, bases), offset),
        );
        // SAFETY: `chunk` is eight 64-bit slots, all the store writes.
        unsafe { _mm512_storeu_epi64(chunk.as_mut_ptr().cast(), addr) };
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
        let u = s.rng.next_f64();
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
            AccessPattern::Random => s.rng.next_u64() % tier.bytes,
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

    /// Random tier sizes the 8-lane draw takes: powers of two from one line
    /// up, and every shipped size of the form `o·2ᵏ` (24 KiB, 36 KiB,
    /// 144 KiB, 4.5 MiB, 5 MiB, 6 MiB, 24 MiB and 400 MiB).
    const LANE_SIZES: [u64; 12] = [
        64,
        16 << 10,
        4 << 20,
        1 << 30,
        24 << 10,
        36 << 10,
        144 << 10,
        9 << 19,
        5 << 20,
        6 << 20,
        24 << 20,
        400 << 20,
    ];

    /// Batches through the fill of each host's kernel against the scalar
    /// fill on a twin stream, for tables of one to four random tiers, of
    /// power-of-two sizes, of `o·2ᵏ` sizes (uniform 24 KiB as every
    /// pipeline stage draws, the datacenter jobs' 16 KiB + 5 or 6 MiB, and
    /// 429.mcf's 144 KiB + 4.5 MiB + 400 MiB) and of both mixed, and every
    /// batch length from 0 to 40 and 256: the same addresses, the same
    /// `drawn()`, and the same address from the next scalar draw. Each
    /// stream starts its batch where the previous one and a few single
    /// draws left it, so batches begin at every offset of the generator,
    /// and a second batch resumes from the first. On a host without
    /// AVX-512F and DQ both fills are scalar.
    #[test]
    fn vector_fill_matches_the_scalar_fill() {
        use AccessPattern::Random;
        println!("sampler kernels: {}", crate::sampler_kernels());
        let tables: [&[u64]; 10] = [
            &[16 << 10],
            &[16 << 10, 4 << 20],
            &[16 << 10, 4 << 20, 64],
            &[16 << 10, 4 << 20, 64, 1 << 30],
            &[24 << 10],
            &[16 << 10, 5 << 20],
            &[16 << 10, 6 << 20],
            &[144 << 10, 9 << 19, 400 << 20],
            &[24 << 10, 64, 24 << 20, 1 << 30],
            &[36 << 10, 5 << 20, 6 << 20, 3 << 30],
        ];
        let weights = [0.55, 0.25, 0.15, 0.05];
        for (b, sizes) in tables.into_iter().enumerate() {
            let tiers = sizes.len();
            let mem = MemoryBehavior::new(
                sizes
                    .iter()
                    .zip(weights)
                    .map(|(&bytes, weight)| WorkingSetTier::new(bytes, weight, Random))
                    .collect(),
            );
            #[cfg(target_arch = "x86_64")]
            assert!(
                DrawTable::new(&mem, [2.0; 3], [0; 4], 0).is_some(),
                "{sizes:?} in lanes"
            );
            let mut vector = TaskStream::new(b as u64 + 1, 97 * (b as u64 + 1));
            let mut scalar = vector.clone();
            let mut picked = [false; 4];
            for len in (0..=40).chain([256]) {
                let ctx = format!("tiers {sizes:?}, batch of {len}");
                for _ in 0..len % 3 {
                    assert_eq!(vector.next_addr(&mem), scalar.next_addr(&mem), "{ctx}");
                }
                let (mut fast, mut slow) = (vec![0; len], vec![0; len]);
                vector.fill_on(Avx512Dq::detect(), &mem, &mut fast);
                scalar.fill_on(None, &mem, &mut slow);
                assert_eq!(fast, slow, "{ctx}: addresses");
                let (mut fast, mut slow) = (vec![0; 13], vec![0; 13]);
                vector.fill_on(Avx512Dq::detect(), &mem, &mut fast);
                scalar.fill_on(None, &mem, &mut slow);
                assert_eq!(fast, slow, "{ctx}: the batch after it");
                assert_eq!(vector.drawn(), scalar.drawn(), "{ctx}: drawn");
                let next = vector.clone().next_addr(&mem);
                assert_eq!(next, scalar.clone().next_addr(&mem), "{ctx}: next draw");
                for addr in fast {
                    let offset = addr & ((1 << 40) - 1);
                    picked[mem.bases.iter().rposition(|&b| b <= offset).unwrap()] = true;
                }
            }
            assert!(
                picked[..tiers].iter().all(|&p| p),
                "tiers {sizes:?}: {picked:?}"
            );
        }
    }

    /// The 8-lane remainder of [`lane_rem`] against `%`, for every size in
    /// [`LANE_SIZES`] and 2,000 seeded random sizes `o·2ᵏ` (odd `o < 2¹⁶`,
    /// `11 ≤ k` and at most 2⁵³ bytes). The values are the edges and seeded
    /// lines of the multiply-based remainder's oracle, and multiples of
    /// the size ± 1, where the rounded quotient is most often one off, up
    /// to the largest below 2⁶⁴. On a host without AVX-512F and DQ it
    /// checks only that the table takes every size.
    #[test]
    fn lane_remainder_equals_the_remainder() {
        use crate::fastmod::tests::lines;
        let mut rng = SplitMix64::new(0x6c61_6e65);
        let random = (0..2_000).map(|_| {
            let o = (rng.next_u64() % (1 << 16)) | 1;
            let k = 11 + rng.next_u64() % u64::from(53 - 11 - (64 - o.leading_zeros()) + 1);
            o << k
        });
        let sizes: Vec<u64> = LANE_SIZES.into_iter().chain(random).collect();
        assert!(sizes.iter().all(|&d| d <= 1 << 53));
        #[cfg(target_arch = "x86_64")]
        println!("sampler kernels: {}", crate::sampler_kernels());
        for (n, &bytes) in sizes.iter().enumerate() {
            let mem = MemoryBehavior::uniform(bytes);
            #[cfg(target_arch = "x86_64")]
            {
                let table = DrawTable::new(&mem, [2.0; 3], [0; 4], 0);
                let table = table.unwrap_or_else(|| panic!("{bytes} in lanes"));
                let Some(dq) = Avx512Dq::detect() else {
                    continue;
                };
                let top = u64::MAX / bytes;
                let multiples = (0..64)
                    .flat_map(|j| [top - j, (1 << j).min(top)])
                    .flat_map(|m| [m * bytes - 1, m * bytes, m * bytes + 1]);
                // The shipped sizes take the whole oracle, random ones a
                // part of its seeded lines.
                let lines =
                    lines(bytes, bytes).take(if n < LANE_SIZES.len() { 20_015 } else { 1_015 });
                let xs: Vec<u64> = lines.chain(multiples).collect();
                for chunk in xs.chunks(LANES) {
                    let mut x = [0; LANES];
                    x[..chunk.len()].copy_from_slice(chunk);
                    // SAFETY: `dq` proves the host has AVX-512F and DQ.
                    let rem = unsafe { rem_lanes(dq, &table, x) };
                    for (&x, r) in x.iter().zip(rem) {
                        assert_eq!(r, x % bytes, "{x} mod {bytes}");
                    }
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = (n, mem);
        }
    }

    /// `x mod` the first tier of `table`, eight lanes at a time.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn rem_lanes(_: Avx512Dq, table: &DrawTable, x: [u64; LANES]) -> [u64; LANES] {
        use std::arch::x86_64::{
            _mm512_loadu_epi64, _mm512_set1_epi64, _mm512_set1_pd, _mm512_storeu_epi64,
        };
        let mut out = [0; LANES];
        // SAFETY: `x` and `out` each hold the eight 64-bit lanes the load
        // reads and the store writes.
        unsafe {
            let rem = lane_rem(
                _mm512_loadu_epi64(x.as_ptr().cast()),
                _mm512_set1_pd(table.scales[0]),
                _mm512_set1_epi64(table.divisors[0] as i64),
                _mm512_set1_epi64(table.masks[0] as i64),
            );
            _mm512_storeu_epi64(out.as_mut_ptr().cast(), rem);
        }
        out
    }

    /// The stream's own SplitMix64 draws exactly what the vendored `rand`
    /// stub's `SmallRng` draws from the same seed, which every stream drew
    /// from before: as integers and as uniform floats.
    #[test]
    fn splitmix_matches_the_rand_stub() {
        use rand::rngs::SmallRng;
        use rand::{RngCore, RngExt, SeedableRng};
        for seed in [0, 1, 0x7469_7074_6f70_5f73, u64::MAX] {
            let mut own = SplitMix64::new(seed);
            let mut stub = SmallRng::seed_from_u64(seed);
            for k in 0..1000 {
                if k % 2 == 0 {
                    assert_eq!(own.next_u64(), stub.next_u64(), "seed {seed}, draw {k}");
                } else {
                    let u: f64 = stub.random();
                    assert_eq!(
                        own.next_f64().to_bits(),
                        u.to_bits(),
                        "seed {seed}, draw {k}"
                    );
                }
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
