//! Set-associative cache model.
//!
//! The interference phenomena the paper studies (Section 3.4: multiple copies
//! of 429.mcf degrading each other through the shared L3, SMT siblings
//! thrashing a shared L2) require caches with real capacity and replacement
//! behaviour — a miss-rate formula per task cannot exhibit *cross-task*
//! contention. This module implements a classic set-associative LRU cache and
//! the three-level hierarchy lookup used by [`crate::Machine`].
//!
//! Tags carry the full (address-space-qualified) line address, so two tasks
//! touching the same virtual addresses still conflict only through capacity,
//! never through aliasing.
//!
//! Every access does the same work whichever way it hits: a set's recency
//! order *is* the slot order (slot 0 is MRU, slot `ways - 1` the victim), and
//! an access moves its line to slot 0 with a bitmask lookup and per-slot
//! selects over a fixed-width array instead of a search and a rotate. The
//! set index is a mask whenever the set count is a power of two: every
//! shipped cache but the E5640's 12,288-set L3, which only L2 misses reach,
//! and whose index is an exact multiply-based remainder instead of a `%`.
//!
//! Tags are allocated lazily, on a cache's first access, and the machine's
//! sampler walks each cache's samples of an epoch in one call
//! (`SetAssocCache::walk`): the tag array, set rule, padded width and way
//! count are resolved once per walk, not once per access. The sets start
//! on a host cache line, and a walk over a slice of samples
//! (`SetAssocCache::walk_slice`) prefetches each sample's set a few
//! samples ahead.
//!
//! A walk over sets of 8 or 16 slots (every shipped L1, L2 and L3 has one
//! of those widths) runs in AVX-512F when CPUID reports it, which the
//! `vector` module reads at run time: one `vpcmpeqq` per eight slots gives
//! the hit mask, and a `valignq` written back under the mask of the slots
//! up to the hit or the victim is the same rotation as the scalar
//! per-slot selects. Every other host and width runs the scalar
//! `access_fixed`, which stays the reference: the two give the same tags,
//! hits and order of reports, bit for bit.

use crate::fastmod::FastMod;
use crate::vector::Avx512F;

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheGeometry {
    /// Convenience constructor with sizes in KiB.
    pub fn kib(size_kib: u64, ways: u32, line_bytes: u32) -> Self {
        CacheGeometry {
            size_bytes: size_kib * 1024,
            ways,
            line_bytes,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// Set counts need not be powers of two (the 12 MB L3 of the Xeon E5640
    /// has 12288 sets). A line maps to set `line mod sets`, which
    /// [`SetAssocCache`] computes as `line & (sets - 1)` when the set count
    /// is a power of two.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero ways/line, more than 64
    /// ways, a non-power-of-two line size, or capacity not a multiple of
    /// `ways * line_bytes`).
    pub fn num_sets(&self) -> u64 {
        assert!(
            self.ways > 0 && self.line_bytes > 0,
            "degenerate cache geometry"
        );
        assert!(
            self.ways <= MAX_WAYS,
            "associativity {} exceeds {MAX_WAYS} ways",
            self.ways
        );
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let per_set = self.ways as u64 * self.line_bytes as u64;
        assert!(
            self.size_bytes.is_multiple_of(per_set),
            "capacity {} not a multiple of ways*line {}",
            self.size_bytes,
            per_set
        );
        self.size_bytes / per_set
    }

    pub fn size_kib(&self) -> u64 {
        self.size_bytes / 1024
    }
}

/// Which level of the hierarchy an access was served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CacheLevel {
    L1,
    L2,
    L3,
    Memory,
}

/// A set-associative cache with true-LRU replacement.
///
/// Stores 64-bit *line* tags (already shifted by the line size and qualified
/// with the owning task's address-space id by the caller). `u64::MAX` is
/// reserved as the invalid tag.
///
/// Each set is `width` slots, the associativity rounded up to a power of
/// two, and its recency order is the slot position: slot 0 holds the MRU
/// line and slot `ways - 1` the LRU line, the next victim. No per-way stamps
/// are kept. Slots past `ways` (only when the associativity is not a power
/// of two, which no shipped geometry is) stay invalid and never match.
///
/// A line's set is `line & (sets - 1)` when the set count is a power of two
/// and `line % sets` otherwise. The remainder is taken by multiplication
/// (see `FastMod`), with a reciprocal computed when the tag array is
/// materialised rather than in [`SetAssocCache::new`], so a cache that is
/// never touched never pays for it.
///
/// The tag array is allocated **lazily, on the first access**: a machine
/// whose workload never touches memory (the cluster bench's pure-compute
/// jobs, any `loads_per_insn == 0` profile) carries the geometry but none
/// of the `sets × width × 8` bytes — at fleet scale that is hundreds of KiB
/// per simulated machine that is never paid. An untouched cache behaves
/// exactly like an all-invalid one: every probe misses, no lines resident.
/// The sets start on a host cache line, so a set of up to eight slots is
/// one host line and a 16-slot L3 set is two.
///
/// [`SetAssocCache::access`] takes one address; the machine's sampler walks
/// a whole sequence with `SetAssocCache::walk`, which resolves the tag
/// array, set rule, width and associativity once for the sequence. Both run
/// the same per-set routine, so a walk is exactly the repeated accesses.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    line_shift: u32,
    /// Slots per set: the associativity rounded up to a power of two.
    width: u32,
    index: SetIndex,
    /// `sets * width` tags from slot `first` on, LRU-ordered within each
    /// set: index 0 is MRU. Empty until the first access.
    tags: Vec<u64>,
    /// The first slot of the sets: the first on a host cache line, when
    /// the allocator gives one within [`LINE_SLOTS`]. The slots before it
    /// stay invalid.
    first: usize,
    hits: u64,
    misses: u64,
}

/// How a line finds its set, fixed by the set count.
#[derive(Clone, Debug)]
enum SetIndex {
    /// `line & mask`, for a power-of-two set count `mask + 1`.
    Mask(u64),
    /// `line % sets`, for any other set count, before the tags exist.
    Divide(u64),
    /// `line % sets` by multiplication: [`SetIndex::Divide`] once the tags
    /// are materialised. Boxed, so that every cache, fleets of untouched
    /// ones included, keeps a one-word index.
    Multiply(Box<FastMod>),
}

impl SetIndex {
    #[inline(always)]
    fn set(&self, line: u64) -> usize {
        (match self {
            SetIndex::Mask(mask) => line & mask,
            SetIndex::Divide(sets) => line % sets,
            SetIndex::Multiply(sets) => sets.rem(line),
        }) as usize
    }
}

const INVALID: u64 = u64::MAX;

/// Widest supported set: one bit per way in a `u64` match mask.
const MAX_WAYS: u32 = 64;

/// Tags per host cache line of 64 bytes.
const LINE_SLOTS: usize = 8;

impl SetAssocCache {
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.num_sets();
        SetAssocCache {
            geometry,
            line_shift: geometry.line_bytes.trailing_zeros(),
            width: geometry.ways.next_power_of_two(),
            index: if sets.is_power_of_two() {
                SetIndex::Mask(sets - 1)
            } else {
                SetIndex::Divide(sets)
            },
            tags: Vec::new(),
            first: 0,
            hits: 0,
            misses: 0,
        }
    }

    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Translate a byte address to its line address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Access the line containing `addr` (byte address); on miss, fill it.
    /// Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let mut hit = false;
        self.walk([addr], |a| a, |_, h| hit = h);
        hit
    }

    /// Access each sample's address (`addr(sample)`, a byte address) in
    /// order, exactly as repeated [`SetAssocCache::access`] calls would,
    /// and report each sample with whether it hit to `served`.
    ///
    /// The cache is resolved once for the whole walk: the tag array is
    /// materialised, and the set rule, padded width and way count are read
    /// before the loop, which runs one fixed-width instance of the per-set
    /// routine. Hit and miss counts are added once, after it.
    pub(crate) fn walk<S: Copy>(
        &mut self,
        samples: impl IntoIterator<Item = S>,
        addr: impl Fn(S) -> u64,
        served: impl FnMut(S, bool),
    ) {
        let vector = Avx512F::detect();
        self.walk_ahead(vector, samples, std::iter::empty(), addr, served);
    }

    /// [`SetAssocCache::walk`] over a slice of samples, prefetching the set
    /// of the sample [`PREFETCH_AHEAD`] places on before each access.
    ///
    /// For a cache whose tags do not stay in the host's own caches (the
    /// megabytes of an L3's), a walk is otherwise a chain of host cache
    /// misses, each paid in full: its time is the host's memory latency,
    /// which swings with whatever else the host runs. The prefetches keep
    /// several of those misses in flight at once. A prefetch is only a
    /// hint, so the walk's results are the same.
    pub(crate) fn walk_slice<S: Copy>(
        &mut self,
        samples: &[S],
        addr: impl Fn(S) -> u64 + Copy,
        served: impl FnMut(S, bool),
    ) {
        let ahead = samples.iter().skip(PREFETCH_AHEAD).map(move |&s| addr(s));
        let vector = Avx512F::detect();
        self.walk_ahead(vector, samples.iter().copied(), ahead, addr, served);
    }

    /// [`SetAssocCache::walk`], prefetching the set of each address of
    /// `ahead` as it steps to the next sample. Sets of 8 or 16 slots are
    /// walked by the AVX-512F routine when `vector` proves the host has
    /// it, and by the scalar [`access_fixed`] otherwise.
    fn walk_ahead<S: Copy>(
        &mut self,
        vector: Option<Avx512F>,
        samples: impl IntoIterator<Item = S>,
        ahead: impl Iterator<Item = u64>,
        addr: impl Fn(S) -> u64,
        served: impl FnMut(S, bool),
    ) {
        let mut samples = samples.into_iter();
        // An empty walk, like no access at all, leaves an untouched cache
        // unallocated.
        let Some(first) = samples.next() else {
            return;
        };
        self.materialise();
        #[cfg(target_arch = "x86_64")]
        if let Some(f) = vector.filter(|_| matches!(self.width, 8 | 16)) {
            // SAFETY: `f` is an `Avx512F`, which only exists where CPUID
            // reported AVX-512F (`Avx512F::detect`).
            return unsafe { self.walk_avx512(f, first, samples, ahead, addr, served) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = vector;
        let scalar = Scalar;
        match self.width {
            1 => self.walk_fixed::<1, S>(scalar, first, samples, ahead, addr, served),
            2 => self.walk_fixed::<2, S>(scalar, first, samples, ahead, addr, served),
            4 => self.walk_fixed::<4, S>(scalar, first, samples, ahead, addr, served),
            8 => self.walk_fixed::<8, S>(scalar, first, samples, ahead, addr, served),
            16 => self.walk_fixed::<16, S>(scalar, first, samples, ahead, addr, served),
            32 => self.walk_fixed::<32, S>(scalar, first, samples, ahead, addr, served),
            64 => self.walk_fixed::<64, S>(scalar, first, samples, ahead, addr, served),
            w => unreachable!("set width {w} is not a power of two up to {MAX_WAYS}"),
        }
    }

    /// [`SetAssocCache::walk_fixed`] over sets of 8 or 16 slots with the
    /// AVX-512F set access, compiled for AVX-512F as a whole so that the
    /// set access inlines into the loop.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn walk_avx512<S: Copy>(
        &mut self,
        f: Avx512F,
        first: S,
        rest: impl Iterator<Item = S>,
        ahead: impl Iterator<Item = u64>,
        addr: impl Fn(S) -> u64,
        served: impl FnMut(S, bool),
    ) {
        match self.width {
            8 => self.walk_fixed::<8, S>(f, first, rest, ahead, addr, served),
            16 => self.walk_fixed::<16, S>(f, first, rest, ahead, addr, served),
            w => unreachable!("no AVX-512F walk over sets of {w} slots"),
        }
    }

    /// [`SetAssocCache::walk_ahead`] over sets of `W` slots, from its first
    /// sample on, each access by `kernel`. The loop body is written out
    /// rather than passed to an iterator adapter as a closure, which the
    /// compiler may leave as a call per sample.
    #[inline(always)]
    fn walk_fixed<const W: usize, S: Copy>(
        &mut self,
        kernel: impl SetAccess,
        first: S,
        mut rest: impl Iterator<Item = S>,
        mut ahead: impl Iterator<Item = u64>,
        addr: impl Fn(S) -> u64,
        mut served: impl FnMut(S, bool),
    ) {
        let (index, line_shift) = (&self.index, self.line_shift);
        let ways = self.geometry.ways as usize;
        let (sets, _) = self.tags[self.first..].as_chunks_mut::<W>();
        let (mut accesses, mut hits) = (0, 0);
        let mut sample = first;
        loop {
            if let Some(next) = ahead.next() {
                prefetch(&sets[index.set(next >> line_shift)]);
            }
            let line = addr(sample) >> line_shift;
            debug_assert_ne!(line, INVALID, "reserved tag");
            let hit = kernel.access(&mut sets[index.set(line)], line, ways);
            accesses += 1;
            hits += u64::from(hit);
            served(sample, hit);
            match rest.next() {
                Some(next) => sample = next,
                None => break,
            }
        }
        self.hits += hits;
        self.misses += accesses - hits;
    }

    /// Allocate the all-invalid tag array if the cache has none (first
    /// access since construction or [`SetAssocCache::flush`]), with the
    /// slack to start its sets on a host cache line, and switch a modulo
    /// set index to its multiply.
    fn materialise(&mut self) {
        if self.tags.is_empty() {
            let slots = self.geometry.num_sets() as usize * self.width as usize;
            self.tags = vec![INVALID; slots + LINE_SLOTS - 1];
            // Any offset within the slack is correct; the aligned one
            // saves a host cache line per access.
            self.first = self.tags.as_ptr().align_offset(64).min(LINE_SLOTS - 1);
            if let SetIndex::Divide(sets) = self.index {
                self.index = SetIndex::Multiply(Box::new(FastMod::new(sets)));
            }
        }
    }

    /// Is `addr`'s line currently resident? Does not touch LRU state.
    pub fn probe(&self, addr: u64) -> bool {
        if self.tags.is_empty() {
            return false;
        }
        let line = self.line_of(addr);
        let width = self.width as usize;
        let base = self.first + self.index.set(line) * width;
        self.tags[base..base + width].contains(&line)
    }

    /// Lifetime (hits, misses) over all accesses.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of valid (filled) lines — useful for warmup assertions.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }

    /// Drop all contents and statistics — including the tag array itself,
    /// returning the cache to its unallocated (lazy) state.
    pub fn flush(&mut self) {
        self.tags = Vec::new();
        self.hits = 0;
        self.misses = 0;
    }

    /// Heap bytes currently held by the tag array (0 until first access).
    pub fn allocated_bytes(&self) -> usize {
        self.tags.capacity() * std::mem::size_of::<u64>()
    }
}

/// Samples between a [`SetAssocCache::walk_slice`] prefetch and the access
/// it is for: enough walk steps to cover a host memory access.
const PREFETCH_AHEAD: usize = 16;

/// Ask the host to bring `set` into its L1: one prefetch per host cache
/// line, as the sets start on one.
#[inline(always)]
fn prefetch<const W: usize>(set: &[u64; W]) {
    #[cfg(target_arch = "x86_64")]
    for k in (0..W).step_by(LINE_SLOTS) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch reads nothing into the program and cannot
        // fault; the pointer is in bounds of `set` anyway.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(set[k..].as_ptr().cast()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = set;
}

/// Access `line` in one set of `W` slots, the first `ways` of them live:
/// move it to slot 0, filling it over slot `ways - 1` on a miss. Returns
/// `true` on hit.
///
/// The work is constant whichever slot hits. A hit in slot 0 changes
/// nothing. Otherwise the position is the lowest set bit of the
/// tag-equality mask with the victim slot `ways - 1` ORed in, so a miss
/// lands on the victim; slots `1..=pos` take their lower neighbour by
/// per-slot selects and the line goes to slot 0. This is exactly a right
/// rotation of `set[..=pos]` by one.
#[inline(always)]
fn access_fixed<const W: usize>(set: &mut [u64; W], line: u64, ways: usize) -> bool {
    let mut equal = 0u64;
    for (k, &tag) in set.iter().enumerate() {
        equal |= u64::from(tag == line) << k;
    }
    let pos = (equal | 1 << (ways - 1)).trailing_zeros() as usize;
    let old = *set;
    for k in 1..W {
        set[k] = if k <= pos { old[k - 1] } else { old[k] };
    }
    set[0] = line;
    equal != 0
}

/// One access to a set of `W` slots: the scalar [`access_fixed`] or its
/// AVX-512F form.
trait SetAccess: Copy {
    fn access<const W: usize>(self, set: &mut [u64; W], line: u64, ways: usize) -> bool;
}

/// The scalar set access, [`access_fixed`]: every host, every width.
#[derive(Clone, Copy)]
struct Scalar;

impl SetAccess for Scalar {
    #[inline(always)]
    fn access<const W: usize>(self, set: &mut [u64; W], line: u64, ways: usize) -> bool {
        access_fixed(set, line, ways)
    }
}

/// The AVX-512F set access for sets of 8 and 16 slots; other widths take
/// the scalar one.
#[cfg(target_arch = "x86_64")]
impl SetAccess for Avx512F {
    #[inline(always)]
    fn access<const W: usize>(self, set: &mut [u64; W], line: u64, ways: usize) -> bool {
        match W {
            // SAFETY: `self` is an `Avx512F`, which only exists where CPUID
            // reported AVX-512F (`Avx512F::detect`).
            8 => unsafe { access_avx512::<1>(set, line, ways) },
            // SAFETY: as above, `self` proves the CPUID check for AVX-512F.
            16 => unsafe { access_avx512::<2>(set, line, ways) },
            _ => access_fixed(set, line, ways),
        }
    }
}

/// [`access_fixed`] on a set of `8 * V` slots (`V` of 1 or 2) in
/// AVX-512F, a vector of eight slots at a time: the hit mask is one
/// compare per vector, `pos` is the same `tzcnt` of it with the victim
/// slot `ways - 1` ORed in, and the set shifts right by one slot with
/// `valignq`, the line entering slot 0 and each vector's top slot entering
/// the next one's bottom. The shifted slots are written back under the
/// mask of slots `0..=pos`: exactly the right rotation of `set[..=pos]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn access_avx512<const V: usize>(set: &mut [u64], line: u64, ways: usize) -> bool {
    use std::arch::x86_64::{
        __m512i, _mm512_alignr_epi64, _mm512_cmpeq_epi64_mask, _mm512_loadu_epi64,
        _mm512_mask_storeu_epi64, _mm512_set1_epi64,
    };
    assert!(set.len() == 8 * V && (1..=2).contains(&V));
    let ptr = set.as_mut_ptr().cast::<i64>();
    let broadcast = _mm512_set1_epi64(line as i64);
    let mut slots = [broadcast; V];
    let mut equal = 0u32;
    for (v, slot) in slots.iter_mut().enumerate() {
        // SAFETY: the assert above puts slots `8 * v..8 * v + 8` inside
        // `set`.
        *slot = unsafe { _mm512_loadu_epi64(ptr.add(8 * v)) };
        equal |= u32::from(_mm512_cmpeq_epi64_mask(*slot, broadcast)) << (8 * v);
    }
    let pos = (equal | 1 << (ways - 1)).trailing_zeros();
    let moved = (2u32 << pos) - 1;
    let mut below: __m512i = broadcast;
    for (v, &slot) in slots.iter().enumerate() {
        let shifted = _mm512_alignr_epi64::<7>(slot, below);
        // SAFETY: as for the load, slots `8 * v..8 * v + 8` are in `set`.
        unsafe { _mm512_mask_storeu_epi64(ptr.add(8 * v), (moved >> (8 * v)) as u8, shifted) };
        below = slot;
    }
    equal != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// The cache before constant-work lookups, kept as the reference model:
    /// `ways` tags per set at `line % sets`, found by a linear search and
    /// moved to MRU by rotating the set's prefix.
    struct RotateCache {
        line_shift: u32,
        num_sets: u64,
        ways: usize,
        tags: Vec<u64>,
        hits: u64,
        misses: u64,
    }

    impl RotateCache {
        fn new(geometry: CacheGeometry) -> Self {
            let num_sets = geometry.num_sets();
            let ways = geometry.ways as usize;
            RotateCache {
                line_shift: geometry.line_bytes.trailing_zeros(),
                num_sets,
                ways,
                tags: vec![INVALID; num_sets as usize * ways],
                hits: 0,
                misses: 0,
            }
        }

        fn set(&self, addr: u64) -> (u64, usize) {
            let line = addr >> self.line_shift;
            (line, (line % self.num_sets) as usize * self.ways)
        }

        fn access(&mut self, addr: u64) -> bool {
            let (line, base) = self.set(addr);
            let slots = &mut self.tags[base..base + self.ways];
            match slots.iter().position(|&t| t == line) {
                Some(pos) => {
                    slots[..=pos].rotate_right(1);
                    self.hits += 1;
                    true
                }
                None => {
                    slots.rotate_right(1);
                    slots[0] = line;
                    self.misses += 1;
                    false
                }
            }
        }

        fn probe(&self, addr: u64) -> bool {
            let (line, base) = self.set(addr);
            self.tags[base..base + self.ways].contains(&line)
        }

        fn resident_lines(&self) -> usize {
            self.tags.iter().filter(|&&t| t != INVALID).count()
        }
    }

    /// Seeded streams through `SetAssocCache` and the rotate model, over
    /// every width class and both set-index rules: hits, statistics,
    /// resident lines and probes of recently touched lines must agree
    /// after every access.
    #[test]
    fn cache_matches_the_rotate_reference_model() {
        for ways in [1u32, 2, 3, 8, 12, 16] {
            for sets in [16u64, 12, 3 << 4] {
                let geometry = CacheGeometry {
                    size_bytes: sets * ways as u64 * 64,
                    ways,
                    line_bytes: 64,
                };
                let mut cache = SetAssocCache::new(geometry);
                let mut model = RotateCache::new(geometry);
                let mut rng = SmallRng::seed_from_u64(sets * 100 + ways as u64);
                let capacity = sets * ways as u64;
                let mut recent = [0u64; 8];
                for step in 0..6_000usize {
                    // Mostly a hot pool smaller than the cache, so hits land
                    // at every recency position; sometimes a pool three
                    // times its size, in a second address space.
                    let addr = if rng.random_range(0..4) == 0 {
                        (1 << 40) | rng.random_range(0..3 * capacity) << 6
                    } else {
                        rng.random_range(0..capacity / 2 + 1) << 6 | rng.random_range(0..64)
                    };
                    let ctx = format!("{ways} ways, {sets} sets, access {step}");
                    assert_eq!(cache.access(addr), model.access(addr), "{ctx}: hit");
                    assert_eq!(cache.stats(), (model.hits, model.misses), "{ctx}: stats");
                    assert_eq!(
                        cache.resident_lines(),
                        model.resident_lines(),
                        "{ctx}: resident lines"
                    );
                    recent[step % recent.len()] = addr;
                    for &a in &recent {
                        assert_eq!(cache.probe(a), model.probe(a), "{ctx}: probe {a:#x}");
                    }
                }
                assert!(cache.stats().0 > 0 && cache.stats().1 > 0);
            }
        }
    }

    /// `walk_slice` against repeated `access` on a twin cache, over every
    /// width class and both set-index rules, with walks shorter and longer
    /// than the prefetch distance: the same hit for every sample, the same
    /// statistics and the same resident lines after every walk.
    #[test]
    fn prefetching_walk_matches_repeated_access() {
        for ways in [1u32, 2, 3, 8, 12, 16] {
            for sets in [16u64, 12] {
                let geometry = CacheGeometry {
                    size_bytes: sets * ways as u64 * 64,
                    ways,
                    line_bytes: 64,
                };
                let mut walked = SetAssocCache::new(geometry);
                let mut accessed = SetAssocCache::new(geometry);
                walked.walk_slice(&[] as &[u64], |a| a, |_, _| unreachable!());
                assert_eq!(walked.allocated_bytes(), 0, "an empty walk allocates");
                let mut rng = SmallRng::seed_from_u64(sets * 1000 + ways as u64);
                let pool = 3 * sets * ways as u64;
                for len in [1, 2, PREFETCH_AHEAD - 1, PREFETCH_AHEAD, 40, 200] {
                    let addrs: Vec<u64> = (0..len)
                        .map(|_| rng.random_range(0..pool) << 6 | rng.random_range(0..64))
                        .collect();
                    let mut hits = Vec::new();
                    walked.walk_slice(&addrs, |a| a, |_, hit| hits.push(hit));
                    let expected: Vec<bool> = addrs.iter().map(|&a| accessed.access(a)).collect();
                    let ctx = format!("{ways} ways, {sets} sets, walk of {len}");
                    assert_eq!(hits, expected, "{ctx}: hits");
                    assert_eq!(walked.stats(), accessed.stats(), "{ctx}: stats");
                    assert_eq!(
                        walked.resident_lines(),
                        accessed.resident_lines(),
                        "{ctx}: resident lines"
                    );
                }
            }
        }
    }

    /// The walk of each host's kernel against the scalar walk on a twin
    /// cache, over sets of 8 and 16 slots with every slot live and with
    /// `ways` below the width, under both set-index rules: the same
    /// `served` calls in the same order, the same hit and miss counts, and
    /// the same tags in every slot after every walk. On a host without
    /// AVX-512F both walks are scalar.
    #[test]
    fn vector_walk_matches_the_scalar_walk() {
        println!("sampler kernels: {}", crate::sampler_kernels());
        for ways in [5u32, 8, 12, 16] {
            for sets in [16u64, 12] {
                let geometry = CacheGeometry {
                    size_bytes: sets * ways as u64 * 64,
                    ways,
                    line_bytes: 64,
                };
                let mut vector = SetAssocCache::new(geometry);
                let mut scalar = SetAssocCache::new(geometry);
                let mut rng = SmallRng::seed_from_u64(sets * 100 + ways as u64);
                let pool = 2 * sets * ways as u64;
                for len in [1, 7, 8, 9, 100, 1000] {
                    let addrs: Vec<(usize, u64)> = (0..len)
                        .map(|k| (k, rng.random_range(0..pool) << 6 | rng.random_range(0..64)))
                        .collect();
                    let walk = |cache: &mut SetAssocCache, kernel: Option<Avx512F>| {
                        let mut served = Vec::new();
                        let samples = addrs.iter().copied();
                        let ahead = std::iter::empty();
                        cache.walk_ahead(
                            kernel,
                            samples,
                            ahead,
                            |(_, a)| a,
                            |(k, _), hit| served.push((k, hit)),
                        );
                        served
                    };
                    let ctx = format!("{ways} ways, {sets} sets, walk of {len}");
                    let served = walk(&mut vector, Avx512F::detect());
                    assert_eq!(served, walk(&mut scalar, None), "{ctx}: served");
                    assert_eq!(vector.stats(), scalar.stats(), "{ctx}: stats");
                    let slots = sets as usize * vector.width as usize;
                    let sets_of = |c: &SetAssocCache| c.tags[c.first..c.first + slots].to_vec();
                    assert_eq!(sets_of(&vector), sets_of(&scalar), "{ctx}: tags");
                }
                let (hits, misses) = vector.stats();
                assert!(hits > 0 && misses > 0, "{ways} ways, {sets} sets");
            }
        }
    }

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        SetAssocCache::new(CacheGeometry {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn geometry_sets() {
        assert_eq!(CacheGeometry::kib(32, 8, 64).num_sets(), 64); // Nehalem L1D
        assert_eq!(CacheGeometry::kib(256, 8, 64).num_sets(), 512); // Nehalem L2
        assert_eq!(CacheGeometry::kib(8192, 16, 64).num_sets(), 8192); // Nehalem L3
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn bad_geometry_panics() {
        CacheGeometry {
            size_bytes: 1000,
            ways: 2,
            line_bytes: 64,
        }
        .num_sets();
    }

    #[test]
    #[should_panic(expected = "exceeds 64 ways")]
    fn more_than_64_ways_panics() {
        CacheGeometry {
            size_bytes: 65 * 64,
            ways: 65,
            line_bytes: 64,
        }
        .num_sets();
    }

    #[test]
    fn non_power_of_two_set_count_is_allowed() {
        // The E5640's 12 MB L3: 12288 sets.
        let g = CacheGeometry::kib(12 * 1024, 16, 64);
        assert_eq!(g.num_sets(), 12288);
        let mut c = SetAssocCache::new(g);
        assert!(!c.access(0));
        assert!(c.access(0));
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats(), (2, 2));
    }

    #[test]
    #[allow(clippy::erasing_op)] // 0 * 64 spells out the line-address arithmetic
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0: line addresses 0, 4, 8 (set = line & 3).
        let a = 0u64 * 64;
        let b = 4u64 * 64;
        let d = 8u64 * 64;
        c.access(a); // [a]
        c.access(b); // [b, a]
        c.access(a); // [a, b]  — a is MRU now
        c.access(d); // evicts b → [d, a]
        assert!(c.probe(a), "a was MRU, must survive");
        assert!(!c.probe(b), "b was LRU, must be evicted");
        assert!(c.probe(d));
    }

    #[test]
    fn capacity_working_set_fits() {
        let mut c = tiny();
        // 8 distinct lines = exactly capacity; a second sweep in the same
        // order hits only if each set holds its 2 lines (true for uniform
        // mapping 0..8 over 4 sets × 2 ways).
        for i in 0..8u64 {
            c.access(i * 64);
        }
        for i in 0..8u64 {
            assert!(c.access(i * 64), "line {i} should be resident");
        }
        assert_eq!(c.resident_lines(), 8);
    }

    #[test]
    fn oversized_working_set_thrashes() {
        let mut c = tiny();
        // 12 lines -> 3 lines per 2-way set, cyclic sweep = 100% miss under LRU.
        for _ in 0..4 {
            for i in 0..12u64 {
                c.access(i * 64);
            }
        }
        let (hits, misses) = c.stats();
        assert_eq!(hits, 0, "cyclic over-capacity sweep never hits under LRU");
        assert_eq!(misses, 48);
    }

    #[test]
    #[allow(clippy::identity_op)] // `asid | 0` spells out the tag composition
    fn distinct_address_spaces_conflict_not_alias() {
        let mut c = tiny();
        let asid0 = 0u64 << 40;
        let asid1 = 1u64 << 40;
        c.access(asid0 | 0);
        // Same virtual line in another address space is a different tag...
        assert!(!c.access(asid1 | 0));
        // ...but both can be resident at once (2-way set).
        assert!(c.probe(asid0 | 0));
        assert!(c.probe(asid1 | 0));
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert_eq!(c.stats(), (0, 0));
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.probe(0));
    }

    #[test]
    fn tags_allocate_lazily_on_first_access() {
        let mut c = tiny();
        assert_eq!(c.allocated_bytes(), 0, "untouched cache owns no tags");
        assert!(!c.probe(0));
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(0), "first access is a cold miss");
        assert_eq!(
            c.allocated_bytes(),
            (8 + LINE_SLOTS - 1) * 8,
            "4 sets x 2 ways x 8 bytes, and the slack to align them"
        );
        assert_eq!(
            c.tags[c.first..].as_ptr() as usize % 64,
            0,
            "the sets start on a host cache line"
        );
        assert!(c.probe(0));
        c.flush();
        assert_eq!(c.allocated_bytes(), 0, "flush deallocates, not just fills");
    }
}
