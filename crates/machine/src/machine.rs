//! The machine itself: topology + caches + the slice execution engine.
//!
//! The kernel drives the machine in *epochs*: it picks, per processing unit,
//! the task to run and a cycle budget, and calls [`Machine::execute_epoch`]
//! with all concurrently-running slices at once. Executing them *jointly* is
//! what makes contention real: every slice's sampled address stream is
//! interleaved — in proportion to its access rate — through the same L1/L2
//! (per physical core, shared by SMT siblings) and L3 (per socket, shared by
//! all its cores) before any CPI is computed.
//!
//! The interleaving is one total order: slice `i`'s `j`-th sample is due at
//! virtual time `t(j, quota_i)`, ties going to the lower slice index. The
//! sampler never builds that order globally. Each private L1/L2 sees its
//! core's accesses in `(t, i)` order, each L3 sees its socket's L2 misses in
//! `(t, i)` order, and each slice's tallies accumulate in its own `j` order,
//! which is all a global merge would guarantee (see `Machine::sample_caches`).

use std::cell::Cell;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::access::{MemoryBehavior, TaskStream};
use crate::cache::{CacheLevel, SetAssocCache};
use crate::config::{MachineConfig, UarchParams};
use crate::exec::{ExecOutcome, ExecProfile, FpUnit};
use crate::pmu::{EventCounts, HwEvent};
use crate::topology::{CoreId, PuId, Topology};

/// One task's share of an epoch on one PU.
pub struct SliceRequest<'a> {
    pub pu: PuId,
    pub profile: &'a ExecProfile,
    pub stream: &'a mut TaskStream,
    /// Cycle budget for this slice.
    pub cycles: u64,
    /// Stop early after retiring this many instructions (used by the kernel
    /// to respect phase boundaries).
    pub max_instructions: Option<u64>,
    /// CPI observed for this task in its previous slice; used to estimate
    /// relative access rates for stream interleaving. `0.0` = unknown.
    pub cpi_hint: f64,
}

impl<'a> SliceRequest<'a> {
    pub fn new(pu: PuId, profile: &'a ExecProfile, stream: &'a mut TaskStream) -> Self {
        SliceRequest {
            pu,
            profile,
            stream,
            cycles: 0,
            max_instructions: None,
            cpi_hint: 0.0,
        }
    }

    pub fn cycles(mut self, c: u64) -> Self {
        self.cycles = c;
        self
    }

    pub fn max_instructions(mut self, n: u64) -> Self {
        self.max_instructions = Some(n);
        self
    }

    pub fn cpi_hint(mut self, cpi: f64) -> Self {
        self.cpi_hint = cpi;
        self
    }
}

/// Number of co-running slices beyond which the joint cache-sampling budget
/// stops growing: an epoch's total samples are
/// `cache_samples_per_slice * min(slices, JOINT_SAMPLE_SLICES)`, split
/// proportionally to each slice's estimated access rate.
pub const JOINT_SAMPLE_SLICES: usize = 4;

/// Per-slice cache sampling tallies.
#[derive(Clone, Copy, Default)]
struct SampleStats {
    sampled: u64,
    l1_miss: u64,
    l2_miss: u64,
    l3_miss: u64,
    penalty_sum: f64,
}

impl SampleStats {
    /// The tallies of samples served by `levels`, in order: exactly what
    /// `SampleStats::add` of each gives, without a branch. An L1 hit adds
    /// `0.0` to the penalty sum, which leaves its bits unchanged: the sum
    /// starts at `+0.0` and so is never `-0.0`, the one value `+ 0.0`
    /// changes.
    fn of(levels: &[CacheLevel], u: &UarchParams) -> Self {
        let penalty = [0.0, u.lat_l2, u.lat_l3, u.lat_mem];
        let mut st = SampleStats {
            sampled: levels.len() as u64,
            ..SampleStats::default()
        };
        for &level in levels {
            st.l1_miss += u64::from(level > CacheLevel::L1);
            st.l2_miss += u64::from(level > CacheLevel::L2);
            st.l3_miss += u64::from(level > CacheLevel::L3);
            st.penalty_sum += penalty[level as usize];
        }
        st
    }

    /// Count one sample served by `level`: the single-merge oracle's tally.
    #[cfg(test)]
    fn add(&mut self, level: CacheLevel, u: &UarchParams) {
        self.sampled += 1;
        match level {
            CacheLevel::L1 => {}
            CacheLevel::L2 => {
                self.l1_miss += 1;
                self.penalty_sum += u.lat_l2;
            }
            CacheLevel::L3 => {
                self.l1_miss += 1;
                self.l2_miss += 1;
                self.penalty_sum += u.lat_l3;
            }
            CacheLevel::Memory => {
                self.l1_miss += 1;
                self.l2_miss += 1;
                self.l3_miss += 1;
                self.penalty_sum += u.lat_mem;
            }
        }
    }
}

/// The simulated machine.
///
/// The configuration is held behind an [`Arc`]: a fleet of identical
/// simulated machines (the cluster bench instantiates 1000) shares one
/// `MachineConfig` allocation — topology tree, uarch tables and all —
/// instead of deep-copying it per machine.
pub struct Machine {
    cfg: Arc<MachineConfig>,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    l3: Vec<SetAssocCache>,
    noise_rng: SmallRng,
    epochs_executed: u64,
    scratch: EpochScratch,
}

impl Machine {
    pub fn new(cfg: impl Into<Arc<MachineConfig>>, seed: u64) -> Self {
        let cfg = cfg.into();
        let cores = cfg.topology.num_cores();
        let sockets = cfg.topology.sockets();
        Machine {
            l1: (0..cores)
                .map(|_| SetAssocCache::new(cfg.uarch.l1d))
                .collect(),
            l2: (0..cores)
                .map(|_| SetAssocCache::new(cfg.uarch.l2))
                .collect(),
            l3: (0..sockets)
                .map(|_| SetAssocCache::new(cfg.uarch.l3))
                .collect(),
            noise_rng: SmallRng::seed_from_u64(seed ^ 0x6d61_6368_696e_6531),
            cfg,
            epochs_executed: 0,
            scratch: EpochScratch::default(),
        }
    }

    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The shared configuration handle (a clone is a refcount bump).
    pub fn shared_config(&self) -> Arc<MachineConfig> {
        Arc::clone(&self.cfg)
    }

    pub fn topology(&self) -> &Topology {
        &self.cfg.topology
    }

    /// hwloc-style rendering (the paper's Fig 11 (c)).
    pub fn render_topology(&self) -> String {
        let u = &self.cfg.uarch;
        self.cfg
            .topology
            .render(u.l1d.size_kib(), u.l2.size_kib(), u.l3.size_kib())
    }

    pub fn epochs_executed(&self) -> u64 {
        self.epochs_executed
    }

    /// Lifetime (hits, misses) of a socket's shared L3 — for tests and
    /// ablations.
    pub fn l3_stats(&self, socket: usize) -> (u64, u64) {
        self.l3[socket].stats()
    }

    /// Drop all cache contents (used between independent experiments sharing
    /// one machine).
    pub fn flush_caches(&mut self) {
        for c in self
            .l1
            .iter_mut()
            .chain(self.l2.iter_mut())
            .chain(self.l3.iter_mut())
        {
            c.flush();
        }
    }

    /// Execute one epoch: all slices run concurrently on their PUs.
    ///
    /// # Panics
    /// Panics if two slices name the same PU, or a PU is out of range.
    pub fn execute_epoch(&mut self, slices: &mut [SliceRequest<'_>]) -> Vec<ExecOutcome> {
        let mut out = Vec::new();
        self.execute_epoch_into(slices, &mut out);
        out
    }

    /// [`Machine::execute_epoch`] into a caller-owned buffer (cleared
    /// first). With the machine's own per-epoch buffers kept across epochs,
    /// a steady-state epoch allocates nothing.
    pub fn execute_epoch_into(
        &mut self,
        slices: &mut [SliceRequest<'_>],
        out: &mut Vec<ExecOutcome>,
    ) {
        self.execute_epoch_with(slices, out, Self::sample_caches)
    }

    /// [`Machine::execute_epoch_into`] with the cache sampler as a
    /// parameter, so tests can run the same epoch through the reference
    /// sampler. The sampler fills one tally per slice into its buffer.
    fn execute_epoch_with(
        &mut self,
        slices: &mut [SliceRequest<'_>],
        out: &mut Vec<ExecOutcome>,
        sample: impl FnOnce(&mut Self, &mut [SliceRequest<'_>], &Topology, &mut Vec<SampleStats>),
    ) {
        out.clear();
        self.epochs_executed += 1;
        let n = slices.len();
        if n == 0 {
            return;
        }
        // Refcount bump, not a deep copy: keeps the config borrowable
        // alongside the `&mut self` cache sampling below.
        let cfg = Arc::clone(&self.cfg);
        let topo = &cfg.topology;

        // --- sanity: one slice per PU ---
        let seen = &mut self.scratch.pu_taken;
        seen.clear();
        seen.resize(topo.num_pus(), false);
        for s in slices.iter() {
            assert!(s.pu.0 < topo.num_pus(), "PU {} out of range", s.pu.0);
            assert!(!seen[s.pu.0], "two slices on PU {}", s.pu.0);
            seen[s.pu.0] = true;
        }

        // --- which physical cores have both SMT siblings busy? ---
        let mut busy_on_core = std::mem::take(&mut self.scratch.busy_on_core);
        busy_on_core.clear();
        busy_on_core.resize(topo.num_cores(), 0);
        for s in slices.iter() {
            busy_on_core[topo.core_of(s.pu).0] += 1;
        }

        // --- phase 1: jointly sample the cache hierarchy ---
        let mut stats = std::mem::take(&mut self.scratch.stats);
        sample(self, slices, topo, &mut stats);

        // --- phase 2: analytic CPI and event accounting per slice ---
        out.reserve(n);
        for (i, s) in slices.iter_mut().enumerate() {
            let st = &stats[i];
            let u = &cfg.uarch;
            let p = s.profile;

            let smt_busy = busy_on_core[topo.core_of(s.pu).0] > 1;
            let mut base = p.base_cpi.max(u.min_cpi());
            if smt_busy {
                base /= u.smt_share;
            }

            let apc = p.accesses_per_insn();
            let avg_penalty = if st.sampled > 0 {
                st.penalty_sum / st.sampled as f64
            } else {
                0.0
            };
            let mem_cpi = apc * avg_penalty / p.mlp.max(0.25);
            let branch_cpi = p.branches_per_insn * p.branch_miss_rate * u.branch_penalty;
            let assist_frac = assist_fraction(p, &u.assists);
            let assist_cpi = p.fp_per_insn * assist_frac * u.fp_assist_cost;

            let mut cpi = base + mem_cpi + branch_cpi + assist_cpi;
            if cfg.cpi_noise > 0.0 {
                // Cheap symmetric noise: mean 0, bounded, deterministic.
                let g: f64 = self.noise_rng.random::<f64>() + self.noise_rng.random::<f64>()
                    - self.noise_rng.random::<f64>()
                    - self.noise_rng.random::<f64>();
                cpi *= (1.0 + cfg.cpi_noise * g).max(0.2);
            }

            let mut instructions = (s.cycles as f64 / cpi).floor() as u64;
            let mut cycles_used = s.cycles;
            if let Some(cap) = s.max_instructions {
                if instructions > cap {
                    instructions = cap;
                    cycles_used = ((instructions as f64 * cpi).ceil() as u64).min(s.cycles);
                }
            }

            out.push(build_outcome(
                p,
                st,
                instructions,
                cycles_used,
                assist_frac,
                mem_cpi,
            ));
        }
        self.scratch.busy_on_core = busy_on_core;
        self.scratch.stats = stats;
    }

    /// Interleave every slice's sampled address stream through the shared
    /// hierarchy, in proportion to its estimated access rate, and collect
    /// per-slice hit/miss tallies.
    ///
    /// The joint sample budget grows with the number of co-running slices
    /// only up to [`JOINT_SAMPLE_SLICES`]: contention fidelity comes from
    /// *interleaving* the streams, not from the raw sample count, and past
    /// a few co-runners the per-epoch estimates are already averaged over
    /// many epochs by the seconds-scale observation granularity. Capping
    /// the budget makes heavily co-scheduled epochs (the Fig 10 data-center
    /// burst runs 7 jobs at once) proportionally cheaper instead of
    /// linearly more expensive.
    ///
    /// # Access order
    ///
    /// Slice `i`'s `j`-th sample is due at virtual epoch time
    /// `(j + 0.5) / quota_i` (scaled to an integer by [`sample_time`]), and
    /// the interleaving is the order of `(t, i)` over all samples. Each
    /// slice draws its addresses in batches of [`CHUNK`]
    /// ([`TaskStream::fill`]) as the walk of its core takes them; streams
    /// are per task, so drawing slice by slice draws what an interleaved
    /// draw would. Only the shared L3 needs the global order, so the walk
    /// runs in passes that present each cache with exactly the accesses, in
    /// exactly the order, a single global merge would:
    ///
    /// 1. *Per physical core.* The core's slices (one, or two SMT siblings)
    ///    are merged by `(t, i)` and walked through its private L1, a chunk
    ///    at a time; each chunk's L1 misses, still in that order, are
    ///    walked through its L2. No other core touches those caches, and
    ///    the L1 does not depend on the L2, so they see their core's
    ///    accesses in `(t, i)` order. The L2 misses are queued for the
    ///    core's socket: one run per core, each in `(t, i)` order.
    /// 2. *Per socket.* The runs are merged by `(t, i)` (unique: `t` is
    ///    strictly increasing in `j`) into one reused buffer, which the L3
    ///    walks, so it sees its socket's L2 misses in `(t, i)` order. The
    ///    buffer is known before the walk, so the walk prefetches the L3
    ///    sets of the samples ahead (`SetAssocCache::walk_slice`): an L3's
    ///    tags do not fit the host's own caches, and one host miss after
    ///    another made this pass the part of an epoch most at the mercy of
    ///    the host's memory latency.
    ///
    /// Each cache is resolved once per walk (`SetAssocCache::walk`), not
    /// once per access. The walks record each sample's serving level, and
    /// each slice's tallies, the `f64` penalty sum included, accumulate in
    /// `j` order from those levels, so the result is the single merge's bit
    /// for bit.
    ///
    /// On a host with AVX-512 (read from CPUID at run time; see
    /// [`crate::sampler_kernels`]), walks over sets of 8 or 16 slots and
    /// draws from all-random, power-of-two tiers run in 8-lane vector
    /// kernels; each core's chunk of samples is gathered on the stack
    /// before its L1 walk, so that walk's loop is the vector access alone.
    /// Every other host, width and tier mix runs the scalar forms, which
    /// give the same counts bit for bit and stay the reference:
    /// [`SetAssocCache::access`] and [`TaskStream::next_addr`], like this
    /// method's own oracle, `sample_caches_reference`.
    ///
    /// The walk's buffers are per thread ([`WalkScratch`]): a cluster
    /// worker steps many machines, and a machine whose jobs never touch
    /// memory never takes them.
    fn sample_caches(
        &mut self,
        slices: &mut [SliceRequest<'_>],
        topo: &Topology,
        stats: &mut Vec<SampleStats>,
    ) {
        let n = slices.len();
        stats.clear();
        if !sample_quotas(&self.cfg, slices, &mut self.scratch.quotas) {
            stats.resize(n, SampleStats::default());
            return;
        }
        let Machine {
            cfg,
            l1,
            l2,
            l3,
            scratch,
            ..
        } = self;
        let quotas = &scratch.quotas;
        let mut walk = WALK.take();
        let WalkScratch {
            core,
            start,
            levels,
            queue,
            runs,
            merged,
        } = &mut walk;

        core.clear();
        start.clear();
        let mut total = 0;
        for (s, &q) in slices.iter().zip(quotas) {
            core.push(topo.core_of(s.pu).0);
            start.push(total);
            total += q as usize;
        }
        assert!(
            u32::try_from(total).is_ok(),
            "{total} cache samples in one epoch"
        );
        // L1 hits are the default: the walks below record only the others.
        levels.clear();
        levels.resize(total, CacheLevel::L1);

        // An L2 miss's place in the (t, i) order.
        let key = |s: Sample| {
            let (at, i) = (s.at as usize, s.slice as usize);
            (sample_time((at - start[i]) as u64, quotas[i]), s.slice)
        };
        for (socket, l3) in l3.iter_mut().enumerate() {
            runs.clear();
            let mut queued = 0;
            // Pass 1: each physical core of the socket through its L1 and
            // L2, queueing its L2 misses as one run.
            for i in 0..n {
                let c = core[i];
                if topo.socket_of_core(CoreId(c)).0 != socket {
                    continue;
                }
                let sibling = (0..n).find(|&k| k != i && core[k] == c);
                if sibling.is_some_and(|k| k < i) {
                    continue; // walked together with its lower-indexed sibling
                }
                let (l1, l2) = (&mut l1[c], &mut l2[c]);
                let run = queued;
                match sibling {
                    None => {
                        let (q, at) = (quotas[i] as usize, start[i]);
                        let mut draws = Draws::new(&mut slices[i], q);
                        let own = (at..at + q).map(|at| Sample::new(draws.next(), at, i));
                        walk_core(own, q, l1, l2, levels, queue, &mut queued);
                    }
                    Some(k) => {
                        let (low, high) = slices.split_at_mut(k);
                        let (qi, qk) = (quotas[i] as usize, quotas[k] as usize);
                        let draws = [Draws::new(&mut low[i], qi), Draws::new(&mut high[0], qk)];
                        let both = siblings([i, k], start, quotas, draws);
                        walk_core(both, qi + qk, l1, l2, levels, queue, &mut queued);
                    }
                }
                if queued > run {
                    runs.push(Run {
                        next: run,
                        end: queued,
                        head: key(queue[run]),
                    });
                }
            }
            // Pass 2: the socket's L2 misses through its L3, in (t, i) order.
            merge_runs(queue, runs, key, merged);
            l3.walk_slice(
                merged,
                |s| s.addr,
                |s, hit| {
                    levels[s.at as usize] = if hit {
                        CacheLevel::L3
                    } else {
                        CacheLevel::Memory
                    };
                },
            );
        }

        stats.extend((0..n).map(|i| {
            let at = start[i];
            SampleStats::of(&levels[at..at + quotas[i] as usize], &cfg.uarch)
        }));
        WALK.set(walk);
    }

    /// The single-pass sampler [`Machine::sample_caches`] replaces: one
    /// global heap merge of every slice's samples by `(t, i)`, each walked
    /// through L1, L2 and L3 in turn. Kept as the oracle the two-pass
    /// sampler is checked against.
    #[cfg(test)]
    fn sample_caches_reference(
        &mut self,
        slices: &mut [SliceRequest<'_>],
        topo: &Topology,
    ) -> Vec<SampleStats> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let n = slices.len();
        let mut quotas = Vec::new();
        if !sample_quotas(&self.cfg, slices, &mut quotas) {
            return vec![SampleStats::default(); n];
        }
        let u = &self.cfg.uarch;

        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        struct Key(u64, usize); // (scaled virtual time, slice index)
        let mut heap: BinaryHeap<Reverse<Key>> = BinaryHeap::with_capacity(n);
        for (i, &q) in quotas.iter().enumerate() {
            heap.push(Reverse(Key(sample_time(0, q), i)));
        }
        let mut emitted = vec![0u64; n];
        let mut stats = vec![SampleStats::default(); n];

        while let Some(Reverse(Key(_, i))) = heap.pop() {
            let s = &mut slices[i];
            let core = topo.core_of(s.pu).0;
            let socket = topo.socket_of(s.pu).0;
            let addr = s.stream.next_addr(&s.profile.mem);

            let level = if self.l1[core].access(addr) {
                CacheLevel::L1
            } else if self.l2[core].access(addr) {
                CacheLevel::L2
            } else if self.l3[socket].access(addr) {
                CacheLevel::L3
            } else {
                CacheLevel::Memory
            };
            stats[i].add(level, u);

            emitted[i] += 1;
            if emitted[i] < quotas[i] {
                heap.push(Reverse(Key(sample_time(emitted[i], quotas[i]), i)));
            }
        }
        stats
    }
}

/// Scale of the integer virtual-time key: `[0, 1)` maps onto `[0, 2^40)`.
const TIME_SCALE: f64 = (1u64 << 40) as f64;

/// Virtual time, in `[0, 2^40)`, of the `j`-th of `quota` evenly spaced
/// samples in an epoch: `(j + 0.5) / quota`, scaled to an integer.
#[inline]
fn sample_time(j: u64, quota: u64) -> u64 {
    ((j as f64 + 0.5) / quota as f64 * TIME_SCALE) as u64
}

/// Each slice's sample quota into `quotas`, proportional to its expected
/// accesses this epoch; `false` (and `quotas` untouched) when no slice
/// touches memory.
fn sample_quotas(cfg: &MachineConfig, slices: &[SliceRequest<'_>], quotas: &mut Vec<u64>) -> bool {
    let weight = |s: &SliceRequest<'_>| {
        let cpi = if s.cpi_hint > 0.0 {
            s.cpi_hint
        } else {
            s.profile.base_cpi.max(0.1)
        };
        let apc = s.profile.accesses_per_insn();
        (s.cycles as f64 / cpi * apc).max(0.0)
    };
    let total_w: f64 = slices.iter().map(weight).sum();
    if total_w <= 0.0 {
        return false;
    }
    let k_total =
        cfg.cache_samples_per_slice as f64 * (slices.len() as f64).min(JOINT_SAMPLE_SLICES as f64);
    // A budget under 4 samples per slice would put the ceiling below the
    // floor; the floor wins.
    let ceiling = ((k_total * 4.0) as u64).max(MIN_SLICE_SAMPLES);
    quotas.clear();
    quotas.extend(slices.iter().map(|s| {
        ((k_total * weight(s) / total_w).round() as u64).clamp(MIN_SLICE_SAMPLES, ceiling)
    }));
    true
}

/// Fewest samples a memory-touching epoch gives any one slice.
const MIN_SLICE_SAMPLES: u64 = 16;

/// Samples a core walks through its L1 and L2 at a time. A chunk's
/// addresses and L1 misses are drawn and kept on the stack, so an epoch
/// holds no buffer of all its addresses.
const CHUNK: usize = 256;

/// One slice's addresses, drawn [`CHUNK`] at a time as a walk takes them:
/// exactly its quota, in `j` order.
struct Draws<'s> {
    stream: &'s mut TaskStream,
    mem: &'s MemoryBehavior,
    /// Addresses of the quota not drawn yet.
    left: usize,
    buf: [u64; CHUNK],
    /// The next address's index in `buf`; `CHUNK` when it is used up.
    next: usize,
}

impl<'s> Draws<'s> {
    fn new(slice: &'s mut SliceRequest<'_>, quota: usize) -> Self {
        Draws {
            stream: &mut *slice.stream,
            mem: &slice.profile.mem,
            left: quota,
            buf: [0; CHUNK],
            next: CHUNK,
        }
    }

    /// The slice's next address. Called at most its quota times.
    #[inline]
    fn next(&mut self) -> u64 {
        if self.next == CHUNK {
            let n = self.left.min(CHUNK);
            debug_assert!(n > 0, "more samples than the quota");
            self.stream.fill(self.mem, &mut self.buf[..n]);
            self.left -= n;
            self.next = 0;
        }
        self.next += 1;
        self.buf[self.next - 1]
    }
}

/// Walk one core's `count` samples, in `(t, i)` order, through its `l1`,
/// and each chunk's L1 misses through its `l2`, recording L2 hits in
/// `levels` and appending the L2 misses to `queue` at `queued`. Each
/// chunk's samples are gathered into a buffer on the stack before its L1
/// walk, so the walk's loop runs no draw or refill code: it is the tag
/// walk alone. A chunk's L1 misses are known before its L2
/// walk, which therefore prefetches, as the L3 walk does
/// (`SetAssocCache::walk_slice`).
///
/// A miss is kept without a branch: every sample is written to the next
/// free slot, which a miss then keeps by advancing the count. So the L1
/// misses of a chunk take a slot per sample, and `queue` is grown to hold
/// every L1 miss of the chunk before the L2 walk.
fn walk_core(
    mut samples: impl Iterator<Item = Sample>,
    count: usize,
    l1: &mut SetAssocCache,
    l2: &mut SetAssocCache,
    levels: &mut [CacheLevel],
    queue: &mut Vec<Sample>,
    queued: &mut usize,
) {
    let mut chunk = [Sample::default(); CHUNK];
    let mut l1_misses = [Sample::default(); CHUNK];
    for _ in 0..count.div_ceil(CHUNK) {
        let mut len = 0;
        for sample in samples.by_ref().take(CHUNK) {
            chunk[len] = sample;
            len += 1;
        }
        let mut missed = 0;
        l1.walk(
            chunk[..len].iter().copied(),
            |s| s.addr,
            |s, hit| {
                l1_misses[missed] = s;
                missed += usize::from(!hit);
            },
        );
        if queue.len() < *queued + missed {
            // Its length only grows: the entries in use are `..queued`.
            queue.resize(*queued + missed, Sample::default());
        }
        let mut end = *queued;
        l2.walk_slice(
            &l1_misses[..missed],
            |s| s.addr,
            |s, hit| {
                // A miss is settled by the L3 pass.
                levels[s.at as usize] = if hit {
                    CacheLevel::L2
                } else {
                    CacheLevel::Memory
                };
                queue[end] = s;
                end += usize::from(!hit);
            },
        );
        *queued = end;
    }
}

/// The samples of two SMT siblings `i < k` (`slices`) in `(t, i)` order,
/// each drawing its address from its `draws`: a tie in `t` goes to `i`.
fn siblings<'s>(
    slices: [usize; 2],
    start: &[usize],
    quotas: &[u64],
    mut draws: [Draws<'s>; 2],
) -> impl Iterator<Item = Sample> + 's {
    let [i, k] = slices;
    let (qi, qk) = (quotas[i], quotas[k]);
    let (si, sk) = (start[i], start[k]);
    let (mut ji, mut jk) = (0, 0);
    let (mut ti, mut tk) = (sample_time(0, qi), sample_time(0, qk));
    std::iter::from_fn(move || {
        if ji < qi && (jk == qk || ti <= tk) {
            let at = si + ji as usize;
            ji += 1;
            ti = sample_time(ji, qi);
            Some(Sample::new(draws[0].next(), at, i))
        } else if jk < qk {
            let at = sk + jk as usize;
            jk += 1;
            tk = sample_time(jk, qk);
            Some(Sample::new(draws[1].next(), at, k))
        } else {
            None
        }
    })
}

/// One core's L2 misses in [`WalkScratch::queue`], `next..end`, in
/// `(t, i)` order, with the `(t, i)` of the next.
struct Run {
    next: usize,
    end: usize,
    head: (u64, u32),
}

/// The samples of the non-empty `runs` of `queue` into `merged` (cleared
/// first) in `(t, i)` order, which `key` gives. The runs are a socket's busy
/// cores, so a pick scans a handful of heads; each run is dropped from
/// `runs` as it empties.
fn merge_runs(
    queue: &[Sample],
    runs: &mut Vec<Run>,
    key: impl Fn(Sample) -> (u64, u32),
    merged: &mut Vec<Sample>,
) {
    merged.clear();
    while let Some(r) = (0..runs.len()).min_by_key(|&r| runs[r].head) {
        let run = &mut runs[r];
        merged.push(queue[run.next]);
        run.next += 1;
        if run.next == run.end {
            runs.swap_remove(r);
        } else {
            run.head = key(queue[run.next]);
        }
    }
}

/// One sample of an epoch: its address, its index in
/// [`WalkScratch::levels`], and its slice.
#[derive(Clone, Copy, Default)]
struct Sample {
    addr: u64,
    at: u32,
    slice: u32,
}

impl Sample {
    #[inline]
    fn new(addr: u64, at: usize, slice: usize) -> Self {
        // `sample_caches` checks that every sample index fits.
        Sample {
            addr,
            at: at as u32,
            slice: slice as u32,
        }
    }
}

/// Working memory of [`Machine::execute_epoch_into`], kept across epochs.
/// Every vector starts empty.
#[derive(Default)]
struct EpochScratch {
    /// Per PU: whether a slice of this epoch runs there (the sanity check).
    pu_taken: Vec<bool>,
    /// Per physical core: slices of this epoch running on it.
    busy_on_core: Vec<u32>,
    /// Per slice: its sample quota.
    quotas: Vec<u64>,
    /// Per slice: its sampling tallies.
    stats: Vec<SampleStats>,
}

/// Working memory of [`Machine::sample_caches`], one per thread ([`WALK`])
/// rather than one per machine: it is sized by an epoch's samples, and a
/// cluster worker steps many machines one at a time.
#[derive(Default)]
struct WalkScratch {
    /// Per slice: its physical core.
    core: Vec<usize>,
    /// Per slice: index of its first sample in `levels`.
    start: Vec<usize>,
    /// Level that served each sample, slice by slice, each in `j` order.
    levels: Vec<CacheLevel>,
    /// One socket's L2 misses bound for its L3, a `(t, i)`-ordered run per
    /// core, followed by room for the next chunk's L2 misses.
    queue: Vec<Sample>,
    /// The runs of `queue`.
    runs: Vec<Run>,
    /// The socket's L2 misses merged into `(t, i)` order.
    merged: Vec<Sample>,
}

thread_local! {
    /// The walk buffers of the machines this thread samples, taken for the
    /// length of a [`Machine::sample_caches`] call and put back after it.
    static WALK: Cell<WalkScratch> = Cell::new(WalkScratch::default());
}

/// Fraction of this profile's FP ops that take a micro-code assist on a
/// machine with the given triggers.
fn assist_fraction(p: &ExecProfile, t: &crate::config::AssistTriggers) -> f64 {
    let nonfinite = match p.fp_unit {
        FpUnit::X87 => {
            if t.x87_nonfinite {
                p.nonfinite_frac
            } else {
                0.0
            }
        }
        FpUnit::Sse | FpUnit::Generic => {
            if t.sse_nonfinite {
                p.nonfinite_frac
            } else {
                0.0
            }
        }
    };
    let denormal = if t.denormal { p.denormal_frac } else { 0.0 };
    (nonfinite + denormal).min(1.0)
}

fn build_outcome(
    p: &ExecProfile,
    st: &SampleStats,
    instructions: u64,
    cycles: u64,
    assist_frac: f64,
    mem_cpi: f64,
) -> ExecOutcome {
    let insn_f = instructions as f64;
    let rate = |num: u64| {
        if st.sampled == 0 {
            0.0
        } else {
            num as f64 / st.sampled as f64
        }
    };
    let accesses = p.accesses_per_insn() * insn_f;

    let mut ev = EventCounts::ZERO;
    ev.set(HwEvent::Cycles, cycles);
    ev.set(HwEvent::Instructions, instructions);
    ev.set(HwEvent::RefCycles, cycles);

    let loads = (p.loads_per_insn * insn_f).round() as u64;
    let stores = (p.stores_per_insn * insn_f).round() as u64;
    ev.set(HwEvent::Loads, loads);
    ev.set(HwEvent::Stores, stores);

    // Hierarchy-consistent miss counts: L3 misses ⊆ L2 misses ⊆ L1 misses ⊆ accesses.
    let l1m = (rate(st.l1_miss) * accesses).round() as u64;
    let l2m = ((rate(st.l2_miss) * accesses).round() as u64).min(l1m);
    let l3m = ((rate(st.l3_miss) * accesses).round() as u64).min(l2m);
    ev.set(HwEvent::L1dMisses, l1m);
    ev.set(HwEvent::L2Misses, l2m);
    ev.set(HwEvent::CacheReferences, l2m); // accesses that reach the LLC
    ev.set(HwEvent::CacheMisses, l3m);

    let branches = (p.branches_per_insn * insn_f).round() as u64;
    ev.set(HwEvent::BranchInstructions, branches);
    ev.set(
        HwEvent::BranchMisses,
        ((p.branch_miss_rate * branches as f64).round() as u64).min(branches),
    );

    let fp = (p.fp_per_insn * insn_f).round() as u64;
    ev.set(HwEvent::FpOps, fp);
    ev.set(
        HwEvent::FpAssists,
        ((assist_frac * fp as f64).round() as u64).min(fp),
    );

    ev.set(
        HwEvent::StallCyclesMem,
        ((mem_cpi * insn_f).round() as u64).min(cycles),
    );

    ExecOutcome {
        cycles,
        instructions,
        events: ev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::MemoryBehavior;

    fn machine() -> Machine {
        Machine::new(MachineConfig::nehalem_w3550().noiseless(), 7)
    }

    fn small_profile(name: &str, footprint: u64) -> ExecProfile {
        ExecProfile::builder(name)
            .base_cpi(0.75)
            .branches(0.18, 0.0) // no mispredictions: isolate memory effects
            .memory(MemoryBehavior::uniform(footprint))
            .build()
    }

    /// Epochs needed to stream a footprint through sampled warmup, with slack.
    fn warm_epochs(m: &Machine, footprint: u64, co_runners: u64) -> u64 {
        let lines = footprint / 64;
        let per_epoch = m.config().cache_samples_per_slice as u64;
        (lines * co_runners * 8 / per_epoch).max(4)
    }

    /// Run `profile` alone on PU `pu` for `cycles`, warming first.
    fn run_alone(m: &mut Machine, pu: usize, profile: &ExecProfile, cycles: u64) -> ExecOutcome {
        let mut stream = TaskStream::new(pu as u64 + 1, 1234 + pu as u64);
        for _ in 0..warm_epochs(m, profile.mem.footprint(), 1) {
            let mut req = [SliceRequest::new(PuId(pu), profile, &mut stream).cycles(cycles)];
            m.execute_epoch(&mut req);
        }
        let mut req = [SliceRequest::new(PuId(pu), profile, &mut stream).cycles(cycles)];
        m.execute_epoch(&mut req)[0]
    }

    #[test]
    fn cache_resident_workload_hits_near_base_cpi() {
        let mut m = machine();
        let p = small_profile("tiny", 16 * 1024); // fits L1
        let o = run_alone(&mut m, 0, &p, 10_000_000);
        let ipc = o.ipc();
        assert!(
            (1.25..=1.34).contains(&ipc),
            "L1-resident workload should run at ~1/base_cpi = 1.33, got {ipc}"
        );
        // Consistency of the event vector.
        assert_eq!(o.events.get(HwEvent::Cycles), o.cycles);
        assert_eq!(o.events.get(HwEvent::Instructions), o.instructions);
        assert!(o.events.get(HwEvent::CacheMisses) <= o.events.get(HwEvent::CacheReferences));
        assert!(o.events.get(HwEvent::L1dMisses) >= o.events.get(HwEvent::L2Misses));
    }

    #[test]
    fn bigger_footprints_mean_lower_ipc() {
        let mut m = machine();
        let small = run_alone(&mut m, 0, &small_profile("s", 16 << 10), 10_000_000);
        m.flush_caches();
        let medium = run_alone(&mut m, 0, &small_profile("m", 2 << 20), 10_000_000);
        m.flush_caches();
        let huge = run_alone(&mut m, 0, &small_profile("h", 256 << 20), 10_000_000);
        assert!(
            small.ipc() > medium.ipc() && medium.ipc() > huge.ipc(),
            "IPC must degrade with footprint: {} > {} > {}",
            small.ipc(),
            medium.ipc(),
            huge.ipc()
        );
        assert!(huge.events.get(HwEvent::CacheMisses) > medium.events.get(HwEvent::CacheMisses));
    }

    #[test]
    fn max_instructions_caps_the_slice() {
        let mut m = machine();
        let p = small_profile("capped", 16 << 10);
        let mut stream = TaskStream::new(1, 5);
        let mut req = [SliceRequest::new(PuId(0), &p, &mut stream)
            .cycles(1_000_000)
            .max_instructions(1000)];
        let o = m.execute_epoch(&mut req)[0];
        assert_eq!(o.instructions, 1000);
        assert!(
            o.cycles < 1_000_000,
            "cycles {} should shrink with the cap",
            o.cycles
        );
        assert!(
            o.cycles >= 500,
            "1000 insns can't take fewer than min_cpi cycles"
        );
    }

    #[test]
    fn smt_siblings_slow_each_other_down() {
        let mut m = machine();
        let p = small_profile("smt", 16 << 10);
        let alone = run_alone(&mut m, 0, &p, 10_000_000);

        // Same workload on PUs 0 and 4 (SMT siblings on core 0).
        let mut s0 = TaskStream::new(10, 1);
        let mut s1 = TaskStream::new(11, 2);
        for _ in 0..warm_epochs(&m, 2 * p.mem.footprint(), 2) {
            let mut reqs = [
                SliceRequest::new(PuId(0), &p, &mut s0).cycles(10_000_000),
                SliceRequest::new(PuId(4), &p, &mut s1).cycles(10_000_000),
            ];
            m.execute_epoch(&mut reqs);
        }
        let mut reqs = [
            SliceRequest::new(PuId(0), &p, &mut s0).cycles(10_000_000),
            SliceRequest::new(PuId(4), &p, &mut s1).cycles(10_000_000),
        ];
        let both = m.execute_epoch(&mut reqs);
        let ratio = both[0].ipc() / alone.ipc();
        assert!(
            (0.5..0.8).contains(&ratio),
            "SMT sibling should retain ~smt_share of solo IPC, got {ratio}"
        );
    }

    #[test]
    fn different_cores_no_smt_penalty_for_small_sets() {
        let mut m = machine();
        let p = small_profile("pair", 16 << 10);
        let alone = run_alone(&mut m, 0, &p, 10_000_000);
        let mut s0 = TaskStream::new(10, 1);
        let mut s1 = TaskStream::new(11, 2);
        // PUs 0 and 1 are different physical cores; L1-resident sets don't
        // contend in L3.
        for _ in 0..8 {
            let mut reqs = [
                SliceRequest::new(PuId(0), &p, &mut s0).cycles(10_000_000),
                SliceRequest::new(PuId(1), &p, &mut s1).cycles(10_000_000),
            ];
            m.execute_epoch(&mut reqs);
        }
        let mut reqs = [
            SliceRequest::new(PuId(0), &p, &mut s0).cycles(10_000_000),
            SliceRequest::new(PuId(1), &p, &mut s1).cycles(10_000_000),
        ];
        let both = m.execute_epoch(&mut reqs);
        let ratio = both[0].ipc() / alone.ipc();
        assert!(
            ratio > 0.95,
            "no SMT penalty across cores, got ratio {ratio}"
        );
    }

    #[test]
    fn shared_l3_contention_emerges() {
        // Two tasks whose warm tier is ~60% of L3 each: alone it fits,
        // together they thrash — the paper's Fig 11 (a)/(b) mechanism.
        let cfg = MachineConfig::nehalem_w3550().noiseless();
        let warm = (cfg.uarch.l3.size_bytes as f64 * 0.6) as u64;
        let p = ExecProfile::builder("mcf-ish")
            .base_cpi(0.9)
            .loads_per_insn(0.35)
            .stores_per_insn(0.1)
            .memory(MemoryBehavior::uniform(warm))
            .mlp(1.5)
            .build();

        let mut m = Machine::new(cfg, 3);
        let alone = run_alone(&mut m, 0, &p, 50_000_000);

        m.flush_caches();
        let mut s0 = TaskStream::new(20, 1);
        let mut s1 = TaskStream::new(21, 2);
        let run_pair = |m: &mut Machine, s0: &mut TaskStream, s1: &mut TaskStream| {
            let mut reqs = [
                SliceRequest::new(PuId(0), &p, s0).cycles(50_000_000),
                SliceRequest::new(PuId(1), &p, s1).cycles(50_000_000),
            ];
            m.execute_epoch(&mut reqs)
        };
        for _ in 0..warm_epochs(&m, 2 * warm, 2) {
            run_pair(&mut m, &mut s0, &mut s1);
        }
        let both = run_pair(&mut m, &mut s0, &mut s1);

        let solo_missrate = alone.events.get(HwEvent::CacheMisses) as f64
            / alone.events.get(HwEvent::Instructions) as f64;
        let pair_missrate = both[0].events.get(HwEvent::CacheMisses) as f64
            / both[0].events.get(HwEvent::Instructions) as f64;
        assert!(
            pair_missrate > solo_missrate * 1.5,
            "shared-L3 thrash: pair LLC missrate {pair_missrate} vs solo {solo_missrate}"
        );
        assert!(
            both[0].ipc() < alone.ipc() * 0.97,
            "co-runner must cost IPC"
        );
    }

    #[test]
    fn x87_assists_collapse_ipc_but_sse_does_not() {
        let mut m = machine();
        let mk = |unit: FpUnit, nonfinite: f64| {
            ExecProfile::builder("fp")
                .base_cpi(0.75)
                .loads_per_insn(0.0)
                .stores_per_insn(0.0)
                .branches(0.25, 0.0)
                .fp(0.25, unit)
                .operand_classes(nonfinite, 0.0)
                .memory(MemoryBehavior::uniform(4096))
                .build()
        };
        let x87_fin = run_alone(&mut m, 0, &mk(FpUnit::X87, 0.0), 10_000_000);
        let x87_inf = run_alone(&mut m, 1, &mk(FpUnit::X87, 1.0), 10_000_000);
        let sse_inf = run_alone(&mut m, 2, &mk(FpUnit::Sse, 1.0), 10_000_000);
        let slowdown = x87_fin.ipc() / x87_inf.ipc();
        assert!(slowdown > 50.0, "x87 assist slowdown was only {slowdown}x");
        assert!(
            (sse_inf.ipc() / x87_fin.ipc()) > 0.95,
            "SSE must not assist on Inf/NaN (Table 1)"
        );
        assert!(x87_inf.events.get(HwEvent::FpAssists) > 0);
        assert_eq!(sse_inf.events.get(HwEvent::FpAssists), 0);
    }

    #[test]
    fn ppc970_has_no_assist_collapse() {
        let mut m = Machine::new(MachineConfig::ppc970_machine().noiseless(), 9);
        let p = ExecProfile::builder("fp")
            .base_cpi(0.9)
            .branches(0.18, 0.0)
            .fp(0.25, FpUnit::Generic)
            .operand_classes(1.0, 0.0)
            .memory(MemoryBehavior::uniform(4096))
            .build();
        let o = run_alone(&mut m, 0, &p, 10_000_000);
        assert_eq!(o.events.get(HwEvent::FpAssists), 0);
        assert!(
            o.ipc() > 0.9,
            "PPC970 IPC should be unaffected, got {}",
            o.ipc()
        );
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = || {
            let mut m = Machine::new(MachineConfig::nehalem_w3550(), 1234);
            let p = small_profile("d", 1 << 20);
            let mut s = TaskStream::new(1, 42);
            let mut total = EventCounts::ZERO;
            for _ in 0..5 {
                let mut req = [SliceRequest::new(PuId(0), &p, &mut s).cycles(5_000_000)];
                let o = m.execute_epoch(&mut req)[0];
                total.accumulate(&o.events);
            }
            total
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "two slices on PU")]
    fn duplicate_pu_rejected() {
        let mut m = machine();
        let p = small_profile("dup", 4096);
        let mut s0 = TaskStream::new(1, 1);
        let mut s1 = TaskStream::new(2, 2);
        let mut reqs = [
            SliceRequest::new(PuId(0), &p, &mut s0).cycles(1000),
            SliceRequest::new(PuId(0), &p, &mut s1).cycles(1000),
        ];
        m.execute_epoch(&mut reqs);
    }

    #[test]
    fn zero_cycles_zero_outcome() {
        let mut m = machine();
        let p = small_profile("z", 4096);
        let mut s = TaskStream::new(1, 1);
        let mut req = [SliceRequest::new(PuId(0), &p, &mut s).cycles(0)];
        let o = m.execute_epoch(&mut req)[0];
        assert_eq!(o.instructions, 0);
        assert_eq!(o.cycles, 0);
    }

    #[test]
    fn sample_budgets_under_four_run_at_the_floor() {
        let p = small_profile("budget", 1 << 20);
        for n in [0, 1, 3] {
            let mut m = Machine::new(MachineConfig::nehalem_w3550().with_samples(n), 1);
            let mut s = TaskStream::new(1, 1);
            let o =
                m.execute_epoch(&mut [SliceRequest::new(PuId(0), &p, &mut s).cycles(1_000_000)])[0];
            assert!(o.instructions > 0, "budget {n}");
            assert_eq!(s.drawn(), MIN_SLICE_SAMPLES, "budget {n}");
        }
    }

    /// Every field, `penalty_sum` by its bits.
    fn stats_bits(stats: &[SampleStats]) -> Vec<[u64; 5]> {
        stats
            .iter()
            .map(|s| {
                [
                    s.sampled,
                    s.l1_miss,
                    s.l2_miss,
                    s.l3_miss,
                    s.penalty_sum.to_bits(),
                ]
            })
            .collect()
    }

    /// Seeded random epochs through the two-pass sampler and the heap-merge
    /// oracle on twin machines: every tally, outcome, L3 count and stream
    /// position must agree after every epoch. The L3 has 256 sets, indexed
    /// by a mask.
    #[test]
    fn two_pass_sampler_matches_the_single_merge_oracle() {
        sampler_matches_the_oracle(256);
    }

    /// [`two_pass_sampler_matches_the_single_merge_oracle`] with an L3 of
    /// 192 sets, indexed by the multiply-based remainder, as the E5640's
    /// 12,288-set L3 is.
    #[test]
    fn two_pass_sampler_matches_the_oracle_on_a_modulo_indexed_l3() {
        sampler_matches_the_oracle(192);
    }

    /// The oracle comparison on a `datacenter_e5640` with an L3 of
    /// `l3_kib`, 16 ways of 64-byte lines.
    fn sampler_matches_the_oracle(l3_kib: u64) {
        use crate::access::{AccessPattern, WorkingSetTier};

        let mem = |tiers: Vec<(u64, f64, AccessPattern)>| {
            MemoryBehavior::new(
                tiers
                    .into_iter()
                    .map(|(bytes, w, pat)| WorkingSetTier::new(bytes, w, pat))
                    .collect(),
            )
        };
        let profile = |name: &str, loads: f64, mem: MemoryBehavior| {
            ExecProfile::builder(name)
                .base_cpi(0.8)
                .loads_per_insn(loads)
                .stores_per_insn(loads / 3.0)
                .memory(mem)
                .build()
        };
        let profiles = [
            profile("seq", 0.3, MemoryBehavior::streaming(384 << 10)),
            profile(
                "strided",
                0.25,
                mem(vec![
                    (64 << 10, 0.7, AccessPattern::Strided(192)),
                    (20 << 20, 0.3, AccessPattern::Strided(4160)),
                ]),
            ),
            profile(
                "random",
                0.4,
                mem(vec![
                    (24 << 10, 0.6, AccessPattern::Random),
                    (6 << 20, 0.3, AccessPattern::Random),
                    (64 << 20, 0.1, AccessPattern::Random),
                ]),
            ),
            profile("no-mem", 0.0, MemoryBehavior::uniform(4096)),
            // More tiers than `TaskStream::fill` takes in one table.
            profile(
                "five-tier",
                0.3,
                mem(vec![
                    (16 << 10, 0.5, AccessPattern::Random),
                    (640, 0.1, AccessPattern::Sequential),
                    (100 << 10, 0.2, AccessPattern::Strided(320)),
                    (3 << 20, 0.1, AccessPattern::Random),
                    (32 << 20, 0.1, AccessPattern::Random),
                ]),
            ),
        ];
        // Non-integer latencies make the order of the f64 penalty additions
        // observable; an L3 this small evicts within a few epochs, which
        // makes the order of its accesses observable.
        let mut base = MachineConfig::datacenter_e5640().with_l3_kib(l3_kib);
        assert_eq!(base.uarch.l3.num_sets(), l3_kib);
        base.uarch.lat_l2 = 8.3;
        base.uarch.lat_l3 = 37.7;
        base.uarch.lat_mem = 181.9;
        let pus = base.topology.num_pus();
        let tasks = 24;

        let (mut floor, mut lone, mut siblings, mut both_sockets) = (0, 0, 0, 0);
        let (mut l3_hits, mut l3_misses) = (0, 0);
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            // Budgets under 4 make the k_total*4 ceiling bind.
            let budget = [0, 1, 3, 4, 64, 512][seed as usize % 6];
            let cfg = Arc::new(base.clone().with_samples(budget));
            let mut a = Machine::new(Arc::clone(&cfg), seed);
            let mut b = Machine::new(cfg, seed);
            let mut streams_a: Vec<TaskStream> = (0..tasks)
                .map(|t| TaskStream::new(t + 1, seed * 1000 + t))
                .collect();
            let mut streams_b = streams_a.clone();

            for epoch in 0..40 {
                let n = if epoch == 0 {
                    1
                } else {
                    rng.random_range(1..pus as u64 + 1) as usize
                };
                // n distinct PUs and n distinct tasks, by partial shuffles.
                let mut pu_ids: Vec<usize> = (0..pus).collect();
                let mut task_ids: Vec<usize> = (0..tasks as usize).collect();
                for k in 0..n {
                    let p = k + rng.random_range(0..(pus - k) as u64) as usize;
                    pu_ids.swap(k, p);
                    let t = k + rng.random_range(0..(tasks as usize - k) as u64) as usize;
                    task_ids.swap(k, t);
                }
                let plan: Vec<(usize, usize, u64, f64)> = (0..n)
                    .map(|k| {
                        let cycles = if rng.random_range(0..8) == 0 {
                            0
                        } else {
                            rng.random_range(1..4_000_000)
                        };
                        let hint = if rng.random_range(0..2) == 0 {
                            0.0
                        } else {
                            0.5 + rng.random::<f64>() * 3.0
                        };
                        (pu_ids[k], task_ids[k], cycles, hint)
                    })
                    .collect();
                let run = |m: &mut Machine, streams: &mut [TaskStream], oracle: bool| {
                    let mut picked: Vec<Option<&mut TaskStream>> =
                        streams.iter_mut().map(Some).collect();
                    let mut reqs: Vec<SliceRequest<'_>> = plan
                        .iter()
                        .map(|&(pu, t, cycles, hint)| {
                            let stream = picked[t].take().expect("distinct tasks");
                            SliceRequest::new(PuId(pu), &profiles[t % profiles.len()], stream)
                                .cycles(cycles)
                                .cpi_hint(hint)
                        })
                        .collect();
                    let mut stats = Vec::new();
                    let mut out = Vec::new();
                    m.execute_epoch_with(&mut reqs, &mut out, |m, s, topo, st| {
                        if oracle {
                            *st = m.sample_caches_reference(s, topo);
                        } else {
                            m.sample_caches(s, topo, st);
                        }
                        stats = st.clone();
                    });
                    (stats_bits(&stats), out)
                };
                let (stats_a, out_a) = run(&mut a, &mut streams_a, false);
                let (stats_b, out_b) = run(&mut b, &mut streams_b, true);
                let ctx = format!("seed {seed} epoch {epoch}");
                assert_eq!(stats_a, stats_b, "{ctx}: sample tallies");
                assert_eq!(out_a, out_b, "{ctx}: outcomes");
                for socket in 0..base.topology.sockets() {
                    assert_eq!(a.l3_stats(socket), b.l3_stats(socket), "{ctx}: L3 {socket}");
                }
                let drawn = |s: &[TaskStream]| s.iter().map(TaskStream::drawn).collect::<Vec<_>>();
                assert_eq!(drawn(&streams_a), drawn(&streams_b), "{ctx}: draws");

                let topo = &base.topology;
                floor += stats_a.iter().filter(|s| s[0] == MIN_SLICE_SAMPLES).count();
                lone += usize::from(n == 1);
                let cores: Vec<usize> = plan.iter().map(|p| topo.core_of(PuId(p.0)).0).collect();
                siblings += usize::from((1..n).any(|k| cores[..k].contains(&cores[k])));
                let sockets: Vec<usize> = cores
                    .iter()
                    .map(|&c| topo.socket_of_core(CoreId(c)).0)
                    .collect();
                both_sockets += usize::from(sockets.contains(&0) && sockets.contains(&1));
            }
            for socket in 0..base.topology.sockets() {
                let (hits, misses) = a.l3_stats(socket);
                l3_hits += hits;
                l3_misses += misses;
            }
        }
        assert!(floor > 0 && lone > 0 && siblings > 0 && both_sockets > 0);
        assert!(l3_hits > 0 && l3_misses > 0);
    }
}
