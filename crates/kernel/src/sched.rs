//! Epoch-driven CFS-like scheduler.
//!
//! The kernel advances time in fixed *epochs* (default 20 ms). Each epoch the
//! scheduler picks, per processing unit, at most one runnable task; fairness
//! across epochs comes from CFS-style virtual runtimes — tasks that were left
//! out keep their low `vruntime` and win the next epoch, so timesharing
//! emerges at epoch granularity (far finer than the tool's seconds-scale
//! refresh).
//!
//! Placement mirrors the behaviour the paper leans on: a waking task prefers
//! (1) the PU it last ran on if free (cache warmth), then (2) a PU on a fully
//! idle *physical core* (so SMT siblings are used only when all cores are
//! busy — and the mostly-idle tiptop process itself lands "on the least
//! loaded core", §2.5), then (3) any free PU. `taskset`-style affinity masks
//! restrict all choices.
//!
//! The pick *order* is pluggable: a [`Scheduler`] turns a [`SchedCtx`] (the
//! topology plus every runnable entity) into an [`EpochPlan`] once per
//! epoch. [`CfsLike`] is the default and what every paper figure runs on;
//! [`Fifo`] and [`RoundRobin`] are alternative planners, and custom ones
//! plug in through [`SchedulerSelect::custom`] without touching the kernel.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use tiptop_machine::topology::{PuId, Topology};

use crate::task::Pid;

/// A set of PUs a task may run on (`taskset` mask). Supports up to 64 PUs,
/// ample for the paper's 16-PU data-center nodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CpuSet(u64);

impl CpuSet {
    /// All PUs allowed.
    pub fn all() -> CpuSet {
        CpuSet(u64::MAX)
    }

    /// Only `pu` allowed.
    pub fn single(pu: PuId) -> CpuSet {
        assert!(pu.0 < 64, "CpuSet supports up to 64 PUs");
        CpuSet(1 << pu.0)
    }

    /// Allow exactly the given PUs.
    pub fn of(pus: &[PuId]) -> CpuSet {
        let mut m = 0u64;
        for pu in pus {
            assert!(pu.0 < 64, "CpuSet supports up to 64 PUs");
            m |= 1 << pu.0;
        }
        assert!(m != 0, "empty CpuSet");
        CpuSet(m)
    }

    /// Fallible [`CpuSet::single`]: `None` when `pu` is beyond the 64-PU
    /// mask. User-facing builders (`Scenario::pin_at`, spawn affinities)
    /// route through this so a bad mask surfaces as a typed scenario error
    /// instead of a panic.
    pub fn try_single(pu: PuId) -> Option<CpuSet> {
        (pu.0 < 64).then(|| CpuSet(1 << pu.0))
    }

    /// Fallible [`CpuSet::of`]: `None` for an empty set or any PU ≥ 64.
    pub fn try_of(pus: &[PuId]) -> Option<CpuSet> {
        let mut m = 0u64;
        for pu in pus {
            if pu.0 >= 64 {
                return None;
            }
            m |= 1 << pu.0;
        }
        (m != 0).then_some(CpuSet(m))
    }

    pub fn allows(&self, pu: PuId) -> bool {
        pu.0 < 64 && (self.0 >> pu.0) & 1 == 1
    }

    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }
}

/// CFS weight for a nice level: each nice step changes the share by ~1.25×,
/// as in Linux.
pub fn weight_for_nice(nice: i32) -> f64 {
    1.25f64.powi(-nice)
}

/// Scheduler's view of one runnable task.
#[derive(Clone, Debug)]
pub struct SchedEntity {
    pub pid: Pid,
    pub vruntime: f64,
    pub weight: f64,
    pub affinity: CpuSet,
    /// PU the task last ran on, for cache-warm placement.
    pub last_pu: Option<PuId>,
}

/// The epoch's placement decision: `assignment[pu] = Some(pid)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochPlan {
    pub assignment: Vec<Option<Pid>>,
}

impl EpochPlan {
    pub fn running_pairs(&self) -> impl Iterator<Item = (PuId, Pid)> + '_ {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(pu, p)| p.map(|pid| (PuId(pu), pid)))
    }

    pub fn num_running(&self) -> usize {
        self.assignment.iter().filter(|p| p.is_some()).count()
    }
}

/// Plan one epoch: assign the lowest-vruntime runnable tasks to PUs.
///
/// Deterministic: ties break on pid, placement preferences are fixed-order.
/// This is the [`CfsLike`] policy as a free function, kept for callers that
/// predate the [`Scheduler`] trait.
pub fn plan_epoch(topo: &Topology, runnable: &[SchedEntity]) -> EpochPlan {
    CfsLike.plan(&SchedCtx {
        topo,
        runnable,
        epoch_index: 0,
    })
}

/// The greedy placement pass shared by every planner: walk `order` (highest
/// priority first) and give each entity its preferred free PU — warm, then
/// fully idle core, then warm-but-shared, then any allowed — into a reused
/// plan and core-occupancy buffer. Entities left over when PUs run out
/// simply don't run this epoch.
fn place_into<'e>(
    topo: &Topology,
    order: impl Iterator<Item = &'e SchedEntity>,
    plan: &mut EpochPlan,
    core_busy: &mut Vec<u32>,
) {
    let assignment = &mut plan.assignment;
    assignment.clear();
    assignment.resize(topo.num_pus(), None);
    core_busy.clear();
    core_busy.resize(topo.num_cores(), 0);
    for ent in order {
        let chosen = choose_pu(topo, assignment, core_busy, ent);
        if let Some(pu) = chosen {
            assignment[pu.0] = Some(ent.pid);
            core_busy[topo.core_of(pu).0] += 1;
        }
        // else: no allowed PU free this epoch; under CfsLike the task keeps
        // its low vruntime and wins next epoch — timesharing.
    }
}

/// Reusable buffers for [`Scheduler::plan_into`]: the pick order (indices
/// into [`SchedCtx::runnable`]) and per-core occupancy. The epoch engine
/// keeps one, so the built-in planners plan an epoch without allocating.
#[derive(Clone, Debug, Default)]
pub struct PlanScratch {
    order: Vec<usize>,
    core_busy: Vec<u32>,
}

impl PlanScratch {
    /// Plan `ctx` into `out`: the runnable entities sorted by `cmp` (a total
    /// order, so the sort is unique), rotated left by `rotate`, then placed.
    fn plan(
        &mut self,
        ctx: &SchedCtx<'_>,
        out: &mut EpochPlan,
        cmp: impl Fn(&SchedEntity, &SchedEntity) -> Ordering,
        rotate: u64,
    ) {
        let PlanScratch { order, core_busy } = self;
        let runnable = ctx.runnable;
        order.clear();
        order.extend(0..runnable.len());
        order.sort_unstable_by(|&a, &b| cmp(&runnable[a], &runnable[b]));
        if !order.is_empty() {
            let k = (rotate % order.len() as u64) as usize;
            order.rotate_left(k);
        }
        place_into(
            ctx.topo,
            order.iter().map(|&i| &runnable[i]),
            out,
            core_busy,
        );
    }
}

fn choose_pu(
    topo: &Topology,
    assignment: &[Option<Pid>],
    core_busy: &[u32],
    ent: &SchedEntity,
) -> Option<PuId> {
    let free_allowed = |pu: PuId| assignment[pu.0].is_none() && ent.affinity.allows(pu);

    // 1. Warm PU, if free and its core is not already busy with someone else
    //    (don't volunteer for SMT sharing just for warmth).
    if let Some(last) = ent.last_pu {
        if last.0 < assignment.len() && free_allowed(last) && core_busy[topo.core_of(last).0] == 0 {
            return Some(last);
        }
    }
    // 2. Any PU on a fully idle physical core.
    for pu in topo.pus() {
        if free_allowed(pu) && core_busy[topo.core_of(pu).0] == 0 {
            return Some(pu);
        }
    }
    // 3. Warm PU even if sharing the core.
    if let Some(last) = ent.last_pu {
        if last.0 < assignment.len() && free_allowed(last) {
            return Some(last);
        }
    }
    // 4. Any free allowed PU (SMT sibling of a busy core).
    topo.pus().find(|&pu| free_allowed(pu))
}

/// What a [`Scheduler`] sees when planning one epoch: the machine topology
/// plus every runnable entity (vruntime, weight, affinity mask, last-ran
/// PU) and the index of the epoch being planned.
#[derive(Debug)]
pub struct SchedCtx<'a> {
    pub topo: &'a Topology,
    pub runnable: &'a [SchedEntity],
    /// 0-based epoch count since the engine booted; lets a planner rotate
    /// or age without carrying its own clock.
    pub epoch_index: u64,
}

/// An in-kernel epoch planner. Once per epoch the engine hands the planner
/// a [`SchedCtx`] and applies whatever [`EpochPlan`] comes back; everything
/// else (perf counting, memory, migration) is policy-agnostic.
///
/// Implementations must be deterministic functions of the contexts seen so
/// far — the cluster layer replays machines on arbitrary worker threads and
/// expects byte-identical streams. `Send + Sync` because kernels are
/// sharded across cluster worker threads.
pub trait Scheduler: Send + Sync {
    fn name(&self) -> &'static str;

    /// Plan one epoch into `out`, reusing its buffer and `scratch`'s. This
    /// is what the engine calls, with one plan and one scratch kept across
    /// epochs, so a steady-state epoch plans without allocating.
    fn plan_into(&mut self, ctx: &SchedCtx<'_>, out: &mut EpochPlan, scratch: &mut PlanScratch);

    /// Plan one epoch into fresh buffers.
    fn plan(&mut self, ctx: &SchedCtx<'_>) -> EpochPlan {
        let mut plan = EpochPlan::default();
        self.plan_into(ctx, &mut plan, &mut PlanScratch::default());
        plan
    }
}

/// CfsLike's pick order: lowest vruntime first, ties on pid.
fn by_vruntime(a: &SchedEntity, b: &SchedEntity) -> Ordering {
    a.vruntime
        .partial_cmp(&b.vruntime)
        .unwrap()
        .then_with(|| a.pid.cmp(&b.pid))
}

fn by_pid(a: &SchedEntity, b: &SchedEntity) -> Ordering {
    a.pid.cmp(&b.pid)
}

/// The default planner — the paper's CFS-like policy: lowest vruntime wins,
/// ties on pid, warmth-aware placement. Byte-identical to the historical
/// free-function scheduler ([`plan_epoch`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct CfsLike;

impl Scheduler for CfsLike {
    fn name(&self) -> &'static str {
        "cfs-like"
    }

    fn plan_into(&mut self, ctx: &SchedCtx<'_>, out: &mut EpochPlan, scratch: &mut PlanScratch) {
        scratch.plan(ctx, out, by_vruntime, 0);
    }
}

/// First-come-first-served: earliest-spawned (lowest-pid) runnable tasks
/// win every epoch, vruntime ignored. Under oversubscription late arrivals
/// starve until a winner exits — the contrast policy for fairness studies.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fifo;

impl Scheduler for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn plan_into(&mut self, ctx: &SchedCtx<'_>, out: &mut EpochPlan, scratch: &mut PlanScratch) {
        scratch.plan(ctx, out, by_pid, 0);
    }
}

/// Fixed-quantum round-robin: pid order rotated one slot per epoch, so
/// under oversubscription every task runs in turn regardless of how much it
/// has consumed. Stateless — the rotation derives from
/// [`SchedCtx::epoch_index`], keeping replays and checkpoints trivial.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobin;

impl Scheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn plan_into(&mut self, ctx: &SchedCtx<'_>, out: &mut EpochPlan, scratch: &mut PlanScratch) {
        scratch.plan(ctx, out, by_pid, ctx.epoch_index);
    }
}

/// A cloneable, `Debug`-gable scheduler choice: a named factory, so
/// `KernelConfig` (and `Scenario` above it) stays `Clone + Debug` while the
/// planner itself may hold mutable state. Third-party planners register
/// through [`SchedulerSelect::custom`] — swapping the in-kernel scheduler
/// never requires editing the kernel.
#[derive(Clone)]
pub struct SchedulerSelect {
    name: &'static str,
    make: Arc<dyn Fn() -> Box<dyn Scheduler> + Send + Sync>,
}

impl SchedulerSelect {
    /// The default CFS-like planner.
    pub fn cfs_like() -> SchedulerSelect {
        SchedulerSelect::custom("cfs-like", || Box::new(CfsLike))
    }

    /// First-come-first-served planner.
    pub fn fifo() -> SchedulerSelect {
        SchedulerSelect::custom("fifo", || Box::new(Fifo))
    }

    /// Rotating fixed-quantum planner.
    pub fn round_robin() -> SchedulerSelect {
        SchedulerSelect::custom("round-robin", || Box::new(RoundRobin))
    }

    /// Any user planner; `make` is called once per kernel boot.
    pub fn custom(
        name: &'static str,
        make: impl Fn() -> Box<dyn Scheduler> + Send + Sync + 'static,
    ) -> SchedulerSelect {
        SchedulerSelect {
            name,
            make: Arc::new(make),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Instantiate the planner.
    pub fn make(&self) -> Box<dyn Scheduler> {
        (self.make)()
    }
}

impl Default for SchedulerSelect {
    fn default() -> SchedulerSelect {
        SchedulerSelect::cfs_like()
    }
}

impl fmt::Debug for SchedulerSelect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SchedulerSelect({:?})", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(1, 4, 2, 4096) // 4 cores, 8 PUs
    }

    fn ent(pid: u32, vruntime: f64) -> SchedEntity {
        SchedEntity {
            pid: Pid(pid),
            vruntime,
            weight: 1.0,
            affinity: CpuSet::all(),
            last_pu: None,
        }
    }

    #[test]
    fn cpuset_membership() {
        let s = CpuSet::of(&[PuId(0), PuId(4)]);
        assert!(s.allows(PuId(0)));
        assert!(s.allows(PuId(4)));
        assert!(!s.allows(PuId(1)));
        assert_eq!(s.count(), 2);
    }

    #[test]
    #[should_panic(expected = "empty CpuSet")]
    fn empty_cpuset_rejected() {
        CpuSet::of(&[]);
    }

    #[test]
    fn weight_monotone_in_nice() {
        assert!(weight_for_nice(-5) > weight_for_nice(0));
        assert!(weight_for_nice(0) > weight_for_nice(5));
        assert_eq!(weight_for_nice(0), 1.0);
    }

    #[test]
    fn spreads_across_physical_cores_before_smt() {
        let t = topo();
        let runnable: Vec<_> = (0..4).map(|i| ent(i, 0.0)).collect();
        let plan = plan_epoch(&t, &runnable);
        assert_eq!(plan.num_running(), 4);
        // Each task must be on a distinct physical core.
        let mut cores: Vec<_> = plan
            .running_pairs()
            .map(|(pu, _)| t.core_of(pu).0)
            .collect();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len(), 4, "4 tasks should occupy 4 distinct cores");
    }

    #[test]
    fn smt_used_when_cores_exhausted() {
        let t = topo();
        let runnable: Vec<_> = (0..8).map(|i| ent(i, 0.0)).collect();
        let plan = plan_epoch(&t, &runnable);
        assert_eq!(plan.num_running(), 8, "all 8 PUs busy");
    }

    #[test]
    fn oversubscription_picks_lowest_vruntime() {
        let t = topo();
        // 10 tasks, 8 PUs: the two largest vruntimes are left out.
        let runnable: Vec<_> = (0..10).map(|i| ent(i, i as f64)).collect();
        let plan = plan_epoch(&t, &runnable);
        assert_eq!(plan.num_running(), 8);
        let scheduled: Vec<u32> = plan.running_pairs().map(|(_, p)| p.0).collect();
        assert!(!scheduled.contains(&8) && !scheduled.contains(&9));
    }

    #[test]
    fn affinity_respected_even_if_core_busy() {
        let t = topo();
        // Both pinned to PU 0 and its sibling PU 4 — the paper's "two copies
        // on the same physical core" experiment.
        let mut a = ent(1, 0.0);
        a.affinity = CpuSet::single(PuId(0));
        let mut b = ent(2, 0.0);
        b.affinity = CpuSet::single(PuId(4));
        let plan = plan_epoch(&t, &[a, b]);
        assert_eq!(plan.assignment[0], Some(Pid(1)));
        assert_eq!(plan.assignment[4], Some(Pid(2)));
    }

    #[test]
    fn pinned_task_waits_if_pu_taken() {
        let t = topo();
        let mut a = ent(1, 0.0);
        a.affinity = CpuSet::single(PuId(3));
        let mut b = ent(2, 1.0);
        b.affinity = CpuSet::single(PuId(3));
        let plan = plan_epoch(&t, &[a, b]);
        assert_eq!(
            plan.assignment[3],
            Some(Pid(1)),
            "lower vruntime wins the pin"
        );
        assert_eq!(plan.num_running(), 1, "loser cannot run elsewhere");
    }

    #[test]
    fn warm_placement_prefers_last_pu() {
        let t = topo();
        let mut a = ent(1, 0.0);
        a.last_pu = Some(PuId(6));
        let plan = plan_epoch(&t, &[a]);
        assert_eq!(plan.assignment[6], Some(Pid(1)));
    }

    #[test]
    fn determinism_ties_break_on_pid() {
        let t = topo();
        let runnable: Vec<_> = (0..3).map(|i| ent(i, 7.0)).collect();
        let p1 = plan_epoch(&t, &runnable);
        let mut rev = runnable.clone();
        rev.reverse();
        let p2 = plan_epoch(&t, &rev);
        assert_eq!(p1, p2, "plan must not depend on input order");
    }

    #[test]
    fn try_constructors_reject_what_asserts_reject() {
        assert!(CpuSet::try_single(PuId(63)).is_some());
        assert!(CpuSet::try_single(PuId(64)).is_none());
        assert!(CpuSet::try_of(&[]).is_none());
        assert!(CpuSet::try_of(&[PuId(0), PuId(64)]).is_none());
        assert_eq!(
            CpuSet::try_of(&[PuId(0), PuId(4)]),
            Some(CpuSet::of(&[PuId(0), PuId(4)]))
        );
    }

    #[test]
    fn cfs_like_matches_free_function() {
        let t = topo();
        let runnable: Vec<_> = (0..10).map(|i| ent(i, (10 - i) as f64)).collect();
        let ctx = SchedCtx {
            topo: &t,
            runnable: &runnable,
            epoch_index: 3,
        };
        assert_eq!(CfsLike.plan(&ctx), plan_epoch(&t, &runnable));
    }

    #[test]
    fn fifo_ignores_vruntime_under_oversubscription() {
        let t = topo();
        // pids 0..9; give the oldest pids the *worst* vruntimes so CfsLike
        // and Fifo disagree about who sits out.
        let runnable: Vec<_> = (0..10).map(|i| ent(i, -(i as f64))).collect();
        let ctx = SchedCtx {
            topo: &t,
            runnable: &runnable,
            epoch_index: 0,
        };
        let plan = Fifo.plan(&ctx);
        let scheduled: Vec<u32> = plan.running_pairs().map(|(_, p)| p.0).collect();
        assert!(
            !scheduled.contains(&8) && !scheduled.contains(&9),
            "fifo must run the 8 earliest pids, got {scheduled:?}"
        );
        assert_eq!(plan.num_running(), 8);
    }

    #[test]
    fn round_robin_rotates_the_loser_each_epoch() {
        // 1 core, 1 PU, three runnable tasks: each epoch a different task
        // must win the single slot, in pid rotation.
        let t = Topology::new(1, 1, 1, 4096);
        let runnable: Vec<_> = (0..3).map(|i| ent(i, 0.0)).collect();
        let winners: Vec<u32> = (0..6)
            .map(|epoch| {
                let ctx = SchedCtx {
                    topo: &t,
                    runnable: &runnable,
                    epoch_index: epoch,
                };
                RoundRobin.plan(&ctx).assignment[0].unwrap().0
            })
            .collect();
        assert_eq!(winners, vec![0, 1, 2, 0, 1, 2]);
    }

    /// The planners as they were before [`Scheduler::plan_into`]: a fresh
    /// vector of references, sorted stably, placed into fresh vectors.
    fn reference_plan(name: &str, ctx: &SchedCtx<'_>) -> EpochPlan {
        let mut order: Vec<&SchedEntity> = ctx.runnable.iter().collect();
        match name {
            "cfs-like" => order.sort_by(|a, b| {
                a.vruntime
                    .partial_cmp(&b.vruntime)
                    .unwrap()
                    .then_with(|| a.pid.cmp(&b.pid))
            }),
            _ => order.sort_by_key(|e| e.pid),
        }
        if name == "round-robin" && !order.is_empty() {
            let k = (ctx.epoch_index % order.len() as u64) as usize;
            order.rotate_left(k);
        }
        let mut assignment: Vec<Option<Pid>> = vec![None; ctx.topo.num_pus()];
        let mut core_busy = vec![0u32; ctx.topo.num_cores()];
        for ent in order {
            if let Some(pu) = choose_pu(ctx.topo, &assignment, &core_busy, ent) {
                assignment[pu.0] = Some(ent.pid);
                core_busy[ctx.topo.core_of(pu).0] += 1;
            }
        }
        EpochPlan { assignment }
    }

    #[test]
    fn reused_plans_match_the_reference_planners() {
        let t = topo();
        let mut state = 7u64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for select in [
            SchedulerSelect::cfs_like(),
            SchedulerSelect::fifo(),
            SchedulerSelect::round_robin(),
        ] {
            let mut planner = select.make();
            // One plan and one scratch across every epoch, as the engine
            // keeps them.
            let mut plan = EpochPlan::default();
            let mut scratch = PlanScratch::default();
            for epoch_index in 0..200 {
                let runnable: Vec<SchedEntity> = (0..next(14))
                    .map(|i| {
                        let mut e = ent(i as u32 * 3 + next(3) as u32, next(5) as f64);
                        if next(3) == 0 {
                            e.affinity =
                                CpuSet::of(&[PuId(next(8) as usize), PuId(next(8) as usize)]);
                        }
                        if next(2) == 0 {
                            e.last_pu = Some(PuId(next(8) as usize));
                        }
                        e
                    })
                    .collect();
                let ctx = SchedCtx {
                    topo: &t,
                    runnable: &runnable,
                    epoch_index,
                };
                planner.plan_into(&ctx, &mut plan, &mut scratch);
                assert_eq!(
                    plan,
                    reference_plan(select.name(), &ctx),
                    "{}",
                    select.name()
                );
                assert_eq!(planner.plan(&ctx), plan, "{}", select.name());
            }
        }
    }

    #[test]
    fn scheduler_select_is_clone_debug_and_makes_named_planners() {
        let sel = SchedulerSelect::default();
        assert_eq!(sel.name(), "cfs-like");
        assert_eq!(format!("{sel:?}"), "SchedulerSelect(\"cfs-like\")");
        let copy = sel.clone();
        assert_eq!(copy.make().name(), "cfs-like");
        assert_eq!(SchedulerSelect::fifo().make().name(), "fifo");
        assert_eq!(SchedulerSelect::round_robin().make().name(), "round-robin");
        let custom = SchedulerSelect::custom("mine", || Box::new(Fifo));
        assert_eq!(custom.name(), "mine");
    }
}
