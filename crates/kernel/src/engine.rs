//! The epoch engine: the scheduler + execution loop that advances simulated
//! time, extracted from [`Kernel`](crate::kernel::Kernel) so that it is a
//! self-contained unit of work.
//!
//! The kernel keeps the syscall surface (`/proc`, `perf_event`, signals);
//! the engine owns the machine, the clock, and the epoch loop: wake
//! sleepers, plan placement, execute all concurrent slices jointly on the
//! machine, charge CPU time and fairness, and reap exited tasks. Each epoch
//! reports per-task [`PerfCharge`]s back to the caller, which folds them
//! into whatever counter bookkeeping it maintains — this split is what lets
//! a cluster driver run many independent engines on worker threads while
//! every kernel keeps its own fd table.

use std::cell::Cell;
use std::collections::BTreeMap;

use tiptop_machine::exec::ExecOutcome;
use tiptop_machine::machine::{Machine, SliceRequest};
use tiptop_machine::pmu::EventCounts;
use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_machine::topology::PuId;

use crate::kernel::ExitRecord;
use crate::program::NextWork;
use crate::sched::{
    weight_for_nice, CfsLike, EpochPlan, PlanScratch, SchedCtx, SchedEntity, Scheduler,
};
use crate::task::{Pid, Task, TaskState};

/// What one task was charged for one epoch: how long it ran and what the
/// hardware observed while it did. The kernel folds these into its perf
/// counters (multiplexing included) after every epoch.
#[derive(Clone, Copy, Debug)]
pub struct PerfCharge {
    pub pid: Pid,
    pub run_dur: SimDuration,
    pub delta: EventCounts,
}

/// The time-advancement core: machine + clock + epoch loop, independent of
/// any syscall bookkeeping.
pub struct EpochEngine {
    machine: Machine,
    epoch: SimDuration,
    now: SimTime,
    epoch_index: u64,
    scheduler: Box<dyn Scheduler>,
}

/// One planned task's bookkeeping for the epoch in flight. The engine keeps
/// these in pid order, so every pass over them walks the task map once.
#[derive(Clone, Copy, Debug)]
struct Slot {
    pid: Pid,
    pu: PuId,
    /// Unspent cycle budget (used = budget - remaining).
    remaining: u64,
    /// What the hardware observed for the task so far this epoch.
    delta: EventCounts,
    /// Slept or exited mid-epoch: must not run again this epoch.
    blocked: bool,
}

impl Slot {
    /// Still has budget and compute work this epoch.
    fn active(&self) -> bool {
        self.remaining > 0 && !self.blocked
    }
}

/// Buffers the epoch loop reuses across epochs, so a steady-state epoch
/// builds no collection of its own.
///
/// One per thread ([`SCRATCH`]), not one per engine: a cluster worker steps
/// many machines one at a time, so the buffers scale with worker threads
/// rather than with machines, and a fleet of a thousand machines keeps a
/// handful of them instead of a thousand.
#[derive(Default)]
struct EpochScratch {
    entities: Vec<SchedEntity>,
    plan: EpochPlan,
    plan_scratch: PlanScratch,
    slots: Vec<Slot>,
    /// The slice-request buffer, always empty between rounds: its element
    /// type borrows the tasks, so each round re-types it (see [`recycle`]).
    requests: Vec<SliceRequest<'static>>,
    outcomes: Vec<ExecOutcome>,
    charges: Vec<PerfCharge>,
    dead: Vec<Pid>,
}

thread_local! {
    /// The epoch scratch of the engines this thread advances, taken for the
    /// length of an [`EpochEngine::advance`] call and put back after it.
    static SCRATCH: Cell<EpochScratch> = Cell::new(EpochScratch::default());
}

/// An empty request vector with a new borrow lifetime, keeping the
/// allocation: the in-place `collect` of an emptied vector reuses its
/// buffer (the element layout is the same), so a round's requests cost no
/// heap traffic once the buffer has grown.
///
/// The reuse is std's in-place-iteration specialization of `collect`, an
/// optimization rather than a documented guarantee; should a toolchain
/// drop it, each round allocates again with no change here.
/// `tests/allocations.rs` in `tiptop-core` (zero allocations per
/// steady-state epoch) is what catches that.
fn recycle<'a, 'b>(mut v: Vec<SliceRequest<'a>>) -> Vec<SliceRequest<'b>> {
    v.clear();
    v.into_iter().map(|_| unreachable!("emptied")).collect()
}

/// Call `f` on every slot with its task, in pid order, in one walk over
/// the span of `tasks` the slots cover. Every slot's task must exist.
fn for_each_slot<'t>(
    tasks: &'t mut BTreeMap<Pid, Task>,
    slots: &mut [Slot],
    mut f: impl FnMut(&mut Slot, &'t mut Task),
) {
    let (Some(first), Some(last)) = (slots.first(), slots.last()) else {
        return;
    };
    let mut walk = tasks.range_mut(first.pid..=last.pid);
    for slot in slots {
        let task = loop {
            let (&pid, task) = walk.next().expect("planned task exists");
            if pid == slot.pid {
                break task;
            }
        };
        f(slot, task);
    }
}

impl EpochEngine {
    /// Engine with the default CFS-like planner.
    pub fn new(machine: Machine, epoch: SimDuration) -> Self {
        Self::with_scheduler(machine, epoch, Box::new(CfsLike))
    }

    /// Engine planning epochs with `scheduler` (see `KernelConfig`).
    pub fn with_scheduler(
        machine: Machine,
        epoch: SimDuration,
        scheduler: Box<dyn Scheduler>,
    ) -> Self {
        assert!(!epoch.is_zero(), "epoch must be positive");
        EpochEngine {
            machine,
            epoch,
            now: SimTime::ZERO,
            epoch_index: 0,
            scheduler,
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of whole epochs executed since boot (drives counter
    /// multiplexing rotation in the kernel).
    pub fn epoch_index(&self) -> u64 {
        self.epoch_index
    }

    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Advance simulated time by `dur`, running whole epochs (the final
    /// epoch is shortened to land exactly on `now + dur`). After each epoch
    /// `on_epoch` receives the epoch's index (as it was *during* the epoch)
    /// and the per-task charges in pid order, so the caller can update its
    /// counters with the same rotation the hardware would have used.
    pub fn advance(
        &mut self,
        dur: SimDuration,
        tasks: &mut BTreeMap<Pid, Task>,
        exited: &mut BTreeMap<Pid, ExitRecord>,
        mut on_epoch: impl FnMut(u64, &[PerfCharge]),
    ) {
        let target = self.now + dur;
        let mut scratch = SCRATCH.take();
        while self.now < target {
            let e = self.epoch.min(target - self.now);
            let index = self.epoch_index;
            self.run_epoch(e, tasks, exited, &mut scratch);
            on_epoch(index, &scratch.charges);
        }
        SCRATCH.set(scratch);
    }

    /// One scheduler epoch: plan placement, execute slices in rounds so
    /// phase boundaries inside the epoch are honored, charge CPU time and
    /// fairness into `scratch.charges`, and reap zombies (tombstones keep
    /// pids reserved). Every buffer of `scratch` is cleared before use.
    ///
    /// Every pass runs in pid order: within a round each planned task is
    /// stepped, put to sleep or marked exited, and its slice requested, in
    /// pid order; charges follow pid order, and so does reaping.
    fn run_epoch(
        &mut self,
        epoch_len: SimDuration,
        tasks: &mut BTreeMap<Pid, Task>,
        exited: &mut BTreeMap<Pid, ExitRecord>,
        scratch: &mut EpochScratch,
    ) {
        let EpochEngine {
            machine,
            now,
            epoch_index,
            scheduler,
            ..
        } = self;
        let now = *now;
        let epoch_end = now + epoch_len;
        let clock = machine.config().uarch.clock;
        let budget_cycles = clock.cycles_in(epoch_len);

        // Wake expired sleepers and list the runnable, then plan placement.
        scratch.entities.clear();
        for t in tasks.values_mut() {
            if t.state == TaskState::Sleeping && t.sleep_until.is_some_and(|until| until <= now) {
                t.state = TaskState::Runnable;
                t.sleep_until = None;
            }
            if t.state == TaskState::Runnable {
                scratch.entities.push(SchedEntity {
                    pid: t.pid,
                    vruntime: t.vruntime,
                    weight: weight_for_nice(t.nice),
                    affinity: t.affinity,
                    last_pu: t.last_pu,
                });
            }
        }
        scheduler.plan_into(
            &SchedCtx {
                topo: machine.topology(),
                runnable: &scratch.entities,
                epoch_index: *epoch_index,
            },
            &mut scratch.plan,
            &mut scratch.plan_scratch,
        );

        let slots = &mut scratch.slots;
        slots.clear();
        slots.extend(scratch.plan.running_pairs().map(|(pu, pid)| Slot {
            pid,
            pu,
            remaining: budget_cycles,
            delta: EventCounts::ZERO,
            blocked: false,
        }));
        slots.sort_unstable_by_key(|s| s.pid);

        // Execute in rounds so phase boundaries inside the epoch are honored.
        for _round in 0..8 {
            // Step every active task: compute work becomes a slice request
            // that borrows the task in place; a sleep or an exit blocks the
            // task for the rest of the epoch, from the point in the epoch
            // where it stopped computing.
            let mut requests = recycle(std::mem::take(&mut scratch.requests));
            for_each_slot(tasks, slots, |slot, task| {
                if !slot.active() {
                    return;
                }
                let Task {
                    program,
                    cursor,
                    stream,
                    cpi_hint,
                    state,
                    sleep_until,
                    end_time,
                    ..
                } = task;
                let stopped_at = || now + clock.duration_of(budget_cycles - slot.remaining);
                match cursor.step(program) {
                    NextWork::Compute {
                        profile,
                        remaining: insns,
                    } => {
                        let mut req = SliceRequest::new(slot.pu, profile, stream)
                            .cycles(slot.remaining)
                            .max_instructions(insns);
                        if *cpi_hint > 0.0 {
                            req = req.cpi_hint(*cpi_hint);
                        }
                        requests.push(req);
                    }
                    NextWork::Sleep { duration } => {
                        *state = TaskState::Sleeping;
                        *sleep_until = Some(stopped_at() + duration);
                        slot.blocked = true;
                    }
                    NextWork::Exit => {
                        *state = TaskState::Zombie;
                        *end_time = Some(stopped_at());
                        slot.blocked = true;
                    }
                }
            });
            if requests.is_empty() {
                scratch.requests = recycle(requests);
                break;
            }
            machine.execute_epoch_into(&mut requests, &mut scratch.outcomes);
            scratch.requests = recycle(requests);

            // The slots still active are exactly the ones that asked for a
            // slice, in request order.
            let mut outcomes = scratch.outcomes.iter();
            for_each_slot(tasks, slots, |slot, task| {
                if !slot.active() {
                    return;
                }
                let outcome = outcomes.next().expect("one outcome per request");
                task.cursor.retire(outcome.instructions);
                task.total_instructions += outcome.instructions;
                task.ground_truth.accumulate(&outcome.events);
                if outcome.instructions > 0 {
                    task.cpi_hint = outcome.cycles as f64 / outcome.instructions as f64;
                }
                task.last_pu = Some(slot.pu);
                slot.remaining = slot.remaining.saturating_sub(outcome.cycles.max(1));
                slot.delta.accumulate(&outcome.events);
            });
        }

        // Charge CPU time, fairness, and collect the perf charges.
        let charges = &mut scratch.charges;
        charges.clear();
        for_each_slot(tasks, slots, |slot, task| {
            let used_cycles = budget_cycles - slot.remaining;
            if used_cycles == 0 {
                return;
            }
            let run_dur = clock.duration_of(used_cycles);
            task.utime += run_dur;
            task.vruntime += run_dur.as_nanos() as f64 / weight_for_nice(task.nice);
            task.last_pu = Some(slot.pu);
            charges.push(PerfCharge {
                pid: slot.pid,
                run_dur,
                delta: slot.delta,
            });
        });

        // Reap zombies (tombstones keep the pid reserved).
        let dead = &mut scratch.dead;
        dead.clear();
        dead.extend(
            tasks
                .iter()
                .filter(|(_, t)| t.state == TaskState::Zombie)
                .map(|(&p, _)| p),
        );
        for &pid in dead.iter() {
            let t = tasks.remove(&pid).expect("listed above");
            exited.insert(pid, exit_record(t, epoch_end));
        }

        self.now = epoch_end;
        self.epoch_index += 1;
    }
}

/// A reaped task's tombstone; `epoch_end` stands in for an unset end time.
fn exit_record(t: Task, epoch_end: SimTime) -> ExitRecord {
    ExitRecord {
        pid: t.pid,
        comm: t.comm,
        uid: t.uid,
        start_time: t.start_time,
        end_time: t.end_time.unwrap_or(epoch_end),
        utime: t.utime,
        total_instructions: t.total_instructions,
        ground_truth: t.ground_truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiptop_machine::access::MemoryBehavior;
    use tiptop_machine::config::MachineConfig;
    use tiptop_machine::exec::ExecProfile;
    use tiptop_machine::pmu::HwEvent;

    use crate::program::{Phase, Program};
    use crate::sched::{CpuSet, SchedulerSelect};
    use crate::task::{SpawnSpec, Uid};
    use std::collections::BTreeSet;

    fn engine() -> EpochEngine {
        let cfg = MachineConfig::nehalem_w3550().noiseless();
        EpochEngine::new(Machine::new(cfg, 5), SimDuration::from_millis(20))
    }

    fn spin_task(pid: u32) -> (Pid, Task) {
        let spec = SpawnSpec::new(
            "spin",
            Uid(1),
            Program::endless(
                ExecProfile::builder("spin")
                    .base_cpi(0.8)
                    .branches(0.18, 0.0)
                    .memory(MemoryBehavior::uniform(16 * 1024))
                    .build(),
            ),
        );
        (Pid(pid), Task::new(Pid(pid), spec, SimTime::ZERO))
    }

    impl EpochEngine {
        /// The map-based epoch the engine ran before its slots and reused
        /// buffers: the oracle [`EpochEngine::run_epoch`] must match.
        fn run_epoch_reference(
            &mut self,
            epoch_len: SimDuration,
            tasks: &mut BTreeMap<Pid, Task>,
            exited: &mut BTreeMap<Pid, ExitRecord>,
        ) -> Vec<PerfCharge> {
            let epoch_end = self.now + epoch_len;
            let clock = self.machine.config().uarch.clock;
            let budget_cycles = clock.cycles_in(epoch_len);

            wake_and_settle(tasks, self.now);

            // Plan placement for this epoch.
            let entities: Vec<SchedEntity> = tasks
                .values()
                .filter(|t| t.state == TaskState::Runnable)
                .map(|t| SchedEntity {
                    pid: t.pid,
                    vruntime: t.vruntime,
                    weight: weight_for_nice(t.nice),
                    affinity: t.affinity,
                    last_pu: t.last_pu,
                })
                .collect();
            let plan = self.scheduler.plan(&SchedCtx {
                topo: self.machine.topology(),
                runnable: &entities,
                epoch_index: self.epoch_index,
            });

            // Per-task epoch bookkeeping. `remaining` tracks unspent cycle
            // budget (used = budget - remaining); `blocked` marks tasks that
            // slept or exited mid-epoch and must not run again this epoch.
            let mut blocked: BTreeSet<Pid> = BTreeSet::new();
            let mut remaining: BTreeMap<Pid, u64> = BTreeMap::new();
            let mut pu_of: BTreeMap<Pid, PuId> = BTreeMap::new();
            let mut epoch_delta: BTreeMap<Pid, EventCounts> = BTreeMap::new();
            for (pu, pid) in plan.running_pairs() {
                remaining.insert(pid, budget_cycles);
                pu_of.insert(pid, pu);
            }

            // Execute in rounds so phase boundaries inside the epoch are honored.
            for _round in 0..8 {
                // Collect (pid, remaining_phase_instructions) of tasks that still
                // have cycles and compute work.
                let mut runnable_now: Vec<(Pid, u64)> = Vec::new();
                let mut to_sleep: Vec<(Pid, SimTime)> = Vec::new();
                let mut to_exit: Vec<Pid> = Vec::new();
                for (&pid, &rem) in remaining.iter() {
                    if rem == 0 || blocked.contains(&pid) {
                        continue;
                    }
                    let task = tasks.get_mut(&pid).expect("planned task exists");
                    match task.cursor.step(&task.program) {
                        NextWork::Compute {
                            remaining: insns, ..
                        } => {
                            runnable_now.push((pid, insns));
                        }
                        NextWork::Sleep { duration } => {
                            // Sleep begins at the point in the epoch where the
                            // task stopped computing.
                            let used = budget_cycles - rem;
                            let start = self.now + clock.duration_of(used);
                            to_sleep.push((pid, start + duration));
                        }
                        NextWork::Exit => to_exit.push(pid),
                    }
                }
                for (pid, until) in to_sleep {
                    let t = tasks.get_mut(&pid).unwrap();
                    t.state = TaskState::Sleeping;
                    t.sleep_until = Some(until);
                    blocked.insert(pid);
                }
                for pid in to_exit {
                    let t = tasks.get_mut(&pid).unwrap();
                    t.state = TaskState::Zombie;
                    let used = budget_cycles - remaining[&pid];
                    t.end_time = Some(self.now + clock.duration_of(used));
                    blocked.insert(pid);
                }
                if runnable_now.is_empty() {
                    break;
                }

                // Build joint slice requests. Split borrows: take tasks out of
                // the map temporarily.
                let mut borrowed: Vec<(Pid, Task)> = runnable_now
                    .iter()
                    .map(|(pid, _)| (*pid, tasks.remove(pid).unwrap()))
                    .collect();
                {
                    let mut requests: Vec<SliceRequest<'_>> = Vec::with_capacity(borrowed.len());
                    for ((pid, task), (_, phase_insns)) in
                        borrowed.iter_mut().zip(runnable_now.iter())
                    {
                        // Destructure to borrow disjoint fields: the profile
                        // borrows `program` (via the cursor), the stream is a
                        // separate field.
                        let Task {
                            program,
                            cursor,
                            stream,
                            cpi_hint,
                            ..
                        } = task;
                        let profile = match cursor.step(program) {
                            NextWork::Compute { profile, .. } => profile,
                            _ => unreachable!("filtered to compute work above"),
                        };
                        let mut req = SliceRequest::new(pu_of[&*pid], profile, stream)
                            .cycles(remaining[&*pid])
                            .max_instructions(*phase_insns);
                        if *cpi_hint > 0.0 {
                            req = req.cpi_hint(*cpi_hint);
                        }
                        requests.push(req);
                    }
                    let outcomes = self.machine.execute_epoch(&mut requests);

                    for ((pid, task), outcome) in borrowed.iter_mut().zip(outcomes) {
                        task.cursor.retire(outcome.instructions);
                        task.total_instructions += outcome.instructions;
                        task.ground_truth.accumulate(&outcome.events);
                        if outcome.instructions > 0 {
                            task.cpi_hint = outcome.cycles as f64 / outcome.instructions as f64;
                        }
                        task.last_pu = Some(pu_of[&*pid]);
                        let rem = remaining.get_mut(pid).unwrap();
                        *rem = rem.saturating_sub(outcome.cycles.max(1));
                        epoch_delta
                            .entry(*pid)
                            .or_default()
                            .accumulate(&outcome.events);
                    }
                }
                for (pid, task) in borrowed {
                    tasks.insert(pid, task);
                }
            }

            // Charge CPU time, fairness, and collect the perf charges.
            let mut charges: Vec<PerfCharge> = Vec::with_capacity(pu_of.len());
            for (&pid, &pu) in pu_of.iter() {
                let used_cycles = budget_cycles - remaining.get(&pid).copied().unwrap_or(0);
                if used_cycles == 0 {
                    continue;
                }
                let run_dur = clock.duration_of(used_cycles);
                let delta = epoch_delta.get(&pid).copied().unwrap_or(EventCounts::ZERO);
                if let Some(task) = tasks.get_mut(&pid) {
                    task.utime += run_dur;
                    task.vruntime += run_dur.as_nanos() as f64 / weight_for_nice(task.nice);
                    task.last_pu = Some(pu);
                }
                charges.push(PerfCharge {
                    pid,
                    run_dur,
                    delta,
                });
            }

            // Reap zombies (tombstones keep the pid reserved).
            let dead: Vec<Pid> = tasks
                .iter()
                .filter(|(_, t)| t.state == TaskState::Zombie)
                .map(|(&p, _)| p)
                .collect();
            for pid in dead {
                let t = tasks.remove(&pid).unwrap();
                exited.insert(pid, exit_record(t, epoch_end));
            }

            self.now = epoch_end;
            self.epoch_index += 1;
            charges
        }
    }

    /// Wake expired sleepers.
    fn wake_and_settle(tasks: &mut BTreeMap<Pid, Task>, now: SimTime) {
        for t in tasks.values_mut() {
            if t.state == TaskState::Sleeping {
                if let Some(until) = t.sleep_until {
                    if until <= now {
                        t.state = TaskState::Runnable;
                        t.sleep_until = None;
                    }
                }
            }
        }
    }

    /// SplitMix64, so the oracle needs no generator crate.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random program: compute phases (some shorter than an epoch, so
    /// boundaries fall inside epochs), sleeps (some back to back), and an
    /// exit or a loop.
    fn random_spec(rng: &mut Mix, num_pus: usize) -> SpawnSpec {
        let mut phases = Vec::new();
        for _ in 0..1 + rng.below(4) {
            // Zero, one or two sleeps first: a task that wakes into another
            // sleep, or starts with one, is planned but runs no cycles.
            for _ in 0..rng.below(3) {
                phases.push(Phase::sleep(SimDuration::from_micros(
                    500 + rng.below(40_000),
                )));
            }
            let mut profile =
                ExecProfile::builder("mix").base_cpi(0.5 + rng.below(20) as f64 / 10.0);
            if rng.below(2) == 0 {
                profile = profile.memory(MemoryBehavior::uniform(4096 << rng.below(12)));
            }
            phases.push(Phase::compute(
                profile.build(),
                1 + rng.below(4) * 10u64.pow(rng.below(8) as u32),
            ));
        }
        let program = if rng.below(3) == 0 {
            Program::looping(phases)
        } else {
            Program::run_once(phases)
        };
        let mut spec = SpawnSpec::new("mix", Uid(1), program)
            .nice(rng.below(11) as i32 - 5)
            .seed(rng.next());
        if rng.below(3) == 0 {
            let pus: Vec<PuId> = (0..num_pus)
                .filter(|_| rng.below(2) == 0)
                .map(PuId)
                .collect();
            if let Some(set) = CpuSet::try_of(&pus) {
                spec = spec.affinity(set);
            }
        }
        spec
    }

    /// Task state as text: `Task` is `Debug`, and `f64`'s `Debug` prints
    /// the exact value, so equal text is equal state.
    fn state(tasks: &BTreeMap<Pid, Task>, exited: &BTreeMap<Pid, ExitRecord>) -> String {
        format!("{tasks:?}\n{exited:?}")
    }

    #[test]
    fn epochs_match_the_map_based_reference() {
        for seed in 0..48u64 {
            let mut rng = Mix(seed);
            let mut cfg = match rng.below(3) {
                0 => MachineConfig::nehalem_w3550(),
                1 => MachineConfig::datacenter_e5640(),
                _ => MachineConfig::nehalem_w3550().without_smt(),
            }
            .with_samples(64);
            if rng.below(2) == 0 {
                cfg = cfg.noiseless();
            }
            let num_pus = cfg.topology.num_pus();
            let select = match rng.below(3) {
                0 => SchedulerSelect::cfs_like(),
                1 => SchedulerSelect::fifo(),
                _ => SchedulerSelect::round_robin(),
            };
            let boot = || {
                EpochEngine::with_scheduler(
                    Machine::new(cfg.clone(), seed),
                    SimDuration::from_millis(20),
                    select.make(),
                )
            };
            let (mut e, mut r) = (boot(), boot());
            // One scratch across every epoch, as `advance` keeps it.
            let mut scratch = EpochScratch::default();
            let (mut tasks, mut ref_tasks) = (BTreeMap::new(), BTreeMap::new());
            let (mut exited, mut ref_exited) = (BTreeMap::new(), BTreeMap::new());
            let mut next_pid = 100u32;
            // Up to three times the PUs: oversubscribed machines timeshare.
            let crowd = 1 + rng.below(3 * num_pus as u64);
            for epoch in 0..60 {
                // Spawns, kills and renices land between epochs, on both.
                if epoch == 0 || rng.below(4) == 0 {
                    for _ in 0..if epoch == 0 { crowd } else { 1 + rng.below(3) } {
                        let spec = random_spec(&mut rng, num_pus);
                        let pid = Pid(next_pid);
                        next_pid += 1;
                        tasks.insert(pid, Task::new(pid, spec.clone(), e.now()));
                        ref_tasks.insert(pid, Task::new(pid, spec, r.now()));
                    }
                }
                if rng.below(8) == 0 && !tasks.is_empty() {
                    let victim = *tasks
                        .keys()
                        .nth(rng.below(tasks.len() as u64) as usize)
                        .unwrap();
                    for t in [&mut tasks, &mut ref_tasks] {
                        let t = t.get_mut(&victim).unwrap();
                        t.state = TaskState::Zombie;
                        t.end_time = Some(e.now());
                    }
                }
                if rng.below(8) == 0 && !tasks.is_empty() {
                    let pid = *tasks
                        .keys()
                        .nth(rng.below(tasks.len() as u64) as usize)
                        .unwrap();
                    let nice = rng.below(11) as i32 - 5;
                    tasks.get_mut(&pid).unwrap().nice = nice;
                    ref_tasks.get_mut(&pid).unwrap().nice = nice;
                }

                let len = if rng.below(4) == 0 {
                    SimDuration::from_micros(1 + rng.below(20_000))
                } else {
                    SimDuration::from_millis(20)
                };
                e.run_epoch(len, &mut tasks, &mut exited, &mut scratch);
                let ref_charges = r.run_epoch_reference(len, &mut ref_tasks, &mut ref_exited);

                let at = format!("seed {seed}, epoch {epoch}");
                assert_eq!(
                    format!("{:?}", scratch.charges),
                    format!("{ref_charges:?}"),
                    "charges, {at}"
                );
                assert_eq!(
                    state(&tasks, &exited),
                    state(&ref_tasks, &ref_exited),
                    "tasks and exit records, {at}"
                );
                assert_eq!(
                    (e.now(), e.epoch_index()),
                    (r.now(), r.epoch_index()),
                    "{at}"
                );
                let counts = |m: &Machine| {
                    let l3: Vec<_> = (0..m.topology().sockets()).map(|s| m.l3_stats(s)).collect();
                    (m.epochs_executed(), l3)
                };
                assert_eq!(counts(e.machine()), counts(r.machine()), "machine, {at}");
            }
        }
    }

    #[test]
    fn advance_runs_whole_and_partial_epochs() {
        let mut e = engine();
        let mut tasks = BTreeMap::new();
        let mut exited = BTreeMap::new();
        let (pid, task) = spin_task(100);
        tasks.insert(pid, task);

        let mut epochs = 0u64;
        e.advance(
            SimDuration::from_millis(50),
            &mut tasks,
            &mut exited,
            |_, _| epochs += 1,
        );
        // 20 + 20 + 10 ms.
        assert_eq!(epochs, 3);
        assert_eq!(e.now(), SimTime(50_000_000));
        assert_eq!(e.epoch_index(), 3);
    }

    #[test]
    fn charges_report_what_the_task_ran() {
        let mut e = engine();
        let mut tasks = BTreeMap::new();
        let mut exited = BTreeMap::new();
        let (pid, task) = spin_task(100);
        tasks.insert(pid, task);

        let mut total = EventCounts::ZERO;
        let mut run = SimDuration::ZERO;
        e.advance(
            SimDuration::from_secs(1),
            &mut tasks,
            &mut exited,
            |_, charges| {
                for c in charges {
                    assert_eq!(c.pid, pid);
                    total.accumulate(&c.delta);
                    run += c.run_dur;
                }
            },
        );
        // A CPU-bound task ran the whole second; the charges must match the
        // task's own ground-truth accounting exactly.
        assert!((run.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(total, tasks[&pid].ground_truth);
        assert!(total.get(HwEvent::Cycles) > 3_000_000_000);
    }

    #[test]
    fn exited_tasks_are_reaped_into_tombstones() {
        let mut e = engine();
        let mut tasks = BTreeMap::new();
        let mut exited = BTreeMap::new();
        let spec = SpawnSpec::new(
            "short",
            Uid(1),
            Program::single(
                ExecProfile::builder("short").base_cpi(0.8).build(),
                1_000_000,
            ),
        );
        tasks.insert(Pid(7), Task::new(Pid(7), spec, SimTime::ZERO));
        e.advance(
            SimDuration::from_secs(1),
            &mut tasks,
            &mut exited,
            |_, _| {},
        );
        assert!(tasks.is_empty(), "task ran to completion and was reaped");
        let rec = &exited[&Pid(7)];
        assert_eq!(rec.total_instructions, 1_000_000);
        assert!(rec.end_time < SimTime::from_secs(1));
    }
}
