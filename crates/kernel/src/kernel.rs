//! The kernel: owns the tasks, `/proc`, and the `perf_event` subsystem, and
//! drives the [`EpochEngine`] that advances simulated time.
//!
//! This is the layer tiptop talks to. It exposes exactly the interfaces the
//! real tool uses on Linux — `/proc` reads and the perf syscalls — plus
//! `spawn`/`advance` for driving experiments. The scheduler + execution loop
//! itself lives in [`crate::engine`]; the kernel folds the engine's per-epoch
//! [`PerfCharge`]s into its counter fd table.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use tiptop_machine::config::MachineConfig;
use tiptop_machine::machine::Machine;
use tiptop_machine::pmu::{EventCounts, HwEvent, PmuCapabilities};
use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_machine::topology::PuId;

use tiptop_machine::access::TaskStream;

use crate::engine::{EpochEngine, PerfCharge};
use crate::errno::Errno;
use crate::perf::{
    multiplex_active_into, PerfCounter, PerfEventAttr, PerfFd, PerfValue, MAX_FDS_PER_OBSERVER,
};
use crate::procfs::ProcStat;
use crate::program::{Program, ProgramCursor};
use crate::sched::{CpuSet, SchedulerSelect};
use crate::symbols::Label;
use crate::task::{Pid, SpawnSpec, Task, TaskState, Uid};

/// Kernel construction parameters.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Shared behind an [`Arc`]: every kernel in a simulated fleet built
    /// from the same hardware model points at one config allocation.
    pub machine: Arc<MachineConfig>,
    /// Scheduler epoch. Coarser than a real kernel tick, but far finer than
    /// tiptop's seconds-scale refresh; 20 ms keeps multi-hour simulations
    /// cheap while timesharing still averages out within one refresh.
    pub epoch: SimDuration,
    pub seed: u64,
    /// Which epoch planner the kernel boots with. Defaults to the paper's
    /// CFS-like policy; swapping it is a config change, never a kernel edit.
    pub scheduler: SchedulerSelect,
}

impl KernelConfig {
    pub fn new(machine: impl Into<Arc<MachineConfig>>) -> Self {
        KernelConfig {
            machine: machine.into(),
            epoch: SimDuration::from_millis(20),
            seed: 0,
            scheduler: SchedulerSelect::default(),
        }
    }

    pub fn epoch(mut self, e: SimDuration) -> Self {
        assert!(!e.is_zero(), "epoch must be positive");
        self.epoch = e;
        self
    }

    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    pub fn scheduler(mut self, s: SchedulerSelect) -> Self {
        self.scheduler = s;
        self
    }
}

/// What remains of a task after it exits: final accounting, readable via
/// [`Kernel::exit_record`] (the ground truth for §2.4-style validation).
#[derive(Clone, Debug)]
pub struct ExitRecord {
    pub pid: Pid,
    /// The task's command label (shared, not copied, at reaping).
    pub comm: Label,
    pub uid: Uid,
    pub start_time: SimTime,
    pub end_time: SimTime,
    pub utime: SimDuration,
    pub total_instructions: u64,
    pub ground_truth: EventCounts,
}

/// A snapshot of a live task, taken at kill time, carrying everything needed
/// to resume the task *mid-program* on this or another kernel: identity and
/// scheduling attributes, the program with its cursor, accumulated
/// instruction/event accounting, and the address-stream state (so the
/// resumed task continues the exact access sequence, not a replay).
///
/// Produced by [`Kernel::checkpoint`], consumed by
/// [`Kernel::spawn_from_checkpoint`]. `Clone` so a grid scheduler can hold a
/// checkpoint while deciding where to place it.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    pub comm: Label,
    pub uid: Uid,
    pub nice: i32,
    pub affinity: CpuSet,
    pub program: Program,
    /// Where in the program execution stopped; the resumed task picks up
    /// from this cursor rather than instruction zero.
    pub cursor: ProgramCursor,
    pub total_instructions: u64,
    pub ground_truth: EventCounts,
    pub utime: SimDuration,
    pub stime: SimDuration,
    pub cpi_hint: f64,
    /// Address-stream state; re-namespaced under the destination pid's asid
    /// at resume so checkpointed lines never alias another task's.
    pub stream: TaskStream,
    /// Instant the snapshot was taken (source-kernel clock).
    pub taken_at: SimTime,
}

/// The simulated operating system.
pub struct Kernel {
    cfg: KernelConfig,
    engine: EpochEngine,
    tasks: BTreeMap<Pid, Task>,
    /// Tombstones of exited tasks; pids are never reused.
    exited: BTreeMap<Pid, ExitRecord>,
    next_pid: u32,
    counters: BTreeMap<PerfFd, PerfCounter>,
    /// Every open counter fd by task: ascending by pid, each task's fds
    /// ascending (fds are handed out in increasing order, so an open
    /// appends). A charge walks only its task's counters, in the fd order
    /// a scan of `counters` would visit them.
    task_fds: Vec<(Pid, Vec<PerfFd>)>,
    /// Open fds per observer, kept by open and close (the `EMFILE` check).
    observer_fds: BTreeMap<Uid, usize>,
    next_fd: u64,
    /// Registered names, plus the numeric label of every uid a task
    /// spawned with before (or without) its `add_user`.
    users: BTreeMap<Uid, Label>,
    /// Per-epoch counter-update buffers, reused across every advance.
    charge_scratch: ChargeScratch,
    /// Charge by the full-scan reference instead (the oracle's twin).
    #[cfg(test)]
    reference_charging: bool,
}

impl Kernel {
    pub fn new(cfg: KernelConfig) -> Self {
        let machine = Machine::new(Arc::clone(&cfg.machine), cfg.seed);
        let engine = EpochEngine::with_scheduler(machine, cfg.epoch, cfg.scheduler.make());
        // Every kernel of a fleet shares one interned "root".
        static ROOT: OnceLock<Label> = OnceLock::new();
        let mut users = BTreeMap::new();
        users.insert(Uid::ROOT, ROOT.get_or_init(|| Label::new("root")).clone());
        Kernel {
            engine,
            tasks: BTreeMap::new(),
            exited: BTreeMap::new(),
            next_pid: 100,
            counters: BTreeMap::new(),
            task_fds: Vec::new(),
            observer_fds: BTreeMap::new(),
            next_fd: 3,
            users,
            charge_scratch: ChargeScratch::default(),
            #[cfg(test)]
            reference_charging: false,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    pub fn machine(&self) -> &Machine {
        self.engine.machine()
    }

    /// The time-advancement core (scheduler + machine + clock).
    pub fn engine(&self) -> &EpochEngine {
        &self.engine
    }

    pub fn num_alive(&self) -> usize {
        self.tasks.len()
    }

    /// Ground-truth lifetime event totals for a task (what the hardware
    /// really did). Used by the validation experiments, not by the tool.
    /// Works for live and exited tasks.
    pub fn ground_truth(&self, pid: Pid) -> Option<EventCounts> {
        self.tasks
            .get(&pid)
            .map(|t| t.ground_truth)
            .or_else(|| self.exited.get(&pid).map(|r| r.ground_truth))
    }

    /// Final accounting of an exited task.
    pub fn exit_record(&self, pid: Pid) -> Option<&ExitRecord> {
        self.exited.get(&pid)
    }

    /// All tombstones, ascending by pid. Lets observers report tasks that
    /// spawned *and* exited between two of their samples.
    pub fn exit_records(&self) -> impl Iterator<Item = &ExitRecord> {
        self.exited.values()
    }

    // ------------------------------------------------------------------
    // User management
    // ------------------------------------------------------------------

    /// Register a user name for a uid (like `/etc/passwd`).
    pub fn add_user(&mut self, uid: Uid, name: impl Into<String>) {
        self.users.insert(uid, Label::from(name.into()));
    }

    /// `/etc/passwd` lookup; unknown uids render as their number. The name
    /// of a registered user, or of a uid some task spawned with, is a
    /// refcount bump of a label built once.
    pub fn username(&self, uid: Uid) -> Label {
        self.users
            .get(&uid)
            .cloned()
            .unwrap_or_else(|| numeric_name(uid))
    }

    /// Give a spawning task's uid its numeric name unless it has one, so
    /// every row of the task shares one label. A later `add_user`
    /// replaces it.
    fn name_uid(&mut self, uid: Uid) {
        self.users.entry(uid).or_insert_with(|| numeric_name(uid));
    }

    // ------------------------------------------------------------------
    // Task lifecycle
    // ------------------------------------------------------------------

    /// Create a task. It becomes runnable immediately.
    pub fn spawn(&mut self, spec: SpawnSpec) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.name_uid(spec.uid);
        let mut task = Task::new(pid, spec, self.engine.now());
        // CFS: a newcomer starts at the current minimum vruntime so it
        // neither starves others nor waits forever.
        let min_vr = self
            .tasks
            .values()
            .filter(|t| t.state == TaskState::Runnable)
            .map(|t| t.vruntime)
            .fold(f64::INFINITY, f64::min);
        if min_vr.is_finite() {
            task.vruntime = min_vr;
        }
        self.tasks.insert(pid, task);
        pid
    }

    /// Terminate a task right now (SIGKILL-style).
    pub fn kill(&mut self, pid: Pid) -> Result<(), Errno> {
        let now = self.engine.now();
        let task = self.tasks.get_mut(&pid).ok_or(Errno::ESRCH)?;
        task.state = TaskState::Zombie;
        task.end_time = Some(now);
        Ok(())
    }

    /// Change a task's nice level (`renice`-style), clamped to the Linux
    /// range. Takes effect from the next scheduler epoch.
    pub fn renice(&mut self, pid: Pid, nice: i32) -> Result<(), Errno> {
        let task = self.tasks.get_mut(&pid).ok_or(Errno::ESRCH)?;
        task.nice = nice.clamp(-20, 19);
        Ok(())
    }

    /// Change a task's CPU affinity mask (`sched_setaffinity`-style, the
    /// paper's §3.4 `taskset` experiments). Takes effect from the next
    /// scheduler epoch; `EINVAL` if the mask allows no PU of this machine.
    pub fn set_affinity(&mut self, pid: Pid, cpus: CpuSet) -> Result<(), Errno> {
        let num_pus = self.cfg.machine.topology.num_pus();
        if !(0..num_pus).any(|p| cpus.allows(PuId(p))) {
            return Err(Errno::EINVAL);
        }
        let task = self.tasks.get_mut(&pid).ok_or(Errno::ESRCH)?;
        task.affinity = cpus;
        Ok(())
    }

    /// Snapshot a live task's progress for later resumption (typically
    /// immediately before [`Kernel::kill`] on a migration). `ESRCH` if the
    /// task is unknown, already reaped, **or a zombie** — a program that ran
    /// to completion has nothing left to resume, and callers must treat
    /// that as "the job already finished", not as an empty checkpoint.
    pub fn checkpoint(&self, pid: Pid) -> Result<Checkpoint, Errno> {
        let t = self.tasks.get(&pid).ok_or(Errno::ESRCH)?;
        if t.state == TaskState::Zombie {
            return Err(Errno::ESRCH);
        }
        Ok(Checkpoint {
            comm: t.comm.clone(),
            uid: t.uid,
            nice: t.nice,
            affinity: t.affinity,
            program: t.program.clone(),
            cursor: t.cursor.clone(),
            total_instructions: t.total_instructions,
            ground_truth: t.ground_truth,
            utime: t.utime,
            stime: t.stime,
            cpi_hint: t.cpi_hint,
            stream: t.stream.clone(),
            taken_at: self.engine.now(),
        })
    }

    /// Resume a checkpointed task under a fresh pid. The task restarts
    /// scheduling from scratch (fresh `start_time`, CFS-newcomer vruntime)
    /// but continues the *program* from the checkpointed cursor with its
    /// accumulated instruction/event accounting and address-stream state
    /// intact — so its eventual [`ExitRecord`] reports whole-job totals, as
    /// if the job had never moved. A pin that allows no PU of this machine's
    /// topology falls back to no pin (the destination may be smaller than
    /// the source).
    pub fn spawn_from_checkpoint(&mut self, cp: Checkpoint) -> Pid {
        let num_pus = self.cfg.machine.topology.num_pus();
        let affinity = if (0..num_pus).any(|p| cp.affinity.allows(PuId(p))) {
            cp.affinity
        } else {
            CpuSet::all()
        };
        let spec = SpawnSpec::new(cp.comm, cp.uid, cp.program)
            .nice(cp.nice)
            .affinity(affinity);
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.name_uid(spec.uid);
        let mut task = Task::new(pid, spec, self.engine.now());
        task.cursor = cp.cursor;
        task.total_instructions = cp.total_instructions;
        task.ground_truth = cp.ground_truth;
        task.utime = cp.utime;
        task.stime = cp.stime;
        task.cpi_hint = cp.cpi_hint;
        task.stream = cp.stream.with_asid(pid.0 as u64);
        let min_vr = self
            .tasks
            .values()
            .filter(|t| t.state == TaskState::Runnable)
            .map(|t| t.vruntime)
            .fold(f64::INFINITY, f64::min);
        if min_vr.is_finite() {
            task.vruntime = min_vr;
        }
        self.tasks.insert(pid, task);
        pid
    }

    /// Has the task exited (or never existed)?
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.tasks.contains_key(&pid)
    }

    // ------------------------------------------------------------------
    // /proc
    // ------------------------------------------------------------------

    /// List live pids, ascending (a `/proc` directory scan).
    pub fn pids(&self) -> Vec<Pid> {
        self.tasks.keys().copied().collect()
    }

    /// [`Kernel::pids`] into a caller-owned buffer (cleared first), so a
    /// monitor's per-refresh scan reuses one allocation across its run.
    pub fn pids_into(&self, out: &mut Vec<Pid>) {
        out.clear();
        out.extend(self.tasks.keys().copied());
    }

    /// Read `/proc/<pid>/stat`. `None` if the task is gone — callers must
    /// cope, exactly like the real tool.
    pub fn stat(&self, pid: Pid) -> Option<ProcStat> {
        let t = self.tasks.get(&pid)?;
        Some(ProcStat {
            pid: t.pid,
            tgid: t.tgid,
            comm: t.comm.clone(),
            uid: t.uid,
            state: t.state,
            nice: t.nice,
            utime: t.utime,
            stime: t.stime,
            start_time: t.start_time,
            processor: t.last_pu,
            ground_truth_instructions: t.total_instructions,
        })
    }

    // ------------------------------------------------------------------
    // perf_event syscalls
    // ------------------------------------------------------------------

    /// `perf_event_open(attr, pid, cpu, group_fd, flags)` as the observer
    /// `observer`. Only per-task counting (`cpu == -1`) is supported, which
    /// is all tiptop uses (§2.3: "We set cpu to -1 to monitor events per
    /// task").
    pub fn perf_event_open(
        &mut self,
        attr: &PerfEventAttr,
        pid: Pid,
        cpu: i32,
        observer: Uid,
    ) -> Result<PerfFd, Errno> {
        if cpu != -1 {
            return Err(Errno::EINVAL);
        }
        let task = self.tasks.get(&pid).ok_or(Errno::ESRCH)?;
        if !observer.is_root() && observer != task.uid {
            return Err(Errno::EACCES);
        }
        if self.open_fds(observer) >= MAX_FDS_PER_OBSERVER {
            return Err(Errno::EMFILE);
        }
        let fd = PerfFd(self.next_fd);
        self.next_fd += 1;
        *self.observer_fds.entry(observer).or_insert(0) += 1;
        match self.task_fds.binary_search_by_key(&pid, |(p, _)| *p) {
            Ok(i) => self.task_fds[i].1.push(fd),
            Err(i) => self.task_fds.insert(i, (pid, vec![fd])),
        }
        self.counters.insert(
            fd,
            PerfCounter {
                fd,
                task: pid,
                owner: observer,
                hw: attr.event.to_hw(),
                enabled: !attr.disabled,
                count: 0,
                time_enabled: SimDuration::ZERO,
                time_running: SimDuration::ZERO,
            },
        );
        Ok(fd)
    }

    /// Read the counter. Remains valid after the task exits (the fd holds
    /// the final value), like Linux.
    pub fn perf_read(&self, fd: PerfFd) -> Result<PerfValue, Errno> {
        let c = self.counters.get(&fd).ok_or(Errno::EBADF)?;
        Ok(PerfValue {
            value: c.count,
            time_enabled: c.time_enabled,
            time_running: c.time_running,
        })
    }

    /// Read many counters in one call — the batched counterpart of
    /// [`Kernel::perf_read`]. Unknown fds yield `Err(EBADF)` in their
    /// slot, exactly as the per-fd call would.
    pub fn perf_read_batch(&self, fds: &[PerfFd]) -> Vec<Result<PerfValue, Errno>> {
        let mut out = Vec::new();
        self.perf_read_batch_into(fds, &mut out);
        out
    }

    /// [`Kernel::perf_read_batch`] into a caller-owned buffer, so the
    /// per-refresh hot path of a cluster monitor reuses one allocation
    /// across its whole run.
    pub fn perf_read_batch_into(&self, fds: &[PerfFd], out: &mut Vec<Result<PerfValue, Errno>>) {
        out.clear();
        out.extend(fds.iter().map(|fd| {
            self.counters
                .get(fd)
                .map(|c| PerfValue {
                    value: c.count,
                    time_enabled: c.time_enabled,
                    time_running: c.time_running,
                })
                .ok_or(Errno::EBADF)
        }));
    }

    pub fn perf_enable(&mut self, fd: PerfFd) -> Result<(), Errno> {
        self.counters.get_mut(&fd).ok_or(Errno::EBADF)?.enabled = true;
        Ok(())
    }

    pub fn perf_disable(&mut self, fd: PerfFd) -> Result<(), Errno> {
        self.counters.get_mut(&fd).ok_or(Errno::EBADF)?.enabled = false;
        Ok(())
    }

    pub fn perf_close(&mut self, fd: PerfFd) -> Result<(), Errno> {
        let c = self.counters.remove(&fd).ok_or(Errno::EBADF)?;
        if let Some(open) = self.observer_fds.get_mut(&c.owner) {
            *open -= 1;
            if *open == 0 {
                self.observer_fds.remove(&c.owner);
            }
        }
        if let Ok(i) = self.task_fds.binary_search_by_key(&c.task, |(p, _)| *p) {
            let fds = &mut self.task_fds[i].1;
            if let Ok(at) = fds.binary_search(&fd) {
                fds.remove(at);
            }
            if fds.is_empty() {
                self.task_fds.remove(i);
            }
        }
        Ok(())
    }

    /// Open fds held by an observer (the `EMFILE` limit, and leak
    /// assertions in tests).
    pub fn open_fds(&self, observer: Uid) -> usize {
        self.observer_fds.get(&observer).copied().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Time
    // ------------------------------------------------------------------

    /// Advance simulated time by `dur`, running whole epochs (the final
    /// epoch is shortened to land exactly on `now + dur`). The
    /// [`EpochEngine`] does the scheduling and execution; the kernel folds
    /// each epoch's [`PerfCharge`]s into its counter fds.
    pub fn advance(&mut self, dur: SimDuration) {
        let Kernel {
            engine,
            tasks,
            exited,
            counters,
            task_fds,
            cfg,
            charge_scratch,
            ..
        } = self;
        let pmu = cfg.machine.uarch.pmu;
        #[cfg(test)]
        let reference = self.reference_charging;
        engine.advance(dur, tasks, exited, |epoch_index, charges| {
            #[cfg(test)]
            if reference {
                for charge in charges {
                    tests::apply_perf_charge_scan(
                        counters,
                        pmu,
                        epoch_index,
                        charge,
                        charge_scratch,
                    );
                }
                return;
            }
            // Charges and the fd index both ascend by pid: one merge walk
            // finds each charged task's counters.
            let mut at = 0;
            for charge in charges {
                while task_fds.get(at).is_some_and(|(p, _)| *p < charge.pid) {
                    at += 1;
                }
                if let Some((_, fds)) = task_fds.get(at).filter(|(p, _)| *p == charge.pid) {
                    apply_perf_charge(counters, fds, pmu, epoch_index, charge, charge_scratch);
                }
            }
        });
    }

    /// Advance to an absolute instant (no-op if already past).
    pub fn advance_until(&mut self, t: SimTime) {
        let now = self.engine.now();
        if t > now {
            self.advance(t - now);
        }
    }

    /// The first nominal scheduler-epoch boundary *strictly after* `t`
    /// (boundaries sit at whole multiples of the configured epoch).
    ///
    /// This is the natural instant for injecting run-time workload events
    /// — [`Kernel::spawn`] and [`Kernel::kill`] work at any instant without
    /// a prebuilt schedule, but a decision made *while observing* `t`
    /// should land at the next boundary so the epoch that produced the
    /// observation is never retroactively changed (the reactive scheduling
    /// layer in tiptop-core keys its live migrations to this).
    pub fn epoch_boundary_after(&self, t: SimTime) -> SimTime {
        let e = self.cfg.epoch.as_nanos();
        SimTime((t.as_nanos() / e + 1) * e)
    }
}

/// Reusable event-list buffers for [`apply_perf_charge`]: one set per
/// kernel, kept across [`Kernel::advance`] calls, instead of fresh heap
/// allocations per task per epoch (the fleet bench runs millions of
/// charges per simulated minute).
#[derive(Default)]
struct ChargeScratch {
    fixed: Vec<HwEvent>,
    programmable: Vec<HwEvent>,
    active: Vec<HwEvent>,
    /// Every counter charged, in visit order (what the oracle compares).
    #[cfg(test)]
    charged: Vec<PerfFd>,
}

/// Update the counters `fds` (all attached to `charge.pid`, ascending) for
/// an epoch in which the task ran for `charge.run_dur` and the hardware
/// observed `charge.delta`. Multiplexing rotates with `epoch_index`, like
/// the kernel's tick.
fn apply_perf_charge(
    counters: &mut BTreeMap<PerfFd, PerfCounter>,
    fds: &[PerfFd],
    pmu: PmuCapabilities,
    epoch_index: u64,
    charge: &PerfCharge,
    scratch: &mut ChargeScratch,
) {
    // Distinct requested events for this task, split fixed/programmable.
    let fixed = &mut scratch.fixed;
    let programmable = &mut scratch.programmable;
    fixed.clear();
    programmable.clear();
    for fd in fds {
        let c = &counters[fd];
        if c.enabled {
            let bucket = if c.hw.is_fixed() && fixed_slot(c.hw) < pmu.fixed_counters {
                &mut *fixed
            } else {
                &mut *programmable
            };
            if !bucket.contains(&c.hw) {
                bucket.push(c.hw);
            }
        }
    }
    programmable.sort_by_key(|e| e.index());
    multiplex_active_into(
        programmable,
        pmu.programmable_counters,
        epoch_index,
        &mut scratch.active,
    );
    let active = &scratch.active;

    for fd in fds {
        let c = counters.get_mut(fd).expect("indexed fds are open");
        if !c.enabled {
            continue;
        }
        #[cfg(test)]
        scratch.charged.push(c.fd);
        c.time_enabled += charge.run_dur;
        let on_fixed = c.hw.is_fixed() && fixed_slot(c.hw) < pmu.fixed_counters;
        if on_fixed || active.contains(&c.hw) {
            c.count += charge.delta.get(c.hw);
            c.time_running += charge.run_dur;
        }
    }
}

/// A uid's name when no user is registered for it: its number.
fn numeric_name(uid: Uid) -> Label {
    Label::new(uid.0.to_string())
}

/// Which fixed-counter slot an event occupies (Intel order: instructions,
/// cycles, ref-cycles).
fn fixed_slot(e: HwEvent) -> usize {
    match e {
        HwEvent::Instructions => 0,
        HwEvent::Cycles => 1,
        HwEvent::RefCycles => 2,
        _ => usize::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{EventSel, PerfEventAttr};
    use tiptop_machine::access::MemoryBehavior;
    use tiptop_machine::exec::ExecProfile;
    use tiptop_machine::pmu::{ALL_EVENTS, N_EVENTS};

    /// The full-scan charge the fd index replaced, kept as the oracle's
    /// reference: every open counter of the machine is visited twice per
    /// charged task, in fd order.
    pub(super) fn apply_perf_charge_scan(
        counters: &mut BTreeMap<PerfFd, PerfCounter>,
        pmu: PmuCapabilities,
        epoch_index: u64,
        charge: &PerfCharge,
        scratch: &mut ChargeScratch,
    ) {
        let pid = charge.pid;
        let fixed = &mut scratch.fixed;
        let programmable = &mut scratch.programmable;
        fixed.clear();
        programmable.clear();
        for c in counters.values() {
            if c.task == pid && c.enabled {
                let bucket = if c.hw.is_fixed() && fixed_slot(c.hw) < pmu.fixed_counters {
                    &mut *fixed
                } else {
                    &mut *programmable
                };
                if !bucket.contains(&c.hw) {
                    bucket.push(c.hw);
                }
            }
        }
        programmable.sort_by_key(|e| e.index());
        multiplex_active_into(
            programmable,
            pmu.programmable_counters,
            epoch_index,
            &mut scratch.active,
        );
        let active = &scratch.active;
        for c in counters.values_mut() {
            if c.task != pid || !c.enabled {
                continue;
            }
            scratch.charged.push(c.fd);
            c.time_enabled += charge.run_dur;
            let on_fixed = c.hw.is_fixed() && fixed_slot(c.hw) < pmu.fixed_counters;
            if on_fixed || active.contains(&c.hw) {
                c.count += charge.delta.get(c.hw);
                c.time_running += charge.run_dur;
            }
        }
    }

    /// SplitMix64: the property test's seeded draws.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> Option<T> {
            (!xs.is_empty()).then(|| xs[self.below(xs.len() as u64) as usize])
        }
    }

    /// Two kernels of one seed on a PMU with two programmable counters:
    /// the first charges through the fd index, the second by the scan.
    fn twins(seed: u64) -> (Kernel, Kernel) {
        let mut cfg = MachineConfig::nehalem_w3550().noiseless();
        cfg.uarch.pmu = PmuCapabilities {
            fixed_counters: 3,
            programmable_counters: 2,
        };
        let make = |reference| {
            let mut k = Kernel::new(KernelConfig::new(cfg.clone()).seed(seed));
            k.reference_charging = reference;
            k
        };
        (make(false), make(true))
    }

    fn program(rng: &mut Rng) -> Program {
        let profile = ExecProfile::builder("p")
            .base_cpi(0.7 + 0.1 * rng.below(6) as f64)
            .branches(0.2, 0.02)
            .memory(MemoryBehavior::uniform(32 * 1024))
            .build();
        match rng.below(3) {
            0 => Program::single(profile, 20_000_000 + 10_000_000 * rng.below(8)),
            _ => Program::endless(profile),
        }
    }

    /// Counters by task from a scan of the whole table, ascending.
    fn scanned_index(k: &Kernel) -> Vec<(Pid, Vec<PerfFd>)> {
        let mut index: Vec<(Pid, Vec<PerfFd>)> = Vec::new();
        for c in k.counters.values() {
            match index.iter_mut().find(|(p, _)| *p == c.task) {
                Some((_, fds)) => fds.push(c.fd),
                None => index.push((c.task, vec![c.fd])),
            }
        }
        index.sort_by_key(|(p, _)| *p);
        index
    }

    #[test]
    fn indexed_charging_matches_the_full_scan() {
        let observers = [Uid(1), Uid(2), Uid::ROOT];
        let (mut multiplexed, mut denied, mut exited) = (false, false, false);
        for seed in 0..24 {
            let (mut k, mut r) = twins(seed);
            let mut rng = Rng(seed);
            let (mut pids, mut fds) = (Vec::new(), Vec::new());
            for step in 0..80 {
                let at = format!("seed {seed} step {step}");
                match rng.below(10) {
                    0 | 1 => {
                        let uid = Uid(1 + rng.below(2) as u32);
                        let prog = program(&mut rng);
                        let spec = SpawnSpec::new("t", uid, prog).seed(step);
                        let pid = k.spawn(spec.clone());
                        assert_eq!(pid, r.spawn(spec), "{at}");
                        pids.push(pid);
                    }
                    2..=4 => {
                        // Mostly the newest task, so some tasks carry more
                        // events than there are programmable counters.
                        let pid = match rng.below(3) {
                            0 => rng.pick(&pids),
                            _ => pids.last().copied(),
                        };
                        let Some(pid) = pid else { continue };
                        let mut attr = PerfEventAttr::counting(EventSel::Raw(
                            ALL_EVENTS[rng.below(N_EVENTS as u64) as usize],
                        ));
                        attr.disabled = rng.below(5) == 0;
                        let observer = rng.pick(&observers).expect("three observers");
                        let got = k.perf_event_open(&attr, pid, -1, observer);
                        assert_eq!(got, r.perf_event_open(&attr, pid, -1, observer), "{at}");
                        denied |= got == Err(Errno::EACCES);
                        fds.extend(got);
                    }
                    5 => {
                        let Some(pid) = rng.pick(&pids) else { continue };
                        assert_eq!(k.kill(pid), r.kill(pid), "{at}");
                    }
                    6 => {
                        let Some(fd) = rng.pick(&fds) else { continue };
                        if rng.below(2) == 0 {
                            assert_eq!(k.perf_enable(fd), r.perf_enable(fd), "{at}");
                        } else {
                            assert_eq!(k.perf_disable(fd), r.perf_disable(fd), "{at}");
                        }
                    }
                    7 => {
                        let Some(fd) = rng.pick(&fds) else { continue };
                        assert_eq!(k.perf_close(fd), r.perf_close(fd), "{at}");
                    }
                    _ => {
                        let dur = SimDuration::from_millis(10 + 10 * rng.below(12));
                        k.charge_scratch.charged.clear();
                        r.charge_scratch.charged.clear();
                        k.advance(dur);
                        r.advance(dur);
                        assert_eq!(
                            k.charge_scratch.charged, r.charge_scratch.charged,
                            "counters charged, in order, {at}"
                        );
                    }
                }
                for &fd in &fds {
                    let v = k.perf_read(fd);
                    assert_eq!(v, r.perf_read(fd), "{fd:?}, {at}");
                    multiplexed |= v.is_ok_and(|v| v.time_running < v.time_enabled);
                }
                for uid in observers {
                    let scanned = r.counters.values().filter(|c| c.owner == uid).count();
                    assert_eq!(k.open_fds(uid), scanned, "{uid:?}, {at}");
                    assert_eq!(r.open_fds(uid), scanned, "{uid:?}, {at}");
                }
                assert_eq!(k.task_fds, scanned_index(&k), "fd index, {at}");
                exited |= pids.iter().any(|&p| k.exit_record(p).is_some());
            }
        }
        assert!(
            multiplexed && denied && exited,
            "the draws cover multiplexing, EACCES and exits"
        );
    }

    #[test]
    fn unregistered_uids_share_one_numeric_label_until_named() {
        let mut k = Kernel::new(KernelConfig::new(
            MachineConfig::nehalem_w3550().noiseless(),
        ));
        let prog = || Program::endless(ExecProfile::builder("p").build());
        k.spawn(SpawnSpec::new("a", Uid(7), prog()));
        let first = k.username(Uid(7));
        assert_eq!(first, "7");
        assert_eq!(
            first.as_ptr(),
            k.username(Uid(7)).as_ptr(),
            "every row shares the label"
        );
        k.add_user(Uid(7), "seven");
        assert_eq!(k.username(Uid(7)), "seven", "add_user wins");
        k.spawn(SpawnSpec::new("b", Uid(7), prog()));
        assert_eq!(k.username(Uid(7)), "seven", "a later spawn keeps the name");
        assert_eq!(
            k.username(Uid(8)),
            "8",
            "a uid no task has still reads as its number"
        );
    }
}
