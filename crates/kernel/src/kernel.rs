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
    next_fd: u64,
    users: BTreeMap<Uid, Label>,
    /// Per-epoch counter-update buffers, reused across every advance.
    charge_scratch: ChargeScratch,
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
            next_fd: 3,
            users,
            charge_scratch: ChargeScratch::default(),
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

    /// `/etc/passwd` lookup; unknown uids render as their number. A known
    /// user's name is a refcount bump of the registered label.
    pub fn username(&self, uid: Uid) -> Label {
        self.users
            .get(&uid)
            .cloned()
            .unwrap_or_else(|| Label::new(uid.0.to_string()))
    }

    // ------------------------------------------------------------------
    // Task lifecycle
    // ------------------------------------------------------------------

    /// Create a task. It becomes runnable immediately.
    pub fn spawn(&mut self, spec: SpawnSpec) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
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
        let open_by_observer = self
            .counters
            .values()
            .filter(|c| c.owner == observer)
            .count();
        if open_by_observer >= MAX_FDS_PER_OBSERVER {
            return Err(Errno::EMFILE);
        }
        let fd = PerfFd(self.next_fd);
        self.next_fd += 1;
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
        self.counters.remove(&fd).map(|_| ()).ok_or(Errno::EBADF)
    }

    /// Open fds held by an observer (for leak assertions in tests).
    pub fn open_fds(&self, observer: Uid) -> usize {
        self.counters
            .values()
            .filter(|c| c.owner == observer)
            .count()
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
            cfg,
            charge_scratch,
            ..
        } = self;
        let pmu = cfg.machine.uarch.pmu;
        engine.advance(dur, tasks, exited, |epoch_index, charges| {
            for charge in charges {
                apply_perf_charge(counters, pmu, epoch_index, charge, charge_scratch);
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
}

/// Update all counters attached to `charge.pid` for an epoch in which the
/// task ran for `charge.run_dur` and the hardware observed `charge.delta`.
/// Multiplexing rotates with `epoch_index`, like the kernel's tick.
fn apply_perf_charge(
    counters: &mut BTreeMap<PerfFd, PerfCounter>,
    pmu: PmuCapabilities,
    epoch_index: u64,
    charge: &PerfCharge,
    scratch: &mut ChargeScratch,
) {
    let pid = charge.pid;

    // Distinct requested events for this task, split fixed/programmable.
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
        c.time_enabled += charge.run_dur;
        let on_fixed = c.hw.is_fixed() && fixed_slot(c.hw) < pmu.fixed_counters;
        if on_fixed || active.contains(&c.hw) {
            c.count += charge.delta.get(c.hw);
            c.time_running += charge.run_dur;
        }
    }
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
