//! Tasks: the kernel's unit of scheduling and counting.
//!
//! Following Linux, a *task* is a single thread of execution; a process is
//! the group of tasks sharing a `tgid`. Performance counters attach to tasks
//! (the paper: "Events can be counted per thread, or per process" — per-
//! process views are produced by the tool aggregating over the thread
//! group).

use tiptop_machine::access::TaskStream;
use tiptop_machine::pmu::EventCounts;
use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_machine::topology::PuId;

use crate::program::{Program, ProgramCursor};
use crate::sched::CpuSet;
use crate::symbols::Label;

/// Process/task identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pid(pub u32);

/// User identifier. Uid 0 is root and may observe anyone.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Uid(pub u32);

impl Uid {
    pub const ROOT: Uid = Uid(0);

    pub fn is_root(self) -> bool {
        self.0 == 0
    }
}

/// Scheduler-visible task state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    /// Wants CPU.
    Runnable,
    /// Blocked until `Task::sleep_until`.
    Sleeping,
    /// Finished; will be reaped at the end of the epoch.
    Zombie,
}

impl TaskState {
    /// One-letter code as shown by `ps`/`top`.
    pub fn code(self) -> char {
        match self {
            TaskState::Runnable => 'R',
            TaskState::Sleeping => 'S',
            TaskState::Zombie => 'Z',
        }
    }
}

/// Everything the kernel knows about one task.
#[derive(Debug)]
pub struct Task {
    pub pid: Pid,
    /// Thread-group id: equals `pid` for a process's main thread.
    pub tgid: Pid,
    pub uid: Uid,
    /// Command name, the spawn spec's label: every `/proc` read and tiptop
    /// row that shows it shares this one allocation.
    pub comm: Label,
    pub nice: i32,
    pub affinity: CpuSet,
    pub state: TaskState,

    pub program: Program,
    pub cursor: ProgramCursor,
    pub sleep_until: Option<SimTime>,

    /// Address stream state feeding the machine's cache sampler.
    pub stream: TaskStream,
    /// CPI observed in the previous slice (feedback for the machine's
    /// stream-interleaving estimate). 0 until first run.
    pub cpi_hint: f64,

    /// User-mode CPU time consumed.
    pub utime: SimDuration,
    /// Kernel-mode CPU time (small, charged for syscall-heavy work; unused
    /// by the current workloads but reported via /proc).
    pub stime: SimDuration,
    pub start_time: SimTime,
    pub end_time: Option<SimTime>,
    /// PU the task last ran on (reported in /proc, used for cache-warmth
    /// placement).
    pub last_pu: Option<PuId>,
    /// CFS virtual runtime, nanoseconds scaled by weight.
    pub vruntime: f64,

    /// Ground-truth lifetime event totals (what the hardware really did —
    /// the validation experiments compare tiptop's readings against this).
    pub ground_truth: EventCounts,
    pub total_instructions: u64,
}

/// Everything needed to create a task. `Clone` so a grid scheduler can
/// re-submit the same job description elsewhere (cluster migration).
#[derive(Clone, Debug)]
pub struct SpawnSpec {
    /// Command name: cloning a spec and spawning from it share this
    /// label.
    pub comm: Label,
    pub uid: Uid,
    pub program: Program,
    pub nice: i32,
    pub affinity: CpuSet,
    /// Thread group to join; `None` starts a new process.
    pub tgid: Option<Pid>,
    /// Stream seed; tasks with equal seeds draw identical address sequences.
    pub seed: u64,
}

impl SpawnSpec {
    pub fn new(comm: impl Into<Label>, uid: Uid, program: Program) -> Self {
        SpawnSpec {
            comm: comm.into(),
            uid,
            program,
            nice: 0,
            affinity: CpuSet::all(),
            tgid: None,
            seed: 0,
        }
    }

    pub fn nice(mut self, n: i32) -> Self {
        self.nice = n;
        self
    }

    /// Pin to a CPU set (the paper's `taskset` experiments in §3.4).
    pub fn affinity(mut self, set: CpuSet) -> Self {
        self.affinity = set;
        self
    }

    pub fn thread_of(mut self, tgid: Pid) -> Self {
        self.tgid = Some(tgid);
        self
    }

    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }
}

impl Task {
    pub fn new(pid: Pid, spec: SpawnSpec, now: SimTime) -> Task {
        Task {
            pid,
            tgid: spec.tgid.unwrap_or(pid),
            uid: spec.uid,
            comm: spec.comm,
            nice: spec.nice,
            affinity: spec.affinity,
            state: TaskState::Runnable,
            program: spec.program,
            cursor: ProgramCursor::default(),
            sleep_until: None,
            stream: TaskStream::new(pid.0 as u64, spec.seed.wrapping_add(pid.0 as u64)),
            cpi_hint: 0.0,
            utime: SimDuration::ZERO,
            stime: SimDuration::ZERO,
            start_time: now,
            end_time: None,
            last_pu: None,
            vruntime: 0.0,
            ground_truth: EventCounts::ZERO,
            total_instructions: 0,
        }
    }

    pub fn is_alive(&self) -> bool {
        self.state != TaskState::Zombie
    }

    /// Total CPU time (user + system).
    pub fn cpu_time(&self) -> SimDuration {
        self.utime + self.stime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Phase;
    use tiptop_machine::exec::ExecProfile;

    #[test]
    fn spawn_spec_builder() {
        let prog = Program::run_once(vec![Phase::compute(ExecProfile::builder("x").build(), 100)]);
        let spec = SpawnSpec::new("worker", Uid(1000), prog)
            .nice(5)
            .affinity(CpuSet::single(PuId(2)))
            .seed(9);
        let t = Task::new(Pid(42), spec, SimTime::from_secs(1));
        assert_eq!(t.tgid, Pid(42), "main thread's tgid is its own pid");
        assert_eq!(t.nice, 5);
        assert!(t.affinity.allows(PuId(2)));
        assert!(!t.affinity.allows(PuId(0)));
        assert_eq!(t.state, TaskState::Runnable);
        assert_eq!(t.start_time, SimTime::from_secs(1));
    }

    #[test]
    fn thread_joins_group() {
        let prog = Program::endless(ExecProfile::builder("t").build());
        let spec = SpawnSpec::new("thr", Uid(1000), prog).thread_of(Pid(10));
        let t = Task::new(Pid(11), spec, SimTime::ZERO);
        assert_eq!(t.tgid, Pid(10));
    }

    #[test]
    fn state_codes() {
        assert_eq!(TaskState::Runnable.code(), 'R');
        assert_eq!(TaskState::Sleeping.code(), 'S');
        assert_eq!(TaskState::Zombie.code(), 'Z');
    }

    #[test]
    fn root_uid() {
        assert!(Uid::ROOT.is_root());
        assert!(!Uid(1000).is_root());
    }
}
