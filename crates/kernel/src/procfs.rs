//! `/proc`-style task information.
//!
//! Tiptop learns which tasks exist, who owns them, and how much CPU they got
//! from `/proc` (paper §2.3: "Additional information such as %CPU, processor
//! on which a task is running, etc. is retrieved from the /proc
//! filesystem"). This module defines the structures that read returns; the
//! [`crate::kernel::Kernel`] implements the reads.

use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_machine::topology::PuId;

use crate::symbols::Label;
use crate::task::{Pid, TaskState, Uid};

/// What a read of `/proc/<pid>/stat` (+ `status`) yields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcStat {
    pub pid: Pid,
    pub tgid: Pid,
    /// The task's command: a refcount bump of the kernel's label.
    pub comm: Label,
    pub uid: Uid,
    pub state: TaskState,
    pub nice: i32,
    /// User-mode CPU time consumed since task start.
    pub utime: SimDuration,
    /// Kernel-mode CPU time.
    pub stime: SimDuration,
    pub start_time: SimTime,
    /// PU the task last ran on.
    pub processor: Option<PuId>,
    /// Lifetime retired instructions — NOT part of real /proc; exposed for
    /// the validation harness (§2.4) as the Pin-like ground truth.
    pub ground_truth_instructions: u64,
}

impl ProcStat {
    /// Total CPU time, as `top` sums it.
    pub fn cpu_time(&self) -> SimDuration {
        self.utime + self.stime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_sums_user_and_system() {
        let s = ProcStat {
            pid: Pid(1),
            tgid: Pid(1),
            comm: "x".into(),
            uid: Uid(1000),
            state: TaskState::Runnable,
            nice: 0,
            utime: SimDuration::from_millis(700),
            stime: SimDuration::from_millis(50),
            start_time: SimTime::ZERO,
            processor: None,
            ground_truth_instructions: 0,
        };
        assert_eq!(s.cpu_time(), SimDuration::from_millis(750));
    }
}
