//! `%CPU` computation from `/proc` deltas — exactly what `top` shows, and
//! the paper's motivating blind spot: it can read 100% while the pipeline
//! does almost nothing.

use tiptop_kernel::procfs::ProcStat;
use tiptop_kernel::task::Pid;
use tiptop_machine::time::{SimDuration, SimTime};

/// Tracks per-task CPU time between refreshes and converts the delta to a
/// percentage of wall time.
#[derive(Debug, Default)]
pub struct CpuTracker {
    /// Per task, the CPU time and instant of its last update; ascending by
    /// pid, so the ascending `/proc` scan finds each task by a binary
    /// search and a newcomer (the highest pid, usually) appends.
    last: Vec<(Pid, SimDuration, SimTime)>,
}

impl CpuTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Update with a fresh `stat` read at `now`; returns `%CPU` over the
    /// interval since this task was last seen. The first observation of a
    /// task averages over its whole lifetime (like `top`'s first screen).
    pub fn update(&mut self, stat: &ProcStat, now: SimTime) -> f64 {
        let cpu = stat.cpu_time();
        let (prev_cpu, prev_t) = match self.last.binary_search_by_key(&stat.pid, |e| e.0) {
            Ok(i) => {
                let (_, c, t) = std::mem::replace(&mut self.last[i], (stat.pid, cpu, now));
                (c, t)
            }
            Err(i) => {
                self.last.insert(i, (stat.pid, cpu, now));
                (SimDuration::ZERO, stat.start_time)
            }
        };
        let wall = now.since(prev_t);
        if wall.is_zero() {
            return 0.0;
        }
        let used = cpu.saturating_sub(prev_cpu);
        100.0 * used.as_secs_f64() / wall.as_secs_f64()
    }

    /// Forget tasks no longer present: `live` is the `/proc` scan,
    /// ascending, merged against the tracked pids.
    pub fn retain_pids(&mut self, live: &[Pid]) {
        let mut at = 0;
        self.last.retain(|&(pid, _, _)| {
            while live.get(at).is_some_and(|&p| p < pid) {
                at += 1;
            }
            live.get(at) == Some(&pid)
        });
    }

    pub fn tracked(&self) -> usize {
        self.last.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiptop_kernel::task::{TaskState, Uid};

    fn stat(pid: u32, utime_ms: u64, start: SimTime) -> ProcStat {
        ProcStat {
            pid: Pid(pid),
            tgid: Pid(pid),
            comm: "x".into(),
            uid: Uid(1),
            state: TaskState::Runnable,
            nice: 0,
            utime: SimDuration::from_millis(utime_ms),
            stime: SimDuration::ZERO,
            start_time: start,
            processor: None,
            ground_truth_instructions: 0,
        }
    }

    #[test]
    fn full_load_is_100_percent() {
        let mut t = CpuTracker::new();
        let start = SimTime::ZERO;
        t.update(&stat(1, 0, start), start);
        let pct = t.update(&stat(1, 1000, start), SimTime::from_secs(1));
        assert!((pct - 100.0).abs() < 1e-9, "got {pct}");
    }

    #[test]
    fn first_observation_averages_over_lifetime() {
        let mut t = CpuTracker::new();
        // Task started at t=1s, has 500 ms of CPU at t=2s → 50%.
        let pct = t.update(&stat(1, 500, SimTime::from_secs(1)), SimTime::from_secs(2));
        assert!((pct - 50.0).abs() < 1e-9, "got {pct}");
    }

    #[test]
    fn partial_load() {
        let mut t = CpuTracker::new();
        t.update(&stat(1, 0, SimTime::ZERO), SimTime::ZERO);
        let pct = t.update(&stat(1, 437, SimTime::ZERO), SimTime::from_secs(1));
        assert!((pct - 43.7).abs() < 1e-9, "process11's 43.7%: got {pct}");
    }

    #[test]
    fn zero_wall_interval_is_zero() {
        let mut t = CpuTracker::new();
        t.update(&stat(1, 100, SimTime::ZERO), SimTime::from_secs(1));
        assert_eq!(
            t.update(&stat(1, 100, SimTime::ZERO), SimTime::from_secs(1)),
            0.0
        );
    }

    #[test]
    fn retain_drops_dead_tasks() {
        let mut t = CpuTracker::new();
        t.update(&stat(1, 0, SimTime::ZERO), SimTime::ZERO);
        t.update(&stat(2, 0, SimTime::ZERO), SimTime::ZERO);
        t.retain_pids(&[Pid(1)]);
        assert_eq!(t.tracked(), 1);
    }
}
