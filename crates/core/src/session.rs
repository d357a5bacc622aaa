//! Per-task time-series extraction from recorded frames.
//!
//! The experiment driver itself is the [`crate::monitor`] /
//! [`crate::scenario`] subsystem: build a
//! [`Scenario`](crate::scenario::Scenario) and use
//! [`Session::run`](crate::scenario::Session::run), which owns the clock,
//! applies timed workload events, and can drive several monitors at once.
//!
//! The series helpers here ([`series_for_pid`], [`series_for_comm`],
//! [`mean`]) turn the frame streams the figure-regeneration experiments
//! record into `(time, value)` curves.
//!
//! The cluster-stream variants ([`machine_frames`],
//! [`cluster_series_for_comm`]) slice one machine (and optionally one
//! monitor) out of a merged [`ClusterFrame`] stream first.

use tiptop_kernel::task::Pid;

use crate::cluster::ClusterFrame;
use crate::render::Frame;

/// Extract `(time_s, value)` samples of one column for one pid across
/// frames; frames where the task is absent are skipped.
pub fn series_for_pid(frames: &[Frame], pid: Pid, column: &str) -> Vec<(f64, f64)> {
    frames
        .iter()
        .filter_map(|f| {
            f.row_for(pid)
                .and_then(|r| r.value(column))
                .filter(|v| v.is_finite())
                .map(|v| (f.time.as_secs_f64(), v))
        })
        .collect()
}

/// Extract a column series for the first task matching a command name.
pub fn series_for_comm(frames: &[Frame], comm: &str, column: &str) -> Vec<(f64, f64)> {
    frames
        .iter()
        .filter_map(|f| {
            f.row_for_comm(comm)
                .and_then(|r| r.value(column))
                .filter(|v| v.is_finite())
                .map(|v| (f.time.as_secs_f64(), v))
        })
        .collect()
}

/// One machine's frames out of a merged cluster stream, in merge (= time)
/// order; `source` further restricts to one monitor's frames when a
/// [`ClusterSession::run`](crate::cluster::ClusterSession::run)
/// interleaved several monitors per machine.
pub fn machine_frames(merged: &[ClusterFrame], machine: &str, source: Option<&str>) -> Vec<Frame> {
    merged
        .iter()
        .filter(|cf| cf.machine == machine && source.is_none_or(|s| cf.source == s))
        .map(|cf| cf.frame.clone())
        .collect()
}

/// [`series_for_comm`] over one machine's slice of a merged cluster
/// stream.
pub fn cluster_series_for_comm(
    merged: &[ClusterFrame],
    machine: &str,
    source: Option<&str>,
    comm: &str,
    column: &str,
) -> Vec<(f64, f64)> {
    series_for_comm(&machine_frames(merged, machine, source), comm, column)
}

/// Mean of a series' values (0 for empty).
pub fn mean(series: &[(f64, f64)]) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    series.iter().map(|(_, v)| v).sum::<f64>() / series.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Tiptop, TiptopOptions};
    use crate::config::ScreenConfig;
    use crate::scenario::Scenario;
    use tiptop_kernel::program::Program;
    use tiptop_kernel::task::{SpawnSpec, Uid};
    use tiptop_machine::access::MemoryBehavior;
    use tiptop_machine::config::MachineConfig;
    use tiptop_machine::exec::ExecProfile;
    use tiptop_machine::time::SimDuration;

    fn frames_and_pid() -> (Vec<Frame>, Pid) {
        let mut session = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(9)
            .user(Uid(1), "user1")
            .spawn(
                "spin",
                SpawnSpec::new(
                    "spin",
                    Uid(1),
                    Program::endless(
                        ExecProfile::builder("spin")
                            .base_cpi(0.8)
                            .branches(0.18, 0.0)
                            .memory(MemoryBehavior::uniform(16 * 1024))
                            .build(),
                    ),
                ),
            )
            .build()
            .unwrap();
        let pid = session.pid("spin").unwrap();
        let mut t = Tiptop::new(
            TiptopOptions::default().delay(SimDuration::from_secs(1)),
            ScreenConfig::default_screen(),
        );
        let frames = session.run(&mut t, 3).unwrap();
        (frames, pid)
    }

    #[test]
    fn series_covers_consecutive_intervals() {
        let (frames, pid) = frames_and_pid();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].time.as_secs_f64(), 1.0);
        assert_eq!(frames[2].time.as_secs_f64(), 3.0);
        let s = series_for_pid(&frames, pid, "IPC");
        assert_eq!(s.len(), 3);
        for (_, ipc) in &s {
            assert!((1.1..1.4).contains(ipc), "steady IPC ≈ 1.25, got {ipc}");
        }
        assert!((mean(&s) - 1.25).abs() < 0.1);
    }

    #[test]
    fn series_for_comm_matches_series_for_pid() {
        let (frames, pid) = frames_and_pid();
        assert_eq!(
            series_for_pid(&frames, pid, "IPC"),
            series_for_comm(&frames, "spin", "IPC")
        );
    }

    #[test]
    fn mean_of_empty_series_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }
}
