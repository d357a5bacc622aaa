//! The [`Monitor`] abstraction: one driver for every tool.
//!
//! The paper's evaluation runs *different monitors over the same live
//! system* — tiptop next to `top` (Fig 1), tiptop against a Pin-style
//! `inscount` (§2.4), several observers at once for the perturbation study
//! (§2.5). `top` is [`Tiptop`] on
//! [`ScreenConfig::top_screen`](crate::config::ScreenConfig::top_screen);
//! this module gives every tool one contract:
//!
//! * [`Monitor::prime`] attaches at the current instant without recording
//!   (like starting the real tool);
//! * [`Monitor::interval`] is the tool's refresh period;
//! * [`Monitor::observe`] takes one [`Frame`] covering the interval since
//!   the previous call;
//! * [`Monitor::teardown`] releases kernel resources (counter fds).
//!
//! Frames are delivered to a [`FrameSink`], so long runs can stream instead
//! of accumulating a `Vec<Frame>`. The session loop that owns the clock and
//! the timed workload events lives in [`crate::scenario`].

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use tiptop_kernel::kernel::Kernel;
use tiptop_kernel::task::Pid;
use tiptop_machine::time::SimDuration;

use crate::app::Tiptop;
use crate::baseline::PinInscount;
use crate::render::{values_of, Frame, Row};
use crate::symbols::Label;

/// A tool that periodically observes a kernel and produces [`Frame`]s.
///
/// Implemented by [`Tiptop`] (which is also `top`) and [`PinInscount`], so
/// any of them — or several concurrently — can be driven by one
/// [`crate::scenario::Session`] loop.
pub trait Monitor {
    /// Short identifier used to label frames at the sink (`"tiptop"`,
    /// `"top"`, `"pin-inscount"`).
    fn name(&self) -> &str;

    /// Refresh period. Must be positive; the session loop rejects
    /// zero-interval monitors.
    fn interval(&self) -> SimDuration;

    /// Attach to the system at the current instant without recording a
    /// frame — counters open here, so the first [`Monitor::observe`] covers
    /// exactly one interval.
    fn prime(&mut self, k: &mut Kernel);

    /// Take one observation covering the time since the previous call (or
    /// since [`Monitor::prime`]).
    fn observe(&mut self, k: &mut Kernel) -> Frame;

    /// Release any kernel resources held by the monitor. Default: nothing.
    fn teardown(&mut self, k: &mut Kernel) {
        let _ = k;
    }
}

/// Streaming consumer of frames, labelled by the producing monitor's name.
/// Frames are handed over by value — each is produced fresh per
/// observation, so the sink keeps, renders, or drops it without a copy.
pub trait FrameSink {
    fn on_frame(&mut self, source: &str, frame: Frame);
}

/// Any closure can be a sink.
impl<F: FnMut(&str, Frame)> FrameSink for F {
    fn on_frame(&mut self, source: &str, frame: Frame) {
        self(source, frame)
    }
}

/// The simplest sink: keep every frame.
#[derive(Debug, Default)]
pub struct CollectSink {
    frames: Vec<Frame>,
}

impl CollectSink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    pub fn into_frames(self) -> Vec<Frame> {
        self.frames
    }
}

impl FrameSink for CollectSink {
    fn on_frame(&mut self, _source: &str, frame: Frame) {
        self.frames.push(frame);
    }
}

impl Monitor for Tiptop {
    /// `"top"` for a screen that reads no counters, else `"tiptop"`.
    fn name(&self) -> &str {
        if self.reads_counters() {
            "tiptop"
        } else {
            "top"
        }
    }

    fn interval(&self) -> SimDuration {
        self.options().delay
    }

    fn prime(&mut self, k: &mut Kernel) {
        self.refresh(k);
    }

    fn observe(&mut self, k: &mut Kernel) -> Frame {
        self.refresh(k)
    }

    fn teardown(&mut self, k: &mut Kernel) {
        self.shutdown(k);
    }
}

impl Monitor for PinInscount {
    fn name(&self) -> &str {
        "pin-inscount"
    }

    fn interval(&self) -> SimDuration {
        self.sample_every
    }

    /// Record each live task's retired-instruction count, so subsequent
    /// observations report only what ran under instrumentation. Tasks that
    /// appear later were launched under Pin and count from their start;
    /// tasks that died *before* attach were never instrumented and are
    /// marked already-reported.
    fn prime(&mut self, k: &mut Kernel) {
        self.baselines = k
            .pids()
            .into_iter()
            .filter_map(|pid| k.stat(pid).map(|s| (pid, s.ground_truth_instructions)))
            .collect::<BTreeMap<Pid, u64>>();
        self.reported = k.exit_records().map(|rec| rec.pid).collect();
    }

    /// Pin's view: the *exact* retired instruction count per task (the
    /// instrumentation stub sees every basic block), with none of the
    /// derived rates tiptop shows. A task that exited since the previous
    /// observation — even one that spawned *and* exited entirely between
    /// two samples — gets one final row from its exit record, like real
    /// `inscount2` printing its count when the program ends.
    fn observe(&mut self, k: &mut Kernel) -> Frame {
        let pin_row = |pid: Pid, user: Label, counted: u64, comm: Label| {
            let cells = vec![
                pid.0.to_string(),
                user.to_string(),
                counted.to_string(),
                comm.to_string(),
            ];
            Row::new(
                pid,
                user,
                comm,
                0.0,
                cells,
                values_of([("INSN", counted as f64)]),
            )
        };

        let mut rows: Vec<Row> = Vec::new();

        // Final counts from tombstones not yet reported (pre-attach deaths
        // were marked reported at prime); each is emitted exactly once.
        let finals: Vec<(Pid, Label, u64, Label)> = k
            .exit_records()
            .filter(|rec| !self.reported.contains(&rec.pid))
            .map(|rec| {
                let baseline = self.baselines.get(&rec.pid).copied().unwrap_or(0);
                (
                    rec.pid,
                    k.username(rec.uid),
                    rec.total_instructions.saturating_sub(baseline),
                    rec.comm.clone(),
                )
            })
            .collect();
        for (pid, user, counted, comm) in finals {
            self.reported.insert(pid);
            self.baselines.remove(&pid);
            rows.push(pin_row(pid, user, counted, comm));
        }

        for pid in k.pids() {
            let Some(stat) = k.stat(pid) else { continue };
            let baseline = *self.baselines.entry(pid).or_insert(0);
            let counted = stat.ground_truth_instructions.saturating_sub(baseline);
            rows.push(pin_row(pid, k.username(stat.uid), counted, stat.comm));
        }
        rows.sort_by_key(|r| r.pid);
        static HEADERS: OnceLock<Arc<[(String, usize)]>> = OnceLock::new();
        let headers = HEADERS
            .get_or_init(|| {
                vec![
                    ("PID".to_string(), 6),
                    ("USER".to_string(), 8),
                    ("INSN".to_string(), 14),
                    ("COMMAND".to_string(), 12),
                ]
                .into()
            })
            .clone();
        Frame {
            time: k.now(),
            headers,
            rows,
            unobservable: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::TiptopOptions;
    use crate::config::ScreenConfig;
    use tiptop_kernel::kernel::{Kernel, KernelConfig};
    use tiptop_kernel::program::Program;
    use tiptop_kernel::task::{SpawnSpec, Uid};
    use tiptop_machine::access::MemoryBehavior;
    use tiptop_machine::config::MachineConfig;
    use tiptop_machine::exec::ExecProfile;

    fn world() -> (Kernel, Pid) {
        let mut k =
            Kernel::new(KernelConfig::new(MachineConfig::nehalem_w3550().noiseless()).seed(3));
        k.add_user(Uid(1), "user1");
        let pid = k.spawn(SpawnSpec::new("spin", Uid(1), Program::endless(spin())));
        (k, pid)
    }

    fn spin() -> ExecProfile {
        ExecProfile::builder("spin")
            .base_cpi(0.8)
            .branches(0.18, 0.0)
            .memory(MemoryBehavior::uniform(16 * 1024))
            .build()
    }

    #[test]
    fn tiptop_and_top_share_the_monitor_contract() {
        let (mut k, pid) = world();
        let mut tip = Tiptop::new(
            TiptopOptions::default().delay(SimDuration::from_secs(1)),
            ScreenConfig::default_screen(),
        );
        let mut top = Tiptop::new(
            TiptopOptions::default().delay(SimDuration::from_secs(1)),
            ScreenConfig::top_screen(),
        );
        let monitors: &mut [&mut dyn Monitor] = &mut [&mut tip, &mut top];
        for m in monitors.iter_mut() {
            m.prime(&mut k);
        }
        k.advance(SimDuration::from_secs(1));
        for m in monitors.iter_mut() {
            let f = m.observe(&mut k);
            let row = f.row_for(pid).expect("spin visible to every monitor");
            assert!(row.value("%CPU").unwrap() > 99.0, "{}: busy task", m.name());
        }
    }

    #[test]
    fn top_frame_has_no_counter_columns() {
        let (mut k, pid) = world();
        let mut top = Tiptop::new(TiptopOptions::default(), ScreenConfig::top_screen());
        assert_eq!(top.name(), "top");
        top.prime(&mut k);
        k.advance(SimDuration::from_secs(1));
        let f = top.observe(&mut k);
        let row = f.row_for(pid).unwrap();
        assert!(
            row.value("IPC").is_none(),
            "top sees nothing below the scheduler"
        );
        assert_eq!(f.headers.len(), 4);
        assert!(f.render().contains("COMMAND"));
        // No counter fds: a top running beside tiptop never changes
        // tiptop's counter multiplexing.
        assert_eq!(k.open_fds(Uid::ROOT), 0);
    }

    #[test]
    fn top_shows_every_task_and_groups_threads_into_processes() {
        let (mut k, pid) = world();
        let thread =
            k.spawn(SpawnSpec::new("spin", Uid(1), Program::endless(spin())).thread_of(pid));
        let other = k.spawn(SpawnSpec::new("rootd", Uid::ROOT, Program::endless(spin())));
        // Not root: tiptop could not count `rootd`, but top reads no
        // counter, so it shows it.
        let mut top = Tiptop::new(
            TiptopOptions::default().observer(Uid(1)),
            ScreenConfig::top_screen(),
        );
        top.prime(&mut k);
        k.advance(SimDuration::from_secs(1));
        let f = top.observe(&mut k);
        assert_eq!(f.unobservable, 0);
        assert!(f.row_for(other).is_some(), "another user's task is shown");
        // Like real `top`, one row per process: the thread's %CPU is
        // summed into its process's row.
        assert!(f.row_for(thread).is_none(), "no row of its own");
        assert_eq!(f.rows.len(), 2);
        let cpu = f.row_for(pid).unwrap().value("%CPU").unwrap();
        assert!(cpu > 199.0, "two busy threads in one row: {cpu}");
        assert_eq!(k.open_fds(Uid(1)), 0);
    }

    #[test]
    fn pin_monitor_counts_only_from_prime() {
        let (mut k, pid) = world();
        k.advance(SimDuration::from_secs(1)); // runs uninstrumented
        let before = k.stat(pid).unwrap().ground_truth_instructions;
        assert!(before > 0);
        let mut pin = PinInscount::default();
        pin.prime(&mut k);
        k.advance(SimDuration::from_secs(1));
        let f = pin.observe(&mut k);
        let counted = f.row_for(pid).unwrap().value("INSN").unwrap() as u64;
        let lifetime = k.stat(pid).unwrap().ground_truth_instructions;
        assert_eq!(counted, lifetime - before, "exact count since attach");
    }

    #[test]
    fn pin_monitor_reports_final_count_of_exited_tasks_once() {
        let mut k =
            Kernel::new(KernelConfig::new(MachineConfig::nehalem_w3550().noiseless()).seed(3));
        k.add_user(Uid(1), "user1");
        // Retires 1e9 instructions in ~0.26 s, then exits — between the
        // t=0 prime and the t=1 sample.
        let pid = k.spawn(SpawnSpec::new(
            "short",
            Uid(1),
            Program::single(
                ExecProfile::builder("short")
                    .base_cpi(0.8)
                    .branches(0.18, 0.0)
                    .memory(MemoryBehavior::uniform(16 * 1024))
                    .build(),
                1_000_000_000,
            ),
        ));
        let mut pin = PinInscount::default();
        pin.prime(&mut k);
        k.advance(SimDuration::from_secs(1));
        assert!(!k.is_alive(pid), "program exited before the first sample");

        let f = pin.observe(&mut k);
        let row = f.row_for(pid).expect("final exact count reported");
        let counted = row.value("INSN").unwrap() as u64;
        let truth = k.exit_record(pid).unwrap().total_instructions;
        assert_eq!(counted, truth, "exit record is the exact count");
        assert_eq!(row.user, "user1", "user survives the /proc entry");

        k.advance(SimDuration::from_secs(1));
        let f2 = pin.observe(&mut k);
        assert!(
            f2.row_for(pid).is_none(),
            "final count is reported only once"
        );

        // A task that spawns AND exits entirely between two samples is
        // still reported — Pin launched it, so it sees the whole run.
        let burst = k.spawn(SpawnSpec::new(
            "burst",
            Uid(1),
            Program::single(
                ExecProfile::builder("burst")
                    .base_cpi(0.8)
                    .branches(0.18, 0.0)
                    .memory(MemoryBehavior::uniform(16 * 1024))
                    .build(),
                500_000_000,
            ),
        ));
        k.advance(SimDuration::from_secs(1));
        assert!(!k.is_alive(burst), "lived and died within the interval");
        let f3 = pin.observe(&mut k);
        let counted = f3
            .row_for(burst)
            .expect("burst reported")
            .value("INSN")
            .unwrap() as u64;
        assert_eq!(counted, k.exit_record(burst).unwrap().total_instructions);
    }

    #[test]
    fn pin_monitor_ignores_tasks_dead_before_attach() {
        let (mut k, _) = world();
        let early = k.spawn(SpawnSpec::new(
            "early",
            Uid(1),
            Program::single(ExecProfile::builder("e").base_cpi(0.8).build(), 1_000_000),
        ));
        k.advance(SimDuration::from_secs(1));
        assert!(!k.is_alive(early), "died before Pin attached");

        let mut pin = PinInscount::default();
        pin.prime(&mut k);
        k.advance(SimDuration::from_secs(1));
        let f = pin.observe(&mut k);
        assert!(
            f.row_for(early).is_none(),
            "pre-attach deaths were never instrumented"
        );
    }

    #[test]
    fn closure_is_a_sink() {
        let (mut k, _) = world();
        let mut top = Tiptop::new(TiptopOptions::default(), ScreenConfig::top_screen());
        top.prime(&mut k);
        k.advance(SimDuration::from_secs(1));
        let f = top.observe(&mut k);
        let mut seen = Vec::new();
        let mut sink = |source: &str, frame: Frame| {
            seen.push((source.to_string(), frame.time));
        };
        sink.on_frame("top", f);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, "top");
    }
}
