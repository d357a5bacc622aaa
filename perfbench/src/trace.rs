//! The outside-in trace: wrappers around the program's public layer
//! boundaries — [`Monitor`], [`ClusterFrameSink`] and [`SchedulerPolicy`] —
//! that time every call from the benchmark's side. Nothing inside the
//! program is instrumented.
//!
//! Each span records host wall time and the calling thread's CPU time.
//! Spans on the *driver* thread (the one that called `ClusterSession::run_*`)
//! are kept apart from spans on worker threads, so the run's CPU can be
//! split exactly:
//!
//! ```text
//! cpu_s = spans on the driver + driver CPU outside spans      (merge, rounds, spawn)
//!       + spans on workers    + worker CPU outside spans      (Session::advance_to)
//! ```
//!
//! Worker CPU outside spans is what workers do between two monitor calls:
//! `Session::advance_to` → `Kernel::advance` → `Machine::execute_epoch`
//! (plus lane pushes on the free-running pool). Threads that never call a
//! monitor — the lockstep driver's per-pass advance threads — land there
//! too, which is where they belong.

use std::cell::Cell;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tiptop_core::batch::FrameBatch;
use tiptop_core::cluster::{ClusterFrame, ClusterFrameSink};
use tiptop_core::monitor::Monitor;
use tiptop_core::reactive::{MigrationDecision, SchedulerPolicy};
use tiptop_core::render::Frame;
use tiptop_kernel::kernel::Kernel;
use tiptop_machine::time::{SimDuration, SimTime};

use crate::clock::thread_cpu_s;

thread_local! {
    /// Set on the thread that drives a run.
    static DRIVER: Cell<bool> = const { Cell::new(false) };
    /// Wall and thread-CPU instants at which this thread last left a
    /// monitor span; `None` until its first one.
    static MARK: Cell<Option<(Instant, f64)>> = const { Cell::new(None) };
}

/// Mark (or unmark) the calling thread as the run's driver.
pub fn set_driver(on: bool) {
    DRIVER.with(|d| d.set(on));
}

fn on_driver() -> bool {
    DRIVER.with(|d| d.get())
}

/// Calls, wall and CPU of one span kind; `driver_cpu` is the share of
/// `cpu` spent on the driver thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub calls: u64,
    pub wall: f64,
    pub cpu: f64,
    pub driver_cpu: f64,
}

impl Acc {
    fn add(&mut self, o: &Acc) {
        self.calls += o.calls;
        self.wall += o.wall;
        self.cpu += o.cpu;
        self.driver_cpu += o.driver_cpu;
    }
}

/// An open span: its start instants.
struct Span {
    wall: Instant,
    cpu: f64,
}

impl Span {
    fn begin() -> Span {
        Span {
            wall: Instant::now(),
            cpu: thread_cpu_s(),
        }
    }

    /// Close the span into `acc`; returns the end instants.
    fn end(self, acc: &mut Acc) -> (Instant, f64) {
        let (wall, cpu) = (Instant::now(), thread_cpu_s());
        let dc = cpu - self.cpu;
        acc.calls += 1;
        acc.wall += (wall - self.wall).as_secs_f64();
        acc.cpu += dc;
        if on_driver() {
            acc.driver_cpu += dc;
        }
        (wall, cpu)
    }
}

/// Everything the monitor and policy wrappers of one run recorded.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonitorTotals {
    /// `Monitor::observe` spans.
    pub observe: Acc,
    /// `Monitor::prime` and `Monitor::teardown` spans.
    pub attach: Acc,
    /// Rows of the frames `observe` returned.
    pub rows: u64,
    /// Off-CPU wall time between a worker's consecutive monitor calls,
    /// where the thread's previous call is known.
    pub advance_wait: f64,
    /// `SchedulerPolicy::observe` spans.
    pub policy: Acc,
    /// Decisions the policies returned.
    pub decisions: u64,
}

impl MonitorTotals {
    fn add(&mut self, o: &MonitorTotals) {
        self.observe.add(&o.observe);
        self.attach.add(&o.attach);
        self.rows += o.rows;
        self.advance_wait += o.advance_wait;
        self.policy.add(&o.policy);
        self.decisions += o.decisions;
    }
}

/// Shared collection point: each wrapper accumulates privately and merges
/// here once, when it is dropped at the end of the run.
pub type Recorder = Arc<Mutex<MonitorTotals>>;

fn merge(rec: &Recorder, local: &MonitorTotals) {
    // A poisoned lock means a wrapper panicked mid-merge; the totals are
    // still plain sums, so keep them.
    let mut t = rec.lock().unwrap_or_else(|e| e.into_inner());
    t.add(local);
}

/// A monitor with every call timed.
pub struct TracedMonitor {
    inner: Box<dyn Monitor + Send>,
    local: MonitorTotals,
    rec: Recorder,
}

impl TracedMonitor {
    pub fn new(inner: Box<dyn Monitor + Send>, rec: &Recorder) -> Self {
        TracedMonitor {
            inner,
            local: MonitorTotals::default(),
            rec: Arc::clone(rec),
        }
    }
}

fn set_mark(at: (Instant, f64)) {
    MARK.with(|m| m.set(Some(at)));
}

impl Monitor for TracedMonitor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn interval(&self) -> SimDuration {
        self.inner.interval()
    }

    fn prime(&mut self, k: &mut Kernel) {
        let s = Span::begin();
        self.inner.prime(k);
        set_mark(s.end(&mut self.local.attach));
    }

    fn observe(&mut self, k: &mut Kernel) -> Frame {
        let s = Span::begin();
        if !on_driver() {
            if let Some((w, c)) = MARK.with(|m| m.get()) {
                let off_cpu = (s.wall - w).as_secs_f64() - (s.cpu - c);
                self.local.advance_wait += off_cpu.max(0.0);
            }
        }
        let frame = self.inner.observe(k);
        self.local.rows += frame.rows.len() as u64;
        set_mark(s.end(&mut self.local.observe));
        frame
    }

    fn teardown(&mut self, k: &mut Kernel) {
        let s = Span::begin();
        self.inner.teardown(k);
        set_mark(s.end(&mut self.local.attach));
    }
}

impl Drop for TracedMonitor {
    fn drop(&mut self) {
        merge(&self.rec, &self.local);
    }
}

/// A scheduler policy with every `observe` timed.
pub struct TracedPolicy {
    inner: Box<dyn SchedulerPolicy>,
    local: MonitorTotals,
    rec: Recorder,
}

impl TracedPolicy {
    pub fn new(inner: Box<dyn SchedulerPolicy>, rec: &Recorder) -> Self {
        TracedPolicy {
            inner,
            local: MonitorTotals::default(),
            rec: Arc::clone(rec),
        }
    }
}

impl SchedulerPolicy for TracedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn observe(&mut self, frame: &ClusterFrame) -> Vec<MigrationDecision> {
        let s = Span::begin();
        let decisions = self.inner.observe(frame);
        self.local.decisions += decisions.len() as u64;
        s.end(&mut self.local.policy);
        decisions
    }
}

impl Drop for TracedPolicy {
    fn drop(&mut self) {
        merge(&self.rec, &self.local);
    }
}

/// The benchmark's own sink: wraps the consumer a workload uses, counts
/// what the merge delivers (frames, calls, frames per machine, distinct
/// sim instants) and, when traced, times every delivery call.
pub struct BenchSink<S> {
    pub inner: S,
    pub frames: u64,
    /// Delivery calls: one per `on_frame`, one per `on_batch` run.
    pub calls: u64,
    /// Frames delivered per machine index.
    pub per_machine: Vec<u64>,
    /// Distinct sim instants seen (frames arrive in time order).
    pub rounds: u64,
    last: Option<SimTime>,
    /// `Some` when traced: the delivery spans.
    pub spans: Option<Acc>,
}

impl<S> BenchSink<S> {
    pub fn new(inner: S, machines: usize, traced: bool) -> Self {
        BenchSink {
            inner,
            frames: 0,
            calls: 0,
            per_machine: vec![0; machines],
            rounds: 0,
            last: None,
            spans: traced.then(Acc::default),
        }
    }

    fn count(&mut self, machine: usize, time: SimTime) {
        self.frames += 1;
        self.per_machine[machine] += 1;
        if self.last != Some(time) {
            self.rounds += 1;
            self.last = Some(time);
        }
    }
}

impl<S: ClusterFrameSink> ClusterFrameSink for BenchSink<S> {
    fn on_frame(&mut self, frame: ClusterFrame) {
        let s = self.spans.is_some().then(Span::begin);
        self.calls += 1;
        self.count(frame.machine_index, frame.frame.time);
        self.inner.on_frame(frame);
        if let (Some(s), Some(acc)) = (s, self.spans.as_mut()) {
            s.end(acc);
        }
    }

    fn on_batch(&mut self, batch: &mut FrameBatch, range: Range<usize>) {
        let s = self.spans.is_some().then(Span::begin);
        self.calls += 1;
        for i in range.clone() {
            self.count(batch.machine_index(i), batch.time(i));
        }
        self.inner.on_batch(batch, range);
        if let (Some(s), Some(acc)) = (s, self.spans.as_mut()) {
            s.end(acc);
        }
    }
}
