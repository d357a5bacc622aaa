//! **Reactive** — the monitor→migration loop *closed*: the same
//! victim/aggressor cast as the [`grid`] experiment, but nobody scripts the
//! relief. An [`IpcFloor`] policy watches the merged fleet stream live;
//! when the victim's IPC has dropped below the floor and stayed there for
//! the scheduler's patience window, the policy fires and every aggressor is
//! migrated to the spare node — the decision is *made from the stream*
//! (a [`ClusterSession::run`] with a policy), validated at run time, and
//! applied at the next scheduler-epoch boundary after the deciding frame.
//!
//! The experiment runs the scripted [`grid`] baseline side by side: the
//! oracle scheduler migrates at the scripted relief instant, the reactive
//! one at whatever instant the stream shows the sustained dip — and the
//! regression test asserts the reactive trigger lands within **one refresh
//! interval** of the scripted instant, with the same dip-then-recovery
//! shape in the victims' IPC. Everything is deterministic: the reactive
//! stream (frames, decisions, application instants) is byte-identical at
//! any worker-thread count.
//!
//! [`ClusterSession::run`]: tiptop_core::cluster::ClusterSession::run
//! [`IpcFloor`]: tiptop_core::reactive::IpcFloor
//! [`grid`]: crate::experiments::grid

use tiptop_core::cluster::{ClusterCollectSink, ClusterFrame, ClusterScenario};
use tiptop_core::reactive::{AppliedDecision, IpcFloor, SchedulerPolicy};
use tiptop_machine::time::SimDuration;
use tiptop_workloads::datacenter::grid_script;

use crate::experiments::default_threads;
use crate::experiments::grid::{
    self, fleet_monitors, Handover, VictimSeries, SPARE_NODE, VICTIM_NODE,
};
use crate::report::{ascii_plot, TableReport};

/// Tiptop/top refresh interval (simulated seconds), shared with [`grid`].
pub const DELAY_S: f64 = grid::DELAY_S;

/// The IPC floor the policy guards. The victims' warmed IPC on the
/// contended node sits near 1.26 (sim-fluid), the dwell depresses it
/// towards 1.0 through shared-L3 thrash; the floor sits between, so the
/// cold-start ramp arms the policy and only the burst breaches it.
pub const IPC_FLOOR: f64 = 1.15;

/// Refreshes between the burst's arrival and the dip first crossing the
/// floor: the aggressors' working sets need a couple of refreshes to warm
/// into (and start thrashing) the shared L3, plus one refresh for the
/// monitor to show it.
const CROSSING_LAG_REFRESHES: u64 = 3;

/// One reactive run next to its scripted oracle.
pub struct ReactiveResult {
    /// When the aggressors arrived on the victims' node.
    pub arrival: f64,
    /// The scripted baseline's migration instant (the oracle the reactive
    /// trigger is measured against).
    pub scripted_relief: f64,
    /// The floor the policy guarded.
    pub floor: f64,
    /// Refresh interval (simulated seconds) — the comparison yardstick.
    pub refresh: f64,
    /// Every live decision the policy fired, in application order.
    pub decisions: Vec<AppliedDecision>,
    /// The reactive run's merged fleet stream.
    pub merged: Vec<ClusterFrame>,
    /// The victims as the reactive run saw them (tiptop IPC + top %CPU).
    pub victims: Vec<VictimSeries>,
    /// Kernel-level handover instants of the reactive migration.
    pub handovers: Vec<Handover>,
    /// The scripted `grid` baseline, same seed and scale.
    pub baseline: grid::GridResult,
    /// Last observed instant.
    pub end: f64,
    pub scale: f64,
}

/// Run the reactive-relief experiment (plus its scripted baseline) on the
/// default worker pool.
pub fn run(seed: u64, scale: f64) -> ReactiveResult {
    run_on(seed, scale, default_threads())
}

/// [`run`] with an explicit worker-thread count; both streams are
/// byte-identical at any count.
pub fn run_on(seed: u64, scale: f64, threads: usize) -> ReactiveResult {
    let (merged, decisions, handovers, end) = run_reactive_only(seed, scale, threads);
    let script = grid_script(scale);
    let victims = grid::victim_views(&merged, |comm| format!("{comm} IPC (reactive)"));
    ReactiveResult {
        arrival: script.arrival.as_secs_f64(),
        scripted_relief: script.relief.as_secs_f64(),
        floor: IPC_FLOOR,
        refresh: DELAY_S,
        decisions,
        merged,
        victims,
        handovers,
        baseline: grid::run_on(seed, scale, threads),
        end,
        scale,
    }
}

/// The reactive run alone, rendered to bytes — the byte-identity artifact
/// the determinism test compares across worker-thread counts (without
/// paying for the scripted baseline each time).
pub fn run_stream(seed: u64, scale: f64, threads: usize) -> String {
    let (merged, decisions, _, _) = run_reactive_only(seed, scale, threads);
    render_stream(&merged, &decisions)
}

/// Frames and decisions as one byte string: the determinism artifact.
fn render_stream(merged: &[ClusterFrame], decisions: &[AppliedDecision]) -> String {
    let mut out: String = merged
        .iter()
        .map(|cf| {
            format!(
                "[{} #{} {}]\n{}",
                cf.machine,
                cf.seq,
                cf.source,
                cf.frame.render()
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    for d in decisions {
        out.push_str(&format!(
            "\n[decision {} '{}' {}->{} decided {:.3} applied {:.3}]",
            d.policy,
            d.tag,
            d.from,
            d.to,
            d.decided_at.as_secs_f64(),
            d.applied_at.as_secs_f64(),
        ));
    }
    out
}

/// Build the unscripted cluster, install the floor policy, run, and read
/// the handover instants back off the shards.
fn run_reactive_only(
    seed: u64,
    scale: f64,
    threads: usize,
) -> (Vec<ClusterFrame>, Vec<AppliedDecision>, Vec<Handover>, f64) {
    let script = grid_script(scale);
    let (victim_node, spare_node, aggressor_tags) = grid::nodes(seed, &script);
    let mut session = ClusterScenario::new()
        .machine(VICTIM_NODE, victim_node)
        .machine(SPARE_NODE, spare_node)
        .build()
        .expect("no scripted migrations to validate");

    // The scheduler's patience: the dip crosses the floor about
    // CROSSING_LAG_REFRESHES after the arrival, and the policy tolerates a
    // sustained breach for the rest of the scripted dwell — so an oracle
    // scripting the relief and a scheduler watching the stream should act
    // at (nearly) the same instant, which is exactly what the test pins.
    let delay = SimDuration::from_secs_f64(DELAY_S);
    let patience = (script.relief - script.arrival).saturating_sub(delay * CROSSING_LAG_REFRESHES);
    let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(
        IpcFloor::new(VICTIM_NODE, "sim-fluid", IPC_FLOOR, patience, SPARE_NODE)
            .source("tiptop")
            .evicting(|row| row.user == "user2"),
    )];

    // Same observation plan as the scripted baseline: identical refresh
    // count, tiptop everywhere plus `top` on the contended node.
    let relief = script.relief.as_secs_f64();
    let refreshes = ((relief + grid::RECOVERY_FRAMES as f64 * DELAY_S) / DELAY_S).ceil() as usize;
    let mut sink = ClusterCollectSink::new();
    let decisions = session
        .run(
            threads,
            refreshes,
            fleet_monitors(delay),
            &mut policies,
            &mut sink,
        )
        .expect("reactive run");
    let merged = sink.into_frames();

    let victim_shard = session.session(VICTIM_NODE).expect("shard survived");
    let spare_shard = session.session(SPARE_NODE).expect("shard survived");
    let handovers = aggressor_tags
        .iter()
        .filter(|tag| spare_shard.pid(tag).is_some())
        .map(|tag| {
            let exited = victim_shard
                .kernel()
                .exit_record(victim_shard.pid(tag).expect("spawned on the victim node"))
                .expect("killed by the live migration");
            let started = spare_shard
                .kernel()
                .stat(spare_shard.pid(tag).expect("respawned on the spare node"))
                .expect("endless aggressor still runs");
            Handover {
                comm: tag.clone(),
                exit_at: exited.end_time.as_secs_f64(),
                start_at: started.start_time.as_secs_f64(),
            }
        })
        .collect();
    let end = merged
        .last()
        .map(|cf| cf.frame.time.as_secs_f64())
        .unwrap_or(relief);
    (merged, decisions, handovers, end)
}

impl ReactiveResult {
    /// This run's frames and decisions as one byte string (see
    /// [`run_stream`]).
    pub fn rendered_stream(&self) -> String {
        render_stream(&self.merged, &self.decisions)
    }

    pub fn victim(&self, comm: &str) -> &VictimSeries {
        grid::victim_in(&self.victims, comm)
    }

    /// The instant the policy fired (the deciding frame's sim-time).
    pub fn trigger(&self) -> f64 {
        self.decisions
            .first()
            .expect("the policy fired")
            .decided_at
            .as_secs_f64()
    }

    /// The instant the decisions applied (the epoch boundary after the
    /// trigger — where the kill/spawn pair actually landed).
    pub fn applied(&self) -> f64 {
        self.decisions
            .first()
            .expect("the policy fired")
            .applied_at
            .as_secs_f64()
    }

    /// Measurement windows like the baseline's, with the dwell ending at
    /// the *reactive* relief: the last stretch before the burst arrives,
    /// the last stretch of the dwell, the last stretch after the applied
    /// migration.
    pub fn windows(&self) -> [(f64, f64); 3] {
        [
            (self.arrival - 6.0, self.arrival + 1.0),
            (self.trigger() - 8.0, self.trigger() + 1.0),
            (self.end - 6.0, self.end + 1.0),
        ]
    }

    /// Frames of one machine carrying a tiptop row for `comm` in `(lo, hi]`
    /// — the same filter the grid result applies, on the reactive stream.
    pub fn frames_showing(&self, machine: &str, comm: &str, lo: f64, hi: f64) -> usize {
        grid::frames_showing_in(&self.merged, machine, comm, lo, hi)
    }

    pub fn report(&self) -> String {
        // The side-by-side headline: the same victim under the reactive
        // and the scripted scheduler.
        let fluid = self.victim("sim-fluid");
        let scripted = self.baseline.victim("sim-fluid");
        let mut baseline_curve = scripted.ipc.clone();
        baseline_curve.label = "sim-fluid IPC (scripted)".to_string();
        let mut out = ascii_plot(
            &format!(
                "Reactive: victim IPC — policy fired t={:.0}s vs scripted relief t={:.0}s \
                 (floor {:.2}, applied {:.2}s)",
                self.trigger(),
                self.scripted_relief,
                self.floor,
                self.applied(),
            ),
            &[fluid.ipc.clone(), baseline_curve],
            72,
            12,
        );
        let mut t = TableReport::new(
            "live decisions (all applied at the epoch boundary after the trigger)",
            &["policy", "job", "from", "to", "decided (s)", "applied (s)"],
        );
        for d in &self.decisions {
            t.row(vec![
                d.policy.clone(),
                d.tag.clone(),
                d.from.clone(),
                d.to.clone(),
                format!("{:.1}", d.decided_at.as_secs_f64()),
                format!("{:.3}", d.applied_at.as_secs_f64()),
            ]);
        }
        out.push_str(&t.render());
        let [before, during, after] = self.windows();
        let mut t = TableReport::new(
            "victim means per phase (dwell ends at the policy's trigger)",
            &[
                "job",
                "IPC before",
                "IPC dwell",
                "IPC after",
                "%CPU dwell (top)",
            ],
        );
        for v in &self.victims {
            t.row(vec![
                v.comm.clone(),
                format!("{:.2}", v.ipc.mean_in(before.0, before.1)),
                format!("{:.2}", v.ipc.mean_in(during.0, during.1)),
                format!("{:.2}", v.ipc.mean_in(after.0, after.1)),
                format!("{:.1}", v.cpu.mean_in(during.0, during.1)),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}
