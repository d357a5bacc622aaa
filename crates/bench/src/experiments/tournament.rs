//! **Tournament** — restart vs resume, ranked: the checkpoint/restore
//! subsystem turned into a 2×2 policy experiment. The cast is the
//! [`grid`]/[`reactive`] node pair, but the burst is finite and user1's
//! migratable job is a *finite batch payload* (`sim-batch`): when a
//! detector watching the endless canary (`sim-fluid`) decides the node is
//! thrashed, the payload is relocated to the spare node either
//! **restart-from-zero** ([`MigrationMode::Restart`]) or
//! **checkpoint/resume** ([`MigrationMode::Resume`]), and the detector is
//! either the [`IpcFloor`] threshold or the [`Cusum`] change-point
//! statistic. Four cells, each reporting the decision instants, the
//! payload's completion wall-clock, the instructions the migration threw
//! away, and the payload's recovered IPC on the spare node.
//!
//! The headline pin: within a detector the trigger instant is identical
//! across modes (the decision is made from the same merged stream), so the
//! wall-clock gap is *pure mode* — and resume, which carries the payload's
//! progress across the hop, completes in strictly less wall-clock than
//! restart, which redoes every retired instruction. Every cell's stream is
//! byte-identical at any worker-thread count.
//!
//! [`grid`]: crate::experiments::grid
//! [`reactive`]: crate::experiments::reactive
//! [`IpcFloor`]: tiptop_core::reactive::IpcFloor
//! [`Cusum`]: tiptop_core::reactive::Cusum
//! [`MigrationMode::Restart`]: tiptop_core::reactive::MigrationMode
//! [`MigrationMode::Resume`]: tiptop_core::reactive::MigrationMode

use tiptop_core::app::{Tiptop, TiptopOptions};
use tiptop_core::cluster::{
    ClusterCollectSink, ClusterFrame, ClusterScenario, ClusterSession, MachineRef, Until,
};
use tiptop_core::config::ScreenConfig;
use tiptop_core::monitor::Monitor;
use tiptop_core::reactive::{AppliedDecision, Cusum, IpcFloor, MigrationMode, SchedulerPolicy};
use tiptop_core::scenario::Scenario;
use tiptop_core::session::cluster_series_for_comm;
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_machine::config::MachineConfig;
use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_workloads::datacenter::{tournament_script, users, Job, TournamentScript};

use crate::experiments::default_threads;
use crate::experiments::grid::{SPARE_NODE, VICTIM_NODE};
use crate::report::{Series, TableReport};

/// Tiptop refresh interval (simulated seconds), shared with [`grid`].
///
/// [`grid`]: crate::experiments::grid
pub const DELAY_S: f64 = crate::experiments::grid::DELAY_S;

/// The canary the detectors watch and the payload they relocate (shared
/// with [`policy_lab`](crate::experiments::policy_lab)).
pub const CANARY: &str = "sim-fluid";
pub const PAYLOAD: &str = "sim-batch";

/// The floor guarded on the canary — same level as the `reactive`
/// experiment (healthy ~1.26, dwell ~1.0).
pub const IPC_FLOOR: f64 = 1.15;
/// Refreshes of sustained breach before the floor fires: short, because the
/// tournament measures relocation modes, not detector patience.
pub const FLOOR_PATIENCE_REFRESHES: u64 = 2;

/// CUSUM calibration: the canary's first four samples are cold-start ramp
/// (its warm tier takes ~8 s to settle into the L3) and are skipped, the
/// next three calibrate the healthy plateau (~1.22), and the dwell's
/// ~0.15-per-sample deviation beyond the drift allowance crosses the
/// threshold within a few refreshes while refresh-to-refresh noise never
/// accumulates. The threshold is set a notch above the floor detector's
/// effective patience, so the two families legitimately disagree on the
/// trigger instant (one refresh apart) and the tournament compares modes
/// under each.
pub const CUSUM_SKIP: usize = 4;
pub const CUSUM_WARMUP: usize = 3;
pub const CUSUM_DRIFT: f64 = 0.05;
pub const CUSUM_THRESHOLD: f64 = 0.45;

/// The two detector families the tournament ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Detector {
    IpcFloor,
    Cusum,
}

impl Detector {
    pub fn label(self) -> &'static str {
        match self {
            Detector::IpcFloor => "ipc-floor",
            Detector::Cusum => "cusum",
        }
    }
}

/// One cell of the 2×2: a detector crossed with a migration mode.
pub struct Cell {
    pub detector: Detector,
    pub mode: MigrationMode,
    /// The deciding frame's sim-time (seconds).
    pub trigger: f64,
    /// The epoch boundary the relocation landed at.
    pub applied: f64,
    /// The payload's completion wall-clock (seconds from its t=0 submit to
    /// the final incarnation's exit) — the tournament's ranking metric.
    pub payload_wall: f64,
    /// The final incarnation's retired total: the whole job, in every cell.
    pub payload_total_insns: u64,
    /// Instructions retired on the contended node and then *redone* —
    /// restart's price; zero under resume.
    pub wasted_insns: u64,
    /// The payload's mean IPC on the spare node after the relocation.
    pub recovered_ipc: f64,
    /// The canary's mean IPC over the dwell stretch before the trigger.
    pub canary_dwell_ipc: f64,
    /// Every decision the cell's policy fired (exactly one: the payload).
    pub decisions: Vec<AppliedDecision>,
}

pub struct TournamentResult {
    pub arrival: f64,
    pub dwell: f64,
    /// The payload's full instruction budget, for conservation checks.
    pub payload_insns: u64,
    /// The four cells in (detector, mode) order: floor/restart,
    /// floor/resume, cusum/restart, cusum/resume.
    pub cells: Vec<Cell>,
    pub scale: f64,
}

/// Run the tournament on the default worker pool.
pub fn run(seed: u64, scale: f64) -> TournamentResult {
    run_on(seed, scale, default_threads())
}

/// [`run`] with an explicit worker-thread count; every cell's stream is
/// byte-identical at any count.
pub fn run_on(seed: u64, scale: f64, threads: usize) -> TournamentResult {
    let script = tournament_script(scale);
    let cells = [
        (Detector::IpcFloor, MigrationMode::Restart),
        (Detector::IpcFloor, MigrationMode::Resume),
        (Detector::Cusum, MigrationMode::Restart),
        (Detector::Cusum, MigrationMode::Resume),
    ]
    .into_iter()
    .map(|(detector, mode)| run_cell(seed, &script, threads, detector, mode))
    .collect();
    TournamentResult {
        arrival: script.arrival.as_secs_f64(),
        dwell: script.dwell.as_secs_f64(),
        payload_insns: script.payload_insns,
        cells,
        scale,
    }
}

/// One cell's stream rendered to bytes — the determinism artifact the
/// regression test compares across worker-thread counts.
pub fn run_cell_stream(
    seed: u64,
    scale: f64,
    threads: usize,
    detector: Detector,
    mode: MigrationMode,
) -> String {
    let script = tournament_script(scale);
    let (merged, decisions, _session) = run_cell_raw(seed, &script, threads, detector, mode);
    render_stream(&merged, &decisions)
}

pub(crate) fn render_stream(merged: &[ClusterFrame], decisions: &[AppliedDecision]) -> String {
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
            "\n[decision {} {} '{}' {}->{} decided {:.3} applied {:.3}]",
            d.policy,
            d.mode.label(),
            d.tag,
            d.from,
            d.to,
            d.decided_at.as_secs_f64(),
            d.applied_at.as_secs_f64(),
        ));
    }
    out
}

/// The two-node cast: the contended node carries the canary, the payload
/// and the burst; the spare sits idle until the relocation. Shared with
/// [`policy_lab`](crate::experiments::policy_lab), which adds a third node.
pub(crate) fn nodes(seed: u64, script: &TournamentScript) -> (Scenario, Scenario) {
    let machine = || {
        MachineConfig::datacenter_e5640()
            .noiseless()
            .with_samples(4096)
    };
    let node = |seed: u64| {
        let mut sc = Scenario::new(machine()).seed(seed);
        for (uid, name) in users() {
            sc = sc.user(uid, name);
        }
        sc
    };
    let spawn = |mut sc: Scenario, job: &Job| {
        sc = sc.spawn_at(
            SimTime::ZERO + job.start,
            job.comm.clone(),
            SpawnSpec::new(job.comm.clone(), job.uid, job.program.clone()).seed(job.seed),
        );
        sc
    };
    let mut victim_node = node(seed);
    victim_node = spawn(victim_node, &script.canary);
    victim_node = spawn(victim_node, &script.payload);
    for job in &script.aggressors {
        victim_node = spawn(victim_node, job);
    }
    (victim_node, node(seed + 1))
}

/// The cell's detector, relieving the payload onto the spare in `mode`
/// (shared with [`policy_lab`](crate::experiments::policy_lab)).
pub(crate) fn policy_for(detector: Detector, mode: MigrationMode) -> Box<dyn SchedulerPolicy> {
    let delay = SimDuration::from_secs_f64(DELAY_S);
    match detector {
        Detector::IpcFloor => Box::new(
            IpcFloor::new(
                VICTIM_NODE,
                CANARY,
                IPC_FLOOR,
                delay * FLOOR_PATIENCE_REFRESHES,
                SPARE_NODE,
            )
            .source("tiptop")
            .mode(mode)
            .evicting(|row| row.comm == PAYLOAD),
        ),
        Detector::Cusum => Box::new(
            Cusum::new(
                VICTIM_NODE,
                CANARY,
                CUSUM_WARMUP,
                CUSUM_DRIFT,
                CUSUM_THRESHOLD,
                SPARE_NODE,
            )
            .skip(CUSUM_SKIP)
            .source("tiptop")
            .mode(mode)
            .evicting(|row| row.comm == PAYLOAD),
        ),
    }
}

/// Build one cell's cluster, install its policy, and run it to the shared
/// horizon — the slowest cell is restart under the laziest detector
/// (trigger plus the payload's whole budget redone from zero), so every
/// cell observes the same refresh count.
fn run_cell_raw(
    seed: u64,
    script: &TournamentScript,
    threads: usize,
    detector: Detector,
    mode: MigrationMode,
) -> (Vec<ClusterFrame>, Vec<AppliedDecision>, ClusterSession) {
    let (victim_node, spare_node) = nodes(seed, script);
    let mut session = ClusterScenario::new()
        .machine(VICTIM_NODE, victim_node)
        .machine(SPARE_NODE, spare_node)
        .build()
        .expect("no scripted migrations to validate");
    let mut policies = vec![policy_for(detector, mode)];

    let horizon = script.arrival.as_secs_f64() + 2.1 * script.dwell.as_secs_f64();
    let refreshes = (horizon / DELAY_S).ceil() as usize;
    let delay = SimDuration::from_secs_f64(DELAY_S);
    let monitors = move |_m: MachineRef<'_>| -> Vec<(Box<dyn Monitor + Send>, Option<Until>)> {
        let tool = Tiptop::new(
            TiptopOptions::default().observer(Uid::ROOT).delay(delay),
            ScreenConfig::default_screen(),
        );
        vec![(Box::new(tool), None)]
    };
    let mut sink = ClusterCollectSink::new();
    let decisions = session
        .run(threads, refreshes, monitors, &mut policies, &mut sink)
        .expect("tournament cell run");
    (sink.into_frames(), decisions, session)
}

fn run_cell(
    seed: u64,
    script: &TournamentScript,
    threads: usize,
    detector: Detector,
    mode: MigrationMode,
) -> Cell {
    let (merged, decisions, session) = run_cell_raw(seed, script, threads, detector, mode);
    let d = decisions.first().expect("the detector fired");
    let trigger = d.decided_at.as_secs_f64();
    let applied = d.applied_at.as_secs_f64();

    let victim_shard = session.session(VICTIM_NODE).expect("shard survived");
    let spare_shard = session.session(SPARE_NODE).expect("shard survived");
    let cut = victim_shard
        .kernel()
        .exit_record(
            victim_shard
                .pid(PAYLOAD)
                .expect("spawned on the victim node"),
        )
        .expect("relocated off the node");
    let done = spare_shard
        .kernel()
        .exit_record(spare_shard.pid(PAYLOAD).expect("landed on the spare node"))
        .expect("finished within the horizon");
    let payload_wall = done.end_time.as_secs_f64();
    let payload_total_insns = done.total_instructions;
    // Restart throws away everything the contended node had retired;
    // resume carries it across the hop.
    let wasted_insns = match mode {
        MigrationMode::Restart => cut.total_instructions,
        MigrationMode::Resume => 0,
    };

    let recovered = Series::new(
        format!("{PAYLOAD} IPC (spare)"),
        cluster_series_for_comm(&merged, SPARE_NODE, Some("tiptop"), PAYLOAD, "IPC"),
    );
    let recovered_ipc = recovered.mean_in(applied, payload_wall + DELAY_S);
    let canary = Series::new(
        format!("{CANARY} IPC"),
        cluster_series_for_comm(&merged, VICTIM_NODE, Some("tiptop"), CANARY, "IPC"),
    );
    let canary_dwell_ipc = canary.mean_in(trigger - 3.0 * DELAY_S, trigger + 1e-9);

    Cell {
        detector,
        mode,
        trigger,
        applied,
        payload_wall,
        payload_total_insns,
        wasted_insns,
        recovered_ipc,
        canary_dwell_ipc,
        decisions,
    }
}

impl TournamentResult {
    /// The cell for one (detector, mode) pair.
    pub fn cell(&self, detector: Detector, mode: MigrationMode) -> &Cell {
        self.cells
            .iter()
            .find(|c| c.detector == detector && c.mode == mode)
            .expect("all four cells ran")
    }

    /// Resume's wall-clock saving over restart under one detector
    /// (seconds; positive when resume wins).
    pub fn saving(&self, detector: Detector) -> f64 {
        self.cell(detector, MigrationMode::Restart).payload_wall
            - self.cell(detector, MigrationMode::Resume).payload_wall
    }

    pub fn report(&self) -> String {
        let mut t = TableReport::new(
            format!(
                "restart-vs-resume tournament (burst t={:.0}s, payload {:.1} Ginsns; \
                 wall-clock = payload completion)",
                self.arrival,
                self.payload_insns as f64 / 1e9,
            ),
            &[
                "detector",
                "mode",
                "trigger (s)",
                "applied (s)",
                "wall (s)",
                "wasted (Ginsns)",
                "IPC on spare",
            ],
        );
        for c in &self.cells {
            t.row(vec![
                c.detector.label().to_string(),
                c.mode.label().to_string(),
                format!("{:.1}", c.trigger),
                format!("{:.3}", c.applied),
                format!("{:.2}", c.payload_wall),
                format!("{:.2}", c.wasted_insns as f64 / 1e9),
                format!("{:.2}", c.recovered_ipc),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "resume saves {:.2}s under ipc-floor, {:.2}s under cusum\n",
            self.saving(Detector::IpcFloor),
            self.saving(Detector::Cusum),
        ));
        out
    }
}
