//! **Policy lab** — the pluggable-scheduling payoff: N policies × M
//! scenarios through [`run_reactive`], ranked. Where [`tournament`] fixed
//! the detector question to *restart vs resume*, the lab crosses three
//! **detector × placement** policies — the [`IpcFloor`] threshold, the
//! [`Cusum`] statistic (both relieving onto a fixed spare) and the
//! [`Population`] change-point detector composed with [`LeastLoaded`]
//! placement (destination picked from live fleet load) — with three
//! scenarios that also exercise the *in-kernel* layer:
//!
//! * `burst/cfs` — the tournament's finite burst on the default
//!   [`CfsLike`] epoch planner;
//! * `burst/rr`  — the identical burst with every kernel booted on the
//!   [`RoundRobin`] planner (`ClusterScenario::scheduler`), demonstrating
//!   that swapping the in-kernel scheduler is a config knob, not a kernel
//!   edit;
//! * `fleet`     — a three-node variant whose *designated* relief machine
//!   is itself busy with background load while a third node idles: fixed
//!   placement pays the co-location, least-loaded routes around it.
//!
//! Every cell relocates the payload in [`MigrationMode::Resume`] (the
//! tournament already settled restart-vs-resume), reports the trigger and
//! apply instants, the destination, the payload's completion wall-clock
//! (the ranking metric), its recovered IPC on the destination, the canary's
//! recovery on the victim node, and the migrations fired — and each cell's
//! stream is byte-identical at any worker-thread count.
//!
//! [`run_reactive`]: tiptop_core::cluster::ClusterSession::run_reactive
//! [`tournament`]: crate::experiments::tournament
//! [`IpcFloor`]: tiptop_core::reactive::IpcFloor
//! [`Cusum`]: tiptop_core::reactive::Cusum
//! [`Population`]: tiptop_core::reactive::Population
//! [`LeastLoaded`]: tiptop_core::reactive::LeastLoaded
//! [`CfsLike`]: tiptop_kernel::sched::CfsLike
//! [`RoundRobin`]: tiptop_kernel::sched::RoundRobin
//! [`MigrationMode::Resume`]: tiptop_core::reactive::MigrationMode

use tiptop_core::app::{Tiptop, TiptopOptions};
use tiptop_core::cluster::{
    ClusterCollectSink, ClusterFrame, ClusterScenario, ClusterSession, MachineRef,
};
use tiptop_core::config::ScreenConfig;
use tiptop_core::monitor::Monitor;
use tiptop_core::reactive::{
    AppliedDecision, Balanced, Cusum, IpcFloor, MigrationMode, Population, SchedulerPolicy,
};
use tiptop_core::session::cluster_series_for_comm;
use tiptop_kernel::sched::SchedulerSelect;
use tiptop_kernel::task::SpawnSpec;
use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_workloads::datacenter::{grid_script, tournament_script, TournamentScript, USER3};

use crate::experiments::default_threads;
use crate::experiments::grid::{DELAY_S, SPARE_NODE, VICTIM_NODE};
use crate::experiments::tournament::{
    nodes, render_stream, CANARY, CUSUM_DRIFT, CUSUM_SKIP, CUSUM_THRESHOLD, CUSUM_WARMUP,
    FLOOR_PATIENCE_REFRESHES, IPC_FLOOR, PAYLOAD,
};
use crate::report::{Series, TableReport};

/// The third machine of the `fleet` scenario: idle, and *not* any
/// detector's designated relief — only live-load placement finds it.
pub const IDLE_NODE: &str = "node-idle";

/// Endless background jobs parked on the designated spare in the `fleet`
/// scenario, so fixed placement relieves onto a busy machine.
const FLEET_BACKGROUND_JOBS: usize = 4;

/// Population calibration: skip the canary's cold-start ramp (same window
/// the CUSUM skips), build the reference population from the next four
/// plateau samples, and declare a change-point after two consecutive
/// samples below `μ − 4σ` — with the dwell sitting ~0.2 IPC under the
/// plateau, the band is generous against refresh noise yet the second
/// dwell sample confirms, one refresh ahead of the floor's patience.
const POP_SKIP: usize = CUSUM_SKIP;
const POP_WARMUP: usize = 4;
const POP_SIGMAS: f64 = 4.0;
const POP_CONFIRM: usize = 2;

/// The detector × placement policies the lab ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabPolicy {
    /// [`IpcFloor`] → fixed spare.
    Floor,
    /// [`Cusum`] → fixed spare.
    Cusum,
    /// [`Population`] → [`LeastLoaded`](tiptop_core::reactive::LeastLoaded)
    /// destination.
    Population,
}

impl LabPolicy {
    pub const ALL: [LabPolicy; 3] = [LabPolicy::Floor, LabPolicy::Cusum, LabPolicy::Population];

    pub fn label(self) -> &'static str {
        match self {
            LabPolicy::Floor => "ipc-floor",
            LabPolicy::Cusum => "cusum",
            LabPolicy::Population => "population+least-loaded",
        }
    }
}

/// The scenarios each policy is run through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabScenario {
    /// Tournament burst, default CFS-like kernels, two nodes.
    BurstCfs,
    /// Identical burst with every kernel on the round-robin planner.
    BurstRr,
    /// Three nodes; the designated spare carries background load.
    Fleet,
}

impl LabScenario {
    pub const ALL: [LabScenario; 3] = [
        LabScenario::BurstCfs,
        LabScenario::BurstRr,
        LabScenario::Fleet,
    ];

    pub fn label(self) -> &'static str {
        match self {
            LabScenario::BurstCfs => "burst/cfs",
            LabScenario::BurstRr => "burst/rr",
            LabScenario::Fleet => "fleet",
        }
    }
}

/// One cell of the policy × scenario grid.
pub struct LabCell {
    pub policy: LabPolicy,
    pub scenario: LabScenario,
    /// The deciding frame's sim-time (seconds).
    pub trigger: f64,
    /// The epoch boundary the relocation landed at.
    pub applied: f64,
    /// Where the payload actually went — fixed relief or live pick.
    pub destination: String,
    /// The payload's completion wall-clock (seconds from submit to its
    /// final incarnation's exit) — the lab's ranking metric.
    pub payload_wall: f64,
    /// The payload's mean IPC on its destination after the relocation.
    pub recovered_ipc: f64,
    /// The canary's mean IPC on the victim node after the relocation.
    pub canary_recovery_ipc: f64,
    /// Migrations the policy fired (exactly one: the payload).
    pub migrations: usize,
}

pub struct PolicyLabResult {
    pub arrival: f64,
    pub dwell: f64,
    pub cells: Vec<LabCell>,
    pub scale: f64,
}

/// Run the full policy × scenario grid on the default worker pool.
pub fn run(seed: u64, scale: f64) -> PolicyLabResult {
    run_on(seed, scale, default_threads())
}

/// [`run`] with an explicit worker-thread count; every cell's stream is
/// byte-identical at any count.
pub fn run_on(seed: u64, scale: f64, threads: usize) -> PolicyLabResult {
    let script = tournament_script(scale);
    let mut cells = Vec::new();
    for scenario in LabScenario::ALL {
        for policy in LabPolicy::ALL {
            cells.push(run_cell(seed, scale, &script, threads, policy, scenario));
        }
    }
    PolicyLabResult {
        arrival: script.arrival.as_secs_f64(),
        dwell: script.dwell.as_secs_f64(),
        cells,
        scale,
    }
}

/// One cell's stream rendered to bytes — the determinism artifact the
/// regression test compares across worker-thread counts (for `burst/rr`,
/// this is also the alternative-scheduler determinism golden).
pub fn run_cell_stream(
    seed: u64,
    scale: f64,
    threads: usize,
    policy: LabPolicy,
    scenario: LabScenario,
) -> String {
    let script = tournament_script(scale);
    let (merged, decisions, _session) =
        run_cell_raw(seed, scale, &script, threads, policy, scenario);
    render_stream(&merged, &decisions)
}

/// The cast for one scenario. All three scenarios share the tournament's
/// victim/spare pair; `fleet` parks endless background jobs on the spare
/// (so its *designated* relief is the busy machine) and adds an idle third
/// node; `burst/rr` boots every kernel on the round-robin planner.
fn cluster_for(
    seed: u64,
    scale: f64,
    script: &TournamentScript,
    scenario: LabScenario,
) -> ClusterSession {
    let (victim_node, mut spare_node) = nodes(seed, script);
    let mut cluster = ClusterScenario::new();
    match scenario {
        LabScenario::BurstCfs => {}
        LabScenario::BurstRr => {
            cluster = cluster.scheduler(SchedulerSelect::round_robin());
        }
        LabScenario::Fleet => {
            // The grid script's endless aggressors, re-timed to t=0: a
            // standing ~400% load on the designated spare.
            for job in grid_script(scale)
                .aggressors
                .into_iter()
                .take(FLEET_BACKGROUND_JOBS)
            {
                spare_node = spare_node.spawn_at(
                    SimTime::ZERO,
                    format!("bg-{}", job.comm),
                    SpawnSpec::new(format!("bg-{}", job.comm), USER3, job.program.clone())
                        .seed(job.seed + 17),
                );
            }
        }
    }
    cluster = cluster
        .machine(VICTIM_NODE, victim_node)
        .machine(SPARE_NODE, spare_node);
    if scenario == LabScenario::Fleet {
        let (_, idle) = nodes(seed + 7, script);
        cluster = cluster.machine(IDLE_NODE, idle);
    }
    cluster.build().expect("no scripted migrations to validate")
}

fn policy_for(policy: LabPolicy) -> Box<dyn SchedulerPolicy> {
    let delay = SimDuration::from_secs_f64(DELAY_S);
    let mode = MigrationMode::Resume;
    match policy {
        LabPolicy::Floor => Box::new(
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
        LabPolicy::Cusum => Box::new(
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
        LabPolicy::Population => Box::new(
            Balanced::new(
                Population::new(
                    VICTIM_NODE,
                    CANARY,
                    POP_WARMUP,
                    POP_SIGMAS,
                    POP_CONFIRM,
                    SPARE_NODE,
                )
                .skip(POP_SKIP)
                .source("tiptop")
                .mode(mode)
                .evicting(|row| row.comm == PAYLOAD),
            )
            .source("tiptop"),
        ),
    }
}

fn run_cell_raw(
    seed: u64,
    scale: f64,
    script: &TournamentScript,
    threads: usize,
    policy: LabPolicy,
    scenario: LabScenario,
) -> (Vec<ClusterFrame>, Vec<AppliedDecision>, ClusterSession) {
    let mut session = cluster_for(seed, scale, script, scenario);
    let mut policies = vec![policy_for(policy)];

    // The tournament's shared horizon: generous enough for the laziest
    // trigger plus the payload's remainder, even co-running with the
    // fleet scenario's background load.
    let horizon = script.arrival.as_secs_f64() + 2.1 * script.dwell.as_secs_f64();
    let refreshes = (horizon / DELAY_S).ceil() as usize;
    let delay = SimDuration::from_secs_f64(DELAY_S);
    let monitors = move |_m: MachineRef<'_>| -> Vec<Box<dyn Monitor + Send>> {
        vec![Box::new(Tiptop::new(
            TiptopOptions::default()
                .observer(tiptop_kernel::task::Uid::ROOT)
                .delay(delay),
            ScreenConfig::default_screen(),
        ))]
    };
    let mut sink = ClusterCollectSink::new();
    let decisions = session
        .run_reactive(threads, refreshes, monitors, &mut policies, &mut sink)
        .expect("policy lab cell run");
    (sink.into_frames(), decisions, session)
}

fn run_cell(
    seed: u64,
    scale: f64,
    script: &TournamentScript,
    threads: usize,
    policy: LabPolicy,
    scenario: LabScenario,
) -> LabCell {
    let (merged, decisions, session) = run_cell_raw(seed, scale, script, threads, policy, scenario);
    let d = decisions.first().expect("the detector fired");
    let trigger = d.decided_at.as_secs_f64();
    let applied = d.applied_at.as_secs_f64();
    let destination = d.to.clone();

    let dest_shard = session.session(&destination).expect("shard survived");
    let done = dest_shard
        .kernel()
        .exit_record(dest_shard.pid(PAYLOAD).expect("landed on the destination"))
        .expect("finished within the horizon");
    let payload_wall = done.end_time.as_secs_f64();

    let recovered = Series::new(
        format!("{PAYLOAD} IPC ({destination})"),
        cluster_series_for_comm(&merged, &destination, Some("tiptop"), PAYLOAD, "IPC"),
    );
    let recovered_ipc = recovered.mean_in(applied, payload_wall + DELAY_S);
    let canary = Series::new(
        format!("{CANARY} IPC"),
        cluster_series_for_comm(&merged, VICTIM_NODE, Some("tiptop"), CANARY, "IPC"),
    );
    let canary_recovery_ipc = canary.mean_in(applied + DELAY_S, applied + 5.0 * DELAY_S);

    LabCell {
        policy,
        scenario,
        trigger,
        applied,
        destination,
        payload_wall,
        recovered_ipc,
        canary_recovery_ipc,
        migrations: decisions.len(),
    }
}

impl PolicyLabResult {
    /// The cell for one (policy, scenario) pair.
    pub fn cell(&self, policy: LabPolicy, scenario: LabScenario) -> &LabCell {
        self.cells
            .iter()
            .find(|c| c.policy == policy && c.scenario == scenario)
            .expect("the full grid ran")
    }

    /// Policies of one scenario ranked by payload wall-clock, fastest
    /// first; ties keep [`LabPolicy::ALL`] order (stable sort).
    pub fn ranking(&self, scenario: LabScenario) -> Vec<LabPolicy> {
        let mut cells: Vec<&LabCell> = self
            .cells
            .iter()
            .filter(|c| c.scenario == scenario)
            .collect();
        cells.sort_by(|a, b| a.payload_wall.partial_cmp(&b.payload_wall).unwrap());
        cells.iter().map(|c| c.policy).collect()
    }

    /// The ranked outcome table: within each scenario, fastest payload
    /// wall-clock first.
    pub fn report(&self) -> String {
        let mut t = TableReport::new(
            format!(
                "policy lab ({} policies × {} scenarios, burst t={:.0}s; \
                 ranked by payload wall-clock within each scenario)",
                LabPolicy::ALL.len(),
                LabScenario::ALL.len(),
                self.arrival,
            ),
            &[
                "scenario",
                "rank",
                "policy",
                "trigger (s)",
                "applied (s)",
                "destination",
                "wall (s)",
                "IPC at dest",
                "canary IPC",
                "moves",
            ],
        );
        for scenario in LabScenario::ALL {
            for (rank, policy) in self.ranking(scenario).into_iter().enumerate() {
                let c = self.cell(policy, scenario);
                t.row(vec![
                    scenario.label().to_string(),
                    format!("{}", rank + 1),
                    policy.label().to_string(),
                    format!("{:.1}", c.trigger),
                    format!("{:.3}", c.applied),
                    c.destination.clone(),
                    format!("{:.2}", c.payload_wall),
                    format!("{:.2}", c.recovered_ipc),
                    format!("{:.2}", c.canary_recovery_ipc),
                    format!("{}", c.migrations),
                ]);
            }
        }
        t.render()
    }
}
