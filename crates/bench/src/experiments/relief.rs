//! **Relief** — beyond the paper: the Figure 10 burst on the bi-Xeon
//! E5640's shared L3, relieved by moving work off the contended node, as
//! one table of cells keyed by `(scenario, trigger, mode)`:
//!
//! * **scenario** — `grid`: user1's two victims next to user2's five
//!   *endless* aggressors, so only a migration ends the dwell, with `top`
//!   co-running beside tiptop on the contended node; `burst/cfs`: a finite
//!   burst next to user1's endless canary (`sim-fluid`) and finite batch
//!   payload (`sim-batch`); `burst/rr`: the same burst with every kernel
//!   on the round-robin epoch planner ([`ClusterScenario::scheduler`]);
//!   `fleet`: the burst with the designated spare busy with background
//!   load while a third node idles.
//! * **trigger** — `scripted` ([`ClusterScenario::migrate_at`] at the
//!   script's relief instant) or a [`SchedulerPolicy`] watching the canary
//!   in the merged stream: the [`IpcFloor`] threshold, the [`Cusum`]
//!   change-point statistic (both relieving onto the fixed spare), or the
//!   [`Population`] change-point detector with [`LeastLoaded`] placement
//!   ([`Balanced`]), which picks the destination from live fleet load.
//! * **mode** — [`MigrationMode`] restart (from instruction zero) or
//!   resume (from a checkpoint).
//!
//! [`CELLS`] lists the 13 cells that exist and [`run`] simulates each once;
//! [`run_on`] with fewer pool threads per cell runs cells side by side.
//! Read together they show four things. The grid's victims lose IPC
//! through the dwell and recover at the migration while `top` shows every
//! `%CPU` pegged (`grid/scripted`). A floor policy deciding from the stream
//! fires within one refresh of the scripted instant (`grid/ipc-floor`).
//! Resume completes the payload in strictly less wall-clock than restart
//! under both detectors (`burst/cfs`, [`Relief::saving`]). Least-loaded
//! placement wins the `fleet` scenario outright ([`Relief::ranking`]).
//! Every cell's stream is byte-identical at any worker-thread count.
//!
//! [`ClusterScenario::scheduler`]: tiptop_core::cluster::ClusterScenario::scheduler
//! [`ClusterScenario::migrate_at`]: tiptop_core::cluster::ClusterScenario::migrate_at
//! [`SchedulerPolicy`]: tiptop_core::reactive::SchedulerPolicy
//! [`IpcFloor`]: tiptop_core::reactive::IpcFloor
//! [`Cusum`]: tiptop_core::reactive::Cusum
//! [`Population`]: tiptop_core::reactive::Population
//! [`LeastLoaded`]: tiptop_core::reactive::LeastLoaded
//! [`Balanced`]: tiptop_core::reactive::Balanced
//! [`MigrationMode`]: tiptop_core::reactive::MigrationMode

use std::sync::atomic::{AtomicUsize, Ordering};

use tiptop_core::app::{Tiptop, TiptopOptions};
use tiptop_core::cluster::{
    ClusterCollectSink, ClusterFrame, ClusterScenario, ClusterSession, MachineRef, Until,
};
use tiptop_core::config::ScreenConfig;
use tiptop_core::monitor::Monitor;
use tiptop_core::reactive::{
    AppliedDecision, Balanced, Cusum, IpcFloor, MigrationMode, Population, SchedulerPolicy,
};
use tiptop_core::render::Row;
use tiptop_core::scenario::Scenario as Node;
use tiptop_core::session::cluster_series_for_comm;
use tiptop_kernel::sched::SchedulerSelect;
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_machine::config::MachineConfig;
use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_workloads::datacenter::{grid_script, tournament_script, users, Job, USER3};

use crate::experiments::default_threads;
use crate::report::{ascii_plot, Series, TableReport};

use MigrationMode::{Restart, Resume};

/// The contended node the burst lands on.
pub const VICTIM_NODE: &str = "node-victim";
/// The designated relief machine every fixed-placement trigger moves to.
pub const SPARE_NODE: &str = "node-spare";
/// The third machine of the `fleet` scenario: idle, and not any
/// detector's designated relief — only live-load placement finds it.
pub const IDLE_NODE: &str = "node-idle";

/// Tiptop/top refresh interval (simulated seconds).
pub const DELAY_S: f64 = 2.0;

/// The job the detectors watch (the grid's first victim, the bursts'
/// canary) and the burst scenarios' relocated batch payload.
pub const CANARY: &str = "sim-fluid";
pub const PAYLOAD: &str = "sim-batch";

/// The floor guarded on the canary. Its warmed IPC on the contended node
/// sits near 1.26 and the dwell depresses it towards 1.0 through shared-L3
/// thrash; the floor sits between, so the cold-start ramp arms the policy
/// and only the burst breaches it.
pub const IPC_FLOOR: f64 = 1.15;

/// Frames the grid observes after its scripted relief, to watch the
/// victims recover.
const RECOVERY_FRAMES: usize = 8;
/// Refreshes between the grid's arrival and the dip first crossing the
/// floor: the aggressors' working sets need a couple of refreshes to warm
/// into (and start thrashing) the shared L3, plus one refresh for the
/// monitor to show it.
const CROSSING_LAG_REFRESHES: u64 = 3;
/// Refreshes of sustained breach before the floor fires in the burst
/// scenarios: short, because they measure relocation, not patience.
const FLOOR_PATIENCE_REFRESHES: u64 = 2;

/// CUSUM calibration: the canary's first four samples are cold-start ramp
/// (its warm tier takes ~8 s to settle into the L3) and are skipped, the
/// next three calibrate the healthy plateau (~1.22), and the dwell's
/// ~0.15-per-sample deviation beyond the drift allowance crosses the
/// threshold within a few refreshes while refresh-to-refresh noise never
/// accumulates. The threshold sits a notch above the floor's effective
/// patience, so the two detectors fire one refresh apart.
const CUSUM_SKIP: usize = 4;
const CUSUM_WARMUP: usize = 3;
const CUSUM_DRIFT: f64 = 0.05;
const CUSUM_THRESHOLD: f64 = 0.45;

/// Population calibration: skip the same cold-start ramp, build the
/// reference population from the next four plateau samples, and declare a
/// change-point after two consecutive samples below `μ − 4σ`. With the
/// dwell ~0.2 IPC under the plateau the band is generous against refresh
/// noise, yet the second dwell sample confirms, one refresh ahead of the
/// CUSUM.
const POP_SKIP: usize = CUSUM_SKIP;
const POP_WARMUP: usize = 4;
const POP_SIGMAS: f64 = 4.0;
const POP_CONFIRM: usize = 2;

/// Endless background jobs parked on the designated spare in the `fleet`
/// scenario, so fixed placement relieves onto a busy machine.
const FLEET_BACKGROUND_JOBS: usize = 4;

/// Where the burst runs: the cast, its observers and its horizon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Endless aggressors next to two victims, `top` beside tiptop.
    Grid,
    /// Finite burst, canary and payload on default CFS-like kernels.
    BurstCfs,
    /// The identical burst with every kernel on the round-robin planner.
    BurstRr,
    /// Three nodes; the designated spare carries background load.
    Fleet,
}

impl Scenario {
    /// The scenarios that relocate the payload.
    pub const BURSTS: [Scenario; 3] = [Scenario::BurstCfs, Scenario::BurstRr, Scenario::Fleet];

    pub fn label(self) -> &'static str {
        match self {
            Scenario::Grid => "grid",
            Scenario::BurstCfs => "burst/cfs",
            Scenario::BurstRr => "burst/rr",
            Scenario::Fleet => "fleet",
        }
    }
}

/// What relieves the contended node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// `migrate_at` every aggressor at the script's relief instant.
    Scripted,
    /// [`IpcFloor`] → fixed spare.
    IpcFloor,
    /// [`Cusum`] → fixed spare.
    Cusum,
    /// [`Population`] →
    /// [`LeastLoaded`](tiptop_core::reactive::LeastLoaded) destination.
    Population,
}

impl Trigger {
    /// The policies ranked per burst scenario, in tie-breaking order.
    pub const POLICIES: [Trigger; 3] = [Trigger::IpcFloor, Trigger::Cusum, Trigger::Population];

    /// The label a policy's decisions carry.
    pub fn label(self) -> &'static str {
        match self {
            Trigger::Scripted => "scripted",
            Trigger::IpcFloor => "ipc-floor",
            Trigger::Cusum => "cusum",
            Trigger::Population => "population+least-loaded",
        }
    }
}

/// A cell of the table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Key {
    pub scenario: Scenario,
    pub trigger: Trigger,
    pub mode: MigrationMode,
}

const fn key(scenario: Scenario, trigger: Trigger, mode: MigrationMode) -> Key {
    Key {
        scenario,
        trigger,
        mode,
    }
}

/// The cells that exist, each simulated once by [`run`]: the grid
/// relieved by script and by the floor (restart), both detectors under
/// restart on `burst/cfs`, and every policy under resume on each burst
/// scenario.
pub const CELLS: [Key; 13] = [
    key(Scenario::Grid, Trigger::Scripted, Restart),
    key(Scenario::Grid, Trigger::IpcFloor, Restart),
    key(Scenario::BurstCfs, Trigger::IpcFloor, Restart),
    key(Scenario::BurstCfs, Trigger::Cusum, Restart),
    key(Scenario::BurstCfs, Trigger::IpcFloor, Resume),
    key(Scenario::BurstCfs, Trigger::Cusum, Resume),
    key(Scenario::BurstCfs, Trigger::Population, Resume),
    key(Scenario::BurstRr, Trigger::IpcFloor, Resume),
    key(Scenario::BurstRr, Trigger::Cusum, Resume),
    key(Scenario::BurstRr, Trigger::Population, Resume),
    key(Scenario::Fleet, Trigger::IpcFloor, Resume),
    key(Scenario::Fleet, Trigger::Cusum, Resume),
    key(Scenario::Fleet, Trigger::Population, Resume),
];

/// What a scenario fixes for every cell run on it.
struct Plan {
    cluster: ClusterScenario,
    arrival: SimTime,
    /// The scripted relief: when, and which jobs move to the spare.
    scripted: Option<(SimTime, Vec<String>)>,
    /// The rows a policy evicts: user2's aggressors, or the payload.
    evict: fn(&Row) -> bool,
    /// How long the floor tolerates a sustained breach.
    patience: SimDuration,
    refreshes: usize,
    /// Whether `top` co-runs with tiptop on the contended node.
    top: bool,
}

/// One datacenter node carrying `jobs`. The warm working sets are large,
/// so the cache hierarchy is oversampled for the tiers to settle into the
/// L3 well before the burst arrives (same knob as fig10).
fn node<'a>(seed: u64, jobs: impl IntoIterator<Item = &'a Job>) -> Node {
    let machine = MachineConfig::datacenter_e5640()
        .noiseless()
        .with_samples(4096);
    let mut sc = Node::new(machine).seed(seed);
    for (uid, name) in users() {
        sc = sc.user(uid, name);
    }
    for job in jobs {
        sc = sc.spawn_at(
            SimTime::ZERO + job.start,
            job.comm.clone(),
            SpawnSpec::new(job.comm.clone(), job.uid, job.program.clone()).seed(job.seed),
        );
    }
    sc
}

impl Scenario {
    fn plan(self, seed: u64, scale: f64) -> Plan {
        let delay = SimDuration::from_secs_f64(DELAY_S);
        let refreshes = |until: f64| (until / DELAY_S).ceil() as usize;
        if self == Scenario::Grid {
            let s = grid_script(scale);
            let until = s.relief.as_secs_f64() + RECOVERY_FRAMES as f64 * DELAY_S;
            return Plan {
                cluster: ClusterScenario::new()
                    .machine(
                        VICTIM_NODE,
                        node(seed, s.victims.iter().chain(&s.aggressors)),
                    )
                    .machine(SPARE_NODE, node(seed + 1, [])),
                arrival: SimTime::ZERO + s.arrival,
                scripted: Some((
                    SimTime::ZERO + s.relief,
                    s.aggressors.iter().map(|j| j.comm.clone()).collect(),
                )),
                evict: |row| row.user == "user2",
                // The dip crosses the floor about CROSSING_LAG_REFRESHES
                // after the arrival, and the policy tolerates a sustained
                // breach for the rest of the scripted dwell, so the script
                // and the policy should act at (nearly) the same instant.
                patience: (s.relief - s.arrival).saturating_sub(delay * CROSSING_LAG_REFRESHES),
                refreshes: refreshes(until),
                top: true,
            };
        }
        let s = tournament_script(scale);
        let mut cluster = ClusterScenario::new();
        let mut spare = node(seed + 1, []);
        match self {
            Scenario::BurstRr => cluster = cluster.scheduler(SchedulerSelect::round_robin()),
            Scenario::Fleet => {
                // The grid script's endless aggressors, re-timed to t=0: a
                // standing ~400% load on the designated spare.
                for job in grid_script(scale)
                    .aggressors
                    .into_iter()
                    .take(FLEET_BACKGROUND_JOBS)
                {
                    let tag = format!("bg-{}", job.comm);
                    spare = spare.spawn_at(
                        SimTime::ZERO,
                        tag.clone(),
                        SpawnSpec::new(tag, USER3, job.program).seed(job.seed + 17),
                    );
                }
            }
            _ => {}
        }
        let victims = [&s.canary, &s.payload].into_iter().chain(&s.aggressors);
        cluster = cluster
            .machine(VICTIM_NODE, node(seed, victims))
            .machine(SPARE_NODE, spare);
        if self == Scenario::Fleet {
            cluster = cluster.machine(IDLE_NODE, node(seed + 8, []));
        }
        Plan {
            cluster,
            arrival: SimTime::ZERO + s.arrival,
            scripted: None,
            evict: |row| row.comm == PAYLOAD,
            patience: delay * FLOOR_PATIENCE_REFRESHES,
            // Generous enough for the laziest trigger plus the payload's
            // whole budget redone from zero, even next to the fleet
            // scenario's background load.
            refreshes: refreshes(s.arrival.as_secs_f64() + 2.1 * s.dwell.as_secs_f64()),
            top: false,
        }
    }
}

/// The cell's policy, evicting the scenario's rows onto the spare in the
/// cell's mode; `None` for a scripted relief.
fn policy(key: Key, plan: &Plan) -> Option<Box<dyn SchedulerPolicy>> {
    let mode = key.mode;
    Some(match key.trigger {
        Trigger::Scripted => return None,
        Trigger::IpcFloor => Box::new(
            IpcFloor::new(VICTIM_NODE, CANARY, IPC_FLOOR, plan.patience, SPARE_NODE)
                .source("tiptop")
                .mode(mode)
                .evicting(plan.evict),
        ),
        Trigger::Cusum => Box::new(
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
            .evicting(plan.evict),
        ),
        Trigger::Population => Box::new(
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
                .evicting(plan.evict),
            )
            .source("tiptop"),
        ),
    })
}

/// Tiptop on every node, plus a co-running `top` on the contended node
/// when `top` is set — the §2.5 shape at cluster scale.
fn monitors(
    top: bool,
) -> impl FnMut(MachineRef<'_>) -> Vec<(Box<dyn Monitor + Send>, Option<Until>)> {
    let delay = SimDuration::from_secs_f64(DELAY_S);
    let tool = move |screen| -> Box<dyn Monitor + Send> {
        Box::new(Tiptop::new(
            TiptopOptions::default().observer(Uid::ROOT).delay(delay),
            screen,
        ))
    };
    move |m: MachineRef<'_>| {
        let tip = tool(ScreenConfig::default_screen());
        if top && m.id == VICTIM_NODE {
            vec![(tip, None), (tool(ScreenConfig::top_screen()), None)]
        } else {
            vec![(tip, None)]
        }
    }
}

/// One moved job's hop off the contended node, read off the shards.
pub struct Handover {
    pub comm: String,
    /// The machine it landed on.
    pub to: String,
    /// Exit on the contended node, and the instructions retired there.
    pub exit_at: f64,
    pub cut_insns: u64,
    /// Start of the incarnation on the destination.
    pub start_at: f64,
    /// The destination incarnation's exit instant and retired total, if
    /// it finished within the horizon.
    pub done: Option<(f64, u64)>,
}

fn handover(session: &ClusterSession, comm: String, to: String) -> Handover {
    let shard = |id: &str| session.session(id).expect("shard survived");
    let (src, dst) = (shard(VICTIM_NODE), shard(&to));
    let cut = src
        .kernel()
        .exit_record(src.pid(&comm).expect("spawned on the contended node"))
        .expect("killed by the migration");
    let pid = dst.pid(&comm).expect("landed on the destination");
    let done = dst.kernel().exit_record(pid);
    let start = done
        .map(|r| r.start_time)
        .or_else(|| dst.kernel().stat(pid).map(|s| s.start_time))
        .expect("the incarnation ran");
    Handover {
        exit_at: cut.end_time.as_secs_f64(),
        cut_insns: cut.total_instructions,
        start_at: start.as_secs_f64(),
        done: done.map(|r| (r.end_time.as_secs_f64(), r.total_instructions)),
        comm,
        to,
    }
}

/// One victim's view of the dwell and the relief.
pub struct VictimSeries {
    pub comm: String,
    /// IPC as tiptop on the contended node sees it.
    pub ipc: Series,
    /// `%CPU` as the co-running `top` sees it (nothing).
    pub cpu: Series,
}

/// One simulated cell: its stream, its decisions and its handovers.
pub struct Cell {
    pub key: Key,
    /// When the burst arrived on the contended node.
    pub arrival: f64,
    /// The deciding frame's sim-time (the script's instant if scripted).
    pub trigger: f64,
    /// The epoch boundary the relocation landed at (likewise).
    pub applied: f64,
    /// Last observed instant.
    pub end: f64,
    /// The merged fleet stream, labelled `(machine, monitor)`.
    pub merged: Vec<ClusterFrame>,
    /// Every decision the cell's policy fired, in application order.
    pub decisions: Vec<AppliedDecision>,
    /// One per moved job.
    pub handovers: Vec<Handover>,
}

/// Simulate one cell; its stream is byte-identical at any `threads`.
pub fn run_cell(seed: u64, scale: f64, threads: usize, key: Key) -> Cell {
    let plan = key.scenario.plan(seed, scale);
    let mut policies: Vec<_> = policy(key, &plan).into_iter().collect();
    let scripted = plan.scripted.filter(|_| key.trigger == Trigger::Scripted);
    let mut cluster = plan.cluster;
    if let Some((at, tags)) = &scripted {
        for tag in tags {
            cluster = cluster.migrate_at_mode(*at, tag.clone(), VICTIM_NODE, SPARE_NODE, key.mode);
        }
    }
    let mut session = cluster.build().expect("migrations validated at build");
    let mut sink = ClusterCollectSink::new();
    let decisions = session
        .run(
            threads,
            plan.refreshes,
            monitors(plan.top),
            &mut policies,
            &mut sink,
        )
        .expect("relief cell run");
    let merged = sink.into_frames();

    let (trigger, applied, moves) = match (scripted, decisions.first()) {
        (Some((at, tags)), _) => {
            let moves = tags.into_iter().map(|t| (t, SPARE_NODE.to_string()));
            (at, at, moves.collect())
        }
        (None, Some(d)) => {
            let moves = decisions.iter().map(|d| (d.tag.clone(), d.to.clone()));
            (d.decided_at, d.applied_at, moves.collect::<Vec<_>>())
        }
        (None, None) => panic!("{key:?}: the policy never fired"),
    };
    let handovers = moves
        .into_iter()
        .map(|(comm, to)| handover(&session, comm, to))
        .collect();
    Cell {
        key,
        arrival: plan.arrival.as_secs_f64(),
        trigger: trigger.as_secs_f64(),
        applied: applied.as_secs_f64(),
        end: merged.last().map_or(0.0, |cf| cf.frame.time.as_secs_f64()),
        merged,
        decisions,
        handovers,
    }
}

impl Cell {
    /// Frames and decisions as one byte string: the determinism artifact.
    pub fn rendered_stream(&self) -> String {
        let mut out: String = self
            .merged
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
        for d in &self.decisions {
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

    /// `comm`'s `column` as the `source` monitor on `machine` saw it.
    pub fn series(&self, machine: &str, source: &str, comm: &str, column: &str) -> Series {
        Series::new(
            format!("{comm} {column}"),
            cluster_series_for_comm(&self.merged, machine, Some(source), comm, column),
        )
    }

    /// The grid's two victims: tiptop's IPC and the co-running top's %CPU.
    pub fn victims(&self) -> Vec<VictimSeries> {
        ["sim-fluid", "sim-grid"]
            .into_iter()
            .map(|comm| VictimSeries {
                comm: comm.to_string(),
                ipc: self.series(VICTIM_NODE, "tiptop", comm, "IPC"),
                cpu: self.series(VICTIM_NODE, "top", comm, "%CPU"),
            })
            .collect()
    }

    /// The three measurement windows, each placed where its phase is fully
    /// developed (the victims' working sets take a few refreshes to warm
    /// into the L3, the aggressors' a few more to start thrashing it, and
    /// the recovery ramps as the tiers re-warm): the last stretch before
    /// the burst arrives, the last stretch of the dwell that the trigger
    /// ends, and the last stretch of the run.
    pub fn windows(&self) -> [(f64, f64); 3] {
        [
            (self.arrival - 6.0, self.arrival + 1.0),
            (self.trigger - 8.0, self.trigger + 1.0),
            (self.end - 6.0, self.end + 1.0),
        ]
    }

    /// Tiptop frames of `machine` carrying a row for `comm` inside
    /// `(lo, hi]`.
    pub fn frames_showing(&self, machine: &str, comm: &str, lo: f64, hi: f64) -> usize {
        self.merged
            .iter()
            .filter(|cf| {
                let t = cf.frame.time.as_secs_f64();
                cf.machine == machine
                    && cf.source == "tiptop"
                    && t > lo
                    && t <= hi
                    && cf.frame.row_for_comm(comm).is_some()
            })
            .count()
    }

    /// The relocated payload's hop (burst scenarios).
    pub fn payload(&self) -> &Handover {
        self.handovers
            .iter()
            .find(|h| h.comm == PAYLOAD)
            .expect("the payload was relocated")
    }

    /// The payload's completion wall-clock, from its t=0 submit to the
    /// final incarnation's exit: the ranking metric.
    pub fn payload_wall(&self) -> f64 {
        self.payload().done.expect("finished within the horizon").0
    }

    /// The final incarnation's retired total: the whole job, in every cell.
    pub fn payload_total_insns(&self) -> u64 {
        self.payload().done.expect("finished within the horizon").1
    }

    /// Instructions retired on the contended node and then *redone*:
    /// restart's price, zero under resume.
    pub fn wasted_insns(&self) -> u64 {
        match self.key.mode {
            Restart => self.payload().cut_insns,
            Resume => 0,
        }
    }

    /// The payload's mean IPC on its destination after the relocation.
    pub fn recovered_ipc(&self) -> f64 {
        self.series(&self.payload().to, "tiptop", PAYLOAD, "IPC")
            .mean_in(self.applied, self.payload_wall() + DELAY_S)
    }

    /// The canary's mean IPC over the dwell stretch before the trigger.
    pub fn canary_dwell_ipc(&self) -> f64 {
        self.series(VICTIM_NODE, "tiptop", CANARY, "IPC")
            .mean_in(self.trigger - 3.0 * DELAY_S, self.trigger + 1e-9)
    }

    /// The canary's mean IPC on the contended node after the relocation.
    pub fn canary_recovery_ipc(&self) -> f64 {
        self.series(VICTIM_NODE, "tiptop", CANARY, "IPC")
            .mean_in(self.applied + DELAY_S, self.applied + 5.0 * DELAY_S)
    }
}

pub struct Relief {
    /// Every cell of [`CELLS`], in table order.
    pub cells: Vec<Cell>,
    /// The burst scenarios' dwell, and the payload's full instruction
    /// budget for conservation checks.
    pub dwell: f64,
    pub payload_insns: u64,
}

/// Simulate every cell of [`CELLS`] once on the default worker pool.
pub fn run(seed: u64, scale: f64) -> Relief {
    run_on(seed, scale, default_threads())
}

/// [`run`] with an explicit worker-thread count per cell; every cell's
/// stream is byte-identical at any count.
///
/// The cells are independent simulations, so they run concurrently on
/// `available_parallelism / threads` host threads (at least one, never
/// more than there are cells), each taking the next unrun cell; the busy
/// threads stay about one per CPU. They come back in table order.
pub fn run_on(seed: u64, scale: f64, threads: usize) -> Relief {
    let script = tournament_script(scale);
    let next = AtomicUsize::new(0);
    let hosts = (default_threads() / threads.max(1)).clamp(1, CELLS.len());
    let mut cells: Vec<(usize, Cell)> = std::thread::scope(|s| {
        let hosts: Vec<_> = (0..hosts)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&key) = CELLS.get(i) else {
                            return done;
                        };
                        done.push((i, run_cell(seed, scale, threads, key)));
                    }
                })
            })
            .collect();
        hosts
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    cells.sort_unstable_by_key(|(i, _)| *i);
    Relief {
        cells: cells.into_iter().map(|(_, cell)| cell).collect(),
        dwell: script.dwell.as_secs_f64(),
        payload_insns: script.payload_insns,
    }
}

impl Relief {
    pub fn cell(&self, scenario: Scenario, trigger: Trigger, mode: MigrationMode) -> &Cell {
        let key = key(scenario, trigger, mode);
        self.cells
            .iter()
            .find(|c| c.key == key)
            .unwrap_or_else(|| panic!("{key:?} is not a cell of CELLS"))
    }

    /// Resume's payload wall-clock saving over restart under one detector
    /// on `burst/cfs` (seconds; positive when resume wins).
    pub fn saving(&self, trigger: Trigger) -> f64 {
        self.cell(Scenario::BurstCfs, trigger, Restart)
            .payload_wall()
            - self
                .cell(Scenario::BurstCfs, trigger, Resume)
                .payload_wall()
    }

    /// The policies of one burst scenario's resume cells ranked by payload
    /// wall-clock, fastest first; ties keep [`Trigger::POLICIES`] order.
    pub fn ranking(&self, scenario: Scenario) -> Vec<Trigger> {
        let wall = |t: &Trigger| self.cell(scenario, *t, Resume).payload_wall();
        let mut ranked = Trigger::POLICIES.to_vec();
        ranked.sort_by(|a, b| wall(a).total_cmp(&wall(b)));
        ranked
    }

    pub fn report(&self) -> String {
        // The headline: the same victim under the scripted and the
        // stream-decided relief.
        let scripted = self.cell(Scenario::Grid, Trigger::Scripted, Restart);
        let reactive = self.cell(Scenario::Grid, Trigger::IpcFloor, Restart);
        let curve = |c: &Cell| {
            let mut s = c.series(VICTIM_NODE, "tiptop", CANARY, "IPC");
            s.label = format!("{CANARY} IPC ({})", c.key.trigger.label());
            s
        };
        let mut out = ascii_plot(
            &format!(
                "Relief: victim IPC (aggressors arrive t={:.0}s, migrated away t={:.0}s by \
                 script; policy fired t={:.0}s, floor {IPC_FLOOR:.2}, applied {:.2}s)",
                scripted.arrival, scripted.trigger, reactive.trigger, reactive.applied,
            ),
            &[curve(scripted), curve(reactive)],
            72,
            12,
        );
        let mut t = TableReport::new(
            "grid victim means per phase (the dwell ends at the relief, not completion)",
            &[
                "relief",
                "job",
                "IPC before",
                "IPC dwell",
                "IPC after",
                "%CPU dwell (top)",
            ],
        );
        for c in [scripted, reactive] {
            let [before, during, after] = c.windows();
            for v in c.victims() {
                t.row(vec![
                    c.key.trigger.label().to_string(),
                    v.comm,
                    format!("{:.2}", v.ipc.mean_in(before.0, before.1)),
                    format!("{:.2}", v.ipc.mean_in(during.0, during.1)),
                    format!("{:.2}", v.ipc.mean_in(after.0, after.1)),
                    format!("{:.1}", v.cpu.mean_in(during.0, during.1)),
                ]);
            }
        }
        out.push_str(&t.render());
        let mut t = TableReport::new(
            format!(
                "relief cells (payload {:.1} Ginsns; wall-clock = payload completion)",
                self.payload_insns as f64 / 1e9,
            ),
            &[
                "scenario",
                "trigger",
                "mode",
                "trigger (s)",
                "applied (s)",
                "destination",
                "moves",
                "wall (s)",
                "wasted (Ginsns)",
                "IPC at dest",
                "canary IPC",
            ],
        );
        for c in &self.cells {
            let mut row = vec![
                c.key.scenario.label().to_string(),
                c.key.trigger.label().to_string(),
                c.key.mode.label().to_string(),
                format!("{:.1}", c.trigger),
                format!("{:.3}", c.applied),
                c.handovers[0].to.clone(),
                format!("{}", c.handovers.len()),
            ];
            if c.key.scenario == Scenario::Grid {
                row.extend(["-"; 4].map(String::from));
            } else {
                row.extend([
                    format!("{:.2}", c.payload_wall()),
                    format!("{:.2}", c.wasted_insns() as f64 / 1e9),
                    format!("{:.2}", c.recovered_ipc()),
                    format!("{:.2}", c.canary_recovery_ipc()),
                ]);
            }
            t.row(row);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "resume saves {:.2}s under ipc-floor, {:.2}s under cusum\n",
            self.saving(Trigger::IpcFloor),
            self.saving(Trigger::Cusum),
        ));
        out.push_str(&format!(
            "policy lab ({} policies × {} scenarios, resume cells ranked by payload wall-clock)\n",
            Trigger::POLICIES.len(),
            Scenario::BURSTS.len(),
        ));
        for scenario in Scenario::BURSTS {
            let ranked: Vec<_> = self.ranking(scenario).iter().map(|t| t.label()).collect();
            out.push_str(&format!(
                "  {:<10} {}\n",
                scenario.label(),
                ranked.join(" < ")
            ));
        }
        out
    }
}
