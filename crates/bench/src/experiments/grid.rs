//! **Grid** — the distributed-scenario headline, one step beyond Figure
//! 10: the same victim/aggressor cast on the bi-Xeon E5640, but the five
//! batch jobs are *endless* — left alone the burst never ends. Relief
//! comes from the grid scheduler instead: at `relief` every aggressor is
//! migrated ([`ClusterScenario::migrate_at`]) to a spare node, landing as
//! an exit on the victims' node and a spawn on the spare at the same
//! sim-time. The victims' IPC, depressed through shared-L3 contention the
//! whole dwell, recovers the moment the aggressors leave — while `top`
//! (watching the same node as a second monitor of the node's set in
//! [`ClusterSession::run`]) still shows every `%CPU` pegged at ~100
//! throughout.
//!
//! [`ClusterScenario::migrate_at`]: tiptop_core::cluster::ClusterScenario::migrate_at
//! [`ClusterSession::run`]: tiptop_core::cluster::ClusterSession::run

use tiptop_core::app::{Tiptop, TiptopOptions};
use tiptop_core::baseline::TopView;
use tiptop_core::cluster::{ClusterCollectSink, ClusterFrame, ClusterScenario, MachineRef, Until};
use tiptop_core::config::ScreenConfig;
use tiptop_core::monitor::Monitor;
use tiptop_core::scenario::Scenario;
use tiptop_core::session::cluster_series_for_comm;
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_machine::config::MachineConfig;
use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_workloads::datacenter::{grid_script, users, GridScript, Job};

use crate::experiments::default_threads;
use crate::report::{ascii_plot, Series, TableReport};

/// The contended node the victims live on.
pub const VICTIM_NODE: &str = "node-victim";
/// The idle node the scheduler migrates the aggressors to.
pub const SPARE_NODE: &str = "node-spare";

/// Tiptop/top refresh interval (simulated seconds). Shared with the
/// `reactive` experiment so its "within one refresh" comparison against
/// this scripted baseline is apples to apples.
pub(crate) const DELAY_S: f64 = 2.0;
/// Frames observed after the migration to watch the victims recover.
pub(crate) const RECOVERY_FRAMES: usize = 8;

/// The two-node cast shared by `grid` (scripted relief) and `reactive`
/// (policy-decided relief): the contended node carrying the victims and
/// the endless aggressors, the idle spare, and the aggressor tags.
pub(crate) fn nodes(seed: u64, script: &GridScript) -> (Scenario, Scenario, Vec<String>) {
    // The warm working sets are large; oversample the cache hierarchy so
    // the victims' tiers settle into the L3 well before the burst arrives
    // (same knob as fig10).
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
    let spawn = |mut sc: Scenario, job: Job| {
        let tag = job.comm.clone();
        sc = sc.spawn_at(
            SimTime::ZERO + job.start,
            tag,
            SpawnSpec::new(job.comm, job.uid, job.program).seed(job.seed),
        );
        sc
    };
    let mut victim_node = node(seed);
    for job in script.victims.iter().cloned() {
        victim_node = spawn(victim_node, job);
    }
    let aggressor_tags: Vec<String> = script.aggressors.iter().map(|j| j.comm.clone()).collect();
    for job in script.aggressors.iter().cloned() {
        victim_node = spawn(victim_node, job);
    }
    (victim_node, node(seed + 1), aggressor_tags)
}

/// The fleet observer set shared by `grid` and `reactive`: tiptop on every
/// node, plus a co-running `top` on the contended node — the §2.5 shape at
/// cluster scale.
pub(crate) fn fleet_monitors(
    delay: SimDuration,
) -> impl FnMut(MachineRef<'_>) -> Vec<(Box<dyn Monitor + Send>, Option<Until>)> {
    move |m: MachineRef<'_>| {
        let tip: Box<dyn Monitor + Send> = Box::new(Tiptop::new(
            TiptopOptions::default().observer(Uid::ROOT).delay(delay),
            ScreenConfig::default_screen(),
        ));
        if m.id == VICTIM_NODE {
            vec![(tip, None), (Box::new(TopView::new().delay(delay)), None)]
        } else {
            vec![(tip, None)]
        }
    }
}

/// One victim's view of the dwell and the relief.
pub struct VictimSeries {
    pub comm: String,
    /// IPC as tiptop on the victims' node sees it.
    pub ipc: Series,
    /// `%CPU` as the co-running `top` monitor sees it (nothing).
    pub cpu: Series,
}

/// Both victims' tiptop-IPC and top-%CPU series out of a merged fleet
/// stream; `ipc_label` names the IPC curve per victim (the `reactive`
/// experiment labels its curves distinctly for the side-by-side plot).
pub(crate) fn victim_views(
    merged: &[ClusterFrame],
    ipc_label: impl Fn(&str) -> String,
) -> Vec<VictimSeries> {
    ["sim-fluid", "sim-grid"]
        .into_iter()
        .map(|comm| VictimSeries {
            comm: comm.to_string(),
            ipc: Series::new(
                ipc_label(comm),
                cluster_series_for_comm(merged, VICTIM_NODE, Some("tiptop"), comm, "IPC"),
            ),
            cpu: Series::new(
                format!("{comm} %CPU (top)"),
                cluster_series_for_comm(merged, VICTIM_NODE, Some("top"), comm, "%CPU"),
            ),
        })
        .collect()
}

/// The victim series labelled `comm` (panics on unknown names).
pub(crate) fn victim_in<'a>(victims: &'a [VictimSeries], comm: &str) -> &'a VictimSeries {
    victims
        .iter()
        .find(|v| v.comm == comm)
        .expect("known victim")
}

/// Frames of one machine carrying a tiptop row for `comm` inside `(lo, hi]`
/// — shared by the `grid` and `reactive` results so their placement
/// assertions filter the stream identically.
pub(crate) fn frames_showing_in(
    merged: &[ClusterFrame],
    machine: &str,
    comm: &str,
    lo: f64,
    hi: f64,
) -> usize {
    merged
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

/// One migrated aggressor's handover instants (simulated seconds).
pub struct Handover {
    pub comm: String,
    /// Exit on the victims' node.
    pub exit_at: f64,
    /// Spawn on the spare node.
    pub start_at: f64,
}

pub struct GridResult {
    /// When the aggressors arrived on the victims' node.
    pub arrival: f64,
    /// When the scheduler migrated them to the spare node.
    pub relief: f64,
    /// Last observed instant.
    pub end: f64,
    /// The merged fleet stream, labelled `(machine, monitor)`.
    pub merged: Vec<ClusterFrame>,
    pub victims: Vec<VictimSeries>,
    pub handovers: Vec<Handover>,
    pub scale: f64,
}

/// Run the grid-relief scenario on the default worker pool.
pub fn run(seed: u64, scale: f64) -> GridResult {
    run_on(seed, scale, default_threads())
}

/// [`run`] with an explicit worker-thread count; the merged stream is
/// byte-identical at any count.
pub fn run_on(seed: u64, scale: f64, threads: usize) -> GridResult {
    let script = grid_script(scale);
    let arrival = script.arrival.as_secs_f64();
    let relief = script.relief.as_secs_f64();
    let (victim_node, spare_node, aggressor_tags) = nodes(seed, &script);

    let mut cluster = ClusterScenario::new()
        .machine(VICTIM_NODE, victim_node)
        .machine(SPARE_NODE, spare_node);
    for tag in &aggressor_tags {
        cluster = cluster.migrate_at(
            SimTime::ZERO + script.relief,
            tag.clone(),
            VICTIM_NODE,
            SPARE_NODE,
        );
    }
    let mut session = cluster.build().expect("migrations validated at build");

    // A monitor set per machine: tiptop everywhere, plus a second observer
    // (`top`) on the contended node — the §2.5 shape at cluster scale.
    let refreshes = ((relief + RECOVERY_FRAMES as f64 * DELAY_S) / DELAY_S).ceil() as usize;
    let delay = SimDuration::from_secs_f64(DELAY_S);
    let mut sink = ClusterCollectSink::new();
    session
        .run(
            threads,
            refreshes,
            fleet_monitors(delay),
            &mut [],
            &mut sink,
        )
        .expect("grid run");
    let merged = sink.into_frames();

    let victims = victim_views(&merged, |comm| format!("{comm} IPC"));

    let victim_shard = session.session(VICTIM_NODE).expect("shard survived");
    let spare_shard = session.session(SPARE_NODE).expect("shard survived");
    let handovers = aggressor_tags
        .iter()
        .map(|tag| {
            let exited = victim_shard
                .kernel()
                .exit_record(victim_shard.pid(tag).expect("spawned on the victim node"))
                .expect("killed by the migration");
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
    GridResult {
        arrival,
        relief,
        end,
        merged,
        victims,
        handovers,
        scale,
    }
}

impl GridResult {
    pub fn victim(&self, comm: &str) -> &VictimSeries {
        victim_in(&self.victims, comm)
    }

    /// The three measurement windows, each placed where its phase is fully
    /// developed (the victims' working sets take a few refreshes to warm
    /// into the L3, the aggressors' a few more to start thrashing it, and
    /// the recovery ramps as the tiers re-warm): the last stretch before
    /// the aggressors arrive, the last stretch of the dwell, and the last
    /// stretch after the migration.
    pub fn windows(&self) -> [(f64, f64); 3] {
        [
            (self.arrival - 6.0, self.arrival + 1.0),
            (self.relief - 8.0, self.relief + 1.0),
            (self.end - 6.0, self.end + 1.0),
        ]
    }

    /// Frames of one machine carrying a row for `comm` inside `(lo, hi]`.
    pub fn frames_showing(&self, machine: &str, comm: &str, lo: f64, hi: f64) -> usize {
        frames_showing_in(&self.merged, machine, comm, lo, hi)
    }

    pub fn report(&self) -> String {
        let curves: Vec<Series> = self.victims.iter().map(|v| v.ipc.clone()).collect();
        let mut out = ascii_plot(
            &format!(
                "Grid: victim IPC (aggressors arrive t={:.0}s, migrated away t={:.0}s)",
                self.arrival, self.relief
            ),
            &curves,
            72,
            12,
        );
        let [before, during, after] = self.windows();
        let mut t = TableReport::new(
            "victim means per phase (dwell ends by migration, not completion)",
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
        let mut h = TableReport::new(
            "aggressor handovers (exit on victim node == spawn on spare)",
            &["job", "exit (s)", "spawn (s)"],
        );
        for ho in &self.handovers {
            h.row(vec![
                ho.comm.clone(),
                format!("{:.1}", ho.exit_at),
                format!("{:.1}", ho.start_at),
            ]);
        }
        out.push_str(&h.render());
        out
    }
}
