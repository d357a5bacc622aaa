//! The three workloads, each one closed-loop batch simulation: build a
//! cluster from the seed (timed as set-up), drive it to a fixed simulated
//! horizon through one `ClusterSession::run_*` call (timed as the run),
//! then check the outputs.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tiptop_core::app::{Tiptop, TiptopOptions};
use tiptop_core::cluster::{ClusterScenario, ClusterSession, ClusterWindowSink, MachineRef};
use tiptop_core::config::ScreenConfig;
use tiptop_core::monitor::Monitor;
use tiptop_core::reactive::{
    AppliedDecision, Balanced, MigrationMode, Population, SchedulerPolicy,
};
use tiptop_core::render::Frame;
use tiptop_core::scenario::Scenario;
use tiptop_kernel::program::Program;
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_machine::config::MachineConfig;
use tiptop_machine::exec::ExecProfile;
use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_workloads::datacenter::{grid_script, tournament_script, users, Job, USER3};
use tiptop_workloads::pipelines::{random_dag, PipelineScript, PIPELINE_USER};

use crate::clock::{process_cpu_s, thread_cpu_s};
use crate::digest::{Digest, DigestSink};
use crate::trace::{self, Acc, BenchSink, MonitorTotals, Recorder, TracedMonitor, TracedPolicy};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig 10 burst relieved live by `run_reactive`: cache simulation.
    BurstReactive,
    /// 1000 light machines through `run_each` lanes: the frame path.
    FleetFrames,
    /// A random pipeline DAG through the lockstep round barrier.
    DagLockstep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BurstReactive,
        Workload::FleetFrames,
        Workload::DagLockstep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BurstReactive => "burst_reactive",
            Workload::FleetFrames => "fleet_frames",
            Workload::DagLockstep => "dag_lockstep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sizes. [`Sizes::FULL`] is what the benchmark measures; the
/// self-test runs [`Sizes::SMALL`].
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub fleet_machines: usize,
    pub fleet_refreshes: usize,
    pub dag_stages: usize,
    pub dag_machines: usize,
    pub dag_refreshes: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        fleet_machines: 1000,
        fleet_refreshes: 200,
        dag_stages: 4000,
        dag_machines: 64,
        dag_refreshes: 1000,
    };

    pub const SMALL: Sizes = Sizes {
        fleet_machines: 40,
        fleet_refreshes: 25,
        dag_stages: 120,
        dag_machines: 8,
        dag_refreshes: 250,
    };
}

/// Worker threads for a cluster of `machines`: one per available core,
/// never more than there are machines.
pub fn default_threads(machines: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(machines).max(1)
}

/// Machines each workload declares (sets the thread count).
pub fn machines(w: Workload, sizes: &Sizes) -> usize {
    match w {
        Workload::BurstReactive => 3,
        Workload::FleetFrames => sizes.fleet_machines,
        Workload::DagLockstep => sizes.dag_machines,
    }
}

/// What the trace recorded in one traced rep.
#[derive(Clone, Copy, Debug, Default)]
pub struct Traced {
    pub monitors: MonitorTotals,
    pub sink: Acc,
}

/// The unit of the checks on the whole run.
pub const RUN: &str = "run";

/// One rep: set-up, one run, and its checks.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Process CPU over the run.
    pub cpu_s: f64,
    /// The driver thread's CPU over the run.
    pub driver_thread_cpu_s: f64,
    /// Simulated seconds advanced, summed over machines.
    pub sim_machine_s: f64,
    pub frames: u64,
    pub sink_calls: u64,
    pub rounds: u64,
    pub digest: u64,
    pub epochs: u64,
    pub l3_hits: u64,
    pub l3_misses: u64,
    /// Checked units: every shard, every DAG stage, and the run itself.
    pub units: u64,
    /// Failed units by name (`run`, `machine #<index>`, a stage tag), each with
    /// its first failed check.
    pub failures: BTreeMap<String, String>,
    pub traced: Option<Traced>,
}

/// The cluster plus everything the run needs, built during set-up.
struct Built {
    session: ClusterSession,
    refreshes: usize,
    delay: SimDuration,
    policies: Vec<Box<dyn SchedulerPolicy>>,
    dag: Option<PipelineScript>,
}

fn tiptop(delay: SimDuration) -> Box<dyn Monitor + Send> {
    Box::new(Tiptop::new(
        TiptopOptions::default().observer(Uid::ROOT).delay(delay),
        ScreenConfig::default_screen(),
    ))
}

// ---- burst_reactive -------------------------------------------------------

/// Machine ids of the burst cast.
const VICTIM: &str = "node-victim";
const SPARE: &str = "node-spare";
const IDLE: &str = "node-idle";
/// The job the detector watches, and the one it relocates.
const CANARY: &str = "sim-fluid";
const PAYLOAD: &str = "sim-batch";
/// Time compression of the tournament burst script.
const BURST_SCALE: f64 = 0.01;
/// Tiptop refresh of the burst (simulated seconds).
const BURST_DELAY_S: f64 = 2.0;
/// Endless background jobs parked on the designated spare.
const BACKGROUND_JOBS: usize = 4;

/// The three-node cast: the contended node carries the canary, the
/// payload and the burst; the designated spare is busy with background
/// load; a third node idles, and only live-load placement finds it.
fn build_burst(seed: u64) -> Built {
    let script = tournament_script(BURST_SCALE);
    let node = |seed: u64| {
        let machine = MachineConfig::datacenter_e5640()
            .noiseless()
            .with_samples(4096);
        let mut sc = Scenario::new(machine).seed(seed);
        for (uid, name) in users() {
            sc = sc.user(uid, name);
        }
        sc
    };
    // The machines are noiseless, so the seed reaches the outputs through
    // the jobs' own seeds, which drive their address streams.
    let job_seed = |s: u64| s ^ mix(seed);
    let spawn = |sc: Scenario, job: &Job| {
        sc.spawn_at(
            SimTime::ZERO + job.start,
            job.comm.clone(),
            SpawnSpec::new(job.comm.clone(), job.uid, job.program.clone()).seed(job_seed(job.seed)),
        )
    };
    let mut victim = spawn(spawn(node(seed), &script.canary), &script.payload);
    for job in &script.aggressors {
        victim = spawn(victim, job);
    }
    let mut spare = node(seed.wrapping_add(1));
    for job in grid_script(BURST_SCALE)
        .aggressors
        .into_iter()
        .take(BACKGROUND_JOBS)
    {
        let comm = format!("bg-{}", job.comm);
        spare = spare.spawn_at(
            SimTime::ZERO,
            comm.clone(),
            SpawnSpec::new(comm, USER3, job.program).seed(job_seed(job.seed + 17)),
        );
    }
    let session = ClusterScenario::new()
        .machine(VICTIM, victim)
        .machine(SPARE, spare)
        .machine(IDLE, node(seed.wrapping_add(7)))
        .build()
        .expect("the burst cast has unique ids and no scripted migrations");

    // Population change-point detection on the canary's IPC, placed by
    // live least-loaded load: skip the cold-start ramp, calibrate on four
    // plateau samples, fire after two samples below mu - 4 sigma.
    let policy = Balanced::new(
        Population::new(VICTIM, CANARY, 4, 4.0, 2, SPARE)
            .skip(4)
            .source("tiptop")
            .mode(MigrationMode::Resume)
            .evicting(|row| row.comm == PAYLOAD),
    )
    .source("tiptop");
    let horizon = script.arrival.as_secs_f64() + 2.1 * script.dwell.as_secs_f64();
    Built {
        session,
        refreshes: (horizon / BURST_DELAY_S).ceil() as usize,
        delay: SimDuration::from_secs_f64(BURST_DELAY_S),
        policies: vec![Box::new(policy)],
        dag: None,
    }
}

// ---- fleet_frames ---------------------------------------------------------

/// Light jobs per fleet machine.
const FLEET_JOBS: usize = 3;
/// Fleet refresh: one observation per 20 ms scheduler epoch.
const FLEET_DELAY_MS: u64 = 20;
/// Frames per aggregate window of the fleet's sink.
const FLEET_WINDOW: usize = 256;

/// The CPIs a light job draws from.
const FLEET_CPIS: [f64; 8] = [0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3];

/// SplitMix64: a seeded, platform-independent draw.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fleet of identical light machines: fixed-CPI jobs with no loads or
/// stores, so cache sampling short-circuits and the frame path does the
/// work. One shared machine config, as a real homogeneous fleet. The seed
/// draws each job's CPI: every counter in the stream depends on it, while
/// the host work per frame does not.
fn build_fleet(seed: u64, machines: usize, refreshes: usize) -> Built {
    let config = Arc::new(MachineConfig::nehalem_w3550().noiseless().with_l3_kib(512));
    let light: Vec<Program> = FLEET_CPIS
        .iter()
        .map(|&cpi| {
            Program::endless(
                ExecProfile::builder("light")
                    .base_cpi(cpi)
                    .loads_per_insn(0.0)
                    .stores_per_insn(0.0)
                    .build(),
            )
        })
        .collect();
    let mut cluster = ClusterScenario::new();
    for i in 0..machines {
        let s = seed.wrapping_mul(1_000_003).wrapping_add(i as u64 + 1);
        let mut sc = Scenario::new(Arc::clone(&config))
            .seed(s)
            .user(Uid(1), "u1");
        for j in 0..FLEET_JOBS {
            let tag = format!("light-{j}");
            let job_seed = s.wrapping_mul(31).wrapping_add(j as u64);
            let program = light[(mix(job_seed) % light.len() as u64) as usize].clone();
            let spec = SpawnSpec::new(&tag, Uid(1), program).seed(job_seed);
            sc = sc.spawn(tag, spec);
        }
        cluster = cluster.machine(format!("m{i:04}"), sc);
    }
    Built {
        session: cluster.build().expect("unique machine ids"),
        refreshes,
        delay: SimDuration::from_millis(FLEET_DELAY_MS),
        policies: Vec::new(),
        dag: None,
    }
}

// ---- dag_lockstep ---------------------------------------------------------

/// DAG refresh (simulated milliseconds).
const DAG_DELAY_MS: u64 = 40;

/// A seeded random pipeline DAG: roots at scripted instants, every other
/// stage submitted after an earlier stage exits. Edges that cross
/// machines route the run through the lockstep round barrier.
fn build_dag(seed: u64, stages: usize, machines: usize, refreshes: usize) -> Built {
    let script = random_dag(seed, stages, machines);
    let mut nodes: Vec<Option<Scenario>> = (0..machines)
        .map(|i| {
            Some(
                Scenario::new(MachineConfig::nehalem_w3550().noiseless())
                    .seed(seed.wrapping_add(i as u64))
                    .user(PIPELINE_USER, "grid"),
            )
        })
        .collect();
    for st in &script.stages {
        let spec = SpawnSpec::new(&st.tag, PIPELINE_USER, st.program.clone()).seed(st.seed);
        let node = nodes[st.machine].take().expect("every node is put back");
        nodes[st.machine] = Some(match &st.dep {
            None => node.spawn_at(SimTime::ZERO + st.start, &st.tag, spec),
            Some((dep, delay)) => node.spawn_after(dep, *delay, &st.tag, spec),
        });
    }
    let mut cluster = ClusterScenario::new();
    for (i, node) in nodes.into_iter().flatten().enumerate() {
        cluster = cluster.machine(format!("node-{i}"), node);
    }
    Built {
        session: cluster.build().expect("random DAGs are acyclic"),
        refreshes,
        delay: SimDuration::from_millis(DAG_DELAY_MS),
        policies: Vec::new(),
        dag: Some(script),
    }
}

// ---- one rep --------------------------------------------------------------

fn build(w: Workload, sizes: &Sizes, seed: u64) -> Built {
    match w {
        Workload::BurstReactive => build_burst(seed),
        Workload::FleetFrames => build_fleet(seed, sizes.fleet_machines, sizes.fleet_refreshes),
        Workload::DagLockstep => build_dag(
            seed,
            sizes.dag_stages,
            sizes.dag_machines,
            sizes.dag_refreshes,
        ),
    }
}

/// Only the set-up of one rep, timed: the cluster build plus one monitor
/// per machine, as [`run_rep`] times it.
pub fn setup_only(w: Workload, sizes: &Sizes, seed: u64) -> f64 {
    let t = Instant::now();
    let built = build(w, sizes, seed);
    let monitors: Vec<_> = built
        .session
        .machines()
        .map(|_| tiptop(built.delay))
        .collect();
    let s = t.elapsed().as_secs_f64();
    drop((built, monitors));
    s
}

/// Run one rep of `w`: build (set-up), run to the horizon, check.
pub fn run_rep(w: Workload, sizes: &Sizes, seed: u64, threads: usize, traced: bool) -> Rep {
    let t = Instant::now();
    let mut built = build(w, sizes, seed);
    let rec: Option<Recorder> = traced.then(|| Arc::new(Mutex::new(MonitorTotals::default())));
    if let Some(rec) = &rec {
        built.policies = std::mem::take(&mut built.policies)
            .into_iter()
            .map(|p| Box::new(TracedPolicy::new(p, rec)) as Box<dyn SchedulerPolicy>)
            .collect();
    }
    let mut rep = Rep {
        setup_s: t.elapsed().as_secs_f64(),
        units: 1,
        ..Rep::default()
    };

    // Monitors are built inside `run_*`; their construction is set-up too.
    let mut factory_s = 0.0;
    let delay = built.delay;
    let mut monitor = |_: MachineRef<'_>| -> Box<dyn Monitor + Send> {
        let t = Instant::now();
        let m = match &rec {
            Some(rec) => Box::new(TracedMonitor::new(tiptop(delay), rec)),
            None => tiptop(delay),
        };
        factory_s += t.elapsed().as_secs_f64();
        m
    };
    let n = built.session.len();
    let refreshes = built.refreshes;

    let mut windows = BenchSink::new(ClusterWindowSink::new(FLEET_WINDOW), n, traced);
    let mut stream = BenchSink::new(DigestSink::default(), n, traced);
    trace::set_driver(true);
    let (p0, m0, w0) = (process_cpu_s(), thread_cpu_s(), Instant::now());
    let result = match w {
        Workload::FleetFrames => built
            .session
            .run_each(threads, refreshes, &mut monitor, never, &mut windows)
            .map(|()| Vec::new()),
        Workload::DagLockstep => built
            .session
            .run_each(threads, refreshes, &mut monitor, never, &mut stream)
            .map(|()| Vec::new()),
        Workload::BurstReactive => built.session.run_reactive(
            threads,
            refreshes,
            |m| vec![monitor(m)],
            &mut built.policies,
            &mut stream,
        ),
    };
    rep.wall_s = w0.elapsed().as_secs_f64();
    rep.cpu_s = process_cpu_s() - p0;
    rep.driver_thread_cpu_s = thread_cpu_s() - m0;
    trace::set_driver(false);
    rep.setup_s += factory_s;
    rep.wall_s -= factory_s;
    let decisions = result.unwrap_or_else(|e| {
        rep.fail(RUN, format!("run failed: {e}"));
        Vec::new()
    });

    let mut digest = Digest::default();
    let sink_spans = if w == Workload::FleetFrames {
        tally(&mut rep, &windows, refreshes);
        digest.windows(&windows.inner.finish());
        windows.spans
    } else {
        tally(&mut rep, &stream, refreshes);
        digest = stream.inner.digest;
        digest.decisions(&decisions);
        stream.spans
    };
    rep.digest = digest.value();
    // Dropping the policies flushes their spans into the recorder; the
    // monitors were dropped when the run returned.
    built.policies.clear();
    if let Some(rec) = rec {
        let monitors = *rec.lock().expect("no wrapper panicked while merging");
        rep.traced = Some(Traced {
            monitors,
            sink: sink_spans.unwrap_or_default(),
        });
    }

    check_shards(&mut rep, &built.session);
    if let Some(script) = &built.dag {
        check_stages(&mut rep, &built.session, script);
    }
    if w == Workload::BurstReactive {
        check_migration(&mut rep, &built.session, &decisions);
    }
    rep
}

/// The stop rule of a fixed-horizon run: never stop early.
fn never(_: MachineRef<'_>) -> Box<dyn FnMut(&Frame) -> bool + Send> {
    Box::new(|_| false)
}

impl Rep {
    /// Record a failed check of `unit`; a unit fails once, with the first
    /// check it failed.
    pub fn fail(&mut self, unit: impl Into<String>, why: String) {
        self.failures.entry(unit.into()).or_insert(why);
    }

    /// Units this rep failed. A failed check of the whole run — digest,
    /// total frames, the migration, repeating the first rep — fails every
    /// unit of the rep, so one wrong output moves `success_rate` by at least
    /// one rep's share.
    pub fn failed_units(&self) -> u64 {
        if self.failures.contains_key(RUN) {
            self.units
        } else {
            self.failures.len() as u64
        }
    }

    /// What must repeat exactly across reps and thread counts, traced or
    /// not: digest, frames, epochs, L3 hits and misses.
    pub fn outputs(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.digest,
            self.frames,
            self.epochs,
            self.l3_hits,
            self.l3_misses,
        )
    }
}

/// Take the sink's counts; check frames = machines x refreshes, in total
/// and per machine.
fn tally<S>(rep: &mut Rep, sink: &BenchSink<S>, refreshes: usize) {
    (rep.frames, rep.sink_calls, rep.rounds) = (sink.frames, sink.calls, sink.rounds);
    let expected = (sink.per_machine.len() * refreshes) as u64;
    if rep.frames != expected {
        let why = format!("{} frames delivered, expected {expected}", rep.frames);
        rep.fail(RUN, why);
    }
    for (i, &f) in sink.per_machine.iter().enumerate() {
        if f != refreshes as u64 {
            rep.fail(
                format!("machine #{i}"),
                format!("{f} frames, expected {refreshes}"),
            );
        }
    }
}

/// Per shard: it survived, holds no counter fd after teardown; plus the
/// simulated machine statistics.
fn check_shards(rep: &mut Rep, cluster: &ClusterSession) {
    for m in cluster.machines() {
        rep.units += 1;
        let unit = format!("machine #{}", m.index);
        let Some(s) = cluster.session(m.id) else {
            rep.fail(unit, "shard lost".into());
            continue;
        };
        let fds = s.kernel().open_fds(Uid::ROOT);
        if fds != 0 {
            rep.fail(unit, format!("{fds} counter fds left open after teardown"));
        }
        rep.sim_machine_s += s.now().as_secs_f64();
        let machine = s.kernel().machine();
        rep.epochs += machine.epochs_executed();
        for socket in 0..machine.topology().sockets() {
            let (hits, misses) = machine.l3_stats(socket);
            rep.l3_hits += hits;
            rep.l3_misses += misses;
        }
    }
}

/// Per DAG stage: it spawned and exited within the horizon.
fn check_stages(rep: &mut Rep, cluster: &ClusterSession, script: &PipelineScript) {
    for st in &script.stages {
        rep.units += 1;
        let exited = cluster
            .session(&format!("node-{}", st.machine))
            .and_then(|s| s.kernel().exit_record(s.pid(&st.tag)?))
            .is_some();
        if !exited {
            rep.fail(st.tag.clone(), "did not exit within the horizon".into());
        }
    }
}

/// Exactly one migration fires, and the payload finishes where it landed.
fn check_migration(rep: &mut Rep, cluster: &ClusterSession, decisions: &[AppliedDecision]) {
    if decisions.len() != 1 {
        rep.fail(
            RUN,
            format!("{} migrations fired, expected 1", decisions.len()),
        );
        return;
    }
    let finished = cluster
        .session(&decisions[0].to)
        .and_then(|s| s.kernel().exit_record(s.pid(PAYLOAD)?))
        .is_some();
    if !finished {
        rep.fail(
            RUN,
            format!("{PAYLOAD} did not finish on {}", decisions[0].to),
        );
    }
}
