//! **Scaling** — the throughput frontier of the cluster driver: frames per
//! second against machine count at 10, 100 and 1000 machines, each shard running a few synthetic light jobs (pure
//! compute, no memory traffic) so the measurement is dominated by the
//! frame/stream path rather than cache simulation.
//!
//! Every scale point runs the production path — the round driver on its
//! run-long worker pool, interned labels, and the id-keyed
//! [`ClusterWindowSink`] — swept across worker-thread counts
//! ([`THREAD_SWEEP`]): every scale point records one [`SweepArm`] per
//! thread count — frames/sec, parallel efficiency against the point's own
//! single-thread arm, and the arm's current-RSS delta.
//!
//! `bench_timing` writes the whole curve to `BENCH_cluster.json` (schema
//! `tiptop-bench-cluster/4`) and `--check` fails CI if the 100-machine
//! frames/sec — single-thread or 8-thread — regresses more than 30%
//! against the committed curve.
//!
//! Memory attribution: the process-peak `VmHWM` is monotone and
//! process-wide, so it can only ever answer "how big did the whole bench
//! get". Per-point footprint is therefore measured as a *current* `VmRSS`
//! delta across the point's first cluster build (divided by the machine
//! count for the per-machine figure), and each sweep arm records its own
//! run-time `VmRSS` delta. Deltas are net of allocator reuse — memory
//! freed by an earlier point and recycled here does not show — so they are
//! a floor on the true footprint; `peak_rss_bytes` stays in the row for
//! the whole-process context.

use std::sync::Arc;
use std::time::Instant;

use tiptop_core::app::{Tiptop, TiptopOptions};
use tiptop_core::cluster::{ClusterScenario, ClusterSession, ClusterWindowSink, RunStats};
use tiptop_core::config::ScreenConfig;
use tiptop_core::scenario::Scenario;
use tiptop_kernel::program::Program;
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_machine::config::MachineConfig;
use tiptop_machine::exec::ExecProfile;
use tiptop_machine::time::SimDuration;

use crate::report::TableReport;

/// The scale points and the refresh budget at each one, chosen so every
/// point delivers enough frames to time robustly while the whole curve
/// stays within the bench budget.
pub const POINTS: [(usize, usize); 3] = [(10, 400), (100, 200), (1000, 20)];

/// Window size of each arm's aggregating sink.
pub const WINDOW: usize = 256;

/// Worker-thread counts the batched arm is swept across at every scale
/// point.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One batched-arm measurement at a fixed `(machines, threads)`.
#[derive(Debug, Clone)]
pub struct SweepArm {
    pub threads: usize,
    /// Rounds and windows that delivered frames (≪ frames when machines
    /// share observation instants).
    pub batches: usize,
    /// Frames of the largest round or window.
    pub peak_buffered_frames: usize,
    /// Wall seconds of this arm's run (build excluded).
    pub wall_seconds: f64,
    pub frames_per_sec: f64,
    /// `frames_per_sec / (threads × single-thread frames_per_sec)` at the
    /// same scale point; 1.0 is linear scaling.
    pub parallel_efficiency: f64,
    /// Current-RSS (`VmRSS`) growth across this arm's run, signed — the
    /// per-arm footprint attribution `VmHWM` cannot give.
    pub rss_delta_bytes: i64,
}

/// One measured scale point: the full thread sweep.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    pub machines: usize,
    pub refreshes: usize,
    /// Frames delivered by every arm (machines × refreshes).
    pub frames: usize,
    /// Measurements, one per [`THREAD_SWEEP`] entry.
    pub arms: Vec<SweepArm>,
    /// Process peak RSS (VmHWM) after this point, in bytes; 0 where
    /// `/proc/self/status` is unavailable. Monotone and process-wide —
    /// context only, not attribution.
    pub peak_rss_bytes: u64,
    /// Current-RSS growth across this point's first cluster build, signed.
    pub build_rss_delta_bytes: i64,
    /// `max(build_rss_delta_bytes, 0) / machines` — the per-machine
    /// footprint floor.
    pub rss_per_machine_bytes: u64,
}

impl ScalePoint {
    /// The arm run with `threads` workers.
    pub fn arm(&self, threads: usize) -> Option<&SweepArm> {
        self.arms.iter().find(|a| a.threads == threads)
    }
}

pub struct ScalingResult {
    pub points: Vec<ScalePoint>,
    pub thread_sweep: Vec<usize>,
}

/// The synthetic light job: fixed CPI, no loads or stores, so
/// cache sampling short-circuits and the run measures the frame path.
fn light_job(seed: u64) -> SpawnSpec {
    SpawnSpec::new(
        "shard-job",
        Uid(1),
        Program::endless(
            ExecProfile::builder("shard-job")
                .base_cpi(0.9)
                .loads_per_insn(0.0)
                .stores_per_insn(0.0)
                .build(),
        ),
    )
    .seed(seed)
}

/// Light jobs per shard: enough rows per frame that the per-row stream
/// costs dominate the fixed per-refresh overhead, like a working node.
const JOBS_PER_SHARD: usize = 3;

/// A fresh `n`-machine cluster of light shards. One `Arc<MachineConfig>`
/// is shared by every shard — the fleet models identical hardware, so it
/// holds one config allocation, not `n`. (The L3 geometry is shrunk only
/// for proportion; the light jobs never touch the caches, and untouched
/// tag arrays are never allocated.)
fn build_cluster(n: usize, seed: u64) -> ClusterSession {
    let machine: Arc<MachineConfig> =
        Arc::new(MachineConfig::nehalem_w3550().noiseless().with_l3_kib(512));
    let mut cluster = ClusterScenario::new();
    for i in 0..n {
        let s = seed + i as u64 + 1;
        let mut sc = Scenario::new(Arc::clone(&machine))
            .seed(s)
            .user(Uid(1), "u1");
        for j in 0..JOBS_PER_SHARD {
            sc = sc.spawn(format!("shard-{j}"), light_job(s * 31 + j as u64));
        }
        cluster = cluster.machine(format!("m{i:04}"), sc);
    }
    cluster.build().expect("unique machine ids")
}

/// One observation per scheduler epoch (20 ms) — the highest meaningful
/// sampling rate, so the measurement stresses the frame path rather than
/// paying several un-observed sim epochs between refreshes.
fn monitor() -> Box<Tiptop> {
    Box::new(Tiptop::new(
        TiptopOptions::default()
            .observer(Uid::ROOT)
            .delay(SimDuration::from_millis(20)),
        ScreenConfig::default_screen(),
    ))
}

/// A named field from `/proc/self/status`, in bytes (fields are in kB).
fn proc_status_bytes(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: u64 = rest
                .trim_start_matches(':')
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Process peak RSS (`VmHWM`), in bytes. Monotone: context, not
/// attribution.
fn peak_rss_bytes() -> u64 {
    proc_status_bytes("VmHWM")
}

/// Process *current* RSS (`VmRSS`), in bytes — the quantity whose deltas
/// attribute footprint to one build or one arm.
fn current_rss_bytes() -> u64 {
    proc_status_bytes("VmRSS")
}

/// Run the scaling curve: the full [`THREAD_SWEEP`] at every point.
pub fn run(seed: u64) -> ScalingResult {
    run_on(seed, &THREAD_SWEEP, &POINTS)
}

/// [`run`] with an explicit thread sweep and scale points (tests use tiny
/// ones). The first sweep entry should be 1 — it is the parallel-efficiency
/// base.
pub fn run_on(seed: u64, thread_sweep: &[usize], points: &[(usize, usize)]) -> ScalingResult {
    assert!(!thread_sweep.is_empty(), "empty thread sweep");
    let mut out = Vec::new();
    for &(machines, refreshes) in points {
        // A fresh cluster per thread count. The first arm's build is the
        // point's RSS probe: the delta is measured before any run of this
        // point has grown the transport buffers.
        let mut build_rss_delta_bytes = 0i64;
        let mut arms = Vec::with_capacity(thread_sweep.len());
        for (k, &threads) in thread_sweep.iter().enumerate() {
            let rss_before_build = current_rss_bytes();
            let mut session = build_cluster(machines, seed);
            if k == 0 {
                build_rss_delta_bytes = current_rss_bytes() as i64 - rss_before_build as i64;
            }
            let mut sink = ClusterWindowSink::new(WINDOW);
            let rss_before_run = current_rss_bytes();
            let t0 = Instant::now();
            session
                .run(
                    threads,
                    refreshes,
                    |_| vec![(monitor(), None)],
                    &mut [],
                    &mut sink,
                )
                .expect("scaling arm");
            let wall = t0.elapsed().as_secs_f64();
            let rss_delta_bytes = current_rss_bytes() as i64 - rss_before_run as i64;
            let stats: RunStats = session.last_run_stats();
            assert_eq!(stats.frames, machines * refreshes);
            arms.push(SweepArm {
                threads,
                batches: stats.batches,
                peak_buffered_frames: stats.peak_buffered_frames,
                wall_seconds: wall,
                frames_per_sec: stats.frames as f64 / wall.max(1e-9),
                parallel_efficiency: 0.0, // filled below, once the base exists
                rss_delta_bytes,
            });
        }
        let base_fps = arms
            .iter()
            .find(|a| a.threads == 1)
            .map(|a| a.frames_per_sec)
            .unwrap_or(arms[0].frames_per_sec / arms[0].threads as f64);
        for arm in &mut arms {
            arm.parallel_efficiency = if base_fps > 0.0 {
                arm.frames_per_sec / (arm.threads as f64 * base_fps)
            } else {
                0.0
            };
        }

        out.push(ScalePoint {
            machines,
            refreshes,
            frames: machines * refreshes,
            arms,
            peak_rss_bytes: peak_rss_bytes(),
            build_rss_delta_bytes,
            rss_per_machine_bytes: build_rss_delta_bytes.max(0) as u64 / machines as u64,
        });
    }
    ScalingResult {
        points: out,
        thread_sweep: thread_sweep.to_vec(),
    }
}

impl ScalingResult {
    /// The 100-machine point — the acceptance and regression anchor.
    pub fn anchor(&self) -> Option<&ScalePoint> {
        self.points.iter().find(|p| p.machines == 100)
    }

    /// frames/sec of the 100-machine point at `threads` workers — the
    /// per-thread-count regression anchor `bench_timing --check` gates on.
    pub fn anchor_fps(&self, threads: usize) -> Option<f64> {
        self.anchor()
            .and_then(|p| p.arm(threads))
            .map(|a| a.frames_per_sec)
    }

    /// The hand-written `BENCH_cluster.json` body (the workspace has no
    /// serde). Schema `/4`: per-point `arms` array, one entry
    /// per swept thread count, each carrying `threads` *before*
    /// `frames_per_sec` (the `--check` anchor parser relies on that
    /// order).
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n");
        json.push_str("  \"schema\": \"tiptop-bench-cluster/4\",\n");
        json.push_str(&format!(
            "  \"profile\": \"{}\",\n",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
        ));
        let sweep: Vec<String> = self.thread_sweep.iter().map(|t| t.to_string()).collect();
        json.push_str(&format!("  \"thread_sweep\": [{}],\n", sweep.join(", ")));
        json.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let comma = if i + 1 < self.points.len() { "," } else { "" };
            json.push_str(&format!(
                "    {{\"machines\": {}, \"refreshes\": {}, \"frames\": {}, \
                 \"peak_rss_bytes\": {}, \"build_rss_delta_bytes\": {}, \
                 \"rss_per_machine_bytes\": {}, \"arms\": [\n",
                p.machines,
                p.refreshes,
                p.frames,
                p.peak_rss_bytes,
                p.build_rss_delta_bytes,
                p.rss_per_machine_bytes,
            ));
            for (j, a) in p.arms.iter().enumerate() {
                let acomma = if j + 1 < p.arms.len() { "," } else { "" };
                json.push_str(&format!(
                    "      {{\"threads\": {}, \"wall_seconds\": {:.4}, \
                     \"frames_per_sec\": {:.0}, \"parallel_efficiency\": {:.3}, \
                     \"batches\": {}, \"peak_buffered_frames\": {}, \
                     \"rss_delta_bytes\": {}}}{acomma}\n",
                    a.threads,
                    a.wall_seconds,
                    a.frames_per_sec,
                    a.parallel_efficiency,
                    a.batches,
                    a.peak_buffered_frames,
                    a.rss_delta_bytes,
                ));
            }
            json.push_str(&format!("    ]}}{comma}\n"));
        }
        json.push_str("  ]\n}\n");
        json
    }

    pub fn report(&self) -> String {
        let sweep: Vec<String> = self.thread_sweep.iter().map(|t| t.to_string()).collect();
        let mut t = TableReport::new(
            format!("scaling frontier (threads swept: {})", sweep.join("/")),
            &[
                "machines",
                "threads",
                "frames",
                "frames/s",
                "par eff",
                "batches",
                "peak buf frames",
                "RSS/machine KiB",
                "peak RSS MiB",
            ],
        );
        for p in &self.points {
            for (j, a) in p.arms.iter().enumerate() {
                let first = j == 0;
                t.row(vec![
                    if first {
                        p.machines.to_string()
                    } else {
                        String::new()
                    },
                    a.threads.to_string(),
                    if first {
                        p.frames.to_string()
                    } else {
                        String::new()
                    },
                    format!("{:.0}", a.frames_per_sec),
                    format!("{:.2}", a.parallel_efficiency),
                    a.batches.to_string(),
                    a.peak_buffered_frames.to_string(),
                    if first {
                        format!("{:.0}", p.rss_per_machine_bytes as f64 / 1024.0)
                    } else {
                        String::new()
                    },
                    if first {
                        format!("{:.0}", p.peak_rss_bytes as f64 / (1024.0 * 1024.0))
                    } else {
                        String::new()
                    },
                ]);
            }
        }
        t.render()
    }
}
