//! `cargo bench`-style timing harness for the experiment suite: runs every
//! paper artifact at its regression-test scale, times each one, and writes
//! `BENCH_experiments.json` so consecutive PRs accumulate a perf
//! trajectory.
//!
//! ```sh
//! cargo run --release -p tiptop-bench --bin bench_timing [-- [--check] [out.json]]
//! ```
//!
//! With `--check` the harness also compares each experiment against its
//! per-experiment wall-time budget (the release baseline recorded by the
//! PR 3 trajectory, +30% regression allowance and a small absolute slack
//! for sub-second experiments) and exits non-zero on any breach — the CI
//! regression gate. Budgets are calibrated for the release profile; in a
//! debug build `--check` only reports, it never fails.
//!
//! The JSON is written by hand (the workspace has no `serde`): a flat object of per-experiment wall seconds plus totals —
//! trivially diffable between commits.
//!
//! The harness also drives the [`scaling`] throughput curve (the full
//! worker-thread sweep at every point). A plain run refreshes the
//! committed `BENCH_cluster.json`; with `--check` the file is left
//! untouched and instead acts as the regression anchor — CI fails if the
//! fresh 100-machine frames/sec, at **either** the single-thread or the
//! 8-thread arm, falls more than 30% below the committed curve.
//!
//! Per-layer cost lines ride along, report-only: `machine_sample_ns` and
//! `machine_sample_smt_ns`, the machine's cost per cache sample on a fixed
//! seeded epoch sequence with one slice per physical core and with SMT
//! pairs (see [`machine_sample_ns`]), and `machine_sample_dag_ns`, the same
//! on a node of pipeline stages (see [`machine_sample_dag_ns`]; each the
//! median of
//! [`SAMPLE_REPEATS`] runs, reported with its min and max), recorded with
//! the hardware they ran on: the sampler kernels CPUID picked
//! (`sampler_kernels`), the CPU model (`cpu_model`, from `/proc/cpuinfo`)
//! and the host's `available_parallelism`; and
//! `dag_build_ms`, the median wall time of `ClusterScenario::build` on a
//! 4,000-stage random DAG over 64 machines (see [`dag_build_ms`]). No
//! budget gates any of them yet.

use std::time::Instant;

use tiptop_kernel::program::{Phase, Program};
use tiptop_machine::prelude::*;
use tiptop_workloads::datacenter::tournament_script;
use tiptop_workloads::pipelines::random_dag;

use tiptop_bench::experiments::{
    fig01_snapshot, fig03_evolution, fig06_07_phases, fig08_ipc_vs_instructions, fig09_compilers,
    fig10_datacenter, fig11_interference, fleet, pipelines, relief, scaling, table1_fp_micro,
    validation,
};

/// Release-profile wall-second baselines, seeded from the PR 3 trajectory
/// (`BENCH_experiments.json`; each later experiment from its first
/// recorded runs). A budget breach means the experiment regressed by
/// more than [`REGRESSION_ALLOWANCE`] against this trajectory.
const BASELINE_SECONDS: [(&str, f64); 13] = [
    ("fig01_snapshot", 0.400),
    ("table1_fp_micro", 0.002),
    ("fig03_evolution", 0.206),
    ("fig06_07_phases", 0.288),
    ("fig08_ipc_vs_insns", 0.069),
    ("fig09_compilers", 0.049),
    ("fig10_datacenter", 3.454),
    ("fig11_interference", 2.088),
    ("fleet", 0.078),
    // The 13 relief cells, each simulated once; the three `fleet` cells
    // carry four endless background jobs each. The budget is the sum of
    // the four experiments the cells replace (grid 2.900, reactive 5.800,
    // tournament 10.500, policy_lab 29.240), which simulated 16 cell runs.
    ("relief", 48.440),
    // Four three-machine pipelines (chain, fan-out, shuffle, random DAG)
    // through the cluster's round driver.
    ("pipelines", 0.020),
    ("validation", 0.009),
    // The thread sweep runs each point four times (1/2/4/8 workers) on the
    // round driver's run-long pool; the per-machine memory diet keeps the
    // whole curve under the old two-arm budget.
    ("scaling", 1.500),
];

/// The committed scaling curve; `--check` compares the fresh 100-machine
/// throughput against it and fails on a >30% regression. Refreshed by a
/// plain (non-`--check`) run, so CI never dirties the tree.
const CLUSTER_JSON: &str = "BENCH_cluster.json";

/// Allowed relative throughput loss at the 100-machine anchors.
const CLUSTER_REGRESSION_ALLOWANCE: f64 = 0.30;

/// The numeric value following `key` in `s`.
fn scan_value(s: &str, key: &str) -> Option<f64> {
    let rest = &s[s.find(key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// The committed 100-machine `frames_per_sec` at `threads` workers out of
/// `BENCH_cluster.json` (hand-rolled scan — the workspace has no serde
/// deserializer). The file carries one arm per swept thread count.
fn anchor_fps(json: &str, threads: usize) -> Option<f64> {
    let at = json.find("\"machines\": 100,")?;
    let rest = &json[at..];
    // Confine the scan to this point's span so an arm from the next point
    // can never answer for this one.
    let span_end = rest[1..]
        .find("\"machines\": ")
        .map(|i| i + 1)
        .unwrap_or(rest.len());
    let span = &rest[..span_end];
    let tkey = format!("\"threads\": {threads},");
    let arm = &span[span.find(&tkey)?..];
    scan_value(arm, "\"frames_per_sec\": ")
}

/// Budgeted relative regression before `--check` fails.
const REGRESSION_ALLOWANCE: f64 = 0.30;
/// Absolute slack so millisecond-scale experiments don't fail on noise.
const ABSOLUTE_SLACK_SECONDS: f64 = 0.25;

fn budget_for(name: &str) -> Option<f64> {
    BASELINE_SECONDS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, base)| base * (1.0 + REGRESSION_ALLOWANCE) + ABSOLUTE_SLACK_SECONDS)
}

/// Epochs in the [`machine_sample_ns`] sequence.
const SAMPLE_EPOCHS: u64 = 300;

/// Runs of each [`machine_sample_ns`] placement; the report gives their
/// median, min and max.
const SAMPLE_REPEATS: usize = 5;

/// Median, min and max of a report-only cost line's repeats.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut xs: Vec<f64>) -> Self {
        xs.sort_by(f64::total_cmp);
        Spread {
            median: xs[xs.len() / 2],
            min: xs[0],
            max: xs[xs.len() - 1],
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"median\": {:.2}, \"min\": {:.2}, \"max\": {:.2}}}",
            self.median, self.min, self.max
        )
    }
}

/// Nanoseconds per cache sample of [`Machine::execute_epoch`] on the
/// contended node of the burst experiments: the tournament's canary,
/// payload and five aggressors on a `datacenter_e5640` sampling 4,096
/// accesses per slice, through [`SAMPLE_EPOCHS`] seeded 10 ms epochs (see
/// [`sample_ns`]).
///
/// The seven slices run one per physical core, or with `smt` two per core
/// (three SMT pairs and a lone slice on one socket), where the sampler
/// merges each pair's streams through their shared L1 and L2.
fn machine_sample_ns(smt: bool) -> f64 {
    let script = tournament_script(0.01);
    let mut jobs = vec![script.canary, script.payload];
    jobs.extend(script.aggressors);
    let jobs: Vec<(&Program, u64)> = jobs.iter().map(|job| (&job.program, job.seed)).collect();
    let cfg = MachineConfig::datacenter_e5640().with_samples(4096);
    let per_core = if smt { cfg.topology.smt() } else { 1 };
    sample_ns(cfg, per_core, &jobs)
}

/// Nanoseconds per cache sample as [`machine_sample_ns`] takes them, on a
/// node of the benchmark's `dag_lockstep` workload: the first four stages
/// of a seeded `random_dag`, whose profiles all draw from one uniform
/// 24 KiB tier, one per physical core of a noiseless `nehalem_w3550`.
fn machine_sample_dag_ns() -> f64 {
    let script = random_dag(1, 4, 1);
    let jobs: Vec<(&Program, u64)> = script
        .stages
        .iter()
        .map(|stage| (&stage.program, stage.seed))
        .collect();
    let cfg = MachineConfig::nehalem_w3550()
        .noiseless()
        .with_samples(4096);
    sample_ns(cfg, 1, &jobs)
}

/// Nanoseconds per cache sample of [`Machine::execute_epoch`] running the
/// first phase of each of `jobs` (a program and its stream seed), with
/// `per_core` slices on each physical core of a machine of `cfg`, through
/// [`SAMPLE_EPOCHS`] seeded 10 ms epochs. Each slice's CPI hint is its
/// previous outcome, as the kernel's.
fn sample_ns(cfg: MachineConfig, per_core: usize, jobs: &[(&Program, u64)]) -> f64 {
    let profiles: Vec<ExecProfile> = jobs
        .iter()
        .map(|(program, _)| match &program.phases()[0] {
            Phase::Compute { profile, .. } => profile.clone(),
            Phase::Sleep { .. } => unreachable!("every sampled job computes"),
        })
        .collect();
    let pus: Vec<PuId> = cfg
        .topology
        .cores()
        .flat_map(|core| cfg.topology.pus_of_core(core).into_iter().take(per_core))
        .collect();
    let cycles = cfg.uarch.clock.cycles_in(SimDuration::from_millis(10));
    let mut machine = Machine::new(cfg, 7);
    let mut streams: Vec<TaskStream> = jobs
        .iter()
        .zip(1..)
        .map(|(&(_, seed), asid)| TaskStream::new(asid, seed))
        .collect();
    let mut hints = vec![0.0; jobs.len()];

    let t0 = Instant::now();
    for _ in 0..SAMPLE_EPOCHS {
        let mut slices: Vec<SliceRequest<'_>> = profiles
            .iter()
            .zip(&mut streams)
            .zip(&pus)
            .zip(&hints)
            .map(|(((profile, stream), &pu), &hint)| {
                SliceRequest::new(pu, profile, stream)
                    .cycles(cycles)
                    .cpi_hint(hint)
            })
            .collect();
        for (hint, out) in hints.iter_mut().zip(machine.execute_epoch(&mut slices)) {
            *hint = out.cycles as f64 / out.instructions.max(1) as f64;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let samples: u64 = streams.iter().map(TaskStream::drawn).sum();
    elapsed * 1e9 / samples as f64
}

/// The host CPU's model name with its family and model numbers, from the
/// first processor of `/proc/cpuinfo` (a virtual machine's name may be as
/// plain as "Intel(R) Xeon(R) Processor"); `unknown` where the file or the
/// name is missing.
fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        info.lines().find_map(|line| {
            let (k, v) = line.split_once(':')?;
            (k.trim() == key).then(|| v.trim().to_string())
        })
    };
    match (field("model name"), field("cpu family"), field("model")) {
        (Some(name), Some(family), Some(model)) => {
            format!("{name} (family {family} model {model})")
        }
        (Some(name), _, _) => name,
        _ => "unknown".to_string(),
    }
}

/// Seeds of the [`dag_build_ms`] median.
const DAG_BUILD_SEEDS: u64 = 5;

/// Median milliseconds of `ClusterScenario::build` over
/// [`DAG_BUILD_SEEDS`] seeds of a `random_dag` of 4,000 stages on 64
/// machines (the shape of the benchmark's `dag_lockstep` workload), wired
/// by [`pipelines::cluster_for`]. Only the build is timed: fleet-wide
/// dependency validation, edge classification and the 64 machine builds.
fn dag_build_ms() -> f64 {
    let ms = (0..DAG_BUILD_SEEDS)
        .map(|seed| {
            let cluster = pipelines::cluster_for(&random_dag(seed, 4000, 64), seed);
            let t0 = Instant::now();
            let session = cluster.build().expect("random DAGs are acyclic");
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            drop(session);
            dt
        })
        .collect();
    Spread::of(ms).median
}

fn main() {
    let mut check = false;
    let mut out_path = "BENCH_experiments.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else {
            out_path = arg;
        }
    }

    let mut entries: Vec<(&'static str, f64)> = Vec::new();
    let mut time = |name: &'static str, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        eprintln!("{name:>24}  {dt:7.2}s");
        entries.push((name, dt));
    };

    // Same seeds/scales as the regression tests, so these timings track
    // exactly what CI pays for.
    time("fig01_snapshot", &mut || {
        fig01_snapshot::run(3, 30, 5);
    });
    time("table1_fp_micro", &mut || {
        table1_fp_micro::run(5);
    });
    time("fig03_evolution", &mut || {
        fig03_evolution::run(7, 0.001);
    });
    time("fig06_07_phases", &mut || {
        fig06_07_phases::run(11, 0.02);
    });
    time("fig08_ipc_vs_insns", &mut || {
        fig08_ipc_vs_instructions::run(13, 0.02);
    });
    time("fig09_compilers", &mut || {
        fig09_compilers::run(17, 0.02);
    });
    time("fig10_datacenter", &mut || {
        fig10_datacenter::run(19, 0.01);
    });
    time("fig11_interference", &mut || {
        fig11_interference::run(23);
    });
    time("fleet", &mut || {
        fleet::run(31, 0.02);
    });
    time("relief", &mut || {
        relief::run(53, 0.01);
    });
    time("pipelines", &mut || {
        pipelines::run(7);
    });
    time("validation", &mut || {
        validation::run(29);
    });
    let mut scaling_result = None;
    time("scaling", &mut || {
        scaling_result = Some(scaling::run(47));
    });
    let scaling_result = scaling_result.expect("scaling ran");
    eprintln!("{}", scaling_result.report());
    // The three nodes alternate, so host drift spreads over all of them.
    let (mut lone, mut paired, mut dag) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SAMPLE_REPEATS {
        lone.push(machine_sample_ns(false));
        paired.push(machine_sample_ns(true));
        dag.push(machine_sample_dag_ns());
    }
    let sample_ns = Spread::of(lone);
    let sample_smt_ns = Spread::of(paired);
    let sample_dag_ns = Spread::of(dag);
    for (name, ns) in [
        ("machine_sample_ns", &sample_ns),
        ("machine_sample_smt_ns", &sample_smt_ns),
        ("machine_sample_dag_ns", &sample_dag_ns),
    ] {
        eprintln!(
            "{name:>24}  {:7.2}ns/sample (median of {SAMPLE_REPEATS}, {:.2}–{:.2})",
            ns.median, ns.min, ns.max
        );
    }
    let build_ms = dag_build_ms();
    eprintln!("{:>24}  {build_ms:7.2}ms", "dag_build_ms");

    let committed = std::fs::read_to_string(CLUSTER_JSON).ok();
    let prior_anchor_1t = committed.as_deref().and_then(|s| anchor_fps(s, 1));
    let prior_anchor_8t = committed.as_deref().and_then(|s| anchor_fps(s, 8));
    if !check {
        std::fs::write(CLUSTER_JSON, scaling_result.to_json()).expect("write cluster json");
        println!("wrote {CLUSTER_JSON}");
    }

    let total: f64 = entries.iter().map(|(_, t)| t).sum();
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"schema\": \"tiptop-bench-timing/1\",\n  \"profile\": \"{}\",\n",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    ));
    json.push_str("  \"experiments\": {\n");
    for (i, (name, t)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {t:.3}{comma}\n"));
    }
    json.push_str("  },\n");
    json.push_str(&format!("  \"total_seconds\": {total:.3},\n"));
    json.push_str(&format!(
        "  \"machine_sample_ns\": {},\n  \"machine_sample_smt_ns\": {},\n  \"machine_sample_dag_ns\": {},\n",
        sample_ns.json(),
        sample_smt_ns.json(),
        sample_dag_ns.json()
    ));
    // The hardware the cost lines ran on.
    json.push_str(&format!(
        "  \"sampler_kernels\": \"{}\",\n  \"cpu_model\": \"{}\",\n  \"available_parallelism\": {},\n",
        tiptop_machine::sampler_kernels(),
        cpu_model().escape_default(),
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    json.push_str(&format!("  \"dag_build_ms\": {build_ms:.2}\n}}\n"));

    std::fs::write(&out_path, &json).expect("write timing json");
    eprintln!("{:>24}  {total:7.2}s", "total");
    println!("wrote {out_path}");

    if check {
        let enforce = !cfg!(debug_assertions);
        if !enforce {
            eprintln!("--check: budgets are calibrated for release; reporting only");
        }
        let mut breaches = 0usize;
        for (name, measured) in &entries {
            let Some(budget) = budget_for(name) else {
                eprintln!("--check: no budget for '{name}' — add it to BASELINE_SECONDS");
                breaches += 1;
                continue;
            };
            if *measured > budget {
                eprintln!(
                    "--check: {name} took {measured:.3}s, budget {budget:.3}s \
                     (baseline +{:.0}% +{ABSOLUTE_SLACK_SECONDS}s)",
                    REGRESSION_ALLOWANCE * 100.0
                );
                breaches += 1;
            }
        }
        // Cluster throughput gates: the fresh 100-machine frames/sec must
        // stay within the allowance of the committed curve at both the
        // single-thread and the 8-thread arm (the latter guards the worker
        // pool's hand-off path specifically). Throughput (like the wall-time
        // budgets) is calibrated for release.
        if enforce {
            let mut gate = |threads: usize, prior: Option<f64>| match (
                prior,
                scaling_result.anchor_fps(threads),
            ) {
                (Some(prior), Some(fresh)) => {
                    let floor = prior * (1.0 - CLUSTER_REGRESSION_ALLOWANCE);
                    if fresh < floor {
                        eprintln!(
                            "--check: scaling 100-machine {threads}-thread throughput \
                                 {fresh:.0} f/s fell below {floor:.0} f/s \
                                 (committed {prior:.0} f/s -{:.0}%)",
                            CLUSTER_REGRESSION_ALLOWANCE * 100.0
                        );
                        breaches += 1;
                    }
                }
                _ => {
                    eprintln!(
                        "--check: no committed 100-machine {threads}-thread anchor in \
                             {CLUSTER_JSON} — refresh it with a plain (non---check) release run"
                    );
                    breaches += 1;
                }
            };
            gate(1, prior_anchor_1t);
            gate(8, prior_anchor_8t);
        }

        if breaches == 0 {
            eprintln!("--check: all {} experiments within budget", entries.len());
        } else if enforce {
            eprintln!("--check: {breaches} budget breach(es)");
            std::process::exit(1);
        }
    }
}
