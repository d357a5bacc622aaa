//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for the time budget and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics untraced, the per-layer ones with
//! `--trace 1`). The line before it records the host. Exits non-zero when
//! any check failed. `--record` instead prints the seed's golden digest
//! line for `goldens.txt`; `--setup-only` prints this process's median
//! set-up time.

use std::process::{Command, ExitCode};

use perfbench::bench::{self, Config};
use perfbench::workloads::{default_threads, machines, run_rep, Sizes, Workload};

/// Recorded output digests: `<workload> <seed> <digest>` per line, taken
/// at [`Sizes::FULL`].
const GOLDENS: &str = include_str!("../goldens.txt");

fn golden(workload: Workload, seed: u64) -> Option<u64> {
    GOLDENS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload.name() && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// The median set-up time measured in a fresh process. How fast a build
/// runs differs by up to 2x from one process to the next (and over a few
/// seconds of host time) while holding steady within a process, so each
/// set-up sample comes from its own process.
fn setup_in_process(args: &Args) -> f64 {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let out = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed", &args.seed.to_string()])
        .arg("--setup-only")
        .output()
        .expect("the set-up process starts");
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse()) {
        (true, Ok(s)) => s,
        _ => panic!("set-up process failed: {}", out.status),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut record = false;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--record" => {
                record = true;
                continue;
            }
            "--setup-only" => {
                setup_only = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        record,
        setup_only,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let sizes = Sizes::FULL;
    let threads = default_threads(machines(args.workload, &sizes));
    if args.record {
        let rep = run_rep(args.workload, &sizes, args.seed, threads, false);
        if !rep.failures.is_empty() {
            eprintln!("perfbench: not recording a failing run: {:?}", rep.failures);
            return ExitCode::FAILURE;
        }
        println!("{} {} {:016x}", args.workload.name(), args.seed, rep.digest);
        return ExitCode::SUCCESS;
    }
    if args.setup_only {
        println!("{}", bench::setup_median(args.workload, &sizes, args.seed));
        return ExitCode::SUCCESS;
    }

    let cfg = Config {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes,
        threads,
        golden: golden(args.workload, args.seed),
    };
    let out = bench::run(&cfg, &mut || setup_in_process(&args));
    for f in &out.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    println!(
        "{{\"host\": {{\"available_parallelism\": {}, \"cpu_model\": \"{}\", \"build_profile\": \"{}\", \
         \"threads\": {threads}, \"workload\": \"{}\", \"seed\": {}, \"reps\": {}, \
         \"digest\": \"{:016x}\", \"golden_recorded\": {}}}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model().replace('"', "'"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.workload.name(),
        args.seed,
        out.reps,
        out.digest,
        cfg.golden.is_some(),
    );
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
