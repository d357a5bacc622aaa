//! End-to-end tour of the `Scenario`/`Monitor` session API: declare a
//! machine and a timed workload, then drive tiptop and `top` side-by-side
//! over the same live kernel — the paper's Figure 1 shape in miniature.
//! Ends with the cluster layer: two independent machines driven
//! concurrently on a worker pool, their frames merged into one
//! deterministic timeline.
//!
//! Run with: `cargo run --example quickstart`

use tiptop::prelude::*;
use tiptop_machine::access::MemoryBehavior;
use tiptop_machine::exec::ExecProfile;

fn job(name: &str, base_cpi: f64, footprint: u64) -> Program {
    Program::endless(
        ExecProfile::builder(name)
            .base_cpi(base_cpi)
            .loads_per_insn(0.24)
            .stores_per_insn(0.08)
            .branches(0.16, 0.012)
            .memory(MemoryBehavior::uniform(footprint))
            .build(),
    )
}

fn main() {
    // A Nehalem workstation, two users, three jobs — one of which is
    // killed mid-run and one reniced, declared up front as timed events.
    let mut session = Scenario::new(MachineConfig::nehalem_w3550())
        .seed(42)
        .user(Uid(1000), "alice")
        .user(Uid(1001), "bob")
        .spawn(
            "fast",
            SpawnSpec::new("fast", Uid(1000), job("fast", 0.45, 16 << 10)),
        )
        .spawn(
            "slow",
            SpawnSpec::new("slow", Uid(1001), job("slow", 1.40, 24 << 20)),
        )
        .spawn_at(
            SimTime::from_secs(4),
            "late",
            SpawnSpec::new("late", Uid(1000), job("late", 0.80, 64 << 10)),
        )
        .renice_at(SimTime::from_secs(6), "slow", 10)
        .kill_at(SimTime::from_secs(8), "fast")
        .build()
        .expect("well-formed scenario");

    // Two monitors over the same kernel: tiptop (counters) and top (%CPU
    // only: the same tool on a screen that reads no counters). Frames
    // stream to a closure sink as they are observed.
    let mut tiptop_tool = Tiptop::new(
        TiptopOptions::default().delay(SimDuration::from_secs(2)),
        ScreenConfig::default_screen(),
    );
    let mut top_tool = Tiptop::new(
        TiptopOptions::default().delay(SimDuration::from_secs(5)),
        ScreenConfig::top_screen(),
    );

    let mut sink = |source: &str, frame: Frame| {
        println!("--- {source} @ t={:.0}s ---", frame.time.as_secs_f64());
        print!("{}", frame.render());
        println!();
    };
    session
        .run_all(&mut [&mut tiptop_tool, &mut top_tool], 5, &mut sink)
        .expect("events are consistent with the schedule");

    // The session resolves tags to pids; inspect the aftermath directly.
    let fast = session.pid("fast").expect("spawned at t=0");
    let rec = session.kernel().exit_record(fast).expect("killed at t=8");
    println!(
        "fast (pid {}) retired {} instructions in {:.1}s before the kill",
        fast.0,
        rec.total_instructions,
        (rec.end_time - rec.start_time).as_secs_f64()
    );
    session.teardown(&mut tiptop_tool);

    // --- The cluster layer: the same API across N machines ---
    // Two independent nodes run concurrently on two worker threads; the
    // merged stream is ordered by (sim-time, machine) and is byte-identical
    // at any thread count.
    let node = |seed: u64, cpi: f64| {
        Scenario::new(MachineConfig::nehalem_w3550())
            .seed(seed)
            .user(Uid(1000), "alice")
            .spawn(
                "spin",
                SpawnSpec::new("spin", Uid(1000), job("spin", cpi, 16 << 10)),
            )
    };
    let mut cluster = ClusterScenario::new()
        .machine("node-a", node(7, 0.6))
        .machine("node-b", node(8, 1.2))
        .build()
        .expect("well-formed cluster");
    let tiptop = || {
        Tiptop::new(
            TiptopOptions::default().delay(SimDuration::from_secs(2)),
            ScreenConfig::default_screen(),
        )
    };
    let mut sink = ClusterCollectSink::new();
    cluster
        .run(
            2,
            3,
            |_| vec![(Box::new(tiptop()), None)],
            &mut [],
            &mut sink,
        )
        .expect("healthy shards");
    let frames = sink.into_frames();
    println!(
        "--- cluster: {} merged frames from 2 machines on 2 workers ---",
        frames.len()
    );
    for cf in &frames {
        let row = cf.frame.row_for_comm("spin").expect("spin visible");
        println!(
            "t={:>2.0}s [{}] spin IPC {:.2}",
            cf.frame.time.as_secs_f64(),
            cf.machine,
            row.value("IPC").unwrap_or(f64::NAN)
        );
    }
}
