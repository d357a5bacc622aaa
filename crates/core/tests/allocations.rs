//! Steady-state heap allocations of the frame path, counted by a counting
//! global allocator that wraps `System`: per scheduler epoch (the kernel's
//! `advance`, counters attached) and per displayed row (a tiptop refresh),
//! on a compute-only machine with 3 and 6 tasks, with and without a
//! registered user name; and per frame folded by the cluster window sink.
//!
//! Allocation counts do not depend on the host, so unlike a timing they
//! can be pinned exactly. The bounds are `≤` and hold in debug and release
//! builds. Counts are per thread, so tests running in parallel do not see
//! each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tiptop_core::app::{Tiptop, TiptopOptions};
use tiptop_core::cluster::{ClusterFrame, ClusterFrameSink, ClusterWindowSink};
use tiptop_core::config::ScreenConfig;
use tiptop_core::render::{values_of, Frame, Row};
use tiptop_core::symbols::Label;
use tiptop_kernel::kernel::{Kernel, KernelConfig};
use tiptop_kernel::program::Program;
use tiptop_kernel::task::Pid;
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_machine::config::MachineConfig;
use tiptop_machine::exec::ExecProfile;
use tiptop_machine::time::{SimDuration, SimTime};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (reallocations included) `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

/// Refresh interval, and the epochs (20 ms each) between two refreshes.
const DELAY_S: u64 = 1;
const EPOCHS_PER_REFRESH: u64 = 50;
const REFRESHES: u64 = 8;

/// A machine with `tasks` endless compute-only jobs (no loads or stores,
/// so cache sampling has nothing to draw) watched by the default screen,
/// run until every buffer has reached its steady size. The jobs' user has
/// a registered name if `named`, else rows show its number.
fn warm(tasks: usize, named: bool) -> (Kernel, Tiptop) {
    let mut k = Kernel::new(KernelConfig::new(MachineConfig::nehalem_w3550().noiseless()).seed(3));
    if named {
        k.add_user(Uid(1), "u1");
    }
    for j in 0..tasks {
        let profile = ExecProfile::builder("light")
            .base_cpi(0.6 + 0.1 * j as f64)
            .loads_per_insn(0.0)
            .stores_per_insn(0.0)
            .build();
        k.spawn(
            SpawnSpec::new(format!("light-{j}"), Uid(1), Program::endless(profile)).seed(j as u64),
        );
    }
    let mut tiptop = Tiptop::new(
        TiptopOptions::default().delay(SimDuration::from_secs(DELAY_S)),
        ScreenConfig::default_screen(),
    );
    for _ in 0..4 {
        tiptop.refresh(&mut k);
        k.advance(SimDuration::from_secs(DELAY_S));
    }
    (k, tiptop)
}

/// Steady-state allocations per epoch and per refresh, with the rows shown.
fn steady(tasks: usize, named: bool) -> (f64, f64, usize) {
    let (mut k, mut tiptop) = warm(tasks, named);
    let (mut epochs, mut refreshes, mut rows) = (0, 0, 0);
    for _ in 0..REFRESHES {
        let (n, frame) = allocations(|| tiptop.refresh(&mut k));
        refreshes += n;
        rows = frame.rows.len();
        drop(frame);
        epochs += allocations(|| k.advance(SimDuration::from_secs(DELAY_S))).0;
    }
    (
        epochs as f64 / (REFRESHES * EPOCHS_PER_REFRESH) as f64,
        refreshes as f64 / REFRESHES as f64,
        rows,
    )
}

/// Checks the steady-state bounds with or without a registered user name.
fn epochs_and_rows_within_bounds(named: bool) {
    let (epoch3, refresh3, rows3) = steady(3, named);
    let (epoch6, refresh6, rows6) = steady(6, named);
    assert_eq!((rows3, rows6), (3, 6), "one row per task");
    // What one more row costs, and what a refresh costs besides its rows.
    let per_row = (refresh6 - refresh3) / 3.0;
    let per_refresh = refresh3 - 3.0 * per_row;
    println!(
        "named user {named}: per epoch: {epoch3} (3 tasks), {epoch6} (6 tasks); per refresh: \
         {refresh3} (3 rows), {refresh6} (6 rows); per row {per_row}, fixed per refresh \
         {per_refresh}"
    );
    // An epoch reuses the engine's, the machine's and the kernel's buffers.
    assert!(
        epoch3 <= 0.0 && epoch6 <= 0.0,
        "per epoch: {epoch3}, {epoch6}"
    );
    // A row allocates nothing: its typed values are inline, user and
    // command are the kernel's labels (a number-named user's too), and
    // cells format only when rendered.
    assert!(per_row <= 0.0, "per row: {per_row}");
    // The frame's row vector.
    assert!(per_refresh <= 1.0, "fixed per refresh: {per_refresh}");
}

#[test]
fn steady_state_epochs_and_rows_allocate_within_their_bounds() {
    epochs_and_rows_within_bounds(true);
}

#[test]
fn rows_of_an_unregistered_uid_allocate_nothing() {
    epochs_and_rows_within_bounds(false);
}

/// Sources per window and frames per source in the window-fold case.
const SOURCES: usize = 16;
const FRAMES_PER_SOURCE: usize = 4;

/// One window's frames: every source in turn, `FRAMES_PER_SOURCE` times,
/// each frame with three rows of the default screen's five values.
fn window_frames(window: u64) -> Vec<ClusterFrame> {
    let source = Label::interned("tiptop");
    let machines: Vec<Label> = (0..SOURCES)
        .map(|m| Label::interned(format!("fold-m{m:02}")))
        .collect();
    let mut frames = Vec::new();
    for seq in 0..FRAMES_PER_SOURCE {
        for (index, machine) in machines.iter().enumerate() {
            let rows = (0..3)
                .map(|j| {
                    let values = values_of([
                        ("Mcycle", 30.0 + j as f64),
                        ("Minst", 40.0),
                        ("IPC", 1.3),
                        ("DMIS", 0.0),
                        ("%CPU", 100.0),
                    ]);
                    Row::new(Pid(100 + j), "u1", "light", 100.0, Vec::new(), values)
                })
                .collect();
            frames.push(ClusterFrame {
                machine: machine.clone(),
                machine_index: index,
                source: source.clone(),
                seq,
                frame: Frame {
                    time: SimTime::from_secs(window * 10 + seq as u64),
                    headers: Vec::new().into(),
                    rows,
                    unobservable: 0,
                },
            });
        }
    }
    frames
}

#[test]
fn a_window_of_known_sources_allocates_only_its_summary() {
    let frames_per_window = SOURCES * FRAMES_PER_SOURCE;
    let mut sink = ClusterWindowSink::new(frames_per_window);
    // The first window meets every source; the second repeats them.
    for frame in window_frames(0) {
        sink.on_frame(frame);
    }
    let mut frames = window_frames(1);
    let closing = frames.pop().expect("a full window");
    let mut folds = 0;
    for frame in frames {
        folds += allocations(|| sink.on_frame(frame)).0;
    }
    let (close, ()) = allocations(|| sink.on_frame(closing));
    println!(
        "window fold: {folds} allocations over {} frames before the close, {close} at the \
         close of {SOURCES} sources; {} per folded frame",
        frames_per_window - 1,
        (folds + close) as f64 / frames_per_window as f64
    );
    assert_eq!(sink.windows().len(), 2, "two windows closed");
    // Folding into a known source touches only the reused open table.
    assert_eq!(folds, 0, "allocations before the close");
    // The retained summary: per source its sums (its key shares the
    // stream's two labels), plus the map's nodes and the window list.
    let bound = SOURCES as u64 + 6;
    assert!(close <= bound, "close: {close} > {bound}");
}
