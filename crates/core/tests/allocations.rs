//! Steady-state heap allocations of the frame path, counted by a counting
//! global allocator that wraps `System`: per scheduler epoch (the kernel's
//! `advance`, counters attached) and per displayed row (a tiptop refresh),
//! on a compute-only machine with 3 and 6 tasks.
//!
//! Allocation counts do not depend on the host, so unlike a timing they
//! can be pinned exactly. The bounds are `≤` and hold in debug and release
//! builds. Counts are per thread, so tests running in parallel do not see
//! each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tiptop_core::app::{Tiptop, TiptopOptions};
use tiptop_core::config::ScreenConfig;
use tiptop_kernel::kernel::{Kernel, KernelConfig};
use tiptop_kernel::program::Program;
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_machine::config::MachineConfig;
use tiptop_machine::exec::ExecProfile;
use tiptop_machine::time::SimDuration;

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
/// run until every buffer has reached its steady size.
fn warm(tasks: usize) -> (Kernel, Tiptop) {
    let mut k = Kernel::new(KernelConfig::new(MachineConfig::nehalem_w3550().noiseless()).seed(3));
    k.add_user(Uid(1), "u1");
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
fn steady(tasks: usize) -> (f64, f64, usize) {
    let (mut k, mut tiptop) = warm(tasks);
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

#[test]
fn steady_state_epochs_and_rows_allocate_within_their_bounds() {
    let (epoch3, refresh3, rows3) = steady(3);
    let (epoch6, refresh6, rows6) = steady(6);
    assert_eq!((rows3, rows6), (3, 6), "one row per task");
    // What one more row costs, and what a refresh costs besides its rows.
    let per_row = (refresh6 - refresh3) / 3.0;
    let per_refresh = refresh3 - 3.0 * per_row;
    println!(
        "per epoch: {epoch3} (3 tasks), {epoch6} (6 tasks); per refresh: {refresh3} (3 rows), \
         {refresh6} (6 rows); per row {per_row}, fixed per refresh {per_refresh}"
    );
    // An epoch reuses the engine's, the machine's and the kernel's buffers.
    assert!(
        epoch3 <= 0.0 && epoch6 <= 0.0,
        "per epoch: {epoch3}, {epoch6}"
    );
    // A row's typed values are its one allocation: user and command are
    // the kernel's labels, and cells format only when rendered.
    assert!(per_row <= 1.0, "per row: {per_row}");
    // The frame's row vector.
    assert!(per_refresh <= 1.0, "fixed per refresh: {per_refresh}");
}
