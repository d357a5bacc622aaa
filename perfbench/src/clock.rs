//! Host clocks and memory: per-thread and per-process CPU time through
//! `clock_gettime`, and peak resident memory from `/proc/self/status`.
//!
//! `/proc/thread-self/schedstat` would give per-thread run time too, but it
//! reads zero on kernels with schedstats disabled; the CPU-time clocks are
//! always maintained.

use std::os::raw::{c_int, c_long};

/// `struct timespec` on Linux (glibc and musl, default time bits).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn cpu_seconds(clock_id: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly aligned `timespec` the call writes
    // into, and both clock ids are valid on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds (user + sys) consumed so far by every thread of this
/// process, exited threads included.
pub fn process_cpu_s() -> f64 {
    cpu_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds consumed so far by the calling thread (zero at its spawn).
pub fn thread_cpu_s() -> f64 {
    cpu_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported in kB");
    kib / 1024.0
}
