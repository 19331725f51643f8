//! Process and host context: CPU time and peak RSS of this process, and
//! the host's steal time. These explain a noisy run; the benchmark never
//! drops or re-weights a run because of them.

use std::sync::OnceLock;
use std::time::Duration;

/// `struct rusage` on 64-bit Linux: two `timeval`s (user, system) of two
/// `i64` each, then fourteen `long` counters, the first of which is
/// `ru_maxrss` in KiB.
type Rusage = [i64; 18];

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

fn rusage(who: i32) -> Rusage {
    let mut r: Rusage = [0; 18];
    // SAFETY: `r` is a writable buffer with the size and alignment of the
    // C `struct rusage` on 64-bit Linux (18 eight-byte fields), which is
    // all `getrusage` writes.
    let rc = unsafe { getrusage(who, &mut r) };
    assert_eq!(rc, 0, "getrusage on this process or thread cannot fail");
    r
}

fn cpu_of(r: &Rusage) -> Duration {
    let us = (r[0] + r[2]) * 1_000_000 + r[1] + r[3];
    Duration::from_micros(us.max(0) as u64)
}

/// User plus system CPU time of the whole process (every thread).
pub fn process_cpu() -> Duration {
    cpu_of(&rusage(RUSAGE_SELF))
}

/// User plus system CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_of(&rusage(RUSAGE_THREAD))
}

/// Peak resident set of the process, in MB.
pub fn peak_rss_mb() -> f64 {
    rusage(RUSAGE_SELF)[4] as f64 / 1024.0
}

/// Makes every thread allocate from one glibc malloc arena. With one
/// arena per thread, which reactor worker's arena keeps the garbage of a
/// large request depends on scheduling, and the peak resident set of
/// identical `cold` epochs was either ≈ 105 or ≈ 140 MB. Call before any
/// thread starts.
pub fn single_malloc_arena() {
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets an allocator parameter; it takes no
    // pointers, and no other thread is allocating yet.
    let ok = unsafe { mallopt(M_ARENA_MAX, 1) };
    assert_eq!(ok, 1, "glibc accepts M_ARENA_MAX");
}

/// Host steal seconds since the first call (the `steal` column of
/// `/proc/stat`), when the file is readable.
pub fn steal_since_start() -> Option<f64> {
    static AT_START: OnceLock<Option<f64>> = OnceLock::new();
    let start = *AT_START.get_or_init(steal_seconds);
    Some(steal_seconds()? - start?)
}

fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI this runs on.
    Some(steal / 100.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
