//! What the benchmark asks of the host OS and nothing of the libraries:
//! CPU pinning, `getrusage`, `VmHWM`, a counting allocator, the three
//! calibration probes and the sample statistics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
compile_error!("hostbench needs Linux with glibc: getrusage, sched_setaffinity, mallopt, /proc");

/// Cost of one OS context switch on the reference box when it is quiet,
/// in microseconds. The estimator reports every timing as if a switch
/// cost exactly this much (see `corrected_s`); changing it rescales
/// every `host_us_per_op`, so it changes only together with a fresh
/// baseline.
pub const CS_REF_US: f64 = 1.35;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
    longs: [i64; 14],
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Process-wide resource counters (`RUSAGE_SELF`: every thread, exited
/// ones included).
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// Voluntary plus involuntary context switches.
    pub switches: u64,
    pub user_s: f64,
    pub sys_s: f64,
}

pub fn usage() -> Usage {
    let mut ru = std::mem::MaybeUninit::<RUsage>::zeroed();
    // SAFETY: `ru` is a writable buffer of the size and layout the
    // kernel's `struct rusage` has on 64-bit Linux; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, ru.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    // SAFETY: getrusage returned 0, so it filled the whole struct.
    let ru = unsafe { ru.assume_init() };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        switches: (ru.longs[12] + ru.longs[13]) as u64,
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
    }
}

/// Pin the calling thread, and so every thread it later spawns, to the
/// highest-numbered CPU it may run on. The kernel under test runs one
/// simulated thread at a time; a second core only adds wake-up latency.
pub fn pin_to_one_cpu() -> usize {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of the byte size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    assert!(rc == 0, "sched_getaffinity failed");
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .expect("the affinity mask of a running thread is never empty");
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of the byte size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    assert!(rc == 0, "sched_setaffinity to cpu {cpu} failed");
    cpu
}

/// Keep every allocation of the process in glibc's main arena. By default
/// each new OS thread may get an arena of its own, and which one depends
/// on how fast earlier threads exited; freed blocks stay with their
/// arena, so the peak resident set of identical runs differed by 40 %
/// (README, "One malloc arena"). The kernel under test runs one
/// simulated thread at a time, so one arena costs no parallelism.
pub fn one_malloc_arena() {
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: mallopt only stores a tunable; called before any other
    // thread exists.
    let ok = unsafe { mallopt(M_ARENA_MAX, 1) };
    assert!(ok == 1, "mallopt(M_ARENA_MAX, 1) was refused");
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

// ---------------------------------------------------------------------
// Counting allocator: calls and bytes requested, process-wide.
// ---------------------------------------------------------------------

pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counters are statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// (allocation calls, bytes requested) since process start.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------
// Calibration probes. None of them calls library code.
// ---------------------------------------------------------------------

const CS_PROBE_THREADS: usize = 8;
const CS_PROBE_HANDOFFS: usize = 6000;

/// Cost of one OS context switch right now, in microseconds: eight raw
/// threads on the pinned CPU pass a token through one `Mutex` and a
/// `Condvar` each, so every hand-off parks one thread and wakes another;
/// the elapsed time is divided by the switches `getrusage` counted.
/// Eight threads rather than two because a switch between two threads
/// that keep each other's cache lines warm costs about 0.8 of one among
/// the simulator's many.
pub fn cs_probe_us() -> f64 {
    let turn = Mutex::new(0usize);
    let cvs: Vec<Condvar> = (0..CS_PROBE_THREADS).map(|_| Condvar::new()).collect();
    let before = usage();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for me in 0..CS_PROBE_THREADS {
            let (turn, cvs) = (&turn, &cvs);
            s.spawn(move || loop {
                let mut t = turn.lock().expect("probe threads never panic");
                while *t < CS_PROBE_HANDOFFS && *t % CS_PROBE_THREADS != me {
                    t = cvs[me].wait(t).expect("probe threads never panic");
                }
                if *t >= CS_PROBE_HANDOFFS {
                    // Pass the stop on so every thread leaves its wait.
                    cvs[(me + 1) % CS_PROBE_THREADS].notify_one();
                    return;
                }
                *t += 1;
                cvs[(me + 1) % CS_PROBE_THREADS].notify_one();
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let switches = usage().switches - before.switches;
    elapsed * 1e6 / switches.max(1) as f64
}

/// Large-copy bandwidth right now, GiB/s: 4 MiB `memcpy`, 16 times.
pub fn copy_probe_gib_s() -> f64 {
    const LEN: usize = 4 << 20;
    const ROUNDS: usize = 16;
    let src = vec![0x5Au8; LEN];
    let mut dst = vec![0u8; LEN];
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
    }
    (LEN * ROUNDS) as f64 / (1u64 << 30) as f64 / t0.elapsed().as_secs_f64()
}

/// Time of a fixed register-only loop right now, in milliseconds.
pub fn alu_probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..4_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------
// Timed sections and the estimator.
// ---------------------------------------------------------------------

/// One timed section: wall time, the process's context switches, CPU
/// time and allocator traffic inside it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    pub wall_s: f64,
    pub switches: u64,
    pub user_s: f64,
    pub sys_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

pub fn timed<R>(f: impl FnOnce() -> R) -> (Timed, R) {
    let (a0, b0) = alloc_counters();
    let u0 = usage();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let u1 = usage();
    let (a1, b1) = alloc_counters();
    (
        Timed {
            wall_s,
            switches: u1.switches - u0.switches,
            user_s: u1.user_s - u0.user_s,
            sys_s: u1.sys_s - u0.sys_s,
            allocs: a1 - a0,
            alloc_bytes: b1 - b0,
        },
        out,
    )
}

/// The estimator: the section's wall time had each of its counted
/// context switches cost `CS_REF_US` instead of what the probes around
/// it measured. A subtraction of a counted quantity, not a fit; it is
/// nil for a section that does not switch.
pub fn corrected_s(t: &Timed, cs_before_us: f64, cs_after_us: f64) -> f64 {
    let cs_us = 0.5 * (cs_before_us + cs_after_us);
    t.wall_s - t.switches as f64 * (cs_us - CS_REF_US) * 1e-6
}

// ---------------------------------------------------------------------
// Sample statistics.
// ---------------------------------------------------------------------

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistic of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

pub fn p90(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        let ten: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(p90(&ten), 9.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn correction_subtracts_only_the_counted_switches() {
        let t = Timed {
            wall_s: 1.0,
            switches: 100_000,
            ..Timed::default()
        };
        // At the reference cost nothing changes.
        assert_eq!(corrected_s(&t, CS_REF_US, CS_REF_US), 1.0);
        // 100k switches that each cost 1 us more than the reference.
        let slow = corrected_s(&t, CS_REF_US + 0.5, CS_REF_US + 1.5);
        assert!((slow - 0.9).abs() < 1e-12, "{slow}");
        // A section that does not switch is not corrected.
        let still = Timed { switches: 0, ..t };
        assert_eq!(corrected_s(&still, 9.0, 9.0), 1.0);
    }

    #[test]
    fn switch_probe_switches() {
        let before = usage().switches;
        let us = cs_probe_us();
        assert!(usage().switches - before >= CS_PROBE_HANDOFFS as u64 / 2);
        assert!(us > 0.05 && us < 500.0, "{us} us per switch");
    }
}
