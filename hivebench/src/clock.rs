//! The benchmark's own clocks: process and thread CPU time from
//! `clock_gettime`, and peak resident memory from `/proc/self/status`.
//! Nothing here reads a time the engine reports about itself.

use std::ffi::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    // std links the C library on Linux, so no crate is needed for these.
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
    fn malloc_trim(pad: usize) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn cpu_seconds(clock_id: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // 64-bit Linux) that outlives the call, and `clock_id` is one of the
    // CPU-time clocks every Linux kernel supports.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds consumed so far by every thread of this process.
pub fn process_cpu_s() -> f64 {
    cpu_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds consumed so far by the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// Reset the kernel's peak-RSS mark (`VmHWM`) to the current RSS. Returns
/// false when the kernel refused, in which case the later peak covers the
/// whole process lifetime.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Return freed heap pages to the kernel, so memory the benchmark used
/// for generated rows does not count in the program's peak RSS.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` only releases free memory at the top of the
    // heap and in free chunks; it takes no pointers and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_s() > t0);
        assert!(process_cpu_s() > p0);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mib().expect("VmHWM in /proc/self/status") > 0.0);
    }
}
