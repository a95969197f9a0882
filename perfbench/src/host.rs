//! What the benchmark needs from the host: process memory figures, pinning
//! to a fixed number of CPUs, and the calibration kernel that measures how fast the host
//! is running right now (why: "Steady numbers on a shared host" in the
//! [crate] docs).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// A `/proc/self/status` field in kB.
pub fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets the process's peak-RSS mark (`VmHWM`) to its current RSS and
/// returns that RSS in kB; `None` where the kernel does not allow it.
pub fn reset_peak_rss() -> Option<u64> {
    std::fs::write("/proc/self/clear_refs", "5").ok()?;
    status_kb("VmRSS")
}

/// Words in a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the `n` highest-numbered CPUs it may run on (all of them if it may run
/// on fewer). Call before starting threads. Returns how many CPUs it got.
pub fn pin_to_cpus(n: usize) -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is writable and exactly `size_of_val(&mask)` bytes
    // long, the size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let mut chosen = [0u64; CPU_SET_WORDS];
    let mut got = 0;
    for cpu in (0..CPU_SET_WORDS * 64).rev() {
        if got < n && mask[cpu / 64] & (1 << (cpu % 64)) != 0 {
            chosen[cpu / 64] |= 1 << (cpu % 64);
            got += 1;
        }
    }
    if got == 0 {
        return Err("the affinity mask is empty".into());
    }
    // SAFETY: `chosen` is readable and exactly the size passed; pid 0 names
    // the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&chosen), chosen.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(got)
}

/// The calibration kernel's time on the reference host, s: a time `t`
/// measured next to a kernel time `k` is reported as `t * CAL_REF_S / k`,
/// seconds on a host running at the reference speed.
pub const CAL_REF_S: f64 = 0.025;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A discrete-event loop over a binary heap of 64 Ki pending events: pop
/// the earliest, push it back a pseudo-random delay later. It has an event
/// queue's memory and branch behaviour, and it is the benchmark's own
/// code, so no change to the program moves it.
fn calibration_kernel() -> u64 {
    let mut s = 0x2545_f491_4f6c_dd1d_u64;
    let mut heap = BinaryHeap::with_capacity(1 << 16);
    for id in 0..1u64 << 16 {
        heap.push(Reverse((xorshift(&mut s) % 1_000_000, id)));
    }
    let mut acc = 0u64;
    for _ in 0..200_000 {
        let Reverse((t, id)) = heap.pop().expect("the heap never empties");
        acc ^= id ^ t;
        heap.push(Reverse((t + 1 + xorshift(&mut s) % 10_000, id)));
    }
    acc
}

/// Times one run of the calibration kernel, s.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    std::hint::black_box(calibration_kernel());
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_timed() {
        assert_eq!(calibration_kernel(), calibration_kernel());
        assert!(calibrate() > 0.0);
    }

    #[test]
    fn pinning_leaves_the_cpus_asked_for() {
        // On a thread of its own: the mask sticks to the calling thread.
        let pinned = std::thread::spawn(|| {
            let got = pin_to_cpus(1);
            (
                got,
                std::thread::available_parallelism().map(|n| n.get()).ok(),
            )
        })
        .join()
        .unwrap();
        assert_eq!(pinned, (Ok(1), Some(1)));
    }

    #[test]
    fn status_fields_are_read() {
        assert!(status_kb("VmRSS").is_some_and(|kb| kb > 0));
        assert!(status_kb("NoSuchField").is_none());
    }
}
