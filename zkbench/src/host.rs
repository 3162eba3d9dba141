//! What the benchmark reads from the machine it runs on: this process's CPU
//! time and peak memory, and the environment record stored with every
//! result.

use std::ffi::{c_int, c_long};
use std::fs;
use std::path::Path;

use zkspeed::rt::JsonValue;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at
/// 100 on every Linux architecture the workspace builds on).
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process has consumed, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis, which puts utime and stime at 11 and 12.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks() + ticks()) / CLOCK_TICKS_PER_SECOND
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_THREAD_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
/// Words of the CPU masks passed to the affinity calls: 1024 CPUs.
const CPU_MASK_WORDS: usize = 16;

// The C library `std` already links; `/proc` has neither a thread CPU clock
// finer than a scheduler tick nor a way to set affinity.
extern "C" {
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, bytes: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, bytes: usize, mask: *const u64) -> c_int;
}

/// CPU seconds the calling thread has consumed, to the nanosecond: what a
/// stretch of code cost however often the thread was preempted meanwhile.
pub fn thread_cpu_seconds() -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a live, writable `struct timespec` (two C longs on
    // 64-bit Linux), which is all `clock_gettime` writes to.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "the thread CPU clock exists on Linux");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// Restricts the calling thread, and every thread it starts from now on, to
/// the last of the CPUs it may run on; that CPU, or `None` when the kernel
/// refuses. Call it before starting threads.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` writable bytes; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|w| *w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; CPU_MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is `bytes` readable bytes; pid 0 is the calling thread.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The 1-minute load average.
pub fn load_average() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out above the benchmark's directory, read from
/// `.git` without running git; `unknown` in a checkout that is not a
/// repository.
fn git_sha(repo: &Path) -> String {
    let git = repo.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if sha.is_empty() {
        "unknown".into()
    } else {
        sha
    }
}

/// The environment record stored with a result: commit, cores, CPU model,
/// the pinned thread count and the load average when recording started.
pub fn environment(repo: &Path, threads: usize) -> Vec<(String, JsonValue)> {
    vec![
        ("git_sha".into(), JsonValue::Str(git_sha(repo))),
        ("nproc".into(), JsonValue::UInt(cores() as u64)),
        ("cpu_model".into(), JsonValue::Str(cpu_model())),
        ("threads".into(), JsonValue::UInt(threads as u64)),
        ("load_1m_start".into(), JsonValue::Float(load_average())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_values() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cores() >= 1);
        let before = cpu_seconds();
        let start = std::time::Instant::now();
        while cpu_seconds() == before && start.elapsed().as_secs() < 2 {
            std::hint::spin_loop();
        }
        assert!(cpu_seconds() > before, "CPU time must advance under load");
        let thread = thread_cpu_seconds();
        assert!(thread > 0.0 && thread <= start.elapsed().as_secs_f64() + cpu_seconds());
    }
}
