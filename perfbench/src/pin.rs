//! Worker placement. Left to the scheduler, the two federation members'
//! worker threads of `tenant_serve` sometimes share one CPU for a whole
//! run while the other CPU idles, and the run then ingests at about
//! half the rate of a run where they do not. The benchmark therefore
//! pins each engine worker thread (`mpp-shard-*`) to its own CPU,
//! round-robin over the CPUs the process may use; the generator thread
//! and the log writer stay unpinned.

use std::fs;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, lowest first.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the kernel writes at most `size` bytes into `mask`, which
    // is exactly that large.
    let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Pins every live engine worker thread of this process to one CPU,
/// the `i`-th oldest to the `i`-th allowed CPU (wrapping). A worker
/// names itself when it starts, so call this after a round trip to
/// every worker. Does nothing where the CPUs or threads cannot be read.
pub fn pin_workers() {
    let cpus = allowed_cpus();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return;
    };
    let mut workers: Vec<i32> = tasks
        .filter_map(|t| {
            let t = t.ok()?;
            let tid = t.file_name().to_str()?.parse().ok()?;
            let comm = fs::read_to_string(t.path().join("comm")).ok()?;
            comm.starts_with("mpp-shard").then_some(tid)
        })
        .collect();
    workers.sort_unstable();
    for (i, &tid) in workers.iter().enumerate() {
        let Some(&cpu) = cpus.get(i % cpus.len().max(1)) else {
            return;
        };
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a full `cpu_set_t` naming one allowed CPU.
        unsafe {
            sched_setaffinity(tid, MASK_WORDS * 8, mask.as_ptr());
        }
    }
}
