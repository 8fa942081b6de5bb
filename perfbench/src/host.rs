//! What a result needs to be read on another machine: cores, caches, peak
//! memory and the commit measured.

use std::os::raw::{c_int, c_long};

extern "C" {
    fn sysconf(name: c_int) -> c_long;
    fn getrusage(who: c_int, usage: *mut c_long) -> c_int;
}

// glibc `sysconf` names for the data-cache sizes.
const SC_LEVEL1_DCACHE_SIZE: c_int = 188;
const SC_LEVEL2_CACHE_SIZE: c_int = 191;
const SC_LEVEL3_CACHE_SIZE: c_int = 194;
const RUSAGE_SELF: c_int = 0;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// L1d, L2 and L3 sizes in bytes (0 where the C library does not know).
pub fn cache_bytes() -> [u64; 3] {
    [
        SC_LEVEL1_DCACHE_SIZE,
        SC_LEVEL2_CACHE_SIZE,
        SC_LEVEL3_CACHE_SIZE,
    ]
    .map(|name| {
        // SAFETY: sysconf takes any name and returns -1 for unknown ones.
        let v = unsafe { sysconf(name) };
        u64::try_from(v).unwrap_or(0)
    })
}

/// Peak resident set of this process so far (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (4 longs) followed by
    // 14 longs, the first of which is `ru_maxrss` in KiB.
    let mut usage = [0 as c_long; 18];
    // SAFETY: the buffer is as large as `struct rusage` and writable.
    let rc = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage[4] as f64 / 1024.0
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; `unknown` in an exported tree.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}
