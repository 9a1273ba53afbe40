//! Pins the calling thread, and every thread it starts afterwards, to one
//! CPU, so a client and an in-process server hand each request over on
//! one core instead of waking each other across cores.

use std::io;

/// Words of glibc's `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to the lowest CPU it may run on; returns it.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut allowed = [0u64; WORDS];
    // SAFETY: pid 0 names the calling thread, and `allowed` is a live,
    // writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..WORDS * 64)
        .find(|&cpu| allowed[cpu / 64] & (1 << (cpu % 64)) != 0)
        .ok_or_else(|| io::Error::other("no CPU in the affinity mask"))?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread, and `one` is a live buffer
    // of exactly the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}
