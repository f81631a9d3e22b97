//! Confines the run to one CPU.
//!
//! A request makes six thread hops (client → mux driver → reactor → worker
//! and back). Spread over the sandbox's two virtual CPUs, every hop wakes a
//! thread on a CPU that is either halted — and leaving the halt costs a
//! virtual machine more than the hop itself — or busy. Which of the two a
//! hop meets changes from second to second with the scheduler's placement
//! and the host's load: a 1 KiB `write` reads 130 to 170 µs one run and the
//! next, and a second client beside it moves the number to anywhere between
//! 48 and 108 µs. On one CPU every hop is a context switch, the CPU never
//! halts, and wall time is the sum of what the software does: 43 µs ± 2 %.
//! That sum is what the layer metrics decompose, and what a change to one
//! layer moves.
//!
//! Declared directly against libc, as `parafile_net::reactor::sys` does;
//! with the counting allocator these are the program's only `unsafe`.

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread, and every thread it spawns from now on, to
/// the lowest-numbered CPU it may run on. Returns that CPU.
pub fn to_one_cpu() -> Result<u32, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable `cpu_set_t` of the size passed; pid
    // 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let (word, bits) = set
        .iter()
        .enumerate()
        .find(|(_, bits)| **bits != 0)
        .ok_or("sched_getaffinity: no CPU allowed")?;
    let bit = bits.trailing_zeros();
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live `cpu_set_t` of the size passed, read only.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(word as u32 * 64 + bit)
}
