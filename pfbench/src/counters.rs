//! Process-wide counts for the traced run: heap allocations (a counting
//! global allocator), and syscalls, bytes, context switches and CPU time
//! from `/proc`. The daemons run in this process, so every count covers
//! client and I/O nodes together.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counts allocations made while at least one timed call into `Session`
/// is in progress in a traced run; otherwise a plain pass-through to the
/// system allocator. Gating on the calls keeps the benchmark's own
/// bookkeeping between calls (payloads, reference images) out of the
/// counts, while the daemons' work on behalf of a call is in. A
/// load-generating thread that is between its own calls is left out even
/// while the other one is inside a call ([`BETWEEN_CALLS`]).
pub struct CountingAlloc;

static ARMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on a load-generating thread whenever it is outside a timed call;
    /// never set on daemon and driver threads, which work on a call's behalf.
    /// A `Cell<bool>` needs no lazy initialiser and no destructor, so the
    /// allocator may read it at any point of a thread's life.
    static BETWEEN_CALLS: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never touch the allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from the caller, who got them
        // from this allocator, which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count(bytes: usize) {
    // Relaxed: statistics only, nothing is published through them.
    if ARMED.load(Ordering::Relaxed) > 0 && !BETWEEN_CALLS.get() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Counts allocations until dropped, on the thread that holds it and on
/// every thread that never held one. One per thread at a time; guards of
/// different threads may overlap.
pub struct AllocWindow(());

impl AllocWindow {
    pub fn open() -> Self {
        BETWEEN_CALLS.set(false);
        ARMED.fetch_add(1, Ordering::Relaxed);
        Self(())
    }
}

impl Drop for AllocWindow {
    fn drop(&mut self) {
        ARMED.fetch_sub(1, Ordering::Relaxed);
        BETWEEN_CALLS.set(true);
    }
}

/// A reading of every process-wide counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// `read`-family syscalls.
    pub syscr: u64,
    /// `write`-family syscalls.
    pub syscw: u64,
    /// Bytes passed to `write`-family syscalls (sockets, journal, stores).
    pub wchar: u64,
    /// Voluntary plus involuntary context switches over all threads.
    pub ctx_switches: u64,
    /// User plus system CPU time over all threads, in µs.
    pub cpu_us: u64,
}

impl Snapshot {
    pub fn take() -> Self {
        let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let field = |text: &str, key: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(':')?.trim().parse().ok())
                .unwrap_or(0)
        };
        let mut ctx_switches = 0;
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let status =
                    std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
                ctx_switches += field(&status, "voluntary_ctxt_switches")
                    + field(&status, "nonvoluntary_ctxt_switches");
            }
        }
        Self {
            allocs: ALLOCS.load(Ordering::Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            syscr: field(&io, "syscr"),
            syscw: field(&io, "syscw"),
            wchar: field(&io, "wchar"),
            ctx_switches,
            cpu_us: cpu_us(),
        }
    }

    /// Counts between `earlier` and this reading.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - earlier.allocs,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
            syscr: self.syscr.saturating_sub(earlier.syscr),
            syscw: self.syscw.saturating_sub(earlier.syscw),
            wchar: self.wchar.saturating_sub(earlier.wchar),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            cpu_us: self.cpu_us.saturating_sub(earlier.cpu_us),
        }
    }
}

/// utime + stime of the whole process from `/proc/self/stat`, in µs. The
/// kernel reports clock ticks; Linux fixes the user-visible tick at 100 Hz.
fn cpu_us() -> u64 {
    const TICK_US: u64 = 10_000;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11); // utime is field 14
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime + stime) * TICK_US
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_and_io_counters_advance() {
        let before = Snapshot::take();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = Snapshot::take().since(&before);
        assert!(after.cpu_us >= 20_000, "60 ms of spinning is at least two ticks: {after:?}");
        assert!(after.syscr > 0, "reading /proc is itself a read syscall");
    }
}
