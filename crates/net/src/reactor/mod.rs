//! A small non-blocking reactor: readiness event loop + timer wheel.
//!
//! The daemon's connection drivers and the session's request multiplexer
//! (DESIGN.md §17) are state machines advanced by exactly two stimuli —
//! *an fd became ready* and *a timer expired* — and this module supplies
//! both. [`Reactor`] wraps the OS selector ([`sys::Selector`]: epoll on
//! Linux, `poll(2)` elsewhere or under `PF_REACTOR=poll`) behind
//! register/reregister/deregister plus a cross-thread [`Reactor::wake`],
//! and [`TimerWheel`] orders deadlines, retry backoffs and hedge timers
//! over an abstract [`Clock`] so the same code paths run under a manual
//! clock in tests.
//!
//! Nothing in here blocks except [`Reactor::poll`] itself;
//! `clippy::disallowed_methods` bans `std::thread::sleep` and blocking
//! `std::net` calls in this module and the state machines driven by it.

// One event loop multiplexes every connection: nothing here may block it
// (clippy.toml lists the banned calls).
#![deny(clippy::disallowed_methods)]

pub mod sys;
mod wheel;

pub use wheel::{Clock, ManualClock, MonotonicClock, TimerId, TimerWheel};

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or closed / errored).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// No events (used for deregistration plumbing).
    pub const NONE: Interest = Interest { readable: false, writable: false };
    /// Readable only — the steady state of an idle connection.
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Writable only.
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    /// Readable and writable — a connection with queued output.
    pub const READ_WRITE: Interest = Interest { readable: true, writable: true };
}

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: usize,
    /// The fd has bytes (or EOF/error) to read.
    pub readable: bool,
    /// The fd can accept bytes.
    pub writable: bool,
    /// The fd is in an error or hang-up state.
    pub error: bool,
}

/// Token reserved for the reactor's internal waker; user registrations
/// must stay below it.
pub const WAKER_TOKEN: usize = usize::MAX;

/// Cross-thread wake handle: cheap to clone, callable from any thread.
#[derive(Debug, Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Interrupts the reactor's current (or next) [`Reactor::poll`].
    pub fn wake(&self) {
        // A full pipe already guarantees a pending wake-up; every other
        // error means the reactor is gone and waking is moot.
        let _ = (&*self.tx).write(&[1]);
    }
}

/// The event loop core: an OS selector plus a self-pipe waker.
///
/// Single-threaded by design — the thread that owns the reactor (the
/// daemon's loop thread, or a session's caller) runs every state machine
/// behind its tokens; another thread reaches it only through
/// [`Waker::wake`], as the daemon's stop request does.
pub struct Reactor {
    selector: sys::Selector,
    waker_tx: Arc<UnixStream>,
    waker_rx: UnixStream,
}

impl Reactor {
    /// Opens a reactor on the platform's preferred selector backend.
    pub fn new() -> io::Result<Self> {
        let mut selector = sys::Selector::new()?;
        let (waker_tx, waker_rx) = UnixStream::pair()?;
        waker_tx.set_nonblocking(true)?;
        waker_rx.set_nonblocking(true)?;
        selector.register(waker_rx.as_raw_fd(), WAKER_TOKEN, Interest::READ)?;
        Ok(Self { selector, waker_tx: Arc::new(waker_tx), waker_rx })
    }

    /// The selector backend in use (`"epoll"` / `"poll"`), for logs.
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.selector.backend_name()
    }

    /// A cross-thread handle that interrupts [`poll`](Self::poll).
    #[must_use]
    pub fn waker(&self) -> Waker {
        Waker { tx: Arc::clone(&self.waker_tx) }
    }

    /// Starts watching `fd` under `token`. Tokens must stay below
    /// [`WAKER_TOKEN`] and identify the connection in the caller's slab.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        debug_assert!(token < WAKER_TOKEN, "token collides with the waker");
        self.selector.register(fd, token, interest)
    }

    /// Updates the interest set of a watched fd.
    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.selector.reregister(fd, token, interest)
    }

    /// Stops watching `fd` (call before closing it).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.selector.deregister(fd)
    }

    /// Waits up to `timeout` (`None` = until woken) and appends ready
    /// events to `events` (cleared first). Waker events are drained and
    /// swallowed; the caller only learns "you were woken" by the poll
    /// returning, which is all the queue-draining loops need.
    pub fn poll(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        self.selector.wait(events, timeout)?;
        let mut woken = false;
        events.retain(|ev| {
            if ev.token == WAKER_TOKEN {
                woken = true;
                false
            } else {
                true
            }
        });
        if woken {
            let mut sink = [0u8; 64];
            while matches!((&self.waker_rx).read(&mut sink), Ok(n) if n > 0) {}
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests dial and pace real sockets")]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn readiness_and_waker_round_trip() {
        let mut reactor = Reactor::new().expect("reactor");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).unwrap();
        client.set_nonblocking(true).unwrap();

        reactor.register(server.as_raw_fd(), 7, Interest::READ).expect("register");
        let mut events = Vec::new();
        // Nothing to read yet: a zero timeout returns empty.
        reactor.poll(&mut events, Some(Duration::ZERO)).expect("poll");
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        (&client).write_all(b"x").unwrap();
        reactor.poll(&mut events, Some(Duration::from_secs(5))).expect("poll");
        assert!(events.iter().any(|e| e.token == 7 && e.readable), "{events:?}");

        // Write interest on an empty socket buffer reports writable.
        reactor.reregister(server.as_raw_fd(), 7, Interest::READ_WRITE).expect("reregister");
        reactor.poll(&mut events, Some(Duration::from_secs(5))).expect("poll");
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        // The waker interrupts an otherwise-idle poll from another thread.
        reactor.deregister(server.as_raw_fd()).expect("deregister");
        let waker = reactor.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        reactor.poll(&mut events, Some(Duration::from_secs(30))).expect("poll");
        assert!(events.is_empty(), "waker events are swallowed: {events:?}");
        t.join().unwrap();
    }

    #[test]
    fn poll_fallback_backend_works_when_forced() {
        // The forced-fallback env var is read at construction; build a
        // selector directly to avoid racing other tests on the env.
        let mut sel = sys::Selector::new().expect("selector");
        let (a, b) = UnixStream::pair().expect("pair");
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        sel.register(b.as_raw_fd(), 3, Interest::READ).expect("register");
        (&a).write_all(b"ping").unwrap();
        let mut events = Vec::new();
        sel.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
        sel.deregister(b.as_raw_fd()).expect("deregister");
    }
}
