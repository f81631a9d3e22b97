//! Raw syscalls behind the reactor: readiness through `epoll(7)` on Linux
//! with a portable `poll(2)` fallback, and the non-blocking `connect(2)`
//! a client dials with, declared directly against libc (the C library is
//! always linked; no new crate dependency).
//!
//! This is the **only** module in `parafile-net` allowed to use `unsafe`:
//! every call site is a direct FFI invocation of a socket or readiness
//! syscall on file descriptors this process owns, with all buffers stack-
//! or `Vec`-backed and lengths passed explicitly. The rest of the crate
//! stays under `#![deny(unsafe_code)]` with no exceptions.

#![allow(unsafe_code)]
// Runs on the event loop: nothing here may block it (clippy.toml lists the
// banned calls).
#![deny(clippy::disallowed_methods)]

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::raw::c_int;
use std::os::unix::ffi::OsStrExt;
use std::os::unix::io::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use super::{Event, Interest};

// ---------------------------------------------------------------------------
// FFI declarations (subset of poll.h / sys/epoll.h)

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = u32;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
}

#[cfg(target_os = "linux")]
mod epoll_ffi {
    use std::os::raw::c_int;

    // x86-64 packs the event struct so the u64 data field lands at offset
    // 4; every other architecture uses natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        // Round up so a 100µs timeout does not busy-spin at 0ms.
        Some(t) => i32::try_from(t.as_millis()).unwrap_or(i32::MAX).max(i32::from(!t.is_zero())),
    }
}

// ---------------------------------------------------------------------------
// The portable poll(2) backend

/// Readiness via `poll(2)`: the interest set is a plain vector rebuilt
/// into a `pollfd` array per wait. O(n) per call, available on every unix.
struct PollBackend {
    /// `(fd, token, interest)` registrations, insertion-ordered.
    slots: Vec<(RawFd, usize, Interest)>,
    fds: Vec<PollFd>,
}

impl PollBackend {
    fn new() -> Self {
        Self { slots: Vec::new(), fds: Vec::new() }
    }

    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if self.slots.iter().any(|&(f, _, _)| f == fd) {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd already registered"));
        }
        self.slots.push((fd, token, interest));
        Ok(())
    }

    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match self.slots.iter_mut().find(|(f, _, _)| *f == fd) {
            Some(slot) => {
                *slot = (fd, token, interest);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let before = self.slots.len();
        self.slots.retain(|&(f, _, _)| f != fd);
        if self.slots.len() == before {
            return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
        }
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.fds.clear();
        for &(fd, _, interest) in &self.slots {
            let mut ev = 0i16;
            if interest.readable {
                ev |= POLLIN;
            }
            if interest.writable {
                ev |= POLLOUT;
            }
            self.fds.push(PollFd { fd, events: ev, revents: 0 });
        }
        // SAFETY: `fds` is a live, correctly-sized array of pollfd structs;
        // poll(2) writes only the `revents` fields within it.
        let rc =
            unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as NfdsT, timeout_ms(timeout)) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for (slot, pfd) in self.slots.iter().zip(&self.fds) {
            if pfd.revents == 0 {
                continue;
            }
            events.push(Event {
                token: slot.1,
                readable: pfd.revents & (POLLIN | POLLHUP | POLLERR) != 0,
                writable: pfd.revents & (POLLOUT | POLLERR) != 0,
                error: pfd.revents & (POLLERR | POLLHUP) != 0,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The Linux epoll backend

/// Readiness via level-triggered `epoll(7)`: O(ready) per wait.
#[cfg(target_os = "linux")]
struct EpollBackend {
    epfd: RawFd,
    buf: Vec<epoll_ffi::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollBackend {
    fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes a flag word and returns a new fd.
        let epfd = unsafe { epoll_ffi::epoll_create1(epoll_ffi::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { epfd, buf: vec![epoll_ffi::EpollEvent { events: 0, data: 0 }; 256] })
    }

    fn ctl(
        &self,
        op: std::os::raw::c_int,
        fd: RawFd,
        token: usize,
        interest: Interest,
    ) -> io::Result<()> {
        let mut mask = 0u32;
        if interest.readable {
            mask |= epoll_ffi::EPOLLIN;
        }
        if interest.writable {
            mask |= epoll_ffi::EPOLLOUT;
        }
        let mut ev = epoll_ffi::EpollEvent { events: mask, data: token as u64 };
        // SAFETY: `ev` is a valid epoll_event for ADD/MOD; DEL ignores it
        // (passing a live pointer keeps pre-2.6.9 kernel semantics safe).
        let rc = unsafe { epoll_ffi::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        // SAFETY: `buf` is a live array of `buf.len()` epoll_event structs;
        // the kernel fills at most that many entries.
        let rc = unsafe {
            epoll_ffi::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as std::os::raw::c_int,
                timeout_ms(timeout),
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in &self.buf[..rc as usize] {
            let mask = ev.events;
            let token = ev.data;
            events.push(Event {
                token: token as usize,
                readable: mask & (epoll_ffi::EPOLLIN | epoll_ffi::EPOLLHUP | epoll_ffi::EPOLLERR)
                    != 0,
                writable: mask & (epoll_ffi::EPOLLOUT | epoll_ffi::EPOLLERR) != 0,
                error: mask & (epoll_ffi::EPOLLERR | epoll_ffi::EPOLLHUP) != 0,
            });
        }
        if rc as usize == self.buf.len() && self.buf.len() < 4096 {
            // Saturated: grow so a burst does not take multiple waits.
            let grow = self.buf.len() * 2;
            self.buf.resize(grow, epoll_ffi::EpollEvent { events: 0, data: 0 });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollBackend {
    fn drop(&mut self) {
        // SAFETY: closing the epoll fd this struct owns.
        unsafe {
            epoll_ffi::close(self.epfd);
        }
    }
}

// ---------------------------------------------------------------------------
// Non-blocking connect

extern "C" {
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const u8, len: u32) -> c_int;
}

const LINUX: bool = cfg!(any(target_os = "linux", target_os = "android"));
/// The BSD family leads a socket address with a length byte and a
/// one-byte family; Linux with a two-byte family.
const SA_LEN: bool = cfg!(any(
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd",
    target_os = "dragonfly",
    target_os = "netbsd",
    target_os = "openbsd"
));
const AF_UNIX: u16 = 1;
const AF_INET: u16 = 2;
const AF_INET6: u16 = if LINUX {
    10
} else if cfg!(any(target_os = "macos", target_os = "ios")) {
    30
} else if cfg!(any(target_os = "freebsd", target_os = "dragonfly")) {
    28
} else {
    24
};
const SOCK_STREAM: c_int = 1;
/// A Linux `socket(2)` type flag; elsewhere a dialed socket is not
/// close-on-exec.
const SOCK_CLOEXEC: c_int = if LINUX { 0o2000000 } else { 0 };
const EINTR: i32 = 4;
const EINPROGRESS: i32 = if LINUX { 115 } else { 36 };

/// A socket address laid out the way the kernel reads it.
#[repr(C, align(8))]
struct SockAddr {
    bytes: [u8; 112],
    len: usize,
    family: u16,
}

impl SockAddr {
    fn new(family: u16, len: usize) -> Self {
        let mut bytes = [0u8; 112];
        if SA_LEN {
            bytes[0] = len as u8;
            bytes[1] = family as u8;
        } else {
            bytes[..2].copy_from_slice(&family.to_ne_bytes());
        }
        Self { bytes, len, family }
    }

    fn inet(addr: &SocketAddr) -> Self {
        match addr {
            SocketAddr::V4(a) => {
                let mut sa = Self::new(AF_INET, 16);
                sa.bytes[2..4].copy_from_slice(&a.port().to_be_bytes());
                sa.bytes[4..8].copy_from_slice(&a.ip().octets());
                sa
            }
            SocketAddr::V6(a) => {
                let mut sa = Self::new(AF_INET6, 28);
                sa.bytes[2..4].copy_from_slice(&a.port().to_be_bytes());
                sa.bytes[4..8].copy_from_slice(&a.flowinfo().to_ne_bytes());
                sa.bytes[8..24].copy_from_slice(&a.ip().octets());
                sa.bytes[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
                sa
            }
        }
    }

    fn unix(path: &Path) -> io::Result<Self> {
        let path = path.as_os_str().as_bytes();
        let room = if SA_LEN { 104 } else { 108 };
        if path.len() >= room || path.contains(&0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "unix socket path is too long or holds a NUL byte",
            ));
        }
        // The path plus its terminating NUL (already zero).
        let mut sa = Self::new(AF_UNIX, 2 + path.len() + 1);
        sa.bytes[2..2 + path.len()].copy_from_slice(path);
        Ok(sa)
    }
}

/// Opens a stream socket for `sa`, makes it non-blocking and starts
/// connecting it. Returns the socket and whether the connect already
/// completed; an unfinished one completes on a writable event, after which
/// `SO_ERROR` (`take_error`) says how it went.
fn start_connect<T: From<OwnedFd> + AsRawFd>(
    sa: &SockAddr,
    nonblocking: impl FnOnce(&T) -> io::Result<()>,
) -> io::Result<(T, bool)> {
    // SAFETY: socket(2) takes three integers and returns a new fd or -1.
    let fd = unsafe { socket(c_int::from(sa.family), SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` was just opened by socket(2) and nothing else owns it.
    let sock = T::from(unsafe { OwnedFd::from_raw_fd(fd) });
    nonblocking(&sock)?;
    // SAFETY: `sa.bytes` is a live buffer holding a socket address of
    // `sa.len` bytes; connect(2) only reads it.
    let rc = unsafe { connect(sock.as_raw_fd(), sa.bytes.as_ptr(), sa.len as u32) };
    if rc == 0 {
        return Ok((sock, true));
    }
    let err = io::Error::last_os_error();
    match err.raw_os_error() {
        Some(EINPROGRESS | EINTR) => Ok((sock, false)),
        _ => Err(err),
    }
}

/// Starts a non-blocking TCP connect to `addr`. Returns the stream and
/// whether it is already connected; an unfinished connect completes on a
/// writable event, after which `take_error` says how it went.
pub fn connect_tcp(addr: &SocketAddr) -> io::Result<(TcpStream, bool)> {
    start_connect(&SockAddr::inet(addr), |s: &TcpStream| s.set_nonblocking(true))
}

/// Starts a non-blocking Unix-domain connect to `path`. A listener with a
/// full backlog refuses at once (`WouldBlock`) instead of completing later.
pub fn connect_unix(path: &Path) -> io::Result<(UnixStream, bool)> {
    start_connect(&SockAddr::unix(path)?, |s: &UnixStream| s.set_nonblocking(true))
}

// ---------------------------------------------------------------------------
// The selector facade

enum Backend {
    Poll(PollBackend),
    #[cfg(target_os = "linux")]
    Epoll(EpollBackend),
}

/// OS readiness selector: epoll where available, poll(2) otherwise (or
/// when `PF_REACTOR=poll` forces the fallback, which CI uses to keep the
/// portable path exercised on Linux).
pub struct Selector {
    backend: Backend,
}

impl Selector {
    /// Opens a selector on the preferred backend for this platform.
    pub fn new() -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        {
            if std::env::var("PF_REACTOR").as_deref() != Ok("poll") {
                if let Ok(ep) = EpollBackend::new() {
                    return Ok(Self { backend: Backend::Epoll(ep) });
                }
            }
        }
        Ok(Self { backend: Backend::Poll(PollBackend::new()) })
    }

    /// The backend's name, for diagnostics.
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        match self.backend {
            Backend::Poll(_) => "poll",
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => "epoll",
        }
    }

    /// Starts watching `fd` under `token` for `interest`.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            Backend::Poll(p) => p.register(fd, token, interest),
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.ctl(epoll_ffi::EPOLL_CTL_ADD, fd, token, interest),
        }
    }

    /// Changes the interest set (and token) of a watched `fd`.
    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            Backend::Poll(p) => p.reregister(fd, token, interest),
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.ctl(epoll_ffi::EPOLL_CTL_MOD, fd, token, interest),
        }
    }

    /// Stops watching `fd`. Must be called before the fd closes.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            Backend::Poll(p) => p.deregister(fd),
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.ctl(epoll_ffi::EPOLL_CTL_DEL, fd, 0, Interest::NONE),
        }
    }

    /// Blocks for readiness up to `timeout` (`None` = forever), appending
    /// ready events. A signal interruption returns cleanly with no events.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        match &mut self.backend {
            Backend::Poll(p) => p.wait(events, timeout),
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.wait(events, timeout),
        }
    }
}
