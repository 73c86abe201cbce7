//! Tiny FFI shim over Linux `epoll`, O(1) per wait in the number of idle connections.
//!
//! The build environment has no crates registry, so there is no `libc`/`mio` to lean on.
//! This module declares the few C symbols std has no wrapper for (they are already linked —
//! std links the platform libc) and wraps them in a safe, deliberately minimal [`Poller`]
//! API: register/modify/deregister a file descriptor under a `u64` token, wait for readiness
//! with a timeout. The declarations and constants are those of 64-bit Linux on x86_64 and
//! aarch64, so the crate refuses to build for any other target: `rlim_t` is 32-bit on 32-bit
//! targets, `RLIMIT_NOFILE` is 5 on MIPS, and `EPOLL_CLOEXEC` follows `O_CLOEXEC`, which
//! differs on SPARC, Alpha and PA-RISC. All `unsafe` in the crate lives here, behind
//! invariants small enough to state inline:
//!
//! * every registered fd outlives its registration (the reactor owns the socket and
//!   deregisters before dropping it);
//! * buffers passed to the kernel are local, correctly sized, and never retained.
//!
//! [`Waker`] is the classic self-pipe, built on std's `UnixStream::pair`: worker threads
//! write one byte to a nonblocking socket whose peer is registered in the poller, waking the
//! reactor from `wait` without touching any of its state.
#![allow(unsafe_code)]

#[cfg(not(all(
    target_os = "linux",
    target_pointer_width = "64",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "qbe-server serves from 64-bit Linux on x86_64 or aarch64 only: its epoll and rlimit \
     declarations follow those targets' ABI"
);

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

use std::os::raw::c_int;

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd is readable (or in an error/hangup state a read will surface).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
}

/// Convert a poll timeout to the milliseconds argument of `epoll_wait`, rounding *up*
/// so a 100 µs timeout does not become a busy-spin of 0 ms waits. `None` blocks forever.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_millis();
            let rounded = if t.subsec_nanos() % 1_000_000 != 0 {
                ms + 1
            } else {
                ms
            };
            rounded.min(c_int::MAX as u128) as c_int
        }
    }
}

// The kernel ABI packs `struct epoll_event` on x86_64; aarch64 uses natural alignment.
// Mirrors glibc's `__EPOLL_PACKED`.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
/// `O_CLOEXEC` on x86_64 and aarch64 (SPARC, Alpha and PA-RISC use other values).
const EPOLL_CLOEXEC: c_int = 0o2000000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

/// Readiness selector over registered fds.
pub struct Poller {
    epfd: OwnedFd,
    buf: Vec<EpollEvent>,
}

impl Poller {
    /// A fresh, empty selector.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall; the returned fd is immediately owned (closed on drop).
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            // SAFETY: `fd` is a freshly created, unowned epoll descriptor.
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
            buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: (if read { EPOLLIN | EPOLLRDHUP } else { 0 })
                | (if write { EPOLLOUT } else { 0 }),
            data: token,
        };
        // SAFETY: `ev` is a live local; the fd is valid for the duration of the call
        // (callers only pass fds of sockets they own).
        if unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Start watching `fd` under `token` for the given interests.
    pub fn register(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, read, write)
    }

    /// Change the interests of an already-registered fd.
    pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, read, write)
    }

    /// Stop watching `fd` (must happen before the fd is closed).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, false, false)
    }

    /// Block until at least one registered fd is ready or the timeout passes; append the
    /// ready events to `out`. A timeout or an interrupting signal appends nothing.
    pub fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Event>) -> io::Result<()> {
        let n = {
            // SAFETY: `buf` is a live Vec of `len()` initialised events; the kernel
            // writes at most `maxevents` entries into it.
            let r = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms(timeout),
                )
            };
            if r < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            r as usize
        };
        for ev in &self.buf[..n] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0,
                writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

/// The read half of a [`Waker`] pair; the reactor registers its fd and drains it on wakeup.
pub struct WakeReader {
    stream: UnixStream,
}

impl WakeReader {
    /// The fd to register in the [`Poller`].
    pub fn raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Discard all pending wake bytes (level-triggered pollers would otherwise re-report).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        // Empty (`WouldBlock`), closed, or error: nothing left to drain.
        while matches!((&self.stream).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// The write half of the self-pipe: any thread may call [`wake`](Waker::wake) to interrupt
/// the reactor's [`Poller::wait`]. Cheap, cloneable, `Send + Sync`, never blocks.
#[derive(Clone)]
pub struct Waker {
    stream: Arc<UnixStream>,
}

impl Waker {
    /// Wake the reactor. A full buffer means a wakeup is already pending — success either way.
    pub fn wake(&self) {
        let _ = (&*self.stream).write(&[1]);
    }
}

/// A connected nonblocking self-pipe: `(read_half, write_half)`.
pub fn waker_pair() -> io::Result<(WakeReader, Waker)> {
    let (r, w) = UnixStream::pair()?;
    r.set_nonblocking(true)?;
    w.set_nonblocking(true)?;
    Ok((
        WakeReader { stream: r },
        Waker {
            stream: Arc::new(w),
        },
    ))
}

/// `struct rlimit`: `rlim_t` is `unsigned long`, 64-bit on every target this module builds for.
#[repr(C)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

/// `RLIMIT_NOFILE` on x86_64 and aarch64 (MIPS, which this module does not build for, uses 5).
const RLIMIT_NOFILE: c_int = 7;

/// The current soft limit on open file descriptors, if the OS reports one. The 10k-connection
/// soak sizes itself against this instead of dying on EMFILE.
pub fn fd_soft_limit() -> Option<u64> {
    let mut lim = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a live repr(C) struct of the shape getrlimit fills.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } < 0 {
        return None;
    }
    Some(lim.rlim_cur)
}

/// Raise the soft fd limit toward `min(target, hard limit)`; returns the soft limit actually
/// in effect afterwards. Best-effort: failures leave the limit unchanged.
pub fn raise_fd_limit(target: u64) -> u64 {
    let mut lim = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: same contract as in `fd_soft_limit`.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } < 0 {
        return 0;
    }
    let want = target.min(lim.rlim_max);
    if want > lim.rlim_cur {
        let new = RLimit {
            rlim_cur: want,
            rlim_max: lim.rlim_max,
        };
        // SAFETY: passing a live, fully initialised struct by const pointer.
        if unsafe { setrlimit(RLIMIT_NOFILE, &new) } == 0 {
            return want;
        }
    }
    lim.rlim_cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn waker_wakes_a_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        let (rx, tx) = waker_pair().unwrap();
        poller.register(rx.raw_fd(), 42, true, false).unwrap();

        // Without a wake, a short wait times out with no events.
        let mut events = Vec::new();
        poller
            .wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty());

        // A wake from another thread interrupts a long wait promptly.
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.wake();
            tx
        });
        let start = Instant::now();
        poller
            .wait(Some(Duration::from_secs(5)), &mut events)
            .unwrap();
        assert!(start.elapsed() < Duration::from_secs(2));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);

        // Drained, the pipe reports nothing further.
        rx.drain();
        events.clear();
        poller
            .wait(Some(Duration::from_millis(5)), &mut events)
            .unwrap();
        assert!(events.is_empty());
        drop(waker.join().unwrap());
    }

    #[test]
    fn sockets_report_read_and_write_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        // A fresh connected socket is writable but not readable.
        poller.register(server.as_raw_fd(), 7, true, true).unwrap();
        let mut events = Vec::new();
        poller
            .wait(Some(Duration::from_millis(200)), &mut events)
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));
        assert!(!events.iter().any(|e| e.token == 7 && e.readable));

        // After the client writes, read readiness appears.
        client.write_all(b"ping\n").unwrap();
        events.clear();
        poller.modify(server.as_raw_fd(), 7, true, false).unwrap();
        poller
            .wait(Some(Duration::from_secs(2)), &mut events)
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let mut buf = [0u8; 8];
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping\n");

        // Deregistered fds never report again.
        poller.deregister(server.as_raw_fd()).unwrap();
        client.write_all(b"more\n").unwrap();
        events.clear();
        poller
            .wait(Some(Duration::from_millis(50)), &mut events)
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn timeout_rounds_up_not_down() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(100))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(250))), 250);
        assert_eq!(
            timeout_ms(Some(Duration::from_nanos(250_000_001))),
            251,
            "fractional milliseconds round up"
        );
    }

    #[test]
    fn fd_limit_helpers_report_sane_values() {
        let soft = fd_soft_limit().expect("getrlimit works");
        assert!(soft >= 64, "any realistic environment allows 64 fds");
        // Raising toward the current soft limit is a no-op that reports it back.
        assert!(raise_fd_limit(64) >= 64);
    }
}
