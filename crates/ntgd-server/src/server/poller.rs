//! Readiness polling for the event loop: a thin `epoll` shim.
//!
//! The shim declares the four `epoll` entry points `extern "C"` against the
//! C library std already links — the repo's no-new-dependencies rule — and
//! registers sockets **level-triggered** with a caller-chosen `(read,
//! write)` interest pair: the loop arms read interest only while a
//! connection can take more input and write interest only while it has
//! pending response bytes, so a socket the loop would not serve is never
//! reported.  Tokens are caller-chosen `usize`s carried in the kernel's
//! event data.
//!
//! `epoll` is Linux-only.  Elsewhere [`Poller::new`] fails with
//! [`io::ErrorKind::Unsupported`], so `serve` fails at start-up instead of
//! serving nothing.

use std::io::{self, Read};
use std::net::TcpStream;
use std::time::Duration;

#[cfg(target_os = "linux")]
use std::os::fd::AsRawFd;

/// One readiness report.
#[derive(Clone, Copy, Debug)]
pub(super) struct Event {
    /// The token the socket was registered under.
    pub token: usize,
    /// Reading won't block (data, EOF, or a pending error to surface).
    pub readable: bool,
    /// Writing may make progress.
    pub writable: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw `epoll` bindings against the already-linked C library.

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// The kernel's `struct epoll_event` (packed on x86-64 only, matching
    /// the kernel ABI).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

/// A readiness poller: one `epoll` instance per shard thread.
#[cfg(target_os = "linux")]
pub(super) struct Poller {
    epfd: i32,
    buf: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl Poller {
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    /// The event mask for a `(read, write)` interest.  Errors and hang-ups
    /// are reported whatever the mask, and surface through the write path.
    fn events((read, write): (bool, bool)) -> u32 {
        let mut events = 0;
        if read {
            events |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if write {
            events |= sys::EPOLLOUT;
        }
        events
    }

    fn ctl(&self, op: i32, stream: &TcpStream, events: u32, token: usize) -> io::Result<()> {
        let mut event = sys::EpollEvent {
            events,
            data: token as u64,
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, stream.as_raw_fd(), &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Starts watching `stream` under `token` with the given `(read,
    /// write)` interest.
    pub fn register(
        &mut self,
        stream: &TcpStream,
        token: usize,
        interest: (bool, bool),
    ) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, stream, Self::events(interest), token)
    }

    /// Replaces the `(read, write)` interest of an already-registered
    /// socket.
    pub fn set_interest(
        &mut self,
        stream: &TcpStream,
        token: usize,
        interest: (bool, bool),
    ) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, stream, Self::events(interest), token)
    }

    /// Stops watching a socket.
    pub fn deregister(&mut self, stream: &TcpStream) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, stream, 0, 0)
    }

    /// Collects readiness into `out` (cleared first), waiting up to
    /// `timeout`.  A signal-interrupted wait returns empty rather than
    /// erroring.
    pub fn wait(&mut self, timeout: Duration, out: &mut Vec<Event>) -> io::Result<()> {
        out.clear();
        let millis = timeout.as_millis().min(i32::MAX as u128) as i32;
        let count = unsafe {
            sys::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                millis,
            )
        };
        if count < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for slot in &self.buf[..count as usize] {
            let event = *slot; // copy out of the (possibly packed) buffer
            let bits = event.events;
            out.push(Event {
                token: event.data as usize,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLERR | sys::EPOLLHUP)
                    != 0,
                writable: bits & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.epfd);
        }
    }
}

/// Without `epoll` there is no poller: the type is uninhabited, so only
/// [`Poller::new`] can be called, and it fails.
#[cfg(not(target_os = "linux"))]
pub(super) enum Poller {}

#[cfg(not(target_os = "linux"))]
impl Poller {
    pub fn new() -> io::Result<Poller> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the TCP event loop needs epoll (Linux)",
        ))
    }

    pub fn register(&mut self, _: &TcpStream, _: usize, _: (bool, bool)) -> io::Result<()> {
        match *self {}
    }

    pub fn set_interest(&mut self, _: &TcpStream, _: usize, _: (bool, bool)) -> io::Result<()> {
        match *self {}
    }

    pub fn deregister(&mut self, _: &TcpStream) -> io::Result<()> {
        match *self {}
    }

    pub fn wait(&mut self, _: Duration, _: &mut Vec<Event>) -> io::Result<()> {
        match *self {}
    }
}

/// Drains a wake-up socket (readable side of the loopback waker pair).
pub(super) fn drain(stream: &TcpStream) {
    let mut sink = [0u8; 64];
    let mut reader = stream;
    while let Ok(n) = reader.read(&mut sink) {
        if n == 0 {
            break;
        }
    }
}
