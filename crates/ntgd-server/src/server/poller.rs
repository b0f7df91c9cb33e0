//! Readiness polling for the event loop: a thin `epoll` shim on Linux and a
//! portable `peek`-scan fallback elsewhere (or under `NTGD_POLLER=scan`,
//! which is how CI exercises the fallback on Linux).
//!
//! The shim declares the four `epoll` entry points `extern "C"` against the
//! C library std already links — the repo's no-new-dependencies rule — and
//! registers sockets **level-triggered** with a caller-chosen `(read,
//! write)` interest pair: the loop arms read interest only while a
//! connection can take more input and write interest only while it has
//! pending response bytes, so a socket the loop would not serve is never
//! reported.  Tokens are caller-chosen `usize`s carried in the kernel's
//! event data.

use std::io::{self, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

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

/// A readiness poller; which implementation backs it is decided once at
/// construction ([`Poller::new`]).
pub(super) enum Poller {
    #[cfg(target_os = "linux")]
    Epoll(EpollPoller),
    Scan(ScanPoller),
}

impl Poller {
    /// An `epoll` poller on Linux (unless `NTGD_POLLER=scan`), the scan
    /// fallback otherwise.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            let forced_scan = std::env::var("NTGD_POLLER").is_ok_and(|value| value == "scan");
            if !forced_scan {
                return EpollPoller::new().map(Poller::Epoll);
            }
        }
        Ok(Poller::Scan(ScanPoller::new()))
    }

    /// Starts watching `stream` under `token` with the given `(read,
    /// write)` interest.
    pub fn register(
        &mut self,
        stream: &TcpStream,
        token: usize,
        interest: (bool, bool),
    ) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(poller) => poller.register(stream, token, interest),
            Poller::Scan(poller) => poller.register(stream, token, interest),
        }
    }

    /// Replaces the `(read, write)` interest of an already-registered
    /// socket.
    pub fn set_interest(
        &mut self,
        stream: &TcpStream,
        token: usize,
        interest: (bool, bool),
    ) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(poller) => poller.set_interest(stream, token, interest),
            Poller::Scan(poller) => poller.set_interest(token, interest),
        }
    }

    /// Stops watching a socket.
    pub fn deregister(&mut self, stream: &TcpStream, token: usize) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(poller) => poller.deregister(stream),
            Poller::Scan(poller) => poller.deregister(token),
        }
    }

    /// Collects readiness into `out` (cleared first), waiting up to
    /// `timeout`.  A signal-interrupted wait returns empty rather than
    /// erroring.
    pub fn wait(&mut self, timeout: Duration, out: &mut Vec<Event>) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(poller) => poller.wait(timeout, out),
            Poller::Scan(poller) => poller.wait(timeout, out),
        }
    }
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

/// The Linux implementation: one `epoll` instance per poller thread.
#[cfg(target_os = "linux")]
pub(super) struct EpollPoller {
    epfd: i32,
    buf: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    fn new() -> io::Result<EpollPoller> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollPoller {
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

    fn ctl(&self, op: i32, fd: i32, events: u32, token: usize) -> io::Result<()> {
        let mut event = sys::EpollEvent {
            events,
            data: token as u64,
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn register(
        &mut self,
        stream: &TcpStream,
        token: usize,
        interest: (bool, bool),
    ) -> io::Result<()> {
        let events = Self::events(interest);
        self.ctl(sys::EPOLL_CTL_ADD, stream.as_raw_fd(), events, token)
    }

    fn set_interest(
        &mut self,
        stream: &TcpStream,
        token: usize,
        interest: (bool, bool),
    ) -> io::Result<()> {
        let events = Self::events(interest);
        self.ctl(sys::EPOLL_CTL_MOD, stream.as_raw_fd(), events, token)
    }

    fn deregister(&mut self, stream: &TcpStream) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, stream.as_raw_fd(), 0, 0)
    }

    fn wait(&mut self, timeout: Duration, out: &mut Vec<Event>) -> io::Result<()> {
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
impl Drop for EpollPoller {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.epfd);
        }
    }
}

/// The portable fallback: a 1ms-cadence scan over registered sockets using
/// `TcpStream::peek` for read readiness (only while read interest is
/// armed).  Write readiness is assumed whenever write interest is armed,
/// but reported only at the scan cadence: a readable socket returns at
/// once, while a wait that finds only write interest sleeps one scan first.
/// A blocked `write` then returns `WouldBlock` again at most once a
/// millisecond, so a peer that stops reading cannot spin the shard.
pub(super) struct ScanPoller {
    entries: Vec<ScanEntry>,
}

struct ScanEntry {
    token: usize,
    stream: TcpStream,
    interest: (bool, bool),
}

impl ScanPoller {
    fn new() -> ScanPoller {
        ScanPoller {
            entries: Vec::new(),
        }
    }

    fn register(
        &mut self,
        stream: &TcpStream,
        token: usize,
        interest: (bool, bool),
    ) -> io::Result<()> {
        self.entries.push(ScanEntry {
            token,
            stream: stream.try_clone()?,
            interest,
        });
        Ok(())
    }

    fn set_interest(&mut self, token: usize, interest: (bool, bool)) -> io::Result<()> {
        for entry in &mut self.entries {
            if entry.token == token {
                entry.interest = interest;
                return Ok(());
            }
        }
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            "token not registered",
        ))
    }

    fn deregister(&mut self, token: usize) -> io::Result<()> {
        self.entries.retain(|entry| entry.token != token);
        Ok(())
    }

    fn wait(&mut self, timeout: Duration, out: &mut Vec<Event>) -> io::Result<()> {
        out.clear();
        let deadline = Instant::now() + timeout;
        let mut scanned = false;
        loop {
            let mut probe = [0u8; 1];
            for entry in &self.entries {
                let (want_read, want_write) = entry.interest;
                let readable = want_read
                    && match entry.stream.peek(&mut probe) {
                        Ok(_) => true, // data (Ok(1)) or EOF (Ok(0))
                        Err(err) if err.kind() == io::ErrorKind::WouldBlock => false,
                        // Surface the error through the read path.
                        Err(_) => true,
                    };
                if readable || want_write {
                    out.push(Event {
                        token: entry.token,
                        readable,
                        writable: want_write,
                    });
                }
            }
            let readable = out.iter().any(|event| event.readable);
            if readable || (scanned && !out.is_empty()) || Instant::now() >= deadline {
                return Ok(());
            }
            out.clear();
            scanned = true;
            std::thread::sleep(Duration::from_millis(1));
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn scan_reports_write_only_readiness_at_the_scan_cadence() {
        // A connected pair whose peer never reads: with write interest
        // armed, every wait must still sleep a scan instead of returning
        // at once, or a shard holding a parked non-reader spins.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_peer, _) = listener.accept().unwrap();
        let mut poller = ScanPoller::new();
        poller.register(&stream, 7, (false, true)).unwrap();
        let mut events = Vec::new();
        let started = Instant::now();
        for _ in 0..10 {
            poller
                .wait(Duration::from_millis(200), &mut events)
                .unwrap();
            assert_eq!(events.len(), 1);
            assert!(events[0].writable && !events[0].readable);
        }
        assert!(
            started.elapsed() >= Duration::from_millis(10),
            "ten write-only waits took {:?}",
            started.elapsed()
        );
    }
}
