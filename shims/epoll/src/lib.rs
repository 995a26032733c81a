//! Offline stand-in for the readiness-API crates (`epoll`, `polling`,
//! `mio`): minimal epoll + eventfd bindings declared directly against the
//! C library `std` already links, so no crates.io dependency is needed.
//!
//! On Linux this exposes a [`Poller`] (an `epoll` instance with one-shot
//! and level-triggered registration), an [`EventFd`] (the classic
//! wake-a-sleeping-`epoll_wait` doorbell), and [`raise_nofile_limit`]
//! (needed before opening tens of thousands of benchmark sockets).  On
//! other platforms the crate still compiles, but every constructor returns
//! `ErrorKind::Unsupported`.

/// Raw file descriptor alias, so the public API does not depend on
/// `std::os::unix` on non-Unix targets.
pub type RawFd = i32;

/// What a registration should watch for, and whether it disarms itself
/// after firing once (`EPOLLONESHOT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor becomes readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the descriptor becomes writable.
    pub writable: bool,
    /// Disarm the registration after the first event; the owner must call
    /// [`Poller::modify`] to re-arm (prevents level-triggered storms while
    /// a parked connection is being serviced elsewhere).
    pub oneshot: bool,
}

impl Interest {
    /// Watch for readability only, one-shot.
    pub fn readable_oneshot() -> Self {
        Interest {
            readable: true,
            writable: false,
            oneshot: true,
        }
    }

    /// Watch for readability, level-triggered (stays armed).
    pub fn readable() -> Self {
        Interest {
            readable: true,
            writable: false,
            oneshot: false,
        }
    }
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The `key` the descriptor was registered with.
    pub key: u64,
    /// Data can be read (includes peer-closed, see `hangup`).
    pub readable: bool,
    /// Data can be written.
    pub writable: bool,
    /// The peer closed or the descriptor errored; the connection should be
    /// serviced so the regular read path observes the EOF/error.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest, RawFd};
    use std::io;
    use std::time::Duration;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLONESHOT: u32 = 1 << 30;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;
    const RLIMIT_NOFILE: i32 = 7;
    const EINTR: i32 = 4;

    /// The kernel's `struct epoll_event`; packed on x86-64 (the one ABI
    /// where the 12-byte layout is not naturally aligned).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }

    // `std` links libc on every Linux target, so these resolve without any
    // crates.io dependency.
    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }

    fn last_error() -> io::Error {
        io::Error::last_os_error()
    }

    fn mask_of(interest: Interest) -> u32 {
        let mut mask = EPOLLRDHUP;
        if interest.readable {
            mask |= EPOLLIN;
        }
        if interest.writable {
            mask |= EPOLLOUT;
        }
        if interest.oneshot {
            mask |= EPOLLONESHOT;
        }
        mask
    }

    /// An epoll instance.  See the crate docs for the supported subset.
    #[derive(Debug)]
    pub struct Poller {
        fd: RawFd,
    }

    impl Poller {
        /// Create a new epoll instance (`epoll_create1`).
        pub fn new() -> io::Result<Poller> {
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(last_error());
            }
            Ok(Poller { fd })
        }

        fn ctl(&self, op: i32, fd: RawFd, mask: u32, key: u64) -> io::Result<()> {
            let mut event = EpollEvent {
                events: mask,
                data: key,
            };
            let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
            if rc < 0 {
                return Err(last_error());
            }
            Ok(())
        }

        /// Register a descriptor under `key`.
        pub fn add(&self, fd: RawFd, key: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, mask_of(interest), key)
        }

        /// Re-arm / change an existing registration.
        pub fn modify(&self, fd: RawFd, key: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, mask_of(interest), key)
        }

        /// Remove a registration (must precede closing the descriptor when
        /// duplicates of it might exist).
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Wait for events, appending to `out` (cleared first).  `None`
        /// blocks indefinitely; `Some(d)` rounds up to whole milliseconds
        /// so a 1 ns timeout still sleeps rather than spins.  Returns the
        /// number of events delivered; `EINTR` reports as zero events.
        pub fn wait(
            &self,
            out: &mut Vec<Event>,
            max_events: usize,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            out.clear();
            let max = max_events.clamp(1, 4096) as i32;
            let mut buf = vec![EpollEvent { events: 0, data: 0 }; max as usize];
            let timeout_ms = match timeout {
                None => -1,
                Some(d) => {
                    let ms = d.as_millis();
                    let ms = if ms == 0 && !d.is_zero() { 1 } else { ms };
                    ms.min(i32::MAX as u128) as i32
                }
            };
            let got = unsafe { epoll_wait(self.fd, buf.as_mut_ptr(), max, timeout_ms) };
            if got < 0 {
                let err = last_error();
                if err.raw_os_error() == Some(EINTR) {
                    return Ok(0);
                }
                return Err(err);
            }
            for raw in buf.iter().take(got as usize) {
                let events = { raw.events };
                let data = { raw.data };
                out.push(Event {
                    key: data,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    writable: events & EPOLLOUT != 0,
                    hangup: events & (EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(got as usize)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    /// A kernel event counter used as a doorbell: writers `ring`, a thread
    /// sleeping in [`Poller::wait`] with the eventfd registered wakes and
    /// `drain`s it.  Non-blocking on both ends.
    #[derive(Debug)]
    pub struct EventFd {
        fd: RawFd,
    }

    impl EventFd {
        /// Create the doorbell.
        pub fn new() -> io::Result<EventFd> {
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(last_error());
            }
            Ok(EventFd { fd })
        }

        /// The descriptor, for registering with a [`Poller`].
        pub fn as_raw_fd(&self) -> RawFd {
            self.fd
        }

        /// Ring the doorbell (add 1 to the counter).  Saturation (`EAGAIN`
        /// at u64::MAX-1) still leaves the descriptor readable, so it is
        /// ignored — the wake is already pending.
        pub fn ring(&self) {
            let one: u64 = 1;
            unsafe { write(self.fd, &one as *const u64 as *const u8, 8) };
        }

        /// Consume all pending rings so the descriptor stops polling
        /// readable; returns how many rings had accumulated.
        pub fn drain(&self) -> u64 {
            let mut count: u64 = 0;
            let got = unsafe { read(self.fd, &mut count as *mut u64 as *mut u8, 8) };
            if got == 8 {
                count
            } else {
                0
            }
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    /// Raise `RLIMIT_NOFILE` to at least `target` descriptors, pushing the
    /// hard limit too when privileged.  Returns the soft limit actually in
    /// effect afterwards (which may be below `target` for ordinary users).
    pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
        let mut lim = RLimit { cur: 0, max: 0 };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } < 0 {
            return Err(last_error());
        }
        if lim.cur >= target {
            return Ok(lim.cur);
        }
        // Privileged processes may lift the hard limit as well.
        let want = RLimit {
            cur: target,
            max: lim.max.max(target),
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
            return Ok(target);
        }
        // Unprivileged: the best we can do is the existing hard limit.
        let capped = RLimit {
            cur: target.min(lim.max),
            max: lim.max,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &capped) } < 0 {
            return Err(last_error());
        }
        Ok(capped.cur)
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Off Linux: every constructor reports `Unsupported`, so the serving
    //! layer refuses to start instead of running without readiness.

    use super::{Event, Interest, RawFd};
    use std::io;
    use std::time::Duration;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll readiness backend is only available on Linux",
        )
    }

    /// Unsupported-platform placeholder for the Linux `Poller`.
    #[derive(Debug)]
    pub struct Poller {}

    impl Poller {
        /// Always fails off Linux.
        pub fn new() -> io::Result<Poller> {
            Err(unsupported())
        }

        /// Unreachable (no `Poller` can be constructed here).
        pub fn add(&self, _fd: RawFd, _key: u64, _interest: Interest) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no `Poller` can be constructed here).
        pub fn modify(&self, _fd: RawFd, _key: u64, _interest: Interest) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no `Poller` can be constructed here).
        pub fn delete(&self, _fd: RawFd) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no `Poller` can be constructed here).
        pub fn wait(
            &self,
            _out: &mut Vec<Event>,
            _max_events: usize,
            _timeout: Option<Duration>,
        ) -> io::Result<usize> {
            Err(unsupported())
        }
    }

    /// Unsupported-platform placeholder for the Linux `EventFd`.
    #[derive(Debug)]
    pub struct EventFd {}

    impl EventFd {
        /// Always fails off Linux.
        pub fn new() -> io::Result<EventFd> {
            Err(unsupported())
        }

        /// Unreachable (no `EventFd` can be constructed here).
        pub fn as_raw_fd(&self) -> RawFd {
            -1
        }

        /// Unreachable (no `EventFd` can be constructed here).
        pub fn ring(&self) {}

        /// Unreachable (no `EventFd` can be constructed here).
        pub fn drain(&self) -> u64 {
            0
        }
    }

    /// No-op off Linux: reports the request as satisfied so portable
    /// benchmark code does not need a cfg.
    pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
        Ok(target)
    }
}

pub use sys::{raise_nofile_limit, EventFd, Poller};

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn socket_readability_is_reported_under_the_registered_key() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();

        let poller = Poller::new().unwrap();
        poller
            .add(server.as_raw_fd(), 7, Interest::readable_oneshot())
            .unwrap();

        let mut events = Vec::new();
        // Nothing to read yet: a short wait returns no events.
        let got = poller
            .wait(&mut events, 16, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(got, 0, "no data, no event");

        client.write_all(b"ping").unwrap();
        let got = poller
            .wait(&mut events, 16, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(got, 1);
        assert_eq!(events[0].key, 7);
        assert!(events[0].readable);

        // One-shot: the registration disarmed itself even though the data
        // is still unread.
        let got = poller
            .wait(&mut events, 16, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(got, 0, "oneshot must disarm");

        // Re-arm, observe again, then consume and delete.
        poller
            .modify(server.as_raw_fd(), 9, Interest::readable_oneshot())
            .unwrap();
        let got = poller
            .wait(&mut events, 16, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(got, 1);
        assert_eq!(events[0].key, 9, "modify updates the key");
        let mut buf = [0u8; 8];
        let mut server = server;
        assert_eq!(server.read(&mut buf).unwrap(), 4);
        poller.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn peer_close_reports_hangup() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let poller = Poller::new().unwrap();
        poller
            .add(server.as_raw_fd(), 1, Interest::readable_oneshot())
            .unwrap();
        drop(client);
        let mut events = Vec::new();
        let got = poller
            .wait(&mut events, 16, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(got, 1);
        assert!(events[0].readable && events[0].hangup);
    }

    #[test]
    fn eventfd_wakes_a_sleeping_wait_and_drains() {
        let poller = Poller::new().unwrap();
        let doorbell = EventFd::new().unwrap();
        poller
            .add(doorbell.as_raw_fd(), u64::MAX, Interest::readable())
            .unwrap();

        let ringer = std::thread::spawn({
            let fd = doorbell.as_raw_fd();
            move || {
                std::thread::sleep(Duration::from_millis(30));
                // Ring through the raw fd the way a remote waker would.
                let one: u64 = 1;
                let buf = one.to_ne_bytes();
                extern "C" {
                    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
                }
                let wrote = unsafe { write(fd, buf.as_ptr(), 8) };
                assert_eq!(wrote, 8);
            }
        });

        let start = Instant::now();
        let mut events = Vec::new();
        let got = poller
            .wait(&mut events, 16, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(got, 1);
        assert_eq!(events[0].key, u64::MAX);
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "the ring, not the timeout, must end the wait"
        );
        assert_eq!(doorbell.drain(), 1);
        // Drained: the level-triggered registration goes quiet again.
        let got = poller
            .wait(&mut events, 16, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(got, 0);
        ringer.join().unwrap();
    }

    #[test]
    fn nofile_limit_reaches_bench_scale() {
        // The 10k-connection bench needs ~2 fds per poller plus slack; the
        // call must at least not lower whatever is already in effect.
        let achieved = raise_nofile_limit(4096).unwrap();
        assert!(achieved >= 4096);
    }
}
