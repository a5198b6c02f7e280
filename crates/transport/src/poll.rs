//! What std does not expose: one wait over several sockets, `ppoll(2)`,
//! and a `connect(2)` that does not wait. The constants are Linux's.
//!
//! `ppoll` rather than `poll` because its timeout is a `timespec`: `poll`
//! takes whole milliseconds, which would round every sub-millisecond
//! timer wait up to a millisecond.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::Duration;

/// Wait until the descriptor has bytes to read (or an error or hang-up).
pub(crate) const READABLE: c_short = 0x001; // POLLIN
/// Wait until the descriptor can take a write (or an error or hang-up).
pub(crate) const WRITABLE: c_short = 0x004; // POLLOUT

/// `struct pollfd`: a descriptor, what to wait for, what happened.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Waits on `fd` for `events` ([`READABLE`] and/or [`WRITABLE`]).
    pub(crate) fn new(fd: &impl AsRawFd, events: c_short) -> Self {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// True if the last [`wait`] found anything on this descriptor: what
    /// it waited for, an error or a hang-up.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// `struct timespec` as the Linux ABI lays it out.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `struct sockaddr_in` (16 bytes) or `struct sockaddr_in6` (28).
#[repr(C, align(4))]
struct SockAddr([u8; 28]);

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const SockAddr, len: u32) -> c_int;
}

/// Starts a TCP connection to `addr` and returns its stream at once —
/// non-blocking, close-on-exec, without Nagle's delay — while the
/// handshake may still be in flight (`EINPROGRESS`). It is over when a
/// [`wait`] finds the stream [`WRITABLE`]: then `TcpStream::take_error`
/// reads its `SO_ERROR`, which a write meets too. Errors are those
/// `socket(2)` or `connect(2)` report at once.
pub(crate) fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
    // Family (AF_INET 2, AF_INET6 10), port (big-endian), address.
    let mut raw = SockAddr([0; 28]);
    let (family, len) = match addr {
        SocketAddr::V4(v4) => {
            raw.0[4..8].copy_from_slice(&v4.ip().octets());
            (2, 16)
        }
        SocketAddr::V6(v6) => {
            raw.0[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
            raw.0[8..24].copy_from_slice(&v6.ip().octets());
            raw.0[24..].copy_from_slice(&v6.scope_id().to_ne_bytes());
            (10, 28)
        }
    };
    raw.0[..2].copy_from_slice(&(family as u16).to_ne_bytes());
    raw.0[2..4].copy_from_slice(&addr.port().to_be_bytes());
    // SAFETY: `socket` takes no pointer. The type is SOCK_STREAM |
    // SOCK_NONBLOCK | SOCK_CLOEXEC.
    let fd = unsafe { socket(family, 1 | 0o4000 | 0o2_000_000, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `socket` just returned `fd`: open, and owned by nothing
    // else, so the `OwnedFd` may own and close it.
    let stream = TcpStream::from(unsafe { OwnedFd::from_raw_fd(fd) });
    // SAFETY: `raw` is a live `sockaddr_in` or `sockaddr_in6` as the Linux
    // ABI lays them out, `len` is its size and the kernel only reads it;
    // the descriptor is the stream's, open.
    if unsafe { connect(stream.as_raw_fd(), &raw, len) } != 0 {
        let err = io::Error::last_os_error();
        // EINPROGRESS (115); an interrupted connect goes on all the same.
        if err.raw_os_error() != Some(115) && err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Blocks until some descriptor in `fds` is ready or `timeout` passes,
/// and returns how many are ready (0 on timeout, and when a signal cut
/// the wait short). Each entry's [`PollFd::ready`] says which.
///
/// # Errors
///
/// The error `ppoll` reports, other than `EINTR`.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let timeout = Timespec {
        tv_sec: timeout.as_secs().try_into().unwrap_or(c_long::MAX),
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // `struct pollfd`s and `nfds` is its length, so the kernel reads and
    // writes only inside it; `timeout` is a valid `timespec` that outlives
    // the call; a null signal mask means "leave the mask alone". The
    // descriptors need not stay open: a closed one is reported as
    // `POLLNVAL`, never dereferenced.
    let ready = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &timeout,
            std::ptr::null(),
        )
    };
    match usize::try_from(ready) {
        Ok(ready) => Ok(ready),
        Err(_) => {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    /// A sub-millisecond timeout is kept, not rounded up to 1 ms, and a
    /// byte written makes the other end ready.
    #[test]
    fn waits_out_sub_millisecond_timeouts_and_sees_a_byte() {
        let (mut tx, rx) = UnixStream::pair().expect("pair");
        let mut fds = [PollFd::new(&rx, READABLE)];
        // The quickest of several, so a busy machine cannot fail it;
        // rounded up, every one would take at least a millisecond.
        let quickest = (0..20)
            .map(|_| {
                let start = Instant::now();
                assert_eq!(wait(&mut fds, Duration::from_micros(50)).expect("ppoll"), 0);
                start.elapsed()
            })
            .min()
            .expect("20 waits");
        assert!(quickest < Duration::from_millis(1), "{quickest:?}");
        assert!(!fds[0].ready());
        tx.write_all(&[1]).expect("write");
        assert_eq!(wait(&mut fds, Duration::from_secs(5)).expect("ppoll"), 1);
        assert!(fds[0].ready());
    }

    /// A non-blocking connect to `listener` completes on `WRITABLE` with
    /// no `SO_ERROR`, and a byte crosses; once the listener is closed, one
    /// to its address fails: refused at once, or on `WRITABLE` through
    /// `take_error`.
    fn connects_then_is_refused(listener: TcpListener) {
        let addr = listener.local_addr().expect("addr");
        let mut stream = connect_nonblocking(addr).expect("connect");
        let mut fds = [PollFd::new(&stream, WRITABLE)];
        assert_eq!(wait(&mut fds, Duration::from_secs(5)).expect("ppoll"), 1);
        assert!(stream.take_error().expect("SO_ERROR").is_none(), "{addr}");
        stream.write_all(&[7]).expect("write");
        let (mut accepted, _) = listener.accept().expect("accept");
        let mut byte = [0];
        accepted.read_exact(&mut byte).expect("read");
        assert_eq!(byte, [7]);

        drop(listener);
        let refused = connect_nonblocking(addr).and_then(|stream| -> io::Result<()> {
            let mut fds = [PollFd::new(&stream, WRITABLE)];
            assert_eq!(wait(&mut fds, Duration::from_secs(5)).expect("ppoll"), 1);
            Err(stream.take_error()?.expect("a refusal in SO_ERROR"))
        });
        let refusal = refused.expect_err("connected to a closed port");
        assert_eq!(refusal.kind(), io::ErrorKind::ConnectionRefused, "{addr}");
    }

    #[test]
    fn a_nonblocking_connect_completes_or_reports_the_refusal() {
        connects_then_is_refused(TcpListener::bind("127.0.0.1:0").expect("bind"));
        // IPv6 wherever the loopback has it.
        if let Ok(listener) = TcpListener::bind("[::1]:0") {
            connects_then_is_refused(listener);
        }
    }
}
