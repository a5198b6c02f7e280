//! One wait over several sockets: `ppoll(2)`, which std does not expose.
//!
//! `ppoll` rather than `poll` because its timeout is a `timespec`: `poll`
//! takes whole milliseconds, which would round every sub-millisecond
//! timer wait up to a millisecond.

use std::io;
use std::os::fd::AsRawFd;
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

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
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
    use std::io::Write;
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
}
