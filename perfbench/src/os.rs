//! The few system calls the standard library does not wrap: `ppoll`
//! with a nanosecond timeout, per-thread timer slack, and CPU affinity.
//! Declared directly against the C library (the build is offline, so
//! there is no `libc` crate).

use std::io;
use std::os::raw::{c_int, c_long, c_ulong, c_void};

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

pub const POLLIN: i16 = 0x1;
pub const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: c_ulong, tmo: *const Timespec, mask: *const c_void) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
}

/// Block until `fd` has one of `events` or `timeout_ns` passes, and
/// return the events that are ready. Errors (EINTR included) report
/// every requested event: the caller's non-blocking I/O finds out.
pub fn wait(fd: c_int, events: i16, timeout_ns: u64) -> i16 {
    let mut pfd = PollFd { fd, events, revents: 0 };
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as c_long,
        tv_nsec: (timeout_ns % 1_000_000_000) as c_long,
    };
    // SAFETY: `pfd` and `ts` are live, properly laid out (`repr(C)`
    // matching `struct pollfd` / `struct timespec` on Linux) for the
    // duration of the call; nfds = 1 matches the single `pfd`; a null
    // sigmask is allowed and leaves the signal mask unchanged.
    let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if n < 0 {
        events
    } else {
        pfd.revents
    }
}

/// Ask for 1 ns timer slack on this thread, so `ppoll` wakes at the
/// due time rather than up to the default 50 µs after it.
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches only the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

/// Pin thread `tid` (0 = the calling thread) to CPU `cpu`.
pub fn pin(tid: i32, cpu: usize) -> io::Result<()> {
    let mut mask = [0 as c_ulong; 16];
    let bits = c_ulong::BITS as usize;
    if cpu >= mask.len() * bits {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, format!("CPU {cpu} out of range")));
    }
    mask[cpu / bits] |= 1 << (cpu % bits);
    // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes, the
    // layout of a `cpu_set_t` prefix; the kernel only reads it.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}
