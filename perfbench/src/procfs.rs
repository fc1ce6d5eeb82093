//! Counters the kernel keeps for this process and its threads.

use std::fs;

/// Scheduler and I/O counters of a set of threads, summed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadCounters {
    /// Time on CPU, ns (`schedstat` field 1).
    pub cpu_ns: u64,
    /// Time runnable but waiting for a CPU, ns (`schedstat` field 2).
    pub runq_ns: u64,
    /// Times the threads blocked and were woken again
    /// (`voluntary_ctxt_switches` in `status`). An epoll worker blocks
    /// once per `epoll_wait` that finds nothing ready, so this counts its
    /// wake-ups. (`io`'s `syscr`/`syscw` would not do: they skip the
    /// `send`/`recv` calls sockets use.)
    pub wakeups: u64,
}

impl ThreadCounters {
    pub fn since(&self, earlier: &ThreadCounters) -> ThreadCounters {
        ThreadCounters {
            cpu_ns: self.cpu_ns - earlier.cpu_ns,
            runq_ns: self.runq_ns - earlier.runq_ns,
            wakeups: self.wakeups - earlier.wakeups,
        }
    }
}

/// Sum the counters of this process's threads whose name starts with
/// `prefix` (e.g. `kv-worker-`). Threads that exit between listing and
/// reading are skipped.
pub fn threads_named(prefix: &str) -> ThreadCounters {
    let mut total = ThreadCounters::default();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return total };
    for task in tasks.flatten() {
        let dir = task.path();
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else { continue };
        if !comm.trim_end().starts_with(prefix) {
            continue;
        }
        if let Ok(s) = fs::read_to_string(dir.join("schedstat")) {
            let mut f = s.split_whitespace().map(|x| x.parse::<u64>().unwrap_or(0));
            total.cpu_ns += f.next().unwrap_or(0);
            total.runq_ns += f.next().unwrap_or(0);
        }
        if let Ok(status) = fs::read_to_string(dir.join("status")) {
            total.wakeups += field(&status, "voluntary_ctxt_switches");
        }
    }
    total
}

/// Time the calling thread has spent on CPU, ns (`schedstat` field 1).
pub fn this_thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The id of this process's thread named exactly `name`.
pub fn thread_id(name: &str) -> Option<i32> {
    fs::read_dir("/proc/self/task").ok()?.flatten().find_map(|task| {
        let comm = fs::read_to_string(task.path().join("comm")).ok()?;
        (comm.trim_end() == name).then(|| task.file_name().to_str()?.parse().ok())?
    })
}

/// Bytes this process has caused to be sent to storage
/// (`/proc/self/io` `write_bytes`).
pub fn process_write_bytes() -> u64 {
    fs::read_to_string("/proc/self/io").map_or(0, |io| field(&io, "write_bytes"))
}

/// The number after `name:` in a `/proc` key-value file.
fn field(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_fields() {
        let io = "rchar: 10\nwrite_bytes: 8192\ncancelled_write_bytes: 1\n";
        assert_eq!(field(io, "write_bytes"), 8192);
        assert_eq!(field(io, "missing"), 0);
        let status = "Name:\tx\nvoluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t2\n";
        assert_eq!(field(status, "voluntary_ctxt_switches"), 17);
    }

    #[test]
    fn a_named_thread_is_found_and_its_cpu_time_counted() {
        let t = std::thread::Builder::new()
            .name("procfs-probe".into())
            .spawn(|| {
                let t0 = std::time::Instant::now();
                while t0.elapsed() < std::time::Duration::from_millis(20) {
                    std::hint::black_box(0u64);
                }
                // Blocking once brings the kernel's counters up to date.
                std::thread::sleep(std::time::Duration::from_millis(2));
                let c = threads_named("procfs-probe");
                assert!(c.cpu_ns >= 5_000_000 && c.wakeups >= 1, "{c:?}");
                assert!(thread_id("procfs-probe").is_some());
            })
            .expect("spawn");
        t.join().expect("probe thread");
        assert_eq!(threads_named("procfs-probe"), ThreadCounters::default());
    }
}
