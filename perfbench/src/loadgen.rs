//! The open-loop request generator for the `kv_*` workloads.
//!
//! One thread per connection. Each request has a due time on a fixed
//! grid; the thread encodes every request that has come due, writes
//! what the socket takes, and decodes responses *as they arrive* —
//! between sends it blocks in `ppoll` on "readable, or the next request
//! is due", never on a full pipeline. Latency is measured from the due
//! time, so a stall also charges the requests queued behind it, and how
//! late the generator itself encoded each request is recorded
//! separately: a phase in which the generator fell behind its own
//! schedule measures the generator, not the server.
//!
//! Every answer is checked against a per-connection model. Each
//! connection owns every other key of the preloaded universe, so the
//! server's per-connection FIFO order makes the expected answer of every
//! GET and the replaced value of every PUT exact.

use crate::inputs::SplitMix64;
use crate::os as sys;
use crate::trace::now_ns;
use sevendim_core::InsertOutcome;
use sevendim_net::protocol::{decode_response, encode_request, Request, Response};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

/// A phase in which the generator encoded half its requests later than
/// this (µs) after their due times fell behind its schedule. A median,
/// because a host stall delays a burst of requests without the
/// generator falling behind; a generator short of CPU lags more and
/// more, and its median lateness runs away.
pub const GEN_LATE_LIMIT_US: f64 = 1_000.0;

/// How long a phase waits for its last responses after the last send.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// How often the outstanding-request count is sampled.
const BACKLOG_SAMPLE_NS: u64 = 1_000_000;

/// With nothing in flight, the generator wakes this long before a due
/// time and spins until it: longer than a timer wake-up on an idle
/// virtual CPU usually takes, short of the 100 µs between one
/// connection's requests at the `kv_*` reference rate.
const SPIN_AHEAD_NS: u64 = 50_000;

/// The key universe one connection drives, and the model of its values.
pub struct Model {
    /// Keys this connection owns.
    pub keys: Vec<u64>,
    /// Current value of `keys[i]`, as the server must hold it.
    pub values: Vec<u64>,
}

/// One connection with its model and buffers.
pub struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    rpos: usize,
    next_id: u64,
    pub model: Model,
}

impl Conn {
    pub fn connect(addr: SocketAddr, model: Model) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self { stream, wbuf: Vec::new(), wpos: 0, rbuf: Vec::new(), rpos: 0, next_id: 1, model })
    }
}

/// What one phase asks of one connection.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSpec {
    /// Offered rate on this connection, requests/s.
    pub rate: f64,
    pub duration: Duration,
    /// Share of GETs in parts per hundred; the rest are PUTs.
    pub get_pct: u64,
    /// Request-stream seed (already specific to phase and connection).
    pub stream_seed: u64,
    /// First due time is this far into the phase (staggers connections).
    pub offset_ns: u64,
    /// Time the client codec (traced runs only).
    pub time_codec: bool,
    /// CPU the generator thread runs on.
    pub cpu: usize,
}

/// What one phase measured on one connection.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Due-to-answer latencies, ns.
    pub get_ns: Vec<u64>,
    pub put_ns: Vec<u64>,
    /// Encode-to-answer round trips, ns.
    pub rtt_ns: Vec<u64>,
    /// How late each request was encoded after its due time, ns.
    pub late_ns: Vec<u64>,
    /// Outstanding requests, sampled every millisecond while sending.
    pub backlog: Vec<u32>,
    pub sent: u64,
    pub puts_acked: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Client `encode_request` + `decode_response` time, ns.
    pub codec_ns: u64,
}

impl PhaseOut {
    fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.first_error.is_none() {
            self.first_error = Some(why());
        }
    }

    /// Fold another connection's results into this one.
    pub fn absorb(&mut self, mut o: PhaseOut) {
        self.get_ns.append(&mut o.get_ns);
        self.put_ns.append(&mut o.put_ns);
        self.rtt_ns.append(&mut o.rtt_ns);
        self.late_ns.append(&mut o.late_ns);
        // Outstanding counts add across connections sample by sample.
        if self.backlog.len() < o.backlog.len() {
            self.backlog.resize(o.backlog.len(), 0);
        }
        for (a, b) in self.backlog.iter_mut().zip(o.backlog) {
            *a += b;
        }
        self.sent += o.sent;
        self.puts_acked += o.puts_acked;
        self.failed += o.failed;
        if self.first_error.is_none() {
            self.first_error = o.first_error;
        }
        self.codec_ns += o.codec_ns;
    }
}

struct Pending {
    id: u64,
    due_ns: u64,
    sent_ns: u64,
    /// Model slot, and the value the answer must carry.
    slot: usize,
    expect: u64,
    is_get: bool,
}

/// The request the stream draws next: GET or PUT, on which model slot,
/// with which new value. Shared with the determinism test.
pub fn draw(rng: &mut SplitMix64, get_pct: u64, slots: usize) -> (bool, usize, u64) {
    let is_get = rng.below(100) < get_pct;
    let slot = rng.below(slots as u64) as usize;
    let value = rng.next_u64();
    (is_get, slot, value)
}

/// Run one open-loop phase on `conn`. Requests are due at
/// `start + offset + n / rate` for every `n` whose due time falls inside
/// `duration`; the phase ends once every answer is in (or the drain
/// limit passes, failing what is still outstanding).
pub fn run_phase(conn: &mut Conn, spec: &PhaseSpec, start_ns: u64) -> PhaseOut {
    let mut out = PhaseOut::default();
    sys::tight_timer_slack();
    if let Err(e) = sys::pin(0, spec.cpu) {
        out.fail(0, || format!("cannot pin the generator to CPU {}: {e}", spec.cpu));
        return out;
    }
    let mut rng = SplitMix64::new(spec.stream_seed);
    let interval = 1e9 / spec.rate;
    let first_due = start_ns + spec.offset_ns;
    let end_ns = start_ns + spec.duration.as_nanos() as u64;
    let due_of = |n: u64| first_due + (n as f64 * interval) as u64;
    let mut n = 0u64;
    let mut next_due = due_of(0);
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut next_sample = start_ns;
    let fd = conn.stream.as_raw_fd();
    let slots = conn.model.keys.len();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut ready = sys::POLLIN;
    loop {
        let now = now_ns();
        // Encode everything that has come due.
        while next_due <= now && next_due < end_ns {
            let (is_get, slot, value) = draw(&mut rng, spec.get_pct, slots);
            let key = conn.model.keys[slot];
            let expect = conn.model.values[slot];
            let req = if is_get { Request::Get(key) } else { Request::Put(key, value) };
            if !is_get {
                conn.model.values[slot] = value;
            }
            let id = conn.next_id;
            conn.next_id += 1;
            let t = if spec.time_codec { now_ns() } else { 0 };
            encode_request(id, &req, &mut conn.wbuf);
            if spec.time_codec {
                out.codec_ns += now_ns() - t;
            }
            out.late_ns.push(now - next_due);
            pending.push_back(Pending { id, due_ns: next_due, sent_ns: now, slot, expect, is_get });
            out.sent += 1;
            n += 1;
            next_due = due_of(n);
        }
        if now >= next_sample && now < end_ns {
            out.backlog.push(pending.len() as u32);
            next_sample += BACKLOG_SAMPLE_NS;
        }
        if let Err(e) = flush(conn) {
            out.fail(pending.len() as u64, || format!("write failed: {e}"));
            return out;
        }
        let readable = ready & !sys::POLLOUT != 0;
        if readable {
            if let Err(e) = receive(conn, &mut pending, &mut out, spec.time_codec, &mut chunk) {
                let outstanding = pending.len() as u64;
                out.fail(outstanding, || format!("read failed: {e}"));
                return out;
            }
        }
        let sending = next_due < end_ns;
        if !sending && pending.is_empty() {
            return out;
        }
        let now = now_ns();
        if !sending && now > end_ns + DRAIN_LIMIT.as_nanos() as u64 {
            let outstanding = pending.len() as u64;
            out.fail(outstanding, || format!("{outstanding} requests unanswered after drain"));
            return out;
        }
        let mut timeout = if sending { next_due.saturating_sub(now) } else { 10_000_000 };
        let idle = pending.is_empty() && conn.wpos == conn.wbuf.len();
        if sending && idle {
            // Nothing in flight: sleep until shortly before the next due
            // time and spin the rest, so a late timer wake-up on an idle
            // (virtual) CPU does not make the request late.
            if timeout <= SPIN_AHEAD_NS {
                while now_ns() < next_due {
                    std::hint::spin_loop();
                }
                ready = 0;
                continue;
            }
            timeout -= SPIN_AHEAD_NS;
        }
        let events =
            if conn.wpos < conn.wbuf.len() { sys::POLLIN | sys::POLLOUT } else { sys::POLLIN };
        ready = sys::wait(fd, events, timeout);
    }
}

/// Write as much of the output buffer as the socket takes.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    Ok(())
}

/// Read whatever has arrived and settle every complete response.
fn receive(
    conn: &mut Conn,
    pending: &mut VecDeque<Pending>,
    out: &mut PhaseOut,
    time_codec: bool,
    chunk: &mut [u8],
) -> io::Result<()> {
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let arrived = now_ns();
    loop {
        let t = if time_codec { now_ns() } else { 0 };
        let decoded = decode_response(&conn.rbuf[conn.rpos..])?;
        if time_codec {
            out.codec_ns += now_ns() - t;
        }
        let Some((id, resp, used)) = decoded else { break };
        conn.rpos += used;
        let Some(p) = pending.pop_front() else {
            out.fail(1, || format!("unsolicited response {id}"));
            continue;
        };
        settle(&p, id, &resp, arrived, out);
    }
    if conn.rpos == conn.rbuf.len() {
        conn.rbuf.clear();
        conn.rpos = 0;
    } else if conn.rpos > 1 << 20 {
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
    }
    Ok(())
}

/// Check one answer against the model and record its latency.
fn settle(p: &Pending, id: u64, resp: &Response, arrived: u64, out: &mut PhaseOut) {
    let ok = id == p.id
        && match (p.is_get, resp) {
            (true, Response::Get(Some(v))) => *v == p.expect,
            (false, Response::Put(Ok(InsertOutcome::Replaced(old)))) => *old == p.expect,
            _ => false,
        };
    if !ok {
        out.fail(1, || {
            format!(
                "request {} (slot {}, {}) expected {} and got id {id}: {resp:?}",
                p.id,
                p.slot,
                if p.is_get { "GET" } else { "PUT" },
                p.expect
            )
        });
        return;
    }
    let latency = arrived.saturating_sub(p.due_ns);
    out.rtt_ns.push(arrived.saturating_sub(p.sent_ns));
    if p.is_get {
        out.get_ns.push(latency);
    } else {
        out.put_ns.push(latency);
        out.puts_acked += 1;
    }
}

/// Run one phase on every connection at once, one thread each, and
/// merge the results. `rate` is the total offered rate; each connection
/// carries an equal share, staggered by a fraction of its interval.
pub fn run_parallel(
    conns: &mut [Conn],
    rate: f64,
    duration: Duration,
    get_pct: u64,
    phase_seed: u64,
    time_codec: bool,
) -> PhaseOut {
    let n_conns = conns.len();
    let per_conn = rate / n_conns as f64;
    let start_ns = now_ns() + 2_000_000;
    let outs: Vec<PhaseOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let spec = PhaseSpec {
                    rate: per_conn,
                    duration,
                    get_pct,
                    stream_seed: SplitMix64::stream(phase_seed, i as u64).next_u64(),
                    offset_ns: (1e9 / per_conn * i as f64 / n_conns as f64) as u64,
                    time_codec,
                    cpu: crate::kv::cpu_of(i),
                };
                std::thread::Builder::new()
                    .name(format!("gen-{i}"))
                    .spawn_scoped(scope, move || run_phase(conn, &spec, start_ns))
                    .expect("spawn generator thread")
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    let mut merged = PhaseOut::default();
    for o in outs {
        merged.absorb(o);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_draws_one_request_stream() {
        let stream = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..1000).map(|_| draw(&mut rng, 95, 500_000)).collect::<Vec<_>>()
        };
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
        let gets = stream(5).iter().filter(|r| r.0).count();
        assert!((900..=990).contains(&gets), "{gets} GETs in 1000 at 95%");
    }
}
