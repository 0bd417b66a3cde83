//! The load generator: two client threads speaking the ingress wire
//! protocol over loopback TCP.
//!
//! - **Closed loop:** `CONNECTIONS` connections, one thread each. A
//!   thread keeps `window` requests outstanding and sends the next one
//!   as soon as a reply frees a slot, so it only ever blocks in `read`.
//! - **Open loop:** one connection, with a sender thread that sleeps to
//!   each scheduled send time and a receiver thread that blocks in
//!   `read`. Socket read timeouts tick in scheduler jiffies (4 ms and
//!   more on common kernels), far too coarse to time sends by; a sleep
//!   is accurate to about 0.1 ms.

use std::collections::HashMap;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use autobatch_ingress::wire::{self, FrameReader, Message, RejectCode};
use autobatch_tensor::Tensor;

use crate::stats::process_cpu_seconds;
use crate::workload::{Loop, Served, CONNECTIONS};

/// How long requests may stay unanswered after the last send before the
/// run gives up on them.
pub const ANSWER_CAP: Duration = Duration::from_secs(30);

/// The start of a run lies this far ahead of the call, so every client
/// thread is waiting for it.
const START_DELAY: Duration = Duration::from_millis(20);

/// How long the open-loop receiver blocks in one read before looking at
/// the clock again.
const RECV_POLL: Duration = Duration::from_millis(50);

/// What came back for one request.
#[derive(Debug, Clone)]
pub enum Reply {
    /// Nothing within [`ANSWER_CAP`], or the connection closed first.
    Missing,
    /// A response frame.
    Response {
        /// Offset from the run's start when the reply was decoded.
        at: Duration,
        /// The server's collection wait (`WireResponse::queued_ticks`).
        queued: Duration,
        /// The program outputs.
        outputs: Vec<Tensor>,
    },
    /// A typed reject frame.
    Rejected {
        /// Offset from the run's start when the reject was decoded.
        at: Duration,
        /// Why the server refused.
        code: RejectCode,
    },
}

/// One request's life as the client saw it.
#[derive(Debug, Clone)]
pub struct Record {
    /// The request id (its index in the seeded stream).
    pub id: u64,
    /// When it was due: the scheduled offset (open loop) or the send
    /// offset (closed loop). Latency counts from here.
    pub due: Duration,
    /// When it was sent.
    pub sent: Duration,
    /// What came back.
    pub reply: Reply,
}

impl Record {
    /// Client latency, if the request was answered with a response.
    pub fn latency(&self) -> Option<Duration> {
        match &self.reply {
            Reply::Response { at, .. } => Some(at.saturating_sub(self.due)),
            _ => None,
        }
    }
}

/// The outcome of one measured run.
#[derive(Debug)]
pub struct LoadRun {
    /// Every request sent, by id.
    pub records: Vec<Record>,
    /// From the run's start to the last reply.
    pub window: Duration,
    /// Process CPU seconds over the window (client and server).
    pub cpu_s: f64,
    /// Worst generator lag: how late a send left against its schedule
    /// (open loop), or after the reply that freed its slot (closed loop).
    pub lag_max: Duration,
}

/// Drive the server at `addr` for `seconds` under the workload's loop.
///
/// # Errors
///
/// Socket failures while connecting or sending.
pub fn run(addr: SocketAddr, served: &Served, seconds: f64) -> io::Result<LoadRun> {
    let length = Duration::from_secs_f64(seconds);
    let cpu0 = process_cpu_seconds();
    let (mut records, lag_max) = match served.workload.load() {
        Loop::Closed { window } => closed(addr, served, window, length)?,
        Loop::Open { rate } => open(addr, served, &served.schedule(rate, seconds))?,
    };
    let cpu_s = process_cpu_seconds() - cpu0;
    records.sort_by_key(|r| r.id);
    let window = records
        .iter()
        .filter_map(|r| match r.reply {
            Reply::Response { at, .. } | Reply::Rejected { at, .. } => Some(at),
            Reply::Missing => None,
        })
        .max()
        .unwrap_or(length);
    Ok(LoadRun {
        records,
        window,
        cpu_s,
        lag_max,
    })
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

fn sleep_until(t: Instant) {
    if let Some(wait) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

fn send(stream: &mut TcpStream, served: &Served, id: u64) -> io::Result<()> {
    let item = served.item(id);
    let payload = wire::encode_request(id, item.seed, &item.inputs)
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    wire::write_frame(stream, &payload)
}

/// Read one reply frame. `Ok(None)` on a timeout; `Err` when the stream
/// ended or broke, or carried something other than a reply.
fn recv(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    start: Instant,
) -> Result<Option<(u64, Reply)>, ()> {
    match reader.next_frame(stream) {
        Ok(Some(payload)) => {
            let at = Instant::now() - start;
            match wire::decode(&payload) {
                Ok(Message::Response(r)) => Ok(Some((
                    r.id,
                    Reply::Response {
                        at,
                        queued: Duration::from_nanos(r.queued_ticks),
                        outputs: r.outputs,
                    },
                ))),
                Ok(Message::Reject(r)) => Ok(Some((r.id, Reply::Rejected { at, code: r.code }))),
                _ => Err(()),
            }
        }
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
        Ok(None) | Err(_) => Err(()),
    }
}

fn closed(
    addr: SocketAddr,
    served: &Served,
    window: usize,
    length: Duration,
) -> io::Result<(Vec<Record>, Duration)> {
    let streams = (0..CONNECTIONS)
        .map(|_| connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let start = Instant::now() + START_DELAY;
    let conns: Vec<io::Result<(Vec<Record>, Duration)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                scope.spawn(move || {
                    closed_conn(stream, served, c as u64, window, start, start + length)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut records = Vec::new();
    let mut lag_max = Duration::ZERO;
    for conn in conns {
        let (r, lag) = conn?;
        records.extend(r);
        lag_max = lag_max.max(lag);
    }
    Ok((records, lag_max))
}

/// One closed-loop connection: ids `first, first + CONNECTIONS, ..`,
/// `window` outstanding, sending until `stop`.
fn closed_conn(
    mut stream: TcpStream,
    served: &Served,
    first: u64,
    window: usize,
    start: Instant,
    stop: Instant,
) -> io::Result<(Vec<Record>, Duration)> {
    let mut records: HashMap<u64, Record> = HashMap::new();
    let mut reader = FrameReader::new();
    let mut next = first;
    let mut outstanding = 0usize;
    let mut lag_max = Duration::ZERO;
    // When the last reply freed a slot.
    let mut freed = start;
    let give_up = stop + ANSWER_CAP;
    sleep_until(start);
    loop {
        while outstanding < window && Instant::now() < stop {
            let sent = Instant::now();
            send(&mut stream, served, next)?;
            lag_max = lag_max.max(sent.saturating_duration_since(freed));
            records.insert(
                next,
                Record {
                    id: next,
                    due: sent - start,
                    sent: sent - start,
                    reply: Reply::Missing,
                },
            );
            next += CONNECTIONS as u64;
            outstanding += 1;
        }
        let now = Instant::now();
        if outstanding == 0 || now >= give_up {
            break;
        }
        // Until `stop` a slot frees only with a reply; after it, the
        // remaining replies have until `give_up`.
        let until = if now < stop { stop } else { give_up };
        stream.set_read_timeout(Some((until - now).max(Duration::from_millis(1))))?;
        match recv(&mut stream, &mut reader, start) {
            Ok(Some((id, reply))) => {
                if let Some(rec) = records
                    .get_mut(&id)
                    .filter(|r| matches!(r.reply, Reply::Missing))
                {
                    rec.reply = reply;
                    outstanding -= 1;
                    freed = Instant::now();
                }
            }
            Ok(None) => {}
            Err(()) => break,
        }
    }
    Ok((records.into_values().collect(), lag_max))
}

/// The open loop: request `i` is due at `schedule[i]` after the start.
fn open(
    addr: SocketAddr,
    served: &Served,
    schedule: &[Duration],
) -> io::Result<(Vec<Record>, Duration)> {
    let mut tx = connect(addr)?;
    let mut rx = tx.try_clone()?;
    rx.set_read_timeout(Some(RECV_POLL))?;
    let start = Instant::now() + START_DELAY;
    let give_up = start + schedule.last().copied().unwrap_or_default() + ANSWER_CAP;
    let sender_failed = AtomicBool::new(false);
    let (sent, replies) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent: Vec<(Duration, Duration)> = Vec::with_capacity(schedule.len());
            for (id, &due) in schedule.iter().enumerate() {
                sleep_until(start + due);
                let at = Instant::now() - start;
                if send(&mut tx, served, id as u64).is_err() {
                    sender_failed.store(true, Ordering::Relaxed);
                    break;
                }
                sent.push((due, at));
            }
            sent
        });
        let receiver = scope.spawn(|| {
            let mut reader = FrameReader::new();
            let mut replies: HashMap<u64, Reply> = HashMap::new();
            while replies.len() < schedule.len()
                && Instant::now() < give_up
                && !sender_failed.load(Ordering::Relaxed)
            {
                match recv(&mut rx, &mut reader, start) {
                    Ok(Some((id, reply))) if (id as usize) < schedule.len() => {
                        replies.entry(id).or_insert(reply);
                    }
                    Ok(_) => {}
                    Err(()) => break,
                }
            }
            replies
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    if sender_failed.load(Ordering::Relaxed) {
        return Err(io::Error::new(
            ErrorKind::BrokenPipe,
            "sending a request failed",
        ));
    }
    let mut replies = replies;
    let mut lag_max = Duration::ZERO;
    let records = sent
        .into_iter()
        .enumerate()
        .map(|(id, (due, at))| {
            lag_max = lag_max.max(at.saturating_sub(due));
            Record {
                id: id as u64,
                due,
                sent: at,
                reply: replies.remove(&(id as u64)).unwrap_or(Reply::Missing),
            }
        })
        .collect();
    Ok((records, lag_max))
}
