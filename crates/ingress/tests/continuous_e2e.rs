//! Continuous-batching contract over real loopback TCP: arrivals join
//! running shards, and each request is answered the round it retires —
//! never held back behind a slower batchmate. Every test orders its
//! steps by observed replies, not by sleeps: a reply to a request sent
//! after a long one proves the long one was admitted (shard queues are
//! FIFO), and a runaway request stays in flight until it is cancelled.

use std::net::TcpStream;
use std::time::Duration;

use autobatch_core::{lower, LoweringOptions};
use autobatch_ingress::wire::{self, FrameReader, Message, RejectCode, WireReject, WireResponse};
use autobatch_ingress::{IngressClient, IngressConfig, IngressHandle, IngressServer};
use autobatch_ir::build::ProgramBuilder;
use autobatch_ir::Prim;
use autobatch_tensor::Tensor;

/// `y = x; i = 0; while i != n { y += 1.0; i += 1 }` — `n` iterations
/// for `n >= 0`; with `n < 0` the request never terminates.
fn countup_server(config: IngressConfig) -> IngressHandle {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare("countup", &["n", "x"], &["y"]);
    pb.define(f, |fb| {
        let n = fb.param(0);
        let x = fb.param(1);
        let y = fb.output(0);
        fb.assign(&y, Prim::Id, &[x]);
        let zero = fb.const_i64(0);
        let i = fb.emit(Prim::Id, &[zero]);
        let exit = fb.new_block();
        let header = fb.new_block();
        let body = fb.new_block();
        fb.jump(header);
        fb.switch_to(header);
        let c = fb.emit(Prim::NeE, &[i.clone(), n.clone()]);
        fb.branch(&c, body, exit);
        fb.switch_to(body);
        let one_f = fb.const_f64(1.0);
        fb.assign(&y, Prim::Add, &[y.clone(), one_f]);
        let one_i = fb.const_i64(1);
        fb.assign(&i, Prim::Add, &[i.clone(), one_i]);
        fb.jump(header);
        fb.switch_to(exit);
        fb.ret();
    });
    let (pc, _) = lower(&pb.finish(f).unwrap(), LoweringOptions::default()).unwrap();
    IngressServer::start(pc, config, "127.0.0.1:0").unwrap()
}

fn countup(n: i64) -> Vec<Tensor> {
    vec![
        Tensor::from_i64(&[n], &[1]).unwrap(),
        Tensor::from_f64(&[0.0], &[1]).unwrap(),
    ]
}

/// A raw connection whose reads time out, so an engine that holds a
/// reply back behind a runaway fails the test instead of hanging it.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

impl Conn {
    fn open(handle: &IngressHandle) -> Conn {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Conn {
            stream,
            reader: FrameReader::new(),
        }
    }

    fn send(&mut self, id: u64, inputs: &[Tensor]) {
        let payload = wire::encode_request(id, id, inputs).unwrap();
        wire::write_frame(&mut self.stream, &payload).unwrap();
    }

    fn cancel(&mut self, id: u64) {
        wire::write_frame(&mut self.stream, &wire::encode_cancel(id)).unwrap();
    }

    fn recv(&mut self) -> Result<WireResponse, WireReject> {
        let payload = self
            .reader
            .next_frame(&mut self.stream)
            .expect("no reply within the read timeout")
            .expect("connection closed");
        match wire::decode(&payload).unwrap() {
            Message::Response(r) => Ok(r),
            Message::Reject(r) => Err(r),
            other => panic!("server sent a client-only frame: {other:?}"),
        }
    }
}

#[test]
fn a_short_request_overtakes_a_long_one_already_in_flight() {
    let handle = countup_server(IngressConfig {
        workers: 1,
        max_batch: 4,
        max_wait: Duration::from_millis(2),
        ..IngressConfig::default()
    });
    let mut conn = Conn::open(&handle);
    conn.send(0, &countup(-1));
    conn.send(1, &countup(3));
    // Request 1 queued behind request 0 on the only shard, so its reply
    // proves request 0 was admitted — and is still running.
    let r = conn.recv().expect("the short request is served");
    assert_eq!((r.id, r.outputs[0].as_f64().unwrap()), (1, &[3.0][..]));
    // A request sent now joins the running batch and is answered the
    // round it retires, while its long batchmate keeps running.
    conn.send(2, &countup(5));
    let r = conn.recv().expect("the later short request is served");
    assert_eq!((r.id, r.outputs[0].as_f64().unwrap()), (2, &[5.0][..]));
    // Cancellation still evicts the in-flight lane.
    conn.cancel(0);
    let rej = conn.recv().expect_err("the long request is cancelled");
    assert_eq!((rej.id, rej.code), (0, RejectCode::Cancelled));
    drop(conn);
    let stats = handle.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.failed, 0);
}

#[test]
fn a_flood_is_shed_at_the_queue_budget_while_lanes_are_busy() {
    // One lane, one queue slot: a runaway holds the lane, so at most one
    // flood request can wait for it and the rest must be shed at once.
    const FLOOD: u64 = 8;
    let handle = countup_server(IngressConfig {
        workers: 1,
        max_batch: 1,
        max_wait: Duration::from_millis(2),
        queue_budget: Some(1),
        ..IngressConfig::default()
    });
    let mut conn = Conn::open(&handle);
    conn.send(0, &countup(-1));
    for id in 1..=FLOOD {
        conn.send(id, &countup(2));
    }
    // Whether the runaway or one flood request holds the queue slot,
    // FLOOD - 1 requests are refused while the runaway is in flight.
    let mut shed = 0;
    for _ in 1..FLOOD {
        let rej = conn.recv().expect_err("flood requests are shed");
        assert_eq!(rej.code, RejectCode::Overloaded);
        assert_eq!(
            (rej.depth, rej.budget),
            (1, 1),
            "depth counts the shard queue"
        );
        shed += 1;
    }
    conn.cancel(0);
    let mut served = 0;
    let mut cancelled = false;
    while shed + served < FLOOD || !cancelled {
        match conn.recv() {
            Ok(r) => {
                assert_eq!(r.outputs[0].as_f64().unwrap(), &[2.0]);
                served += 1;
            }
            Err(rej) if rej.code == RejectCode::Cancelled => {
                assert_eq!(rej.id, 0);
                cancelled = true;
            }
            Err(rej) => {
                assert_eq!(rej.code, RejectCode::Overloaded);
                shed += 1;
            }
        }
    }
    assert!(served <= 1, "only one flood request fit the queue");
    drop(conn);
    let stats = handle.shutdown();
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.completed, served);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.peak_buffered, 1, "the budget bounds every wait");
}

#[test]
fn a_disconnect_evicts_the_in_flight_lane() {
    let handle = countup_server(IngressConfig {
        workers: 1,
        max_batch: 4,
        max_wait: Duration::from_millis(2),
        ..IngressConfig::default()
    });
    let mut doomed = Conn::open(&handle);
    doomed.send(0, &countup(-1));
    doomed.send(1, &countup(1));
    // As above: this reply proves the runaway is in flight.
    assert_eq!(doomed.recv().expect("served").id, 1);
    drop(doomed);
    let mut client = IngressClient::connect(handle.addr()).unwrap();
    let r = client.call(0, 0, &countup(4)).unwrap();
    assert_eq!(r.outputs[0].as_f64().unwrap(), &[4.0]);
    drop(client);
    // Shutdown drains to quiescence: it would wedge on a runaway lane
    // the disconnect failed to evict.
    let stats = handle.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.cancelled, 1, "the abandoned request was evicted");
    assert_eq!(stats.failed, 0);
}
