//! The TCP front door: continuous deadline-driven batching over a socket.
//!
//! Starts an `IngressServer` on a loopback port, speaks the
//! length-prefixed wire protocol to it with `IngressClient`, and walks
//! through the three behaviours the ingress layer adds on top of the
//! sharded server: full batches under load, partial batches launched at
//! the deadline under light load, and typed load shedding past the
//! queue budget.
//!
//! Run with: `cargo run --release --example ingress_demo`

use std::time::{Duration, Instant};

use autobatch::core::{lower, LoweringOptions};
use autobatch::ingress::{IngressClient, IngressConfig, IngressError, IngressServer};
use autobatch::lang::compile;
use autobatch::tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = "
        // C(n, k) by Pascal's rule — doubly data-dependent recursion.
        fn binom(n: int, k: int) -> (out: int) {
            if k <= 0 {
                out = 1;
            } else if k >= n {
                out = 1;
            } else {
                let left = binom(n - 1, k - 1);
                let right = binom(n - 1, k);
                out = left + right;
            }
        }
    ";
    let (program, _) = lower(&compile(source, "binom")?, LoweringOptions::default())?;
    let request = |n: i64, k: i64| -> Result<Vec<Tensor>, Box<dyn std::error::Error>> {
        Ok(vec![
            Tensor::from_i64(&[n], &[1])?,
            Tensor::from_i64(&[k], &[1])?,
        ])
    };

    // ---- Part 1: a pipelined burst fills batches ----------------------
    // 2 workers × batch 4: eight requests sent back to back fill the
    // fleet, so the shards admit on capacity, not on the deadline.
    let max_wait = Duration::from_millis(30);
    let handle = IngressServer::start(
        program.clone(),
        IngressConfig {
            workers: 2,
            max_batch: 4,
            max_wait,
            ..IngressConfig::default()
        },
        "127.0.0.1:0",
    )?;
    println!("ingress listening on {}", handle.addr());

    let pairs: [(i64, i64); 8] = [
        (10, 2),
        (12, 6),
        (9, 4),
        (14, 7),
        (8, 0),
        (11, 11),
        (13, 5),
        (7, 3),
    ];
    let mut client = IngressClient::connect(handle.addr())?;
    for (i, &(n, k)) in pairs.iter().enumerate() {
        client.send(i as u64, i as u64, &request(n, k)?)?;
    }
    let mut replies: Vec<_> = (0..pairs.len())
        .map(|_| client.recv())
        .collect::<Result<_, _>>()?;
    replies.sort_by_key(|r| r.id);
    println!("\nC(n, k) over TCP:");
    for (&(n, k), r) in pairs.iter().zip(&replies) {
        println!("  C({n:2}, {k:2}) = {}", r.outputs[0]);
    }
    assert_eq!(replies[0].outputs[0].as_i64()?, &[45], "C(10, 2)");
    assert_eq!(replies[3].outputs[0].as_i64()?, &[3432], "C(14, 7)");

    // ---- Part 2: a lone request launches at the deadline --------------
    // Nothing else is coming, so the partial batch cannot fill; the
    // head-of-line deadline launches it after max_wait instead of never.
    let t0 = Instant::now();
    let lone = client.call(99, 99, &request(10, 5)?)?;
    let elapsed = t0.elapsed();
    println!(
        "\nlone request: C(10, 5) = {} after {elapsed:.1?} \
         (deadline {max_wait:?}, queued {:.1?} server-side)",
        lone.outputs[0],
        Duration::from_nanos(lone.queued_ticks),
    );
    assert_eq!(lone.outputs[0].as_i64()?, &[252]);
    assert!(
        elapsed >= max_wait,
        "a partial batch must wait out the deadline"
    );
    drop(client);
    let stats = handle.shutdown();
    println!("part 1+2 stats: {stats:?}");
    assert_eq!(stats.completed, 9);

    // ---- Part 3: load shedding past the queue budget ------------------
    // One worker with a queue budget of 1 and a long deadline: the first
    // arrival waits in the shard's queue, and everything behind it
    // is shed immediately with a typed Overloaded reject frame — no
    // client waits out a deadline it was always going to miss.
    let handle = IngressServer::start(
        program,
        IngressConfig {
            workers: 1,
            max_batch: 4,
            max_wait: Duration::from_millis(300),
            queue_budget: Some(1),
            ..IngressConfig::default()
        },
        "127.0.0.1:0",
    )?;
    let mut client = IngressClient::connect(handle.addr())?;
    for id in 0..3u64 {
        client.send(id, id, &request(9, 3)?)?;
    }
    let (mut served, mut shed) = (0, 0);
    for _ in 0..3 {
        match client.recv() {
            Ok(r) => {
                assert_eq!(r.outputs[0].as_i64()?, &[84], "C(9, 3)");
                served += 1;
            }
            Err(IngressError::Rejected(reject)) => {
                println!("shed: {reject}");
                shed += 1;
            }
            Err(e) => return Err(e.into()),
        }
    }
    println!("overload: {served} served, {shed} shed at budget 1");
    assert_eq!((served, shed), (1, 2));
    drop(client);
    let stats = handle.shutdown();
    assert_eq!((stats.completed, stats.shed), (1, 2));
    println!("part 3 stats: {stats:?}");
    Ok(())
}
