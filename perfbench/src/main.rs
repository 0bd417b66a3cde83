//! `perfbench`: see the crate documentation.

use std::process::ExitCode;

use autobatch_perfbench::bench::{self, Args};
use autobatch_perfbench::metrics::unit;
use autobatch_perfbench::replay::replay_len;
use autobatch_perfbench::workload::{Loop, Workload};

const USAGE: &str =
    "usage: perfbench --workload <nuts-funnel|binom-divergent|binom-shallow> --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match bench::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let shape = match args.workload.load() {
        Loop::Closed { window } => format!("closed loop, 2 connections x {window} outstanding"),
        Loop::Open { rate } => format!("open loop, Poisson {rate} req/s on 1 connection"),
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} ({shape}), seed {}, {} s, trace {}, {cores} cores",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let a = &outcome.accounting;
    println!(
        "requests: sent {} answered {} correct {} wrong {} unanswered {} rejects {:?}",
        a.sent, a.answered, a.correct, a.wrong, a.unanswered, a.rejects
    );
    println!("error_frac {} frac", a.error_frac());
    let v = &outcome.validity;
    println!(
        "load: send lag p50 {:.3} p99 {:.3} max {:.3} ms (limit {} ms), answered share by half {:.4} / {:.4} -> {}",
        v.lag_p50 * 1e3,
        v.lag_p99 * 1e3,
        v.lag_max.as_secs_f64() * 1e3,
        bench::LAG_LIMIT.as_millis(),
        v.halves[0],
        v.halves[1],
        if v.valid { "valid" } else { "INVALID" }
    );
    if args.trace {
        println!(
            "replay: first {} requests of the stream",
            replay_len(args.workload)
        );
    }
    if let Some(e) = &outcome.replay_error {
        println!("replay FAILED: {e}");
    }
    for (name, value) in &outcome.values {
        println!("{name} {value} {}", unit(name).unwrap_or(""));
    }
    println!("{}", bench::result_json(&outcome, args.trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
