//! One benchmark run: set up, drive the server over loopback TCP, check
//! every reply, account for every request, and (traced) replay.

use std::collections::BTreeMap;
use std::time::Duration;

use autobatch_ingress::IngressStats;

use crate::loadgen::{self, LoadRun, Reply, ANSWER_CAP};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::replay;
use crate::stats::{median, peak_rss_mb, percentile};
use crate::workload::{Loop, Served, SetupSample, Workload};

/// Set-ups per run; `setup_s` and the set-up layers report the median.
pub const SETUP_REPEATS: usize = 21;

/// The generator may send at most this late against its schedule.
pub const LAG_LIMIT: Duration = Duration::from_millis(50);

/// An open-loop run is a growing backlog when the share of due requests
/// answered in its second half falls below this fraction of the first
/// half's share.
pub const HALVES_RATIO_MIN: f64 = 0.9;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed of the request stream and arrival schedule.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Replay through the layers and report the per-layer metrics.
    pub trace: bool,
}

/// How every sent request ended.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    /// Requests sent.
    pub sent: u64,
    /// Responses received (right or wrong).
    pub answered: u64,
    /// Responses that passed the oracle.
    pub correct: u64,
    /// Responses that failed the oracle.
    pub wrong: u64,
    /// Reject frames, by code.
    pub rejects: BTreeMap<String, u64>,
    /// Requests without any reply within the cap.
    pub unanswered: u64,
}

impl Accounting {
    /// (sent − correct) / sent.
    pub fn error_frac(&self) -> f64 {
        (self.sent - self.correct) as f64 / self.sent.max(1) as f64
    }
}

/// Whether an open-loop run kept to its offered load.
#[derive(Debug, Clone)]
pub struct Validity {
    /// Worst lag of a send against its schedule.
    pub lag_max: Duration,
    /// Median and 99th percentile of the send lag, seconds.
    pub lag_p50: f64,
    /// See [`Validity::lag_p50`].
    pub lag_p99: f64,
    /// Share of due requests answered within each half of the window.
    pub halves: [f64; 2],
    /// Both checks passed.
    pub valid: bool,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Every reply right, every request answered, the run valid.
    pub correct: bool,
    /// Request accounting.
    pub accounting: Accounting,
    /// Load-generator validity.
    pub validity: Validity,
    /// Every metric measured, by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Why the replay failed, if it did.
    pub replay_error: Option<String>,
}

/// Run the benchmark once.
///
/// # Errors
///
/// Set-up and socket failures, as messages. Wrong or missing replies are
/// not errors: they come back in [`Outcome::correct`].
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut samples: Vec<SetupSample> = Vec::new();
    let mut live = None;
    for r in 0..SETUP_REPEATS {
        let (served, handle, sample) = Served::start(args.workload, args.seed)?;
        samples.push(sample);
        if r + 1 == SETUP_REPEATS {
            live = Some((served, handle));
        } else {
            handle.shutdown();
        }
    }
    let (served, handle) = live.expect("at least one set-up");
    let load =
        loadgen::run(handle.addr(), &served, args.seconds).map_err(|e| format!("load: {e}"))?;
    let rss_mb = peak_rss_mb();
    let stats = handle.shutdown();
    let wrong = check(&served, &load);
    let accounting = account(&load, &wrong);
    let validity = validity(&served, &load, args.seconds);

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let setup = |f: fn(&SetupSample) -> f64| median(&mut samples.iter().map(f).collect::<Vec<_>>());
    values.insert("setup_s", setup(|s| s.total));
    values.insert("lang.compile_ms", setup(|s| s.compile) * 1e3);
    values.insert("nuts.build_ms", setup(|s| s.nuts_build) * 1e3);
    values.insert("core.lower_ms", setup(|s| s.lower) * 1e3);
    values.insert("ir.verify_ms", setup(|s| s.verify) * 1e3);
    values.insert("ingress.start_ms", setup(|s| s.start) * 1e3);
    end_to_end(&load, &wrong, &accounting, rss_mb, &mut values);
    ingress(&load, &wrong, &stats, &mut values);
    values.insert("loadgen.lag_ms_max", validity.lag_max.as_secs_f64() * 1e3);
    values.insert("loadgen.sent", accounting.sent as f64);

    let mut replay_error = None;
    if args.trace {
        match replay::run(&served) {
            Ok(r) => {
                let c = &r.counts;
                let t = &r.times;
                let n = c.requests as f64;
                let grads_per_req = c.grads as f64 / n;
                let per_step = |x: u64| x as f64 / c.vm_supersteps.max(1) as f64;
                values.extend([
                    ("wire.req_bytes", c.req_bytes),
                    ("wire.resp_bytes", c.resp_bytes),
                    ("wire.encode_req_us", t.encode_req * 1e6),
                    ("wire.decode_req_us", t.decode_req * 1e6),
                    ("wire.encode_resp_us", t.encode_resp * 1e6),
                    ("wire.decode_resp_us", t.decode_resp * 1e6),
                    ("serve.submit_us", t.submit * 1e6),
                    ("serve.flush_ms_p50", t.flush_p50 * 1e3),
                    ("serve.flush_ms_p99", t.flush_p99 * 1e3),
                    ("serve.requests_per_flush", n / c.flushes as f64),
                    ("serve.supersteps_per_req", c.fleet_supersteps as f64 / n),
                    ("vm.superstep_us", t.superstep * 1e6),
                    ("vm.supersteps_per_req", c.vm_supersteps as f64 / n),
                    ("vm.lane_occupancy", c.lane_occupancy),
                    ("vm.allocs_per_superstep", per_step(c.vm_allocs)),
                    (
                        "vm.eager_launches_per_superstep",
                        per_step(c.eager_launches),
                    ),
                    ("kernels.grad_us_per_call", t.grad_per_call * 1e6),
                    ("kernels.grad_share", t.grad_share),
                    ("nuts.grads_per_req", grads_per_req),
                    ("nuts.grad_utilization", c.grad_utilization),
                    ("nuts.grads_per_s", grads_per_req * values["throughput_rps"]),
                    ("accel.sim_over_host", t.sim_over_host),
                    ("trace.closure_frac", t.closure),
                    ("trace.overhead_frac", t.overhead),
                ]);
            }
            Err(e) => replay_error = Some(e),
        }
    }
    let clean = accounting.correct == accounting.sent;
    let finite = values.values().all(|v| v.is_finite());
    Ok(Outcome {
        correct: clean && validity.valid && replay_error.is_none() && finite,
        accounting,
        validity,
        values,
        replay_error,
    })
}

/// Ids of responses that fail the oracle. NUTS chains are re-run alone,
/// split over two threads (the server is stopped by now).
fn check(served: &Served, load: &LoadRun) -> Vec<u64> {
    let answered: Vec<(u64, &[autobatch_tensor::Tensor])> = load
        .records
        .iter()
        .filter_map(|r| match &r.reply {
            Reply::Response { outputs, .. } => Some((r.id, outputs.as_slice())),
            _ => None,
        })
        .collect();
    let chunk = answered.len().div_ceil(2).max(1);
    let mut wrong: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = answered
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let vm = served.vm();
                    part.iter()
                        .filter(|(id, outputs)| !served.check(&vm, &served.item(*id), outputs))
                        .map(|&(id, _)| id)
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    wrong.sort_unstable();
    wrong
}

fn account(load: &LoadRun, wrong: &[u64]) -> Accounting {
    let mut a = Accounting {
        sent: load.records.len() as u64,
        wrong: wrong.len() as u64,
        ..Accounting::default()
    };
    for r in &load.records {
        match &r.reply {
            Reply::Response { .. } => a.answered += 1,
            Reply::Rejected { code, .. } => *a.rejects.entry(format!("{code:?}")).or_default() += 1,
            Reply::Missing => a.unanswered += 1,
        }
    }
    a.correct = a.answered - a.wrong;
    a
}

fn validity(served: &Served, load: &LoadRun, seconds: f64) -> Validity {
    let half = Duration::from_secs_f64(seconds / 2.0);
    let end = Duration::from_secs_f64(seconds);
    let mut due = [0u64; 2];
    let mut answered = [0u64; 2];
    for r in &load.records {
        due[usize::from(r.due >= half)] += 1;
        if let Reply::Response { at, .. } | Reply::Rejected { at, .. } = r.reply {
            if at < end {
                answered[usize::from(at >= half)] += 1;
            }
        }
    }
    let halves = [0, 1].map(|h| answered[h] as f64 / due[h].max(1) as f64);
    let mut lag: Vec<f64> = load
        .records
        .iter()
        .map(|r| r.sent.saturating_sub(r.due).as_secs_f64())
        .collect();
    lag.sort_by(f64::total_cmp);
    let open = matches!(served.workload.load(), Loop::Open { .. });
    let kept_up = !open || halves[1] >= HALVES_RATIO_MIN * halves[0];
    Validity {
        lag_max: load.lag_max,
        lag_p50: percentile(&lag, 0.5),
        lag_p99: percentile(&lag, 0.99),
        halves,
        valid: load.lag_max <= LAG_LIMIT && kept_up,
    }
}

fn is_correct(id: u64, wrong: &[u64]) -> bool {
    wrong.binary_search(&id).is_err()
}

fn end_to_end(
    load: &LoadRun,
    wrong: &[u64],
    accounting: &Accounting,
    rss_mb: f64,
    values: &mut BTreeMap<&'static str, f64>,
) {
    // A request that failed in any way misses every latency limit.
    let mut by_due: Vec<(Duration, f64)> = load
        .records
        .iter()
        .map(|r| match r.latency() {
            Some(l) if is_correct(r.id, wrong) => (r.due, l.as_secs_f64() * 1e3),
            _ => (r.due, ANSWER_CAP.as_secs_f64() * 1e3),
        })
        .collect();
    by_due.sort_by_key(|&(due, _)| due);
    let latency: Vec<f64> = by_due.iter().map(|&(_, l)| l).collect();
    let correct = accounting.correct.max(1) as f64;
    values.insert(
        "throughput_rps",
        accounting.correct as f64 / load.window.as_secs_f64(),
    );
    values.insert("latency_p50_ms", windowed_percentile(&latency, 0.50));
    values.insert("latency_p99_ms", windowed_percentile(&latency, 0.99));
    values.insert("cpu_ms_per_req", load.cpu_s * 1e3 / correct);
    values.insert("peak_rss_mb", rss_mb);
}

/// A latency percentile robust to stalls of the host: the run is cut,
/// in order of due time, into up to 16 windows that each hold at least
/// ten requests beyond the percentile (20 requests for p50, 1000 for
/// p99), and the median of the windows' percentiles is reported. A
/// stall lifts the figure of the windows it falls in, not the whole
/// run's.
pub fn windowed_percentile(latency_by_due: &[f64], p: f64) -> f64 {
    let min_window = (10.0 / (1.0 - p)).round().max(1.0) as usize;
    let windows = (latency_by_due.len() / min_window).clamp(1, 16);
    let size = latency_by_due.len().div_ceil(windows).max(1);
    let mut per_window: Vec<f64> = latency_by_due
        .chunks(size)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            percentile(&w, p)
        })
        .collect();
    median(&mut per_window)
}

fn ingress(
    load: &LoadRun,
    wrong: &[u64],
    stats: &IngressStats,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let mut waits = Vec::new();
    let mut service = Vec::new();
    for r in &load.records {
        if let (Reply::Response { queued, .. }, Some(l)) = (&r.reply, r.latency()) {
            if is_correct(r.id, wrong) {
                waits.push(queued.as_secs_f64() * 1e3);
                service.push(l.saturating_sub(*queued).as_secs_f64() * 1e3);
            }
        }
    }
    waits.sort_by(f64::total_cmp);
    values.extend([
        ("ingress.collect_wait_ms_p50", percentile(&waits, 0.50)),
        ("ingress.collect_wait_ms_p99", percentile(&waits, 0.99)),
        ("ingress.service_ms_p50", median(&mut service)),
        ("ingress.peak_buffered", stats.peak_buffered as f64),
        ("ingress.peak_queue", stats.peak_queue as f64),
        ("ingress.rejected", stats.rejected as f64),
        ("ingress.failed", stats.failed as f64),
        ("ingress.shed", stats.shed as f64),
        ("ingress.retried", stats.retried as f64),
    ]);
}

/// The result line: one JSON object, with the end-to-end metrics
/// (`trace` off) or the per-layer metrics (`trace` on).
pub fn result_json(outcome: &Outcome, trace: bool) -> String {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = list
        .iter()
        .map(|&(name, unit)| {
            let v = outcome.values.get(name).copied().unwrap_or(f64::NAN);
            // Non-finite values are not JSON; such a run is already
            // marked incorrect, and null keeps the line parseable.
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let a = &outcome.accounting;
    let complete = list.iter().all(|(n, _)| outcome.values.contains_key(n));
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct && complete,
        a.sent.max(1),
        a.sent - a.correct,
        metrics.join(", ")
    )
}
