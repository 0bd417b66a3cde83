//! The traced replay: the head of a workload's seeded request stream,
//! run in-process through each layer's public functions, with every call
//! timed from here.
//!
//! A pass has four stages, each fed by the previous one:
//!
//! 1. **wire** — `encode_request` then `decode` per request;
//! 2. **serve** — the ingress engine's loop without sockets: a
//!    [`Supervisor`] over a [`ShardedServer`] configured like the
//!    ingress engine's, fed in flushes formed on a virtual clock (see
//!    [`NOMINAL_SUPERSTEP_S`]);
//! 3. **vm** — the same flushes through one [`BatchServer`] stepped by
//!    [`BatchServer::poll`], under an [`accel::Trace`](Trace) when traced;
//! 4. **wire** — `encode_response` then `decode` per reply.
//!
//! The traced pass times every call and wraps the `grad` kernel in a
//! timing [`ExternalKernel`]; the untraced pass runs the same stages
//! with neither, and counts the replay thread's allocations inside
//! `poll`. A last, untimed pass under `Backend::eager_cpu` counts kernel
//! launches. Flush composition is decided on a virtual clock, so every
//! count repeats exactly at a fixed seed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use autobatch_accel::{Backend, Trace};
use autobatch_core::{ExternalKernel, KernelRegistry};
use autobatch_ingress::wire::{self, Message};
use autobatch_ingress::IngressConfig;
use autobatch_ir::Arity;
use autobatch_models::{model_registry, NealsFunnel};
use autobatch_serve::{AdmissionPolicy, BatchServer, Outcome, Request, ShardedServer, Supervisor};
use autobatch_tensor::{CounterRng, Tensor};

use crate::alloc::thread_allocations;
use crate::stats::percentile;
use crate::workload::{same_bits, Item, Loop, Served, Workload, FUNNEL_DIM};

/// Host seconds one fleet superstep is taken to last when the virtual
/// clock decides which arrivals a flush collects: a flush's wall time
/// over its longest shard's supersteps, as measured for binom-divergent
/// flushes on a 2-core x86 host. Only the flush composition depends on
/// it, never a timed figure.
pub const NOMINAL_SUPERSTEP_S: f64 = 3e-6;

/// How many requests of the stream a replay runs.
pub fn replay_len(workload: Workload) -> usize {
    match workload.load() {
        Loop::Closed { .. } => 64,
        Loop::Open { rate } if rate < 100.0 => 48,
        Loop::Open { .. } => 512,
    }
}

/// Counts that depend only on the seed: the replay asserts nothing
/// about them, the benchmark's tests assert they repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    /// Requests replayed.
    pub requests: usize,
    /// Flushes the virtual engine formed.
    pub flushes: usize,
    /// Supersteps summed over the fleet's shards.
    pub fleet_supersteps: u64,
    /// Supersteps of the single `BatchServer`.
    pub vm_supersteps: u64,
    /// Replay-thread allocations inside `poll` (untraced pass).
    pub vm_allocs: u64,
    /// Kernel launches under `Backend::eager_cpu`.
    pub eager_launches: u64,
    /// Useful `grad` evaluations (`Trace::useful_count("grad")`).
    pub grads: u64,
    /// `Trace::utilization("grad")` (1 when no `grad` ran).
    pub grad_utilization: f64,
    /// Active lanes per superstep over `max_batch`.
    pub lane_occupancy: f64,
    /// Mean request frame payload, bytes.
    pub req_bytes: f64,
    /// Mean response frame payload, bytes.
    pub resp_bytes: f64,
}

/// Wall-clock figures of the traced pass.
#[derive(Debug, Clone)]
pub struct Times {
    /// Per-call means, in seconds.
    pub encode_req: f64,
    /// See [`Times::encode_req`].
    pub decode_req: f64,
    /// See [`Times::encode_req`].
    pub encode_resp: f64,
    /// See [`Times::encode_req`].
    pub decode_resp: f64,
    /// Mean `Supervisor::submit`, seconds.
    pub submit: f64,
    /// Median `Supervisor::run_until_quiescent_with` per flush, seconds.
    pub flush_p50: f64,
    /// Its 99th percentile, seconds.
    pub flush_p99: f64,
    /// Time inside `BatchServer::poll` per superstep, seconds.
    pub superstep: f64,
    /// Mean time per `grad` call, seconds; on workloads that never call
    /// `grad`, a calibration on 8 funnel positions instead.
    pub grad_per_call: f64,
    /// Share of the `poll` time spent inside `grad`.
    pub grad_share: f64,
    /// `Trace::sim_time` (hybrid-cpu) over the time inside `poll`.
    pub sim_over_host: f64,
    /// Summed time of the timed calls over the traced pass's wall.
    pub closure: f64,
    /// Traced pass wall over untraced pass wall, minus one.
    pub overhead: f64,
}

/// A finished replay.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Seed-determined counts.
    pub counts: Counts,
    /// Traced-pass timings.
    pub times: Times,
}

/// One flush of the virtual engine: requests with their arrival ticks
/// (virtual nanoseconds), and the tick the flush started at.
#[derive(Debug, Clone)]
struct Flush {
    members: Vec<(u64, u64)>,
    at: u64,
}

/// Accumulated self-time of the timed calls of one pass.
#[derive(Debug, Default)]
struct Clock {
    on: bool,
    encode_req: Duration,
    decode_req: Duration,
    encode_resp: Duration,
    decode_resp: Duration,
    submit: Duration,
    flush: Vec<f64>,
    vm_submit: Duration,
    poll: Duration,
}

impl Clock {
    fn time<R>(on: bool, slot: &mut Duration, f: impl FnOnce() -> R) -> R {
        if !on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        *slot += t.elapsed();
        r
    }

    fn total(&self) -> Duration {
        self.encode_req
            + self.decode_req
            + self.encode_resp
            + self.decode_resp
            + self.submit
            + Duration::from_secs_f64(self.flush.iter().sum())
            + self.vm_submit
            + self.poll
    }
}

/// A `grad` kernel that times every call of the kernel it wraps.
#[derive(Debug)]
struct TimedKernel {
    inner: Arc<dyn ExternalKernel>,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl ExternalKernel for TimedKernel {
    fn arity(&self) -> Arity {
        self.inner.arity()
    }
    fn eval(&self, inputs: &[Tensor]) -> autobatch_tensor::Result<Vec<Tensor>> {
        let t = Instant::now();
        let out = self.inner.eval(inputs);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
    fn flops_per_member(&self, inputs: &[Tensor]) -> f64 {
        self.inner.flops_per_member(inputs)
    }
    fn parallel_per_member(&self, inputs: &[Tensor]) -> usize {
        self.inner.parallel_per_member(inputs)
    }
}

/// What one pass produced.
struct Pass {
    wall: Duration,
    clock: Clock,
    flushes: Vec<Flush>,
    fleet_supersteps: u64,
    vm_supersteps: u64,
    vm_allocs: u64,
    trace: Option<Trace>,
    req_bytes: usize,
    resp_bytes: usize,
}

/// Replay the first [`replay_len`] requests of the stream: untraced,
/// traced, then under eager dispatch for launch counts.
///
/// # Errors
///
/// A message when a layer fails or when the fleet's replies differ from
/// the single server's or from the closed-form binomials.
pub fn run(served: &Served) -> Result<Replay, String> {
    let items: Vec<Item> = (0..replay_len(served.workload) as u64)
        .map(|i| served.item(i))
        .collect();
    let arrivals = arrivals(served, items.len());

    // A warm-up pass first, so neither timed pass runs cold.
    pass(
        served,
        &items,
        arrivals.as_deref(),
        served.registry.clone(),
        false,
    )?;
    let plain = pass(
        served,
        &items,
        arrivals.as_deref(),
        served.registry.clone(),
        false,
    )?;
    let timed_grad = served.registry.get("grad").ok().map(|inner| {
        Arc::new(TimedKernel {
            inner: Arc::clone(inner),
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        })
    });
    let mut registry = served.registry.clone();
    if let Some(k) = &timed_grad {
        registry.register("grad", k.clone());
    }
    let traced = pass(served, &items, arrivals.as_deref(), registry, true)?;
    let (_, eager) = vm_stage(
        served,
        &items,
        &traced.flushes,
        served.registry.clone(),
        Some(Trace::new(Backend::eager_cpu())),
        &mut Clock::default(),
    )?;

    let trace = traced
        .trace
        .as_ref()
        .expect("the traced pass keeps its trace");
    let n = items.len();
    let poll_s = traced.clock.poll.as_secs_f64();
    let (grad_calls, grad_nanos) = timed_grad.as_ref().map_or((0, 0), |k| {
        (
            k.calls.load(Ordering::Relaxed),
            k.nanos.load(Ordering::Relaxed),
        )
    });
    let grad_per_call = if grad_calls > 0 {
        grad_nanos as f64 * 1e-9 / grad_calls as f64
    } else {
        grad_calibration()
    };
    let (active, launches) = trace
        .kernels()
        .filter(|(k, _)| k.starts_with("block:"))
        .fold((0u64, 0u64), |(a, l), (_, s)| {
            (a + s.active_members, l + s.launches)
        });
    let max_batch = IngressConfig::default().max_batch;
    let counts = Counts {
        requests: n,
        flushes: traced.flushes.len(),
        fleet_supersteps: traced.fleet_supersteps,
        vm_supersteps: traced.vm_supersteps,
        vm_allocs: plain.vm_allocs,
        eager_launches: eager.map_or(0, |t| t.launches()),
        grads: trace.useful_count("grad"),
        grad_utilization: trace.utilization("grad"),
        lane_occupancy: active as f64 / (launches.max(1) * max_batch as u64) as f64,
        req_bytes: traced.req_bytes as f64 / n as f64,
        resp_bytes: traced.resp_bytes as f64 / n as f64,
    };
    let c = &traced.clock;
    let mut flush = c.flush.clone();
    flush.sort_by(f64::total_cmp);
    let per = |d: Duration| d.as_secs_f64() / n as f64;
    let times = Times {
        encode_req: per(c.encode_req),
        decode_req: per(c.decode_req),
        encode_resp: per(c.encode_resp),
        decode_resp: per(c.decode_resp),
        submit: per(c.submit),
        flush_p50: percentile(&flush, 0.50),
        flush_p99: percentile(&flush, 0.99),
        superstep: poll_s / counts.vm_supersteps.max(1) as f64,
        grad_per_call,
        grad_share: grad_nanos as f64 * 1e-9 / poll_s,
        sim_over_host: trace.sim_time() / poll_s,
        closure: c.total().as_secs_f64() / traced.wall.as_secs_f64(),
        overhead: traced.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0,
    };
    Ok(Replay { counts, times })
}

/// Arrival ticks (virtual nanoseconds) of the replayed requests, or
/// `None` for a closed loop, whose requests arrive as a flush frees
/// their slots.
fn arrivals(served: &Served, n: usize) -> Option<Vec<u64>> {
    match served.workload.load() {
        Loop::Closed { .. } => None,
        Loop::Open { rate } => Some(
            served
                .schedule(rate, n as f64 / rate)
                .into_iter()
                .map(|d| d.as_nanos() as u64)
                .collect(),
        ),
    }
}

fn deadline_policy(config: &IngressConfig) -> AdmissionPolicy {
    AdmissionPolicy::Deadline {
        max_batch: config.max_batch,
        max_wait: config.max_wait.as_nanos() as u64,
    }
}

fn pass(
    served: &Served,
    items: &[Item],
    arrivals: Option<&[u64]>,
    registry: KernelRegistry,
    traced: bool,
) -> Result<Pass, String> {
    let config = served.config();
    let mut clock = Clock {
        on: traced,
        ..Clock::default()
    };
    let t0 = Instant::now();

    // Stage 1: requests over the wire codec.
    let mut req_bytes = 0usize;
    let mut decoded: Vec<Item> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let id = i as u64;
        let payload = Clock::time(traced, &mut clock.encode_req, || {
            wire::encode_request(id, item.seed, &item.inputs)
        })
        .map_err(|e| e.to_string())?;
        req_bytes += payload.len();
        match Clock::time(traced, &mut clock.decode_req, || wire::decode(&payload)) {
            Ok(Message::Request(r)) if r.id == id => decoded.push(Item {
                inputs: r.inputs,
                seed: r.seed,
                expect: item.expect,
            }),
            other => return Err(format!("request {id} did not survive the codec: {other:?}")),
        }
    }

    // Stage 2: the supervised fleet, flush by flush.
    let mut fleet = ShardedServer::new(
        &served.program,
        served.registry.clone(),
        served.opts,
        deadline_policy(&config),
        config.workers,
        config.backend,
    )
    .map_err(|e| e.to_string())?;
    fleet.set_scheduling(config.scheduling);
    let mut sup = Supervisor::new(fleet, config.supervisor);
    sup.set_budget(config.budget);
    let capacity = config.workers * config.max_batch;
    let max_wait = config.max_wait.as_nanos() as u64;
    let mut flushes: Vec<Flush> = Vec::new();
    let mut replies: BTreeMap<u64, Vec<Tensor>> = BTreeMap::new();
    let mut now: u64 = 0;
    let mut next = 0usize;
    let fleet_steps = |s: &Supervisor<'_>| -> Vec<u64> {
        (0..config.workers)
            .map(|i| s.inner().shard_trace(i).supersteps())
            .collect()
    };
    while next < items.len() {
        // Collect like the ingress engine: until the fleet can fill, or
        // the oldest arrival has waited `max_wait`.
        let members: Vec<(u64, u64)> = match arrivals {
            None => (next..(next + capacity).min(items.len()))
                .map(|i| (i as u64, now))
                .collect(),
            Some(at) => {
                now = now.max(at[next]);
                let deadline = at[next] + max_wait;
                let mut end = next;
                loop {
                    while end < items.len() && at[end] <= now {
                        end += 1;
                    }
                    if end - next >= capacity || now >= deadline {
                        break;
                    }
                    now = match at.get(end) {
                        Some(&t) if t < deadline => t,
                        _ => deadline,
                    };
                }
                (next..end).map(|i| (i as u64, at[i])).collect()
            }
        };
        next += members.len();
        let before = fleet_steps(&sup);
        for &(id, at) in &members {
            let item = &decoded[id as usize];
            sup.set_clock(at);
            let request = Request {
                id,
                inputs: item.inputs.clone(),
                seed: item.seed,
            };
            Clock::time(traced, &mut clock.submit, || sup.submit(request))
                .map_err(|e| format!("submit {id}: {e}"))?;
        }
        sup.set_clock(now);
        // The ingress engine drives through the cancellation hook,
        // which runs the fleet in bounded rounds; so does the replay.
        let t = Instant::now();
        let outcomes = sup.run_until_quiescent_with(&mut Vec::new);
        if traced {
            clock.flush.push(t.elapsed().as_secs_f64());
        }
        for o in outcomes {
            match o {
                Outcome::Done(r) => {
                    replies.insert(r.id, r.outputs);
                }
                Outcome::Failed { id, error } => {
                    return Err(format!("request {id} failed: {error}"))
                }
            }
        }
        let after = fleet_steps(&sup);
        let longest = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a - b)
            .max()
            .unwrap_or(0);
        flushes.push(Flush { members, at: now });
        now += (longest as f64 * NOMINAL_SUPERSTEP_S * 1e9) as u64;
    }
    let fleet_supersteps: u64 = fleet_steps(&sup).iter().sum();
    if replies.len() != items.len() {
        return Err(format!(
            "fleet answered {} of {}",
            replies.len(),
            items.len()
        ));
    }

    // Stage 3: the same flushes through one BatchServer.
    let trace = traced.then(|| Trace::new(config.backend));
    let (vm, trace) = vm_stage(served, &decoded, &flushes, registry, trace, &mut clock)?;
    for (id, outputs) in &vm.outputs {
        let same = replies.get(id).is_some_and(|r| {
            r.len() == outputs.len() && r.iter().zip(outputs).all(|(a, b)| same_bits(a, b))
        });
        let right = decoded[*id as usize]
            .expect
            .is_none_or(|want| outputs[0].as_i64().ok() == Some(&[want][..]));
        if !same || !right {
            return Err(format!(
                "request {id}: fleet and single-server replies disagree or are wrong"
            ));
        }
    }

    // Stage 4: replies over the wire codec.
    let mut resp_bytes = 0usize;
    for (&id, outputs) in &replies {
        let payload = Clock::time(traced, &mut clock.encode_resp, || {
            wire::encode_response(id, 0, outputs)
        })
        .map_err(|e| e.to_string())?;
        resp_bytes += payload.len();
        match Clock::time(traced, &mut clock.decode_resp, || wire::decode(&payload)) {
            Ok(Message::Response(r)) if r.id == id => {}
            other => return Err(format!("reply {id} did not survive the codec: {other:?}")),
        }
    }
    Ok(Pass {
        wall: t0.elapsed(),
        clock,
        flushes,
        fleet_supersteps,
        vm_supersteps: vm.supersteps,
        vm_allocs: vm.allocs,
        trace,
        req_bytes,
        resp_bytes,
    })
}

struct VmRun {
    supersteps: u64,
    allocs: u64,
    outputs: BTreeMap<u64, Vec<Tensor>>,
}

/// Drive one `BatchServer` through `flushes`, as one shard of the
/// ingress fleet would see them: submit at the arrival ticks, then poll
/// to idle, fast-forwarding the clock to the head-of-line deadline
/// when the admission policy holds a partial batch back.
fn vm_stage(
    served: &Served,
    items: &[Item],
    flushes: &[Flush],
    registry: KernelRegistry,
    mut trace: Option<Trace>,
    clock: &mut Clock,
) -> Result<(VmRun, Option<Trace>), String> {
    let config = served.config();
    let mut server = BatchServer::new(
        &served.program,
        registry,
        served.opts,
        deadline_policy(&config),
    )
    .map_err(|e| e.to_string())?;
    let on = clock.on;
    let mut allocs = 0u64;
    let mut outputs = BTreeMap::new();
    for flush in flushes {
        for &(id, at) in &flush.members {
            let item = &items[id as usize];
            server.set_clock(at);
            let request = Request {
                id,
                inputs: item.inputs.clone(),
                seed: item.seed,
            };
            Clock::time(on, &mut clock.vm_submit, || server.submit(request))
                .map_err(|e| format!("vm submit {id}: {e}"))?;
        }
        server.set_clock(flush.at);
        loop {
            let a = thread_allocations();
            let stepped = Clock::time(on, &mut clock.poll, || server.poll(trace.as_mut()))
                .map_err(|e| e.to_string())?;
            allocs += thread_allocations() - a;
            if stepped {
                continue;
            }
            for r in server.take_ready() {
                outputs.insert(r.id, r.outputs);
            }
            if server.pending() == 0 && server.in_flight() == 0 {
                break;
            }
            match server.next_deadline() {
                Some(t) if server.in_flight() == 0 => server.set_clock(t),
                _ => return Err("the single server stalled with work pending".into()),
            }
        }
    }
    let run = VmRun {
        supersteps: server.supersteps(),
        allocs,
        outputs,
    };
    Ok((run, trace))
}

/// Mean seconds per call of the funnel's `grad` kernel on 8 seeded
/// positions: the kernel layer's cost on workloads that never call it.
fn grad_calibration() -> f64 {
    const CALLS: u32 = 2000;
    let registry = model_registry(Arc::new(NealsFunnel::new(FUNNEL_DIM)));
    let grad = registry.get("grad").expect("funnel registry has grad");
    let q = CounterRng::new(7).normal_batch(&[0, 1, 2, 3, 4, 5, 6, 7], &[FUNNEL_DIM]);
    let t = Instant::now();
    for _ in 0..CALLS {
        let out = grad.eval(std::slice::from_ref(&q)).expect("grad evaluates");
        std::hint::black_box(out);
    }
    t.elapsed().as_secs_f64() / f64::from(CALLS)
}
