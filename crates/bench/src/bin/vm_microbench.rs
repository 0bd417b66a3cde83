//! Host-side microbench of the program-counter interpreter hot loop.
//!
//! Unlike the simulated-accelerator benches (`serve_throughput`,
//! `shard_throughput`), this bin measures the **real Rust interpreter**:
//! wall-clock nanoseconds per superstep and heap allocations per
//! superstep (via a counting global allocator), on the two committed
//! bench workloads. Allocation counts depend only on the code path, so
//! they are bit-reproducible across machines and safe to gate exactly;
//! wall-clock is gated with a wide tolerance (see `gate::METRICS`).
//!
//! Each workload runs three times: with the fused elementwise fast path
//! (the default), with fusion disabled, and fused while pricing every
//! superstep into a [`Trace`] on `Backend::hybrid_cpu()`, as an ingress
//! shard runs. The first two rows record both the host-time win and the
//! launch-count reduction the fusion contributes under eager dispatch.
//! The traced row starts from an empty trace each rep, so it may exceed
//! the fused row only by the allocations of each kernel's first launch
//! (its stats key); the bench asserts that bound.
//!
//! Usage: `vm_microbench [--smoke]`. Writes
//! `results/BENCH_vm_microbench.json` for the CI perf-regression gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use autobatch_accel::{Backend, Trace};
use autobatch_bench::{fmt_sig, json_str, print_table, write_json};
use autobatch_core::{lower, ExecOptions, KernelRegistry, LoweringOptions, PcMachine};
use autobatch_ir::pcab::Program;
use autobatch_lang::compile;
use autobatch_models::NealsFunnel;
use autobatch_nuts::{BatchNuts, NutsConfig};
use autobatch_tensor::{CounterRng, Tensor};

/// A pass-through allocator that counts allocations, so the bench can
/// report allocations/superstep of the interpreter hot loop.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a relaxed atomic with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Measured {
    supersteps: u64,
    ns_per_superstep: f64,
    allocs_per_superstep: f64,
    /// Allocations of one timed rep, in total.
    allocs: u64,
    /// Distinct kernel keys (timed and logical) the traced reps' trace
    /// held; zero untraced.
    trace_keys: u64,
    /// Timed kernel launches under eager dispatch (fusion-sensitive).
    eager_launches: u64,
}

/// Drive every request through one `PcMachine` to completion and time
/// the whole serve loop (admission, supersteps, retirement), pricing
/// it into a fresh trace on `traced` when given.
fn run_machine(
    program: &Program,
    registry: &KernelRegistry,
    opts: ExecOptions,
    traced: Option<Backend>,
    requests: &[(Vec<Tensor>, u64)],
    reps: usize,
) -> Measured {
    // Warm-up pass (first-touch allocations, lazy buffers).
    let mut warm = PcMachine::new(program, registry.clone(), opts);
    admit_all(&mut warm, requests);
    warm.run_to_completion(None).expect("warm-up runs");
    let supersteps_once = warm.supersteps();

    // Take the fastest rep: the minimum is the standard noise-robust
    // microbench statistic (scheduling hiccups only ever add time).
    // Allocation counts are identical across reps by construction.
    let mut best_ns_per_step = f64::INFINITY;
    let mut allocs = 0;
    let mut trace_keys = 0;
    for _ in 0..reps {
        let mut m = PcMachine::new(program, registry.clone(), opts);
        admit_all(&mut m, requests);
        let mut trace = traced.map(Trace::new);
        ALLOCATIONS.store(0, Ordering::Relaxed);
        let t0 = Instant::now();
        let done = m.run_to_completion(trace.as_mut()).expect("runs");
        let dt = t0.elapsed();
        allocs = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(done.len(), requests.len());
        best_ns_per_step = best_ns_per_step.min(dt.as_nanos() as f64 / m.supersteps() as f64);
        trace_keys = trace.map_or(0, |t| {
            (t.kernels().count() + t.logical_kernels().count()) as u64
        });
    }

    // Launch accounting under eager dispatch (every primitive its own
    // launch unless the fused fast path folds a chain).
    let mut tr = Trace::new(Backend::eager_cpu());
    let mut m = PcMachine::new(program, registry.clone(), opts);
    admit_all(&mut m, requests);
    m.run_to_completion(Some(&mut tr)).expect("traced run");

    Measured {
        supersteps: supersteps_once,
        ns_per_superstep: best_ns_per_step,
        allocs_per_superstep: allocs as f64 / supersteps_once as f64,
        allocs,
        trace_keys,
        eager_launches: tr.launches(),
    }
}

fn admit_all(m: &mut PcMachine<'_>, requests: &[(Vec<Tensor>, u64)]) {
    let reqs: Vec<(&[Tensor], u64)> = requests
        .iter()
        .map(|(ins, key)| (ins.as_slice(), *key))
        .collect();
    m.admit_batch(&reqs, None).expect("admission");
}

const BINOM_SRC: &str = "
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

fn binom_requests(n_requests: usize) -> Vec<(Vec<Tensor>, u64)> {
    (0..n_requests)
        .map(|i| {
            let n = 10 + (i * 5 % 7) as i64;
            let k = 2 + (i * 3 % 5) as i64;
            (
                vec![
                    Tensor::from_i64(&[n], &[1]).expect("n"),
                    Tensor::from_i64(&[k], &[1]).expect("k"),
                ],
                i as u64,
            )
        })
        .collect()
}

fn funnel_requests(nuts: &BatchNuts, n_requests: usize) -> Vec<(Vec<Tensor>, u64)> {
    let rng = CounterRng::new(64);
    (0..n_requests)
        .map(|i| {
            let q = rng
                .normal_batch(&[i as i64], &[nuts.dim()])
                .row(0)
                .expect("row");
            (nuts.request_inputs(&q).expect("inputs"), i as u64)
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_requests, reps) = if smoke { (12, 5) } else { (48, 7) };

    let binom_program = compile(BINOM_SRC, "binom").expect("binom compiles");
    let (binom_pc, _) = lower(&binom_program, LoweringOptions::default()).expect("binom lowers");
    let cfg = NutsConfig {
        step_size: 0.2,
        n_trajectories: 3,
        max_depth: 6,
        leapfrog_steps: 2,
        seed: 31,
    };
    let nuts = BatchNuts::new(Arc::new(NealsFunnel::new(5)), cfg).expect("NUTS compiles");

    let header = [
        "workload",
        "mode",
        "batch",
        "supersteps",
        "ns-per-superstep",
        "allocs-per-superstep",
        "eager-launches",
    ];
    let mut rows = Vec::new();
    let mut json = Vec::new();

    for (workload, program, registry, base_opts, requests) in [
        (
            "divergent-binom",
            &binom_pc,
            KernelRegistry::new(),
            ExecOptions::default(),
            binom_requests(n_requests),
        ),
        (
            "funnel-nuts",
            nuts.lowered(),
            nuts.registry().clone(),
            nuts.exec_options(),
            funnel_requests(&nuts, n_requests),
        ),
    ] {
        let mut by_mode = Vec::new();
        for (mode, fuse, traced) in [
            ("fused", true, None),
            ("unfused", false, None),
            ("traced", true, Some(Backend::hybrid_cpu())),
        ] {
            let opts = ExecOptions {
                fuse_elementwise: fuse,
                ..base_opts
            };
            let m = run_machine(program, &registry, opts, traced, &requests, reps);
            rows.push(vec![
                workload.to_string(),
                mode.to_string(),
                n_requests.to_string(),
                m.supersteps.to_string(),
                fmt_sig(m.ns_per_superstep),
                fmt_sig(m.allocs_per_superstep),
                m.eager_launches.to_string(),
            ]);
            json.push(vec![
                ("workload", json_str(workload)),
                ("mode", json_str(mode)),
                ("batch", n_requests.to_string()),
                ("supersteps", m.supersteps.to_string()),
                ("ns_per_superstep", format!("{:.1}", m.ns_per_superstep)),
                (
                    "supersteps_per_s",
                    format!("{:.1}", 1e9 / m.ns_per_superstep),
                ),
                (
                    "allocs_per_superstep",
                    format!("{:.4}", m.allocs_per_superstep),
                ),
                ("eager_launches", m.eager_launches.to_string()),
            ]);
            by_mode.push(m);
        }
        let [fused, unfused, traced] = &by_mode[..] else {
            unreachable!("three modes per workload");
        };

        // The fused fast path must strictly reduce eager launch counts
        // on both workloads — the cost-model half of the acceptance
        // criterion.
        let (f, u) = (fused.eager_launches, unfused.eager_launches);
        println!("{workload}: eager launches fused {f} vs unfused {u}");
        assert!(
            f < u,
            "{workload}: fusion did not reduce launches ({f} vs {u})"
        );

        // Tracing allocates only each kernel's stats key (the key string
        // plus at most one map node) on its first launch.
        let extra = traced.allocs.saturating_sub(fused.allocs);
        println!(
            "{workload}: tracing added {extra} allocations for {} kernel keys",
            traced.trace_keys
        );
        assert!(
            traced.allocs >= fused.allocs && extra <= 2 * traced.trace_keys,
            "{workload}: tracing allocated {} vs {} untraced, beyond {} first-launch keys",
            traced.allocs,
            fused.allocs,
            traced.trace_keys
        );
    }

    print_table(
        "PC interpreter host microbench (real wall-clock, counting allocator)",
        &header,
        &rows,
    );
    write_json("BENCH_vm_microbench.json", &json);
}
