//! Trace accounting: tracing a run must cost no heap allocations once
//! every kernel it launches has been seen, and a recorded run must
//! replay to exactly the statistics it recorded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use autobatch_accel::{Backend, Trace};
use autobatch_core::{
    lower, ExecOptions, KernelRegistry, LocalStaticVm, LoweringOptions, PcMachine,
};
use autobatch_ir::{lsab, pcab};
use autobatch_lang::compile;
use autobatch_tensor::Tensor;

/// Counts allocations made by the current thread only, so tests running
/// in parallel on other threads cannot disturb a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a plain thread-local cell with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const BINOM_SRC: &str = "
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

fn binom_lsab() -> lsab::Program {
    compile(BINOM_SRC, "binom").expect("binom compiles")
}

fn binom_pc() -> pcab::Program {
    lower(&binom_lsab(), LoweringOptions::default())
        .expect("binom lowers")
        .0
}

/// One `[1]`-row `(n, k)` pair per request.
fn binom_requests() -> Vec<Vec<Tensor>> {
    (0..8)
        .map(|i: i64| {
            vec![
                Tensor::from_i64(&[8 + i % 4], &[1]).expect("n"),
                Tensor::from_i64(&[1 + i % 3], &[1]).expect("k"),
            ]
        })
        .collect()
}

/// A machine with every request admitted, ready to run.
fn admitted<'p>(program: &'p pcab::Program, requests: &[Vec<Tensor>]) -> PcMachine<'p> {
    let mut m = PcMachine::new(program, KernelRegistry::new(), ExecOptions::default());
    let reqs: Vec<(&[Tensor], u64)> = requests
        .iter()
        .zip(0u64..)
        .map(|(ins, key)| (ins.as_slice(), key))
        .collect();
    m.admit_batch(&reqs, None).expect("admission");
    m
}

#[test]
fn a_warm_trace_adds_no_allocations_to_a_batch() {
    let program = binom_pc();
    let requests = binom_requests();
    // Fused block launches (as an ingress shard prices them) and eager
    // per-primitive launches, which also report stack traffic.
    for backend in [Backend::hybrid_cpu(), Backend::eager_cpu()] {
        let mut untraced = admitted(&program, &requests);
        let (done, plain) = allocations_of(|| untraced.run_to_completion(None).expect("runs"));
        assert_eq!(done.len(), requests.len());

        let mut trace = Trace::new(backend);
        admitted(&program, &requests)
            .run_to_completion(Some(&mut trace))
            .expect("warm-up run");
        let warm_kernels = trace.kernels().count();
        let mut traced = admitted(&program, &requests);
        let (done, with_trace) =
            allocations_of(|| traced.run_to_completion(Some(&mut trace)).expect("runs"));
        assert_eq!(done.len(), requests.len());
        assert!(trace.supersteps() > 0 && warm_kernels > 0);
        assert_eq!(trace.kernels().count(), warm_kernels, "same kernels again");
        assert_eq!(
            with_trace,
            plain,
            "{}: a warm trace allocated {} times more than the untraced batch",
            backend.name,
            with_trace as i64 - plain as i64
        );
    }
}

/// Every per-kernel, logical and total statistic of `a` equals `b`'s.
fn assert_same_accounting(a: &Trace, b: &Trace, what: &str) {
    assert!(a.kernels().count() > 0, "{what}: nothing launched");
    assert!(a.kernels().eq(b.kernels()), "{what}: kernels differ");
    assert!(
        a.logical_kernels().eq(b.logical_kernels()),
        "{what}: logical stats differ"
    );
    assert_eq!(a.sim_time(), b.sim_time(), "{what}: sim time");
    assert_eq!(a.launches(), b.launches(), "{what}: launches");
    assert_eq!(a.supersteps(), b.supersteps(), "{what}: supersteps");
}

#[test]
fn a_recorded_run_replays_to_identical_statistics() {
    let lsab_program = binom_lsab();
    let pc_program = binom_pc();
    let requests = binom_requests();
    let column = |i: usize| requests.iter().map(|r| r[i].clone()).collect::<Vec<_>>();
    let batch = vec![
        Tensor::concat_rows(&column(0)).expect("n"),
        Tensor::concat_rows(&column(1)).expect("k"),
    ];
    for backend in [
        Backend::hybrid_cpu(),
        Backend::eager_cpu(),
        Backend::xla_cpu(),
    ] {
        // The PC machine, as the serving layers drive it.
        let mut recorded = Trace::recording(backend);
        let mut plain = Trace::new(backend);
        admitted(&pc_program, &requests)
            .run_to_completion(Some(&mut recorded))
            .expect("recorded run");
        admitted(&pc_program, &requests)
            .run_to_completion(Some(&mut plain))
            .expect("plain run");
        let what = format!("pc {}", backend.name);
        assert_same_accounting(&recorded, &plain, &what);
        assert_same_accounting(&recorded.replay_as(backend), &recorded, &what);

        // The local static VM, whose block tags name their function.
        let vm = LocalStaticVm::new(&lsab_program, KernelRegistry::new(), ExecOptions::default());
        let mut recorded = Trace::recording(backend);
        vm.run(&batch, Some(&mut recorded)).expect("lsab run");
        let what = format!("lsab {}", backend.name);
        assert_same_accounting(&recorded.replay_as(backend), &recorded, &what);
    }
}
