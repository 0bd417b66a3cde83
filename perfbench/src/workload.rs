//! The three workloads: how each builds its served program, what
//! traffic it offers, and how each reply is checked.

use std::sync::Arc;
use std::time::{Duration, Instant};

use autobatch_core::{lower, ExecOptions, KernelRegistry, LoweringOptions, PcVm};
use autobatch_ingress::{IngressConfig, IngressHandle, IngressServer};
use autobatch_ir::analysis::Verified;
use autobatch_ir::pcab::Program;
use autobatch_lang::compile;
use autobatch_models::NealsFunnel;
use autobatch_nuts::{nuts_source, BatchNuts, NutsConfig};
use autobatch_tensor::{CounterRng, Data, Tensor};

use crate::stats::{draw, unit};

/// C(n, k) by Pascal's rule: doubly data-dependent recursion.
pub const BINOM_SRC: &str = "
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

/// The deep request of `binom-divergent`: C(14, 7), about 38k supersteps
/// alone.
pub const DEEP: (i64, i64) = (14, 7);

/// The funnel NUTS configuration of the `vm_microbench` bench.
pub fn nuts_config() -> NutsConfig {
    NutsConfig {
        step_size: 0.2,
        n_trajectories: 3,
        max_depth: 6,
        leapfrog_steps: 2,
        seed: 31,
    }
}

/// Dimension of Neal's funnel.
pub const FUNNEL_DIM: usize = 5;

/// Closed-loop client connections, one thread each: the host's two
/// cores. The open loop uses one connection and two threads.
pub const CONNECTIONS: usize = 2;

/// How a workload offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// Each connection keeps `window` requests outstanding.
    Closed { window: usize },
    /// Poisson arrivals at `rate` requests per second on one
    /// connection; the schedule is fixed before the run starts.
    Open { rate: f64 },
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// NUTS chains on Neal's funnel, closed loop.
    NutsFunnel,
    /// One deep C(14, 7) in four among shallow binomials, open loop.
    BinomDivergent,
    /// Shallow binomials only, open loop at a high rate.
    BinomShallow,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::NutsFunnel,
        Workload::BinomDivergent,
        Workload::BinomShallow,
    ];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NutsFunnel => "nuts-funnel",
            Workload::BinomDivergent => "binom-divergent",
            Workload::BinomShallow => "binom-shallow",
        }
    }

    /// How the workload offers load.
    pub fn load(self) -> Loop {
        match self {
            Workload::NutsFunnel => Loop::Closed {
                window: IngressConfig::default().max_batch,
            },
            Workload::BinomDivergent => Loop::Open { rate: 40.0 },
            Workload::BinomShallow => Loop::Open { rate: 400.0 },
        }
    }

    /// Whether the served program is the NUTS sampler.
    pub fn is_nuts(self) -> bool {
        self == Workload::NutsFunnel
    }
}

/// One request of the seeded stream.
#[derive(Debug, Clone)]
pub struct Item {
    /// Program inputs, one `[1, elem..]` tensor each.
    pub inputs: Vec<Tensor>,
    /// The request's RNG member key on the wire.
    pub seed: u64,
    /// C(n, k) for binomial requests, computed in closed form.
    pub expect: Option<i64>,
}

/// Everything needed to serve and to re-run a workload's program.
#[derive(Debug)]
pub struct Served {
    /// The workload.
    pub workload: Workload,
    /// The lowered, verified program.
    pub program: Program,
    /// External kernels (the funnel's `grad`/`logp` for NUTS).
    pub registry: KernelRegistry,
    /// Execution options.
    pub opts: ExecOptions,
    /// The NUTS sampler, for building chain inputs.
    pub nuts: Option<BatchNuts>,
    /// The benchmark's seed.
    pub seed: u64,
}

/// Wall-clock of one set-up, split by layer, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSample {
    /// `autobatch_lang::compile` of the source.
    pub compile: f64,
    /// `BatchNuts::new` (compile + lower + kernel registry).
    pub nuts_build: f64,
    /// `autobatch_core::lower`.
    pub lower: f64,
    /// `Verified::new` on the lowered program.
    pub verify: f64,
    /// `IngressServer::start` until it returns a listening handle.
    pub start: f64,
    /// From the first build step to the listening server.
    pub total: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl Served {
    /// The ingress configuration: the defaults (2 workers, `max_batch`
    /// 8, `max_wait` 2 ms, default scheduling, no faults), plus the
    /// program's own kernels and execution options.
    pub fn config(&self) -> IngressConfig {
        IngressConfig {
            registry: self.registry.clone(),
            opts: self.opts,
            ..IngressConfig::default()
        }
    }

    /// Build the served program — compile, lower, verify — timing each
    /// layer into `s`.
    ///
    /// # Errors
    ///
    /// Any build failure, as a message.
    pub fn build(workload: Workload, seed: u64, s: &mut SetupSample) -> Result<Served, String> {
        if workload.is_nuts() {
            let t = Instant::now();
            let nuts = BatchNuts::new(Arc::new(NealsFunnel::new(FUNNEL_DIM)), nuts_config())
                .map_err(|e| format!("NUTS build: {e}"))?;
            s.nuts_build = secs(t);
            let t = Instant::now();
            let program = Verified::new(nuts.lowered().clone())
                .map_err(|e| format!("NUTS verify: {e}"))?
                .into_program();
            s.verify = secs(t);
            Ok(Served {
                workload,
                program,
                registry: nuts.registry().clone(),
                opts: nuts.exec_options(),
                nuts: Some(nuts),
                seed,
            })
        } else {
            let t = Instant::now();
            let lsab = compile(BINOM_SRC, "binom").map_err(|e| format!("compile: {e}"))?;
            s.compile = secs(t);
            let t = Instant::now();
            let (lowered, _) =
                lower(&lsab, LoweringOptions::default()).map_err(|e| format!("lower: {e}"))?;
            s.lower = secs(t);
            let t = Instant::now();
            let program = Verified::new(lowered)
                .map_err(|e| format!("verify: {e}"))?
                .into_program();
            s.verify = secs(t);
            Ok(Served {
                workload,
                program,
                registry: KernelRegistry::new(),
                opts: ExecOptions::default(),
                nuts: None,
                seed,
            })
        }
    }

    /// Build the program and start a server for it on an ephemeral
    /// loopback port, timing each layer. Layers that the workload's set-up
    /// path does not pass through are timed on the side, outside `total`:
    /// compile and lower of the NUTS source for `nuts-funnel` (the parts
    /// of `BatchNuts::new`), and building the funnel sampler for the
    /// binomial workloads.
    ///
    /// # Errors
    ///
    /// Any build or bind failure, as a message.
    pub fn start(
        workload: Workload,
        seed: u64,
    ) -> Result<(Served, IngressHandle, SetupSample), String> {
        let mut s = SetupSample::default();
        let t0 = Instant::now();
        let served = Served::build(workload, seed, &mut s)?;
        let t = Instant::now();
        let handle = IngressServer::start(served.program.clone(), served.config(), "127.0.0.1:0")
            .map_err(|e| format!("ingress start: {e}"))?;
        s.start = secs(t);
        s.total = secs(t0);

        if workload.is_nuts() {
            let cfg = nuts_config();
            let t = Instant::now();
            let lsab = compile(&nuts_source(cfg.leapfrog_steps), "nuts_chain")
                .map_err(|e| format!("compile: {e}"))?;
            s.compile = secs(t);
            let t = Instant::now();
            lower(&lsab, LoweringOptions::default()).map_err(|e| format!("lower: {e}"))?;
            s.lower = secs(t);
        } else {
            let t = Instant::now();
            BatchNuts::new(Arc::new(NealsFunnel::new(FUNNEL_DIM)), nuts_config())
                .map_err(|e| format!("NUTS build: {e}"))?;
            s.nuts_build = secs(t);
        }
        Ok((served, handle, s))
    }

    /// Request `i` of the seeded stream. The same seed and index always
    /// give the same request.
    pub fn item(&self, i: u64) -> Item {
        match self.workload {
            Workload::NutsFunnel => {
                let nuts = self
                    .nuts
                    .as_ref()
                    .expect("the NUTS workload keeps its sampler");
                // Initial position: standard normal coordinates.
                let q0 = CounterRng::new(self.seed)
                    .normal_batch(&[i as i64], &[FUNNEL_DIM])
                    .row(0)
                    .expect("one row");
                let mut inputs = nuts.request_inputs(&q0).expect("funnel-shaped position");
                // Each chain threads its own stretch of the counter-based
                // RNG (2^20 draws apart, far more than 3 trajectories
                // use). All chains share member key 0, the key a batch
                // of one draws under, so a reply can be checked bit for
                // bit against the same request run alone.
                *inputs.last_mut().expect("rng counter input") =
                    Tensor::from_i64(&[(i as i64) << 20], &[1]).expect("counter");
                Item {
                    inputs,
                    seed: 0,
                    expect: None,
                }
            }
            Workload::BinomDivergent => {
                // Exactly one deep request in each aligned group of four,
                // at a seeded position within the group.
                let deep = i % 4 == draw(self.seed, 1, i / 4) % 4;
                let (n, k) = if deep { DEEP } else { self.shallow(i) };
                binom_item(i, n, k)
            }
            Workload::BinomShallow => {
                let (n, k) = self.shallow(i);
                binom_item(i, n, k)
            }
        }
    }

    /// A shallow binomial: n in 3..=8, k in 1..=2.
    fn shallow(&self, i: u64) -> (i64, i64) {
        let h = draw(self.seed, 2, i);
        (3 + (h % 6) as i64, 1 + ((h >> 8) % 2) as i64)
    }

    /// The open-loop arrival schedule: offsets from the start of the run.
    /// A Poisson process conditioned on its count: `rate × seconds`
    /// arrival times, independent and uniform over the window, sorted.
    /// Fixing the count keeps the offered rate exact across seeds.
    pub fn schedule(&self, rate: f64, seconds: f64) -> Vec<Duration> {
        let n = (rate * seconds).round().max(1.0) as u64;
        let mut at: Vec<f64> = (0..n).map(|i| unit(self.seed, 3, i) * seconds).collect();
        at.sort_by(f64::total_cmp);
        at.into_iter().map(Duration::from_secs_f64).collect()
    }

    /// Whether `outputs` is the right reply to `item`. Binomials are
    /// checked against the closed form; NUTS chains bit for bit against
    /// the same request run alone through `PcVm::run`.
    pub fn check(&self, vm: &PcVm<'_>, item: &Item, outputs: &[Tensor]) -> bool {
        match item.expect {
            Some(want) => {
                outputs.len() == 1
                    && outputs[0].shape() == [1]
                    && outputs[0].as_i64().ok() == Some(&[want][..])
            }
            None => match vm.run(&item.inputs, None) {
                Ok(alone) => {
                    alone.len() == outputs.len()
                        && alone.iter().zip(outputs).all(|(a, b)| same_bits(a, b))
                }
                Err(_) => false,
            },
        }
    }

    /// A VM over the served program, for [`Served::check`].
    pub fn vm(&self) -> PcVm<'_> {
        PcVm::new(&self.program, self.registry.clone(), self.opts)
    }
}

fn binom_item(i: u64, n: i64, k: i64) -> Item {
    Item {
        inputs: vec![
            Tensor::from_i64(&[n], &[1]).expect("n"),
            Tensor::from_i64(&[k], &[1]).expect("k"),
        ],
        seed: i,
        expect: Some(binomial(n, k)),
    }
}

/// C(n, k) in closed form, with the program's edge cases (1 for
/// `k <= 0` or `k >= n`).
pub fn binomial(n: i64, k: i64) -> i64 {
    if k <= 0 || k >= n {
        return 1;
    }
    // Exact at every step: the running product is C(n - k + j, j).
    (1..=k as i128).fold(1i128, |acc, j| acc * (n as i128 - k as i128 + j) / j) as i64
}

/// Same dtype, shape and element bits.
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && match (a.data(), b.data()) {
            (Data::F64(x), Data::F64(y)) => x
                .iter()
                .map(|v| v.to_bits())
                .eq(y.iter().map(|v| v.to_bits())),
            (Data::I64(x), Data::I64(y)) => x == y,
            (Data::Bool(x), Data::Bool(y)) => x == y,
            _ => false,
        }
}
