//! The metric catalogue: every name the benchmark reports, with its
//! unit. `BENCHMARK.json` lists the same names in the same order (a test
//! keeps the two in step).

/// End-to-end metrics, reported by every run with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every run with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 41] = [
    // End to end, but without a bound: on a shared 2-core host the
    // process's CPU time per request swings by a third between runs.
    ("cpu_ms_per_req", "ms"),
    // Set-up.
    ("lang.compile_ms", "ms"),
    ("nuts.build_ms", "ms"),
    ("core.lower_ms", "ms"),
    ("ir.verify_ms", "ms"),
    ("ingress.start_ms", "ms"),
    // Wire codec (replay).
    ("wire.req_bytes", "bytes"),
    ("wire.resp_bytes", "bytes"),
    ("wire.encode_req_us", "us"),
    ("wire.decode_req_us", "us"),
    ("wire.encode_resp_us", "us"),
    ("wire.decode_resp_us", "us"),
    // Ingress engine (TCP run).
    ("ingress.collect_wait_ms_p50", "ms"),
    ("ingress.collect_wait_ms_p99", "ms"),
    ("ingress.service_ms_p50", "ms"),
    ("ingress.peak_buffered", "count"),
    ("ingress.peak_queue", "count"),
    ("ingress.rejected", "count"),
    ("ingress.failed", "count"),
    ("ingress.shed", "count"),
    ("ingress.retried", "count"),
    // Supervisor (replay).
    ("serve.submit_us", "us"),
    ("serve.flush_ms_p50", "ms"),
    ("serve.flush_ms_p99", "ms"),
    ("serve.requests_per_flush", "count"),
    ("serve.supersteps_per_req", "count"),
    // PC VM (replay).
    ("vm.superstep_us", "us"),
    ("vm.supersteps_per_req", "count"),
    ("vm.lane_occupancy", "frac"),
    ("vm.allocs_per_superstep", "count"),
    ("vm.eager_launches_per_superstep", "count"),
    // Kernels and NUTS.
    ("kernels.grad_us_per_call", "us"),
    ("kernels.grad_share", "frac"),
    ("nuts.grads_per_req", "count"),
    ("nuts.grad_utilization", "frac"),
    ("nuts.grads_per_s", "1/s"),
    // Cost-model calibration.
    ("accel.sim_over_host", "ratio"),
    // The benchmark's own validity.
    ("loadgen.lag_ms_max", "ms"),
    ("loadgen.sent", "count"),
    ("trace.closure_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// The unit of a catalogued metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}
