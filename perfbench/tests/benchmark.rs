//! The benchmark's own checks: its oracle, its seeded inputs, the
//! metric catalogue against `BENCHMARK.json`, and exact repetition of
//! the traced replay's counts across processes.

use std::path::Path;
use std::process::Command;

use autobatch_perfbench::metrics::{END_TO_END, PER_LAYER};
use autobatch_perfbench::workload::{binomial, Loop, Served, SetupSample, Workload};

#[test]
fn binomial_matches_pascals_triangle() {
    let mut row = vec![1i64];
    for n in 0..=20i64 {
        for (k, &c) in row.iter().enumerate() {
            assert_eq!(binomial(n, k as i64), c, "C({n}, {k})");
        }
        row = std::iter::once(1)
            .chain(row.windows(2).map(|w| w[0] + w[1]))
            .chain(std::iter::once(1))
            .collect();
    }
    // The program's edge cases.
    assert_eq!(binomial(3, -1), 1);
    assert_eq!(binomial(3, 5), 1);
}

#[test]
fn the_seed_fixes_the_inputs_and_the_schedule() {
    for w in Workload::ALL {
        let a = Served::build(w, 11, &mut SetupSample::default()).unwrap();
        let b = Served::build(w, 11, &mut SetupSample::default()).unwrap();
        let c = Served::build(w, 12, &mut SetupSample::default()).unwrap();
        let same = |x: &Served, y: &Served, i| {
            let (p, q) = (x.item(i), y.item(i));
            p.seed == q.seed && p.inputs == q.inputs && p.expect == q.expect
        };
        assert!((0..64).all(|i| same(&a, &b, i)), "{}", w.name());
        assert!(!(0..64).all(|i| same(&a, &c, i)), "{}", w.name());
        if let Loop::Open { rate } = w.load() {
            let s = a.schedule(rate, 3.0);
            assert_eq!(s, b.schedule(rate, 3.0));
            assert_ne!(s, c.schedule(rate, 3.0));
            assert_eq!(s.len() as f64, rate * 3.0, "the count is fixed");
            assert!(s.windows(2).all(|p| p[0] <= p[1]));
        }
    }
}

#[test]
fn divergent_binom_sends_one_deep_request_in_four() {
    let served = Served::build(Workload::BinomDivergent, 5, &mut SetupSample::default()).unwrap();
    for group in 0..50u64 {
        let deep = (group * 4..group * 4 + 4)
            .filter(|&i| served.item(i).expect == Some(binomial(14, 7)))
            .count();
        assert_eq!(deep, 1, "group {group}");
    }
}

/// The `"name": ` entries of one list in `BENCHMARK.json`, in order.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start
        ..json[start..]
            .find(']')
            .map(|e| start + e)
            .expect("list ends")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |f: &str| {
                let at = entry.find(&format!("\"{f}\"")).expect("field present");
                let rest = &entry[at + f.len() + 2..];
                let open = rest.find('"').expect("value") + 1;
                let close = open + rest[open..].find('"').expect("value ends");
                rest[open..close].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&json, "end_to_end"), want(&END_TO_END));
    assert_eq!(listed(&json, "per_layer"), want(&PER_LAYER));
}

/// The value of one metric on the result line.
fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line.find(&key).unwrap_or_else(|| panic!("{name} missing"));
    let rest = &line[at + key.len()..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .expect("a number")
}

/// The counts the traced replay derives from the seed alone.
const DETERMINISTIC: [&str; 10] = [
    "vm.supersteps_per_req",
    "vm.allocs_per_superstep",
    "vm.eager_launches_per_superstep",
    "nuts.grads_per_req",
    "serve.requests_per_flush",
    "serve.supersteps_per_req",
    "wire.req_bytes",
    "wire.resp_bytes",
    "vm.lane_occupancy",
    "nuts.grad_utilization",
];

#[test]
fn traced_replay_counts_repeat_exactly_across_runs() {
    let run = |w: Workload| {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args([
                "--workload",
                w.name(),
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                "1",
            ])
            .output()
            .expect("the benchmark runs");
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        assert!(out.status.success(), "{} failed:\n{stdout}", w.name());
        let last = stdout.lines().last().expect("a result line").to_string();
        assert!(last.starts_with("{\"correct\": true"), "{last}");
        DETERMINISTIC.map(|m| metric(&last, m))
    };
    for w in Workload::ALL {
        let (a, b) = (run(w), run(w));
        for (i, m) in DETERMINISTIC.iter().enumerate() {
            assert_eq!(
                a[i].to_bits(),
                b[i].to_bits(),
                "{}: {m} {} vs {}",
                w.name(),
                a[i],
                b[i]
            );
        }
    }
}
