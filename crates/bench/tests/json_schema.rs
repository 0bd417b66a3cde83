//! Schema contract between the `BENCH_*.json` writers and the CI
//! perf-regression gate: what `write_json` emits must parse back, carry
//! the fields the gate matches rows on, and trip the gate on an
//! injected slowdown.

use autobatch_bench::gate::{
    check_coverage, check_exact, check_regression, is_ungated, parse_flat_json, row_key, JsonValue,
    Row, KEY_FIELDS, METRIC, UNGATED_FIELD,
};
use autobatch_bench::{json_str, render_json};

/// A row exactly as the throughput bins build one.
fn bench_row(workload: &str, workers: usize, throughput: f64) -> Vec<(&'static str, String)> {
    vec![
        ("workload", json_str(workload)),
        ("workers", workers.to_string()),
        ("requests", "48".to_string()),
        ("batch", "8".to_string()),
        ("supersteps", "12345".to_string()),
        ("launches", "12345".to_string()),
        ("sim_time_s", format!("{:.9}", 48.0 / throughput)),
        ("requests_per_s", format!("{throughput:.6}")),
    ]
}

fn rendered_rows(rows: &[Vec<(&str, String)>]) -> Vec<Row> {
    parse_flat_json(&render_json(rows)).expect("write_json output must parse")
}

#[test]
fn write_json_output_round_trips_through_the_gate_parser() {
    let rows = vec![
        bench_row("divergent-binom", 1, 0.0125),
        bench_row("divergent-binom", 4, 0.05),
        bench_row("funnel-nuts", 2, 0.17),
    ];
    let parsed = rendered_rows(&rows);
    assert_eq!(parsed.len(), 3);
    for (src, row) in rows.iter().zip(&parsed) {
        // Every written field survives with its name.
        assert_eq!(src.len(), row.len());
        for (k, _) in src {
            assert!(row.contains_key(*k), "field {k} lost in round-trip");
        }
    }
    assert_eq!(
        parsed[0].get("workload"),
        Some(&JsonValue::Str("divergent-binom".into()))
    );
    assert_eq!(parsed[1].get("workers"), Some(&JsonValue::Num(4.0)));
    assert_eq!(
        parsed[1].get(METRIC).and_then(JsonValue::as_num),
        Some(0.05)
    );
}

#[test]
fn rows_carry_the_fields_the_regression_gate_reads() {
    let parsed = rendered_rows(&[bench_row("divergent-binom", 4, 0.05)]);
    let row = &parsed[0];
    // The compared metric is present and numeric.
    assert!(
        row.get(METRIC).and_then(JsonValue::as_num).is_some(),
        "bench rows must carry numeric {METRIC}"
    );
    // At least two key fields identify the row, and they land in its key.
    let key = row_key(row);
    let present: Vec<&&str> = KEY_FIELDS
        .iter()
        .filter(|f| row.contains_key(**f))
        .collect();
    assert!(present.len() >= 2, "too few key fields: {key}");
    assert!(key.contains("workload=divergent-binom"));
    assert!(key.contains("workers=4"));
    // Rows differing only in a key field get distinct keys.
    let other = rendered_rows(&[bench_row("divergent-binom", 1, 0.0125)]);
    assert_ne!(key, row_key(&other[0]));
}

#[test]
fn gate_passes_identical_runs_and_catches_injected_slowdown() {
    let baseline = rendered_rows(&[
        bench_row("divergent-binom", 1, 0.0125),
        bench_row("divergent-binom", 4, 0.05),
    ]);
    // Identical rerun: deterministic sim-time numbers compare exactly.
    assert_eq!(
        check_regression(&baseline, &baseline, 0.20),
        Vec::<String>::new()
    );
    // 10% down is inside the 20% tolerance; improvements always pass.
    let wobble = rendered_rows(&[
        bench_row("divergent-binom", 1, 0.0125 * 0.9),
        bench_row("divergent-binom", 4, 0.05 * 1.5),
    ]);
    assert!(check_regression(&baseline, &wobble, 0.20).is_empty());
    // An injected >20% slowdown on one row fails the gate, naming it.
    let slowed = rendered_rows(&[
        bench_row("divergent-binom", 1, 0.0125),
        bench_row("divergent-binom", 4, 0.05 * 0.75),
    ]);
    let failures = check_regression(&baseline, &slowed, 0.20);
    assert_eq!(failures.len(), 1);
    assert!(failures[0].contains("workers=4"), "{failures:?}");
    assert!(failures[0].contains("regressed"), "{failures:?}");
}

#[test]
fn gate_fails_on_coverage_loss_but_not_on_new_rows() {
    let baseline = rendered_rows(&[
        bench_row("divergent-binom", 1, 0.0125),
        bench_row("funnel-nuts", 1, 0.17),
    ]);
    let fresh = rendered_rows(&[
        bench_row("divergent-binom", 1, 0.0125),
        // funnel-nuts row gone; a brand-new workload appears.
        bench_row("new-workload", 2, 1.0),
    ]);
    let failures = check_regression(&baseline, &fresh, 0.20);
    assert_eq!(failures.len(), 1);
    assert!(failures[0].contains("workload=funnel-nuts"), "{failures:?}");
    assert!(failures[0].contains("missing"), "{failures:?}");
}

#[test]
fn coverage_check_fails_fresh_rows_and_metrics_without_baselines() {
    let baseline = rendered_rows(&[bench_row("divergent-binom", 1, 0.0125)]);
    // Every fresh row covered: clean.
    assert_eq!(check_coverage(&baseline, &baseline), Vec::<String>::new());
    // A brand-new fresh row with no baseline counterpart is unguarded —
    // the gate must say so and name the row.
    let fresh = rendered_rows(&[
        bench_row("divergent-binom", 1, 0.0125),
        bench_row("divergent-binom", 4, 0.05),
    ]);
    let failures = check_coverage(&baseline, &fresh);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("workers=4"), "{failures:?}");
    assert!(
        failures[0].contains("no baseline counterpart"),
        "{failures:?}"
    );

    // A fresh row that grew a *gated metric* its baseline row lacks is
    // just as unguarded: the new metric would silently ship untested.
    let mut with_new_metric = bench_row("divergent-binom", 1, 0.0125);
    with_new_metric.push(("supersteps_total", "99".to_string()));
    let fresh = rendered_rows(&[with_new_metric]);
    let failures = check_coverage(&baseline, &fresh);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("supersteps_total"), "{failures:?}");
}

#[test]
fn ungated_rows_are_exempt_from_both_gate_directions() {
    let mut wall_clock = bench_row("tcp-loopback", 1, 123.0);
    wall_clock.push((UNGATED_FIELD, json_str("wall-clock")));
    let fresh = rendered_rows(&[bench_row("divergent-binom", 1, 0.0125), wall_clock]);
    assert!(is_ungated(&fresh[1]));
    assert!(!is_ungated(&fresh[0]));

    // Fresh direction: the unmatched wall-clock row does not trip the
    // coverage check.
    let baseline = rendered_rows(&[bench_row("divergent-binom", 1, 0.0125)]);
    assert_eq!(check_coverage(&baseline, &fresh), Vec::<String>::new());

    // Baseline direction: an ungated baseline row neither demands a
    // fresh counterpart nor compares metrics.
    let mut stale = bench_row("tcp-loopback", 1, 999.0);
    stale.push((UNGATED_FIELD, json_str("wall-clock")));
    let baseline = rendered_rows(&[bench_row("divergent-binom", 1, 0.0125), stale]);
    let fresh = rendered_rows(&[bench_row("divergent-binom", 1, 0.0125)]);
    assert_eq!(
        check_regression(&baseline, &fresh, 0.20),
        Vec::<String>::new()
    );
}

#[test]
fn parser_handles_escapes_and_rejects_malformed_input() {
    let rows = vec![vec![
        ("name", json_str(r#"quote " and \ backslash"#)),
        ("x", "1.5e-3".to_string()),
    ]];
    let parsed = rendered_rows(&rows);
    assert_eq!(
        parsed[0].get("name"),
        Some(&JsonValue::Str(r#"quote " and \ backslash"#.into()))
    );
    assert_eq!(parsed[0].get("x").and_then(JsonValue::as_num), Some(1.5e-3));
    assert!(parse_flat_json("[]").unwrap().is_empty());
    for bad in [
        "",
        "{",
        "[{]",
        r#"[{"a": }]"#,
        r#"[{"a": 1} {"b": 2}]"#,
        r#"[{"a": 1}] trailing"#,
        r#"[{"a": "unterminated}]"#,
    ] {
        assert!(parse_flat_json(bad).is_err(), "accepted malformed: {bad}");
    }
}

#[test]
fn gate_checks_host_metrics_with_scaled_direction_aware_tolerances() {
    let row = |steps_per_s: f64, allocs: f64| -> Vec<(&'static str, String)> {
        vec![
            ("workload", json_str("divergent-binom")),
            ("mode", json_str("fused")),
            ("batch", "12".to_string()),
            ("supersteps_per_s", format!("{steps_per_s:.1}")),
            ("allocs_per_superstep", format!("{allocs:.4}")),
        ]
    };
    let baseline = rendered_rows(&[row(1000.0, 10.0)]);

    // Host wall-clock gets 3× the base tolerance: at 0.2 base, the
    // floor is 40% of baseline. A 50% drop passes; a 70% drop fails.
    assert!(check_regression(&baseline, &rendered_rows(&[row(500.0, 10.0)]), 0.20).is_empty());
    let failures = check_regression(&baseline, &rendered_rows(&[row(300.0, 10.0)]), 0.20);
    assert_eq!(failures.len(), 1);
    assert!(failures[0].contains("supersteps_per_s"), "{failures:?}");

    // Allocation counts are deterministic and gated exactly: +4% fails,
    // and so do fewer allocations — a deliberate change refreshes the
    // baseline.
    for allocs in [10.4, 9.0] {
        let failures = check_regression(&baseline, &rendered_rows(&[row(1000.0, allocs)]), 0.20);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("allocs_per_superstep"), "{failures:?}");
    }

    // Faster supersteps never fail.
    assert!(check_regression(&baseline, &rendered_rows(&[row(5000.0, 10.0)]), 0.20).is_empty());
}

#[test]
fn gate_fails_an_injected_p99_latency_regression() {
    let row = |p99: f64| -> Vec<(&'static str, String)> {
        vec![
            ("workload", json_str("divergent-binom")),
            ("mode", json_str("light-load")),
            ("workers", "1".to_string()),
            ("requests", "12".to_string()),
            ("batch", "8".to_string()),
            ("requests_per_s", "0.006323".to_string()),
            ("p50_latency_s", format!("{p99:.6}")),
            ("p99_latency_s", format!("{p99:.6}")),
        ]
    };
    let baseline = rendered_rows(&[row(3.0)]);
    // An identical rerun passes.
    assert!(check_regression(&baseline, &baseline, 0.20).is_empty());
    // The latency tail is deterministic (virtual clock) and gated
    // exactly: +4% fails and names the metric, and an improved tail
    // fails too until the baseline is refreshed.
    for p99 in [3.12, 2.0] {
        let failures = check_regression(&baseline, &rendered_rows(&[row(p99)]), 0.20);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("p99_latency_s"), "{failures:?}");
        assert!(failures[0].contains("changed"), "{failures:?}");
    }
}

#[test]
fn gate_handles_zero_baselines_with_absolute_slack() {
    let row = |allocs: f64| -> Vec<(&'static str, String)> {
        vec![
            ("workload", json_str("divergent-binom")),
            ("mode", json_str("fused")),
            ("batch", "12".to_string()),
            ("allocs_per_superstep", format!("{allocs:.4}")),
        ]
    };
    // A zero baseline on an exact metric (the fast path allocates
    // nothing) holds only at zero, and the report stays finite — no
    // percent-of-zero division.
    let baseline = rendered_rows(&[row(0.0)]);
    assert!(check_regression(&baseline, &baseline, 0.20).is_empty());
    let failures = check_regression(&baseline, &rendered_rows(&[row(0.04)]), 0.20);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(
        !failures[0].contains("inf") && !failures[0].contains("NaN"),
        "{failures:?}"
    );

    // Zero baseline on a higher-is-better metric: staying at (or above)
    // zero passes; only a drop beyond the absolute slack fails.
    let tput = |rps: f64| -> Vec<(&'static str, String)> {
        vec![
            ("workload", json_str("divergent-binom")),
            ("mode", json_str("stalled")),
            ("requests_per_s", format!("{rps:.6}")),
        ]
    };
    // `0 × (1 − tol)` is still 0, so the gate switches to absolute
    // slack — tol in the metric's own units, here 0.2.
    let baseline = rendered_rows(&[tput(0.0)]);
    assert!(check_regression(&baseline, &rendered_rows(&[tput(0.0)]), 0.20).is_empty());
    assert!(check_regression(&baseline, &rendered_rows(&[tput(5.0)]), 0.20).is_empty());
    assert!(check_regression(&baseline, &rendered_rows(&[tput(-0.1)]), 0.20).is_empty());
    let failures = check_regression(&baseline, &rendered_rows(&[tput(-1.0)]), 0.20);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("zero"), "{failures:?}");
}

#[test]
fn committed_artifacts_must_equal_a_fresh_run_on_exact_fields() {
    let row = |workload: &str, total: u64, rps: f64| -> Vec<(&'static str, String)> {
        vec![
            ("workload", json_str(workload)),
            ("workers", "4".to_string()),
            ("requests_per_s", format!("{rps:.6}")),
            ("supersteps_total", total.to_string()),
        ]
    };
    let committed = rendered_rows(&[row("divergent-binom", 100, 1.0), row("funnel", 50, 2.0)]);
    assert!(check_exact(&committed, &committed).is_empty());
    // Only the exact fields are compared: other metrics may differ.
    let fresh = rendered_rows(&[row("divergent-binom", 100, 9.0), row("funnel", 50, 2.0)]);
    assert!(check_exact(&committed, &fresh).is_empty());
    // A drifted exact field fails, whichever way it moved.
    for total in [99, 101] {
        let fresh = rendered_rows(&[row("divergent-binom", total, 1.0), row("funnel", 50, 2.0)]);
        let failures = check_exact(&committed, &fresh);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("supersteps_total"), "{failures:?}");
    }
    // Rows missing on either side fail, naming the row.
    let fresh = rendered_rows(&[row("divergent-binom", 100, 1.0), row("new", 1, 1.0)]);
    let failures = check_exact(&committed, &fresh);
    assert_eq!(failures.len(), 2, "{failures:?}");
    assert!(
        failures.iter().any(|f| f.contains("workload=funnel")),
        "{failures:?}"
    );
    assert!(
        failures.iter().any(|f| f.contains("workload=new")),
        "{failures:?}"
    );
}
