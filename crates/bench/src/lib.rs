//! # autobatch-bench
//!
//! The experiment harness regenerating the paper's evaluation
//! (see DESIGN.md §4 for the experiment index):
//!
//! - `fig5_throughput` — Figure 5: NUTS gradient throughput vs batch
//!   size on Bayesian logistic regression, across the five execution
//!   configurations;
//! - `fig6_utilization` — Figure 6: batch gradient utilization vs batch
//!   size on the correlated Gaussian, local-static vs program-counter;
//! - `ablation_masking` — §2's first free choice: masking vs
//!   gather/scatter primitive execution;
//! - `ablation_heuristic` — §2's second free choice: block-selection
//!   heuristics;
//! - `ablation_lowering` — §3's compiler optimizations on/off;
//! - `ablation_dynamic` — §5's alternative architecture: dynamic
//!   (on-the-fly) batching vs the paper's two static strategies.
//!
//! Each binary prints the table to stdout and writes a CSV under
//! `results/`. Wall-clock microbenchmarks of the real interpreters live
//! in `benches/`.

#![warn(missing_docs)]

use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Batch sizes `1, 2, 4, … ≤ max`.
pub fn geometric_batches(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut z = 1;
    while z <= max {
        v.push(z);
        z *= 2;
    }
    v
}

/// Print a fixed-width table to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for r in rows {
        println!("{}", fmt_row(r));
    }
}

/// Write rows as CSV under `results/` (created if needed).
///
/// # Panics
///
/// Panics on I/O failure — the harness has nowhere sensible to recover to.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", header.join(",")).expect("write header");
    for r in rows {
        writeln!(f, "{}", r.join(",")).expect("write row");
    }
    println!("wrote {}", path.display());
}

/// Render a flat list of `(key, value)` records as a JSON array of
/// objects — the `BENCH_*.json` perf-trajectory schema. Values are
/// emitted verbatim, so pass already-JSON-formatted numbers or quoted
/// strings (via [`json_str`]). The output round-trips through
/// [`gate::parse_flat_json`]; the schema test suite holds the two ends
/// together.
pub fn render_json(rows: &[Vec<(&str, String)>]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        let fields: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!("  {{{}}}{comma}\n", fields.join(", ")));
    }
    out.push_str("]\n");
    out
}

/// Write [`render_json`] output under `results/` (created if needed) —
/// the `BENCH_*.json` artifacts CI uploads and gates on.
///
/// # Panics
///
/// Panics on I/O failure — the harness has nowhere sensible to recover to.
pub fn write_json(name: &str, rows: &[Vec<(&str, String)>]) {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    fs::write(&path, render_json(rows)).expect("write json");
    println!("wrote {}", path.display());
}

/// Quote a string for [`write_json`] values.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Format a float compactly for tables.
pub fn fmt_sig(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 || x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.3}")
    }
}

/// The CI perf-regression gate: parse `BENCH_*.json` artifacts and
/// compare a fresh run against a committed baseline, failing on
/// throughput regressions beyond a tolerance.
///
/// The whole workspace builds offline (no serde), so this module
/// carries a minimal parser for exactly the flat schema
/// [`render_json`] emits: a JSON array of flat
/// objects whose values are strings or numbers.
pub mod gate {
    use std::collections::BTreeMap;

    /// A value in a flat benchmark row.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JsonValue {
        /// A JSON string.
        Str(String),
        /// A JSON number.
        Num(f64),
    }

    impl JsonValue {
        /// The numeric value, if this is a number.
        pub fn as_num(&self) -> Option<f64> {
            match self {
                JsonValue::Num(x) => Some(*x),
                JsonValue::Str(_) => None,
            }
        }

        /// Canonical display for row keys and reports.
        pub fn display(&self) -> String {
            match self {
                JsonValue::Str(s) => s.clone(),
                JsonValue::Num(x) => {
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        format!("{}", *x as i64)
                    } else {
                        format!("{x}")
                    }
                }
            }
        }
    }

    /// One benchmark row: field name → value.
    pub type Row = BTreeMap<String, JsonValue>;

    /// The primary metric the regression gate compares (simulated
    /// serving throughput).
    pub const METRIC: &str = "requests_per_s";

    /// Which way a metric is allowed to move.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Direction {
        /// A drop below `baseline × (1 − tolerance)` fails.
        HigherIsBetter,
        /// Any change fails: the metric is deterministic, so a
        /// difference is a code change, and a deliberate one comes with
        /// a baseline refresh.
        Exact,
    }

    /// Every metric the gate knows, with its direction and a per-metric
    /// tolerance scale applied to the caller's base tolerance:
    ///
    /// - `requests_per_s` — simulated throughput; deterministic cost
    ///   model, so the base tolerance applies as-is;
    /// - `supersteps_per_s` — **host** wall-clock interpreter speed
    ///   from `vm_microbench`; machine-dependent, so the tolerance is
    ///   tripled (a 20% base gate fails only below 40% of baseline);
    /// - `wedge_free` — 1.0 iff the governed fleet finished its
    ///   adversarial request mix with no poisoned shard and no orphaned
    ///   request (`runaway_containment`). Scale 0 makes the gate
    ///   absolute: against a baseline of 1.0 *any* drop fails,
    ///   whatever the base tolerance — a wedged fleet is never a
    ///   matter of degree.
    /// - `contained_within_budget_frac` — fraction of runaway requests
    ///   evicted within the `max_supersteps + 1` containment contract
    ///   (`runaway_containment`); pure counts from the seeded fault
    ///   schedule, bit-reproducible, gated at a quarter of the base
    ///   tolerance — a drop means eviction is firing late.
    ///
    /// The deterministic metrics are gated [exactly](Direction::Exact),
    /// whatever the tolerance. Each is bit-reproducible across
    /// machines, so every committed `results/BENCH_*.json` must also
    /// equal a fresh smoke run on them ([`check_exact`]):
    ///
    /// - `allocs_per_superstep` — heap allocations per superstep from
    ///   `vm_microbench`'s counting allocator; a pure code-path
    ///   property;
    /// - `p99_latency_s` — 99th-percentile queue latency under deadline
    ///   admission (`ingress_throughput`), on the virtual clock;
    /// - `availability` — served fraction under deterministic fault
    ///   injection (`chaos_availability`);
    /// - `supersteps_total` — total supersteps a sharded run spent
    ///   serving its fixed request set (`shard_throughput`), the
    ///   superstep-inflation guard for PC-affinity scheduling;
    /// - `launches` — fused launches the serving benches priced
    ///   (`serve_throughput`, `shard_throughput`).
    ///
    /// A row is gated on every metric it carries; rows carrying none
    /// fail (the gate would otherwise silently stop guarding them).
    pub const METRICS: &[(&str, Direction, f64)] = &[
        (METRIC, Direction::HigherIsBetter, 1.0),
        ("supersteps_per_s", Direction::HigherIsBetter, 3.0),
        ("allocs_per_superstep", Direction::Exact, 0.0),
        ("p99_latency_s", Direction::Exact, 0.0),
        ("availability", Direction::Exact, 0.0),
        ("supersteps_total", Direction::Exact, 0.0),
        ("launches", Direction::Exact, 0.0),
        ("wedge_free", Direction::HigherIsBetter, 0.0),
        (
            "contained_within_budget_frac",
            Direction::HigherIsBetter,
            0.25,
        ),
    ];

    /// Marker field exempting a row from gating and from baseline
    /// coverage enforcement ([`check_coverage`]). For rows whose
    /// numbers are *not* deterministic — e.g. the wall-clock
    /// tcp-loopback row of `ingress_throughput` — where a committed
    /// baseline would gate machine noise. The field's value is
    /// conventionally a short reason string (`"wall-clock"`).
    pub const UNGATED_FIELD: &str = "ungated";

    /// Whether a row opted out of gating via [`UNGATED_FIELD`].
    pub fn is_ungated(row: &Row) -> bool {
        row.contains_key(UNGATED_FIELD)
    }

    /// Fields identifying a row across runs; rows are matched between
    /// baseline and fresh artifacts on every key field they carry.
    pub const KEY_FIELDS: &[&str] = &["workload", "mode", "workers", "requests", "batch"];

    /// Parse a flat `BENCH_*.json` artifact: a JSON array of objects
    /// whose values are double-quoted strings (escapes `\\` and `\"`)
    /// or numbers.
    ///
    /// # Errors
    ///
    /// Returns a positioned message on any malformed input.
    pub fn parse_flat_json(text: &str) -> Result<Vec<Row>, String> {
        let mut p = Parser {
            chars: text.char_indices().peekable(),
            text,
        };
        p.skip_ws();
        p.expect('[')?;
        let mut rows = Vec::new();
        p.skip_ws();
        if p.eat(']') {
            return p.finish(rows);
        }
        loop {
            rows.push(p.parse_object()?);
            p.skip_ws();
            if p.eat(',') {
                p.skip_ws();
                continue;
            }
            p.expect(']')?;
            return p.finish(rows);
        }
    }

    struct Parser<'t> {
        chars: std::iter::Peekable<std::str::CharIndices<'t>>,
        text: &'t str,
    }

    impl Parser<'_> {
        fn pos(&mut self) -> usize {
            self.chars.peek().map_or(self.text.len(), |&(i, _)| i)
        }

        fn skip_ws(&mut self) {
            while matches!(self.chars.peek(), Some(&(_, c)) if c.is_whitespace()) {
                self.chars.next();
            }
        }

        fn eat(&mut self, want: char) -> bool {
            if matches!(self.chars.peek(), Some(&(_, c)) if c == want) {
                self.chars.next();
                true
            } else {
                false
            }
        }

        fn expect(&mut self, want: char) -> Result<(), String> {
            let at = self.pos();
            if self.eat(want) {
                Ok(())
            } else {
                Err(format!("expected '{want}' at byte {at}"))
            }
        }

        fn finish(&mut self, rows: Vec<Row>) -> Result<Vec<Row>, String> {
            self.skip_ws();
            match self.chars.peek() {
                None => Ok(rows),
                Some(&(i, c)) => Err(format!("trailing '{c}' at byte {i}")),
            }
        }

        fn parse_object(&mut self) -> Result<Row, String> {
            self.skip_ws();
            self.expect('{')?;
            let mut row = Row::new();
            self.skip_ws();
            if self.eat('}') {
                return Ok(row);
            }
            loop {
                self.skip_ws();
                let key = self.parse_string()?;
                self.skip_ws();
                self.expect(':')?;
                self.skip_ws();
                let value = self.parse_value()?;
                row.insert(key, value);
                self.skip_ws();
                if self.eat(',') {
                    continue;
                }
                self.expect('}')?;
                return Ok(row);
            }
        }

        fn parse_value(&mut self) -> Result<JsonValue, String> {
            match self.chars.peek() {
                Some(&(_, '"')) => Ok(JsonValue::Str(self.parse_string()?)),
                Some(&(_, c)) if c == '-' || c == '+' || c.is_ascii_digit() => {
                    let start = self.pos();
                    while matches!(
                        self.chars.peek(),
                        Some(&(_, c)) if c == '-' || c == '+' || c == '.'
                            || c == 'e' || c == 'E' || c.is_ascii_digit()
                    ) {
                        self.chars.next();
                    }
                    let end = self.pos();
                    self.text[start..end]
                        .parse::<f64>()
                        .map(JsonValue::Num)
                        .map_err(|e| format!("bad number at byte {start}: {e}"))
                }
                Some(&(i, c)) => Err(format!("unexpected '{c}' at byte {i}")),
                None => Err("unexpected end of input".into()),
            }
        }

        fn parse_string(&mut self) -> Result<String, String> {
            self.expect('"')?;
            let mut s = String::new();
            loop {
                match self.chars.next() {
                    Some((_, '"')) => return Ok(s),
                    Some((i, '\\')) => match self.chars.next() {
                        Some((_, '"')) => s.push('"'),
                        Some((_, '\\')) => s.push('\\'),
                        other => return Err(format!("unsupported escape at byte {i}: {other:?}")),
                    },
                    Some((_, c)) => s.push(c),
                    None => return Err("unterminated string".into()),
                }
            }
        }
    }

    /// The identity of a row: every [`KEY_FIELDS`] entry it carries,
    /// rendered `field=value` and joined. Rows from baseline and fresh
    /// artifacts match when their keys are equal.
    pub fn row_key(row: &Row) -> String {
        KEY_FIELDS
            .iter()
            .filter_map(|&f| row.get(f).map(|v| format!("{f}={}", v.display())))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Compare `fresh` against `baseline` row by row. A failure is
    /// reported when a baseline row is missing from the fresh run
    /// (coverage loss), or when any [`METRICS`] entry the baseline row
    /// carries regressed beyond its scaled tolerance (e.g. base `0.2` =
    /// `requests_per_s` fails below 80% of baseline) or, for an
    /// [exact](Direction::Exact) metric, changed at all. Rows marked
    /// [`UNGATED_FIELD`] are skipped. Rows only present in the fresh
    /// run pass here — [`check_coverage`] is the other direction.
    /// Returns human-readable failure lines; empty means the gate holds.
    pub fn check_regression(baseline: &[Row], fresh: &[Row], tolerance: f64) -> Vec<String> {
        let fresh_by_key: BTreeMap<String, &Row> = fresh.iter().map(|r| (row_key(r), r)).collect();
        let mut failures = Vec::new();
        for base in baseline {
            if is_ungated(base) {
                continue;
            }
            let key = row_key(base);
            let Some(new) = fresh_by_key.get(&key) else {
                failures.push(format!("[{key}] missing from the fresh run"));
                continue;
            };
            let mut gated = 0;
            for &(metric, direction, scale) in METRICS {
                let Some(base_metric) = base.get(metric).and_then(JsonValue::as_num) else {
                    continue;
                };
                gated += 1;
                let Some(new_metric) = new.get(metric).and_then(JsonValue::as_num) else {
                    failures.push(format!("[{key}] fresh row lacks numeric {metric}"));
                    continue;
                };
                if direction == Direction::Exact {
                    if new_metric != base_metric {
                        failures.push(format!(
                            "[{key}] {metric} changed: {new_metric} != baseline {base_metric} \
                             (deterministic, gated exactly; a deliberate change needs a \
                             baseline refresh)"
                        ));
                    }
                    continue;
                }
                let tol = (tolerance * scale).clamp(0.0, 0.95);
                // A zero baseline has no relative band: `baseline ×
                // (1 − tol)` collapses to 0, so the metric would never be
                // gated at all, and a percent-of-baseline report would
                // divide by zero. Gate such rows on absolute slack in
                // the metric's own units instead.
                let floor = if base_metric == 0.0 {
                    -tol
                } else {
                    base_metric * (1.0 - tol)
                };
                if new_metric < floor {
                    failures.push(format!(
                        "[{key}] {metric} regressed: {new_metric:.6} < {floor:.6} \
                         (baseline {base_metric:.6}, tolerance {:.0}%{})",
                        tol * 100.0,
                        if base_metric == 0.0 {
                            ", absolute slack against a zero baseline"
                        } else {
                            ""
                        }
                    ));
                }
            }
            if gated == 0 {
                failures.push(format!("[{key}] baseline row lacks numeric {METRIC}"));
            }
        }
        failures
    }

    /// The inverse direction of [`check_regression`]: every fresh row
    /// and every gated metric it carries must have a baseline
    /// counterpart, or the gate is silently not guarding the new
    /// numbers. Fails when a fresh row's key is absent from the
    /// baseline, and when a fresh row carries a numeric [`METRICS`]
    /// entry its baseline counterpart lacks — either way the fix is
    /// committing a refreshed baseline. Rows marked [`UNGATED_FIELD`]
    /// are exempt (deliberately baseline-free, e.g. wall-clock rows).
    /// Returns human-readable failure lines; empty means coverage is
    /// complete.
    pub fn check_coverage(baseline: &[Row], fresh: &[Row]) -> Vec<String> {
        let base_by_key: BTreeMap<String, &Row> =
            baseline.iter().map(|r| (row_key(r), r)).collect();
        let mut failures = Vec::new();
        for row in fresh {
            if is_ungated(row) {
                continue;
            }
            let key = row_key(row);
            let Some(base) = base_by_key.get(&key) else {
                failures.push(format!(
                    "[{key}] fresh row has no baseline counterpart — commit a refreshed baseline \
                     (or mark the row \"{UNGATED_FIELD}\")"
                ));
                continue;
            };
            for &(metric, _, _) in METRICS {
                if row.get(metric).and_then(JsonValue::as_num).is_some()
                    && base.get(metric).and_then(JsonValue::as_num).is_none()
                {
                    failures.push(format!(
                        "[{key}] fresh {metric} has no baseline counterpart — commit a refreshed \
                         baseline"
                    ));
                }
            }
        }
        failures
    }

    /// Check that `committed` artifacts equal a `fresh` rerun on every
    /// [exact](Direction::Exact) metric, in both directions: each gated row must exist
    /// on both sides, and each exact field must carry the same value
    /// (or be absent from both). A committed `results/BENCH_*.json`
    /// that drifted from what the code produces would let the gate pass
    /// against stale numbers. Rows marked [`UNGATED_FIELD`] are exempt.
    /// Returns human-readable failure lines; empty means they agree.
    pub fn check_exact(committed: &[Row], fresh: &[Row]) -> Vec<String> {
        let by_key = |rows: &[Row]| -> BTreeMap<String, Row> {
            rows.iter()
                .filter(|r| !is_ungated(r))
                .map(|r| (row_key(r), r.clone()))
                .collect()
        };
        let (committed, fresh) = (by_key(committed), by_key(fresh));
        let mut failures = Vec::new();
        for (key, old) in &committed {
            let Some(new) = fresh.get(key) else {
                failures.push(format!("[{key}] missing from the fresh run"));
                continue;
            };
            let exact = METRICS.iter().filter(|m| m.1 == Direction::Exact);
            for &(metric, _, _) in exact {
                let (a, b) = (
                    old.get(metric).and_then(JsonValue::as_num),
                    new.get(metric).and_then(JsonValue::as_num),
                );
                if a != b {
                    failures.push(format!(
                        "[{key}] {metric}: committed {a:?} != fresh {b:?} — rerun the bench \
                         and commit its output"
                    ));
                }
            }
        }
        for key in fresh.keys().filter(|k| !committed.contains_key(*k)) {
            failures.push(format!(
                "[{key}] fresh row is not in the committed artifact"
            ));
        }
        failures
    }
}
