//! CI perf-regression gate over the `BENCH_*.json` artifacts.
//!
//! Compares every `BENCH_*.json` present in the baseline directory
//! against the same-named file in the fresh directory, matching rows on
//! their key fields (workload/mode/workers/requests/batch) and failing
//! when any gated metric moves beyond its direction-aware tolerance —
//! or when a baseline row disappears (coverage loss). The comparison
//! also runs in the other direction: a fresh artifact, row, or gated
//! metric with **no baseline counterpart** fails, listing exactly what
//! is unguarded — otherwise new benchmark output would silently ship
//! ungated until someone remembered to commit a baseline. Rows marked
//! with the `ungated` field (wall-clock numbers) are exempt both ways.
//! The benchmark numbers come from the deterministic simulated cost
//! model, so in CI the comparison is exact-reproducible: any failure is
//! a real code change, not machine noise. The deterministic metrics
//! (`Direction::Exact` in `gate::METRICS`) must match the baseline
//! exactly.
//!
//! With `--exact-only` the gate instead checks that two sets of
//! artifacts agree on exactly those deterministic fields, row for row
//! in both directions — run it with the committed `results/` as the
//! baseline and a fresh smoke run as the fresh side, to catch committed
//! artifacts that drifted from what the code produces.
//!
//! When `GITHUB_STEP_SUMMARY` is set (as in GitHub Actions), a markdown
//! summary of every file's verdict is appended to it.
//!
//! Usage:
//!
//! ```text
//! bench_gate [--baseline DIR] [--fresh DIR] [--tolerance FRACTION] [--exact-only]
//! ```
//!
//! Defaults: `--baseline results/baselines --fresh results
//! --tolerance 0.20`. Exits non-zero on any gate failure.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use autobatch_bench::gate::{
    check_coverage, check_exact, check_regression, is_ungated, parse_flat_json, Row,
};

/// One artifact's verdict, for the report and the step summary.
struct FileReport {
    name: String,
    baseline_rows: usize,
    failures: Vec<String>,
}

fn parse_file(path: &Path) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_flat_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bench_files(dir: &Path) -> Result<Vec<String>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok())
        .filter_map(|e| e.file_name().to_str().map(str::to_string))
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    Ok(names)
}

fn run(
    baseline_dir: &Path,
    fresh_dir: &Path,
    tolerance: f64,
    exact_only: bool,
) -> Result<Vec<FileReport>, String> {
    let baselines = bench_files(baseline_dir)?;
    if baselines.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines under {}",
            baseline_dir.display()
        ));
    }
    let mut reports = Vec::new();
    for name in &baselines {
        let fresh_path = fresh_dir.join(name);
        if !fresh_path.exists() {
            reports.push(FileReport {
                name: name.clone(),
                baseline_rows: 0,
                failures: vec![format!(
                    "fresh artifact missing at {}",
                    fresh_path.display()
                )],
            });
            continue;
        }
        let base_rows = parse_file(&baseline_dir.join(name))?;
        let fresh_rows = parse_file(&fresh_path)?;
        let failures = if exact_only {
            check_exact(&base_rows, &fresh_rows)
        } else {
            let mut failures = check_regression(&base_rows, &fresh_rows, tolerance);
            failures.extend(check_coverage(&base_rows, &fresh_rows));
            failures
        };
        reports.push(FileReport {
            name: name.clone(),
            baseline_rows: base_rows.len(),
            failures,
        });
    }
    // The other direction at file granularity: a fresh artifact with no
    // baseline file at all is unguarded unless every row opted out.
    for name in bench_files(fresh_dir)? {
        if baselines.contains(&name) {
            continue;
        }
        let rows = parse_file(&fresh_dir.join(&name))?;
        let gated = rows.iter().filter(|r| !is_ungated(r)).count();
        if gated > 0 {
            reports.push(FileReport {
                name: name.clone(),
                baseline_rows: 0,
                failures: vec![format!(
                    "{gated} fresh row(s) have no baseline artifact — commit {} or mark the \
                     rows \"ungated\"",
                    Path::new("results/baselines").join(&name).display()
                )],
            });
        }
    }
    Ok(reports)
}

/// Append a markdown verdict table to `$GITHUB_STEP_SUMMARY`, if set.
fn write_step_summary(reports: &[FileReport], tolerance: f64) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let mut md = String::new();
    md.push_str(&format!(
        "### Perf-regression gate (base tolerance {:.0}%)\n\n",
        tolerance * 100.0
    ));
    md.push_str("| artifact | baseline rows | verdict |\n|---|---:|---|\n");
    for r in reports {
        let verdict = if r.failures.is_empty() {
            "✅ within tolerance".to_string()
        } else {
            format!("❌ {} failure(s)", r.failures.len())
        };
        md.push_str(&format!(
            "| `{}` | {} | {} |\n",
            r.name, r.baseline_rows, verdict
        ));
    }
    let all: Vec<&String> = reports.iter().flat_map(|r| &r.failures).collect();
    if !all.is_empty() {
        md.push_str("\n<details><summary>failures</summary>\n\n");
        for (r, f) in reports
            .iter()
            .flat_map(|r| r.failures.iter().map(move |f| (r, f)))
        {
            md.push_str(&format!("- `{}`: {}\n", r.name, f));
        }
        md.push_str("\n</details>\n");
    }
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(md.as_bytes()))
    {
        eprintln!("could not append to GITHUB_STEP_SUMMARY ({path}): {e}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_dir = PathBuf::from("results/baselines");
    let mut fresh_dir = PathBuf::from("results");
    let mut tolerance = 0.20_f64;
    let mut exact_only = false;
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--baseline" => match flag_value(&mut i) {
                Some(v) => baseline_dir = PathBuf::from(v),
                None => {
                    eprintln!("--baseline needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--fresh" => match flag_value(&mut i) {
                Some(v) => fresh_dir = PathBuf::from(v),
                None => {
                    eprintln!("--fresh needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--tolerance" => match flag_value(&mut i).and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if (0.0..1.0).contains(&v) => tolerance = v,
                _ => {
                    eprintln!("--tolerance needs a fraction in [0, 1)");
                    return ExitCode::FAILURE;
                }
            },
            "--exact-only" => exact_only = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_gate [--baseline DIR] [--fresh DIR] [--tolerance FRACTION] \
                     [--exact-only]"
                );
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    match run(&baseline_dir, &fresh_dir, tolerance, exact_only) {
        Ok(reports) => {
            let mut failed = false;
            for r in &reports {
                if r.failures.is_empty() {
                    println!(
                        "gate OK: {} — {} baseline rows within tolerance on every gated metric \
                         (base {:.0}%), coverage complete",
                        r.name,
                        r.baseline_rows,
                        tolerance * 100.0
                    );
                } else {
                    failed = true;
                }
            }
            write_step_summary(&reports, tolerance);
            if failed {
                eprintln!("perf-regression gate FAILED:");
                for r in &reports {
                    for f in &r.failures {
                        eprintln!("  {}: {f}", r.name);
                    }
                }
                ExitCode::FAILURE
            } else {
                println!("perf-regression gate passed");
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("bench_gate error: {e}");
            ExitCode::FAILURE
        }
    }
}
