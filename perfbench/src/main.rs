//! The guardband stack's benchmark.
//!
//! ```text
//! perfbench --workload <fleet|redteam|dram|serve> --seed <u64>
//!           [--seconds <s, default 10>] [--trace <0|1, default 0>]
//! ```
//!
//! Runs one seeded workload for about `--seconds`, checks its outputs,
//! prints every end-to-end metric (or, with `--trace 1`, every per-layer
//! metric) with its unit, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. A full record
//! (provenance, checks, counts, modeled figures) is written to
//! `perfbench/out/`, and the traced run's spans beside it.
//!
//! Any bad argument, failed check or failed write exits nonzero.

mod client;
mod dram_wl;
mod fleet_wl;
mod redteam_wl;
mod report;
mod serve_wl;
mod stats;
mod trace;

use report::{Ctx, Outcome};
use serde::{json, Serialize, Value};
use stats::{fnv1a, median, Tail, FNV_BASIS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::{by_layer, Tracer};

const WORKLOADS: [&str; 4] = ["fleet", "redteam", "dram", "serve"];

/// End-to-end metrics (untraced run), as in `BENCHMARK.json`.
///
/// The tail of the op times is printed beside them but not gated: the
/// round-based workloads time 15–60 rounds a run, so the percentile the
/// tail rule picks changes with the host's speed from run to run.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics (traced run), as in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 63] = [
    ("xgene_sim.boot_ms", "ms"),
    ("dram_sim.generate_ms", "ms"),
    ("dram_sim.index_build_ms", "ms"),
    ("dram_sim.sample_ms", "ms"),
    ("xgene_sim.drop_ms", "ms"),
    ("dram_sim.weak_cells", "count"),
    ("char_fw.vmin_walk_ms", "ms"),
    ("char_fw.walked_setups", "count"),
    ("char_fw.runs", "count"),
    ("char_fw.watchdog_resets", "count"),
    ("dram_sim.retention_floor_ms", "ms"),
    ("guardband_core.safe_point_us", "us"),
    ("fleet.job_ms.p50", "ms"),
    ("fleet.job_ms.tail", "ms"),
    ("fleet.jobs", "count"),
    ("fleet.requeues", "count"),
    ("fleet.queue_steals", "count"),
    ("fleet.orchestration_ratio", "ratio"),
    ("fleet.layer_sum_ratio", "ratio"),
    ("dispatch.epoch_ms", "ms"),
    ("dispatch.requests", "count"),
    ("dispatch.rejected", "count"),
    ("dispatch.reroutes", "count"),
    ("redteam.episode_ms", "ms"),
    ("redteam.boot_ms", "ms"),
    ("redteam.epoch_us", "us"),
    ("redteam.layer_sum_ratio", "ratio"),
    ("stress_gen.genome_profile_us", "us"),
    ("redteam.parallel_efficiency", "ratio"),
    ("redteam.sentinel_checks", "count"),
    ("redteam.breaker_trips", "count"),
    ("redteam.escaped_sdcs", "count"),
    ("thermal_sim.settle_ms", "ms"),
    ("workload_sim.dpbench_ms", "ms"),
    ("dram_sim.scrub_ns_per_word", "ns"),
    ("dram_sim.kernel_ns_per_word.kmeans", "ns"),
    ("dram_sim.kernel_ns_per_word.backprop", "ns"),
    ("dram_sim.kernel_ns_per_word.srad", "ns"),
    ("dram_sim.kernel_ns_per_word.nw", "ns"),
    ("dram_sim.reads", "count"),
    ("dram_sim.writes", "count"),
    ("dram_sim.ce", "count"),
    ("dram_sim.ue", "count"),
    ("control_plane.parse_ns", "ns"),
    ("control_plane.handle_ns.safe_point", "ns"),
    ("control_plane.handle_ns.status", "ns"),
    ("control_plane.handle_ns.campaign_status", "ns"),
    ("control_plane.handle_ns.metrics", "ns"),
    ("control_plane.encode_ns", "ns"),
    ("control_plane.snapshot_lookup_ns", "ns"),
    ("telemetry.observe_ns", "ns"),
    ("control_plane.socket_us", "us"),
    ("serve.generator_late_us", "us"),
    ("serve.backlog_max", "count"),
    ("control_plane.roll_epoch_us", "us"),
    ("telemetry.exposition_us", "us"),
    ("control_plane.responses.200", "count"),
    ("control_plane.responses.304", "count"),
    ("control_plane.responses.404", "count"),
    ("control_plane.responses.5xx", "count"),
    ("control_plane.responses.503", "count"),
    ("control_plane.stale_reads", "count"),
    ("trace.overhead_pct", "%"),
];

/// Seconds a probe of another workload's layers runs in a traced run.
const PROBE_SECONDS: f64 = 2.0;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fleet|redteam|dram|serve> --seed <u64> [--seconds <s>] [--trace <0|1>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("seed {value:?} is not an unsigned integer"))?,
                )
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("seconds {value:?} is not a positive number"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace {value:?} is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn run_workload(name: &str, ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    match name {
        "fleet" => fleet_wl::run(ctx, tracer),
        "redteam" => redteam_wl::run(ctx, tracer),
        "dram" => dram_wl::run(ctx, tracer),
        "serve" => serve_wl::run(ctx, tracer),
        _ => unreachable!("workload names are validated when parsed"),
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// `{"value":…,"unit":…}`.
#[derive(Serialize)]
struct Measured {
    value: f64,
    unit: &'static str,
}

/// A JSON object whose keys are only known at run time.
struct Object<V>(Vec<(String, V)>);

impl<V: Serialize> Serialize for Object<V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

fn measured<'a>(items: impl IntoIterator<Item = (&'a str, f64, &'static str)>) -> Object<Measured> {
    Object(
        items
            .into_iter()
            .map(|(name, value, unit)| (name.to_owned(), Measured { value, unit }))
            .collect(),
    )
}

/// Where a result comes from.
#[derive(Serialize)]
struct Provenance {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: u8,
    commit: String,
    source_fingerprint: String,
    nproc: usize,
    rustc: String,
    profile: &'static str,
    setup_repeats: usize,
    warmups: u32,
    repeats: u32,
    op: &'static str,
    op_samples: usize,
    /// Modeled (not measured) figures, keyed `modeled.<name>`.
    modeled: Object<f64>,
}

/// The result line, the last line of standard output.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Object<Measured>,
}

/// The full record written to `perfbench/out/`.
#[derive(Serialize)]
struct Record {
    provenance: Provenance,
    result: ResultLine,
    named: Object<Measured>,
    op_ms: Vec<f64>,
    setup_s: Vec<f64>,
    counts: Object<u64>,
    layers: Object<Measured>,
    checks: Vec<report::Check>,
}

fn command_output(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// FNV-1a over the sources the benchmark builds (path and bytes of every
/// `.rs`/`.toml`/`.lock` file), identifying the code when no commit is
/// available.
fn source_fingerprint(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path
                    .file_name()
                    .is_some_and(|n| n != "target" && n != "out")
                {
                    walk(&path, files);
                }
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench"), &mut files);
    files.sort();
    files.iter().fold(FNV_BASIS, |hash, path| {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let hash = fnv1a(hash, rel.to_string_lossy().as_bytes());
        fnv1a(hash, &std::fs::read(path).unwrap_or_default())
    })
}

fn provenance(args: &Args, ctx: &Ctx, out: &Outcome, root: &Path) -> Provenance {
    let commit = command_output("git", &["rev-parse", "HEAD"], root)
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    let rustc = command_output("rustc", &["--version"], root).unwrap_or_else(|| "unknown".into());
    Provenance {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: u8::from(args.trace),
        commit,
        source_fingerprint: format!("{:016x}", source_fingerprint(root)),
        nproc: ctx.nproc,
        rustc,
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        setup_repeats: out.setup_s.len(),
        warmups: out.warmups,
        repeats: out.repeats,
        op: out.op_name,
        op_samples: out.op_ms.len(),
        modeled: Object(
            out.modeled
                .iter()
                .map(|(name, value)| (format!("modeled.{name}"), *value))
                .collect(),
        ),
    }
}

fn end_to_end(out: &Outcome) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let values = [
        median(&out.setup_s).unwrap_or(f64::NAN),
        peak_rss_mib()?,
        median(&out.work_rates).unwrap_or(f64::NAN),
        median(&out.op_ms).ok_or("no operation completed")?,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect())
}

fn per_layer(out: &Outcome) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let layer = out
                .layers
                .iter()
                .find(|l| l.name == name)
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
            if layer.unit != unit {
                return Err(format!("{name}: unit {} is not {unit}", layer.unit));
            }
            Ok((name, layer.value, unit))
        })
        .collect()
}

fn merge_probe(into: &mut Outcome, probe: Outcome, name: &str) {
    into.attempted += probe.attempted;
    into.failed += probe.failed;
    for mut check in probe.checks {
        check.name = format!("probe.{name}: {}", check.name);
        into.checks.push(check);
    }
    for layer in probe.layers {
        if !into.layers.iter().any(|l| l.name == layer.name) {
            into.layers.push(layer);
        }
    }
}

fn span_table(tracer: &Tracer) -> String {
    let mut s = format!(
        "{:<40}{:>8}{:>14}{:>14}{:>14}\n",
        "span", "calls", "total ms", "self ms", "p50 ms"
    );
    for (name, l) in by_layer(tracer.spans(), 0) {
        let _ = writeln!(
            s,
            "{:<40}{:>8}{:>14.3}{:>14.3}{:>14.4}",
            name,
            l.calls,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            median(&l.durations_ns).unwrap_or(0.0) / 1e6
        );
    }
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload, prints and writes the result; `Ok(false)` when a
/// check failed.
fn run(args: &Args) -> Result<bool, String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .parent()
        .ok_or("benchmark directory has no parent")?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        trace: args.trace,
        probe: false,
    };

    let mut tracer = Tracer::new(args.trace);
    let (out, metrics) = if args.trace {
        // The same workload untraced, as the reference for the overhead.
        let plain = run_workload(
            args.workload,
            &Ctx {
                trace: false,
                ..ctx
            },
            &mut Tracer::new(false),
        );
        let mut out = run_workload(args.workload, &ctx, &mut tracer);
        let overhead =
            median(&out.op_ms).unwrap_or(f64::NAN) / median(&plain.op_ms).unwrap_or(f64::NAN) - 1.0;
        out.layer("trace.overhead_pct", overhead * 100.0, "%");
        merge_probe(&mut out, plain, "untraced reference");
        for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
            let probe_ctx = Ctx {
                probe: true,
                seconds: PROBE_SECONDS,
                ..ctx
            };
            let probe = run_workload(other, &probe_ctx, &mut tracer);
            merge_probe(&mut out, probe, other);
        }
        let metrics = per_layer(&out)?;
        (out, metrics)
    } else {
        let mut out = run_workload(args.workload, &ctx, &mut tracer);
        let metrics = end_to_end(&out)?;
        if let Some(tail) = Tail::of(&out.op_ms) {
            out.named("op_tail_ms", tail.value, "ms");
        }
        (out, metrics)
    };

    // Human-readable report.
    println!(
        "perfbench {} seed {} ({} s, trace {}, nproc {nproc})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if !args.trace {
        println!("  {} ops timed: {}", out.op_ms.len(), out.op_name);
        for (name, value, unit) in &metrics {
            println!("  {name:<40}{value:>16.4} {unit}");
        }
        if let Some(tail) = Tail::of(&out.op_ms) {
            println!(
                "  op_tail_ms (not gated) is the {} of {} samples",
                tail.label(),
                tail.samples
            );
        }
        for (name, value, unit) in &out.named {
            println!("  {name:<40}{value:>16.4} {unit}");
        }
    }
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<40}{:>16} ({} failed of {} ops)",
        "failed_ratio", ratio, out.failed, out.attempted
    );
    for (name, value) in &out.counts {
        println!("  count {name:<34}{value:>16}");
    }
    for (name, value) in &out.modeled {
        println!("  modeled.{name:<32}{value:>16.4}");
    }
    if args.trace {
        for (name, value, unit) in &metrics {
            println!("  {name:<40}{value:>16.4} {unit}");
        }
        print!("{}", span_table(&tracer));
    }
    for check in &out.checks {
        println!(
            "  check {} {}: {}",
            if check.passed { "ok  " } else { "FAIL" },
            check.name,
            check.detail
        );
    }

    let correct = out.correct() && metrics.iter().all(|(_, v, _)| v.is_finite());
    let provenance = provenance(args, &ctx, &out, root);
    println!("{{\"provenance\":{}}}", json::to_string(&provenance));
    let result = ResultLine {
        correct,
        attempted: out.attempted.max(1),
        failed: out.failed,
        metrics: measured(metrics.iter().copied()),
    };
    let result_line = json::to_string(&result);

    // The full record, then the spans, then the result line.
    let dir = manifest.join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = Record {
        provenance,
        result,
        named: measured(out.named.iter().map(|(n, v, u)| (n.as_str(), *v, *u))),
        op_ms: out.op_ms,
        setup_s: out.setup_s,
        counts: Object(out.counts),
        layers: measured(
            out.layers
                .iter()
                .map(|l| (l.name.as_str(), l.value, l.unit)),
        ),
        checks: out.checks,
    };
    let record = json::to_string(&record) + "\n";
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, record).map_err(|e| format!("write {}: {e}", path.display()))?;
    if args.trace {
        let path = dir.join(format!("{stem}-spans.jsonl"));
        std::fs::write(&path, tracer.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{result_line}");
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn bad_arguments_are_refused_not_defaulted() {
        assert!(args(&["--workload", "fleet", "--seed", "7"]).is_ok());
        assert!(args(&["--workload", "flet", "--seed", "7"]).is_err());
        assert!(args(&["--workload", "fleet", "--seed", "seven"]).is_err());
        assert!(args(&["--workload", "fleet", "--seed", "-1"]).is_err());
        assert!(args(&["--workload", "fleet"]).is_err());
        assert!(args(&["--seed", "7"]).is_err());
        assert!(args(&["--workload", "fleet", "--seed", "7", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "fleet", "--seed", "7", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "fleet", "--seed", "7", "--seconds"]).is_err());
        assert!(args(&["--workload", "fleet", "--seed", "7", "--verbose", "1"]).is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let doc = doc.as_map().expect("BENCHMARK.json is an object");
        // `key` of every entry of one array section.
        let entries = |section: &str, key: &str| -> Vec<String> {
            serde::map_get(doc, section)
                .expect("section present")
                .as_seq()
                .expect("section is an array")
                .iter()
                .map(|entry| {
                    let entry = entry.as_map().expect("entry is an object");
                    let value = serde::map_get(entry, key).expect("key present");
                    value.as_str().expect("value is a string").to_owned()
                })
                .collect()
        };
        let pairs = |section: &str| -> Vec<(String, String)> {
            entries(section, "name")
                .into_iter()
                .zip(entries(section, "unit"))
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(&END_TO_END));
        assert_eq!(pairs("per_layer"), own(&PER_LAYER));
        let workloads = entries("workloads", "name");
        assert!(workloads.len() >= 2);
        for name in workloads {
            assert!(WORKLOADS.contains(&name.as_str()), "{name}");
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = json::to_string(&ResultLine {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: measured([("setup_s", 0.5, "s"), ("a.b", 2.25, "ms")]),
        });
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"},"a.b":{"value":2.25,"unit":"ms"}}}"#
        );
    }
}
