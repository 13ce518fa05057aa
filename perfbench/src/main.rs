//! End-to-end and per-layer benchmark of the GRANII workspace.
//!
//! ```text
//! granii-perfbench --workload <offline-large|serve-hot|serve-cold>
//!                  --seed <n> --seconds <s> --trace <0|1>
//!                  [--source <id>] [--out <dir>]
//! ```
//!
//! With `--trace 0` the result line carries the end-to-end metrics; with
//! `--trace 1` telemetry, the plan profiler and the benchmark's own spans
//! are on, and it carries the per-layer metrics. Progress goes to stderr;
//! stdout gets a `provenance` line and, last, the result line. With
//! `--out`, the run also writes its record (provenance + result) and, when
//! traced, its spans there. `perfbench/run.py` builds and runs this.

mod config;
mod direct;
mod layers;
mod load;
mod offline;
mod report;
mod serve;
mod setup;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use layers::Tracer;
use report::{json_num, json_str, Metrics};

/// What a workload run returns.
#[derive(Debug)]
pub struct RunResult {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs compared against a reference (oracle, serial server, or
    /// finiteness of a loss).
    pub checked: u64,
    /// Whether the traced layers-add-up checks held.
    pub addup_ok: bool,
    /// Figures that exist on only some workloads (the serving latencies and
    /// goodput; traced, the serve stages and the generator's lateness):
    /// printed and recorded, but not on the result line, which carries what
    /// every workload measures.
    pub extra: Metrics,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The serve-layer metrics on a workload without a server: no request was
/// queued, served, batched, shed or checked, and no generator ran.
pub fn push_absent_serve_layers(out: &mut Metrics) {
    for name in [
        "serve.queue_ms.p50",
        "serve.queue_ms.p99",
        "serve.execute_ms.p50",
        "serve.select_ms.p50",
        "serve.self_ms.p50",
        "load.late_ms.p99",
    ] {
        out.push(name, 0.0, "ms");
    }
    out.push("serve.cache_hit_ratio", 0.0, "ratio");
    out.push("serve.batch_size.mean", 0.0, "count");
    out.push("serve.worker_busy_ratio", 0.0, "ratio");
    out.push("serve.shed_ratio", 0.0, "ratio");
    out.push("check.stage_sum_outside", 0.0, "ratio");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    source: String,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: config::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        source: "unknown".to_owned(),
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--source" => args.source = value.clone(),
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Everything a result depends on besides the code: compared results must
/// agree on all of it but `source` and `seed`.
fn provenance(args: &Args, threads: usize) -> String {
    let serve = serve::serve_config();
    let fields = [
        ("source", json_str(&args.source)),
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("nproc", nproc().to_string()),
        ("build", json_str(if cfg!(feature = "simd") { "simd" } else { "scalar" })),
        ("granii_threads", threads.to_string()),
        ("device", json_str(config::DEVICE.name())),
        ("setup_repeats", config::SETUP_REPEATS.to_string()),
        (
            "seeds",
            format!(
                "{{\"default\": {}, \"held_out\": {}}}",
                config::DEFAULT_SEED,
                config::HELD_OUT_SEED
            ),
        ),
        (
            "serve_config",
            format!(
                "{{\"workers\": {}, \"queue_depth\": {}, \"cache_capacity\": {}, \"max_batch\": {}, \"fairness_share\": {}}}",
                serve.workers, serve.queue_depth, serve.cache_capacity, serve.max_batch, serve.fairness_share
            ),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The fixed program configuration: offline jobs use every core for
    // kernels; serving uses single-threaded kernels and one worker per core.
    let threads = match args.workload.as_str() {
        "offline-large" => nproc(),
        "serve-hot" | "serve-cold" => 1,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    // Set before any kernel runs: the thread count is read once.
    std::env::set_var("GRANII_THREADS", threads.to_string());
    let prov = provenance(&args, granii_matrix::parallel::num_threads());
    eprintln!("perfbench: {prov}");

    let mut tracer = Tracer::default();
    let started = std::time::Instant::now();
    let cpu_before = stats::cpu_times();
    let result = match args.workload.as_str() {
        "offline-large" => offline::run(args.seed, args.seconds, args.trace, &mut tracer),
        "serve-hot" => serve::run(
            serve::Kind::Hot,
            config::SERVE_HOT,
            args.seed,
            args.seconds,
            args.trace,
            &mut tracer,
        ),
        _ => serve::run(
            serve::Kind::Cold,
            config::SERVE_COLD,
            args.seed,
            args.seconds,
            args.trace,
            &mut tracer,
        ),
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if args.trace {
        eprintln!("spans recorded by the benchmark: {}", tracer.len());
    }
    for m in &result.extra.0 {
        eprintln!("  {} = {} {}", m.name, m.value, m.unit);
    }
    let non_finite = result.metrics.non_finite();
    if !non_finite.is_empty() {
        eprintln!("perfbench: non-finite metrics {non_finite:?}");
        return ExitCode::from(1);
    }
    eprintln!(
        "checked {} outputs; attempted {}, failed {} (failed_ratio {:.6}); layers add up: {}; wall {:.1} s",
        result.checked,
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted.max(1) as f64,
        if args.trace { if result.addup_ok { "yes" } else { "NO" } } else { "not traced" },
        started.elapsed().as_secs_f64()
    );
    if args.trace {
        eprintln!("kernel.*.gflops and kernel.*.gbps use the program's computed WorkStats flops and bytes, not hardware counters");
    }
    // Time the hypervisor gave to other guests: the host noise of this run.
    let steal_pct = stats::steal_pct(cpu_before, stats::cpu_times());
    eprintln!("host steal during the run: {steal_pct:.2}% of cpu time");
    // A traced run whose layers do not add up is not a valid measurement.
    let correct = result.failed == 0 && result.checked > 0 && (!args.trace || result.addup_ok);
    let line = report::result_line(
        correct,
        result.attempted.max(1),
        result.failed,
        &result.metrics,
    );
    println!("provenance {prov}");
    if let Some(dir) = &args.out {
        let extra = report::result_line(correct, 0, 0, &result.extra);
        if let Err(e) = write_record(dir, &args, &prov, steal_pct, &line, &extra, &tracer) {
            eprintln!("perfbench: writing the record: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}

fn write_record(
    dir: &std::path::Path,
    args: &Args,
    prov: &str,
    steal_pct: f64,
    line: &str,
    extra: &str,
    tracer: &Tracer,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(
        dir.join(format!("{stem}.json")),
        format!(
            "{{\"provenance\": {prov}, \"host_steal_pct\": {}, \"result\": {line}, \"extra\": {extra}}}\n",
            json_num(steal_pct)
        ),
    )?;
    if args.trace {
        tracer.write_chrome(&dir.join(format!("{stem}.trace.json")))?;
    }
    Ok(())
}
