//! The fleet benchmark: one command that runs a workload, checks its
//! outputs, and prints its metrics.
//!
//! ```text
//! fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` it runs the workload untraced and traced at the same
//! seed, checks that both report identical exact counts, and reports
//! the per-layer metrics. The last line of standard output is one JSON
//! object; a fuller record, stamped with the machine, goes to
//! `out/<workload>-seed<n>-trace<t>.json` in the benchmark's directory.
//! `fleetbench --e15-seeds <k>` prints E15's regret and messages per
//! node-round at seeds 1..=k, for the suite's seed-robustness check.
//! See README.md for the workloads and the metric map.

mod fleet;
mod layers;
mod stats;
mod suite;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Phase, Workload};

const WORKLOADS: [&str; 3] = [
    "fleet-sharded-n1e5",
    "watch-async-churn-n2e3",
    "suite-quick",
];

/// End-to-end metrics, reported for every workload, with units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("node_rounds_per_s", "1/s"),
    ("tick_ms.p50", "ms"),
    ("tick_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("regret", "reward"),
    ("msgs_per_node_round", "msgs/node-round"),
];

/// Per-layer metrics, reported for every workload; a layer the
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 27] = [
    ("dist.event.ms_per_tick", "ms"),
    ("dist.event.ns_per_msg", "ns"),
    ("dist.event.msgs_per_tick", "count"),
    ("dist.calendar.ns_per_entry", "ns"),
    ("sim.pool.us_per_map", "us"),
    ("dist.telemetry.us_per_tick", "us"),
    ("plot.registry.us_per_tick", "us"),
    ("plot.liveterm.us_per_frame", "us"),
    ("plot.liveterm.bytes_per_frame", "bytes"),
    ("plot.livesvg.ms_per_render", "ms"),
    ("plot.livesvg.bytes", "bytes"),
    ("dist.event.reply_ratio", "ratio"),
    ("dist.event.fallback_rate", "1/node-round"),
    ("dist.event.drops_per_query", "ratio"),
    ("dist.event.rebalances", "count"),
    ("dist.event.max_epoch_skew", "epochs"),
    ("dist.event.shard_imbalance", "ratio"),
    ("dist.runtime.ns_per_node_round", "ns"),
    ("dist.event.vs_roundsync", "ratio"),
    ("experiments.E9_s", "s"),
    ("experiments.E15_s", "s"),
    ("experiments.E17_s", "s"),
    ("experiments.E19_s", "s"),
    ("experiments.other_s", "s"),
    ("core.reward.us_per_tick", "us"),
    ("host.mem_ref_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} needs an unsigned integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(num()?),
            "--seconds" if num()? >= 1 => seconds = Some(num()?),
            "--seconds" => return Err("--seconds must be at least 1".into()),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
            },
            _ => return Err(format!("unexpected argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run reports.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    ops: usize,
    /// Interquartile range of the op latencies over their median.
    op_spread: f64,
    threads: usize,
    host_ms: [f64; 2],
}

fn run<W: Workload>(w: &W, a: &Args, out_dir: &Path) -> Result<Report, String> {
    let budget = Duration::from_secs(a.seconds);
    let host_start = layers::host_probe_in_child()?;
    let mut report = if a.trace {
        let half = budget / 2;
        let plain = w.timed(w.setup(a.seed)?, &mut Tracer::new(false), half, false)?;
        let mut tr = Tracer::new(true);
        let traced = w.timed(w.setup(a.seed)?, &mut tr, half, false)?;
        let mismatch = plain.exact != traced.exact;
        if mismatch {
            eprintln!(
                "traced and untraced exact counts differ:\n  untraced {}\n  traced   {}",
                plain.exact, traced.exact
            );
        }
        let probe = layers::probe_layers(&mut tr, a.seed);
        let spans_path = out_dir.join(format!("spans-{}-seed{}.tsv", a.workload, a.seed));
        tr.write_tsv(&spans_path)
            .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
        let mut values: Vec<(&'static str, f64)> =
            PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
        let mut set = |name: &str, v: f64| {
            let slot = values.iter_mut().find(|(n, _)| *n == name);
            slot.expect("every layer figure is declared in PER_LAYER").1 = v;
        };
        for &(name, v) in &traced.layers {
            set(name, v);
        }
        set("dist.calendar.ns_per_entry", probe.calendar_ns_per_entry);
        set("sim.pool.us_per_map", probe.pool_us_per_map);
        set("core.reward.us_per_tick", probe.reward_us_per_tick);
        set(
            "trace.overhead_frac",
            stats::mean(&traced.op_ms) / stats::mean(&plain.op_ms) - 1.0,
        );
        let unit = |name: &str| {
            PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("", |p| p.1)
        };
        Report {
            attempted: plain.attempted + traced.attempted,
            failed: plain.failed + traced.failed + u64::from(mismatch),
            metrics: values.into_iter().map(|(n, v)| (n, v, unit(n))).collect(),
            ops: traced.op_ms.len(),
            op_spread: stats::iqr_share(&traced.op_ms).unwrap_or(0.0),
            threads: traced.threads,
            host_ms: [host_start, 0.0],
        }
    } else {
        let mut setup_s = Vec::with_capacity(SETUPS);
        let mut state = None;
        for _ in 0..SETUPS {
            drop(state.take()); // free the previous fleet before building the next
            let start = Instant::now();
            state = Some(w.setup(a.seed)?);
            setup_s.push(start.elapsed().as_secs_f64());
        }
        let state = state.expect("at least one set-up");
        let phase = w.timed(state, &mut Tracer::new(false), budget, true)?;
        let rss = layers::peak_rss_mib()? * 1024.0 * 1024.0 / 1e6;
        end_to_end(&phase, &setup_s, rss)?
    };
    report.host_ms = [host_start, layers::host_probe_in_child()?];
    if a.trace {
        let host = report.host_ms.iter().sum::<f64>() / 2.0;
        let slot = report.metrics.iter_mut().find(|m| m.0 == "host.mem_ref_ms");
        slot.expect("host probe is a declared layer").1 = host;
    }
    Ok(report)
}

fn end_to_end(p: &Phase, setup_s: &[f64], rss_mb: f64) -> Result<Report, String> {
    let p50 = match p.typical_op_ms {
        Some(ms) => ms,
        None => stats::median(&p.op_ms).ok_or("no operations ran")?,
    };
    let p90 = stats::tail_percentile(&p.op_ms, 0.9).ok_or(format!(
        "{} operations leave fewer than {} beyond the p90",
        p.op_ms.len(),
        stats::MIN_BEYOND
    ))?;
    let values = [
        stats::median(setup_s).expect("set-up ran"),
        stats::median(&p.unit_s).ok_or("no unit of work completed")?,
        p.node_rounds_per_s,
        p50,
        p90,
        rss_mb,
        p.regret,
        p.msgs_per_node_round,
    ];
    Ok(Report {
        attempted: p.attempted,
        failed: p.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect(),
        ops: p.op_ms.len(),
        op_spread: stats::iqr_share(&p.op_ms).unwrap_or(0.0),
        threads: p.threads,
        host_ms: [0.0; 2],
    })
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // A non-finite value has no JSON spelling; it also fails the run.
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

/// `--e15-seeds <k>`: prints `seed regret msgs_per_node_round` for E15
/// at context seeds 1..=k (see `suite::e15_by_seed`).
fn e15_seeds(k: Option<&str>, out_dir: &Path) -> ExitCode {
    let Some(k) = k.and_then(|k| k.parse().ok()).filter(|&k: &u64| k >= 1) else {
        eprintln!("fleetbench: --e15-seeds needs a count of at least 1");
        return ExitCode::from(2);
    };
    match suite::e15_by_seed(out_dir, k) {
        Ok(rows) => {
            for (seed, regret, msgs) in rows {
                println!("{seed} {regret} {msgs}");
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("fleetbench: E15: {err}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--host-probe") {
        println!("{}", layers::host_probe_ms());
        return ExitCode::SUCCESS;
    }
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if argv.first().map(String::as_str) == Some("--e15-seeds") {
        return e15_seeds(argv.get(1).map(String::as_str), &out_dir);
    }
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(err) => {
            eprintln!("fleetbench: {err}");
            eprintln!(
                "usage: fleetbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(&out_dir) {
        eprintln!("fleetbench: cannot create {}: {err}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let result = match a.workload.as_str() {
        "fleet-sharded-n1e5" => run(&fleet::ShardedFleet, &a, &out_dir),
        "watch-async-churn-n2e3" => run(
            &fleet::WatchSession {
                out_dir: out_dir.clone(),
            },
            &a,
            &out_dir,
        ),
        _ => run(
            &suite::QuickSuite {
                scratch: out_dir.clone(),
            },
            &a,
            &out_dir,
        ),
    };
    let report = match result {
        Ok(r) => r,
        Err(err) => {
            eprintln!("fleetbench: {}: {err}", a.workload);
            return ExitCode::FAILURE;
        }
    };
    let finite = report.metrics.iter().all(|m| m.1.is_finite());
    let correct = report.failed == 0 && finite;
    let (nproc, cpu) = layers::machine_stamp();
    let metrics = json_metrics(&report.metrics);
    for (name, value, unit) in &report.metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!(
        "# {} seed {} trace {}: {} ops timed (IQR/median {:.3}), {}/{} failed; nproc {nproc}, {cpu}; {} worker threads; host probe {:.2}/{:.2} ms",
        a.workload,
        a.seed,
        u8::from(a.trace),
        report.ops,
        report.op_spread,
        report.failed,
        report.attempted,
        report.threads,
        report.host_ms[0],
        report.host_ms[1],
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"cpu\": \"{}\", \"threads\": {}, \"ops\": {}, \"op_iqr_share\": {}, \"host_mem_ref_ms\": [{}, {}], \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}\n",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        cpu.replace(['"', '\\'], ""),
        report.threads,
        report.ops,
        report.op_spread,
        report.host_ms[0],
        report.host_ms[1],
        report.attempted,
        report.failed,
    );
    let path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    if let Err(err) = std::fs::write(&path, record) {
        eprintln!("fleetbench: cannot write {}: {err}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.attempted, report.failed
    );
    ExitCode::SUCCESS
}
