//! The serving benchmark's measuring program. `perfbench/run.py` builds
//! and runs it, reduces the samples it prints, and checks the result
//! against `BENCHMARK.json`.
//!
//! ```text
//! perfbench --workload <nas_replay|tenant_serve|durable_ensemble>
//!           --seed <n> --seconds <s> --trace <0|1> --out-dir <dir> [--mismatch]
//! ```
//!
//! The last line of standard output is one JSON object: the checks,
//! the attempted/failed counts and every metric, as a value or as raw
//! samples. The exit code is 3 when a check failed.

mod gauge;
mod inputs;
mod ladder;
mod pin;
mod serve;
mod trace;

use inputs::{Inputs, Workload};
use serve::{Ledger, RunResult};
use std::path::PathBuf;
use std::time::Duration;
use trace::{samples, string, value, windowed, Metric};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    mismatch: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out_dir, mut mismatch) =
        (None, None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--mismatch" {
            mismatch = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?)
            }
            "--seed" => seed = Some(v.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(v.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(v == "1"),
            "--out-dir" => out_dir = Some(PathBuf::from(v)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
        mismatch,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = args.out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create the scratch directory");
    // The traced run serves the workload twice, untraced then traced,
    // each for half the window, and then climbs the ladder.
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let inputs = Inputs::generate(args.workload, args.seed, window);
    let mut ledger = Ledger::default();
    if inputs.workload == Workload::NasReplay {
        serve::golden_pins(&mut ledger);
    }
    let rss_base = serve::reset_peak_rss();
    let window = Duration::from_secs_f64(window);
    let metrics = if args.trace {
        let base = serve::run(&inputs, window, false, &scratch, args.mismatch, &mut ledger);
        let traced = serve::run(&inputs, window, true, &scratch, args.mismatch, &mut ledger);
        let mut m = ladder::run(&inputs, &scratch, &mut ledger);
        m.extend(per_layer(&inputs, &base, &traced, &ledger, rss_base));
        let stem = format!("{}-seed{}", args.workload.name(), args.seed);
        let _ = std::fs::write(
            args.out_dir.join(format!("{stem}.spans.jsonl")),
            traced.tracer.to_jsonl(),
        );
        if let Some(t) = &traced.telemetry {
            let _ = std::fs::write(
                args.out_dir.join(format!("{stem}.telemetry.json")),
                t.to_json(),
            );
        }
        m
    } else {
        let r = serve::run(&inputs, window, false, &scratch, args.mismatch, &mut ledger);
        let mut m = raw(&r);
        m.extend(end_to_end(r));
        m
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let mut out = String::from("{\"workload\":");
    string(&mut out, inputs.workload.name());
    out.push_str(&format!(
        ",\"seed\":{},\"attempted\":{},\"failed\":{},\"gen_s\":{},\"checks\":[",
        args.seed, ledger.attempted, ledger.failed, inputs.gen_s
    ));
    for (i, c) in ledger.checks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        string(&mut out, c.name);
        out.push_str(&format!(",\"ok\":{},\"detail\":", c.ok));
        string(&mut out, &c.detail);
        out.push('}');
    }
    out.push_str("],\"metrics\":[");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        m.write_json(&mut out);
    }
    out.push_str("]}");
    println!("{out}");
    if ledger.checks.iter().any(|c| !c.ok) {
        std::process::exit(3);
    }
}

/// The timings as measured, before they are scaled to the reference
/// host, and the host's mean speed over the run.
fn raw(r: &RunResult) -> Vec<Metric> {
    vec![
        samples("raw.setup_s", "s", "median", r.setup_s.clone()),
        samples("raw.ingest_eps", "1/s", "median", r.ingest_eps.clone()),
        samples("raw.recover_s", "s", "median", r.recover_s.clone()),
        value("host.speed", "ratio", r.host_speed()),
    ]
}

/// The end-to-end metrics. Times and rates are scaled to what the
/// reference host would have measured, by the host's mean speed over
/// the run raised to `gauge::ELASTICITY`.
fn end_to_end(r: RunResult) -> Vec<Metric> {
    let speed = r.host_speed().powf(gauge::ELASTICITY);
    let scaled = |v: Vec<f64>, by: f64| v.into_iter().map(|x| x * by).collect();
    vec![
        samples("setup_s", "s", "median", scaled(r.setup_s, speed)),
        samples(
            "ingest_eps",
            "1/s",
            "median",
            scaled(r.ingest_eps, 1.0 / speed),
        ),
        samples("advise_p50_us", "us", "p50", r.advise_us.clone()),
        windowed(
            "advise_p99_us",
            "us",
            "p99",
            serve::PROBE_WINDOWS,
            r.advise_us,
        ),
        value("hit_rate", "ratio", r.hit_rate),
        samples("recover_s", "s", "median", scaled(r.recover_s, speed)),
        value("rss_mb", "MiB", r.rss_mb),
    ]
}

fn hist_p99(r: &RunResult, name: &str) -> f64 {
    r.telemetry
        .as_ref()
        .and_then(|t| t.histogram(name))
        .filter(|h| h.count() > 0)
        .map_or(0.0, |h| h.quantile(0.99) as f64)
}

/// A sampled span statistic, or 0 where the workload has no such span.
fn span_stat(name: &str, unit: &'static str, stat: &'static str, v: Vec<f64>) -> Metric {
    if v.is_empty() {
        value(name, unit, 0.0)
    } else {
        samples(name, unit, stat, v)
    }
}

fn per_layer(
    inputs: &Inputs,
    base: &RunResult,
    traced: &RunResult,
    ledger: &Ledger,
    rss_base: f64,
) -> Vec<Metric> {
    let t = &traced.tracer;
    let counter = |name: &str| {
        traced
            .telemetry
            .as_ref()
            .and_then(|s| s.counter(name))
            .unwrap_or(0) as f64
    };
    let champions: u64 = traced.models.iter().map(|m| m.champion_events).sum();
    let challenger_champions: u64 = traced
        .models
        .iter()
        .skip(1)
        .map(|m| m.champion_events)
        .sum();
    let ms = |v: Vec<f64>| v.into_iter().map(|ns| ns / 1e6).collect::<Vec<_>>();
    let mut m = raw(base);
    m.extend([
        value(
            "persistent.queue_wait_p99_ns",
            "ns",
            hist_p99(traced, "queue_wait_ns"),
        ),
        value(
            "persistent.queue_high_water",
            "count",
            traced.total.queue_high_water as f64,
        ),
        value(
            "persistent.send_blocked",
            "count",
            traced.total.send_blocked as f64,
        ),
        value(
            "persistent.send_block_p99_ns",
            "ns",
            hist_p99(traced, "send_block_ns"),
        ),
        value(
            "shard.observe_batch_p99_ns",
            "ns",
            hist_p99(traced, "observe_batch_ns"),
        ),
        value(
            "shard.forecast_p99_ns",
            "ns",
            hist_p99(traced, "forecast_ns"),
        ),
        value(
            "federation.route_observe_p99_ns",
            "ns",
            hist_p99(traced, "route_observe_ns"),
        ),
        span_stat(
            "rebalance.epoch_ms",
            "ms",
            "median",
            ms(t.durations("rebalance_epoch")),
        ),
        value("rebalance.moves", "count", traced.rebalance_moves as f64),
        value(
            "ensemble.champion_swaps",
            "count",
            traced.models.iter().map(|m| m.swaps_in).sum::<u64>() as f64,
        ),
        value(
            "ensemble.challenger_win_share",
            "ratio",
            challenger_champions as f64 / champions.max(1) as f64,
        ),
        value("wal.fsyncs", "count", counter("wal_fsyncs")),
        value(
            "wal.flush_p99_us",
            "us",
            hist_p99(traced, "wal_flush_ns") / 1e3,
        ),
        span_stat("wal.sync_ms", "ms", "median", ms(t.durations("sync_wal"))),
        value("snapshot.bytes", "B", traced.snapshot_bytes as f64),
        span_stat(
            "snapshot.checkpoint_ms",
            "ms",
            "median",
            traced.snapshot_ms.clone(),
        ),
        value(
            "recover.replayed_events",
            "count",
            traced.replayed_events as f64,
        ),
        span_stat("gen.late_p99_us", "us", "p99", traced.late_us.clone()),
        samples("advise_p50_us", "us", "p50", traced.advise_us.clone()),
        windowed(
            "advise_p99_us",
            "us",
            "p99",
            serve::PROBE_WINDOWS,
            traced.advise_us.clone(),
        ),
        value("advise.samples", "count", traced.advise_us.len() as f64),
        span_stat(
            "serve.advise_loaded_p50_us",
            "us",
            "p50",
            traced.loaded_us.clone(),
        ),
        span_stat(
            "serve.advise_loaded_p99_us",
            "us",
            "p99",
            traced.loaded_us.clone(),
        ),
        value(
            "serve.advise_loaded.samples",
            "count",
            traced.loaded_us.len() as f64,
        ),
        value(
            "trace.overhead_pct",
            "%",
            (traced.busy_ns_per_event / base.busy_ns_per_event - 1.0) * 100.0,
        ),
        value(
            "fail_ratio",
            "ratio",
            ledger.failed as f64 / ledger.attempted.max(1) as f64,
        ),
        value(
            "workload.events",
            "count",
            (inputs.warm.len() + inputs.body.len()) as f64,
        ),
        value("workload.streams", "count", inputs.streams as f64),
        value("workload.periodic_share", "ratio", traced.periodic_share),
        value("workload.mean_period", "events", traced.mean_period),
        value("workload.gen_s", "s", inputs.gen_s),
        value("rss.run_mb", "MiB", traced.rss_mb - rss_base),
    ]);
    m
}
