//! The serving runs: set-up, the timed window (closed or open loop),
//! advise probes, snapshot/WAL recovery, and the correctness gate that
//! replays the same events through the scoped single-shard `Engine`.

use crate::gauge::{Gauge, Readings};
use crate::inputs::{
    Inputs, Workload, ADVISE_DEPTH, QUERIES_PER_BATCH, REBALANCE_EVERY, TENANT_RATE,
};
use crate::pin::pin_workers;
use crate::trace::{Tracer, ROOT};
use mpp_engine::oplog::snapshot_files;
use mpp_engine::{
    merge_job_rollups, DurabilityConfig, Engine, EngineClient, EngineConfig, FederatedClient,
    FederatedEngine, FederationConfig, FlushPolicy, JobId, JobMetrics, ModelStats, Observation,
    ObserveOutcome, PersistentEngine, RankId, RebalanceConfig, ShardMetrics, TelemetryConfig,
    TelemetrySnapshot,
};
use mpp_experiments::replay::{trace_to_events, REPLAY_BATCH};
use mpp_experiments::DEFAULT_SEED;
use mpp_nasbench::{run_config, BenchId, BenchmarkConfig, Class};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Closed loops: batches submitted between barriers, so at most this
/// many are in flight.
const IN_FLIGHT: usize = 4;
/// Closed loops: sub-windows of the window; `ingest_eps` is the median
/// of their rates, so a burst of host noise moves it less.
const INGEST_WINDOWS: u32 = 40;
/// Advise queries probed, closed loop, after the window, and the equal
/// runs they split into for the tail percentile (each run keeps ten
/// samples beyond its p99).
const PROBE_QUERIES: usize = 20_000;
pub const PROBE_WINDOWS: usize = 20;
/// `durable_ensemble`: a checkpoint every this many batches.
const CHECKPOINT_EVERY: usize = 64;
/// Events fed after the saved state, which every recovery replays: from
/// the WAL on `durable_ensemble`, from the client elsewhere.
const TAIL_EVENTS: usize = 1 << 17;
/// `durable_ensemble`: fsync cadence of the observation log, in frames.
const WAL_EVERY_N: u64 = 16;
/// Closed loops: the gauge is read at the first barrier after this much
/// time has passed since its last reading.
const READ_EVERY: Duration = Duration::from_millis(20);

/// The scoring part of a job rollup, which must match the reference
/// bit for bit: events, hits, misses, abstentions, period churn.
pub type Score = Vec<(JobId, [u64; 5])>;

pub fn score(jobs: &[(JobId, JobMetrics)]) -> Score {
    jobs.iter()
        .map(|(j, m)| {
            (
                *j,
                [
                    m.events_ingested,
                    m.hits,
                    m.misses,
                    m.abstentions,
                    m.period_churn,
                ],
            )
        })
        .collect()
}

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Operations attempted and failed, plus the named checks.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
}

impl Ledger {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    fn observed(&mut self, n: usize, res: Result<ObserveOutcome, String>) {
        self.attempted += n as u64;
        match res {
            Ok(o) if o.shed > 0 => {
                self.failed += o.shed;
                self.check("no_event_shed", false, format!("{} events shed", o.shed));
            }
            Ok(_) => {}
            Err(e) => {
                self.failed += n as u64;
                self.check("engine_calls", false, e);
            }
        }
    }

    fn op(&mut self, ok: bool, what: &'static str, detail: impl Into<String>) {
        if ok {
            self.attempted += 1;
        } else {
            self.check(what, false, detail);
        }
    }
}

/// The engine a workload is served by.
pub enum Server {
    Fed(FederatedEngine, FederatedClient),
    Durable(PersistentEngine, EngineClient),
}

pub fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir).with_flush(FlushPolicy::EveryN(WAL_EVERY_N))
}

/// The serving configuration of `inputs`, telemetry on or off.
pub fn serving_config(inputs: &Inputs, telemetry: bool) -> EngineConfig {
    if telemetry {
        inputs
            .cfg
            .clone()
            .with_telemetry(TelemetryConfig::enabled())
    } else {
        inputs.cfg.clone()
    }
}

pub fn federation(inputs: &Inputs, member: EngineConfig) -> FederatedEngine {
    FederatedEngine::new(FederationConfig {
        members: inputs.members,
        member,
        adaptive: None,
        rebalance: (inputs.members > 1).then(RebalanceConfig::default),
    })
}

impl Server {
    fn start(inputs: &Inputs, telemetry: bool, wal: &Path) -> Server {
        let cfg = serving_config(inputs, telemetry);
        let server = if inputs.workload == Workload::DurableEnsemble {
            let _ = std::fs::remove_dir_all(wal);
            let engine = PersistentEngine::new(cfg.with_durability(durability(wal)));
            let client = engine.client();
            Server::Durable(engine, client)
        } else {
            let fed = federation(inputs, cfg);
            let client = fed.client();
            Server::Fed(fed, client)
        };
        // A round trip first: a worker names itself once it runs.
        server.barrier();
        pin_workers();
        server
    }

    fn observe(&self, chunk: &[Observation]) -> Result<ObserveOutcome, String> {
        match self {
            Server::Fed(_, c) => c.try_observe_batch(chunk).map_err(|e| e.to_string()),
            Server::Durable(_, c) => c.try_observe_batch(chunk).map_err(|e| e.to_string()),
        }
    }

    /// A round trip through every shard: everything submitted before
    /// it has been ingested when it returns.
    fn barrier(&self) -> ShardMetrics {
        match self {
            Server::Fed(_, c) => c.metrics().total(),
            Server::Durable(_, c) => c.metrics_total(),
        }
    }

    /// The call `EngineHandle::advise` makes.
    fn forecast(&self, job: JobId, rank: RankId, out: &mut Vec<(Option<u64>, Option<u64>)>) {
        match self {
            Server::Fed(_, c) => c.forecast_messages_for_job(job, rank, ADVISE_DEPTH, out),
            Server::Durable(_, c) => c.forecast_messages_for_job(job, rank, ADVISE_DEPTH, out),
        }
    }

    fn job_metrics(&self) -> Vec<(JobId, JobMetrics)> {
        match self {
            Server::Fed(_, c) => c.job_metrics(),
            Server::Durable(_, c) => c.job_metrics(),
        }
    }

    fn model_stats(&self) -> Vec<ModelStats> {
        match self {
            Server::Fed(_, c) => c.model_stats(),
            Server::Durable(_, c) => c.model_stats(),
        }
    }

    fn stream_count(&self) -> usize {
        match self {
            Server::Fed(_, c) => c.stream_count(),
            Server::Durable(_, c) => c.stream_count(),
        }
    }

    fn telemetry(&self) -> Option<TelemetrySnapshot> {
        match self {
            Server::Fed(_, c) => c.telemetry(),
            Server::Durable(_, c) => c.telemetry(),
        }
    }
}

/// Everything one serving run measured.
pub struct RunResult {
    pub setup_s: Vec<f64>,
    /// Closed-loop ingest rate of each sub-window, events per second.
    pub ingest_eps: Vec<f64>,
    /// Closed-loop advise probe after the window, µs per query.
    pub advise_us: Vec<f64>,
    /// Open loop only: advise latency under load, from each batch's
    /// due time, µs.
    pub loaded_us: Vec<f64>,
    pub late_us: Vec<f64>,
    pub hit_rate: f64,
    pub recover_s: Vec<f64>,
    /// Every reading of the host-speed gauge, taken through the closed
    /// loop, which the set-ups and recoveries are interleaved with (see
    /// `gauge`).
    pub speed: Vec<f64>,
    pub rss_mb: f64,
    pub snapshot_bytes: u64,
    pub snapshot_ms: Vec<f64>,
    pub replayed_events: u64,
    pub rebalance_moves: u64,
    pub total: ShardMetrics,
    pub models: Vec<ModelStats>,
    pub telemetry: Option<TelemetrySnapshot>,
    pub tracer: Tracer,
    /// Engine-call wall time per event ingested in the window.
    pub busy_ns_per_event: f64,
    pub periodic_share: f64,
    pub mean_period: f64,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

impl RunResult {
    /// The host's mean speed over the run, relative to the reference
    /// host.
    pub fn host_speed(&self) -> f64 {
        self.speed.iter().sum::<f64>() / self.speed.len().max(1) as f64
    }
}

/// Serves `inputs` once: set-up, the timed window with the recoveries
/// interleaved in it, then the probes, then the reference replay.
pub fn run(
    inputs: &Inputs,
    window: Duration,
    traced: bool,
    scratch: &Path,
    mismatch: bool,
    ledger: &mut Ledger,
) -> RunResult {
    let mut tracer = Tracer::new(traced);
    let gauge = Gauge::new();
    let mut readings = Readings::default();
    let wal = scratch.join("wal");
    let (server, first) = set_up(inputs, traced, &wal, 0, &mut tracer, ledger);
    let mut setup_s = vec![first];
    let resident = server.stream_count();
    ledger.check(
        "setup_makes_every_stream_resident",
        resident == inputs.streams,
        format!("{resident} of {} streams resident", inputs.streams),
    );
    let recovery = Recovery::prepare(&server, inputs, traced, scratch, &wal, &mut tracer, ledger);
    let busy0 = tracer.busy_ns;

    let fed = match &server {
        Server::Fed(fed, _) if inputs.workload == Workload::TenantServe => Some(fed),
        _ => None,
    };
    // tenant_serve spends the first half of the window in the open loop
    // and measures its capacity on the same mix in the second half.
    let mut open = Pass::default();
    let mut fed_batches = recovery.tail;
    let mut closed_window = window;
    if let Some(fed) = fed {
        open = open_loop(&server, fed, inputs, fed_batches, &mut tracer, ledger);
        fed_batches = open.batches;
        closed_window = window / 2;
    }
    // Between sub-windows: a set-up of a spare engine, dropped at once,
    // and a recovery (see `Recovery`).
    let every = recover_every(inputs.workload);
    let spare_wal = scratch.join("spare-wal");
    let (mut recover_s, mut replayed_events) = (Vec::new(), 0);
    let mut between = |k: usize, tracer: &mut Tracer, ledger: &mut Ledger| {
        let (spare, t) = set_up(inputs, traced, &spare_wal, k, tracer, ledger);
        drop(spare);
        setup_s.push(t);
        if k.is_multiple_of(every) {
            if let Some((t, replayed)) = recovery.rep(inputs, k, tracer, ledger) {
                recover_s.push(t);
                replayed_events = replayed;
            }
        }
    };
    let closed = closed_loop(
        &server,
        fed,
        inputs,
        fed_batches,
        closed_window,
        &gauge,
        &mut readings,
        &mut between,
        &mut tracer,
        ledger,
    );
    fed_batches = closed.batches;
    let window_events = open.events + closed.events;
    let busy_ns_per_event = (tracer.busy_ns - busy0) as f64 / window_events.max(1) as f64;
    let rss_mb = peak_rss_mb();
    let advise_us = probe(&server, inputs, &mut tracer, ledger);
    let telemetry = server.telemetry();
    let total = server.barrier();
    let models = server.model_stats();
    let live = score(&server.job_metrics());
    drop(server);
    recovery.remove();
    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&spare_wal);
    if let Some(t) = &telemetry {
        let io_errors = t.counter("wal_io_errors").unwrap_or(0);
        ledger.op(
            io_errors == 0,
            "wal_io_errors",
            format!("{io_errors} log I/O errors"),
        );
    }

    let (reference, periodic_share, mean_period) = reference(inputs, fed_batches, mismatch);
    ledger.check(
        "rollups_match_scoped_single_shard_reference",
        live == reference,
        first_difference(&live, &reference),
    );
    let mut snapshot_ms: Vec<f64> = tracer
        .durations("checkpoint")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    snapshot_ms.extend(recovery.snapshot_ms);
    RunResult {
        setup_s,
        ingest_eps: closed.rates,
        advise_us,
        loaded_us: open.advise_us,
        late_us: open.late_us,
        hit_rate: total.hit_rate().unwrap_or(0.0),
        recover_s,
        speed: readings.all,
        rss_mb,
        snapshot_bytes: recovery.snapshot_bytes,
        snapshot_ms,
        replayed_events,
        rebalance_moves: open.moves + closed.moves,
        total,
        models,
        telemetry,
        tracer,
        busy_ns_per_event,
        periodic_share,
        mean_period,
    }
}

/// Set-up `rep`, timed: a fresh engine serving the workload, warmed
/// until every stream is resident.
fn set_up(
    inputs: &Inputs,
    traced: bool,
    wal: &Path,
    rep: usize,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> (Server, f64) {
    let g = tracer.begin("setup", rep as u64, ROOT);
    let t = Instant::now();
    let s = Server::start(inputs, traced, wal);
    for chunk in inputs.warm.chunks(inputs.batch) {
        ledger.observed(chunk.len(), s.observe(chunk));
    }
    s.barrier();
    let took = secs(t.elapsed());
    tracer.end(g);
    (s, took)
}

/// Sub-windows of the closed loop per timed recovery: one after every
/// sub-window on the NAS workloads, whose recovery takes a fifth of a
/// second; one after every second on `tenant_serve`, whose 22 000
/// streams take half a second to restore.
fn recover_every(workload: Workload) -> usize {
    match workload {
        Workload::TenantServe => 2,
        _ => 1,
    }
}

/// What every timed recovery rebuilds the engine from, prepared once,
/// untimed, after set-up: the engine's state then and the first
/// [`TAIL_EVENTS`] of the body fed after it. The recoveries, like the
/// set-ups, are spread over the window, between its sub-windows, so
/// that they sample the same slow and fast phases of the shared host as
/// `ingest_eps`; run back to back, they all fell in one phase, and
/// `recover_s` and `setup_s` moved between runs by a third or more.
struct Recovery {
    source: Source,
    /// Body chunks `0..tail` were fed after the state was saved.
    tail: usize,
    /// The live engine's rollups after the tail, which every recovered
    /// engine must reproduce.
    live: Score,
    models: Vec<ModelStats>,
    cfg: EngineConfig,
    snapshot_bytes: u64,
    snapshot_ms: Option<f64>,
}

enum Source {
    /// In-memory serving: each member's snapshot, and the member that
    /// owned each job, which the tail's events are routed to.
    Snapshots {
        snaps: Vec<Vec<u8>>,
        owner: HashMap<JobId, usize>,
    },
    /// `durable_ensemble`: a copy of the log directory (checkpoint plus
    /// logged tail), copied afresh, untimed, before each recovery,
    /// which then runs `PersistentEngine::recover` on it.
    Directory { pristine: PathBuf, work: PathBuf },
}

impl Recovery {
    fn prepare(
        server: &Server,
        inputs: &Inputs,
        traced: bool,
        scratch: &Path,
        wal: &Path,
        tracer: &mut Tracer,
        ledger: &mut Ledger,
    ) -> Recovery {
        let tail = TAIL_EVENTS.div_ceil(inputs.batch);
        let feed_tail = |ledger: &mut Ledger| {
            for i in 0..tail {
                let chunk = inputs.body_chunk(i);
                ledger.observed(chunk.len(), server.observe(chunk));
            }
        };
        let cfg = serving_config(inputs, traced);
        match server {
            Server::Fed(fed, client) => {
                let t = Instant::now();
                let snaps: Vec<Vec<u8>> = (0..fed.member_count())
                    .map(|m| {
                        tracer.call("snapshot", m as u64, ROOT, || {
                            fed.member(m).client().snapshot()
                        })
                    })
                    .collect();
                let snapshot_ms = Some(secs(t.elapsed()) * 1e3);
                let snapshot_bytes = snaps.iter().map(|b| b.len() as u64).sum();
                feed_tail(ledger);
                let live = client.job_metrics();
                let owner = live.iter().map(|&(j, _)| (j, fed.member_of(j))).collect();
                Recovery {
                    source: Source::Snapshots { snaps, owner },
                    tail,
                    live: score(&live),
                    models: client.model_stats(),
                    cfg,
                    snapshot_bytes,
                    snapshot_ms,
                }
            }
            Server::Durable(engine, client) => {
                let cp = tracer.call("checkpoint", 0, ROOT, || client.checkpoint());
                ledger.op(matches!(cp, Ok(Some(_))), "checkpoint", format!("{cp:?}"));
                feed_tail(ledger);
                let ok = tracer.call("sync_wal", 0, ROOT, || engine.sync_wal());
                ledger.op(ok, "sync_wal", "sync_wal reported failure");
                let pristine = scratch.join("recover-from");
                let copied = copy_files(wal, &pristine);
                ledger.op(copied.is_ok(), "copy_log", format!("{copied:?}"));
                let snapshot_bytes = snapshot_files(&pristine)
                    .ok()
                    .and_then(|f| f.last().and_then(|(_, p)| std::fs::metadata(p).ok()))
                    .map_or(0, |m| m.len());
                Recovery {
                    source: Source::Directory {
                        pristine,
                        work: scratch.join("recover"),
                    },
                    tail,
                    live: score(&client.job_metrics()),
                    models: client.model_stats(),
                    cfg,
                    snapshot_bytes,
                    snapshot_ms: None,
                }
            }
        }
    }

    /// One timed recovery: its seconds and, on `durable_ensemble`, the
    /// events it replayed from the log; `None` if it failed.
    fn rep(
        &self,
        inputs: &Inputs,
        rep: usize,
        tracer: &mut Tracer,
        ledger: &mut Ledger,
    ) -> Option<(f64, u64)> {
        match &self.source {
            Source::Snapshots { snaps, owner } => {
                let mut legs: Vec<Vec<Observation>> =
                    vec![Vec::with_capacity(inputs.batch); snaps.len()];
                let g = tracer.begin("recover", rep as u64, ROOT);
                let t = Instant::now();
                let restored: Result<Vec<PersistentEngine>, _> = snaps
                    .iter()
                    .map(|b| PersistentEngine::restore(self.cfg.clone(), b))
                    .collect();
                let engines = match restored {
                    Ok(e) => e,
                    Err(e) => {
                        tracer.end(g);
                        ledger.check("restore", false, e.to_string());
                        return None;
                    }
                };
                let clients: Vec<EngineClient> = engines.iter().map(|e| e.client()).collect();
                for c in &clients {
                    c.metrics_total();
                }
                pin_workers();
                for i in 0..self.tail {
                    for o in inputs.body_chunk(i) {
                        legs[owner.get(&o.key.job).copied().unwrap_or(0)].push(*o);
                    }
                    for (c, leg) in clients.iter().zip(&mut legs) {
                        c.observe_batch(leg);
                        leg.clear();
                    }
                }
                for c in &clients {
                    c.metrics_total();
                }
                let took = secs(t.elapsed());
                tracer.end(g);
                let rollups = score(&merge_job_rollups(
                    clients.iter().map(|c| c.job_metrics()).collect(),
                ));
                ledger.check(
                    "restored_rollups_match_live",
                    rollups == self.live,
                    first_difference(&self.live, &rollups),
                );
                Some((took, 0))
            }
            Source::Directory { pristine, work } => {
                let _ = std::fs::remove_dir_all(work);
                if let Err(e) = copy_files(pristine, work) {
                    ledger.check("copy_log", false, e.to_string());
                    return None;
                }
                let cfg = self.cfg.clone().with_durability(durability(work));
                let g = tracer.begin("recover", rep as u64, ROOT);
                let t = Instant::now();
                match PersistentEngine::recover(cfg) {
                    Ok((engine, report)) => {
                        let client = engine.client();
                        client.metrics_total();
                        let took = secs(t.elapsed());
                        tracer.end(g);
                        let rollups = score(&client.job_metrics());
                        ledger.check(
                            "recovered_rollups_match_uninterrupted_run",
                            rollups == self.live && client.model_stats() == self.models,
                            first_difference(&self.live, &rollups),
                        );
                        Some((took, report.wal_events))
                    }
                    Err(e) => {
                        tracer.end(g);
                        ledger.check("recover", false, e.to_string());
                        None
                    }
                }
            }
        }
    }

    /// Removes the log copies.
    fn remove(&self) {
        if let Source::Directory { pristine, work } = &self.source {
            let _ = std::fs::remove_dir_all(pristine);
            let _ = std::fs::remove_dir_all(work);
        }
    }
}

/// Copies the regular files of directory `from` into a new directory
/// `to`.
fn copy_files(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// What one pass of the open or closed loop fed and measured.
#[derive(Default)]
struct Pass {
    /// Index of the next body chunk: the chunks before it were fed.
    batches: usize,
    events: u64,
    /// Closed loop: ingest rate of each sub-window, events per second.
    rates: Vec<f64>,
    /// `tenant_serve`: advise latency from each batch's due time (open
    /// loop) or send (closed loop), µs. Only the open loop's are kept.
    advise_us: Vec<f64>,
    /// Open loop: generator lateness per batch, µs.
    late_us: Vec<f64>,
    moves: u64,
}

/// `tenant_serve`'s mix around one delivered batch: advise queries for
/// ranks the batch touched, each timed from `since`, and a rebalance
/// epoch every [`REBALANCE_EVERY`] batches.
#[allow(clippy::too_many_arguments)]
fn serve_mix(
    server: &Server,
    fed: &FederatedEngine,
    chunk: &[Observation],
    i: usize,
    since: Instant,
    out: &mut Vec<(Option<u64>, Option<u64>)>,
    pass: &mut Pass,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    parent: u32,
) {
    for q in 0..QUERIES_PER_BATCH {
        let key = chunk[q * chunk.len() / QUERIES_PER_BATCH / 3 * 3].key;
        tracer.call("advise", i as u64, parent, || {
            server.forecast(key.job, key.rank, out)
        });
        pass.advise_us.push(secs(Instant::now() - since) * 1e6);
        ledger.op(
            out.len() == ADVISE_DEPTH,
            "advise_depth",
            format!("{} forecasts", out.len()),
        );
    }
    if (i + 1).is_multiple_of(REBALANCE_EVERY) {
        let rep = tracer.call("rebalance_epoch", i as u64, ROOT, || fed.rebalance_epoch());
        pass.moves += rep.moved as u64;
        ledger.attempted += rep.moved as u64;
        for _ in 0..rep.skipped {
            ledger.check(
                "rebalance_moves",
                false,
                "planned move skipped on a typed error",
            );
        }
    }
}

/// Closed loop: whole batches from body chunk `start` on, a barrier
/// every [`IN_FLIGHT`] batches, until `window` has passed. Given `fed`
/// (`tenant_serve`), every batch is followed by the open loop's mix of
/// advise queries and rebalance epochs, so the rate is the capacity of
/// that mix; otherwise the loop only writes. The rate is taken over
/// each of [`INGEST_WINDOWS`] sub-windows. The gauge is read at the
/// first barrier after every [`READ_EVERY`]; the time its readings take
/// is left out of the sub-windows'. `between(k, ..)` runs, untimed,
/// after the `k`-th sub-window but the last.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    server: &Server,
    fed: Option<&FederatedEngine>,
    inputs: &Inputs,
    start: usize,
    window: Duration,
    gauge: &Gauge,
    readings: &mut Readings,
    between: &mut dyn FnMut(usize, &mut Tracer, &mut Ledger),
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Pass {
    let mut pass = Pass {
        batches: start,
        ..Pass::default()
    };
    let mut out = Vec::with_capacity(ADVISE_DEPTH);
    let sub = window / INGEST_WINDOWS;
    let mut spent_before = readings.spent;
    let mut last_read = Instant::now();
    let (mut sub_t, mut sub_events) = (last_read, 0u64);
    loop {
        let i = pass.batches;
        let chunk = inputs.body_chunk(i);
        let sent = Instant::now();
        let res = tracer.call("observe_batch", i as u64, ROOT, || server.observe(chunk));
        ledger.observed(chunk.len(), res);
        if let Some(fed) = fed {
            serve_mix(
                server, fed, chunk, i, sent, &mut out, &mut pass, tracer, ledger, ROOT,
            );
        }
        pass.events += chunk.len() as u64;
        pass.batches += 1;
        if let (true, Server::Durable(_, client)) =
            (pass.batches.is_multiple_of(CHECKPOINT_EVERY), server)
        {
            let cp = tracer.call("checkpoint", i as u64, ROOT, || client.checkpoint());
            ledger.op(matches!(cp, Ok(Some(_))), "checkpoint", format!("{cp:?}"));
        }
        if pass.batches.is_multiple_of(IN_FLIGHT) {
            tracer.call("barrier", i as u64, ROOT, || server.barrier());
            if last_read.elapsed() >= READ_EVERY {
                readings.take(gauge);
                last_read = Instant::now();
            }
            let busy = sub_t.elapsed() - (readings.spent - spent_before);
            if busy >= sub {
                pass.rates
                    .push((pass.events - sub_events) as f64 / secs(busy));
                if pass.rates.len() == INGEST_WINDOWS as usize {
                    break;
                }
                between(pass.rates.len(), tracer, ledger);
                spent_before = readings.spent;
                (sub_t, sub_events) = (Instant::now(), pass.events);
            }
        }
    }
    if let Server::Durable(engine, _) = server {
        let ok = tracer.call("sync_wal", pass.batches as u64, ROOT, || engine.sync_wal());
        ledger.op(ok, "sync_wal", "sync_wal reported failure");
    }
    tracer.call("barrier", pass.batches as u64, ROOT, || server.barrier());
    pass
}

/// Sleeps, then spins for the last few hundred microseconds, until
/// `due`. Spinning longer would take a core from the two workers.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop at [`TENANT_RATE`], once through the body from chunk
/// `start` on: one delivery batch per interval, then the mix of
/// [`serve_mix`], each advise query timed from the batch's due time.
fn open_loop(
    server: &Server,
    fed: &FederatedEngine,
    inputs: &Inputs,
    start: usize,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Pass {
    let interval = inputs.batch as f64 / TENANT_RATE;
    let n = inputs.body.len().div_ceil(inputs.batch);
    let mut pass = Pass {
        batches: start + n,
        events: inputs.body.len() as u64,
        advise_us: Vec::with_capacity(n * QUERIES_PER_BATCH),
        late_us: Vec::with_capacity(n),
        ..Pass::default()
    };
    let mut out = Vec::with_capacity(ADVISE_DEPTH);
    let t0 = Instant::now();
    for k in 0..n {
        let i = start + k;
        let due = t0 + Duration::from_secs_f64(k as f64 * interval);
        wait_until(due);
        pass.late_us.push(secs(Instant::now() - due) * 1e6);
        let g = tracer.begin("deliver", i as u64, ROOT);
        let chunk = inputs.body_chunk(i);
        let res = tracer.call("observe_batch", i as u64, g, || server.observe(chunk));
        ledger.observed(chunk.len(), res);
        serve_mix(
            server, fed, chunk, i, due, &mut out, &mut pass, tracer, ledger, g,
        );
        tracer.end(g);
    }
    tracer.call("barrier", pass.batches as u64, ROOT, || server.barrier());
    pass
}

/// Closed-loop advise probe after the window: forecasts for every
/// target rank in turn, each timed from its send.
fn probe(server: &Server, inputs: &Inputs, tracer: &mut Tracer, ledger: &mut Ledger) -> Vec<f64> {
    let mut out = Vec::with_capacity(ADVISE_DEPTH);
    (0..PROBE_QUERIES)
        .map(|q| {
            let (job, rank) = inputs.targets[q % inputs.targets.len()];
            let t = Instant::now();
            tracer.call("advise", q as u64, ROOT, || {
                server.forecast(job, rank, &mut out)
            });
            let us = secs(t.elapsed()) * 1e6;
            ledger.op(
                out.len() == ADVISE_DEPTH,
                "advise_depth",
                format!("{} forecasts", out.len()),
            );
            us
        })
        .collect()
}

/// The golden class-A pins: cold replays of cg.8 and bt.9 at the pins'
/// own seed, through the default serving path, must hit the pinned
/// rates within ±0.1 pt.
pub fn golden_pins(ledger: &mut Ledger) {
    const PINS: [(BenchId, usize, f64); 2] = [(BenchId::Cg, 8, 0.9982), (BenchId::Bt, 9, 0.9995)];
    for (id, procs, want) in PINS {
        let cfg = BenchmarkConfig::new(id, procs, Class::A);
        let events = trace_to_events(&run_config(&cfg, DEFAULT_SEED));
        let fed = FederatedEngine::new(FederationConfig::new(1, 1));
        let client = fed.client();
        for chunk in events.chunks(REPLAY_BATCH) {
            client.observe_batch(chunk);
        }
        let got = client.metrics().total().hit_rate().unwrap_or(0.0);
        ledger.check(
            "golden_class_a_hit_rate",
            (got - want).abs() <= 0.001,
            format!(
                "{} hit rate {got:.4}, pinned {want:.4} ±0.0010",
                cfg.label()
            ),
        );
    }
}

/// Replays exactly the events the run fed — the set-up events, then
/// `fed_batches` body batches — through the scoped single-shard
/// `Engine`. With `mismatch`, the reference deliberately drops one
/// event, which the gate must catch. Also returns the share of events
/// in streams with a detected period and their event-weighted mean
/// period.
pub fn reference(inputs: &Inputs, fed_batches: usize, mismatch: bool) -> (Score, f64, f64) {
    let mut engine = Engine::new(EngineConfig {
        shards: 1,
        ..inputs.cfg.clone()
    });
    let skip = usize::from(mismatch);
    for chunk in inputs.warm[skip..].chunks(inputs.batch) {
        engine.observe_batch(chunk);
    }
    for i in 0..fed_batches {
        engine.observe_batch(inputs.body_chunk(i));
    }
    let (mut periodic, mut total, mut period_sum) = (0u64, 0u64, 0.0);
    for (key, n) in inputs.stream_events() {
        total += n;
        if let Some(p) = engine.period_of(key) {
            periodic += n;
            period_sum += p as f64 * n as f64;
        }
    }
    (
        score(&engine.job_metrics()),
        periodic as f64 / total.max(1) as f64,
        period_sum / periodic.max(1) as f64,
    )
}

pub fn first_difference(want: &Score, got: &Score) -> String {
    if want.len() != got.len() {
        return format!("{} jobs vs {} jobs", want.len(), got.len());
    }
    want.iter().zip(got).find(|(a, b)| a != b).map_or_else(
        || format!("{} jobs identical", want.len()),
        |(a, b)| {
            format!(
                "job {} [events, hits, misses, abstentions, churn] {:?} vs {:?}",
                a.0, a.1, b.1
            )
        },
    )
}

/// A size field of `/proc/self/status` (`VmHWM`, `VmRSS`), in MiB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))
                .and_then(|l| {
                    l.split_whitespace()
                        .nth(1)
                        .and_then(|v| v.parse::<f64>().ok())
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Returns free heap pages to the kernel, resets the kernel's peak-RSS
/// mark and returns the resident set at that point, in MiB: the
/// program and the generated inputs, which `rss_mb` includes and
/// `rss.run_mb` leaves out.
pub fn reset_peak_rss() -> f64 {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim only returns free heap pages to the
    // kernel; it takes no pointers.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    status_mb("VmRSS")
}
