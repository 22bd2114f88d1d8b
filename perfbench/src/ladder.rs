//! The per-layer cost ladder: the workload's own ladder slice replayed
//! through each layer's public entry point, from the bare
//! `PeriodicityDetector` up to a federation writing its WAL. Each rung
//! is timed from outside, with fresh state, over the same events.
//!
//! Rungs below the shard hold one predictor state per stream in a
//! vector indexed by a dense stream id computed before timing; the
//! `stream_table` rung addresses the same per-stream state through a
//! `StreamTable` instead, so its delta is the table's cost.

use crate::inputs::{Inputs, ADVISE_DEPTH};
use crate::serve::{durability, federation, score, Ledger, Score};
use crate::trace::{samples, value, Metric};
use mpp_core::dpd::{DpdConfig, DpdPredictor, PeriodicityDetector};
use mpp_core::predictors::{Model, Predictor, PredictorKind};
use mpp_engine::{
    Engine, EngineConfig, EnsembleConfig, JobId, Observation, PersistentEngine, RankId, Shard,
    ShardMetrics, StreamKey, StreamKind, StreamTable,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Repetitions of the whole ladder; each rung reports its median.
const REPS: usize = 5;
/// Forecast calls timed per forecast rung.
const FORECAST_CALLS: usize = 20_000;

/// The ingest rungs, bottom first. Each delta is taken against the rung
/// below: `challengers` sits on `predictor`, the stream table on
/// whichever slot rung the workload serves with, every other rung on
/// the one before it.
const RUNGS: [&str; 9] = [
    "dpd.observe",
    "predictor.observe",
    "challengers.observe",
    "stream_table.lookup",
    "shard.observe",
    "engine.observe",
    "persistent.observe",
    "federation.observe",
    "wal.observe",
];

/// Per-stream state of the slot rungs: the DPD predictor with its
/// standing `+1` forecast, plus the challenger roster when configured.
struct Slot {
    dpd: DpdPredictor,
    pending: Option<u64>,
    challengers: Vec<(Model, Option<u64>)>,
}

impl Slot {
    fn new(cfg: &DpdConfig, roster: &[PredictorKind]) -> Slot {
        Slot {
            dpd: DpdPredictor::new(cfg.clone()),
            pending: None,
            challengers: roster
                .iter()
                .map(|&k| (Model::build(k, cfg), None))
                .collect(),
        }
    }

    /// Scores the standing forecasts against `v`, then observes it.
    /// Returns the DPD's outcome: `Some(hit)`, or `None` if it abstained.
    #[inline]
    fn observe(&mut self, v: u64) -> Option<bool> {
        let outcome = self.pending.map(|p| p == v);
        self.dpd.observe(v);
        self.pending = self.dpd.predict(1);
        for (m, pending) in &mut self.challengers {
            black_box(*pending == Some(v));
            m.observe(v);
            *pending = m.predict(1);
        }
        outcome
    }
}

/// Untimed preprocessing shared by every rung.
struct Prep<'a> {
    events: &'a [Observation],
    /// Dense stream id of each event.
    ids: Vec<u32>,
    streams: usize,
    /// Per-event stamps from the owning job's clock (the TTL path).
    job_stamps: Vec<u64>,
    /// Forecast targets present in the slice, with the dense ids of
    /// their sender and size streams.
    forecasts: Vec<(JobId, RankId, u32, u32)>,
}

impl<'a> Prep<'a> {
    fn new(inputs: &'a Inputs) -> Prep<'a> {
        let events = &inputs.ladder[..];
        let mut index: HashMap<StreamKey, u32> = HashMap::new();
        let mut clocks: HashMap<JobId, u64> = HashMap::new();
        let mut ids = Vec::with_capacity(events.len());
        let mut job_stamps = Vec::with_capacity(events.len());
        for o in events {
            let next = index.len() as u32;
            ids.push(*index.entry(o.key).or_insert(next));
            let c = clocks.entry(o.key.job).or_insert(0);
            *c += 1;
            job_stamps.push(*c);
        }
        let forecasts = inputs
            .targets
            .iter()
            .filter_map(|&(job, rank)| {
                let s = index.get(&StreamKey::for_job(job, rank, StreamKind::Sender))?;
                let z = index.get(&StreamKey::for_job(job, rank, StreamKind::Size))?;
                Some((job, rank, *s, *z))
            })
            .collect();
        Prep {
            events,
            ids,
            streams: index.len(),
            job_stamps,
            forecasts,
        }
    }
}

/// What one rung replay produced besides its time.
#[derive(Default)]
struct RungOut {
    /// Per-job rollups, for the engine-backed rungs.
    score: Option<Score>,
    /// DPD hits and misses per stream kind (slot rungs).
    kind_hits: [(u64, u64); 3],
    shard: ShardMetrics,
    /// ns per forecast call, where the rung has a forecast path.
    forecast_ns: Option<f64>,
    wal_bytes: u64,
}

fn slots(prep: &Prep, cfg: &DpdConfig, roster: &[PredictorKind], out: &mut RungOut) -> f64 {
    let mut bank: Vec<Option<Slot>> = (0..prep.streams).map(|_| None).collect();
    let t = Instant::now();
    for (o, &id) in prep.events.iter().zip(&prep.ids) {
        let slot = bank[id as usize].get_or_insert_with(|| Slot::new(cfg, roster));
        if let Some(hit) = slot.observe(o.value) {
            let k = &mut out.kind_hits[o.key.kind.index()];
            if hit {
                k.0 += 1;
            } else {
                k.1 += 1;
            }
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    if roster.is_empty() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let t = Instant::now();
        for q in 0..FORECAST_CALLS {
            let (_, _, s, z) = prep.forecasts[q % prep.forecasts.len()];
            for (id, col) in [(s, &mut a), (z, &mut b)] {
                if let Some(slot) = &bank[id as usize] {
                    slot.dpd.predict_next_into(ADVISE_DEPTH, col);
                }
            }
            black_box((&a, &b));
        }
        out.forecast_ns = Some(t.elapsed().as_nanos() as f64 / FORECAST_CALLS as f64);
    }
    black_box(&bank);
    ns
}

fn dpd(prep: &Prep, cfg: &DpdConfig) -> f64 {
    let mut bank: Vec<Option<PeriodicityDetector>> = (0..prep.streams).map(|_| None).collect();
    let t = Instant::now();
    for (o, &id) in prep.events.iter().zip(&prep.ids) {
        bank[id as usize]
            .get_or_insert_with(|| PeriodicityDetector::new(cfg.clone()))
            .observe(o.value);
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(&bank);
    ns
}

fn stream_table(prep: &Prep, cfg: &DpdConfig, roster: &[PredictorKind]) -> f64 {
    let mut table: StreamTable<Slot> = StreamTable::new();
    let t = Instant::now();
    for (i, o) in prep.events.iter().enumerate() {
        let at = i as u64 + 1;
        let id = match table.get(o.key) {
            Some(id) => id,
            None => table.insert(o.key, at, Slot::new(cfg, roster)),
        };
        black_box(table.payload_mut(id).observe(o.value));
        table.touch(id, at);
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(&table);
    ns
}

fn shard(prep: &Prep, inputs: &Inputs, out: &mut RungOut) -> f64 {
    let cfg = &inputs.cfg;
    let mut shard = Shard::with_ensemble(cfg.dpd.clone(), cfg.ttl, cfg.ensemble.clone());
    let t = Instant::now();
    let mut base = 0usize;
    for chunk in prep.events.chunks(inputs.batch) {
        if cfg.ttl.is_some() {
            shard.observe_all_stamped(chunk, &prep.job_stamps[base..base + chunk.len()]);
        } else {
            shard.observe_all_at(chunk, base as u64);
        }
        base += chunk.len();
    }
    let ns = t.elapsed().as_nanos() as f64;
    let mut fc = Vec::with_capacity(ADVISE_DEPTH);
    let t = Instant::now();
    for q in 0..FORECAST_CALLS {
        let (job, rank, _, _) = prep.forecasts[q % prep.forecasts.len()];
        let now = shard.job_now(job);
        shard.forecast_at(job, rank, ADVISE_DEPTH, now, &mut fc);
        black_box(&fc);
    }
    out.forecast_ns = Some(t.elapsed().as_nanos() as f64 / FORECAST_CALLS as f64);
    out.shard = shard.metrics();
    out.score = Some(score(&shard.job_metrics()));
    ns
}

fn engine(prep: &Prep, inputs: &Inputs, out: &mut RungOut) -> f64 {
    let mut engine = Engine::new(EngineConfig {
        shards: 1,
        ..inputs.cfg.clone()
    });
    let t = Instant::now();
    for chunk in prep.events.chunks(inputs.batch) {
        engine.observe_batch(chunk);
    }
    let ns = t.elapsed().as_nanos() as f64;
    out.score = Some(score(&engine.job_metrics()));
    ns
}

fn persistent(prep: &Prep, inputs: &Inputs, out: &mut RungOut) -> f64 {
    let engine = PersistentEngine::new(inputs.cfg.clone());
    let client = engine.client();
    let t = Instant::now();
    for chunk in prep.events.chunks(inputs.batch) {
        client.observe_batch(chunk);
    }
    client.metrics_total();
    let ns = t.elapsed().as_nanos() as f64;
    out.score = Some(score(&client.job_metrics()));
    ns
}

fn federated(prep: &Prep, inputs: &Inputs, wal: Option<&Path>, out: &mut RungOut) -> f64 {
    let mut cfg = inputs.cfg.clone();
    if let Some(dir) = wal {
        let _ = std::fs::remove_dir_all(dir);
        cfg = cfg.with_durability(durability(dir));
    }
    let fed = federation(inputs, cfg);
    let client = fed.client();
    let t = Instant::now();
    for chunk in prep.events.chunks(inputs.batch) {
        client.observe_batch(chunk);
    }
    if wal.is_some() {
        for m in 0..fed.member_count() {
            fed.member(m).sync_wal();
        }
    }
    client.metrics();
    let ns = t.elapsed().as_nanos() as f64;
    out.score = Some(score(&client.job_metrics()));
    if let Some(dir) = wal {
        out.wal_bytes = dir_bytes(dir);
    }
    ns
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

fn run_rung(rung: usize, prep: &Prep, inputs: &Inputs, wal: &Path, out: &mut RungOut) -> f64 {
    let dpd_cfg = &inputs.cfg.dpd;
    let roster = &inputs.cfg.ensemble.challengers;
    let standard = EnsembleConfig::standard().challengers;
    match RUNGS[rung] {
        "dpd.observe" => dpd(prep, dpd_cfg),
        "predictor.observe" => slots(prep, dpd_cfg, &[], out),
        "challengers.observe" => slots(prep, dpd_cfg, &standard, out),
        "stream_table.lookup" => stream_table(prep, dpd_cfg, roster),
        "shard.observe" => shard(prep, inputs, out),
        "engine.observe" => engine(prep, inputs, out),
        "persistent.observe" => persistent(prep, inputs, out),
        "federation.observe" => federated(prep, inputs, None, out),
        "wal.observe" => {
            let ns = federated(prep, inputs, Some(wal), out);
            let _ = std::fs::remove_dir_all(wal);
            ns
        }
        other => unreachable!("unknown rung {other}"),
    }
}

/// Runs the ladder [`REPS`] times, alternating the rung order, and
/// returns every rung's ns/event samples, its per-repetition delta
/// against the rung below, and the counts the rungs observed.
pub fn run(inputs: &Inputs, scratch: &Path, ledger: &mut Ledger) -> Vec<Metric> {
    let prep = Prep::new(inputs);
    let wal = scratch.join("ladder-wal");
    let n = prep.events.len() as f64;
    let mut ns: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
    let mut fc_predictor = Vec::new();
    let mut fc_shard = Vec::new();
    let mut first: Vec<RungOut> = Vec::new();
    for rep in 0..REPS {
        let order: Vec<usize> = if rep % 2 == 0 {
            (0..RUNGS.len()).collect()
        } else {
            (0..RUNGS.len()).rev().collect()
        };
        let mut outs: Vec<Option<RungOut>> = (0..RUNGS.len()).map(|_| None).collect();
        for r in order {
            let mut out = RungOut::default();
            ns[r].push(run_rung(r, &prep, inputs, &wal, &mut out) / n);
            outs[r] = Some(out);
        }
        let outs: Vec<RungOut> = outs
            .into_iter()
            .map(|o| o.expect("every rung ran"))
            .collect();
        fc_predictor.extend(outs[1].forecast_ns);
        fc_shard.extend(outs[4].forecast_ns);
        if rep == 0 {
            first = outs;
        }
    }

    // Every engine-backed rung replayed the same events under the same
    // configuration, so their rollups must agree exactly.
    let want = first[5].score.clone().unwrap_or_default();
    for r in [4, 6, 7, 8] {
        let got = first[r].score.clone().unwrap_or_default();
        ledger.check(
            "ladder_rungs_agree",
            got == want,
            format!(
                "{} vs engine.observe: {}",
                RUNGS[r],
                crate::serve::first_difference(&want, &got)
            ),
        );
    }
    let shard = first[4].shard;
    if inputs.cfg.ttl.is_none() && !inputs.cfg.ensemble.enabled() {
        let (hits, misses) = first[1]
            .kind_hits
            .iter()
            .fold((0, 0), |acc, &(h, m)| (acc.0 + h, acc.1 + m));
        ledger.check(
            "predictor_rung_matches_shard",
            (hits, misses) == (shard.hits, shard.misses),
            format!(
                "predictor {hits}/{misses} vs shard {}/{}",
                shard.hits, shard.misses
            ),
        );
    }

    let parent = |r: usize| -> Option<usize> {
        match RUNGS[r] {
            "dpd.observe" => None,
            "challengers.observe" => Some(1),
            "stream_table.lookup" if inputs.cfg.ensemble.enabled() => Some(2),
            "stream_table.lookup" => Some(1),
            _ => Some(r - 1),
        }
    };
    let delta = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x - y).collect::<Vec<f64>>();
    let mut out = Vec::new();
    for r in 0..RUNGS.len() {
        let below = parent(r).map_or_else(|| vec![0.0; REPS], |p| ns[p].clone());
        out.push(samples(
            format!("{}.delta_ns", RUNGS[r]),
            "ns",
            "median",
            delta(&ns[r], &below),
        ));
        out.push(samples(
            format!("{}_ns", RUNGS[r]),
            "ns",
            "median",
            ns[r].clone(),
        ));
    }
    out.push(samples(
        "shard.forecast.delta_ns",
        "ns",
        "median",
        delta(&fc_shard, &fc_predictor),
    ));
    out.push(samples(
        "predictor.forecast_ns",
        "ns",
        "median",
        fc_predictor,
    ));
    out.push(samples("shard.forecast_ns", "ns", "median", fc_shard));
    for k in StreamKind::ALL {
        let (h, m) = first[1].kind_hits[k.index()];
        out.push(value(
            format!("predictor.hit_rate.{}", k.label()),
            "ratio",
            h as f64 / (h + m).max(1) as f64,
        ));
    }
    out.push(value(
        "shard.abstain_ratio",
        "ratio",
        shard.abstentions as f64 / shard.events_ingested.max(1) as f64,
    ));
    out.push(value(
        "shard.period_churn",
        "count",
        shard.period_churn as f64,
    ));
    out.push(value("shard.evicted", "count", shard.evicted as f64));
    out.push(value(
        "shard.resident_streams",
        "count",
        shard.resident_streams as f64,
    ));
    out.push(value(
        "wal.bytes_per_event",
        "B",
        first[8].wal_bytes as f64 / n,
    ));
    out.push(value("ladder.events", "count", n));
    out
}
