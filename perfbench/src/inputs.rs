//! Workload generation. Everything here runs before any timing starts
//! and is a pure function of the workload seed: the engine only ever
//! sees the `Observation`s and forecast targets built here.

use mpp_core::dpd::DpdConfig;
use mpp_engine::{EngineConfig, EnsembleConfig, JobId, Observation, RankId, StreamKey, StreamKind};
use mpp_experiments::replay::{trace_to_events, REPLAY_BATCH};
use mpp_mpisim::det;
use mpp_nasbench::synthetic;
use mpp_nasbench::{run_config, BenchId, BenchmarkConfig, Class};
use std::collections::HashMap;
use std::time::Instant;

/// The NAS configurations `nas_replay` and `durable_ensemble` replay,
/// one job each (job id = position). sweep3d.8 B is the hard one: its
/// hit rate sits near 93 %.
const NAS_CONFIGS: [(BenchId, usize, Class); 4] = [
    (BenchId::Cg, 8, Class::B),
    (BenchId::Lu, 8, Class::A),
    (BenchId::Bt, 9, Class::A),
    (BenchId::Sweep3d, 8, Class::B),
];

/// `nas_replay`, `durable_ensemble`: set-up batches per job.
const WARM_BATCHES: usize = 4;
// The tenant mix below is an assumption, not a measured production
// trace: no source in the repository fixes tenant counts, family
// shares, skew or TTL. Its sizes were chosen so that the streams'
// state exceeds the last-level cache and the TTL expires cold streams;
// the family shares and Zipf exponents are conventional choices.

/// `tenant_serve`: tenants in the mix.
const TENANT_JOBS: u32 = 768;
/// `tenant_serve`: offered load of the open loop, events per second.
/// Fixed, so the open loop measures latency at one committed rate:
/// about a third of the capacity that the closed-loop half of a run measures
/// on the same mix (README.md records the measurement).
pub const TENANT_RATE: f64 = 200_000.0;
/// `tenant_serve`: events per delivery batch (128 deliveries of three
/// stream elements each).
const TENANT_BATCH: usize = 384;
/// `tenant_serve`: idle-stream TTL, in events of the owning job.
const TENANT_TTL: u64 = 512;
/// `tenant_serve`: forecast queries issued after each delivery batch.
pub const QUERIES_PER_BATCH: usize = 2;
/// `tenant_serve`: a rebalance epoch closes every this many batches.
pub const REBALANCE_EVERY: usize = 256;
/// Forecast depth of every advise query (messages ahead).
pub const ADVISE_DEPTH: usize = 8;
/// `tenant_serve`: advise targets sampled from the schedule.
const PROBE_TARGETS: usize = 4096;
/// Events per job taken into the layer ladder's input slice.
const LADDER_PER_JOB: usize = 1 << 16;
/// Events in the layer ladder's input slice for `tenant_serve`.
const LADDER_TENANT: usize = 1 << 18;

/// Which workload a run serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NasReplay,
    TenantServe,
    DurableEnsemble,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "nas_replay" => Some(Workload::NasReplay),
            "tenant_serve" => Some(Workload::TenantServe),
            "durable_ensemble" => Some(Workload::DurableEnsemble),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::NasReplay => "nas_replay",
            Workload::TenantServe => "tenant_serve",
            Workload::DurableEnsemble => "durable_ensemble",
        }
    }
}

/// One workload's generated inputs and its serving configuration.
pub struct Inputs {
    pub workload: Workload,
    /// Per-member engine configuration (1 shard each).
    pub cfg: EngineConfig,
    /// Federation members serving the workload.
    pub members: usize,
    /// Set-up events: after them every stream of the workload is
    /// resident.
    pub warm: Vec<Observation>,
    /// The timed body, fed in `batch`-sized chunks. Closed loops cycle
    /// through it; the open loop plays it once, on its schedule.
    pub body: Vec<Observation>,
    pub batch: usize,
    /// Forecast targets, `(job, rank)`.
    pub targets: Vec<(JobId, RankId)>,
    /// Distinct stream keys in `warm` and `body`.
    pub streams: usize,
    /// Input slice the layer ladder replays through every rung.
    pub ladder: Vec<Observation>,
    /// Seconds spent generating the inputs (not part of `setup_s`).
    pub gen_s: f64,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, window_s: f64) -> Inputs {
        let t0 = Instant::now();
        let mut inputs = match workload {
            Workload::NasReplay => nas(workload, seed, EnsembleConfig::default()),
            Workload::DurableEnsemble => nas(workload, seed, EnsembleConfig::standard()),
            Workload::TenantServe => tenant(seed, window_s),
        };
        inputs.gen_s = t0.elapsed().as_secs_f64();
        inputs
    }

    /// Chunk `i` of the body, cycling.
    pub fn body_chunk(&self, i: usize) -> &[Observation] {
        let chunks = self.body.len().div_ceil(self.batch);
        let c = i % chunks;
        &self.body[c * self.batch..((c + 1) * self.batch).min(self.body.len())]
    }

    /// Per-stream event counts over `warm` and one pass of `body`.
    pub fn stream_events(&self) -> HashMap<StreamKey, u64> {
        let mut out = HashMap::new();
        for o in self.warm.iter().chain(&self.body) {
            *out.entry(o.key).or_insert(0) += 1;
        }
        out
    }
}

/// The four NAS traces, one job each, served side by side: the body
/// spreads each job's batches evenly over its length, so every stretch
/// of it holds the same mix of jobs and a sub-window's rate does not
/// depend on how far into the body it falls.
fn nas(workload: Workload, seed: u64, ensemble: EnsembleConfig) -> Inputs {
    let mut warm = Vec::new();
    let mut jobs = Vec::new();
    let mut ladder = Vec::new();
    let mut targets = Vec::new();
    let mut streams = 0;
    for (job, &(id, procs, class)) in NAS_CONFIGS.iter().enumerate() {
        let trace = run_config(&BenchmarkConfig::new(id, procs, class), seed);
        let events = rekey(&trace_to_events(&trace), job as JobId);
        // Ranks interleave round-robin, so the first batch makes every
        // stream of the job resident and lets most of them lock; the
        // set-up feeds a few, so that it times more than a thread spawn.
        warm.extend_from_slice(&events[..events.len().min(WARM_BATCHES * REPLAY_BATCH)]);
        ladder.extend_from_slice(&events[..events.len().min(LADDER_PER_JOB)]);
        jobs.push(events);
        targets.extend((0..procs as RankId).map(|r| (job as JobId, r)));
        streams += 3 * procs;
    }
    // Each batch goes at its position's share of its own job; ties keep
    // job order, and every job's events keep theirs.
    let mut batches: Vec<(f64, usize, &[Observation])> = jobs
        .iter()
        .enumerate()
        .flat_map(|(job, events)| {
            let n = events.len().div_ceil(REPLAY_BATCH);
            events
                .chunks(REPLAY_BATCH)
                .enumerate()
                .map(move |(c, chunk)| ((c as f64 + 0.5) / n as f64, job, chunk))
        })
        .collect();
    batches.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let body = batches.iter().flat_map(|b| b.2.iter().copied()).collect();
    Inputs {
        workload,
        cfg: EngineConfig {
            shards: 1,
            dpd: DpdConfig::default(),
            ensemble,
            ..EngineConfig::default()
        },
        members: 1,
        warm,
        body,
        batch: REPLAY_BATCH,
        targets,
        streams,
        ladder,
        gen_s: 0.0,
    }
}

fn rekey(events: &[Observation], job: JobId) -> Vec<Observation> {
    events
        .iter()
        .map(|o| Observation::new(StreamKey::for_job(job, o.key.rank, o.key.kind), o.value))
        .collect()
}

/// The stream family a tenant's ranks follow.
#[derive(Clone, Copy)]
enum Family {
    Periodic,
    Noisy,
    Switch,
    Random,
}

struct Tenant {
    ranks: u32,
    family: Family,
    period: usize,
}

/// A tenant's shape: a fixed function of its job id, the same for every
/// seed, so that seeds change the symbols, the noise and the delivery
/// order but not how many of the heavy tenants are random or how wide
/// they are, which would move the mix's capacity from seed to seed.
fn tenant_of(job: u32) -> Tenant {
    let h = det::mix(0x7e4a, &[u64::from(job)]);
    let family = match h % 20 {
        0..=9 => Family::Periodic,
        10..=14 => Family::Noisy,
        15..=17 => Family::Switch,
        _ => Family::Random,
    };
    Tenant {
        ranks: [4, 8, 16][(h >> 8) as usize % 3],
        family,
        period: 2 + (h >> 16) as usize % 23,
    }
}

/// One stream of one tenant rank: `len` symbols of the tenant's family.
fn tenant_stream(
    seed: u64,
    t: &Tenant,
    job: u32,
    rank: u32,
    kind: StreamKind,
    len: usize,
) -> Vec<u64> {
    let salt = [u64::from(job), u64::from(rank), kind.index() as u64];
    let symbol = |i: usize| -> u64 {
        let h = det::mix(seed, &[salt[0], salt[1], salt[2], i as u64]);
        match kind {
            StreamKind::Sender => h % u64::from(t.ranks),
            StreamKind::Size => 8 << (h % 12),
            StreamKind::Tag => h % 8,
        }
    };
    let pattern: Vec<u64> = (0..t.period).map(symbol).collect();
    let s = det::mix(seed, &salt);
    match t.family {
        Family::Periodic => synthetic::periodic(&pattern, len),
        Family::Noisy => synthetic::periodic_with_noise(&pattern, len, 0.05, 64, s),
        Family::Switch => {
            let other: Vec<u64> = (0..t.period + 3).map(|i| symbol(1000 + i)).collect();
            synthetic::pattern_switch(&pattern, &other, len, len / 2)
        }
        Family::Random => synthetic::random(16, len, s),
    }
    .values
}

/// The multi-tenant mix: Zipf-skewed job activity, Zipf-skewed rank
/// activity inside each job, sized for the open loop's half of a
/// `window_s`-second window at [`TENANT_RATE`].
fn tenant(seed: u64, window_s: f64) -> Inputs {
    let tenants: Vec<Tenant> = (0..TENANT_JOBS).map(tenant_of).collect();
    // (job, rank) pairs with their cumulative Zipf weight.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut cdf: Vec<f64> = Vec::new();
    let mut total = 0.0;
    for (j, t) in tenants.iter().enumerate() {
        let wj = 1.0 / (j as f64 + 1.0);
        for r in 0..t.ranks {
            total += wj / (f64::from(r) + 1.0).powf(1.2);
            pairs.push((j as u32, r));
            cdf.push(total);
        }
    }
    // The open loop plays the body once, in the first half of the window.
    let deliveries = (TENANT_RATE * window_s / 2.0 / 3.0).ceil() as usize;
    // The roll call (one delivery per rank) warms every stream; the
    // Zipf schedule follows.
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.extend((0..deliveries).map(|i| {
        let u = det::unit_f64(seed, &[i as u64, 0x5c4e]) * total;
        cdf.partition_point(|&c| c <= u).min(pairs.len() - 1)
    }));
    let mut counts = vec![0usize; pairs.len()];
    for &p in &order {
        counts[p] += 1;
    }
    let values: Vec<[Vec<u64>; 3]> = pairs
        .iter()
        .zip(&counts)
        .map(|(&(j, r), &n)| {
            let t = &tenants[j as usize];
            StreamKind::ALL.map(|k| tenant_stream(seed, t, j, r, k, n))
        })
        .collect();
    let mut cursor = vec![0usize; pairs.len()];
    let mut events = Vec::with_capacity(order.len() * 3);
    for &p in &order {
        let (j, r) = pairs[p];
        for k in StreamKind::ALL {
            let v = values[p][k.index()][cursor[p]];
            events.push(Observation::new(StreamKey::for_job(j, r, k), v));
        }
        cursor[p] += 1;
    }
    let body = events.split_off(3 * pairs.len());
    // Advise targets follow activity: ranks of deliveries sampled evenly
    // from the schedule, as the open loop's own queries are.
    let step = (body.len() / 3 / PROBE_TARGETS).max(1) * 3;
    let targets = body
        .iter()
        .step_by(step)
        .map(|o| (o.key.job, o.key.rank))
        .collect();
    let mut ladder = events.clone();
    let take = LADDER_TENANT.saturating_sub(ladder.len()).min(body.len());
    ladder.extend_from_slice(&body[..take]);
    Inputs {
        workload: Workload::TenantServe,
        cfg: EngineConfig {
            shards: 1,
            dpd: DpdConfig::default(),
            ttl: Some(TENANT_TTL),
            ..EngineConfig::default()
        },
        members: 2,
        warm: events,
        body,
        batch: TENANT_BATCH,
        targets,
        streams: 3 * pairs.len(),
        ladder,
        gen_s: 0.0,
    }
}
