//! The engine's load-bearing property: for ANY interleaved event
//! sequence, ANY shard count, and ANY batch split, batched sharded
//! serving is bit-identical to sequentially driving one `DpdPredictor`
//! per stream on the raw symbols. Sharding and interning are throughput
//! devices, never semantics devices.

use mpp_core::dpd::{DpdConfig, DpdPredictor};
use mpp_core::predictors::Predictor;
use mpp_engine::{Engine, EngineConfig, Observation, Query, StreamKey, StreamKind};
use proptest::prelude::*;
use std::collections::HashMap;

/// Decodes a generated `(rank, kind, value)` triple into an observation.
fn decode(rank: u32, kind: u8, value: u64) -> Observation {
    let kind = StreamKind::ALL[kind as usize % 3];
    Observation::new(StreamKey::new(rank, kind), value)
}

/// Sequential per-stream reference: one raw-symbol predictor per key.
fn reference_bank(events: &[Observation], cfg: &DpdConfig) -> HashMap<StreamKey, DpdPredictor> {
    let mut bank: HashMap<StreamKey, DpdPredictor> = HashMap::new();
    for obs in events {
        bank.entry(obs.key)
            .or_insert_with(|| DpdPredictor::new(cfg.clone()))
            .observe(obs.value);
    }
    bank
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Predictions and detected periods agree with the sequential
    /// reference for every stream and horizon, regardless of shard
    /// count and batch split.
    #[test]
    fn sharded_batched_equals_sequential(
        raw in prop::collection::vec((0u32..16, 0u8..3, 0u64..8), 0..400),
        shards in 1usize..6,
        batch_size in 1usize..64,
    ) {
        let cfg = DpdConfig { window: 64, max_lag: 32, ..DpdConfig::default() };
        let events: Vec<Observation> =
            raw.iter().map(|&(r, k, v)| decode(r, k, v)).collect();

        let mut engine = Engine::new(EngineConfig {
            shards,
            dpd: cfg.clone(),
            // Exercise the threaded path even on small batches.
            ttl: None,
            ..EngineConfig::default()
        });
        for chunk in events.chunks(batch_size.max(1)) {
            engine.observe_batch(chunk);
        }

        let bank = reference_bank(&events, &cfg);
        prop_assert_eq!(engine.stream_count(), bank.len());
        prop_assert_eq!(engine.metrics_total().events_ingested, events.len() as u64);

        let mut queries = Vec::new();
        let mut expected = Vec::new();
        for (key, predictor) in &bank {
            prop_assert_eq!(
                engine.period_of(*key),
                predictor.period(),
                "period diverged on {:?}", key
            );
            for h in 1..=5u32 {
                queries.push(Query::new(*key, h));
                expected.push(predictor.predict(h as usize));
            }
        }
        let mut got = Vec::new();
        engine.predict_batch(&queries, &mut got);
        prop_assert_eq!(got, expected);
    }

    /// Shard count never changes results: engines with different shard
    /// counts agree with each other on everything.
    #[test]
    fn shard_count_is_invisible(
        raw in prop::collection::vec((0u32..32, 0u8..3, 0u64..5), 0..300),
        shards_a in 1usize..8,
        shards_b in 1usize..8,
    ) {
        let events: Vec<Observation> =
            raw.iter().map(|&(r, k, v)| decode(r, k, v)).collect();
        let build = |shards: usize| {
            let mut e = Engine::new(EngineConfig {
                shards,
                dpd: DpdConfig { window: 64, max_lag: 16, ..DpdConfig::default() },
                ttl: None,
                ..EngineConfig::default()
            });
            e.observe_batch(&events);
            e
        };
        let mut a = build(shards_a);
        let mut b = build(shards_b);
        let queries: Vec<Query> = events
            .iter()
            .flat_map(|o| (1..=3u32).map(move |h| Query::new(o.key, h)))
            .collect();
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        a.predict_batch(&queries, &mut ra);
        b.predict_batch(&queries, &mut rb);
        prop_assert_eq!(ra, rb);
        // Aggregate scoring metrics are shard-layout independent too.
        let (ta, tb) = (a.metrics_total(), b.metrics_total());
        prop_assert_eq!(ta.events_ingested, tb.events_ingested);
        prop_assert_eq!(ta.hits, tb.hits);
        prop_assert_eq!(ta.misses, tb.misses);
        prop_assert_eq!(ta.period_churn, tb.period_churn);
        prop_assert_eq!(ta.resident_streams, tb.resident_streams);
    }

    /// Batch boundaries are invisible: one big batch equals
    /// event-at-a-time ingestion.
    #[test]
    fn batch_split_is_invisible(
        raw in prop::collection::vec((0u32..8, 0u8..3, 0u64..6), 0..250),
        shards in 1usize..5,
    ) {
        let events: Vec<Observation> =
            raw.iter().map(|&(r, k, v)| decode(r, k, v)).collect();
        let cfg = EngineConfig {
            shards,
            dpd: DpdConfig { window: 32, max_lag: 8, ..DpdConfig::default() },
            ttl: None,
            ..EngineConfig::default()
        };
        let mut whole = Engine::new(cfg.clone());
        whole.observe_batch(&events);
        let mut single = Engine::new(cfg);
        for obs in &events {
            single.observe(obs.key, obs.value);
        }
        for obs in &events {
            for h in 1..=4u32 {
                prop_assert_eq!(
                    whole.predict(obs.key, h),
                    single.predict(obs.key, h)
                );
            }
        }
    }
}
