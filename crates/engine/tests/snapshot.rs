//! The snapshot subsystem's load-bearing properties.
//!
//! * **Restore-and-continue is invisible.** For any workload, cut
//!   point, shard count and TTL, snapshotting an engine, restoring it
//!   (same mode or across scoped ↔ persistent), and replaying the
//!   rest of the workload yields predictions and scoring counters
//!   bit-identical to the uninterrupted run. Within the scoped mode
//!   the final snapshot *bytes* are identical too.
//! * **Job snapshots re-partition.** A single job's snapshot restores
//!   into an engine with a different shard count and serves the same
//!   predictions (stream placement is a throughput device).
//! * **Corruption fails typed, never garbled.** Version bumps, flipped
//!   bytes, truncation and config mismatches each surface their own
//!   [`SnapshotError`] variant; nothing restores partially.

use mpp_core::dpd::DpdConfig;
use mpp_engine::{
    Engine, EngineConfig, EnsembleConfig, Observation, PersistentEngine, Query, SnapshotError,
    StreamKey, StreamKind, SNAPSHOT_VERSION,
};
use proptest::prelude::*;

const JOBS: u32 = 3;
const RANKS: u32 = 5;
const HORIZONS: u32 = 4;

fn decode_event(job: u32, rank: u32, kind: u8, value: u64) -> Observation {
    Observation::new(
        StreamKey::for_job(job % JOBS, rank % RANKS, StreamKind::ALL[kind as usize % 3]),
        value % 6,
    )
}

/// Every possible (key, horizon) query in a fixed order.
fn all_queries() -> Vec<Query> {
    let mut out = Vec::new();
    for job in 0..JOBS {
        for rank in 0..RANKS {
            for kind in StreamKind::ALL {
                for h in 1..=HORIZONS {
                    out.push(Query::new(StreamKey::for_job(job, rank, kind), h));
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance property: snapshot → restore → continue is
    /// bit-identical to never stopping, in and across both execution
    /// modes, for any cut point, shard count and TTL — and a job
    /// snapshot restored into a *different* shard count still serves
    /// the job's exact predictions.
    #[test]
    fn snapshot_restore_continue_is_bit_identical(
        raw in prop::collection::vec((0u32..JOBS, 0u32..RANKS, 0u8..3, 0u64..6), 1..250),
        cut_sel in 0usize..250,
        shards in 1usize..5,
        other_shards in 1usize..5,
        ttl_sel in 0u64..60,
    ) {
        let ttl = if ttl_sel < 20 { None } else { Some(ttl_sel) };
        let cfg = EngineConfig {
            shards,
            dpd: DpdConfig { window: 48, max_lag: 16, ..DpdConfig::default() },
            ttl,
            ..EngineConfig::default()
        };
        let events: Vec<Observation> = raw
            .iter()
            .map(|&(j, r, k, v)| decode_event(j, r, k, v))
            .collect();
        let cut = cut_sel % (events.len() + 1);

        // Control: one scoped engine, never interrupted. One event per
        // batch everywhere so batch-shape metrics can't differ between
        // runs.
        let mut control = Engine::new(cfg.clone());
        for e in &events {
            control.observe_batch(std::slice::from_ref(e));
        }

        // Scoped trial: ingest to the cut, snapshot, restore, continue.
        let mut head = Engine::new(cfg.clone());
        for e in &events[..cut] {
            head.observe_batch(std::slice::from_ref(e));
        }
        let bytes = head.snapshot();
        let mut tail = Engine::restore(cfg.clone(), &bytes)
            .expect("a snapshot this engine just wrote must restore");
        for e in &events[cut..] {
            tail.observe_batch(std::slice::from_ref(e));
        }
        // Strongest form first: the final snapshots are byte-identical
        // (taken before any query mutates served counters).
        prop_assert_eq!(
            tail.snapshot(),
            control.snapshot(),
            "restored run's final snapshot diverged from the uninterrupted run"
        );

        // Persistent trial: same cut, snapshot via the client,
        // restore a fresh worker fleet from the bytes.
        let phead = PersistentEngine::new(cfg.clone());
        let pclient = phead.client();
        for e in &events[..cut] {
            pclient.observe_batch(std::slice::from_ref(e));
        }
        let pbytes = pclient.snapshot();
        let ptail = PersistentEngine::restore(cfg.clone(), &pbytes)
            .expect("persistent restore");
        let ptail_client = ptail.client();
        for e in &events[cut..] {
            ptail_client.observe_batch(std::slice::from_ref(e));
        }

        // Cross-mode restore: the scoped engine's snapshot boots a
        // persistent engine mid-workload (one wire format, one
        // semantics).
        let xtail = PersistentEngine::restore(cfg.clone(), &bytes)
            .expect("cross-mode restore");
        let xtail_client = xtail.client();
        for e in &events[cut..] {
            xtail_client.observe_batch(std::slice::from_ref(e));
        }

        // Sweep everything before comparing rollups: *when* expired
        // streams get reclaimed is legitimately mode-dependent (scoped
        // sweeps every shard per batch, persistent only busy shards),
        // so eviction/residency counters only align after a full
        // sweep. Predictions are sweep-invariant either way.
        control.sweep_expired();
        tail.sweep_expired();
        ptail_client.sweep_expired();
        xtail_client.sweep_expired();

        let queries = all_queries();
        let mut want = Vec::new();
        control.predict_batch(&queries, &mut want);
        let mut got = Vec::new();
        tail.predict_batch(&queries, &mut got);
        prop_assert_eq!(&got, &want, "scoped restore-and-continue diverged");
        ptail_client.predict_batch(&queries, &mut got);
        prop_assert_eq!(&got, &want, "persistent restore-and-continue diverged");
        xtail_client.predict_batch(&queries, &mut got);
        prop_assert_eq!(&got, &want, "cross-mode restore-and-continue diverged");

        // Scoring counters survive the cut exactly.
        let (cm, tm, pm) = (control.metrics_total(), tail.metrics_total(),
                            ptail_client.metrics_total());
        prop_assert_eq!(cm.events_ingested, events.len() as u64);
        prop_assert_eq!(tm.events_ingested, cm.events_ingested);
        prop_assert_eq!(pm.events_ingested, cm.events_ingested);
        prop_assert_eq!((tm.hits, tm.misses, tm.abstentions, tm.period_churn),
                        (cm.hits, cm.misses, cm.abstentions, cm.period_churn));
        prop_assert_eq!((pm.hits, pm.misses, pm.abstentions, pm.period_churn),
                        (cm.hits, cm.misses, cm.abstentions, cm.period_churn));
        prop_assert_eq!(control.job_metrics(), tail.job_metrics());
        prop_assert_eq!(control.job_metrics(), ptail_client.job_metrics());

        // Job scope: job 0's snapshot restores into a fresh engine
        // with a different shard count and serves its predictions
        // bit-identically (streams re-partition).
        let jbytes = control.snapshot_job(0);
        let mut fresh = Engine::new(EngineConfig { shards: other_shards, ..cfg });
        fresh.restore_job(&jbytes).expect("job restore across shard counts");
        let jqueries: Vec<Query> = queries.iter().copied()
            .filter(|q| q.key.job == 0).collect();
        let mut jwant = Vec::new();
        control.predict_batch(&jqueries, &mut jwant);
        fresh.predict_batch(&jqueries, &mut got);
        prop_assert_eq!(&got, &jwant, "re-partitioned job diverged");
        // `predictions_served` is counted only on shards that ingested
        // the job, so it legitimately depends on the shard layout —
        // normalize it out of the cross-layout comparison.
        let roll_of = |m: Vec<(u32, mpp_engine::JobMetrics)>| {
            m.into_iter().find(|&(j, _)| j == 0).map(|(_, mut m)| {
                m.predictions_served = 0;
                m
            })
        };
        prop_assert_eq!(roll_of(control.job_metrics()), roll_of(fresh.job_metrics()));
    }

    /// The ensemble extension of the acceptance property: with a full
    /// challenger roster running (including mid-window champion scores
    /// and challenger predictor state), snapshot → restore → continue
    /// is still bit-identical to never stopping — predictions, legacy
    /// counters, per-model rollups, and the final snapshot bytes all
    /// survive the cut, in and across both execution modes.
    #[test]
    fn ensemble_snapshot_restore_continue_is_bit_identical(
        raw in prop::collection::vec((0u32..JOBS, 0u32..RANKS, 0u8..3, 0u64..6), 1..250),
        cut_sel in 0usize..250,
        shards in 1usize..5,
        window in 4u32..24,
        min_lead in 1u32..5,
    ) {
        // A short window so cuts land mid-window often, exercising the
        // partial window_seen/window_hits round-trip.
        let cfg = EngineConfig {
            shards,
            dpd: DpdConfig { window: 48, max_lag: 16, ..DpdConfig::default() },
            ensemble: EnsembleConfig { window, min_lead, ..EnsembleConfig::standard() },
            ..EngineConfig::default()
        };
        let events: Vec<Observation> = raw
            .iter()
            .map(|&(j, r, k, v)| decode_event(j, r, k, v))
            .collect();
        let cut = cut_sel % (events.len() + 1);

        let mut control = Engine::new(cfg.clone());
        for e in &events {
            control.observe_batch(std::slice::from_ref(e));
        }

        let mut head = Engine::new(cfg.clone());
        for e in &events[..cut] {
            head.observe_batch(std::slice::from_ref(e));
        }
        let bytes = head.snapshot();
        let mut tail = Engine::restore(cfg.clone(), &bytes)
            .expect("ensemble snapshot must restore");
        for e in &events[cut..] {
            tail.observe_batch(std::slice::from_ref(e));
        }
        prop_assert_eq!(
            tail.snapshot(),
            control.snapshot(),
            "ensemble restored run's final snapshot diverged"
        );

        // Cross-mode: the scoped snapshot boots a persistent fleet.
        let ptail = PersistentEngine::restore(cfg.clone(), &bytes)
            .expect("cross-mode ensemble restore");
        let pclient = ptail.client();
        for e in &events[cut..] {
            pclient.observe_batch(std::slice::from_ref(e));
        }

        let queries = all_queries();
        let mut want = Vec::new();
        control.predict_batch(&queries, &mut want);
        let mut got = Vec::new();
        tail.predict_batch(&queries, &mut got);
        prop_assert_eq!(&got, &want, "scoped ensemble restore diverged");
        pclient.predict_batch(&queries, &mut got);
        prop_assert_eq!(&got, &want, "persistent ensemble restore diverged");

        // Per-model rollups survive the cut exactly, in both modes.
        prop_assert_eq!(control.model_stats(), tail.model_stats());
        prop_assert_eq!(control.model_stats(), pclient.model_stats());
        prop_assert_eq!(control.job_model_stats(), tail.job_model_stats());
        prop_assert_eq!(control.job_model_stats(), pclient.job_model_stats());
        prop_assert_eq!(control.job_metrics(), tail.job_metrics());

        // An ensemble snapshot binds to its roster: restoring into a
        // DPD-only engine is a typed ConfigMismatch, never a misparse.
        let plain = EngineConfig { ensemble: EnsembleConfig::default(), ..cfg };
        prop_assert!(matches!(
            Engine::restore(plain, &bytes),
            Err(SnapshotError::ConfigMismatch(_))
        ));
    }
}

/// Builds a small trained engine and returns it with its snapshot.
fn trained_engine() -> (Engine, Vec<u8>) {
    let mut engine = Engine::new(EngineConfig {
        shards: 2,
        ttl: Some(100),
        ..EngineConfig::default()
    });
    let batch: Vec<Observation> = (0..60)
        .map(|i| decode_event((i % 3) as u32, (i % 5) as u32, (i % 3) as u8, i))
        .collect();
    engine.observe_batch(&batch);
    let bytes = engine.snapshot();
    (engine, bytes)
}

/// A snapshot written by a newer format version is rejected with the
/// typed [`SnapshotError::VersionMismatch`] — found and supported
/// versions both reported — not misparsed.
#[test]
fn future_version_snapshot_fails_typed() {
    let (engine, mut bytes) = trained_engine();
    // The version field is the u32 after the 8-byte magic.
    let v = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    assert_eq!(v, SNAPSHOT_VERSION);
    bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    match Engine::restore(engine.config().clone(), &bytes) {
        Err(SnapshotError::VersionMismatch { found, supported }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

/// Every corruption class fails with its own variant: wrong magic,
/// flipped payload byte, truncation.
#[test]
fn corrupted_snapshots_fail_typed() {
    let (engine, bytes) = trained_engine();
    let cfg = engine.config().clone();

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        Engine::restore(cfg.clone(), &bad_magic),
        Err(SnapshotError::BadMagic)
    ));

    let mut flipped = bytes.clone();
    let mid = 20 + (flipped.len() - 28) / 2; // inside the payload
    flipped[mid] ^= 0x01;
    assert!(matches!(
        Engine::restore(cfg.clone(), &flipped),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));

    assert!(matches!(
        Engine::restore(cfg.clone(), &bytes[..bytes.len() - 1]),
        Err(SnapshotError::Truncated { .. })
    ));

    let mut padded = bytes.clone();
    padded.push(0);
    assert!(matches!(
        Engine::restore(cfg, &padded),
        Err(SnapshotError::TrailingBytes { extra: 1, offset }) if offset == bytes.len()
    ));
}

/// Whole-engine snapshots bind to their configuration: restoring into
/// a different shard count or TTL is a [`SnapshotError::ConfigMismatch`],
/// reported before any state moves.
#[test]
fn config_mismatch_fails_before_restoring() {
    let (engine, bytes) = trained_engine();
    let cfg = engine.config().clone();

    let more_shards = EngineConfig {
        shards: cfg.shards + 1,
        ..cfg.clone()
    };
    match Engine::restore(more_shards, &bytes) {
        Err(SnapshotError::ConfigMismatch(msg)) => {
            assert!(msg.contains("shard"), "mismatch names the field: {msg}")
        }
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }

    let other_ttl = EngineConfig {
        ttl: Some(7),
        ..cfg
    };
    assert!(matches!(
        Engine::restore(other_ttl, &bytes),
        Err(SnapshotError::ConfigMismatch(_))
    ));

    // Persistent restore applies the same gate.
    let (engine2, bytes2) = trained_engine();
    let cfg2 = engine2.config().clone();
    assert!(matches!(
        PersistentEngine::restore(
            EngineConfig {
                shards: cfg2.shards + 1,
                ..cfg2
            },
            &bytes2
        ),
        Err(SnapshotError::ConfigMismatch(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Regression satellite of the durability PR: snapshot files that
    /// gained bytes — zero padding from a preallocating filesystem, or
    /// two frames concatenated by a botched copy — are rejected as
    /// [`SnapshotError::TrailingBytes`] whose `extra` counts exactly
    /// the surplus and whose `offset` names the first undecoded byte,
    /// never decoded partially and never a panic.
    #[test]
    fn padded_and_concatenated_snapshots_are_rejected_with_offsets(
        pad in 1usize..96,
        byte in 0u8..255,
    ) {
        let (engine, bytes) = trained_engine();
        let cfg = engine.config().clone();

        // Padding: any tail of repeated bytes after a valid frame.
        let mut padded = bytes.clone();
        padded.extend(std::iter::repeat_n(byte, pad));
        prop_assert_eq!(
            Engine::restore(cfg.clone(), &padded).err(),
            Some(SnapshotError::TrailingBytes {
                extra: pad,
                offset: bytes.len(),
            })
        );

        // Concatenation: a second full frame (or any prefix of one —
        // `pad` bytes of it) appended to the first.
        let mut doubled = bytes.clone();
        doubled.extend_from_slice(&bytes[..pad.min(bytes.len())]);
        prop_assert_eq!(
            Engine::restore(cfg, &doubled).err(),
            Some(SnapshotError::TrailingBytes {
                extra: pad.min(bytes.len()),
                offset: bytes.len(),
            })
        );
    }
}
