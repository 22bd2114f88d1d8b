//! Steady-state allocation audit: once slots, interners and scratch
//! buffers are warm, repeated `observe_batch` + `forecast_at` rounds on
//! the scoped engine must allocate **nothing** — the "cheap enough for
//! the MPI critical path" claim (§2.1) made checkable. The audit runs
//! twice: with telemetry disabled and with it enabled, because the
//! telemetry layer's zero-cost claim is precisely that recording into
//! its fixed atomic histogram buckets and pre-allocated flight ring
//! adds clock reads, never allocations.
//!
//! A counting global allocator tallies every `alloc`/`realloc`. The
//! binary contains exactly this one test, so no concurrent test thread
//! can pollute the counter. The scoped engine runs every shard on the
//! calling thread, so no setting is needed to keep thread spawns out of
//! the count; the persistent mode's per-batch channel
//! legs are pool-recycled but its query replies allocate per call —
//! that path is documented as re-plan-rate, not event-rate, in the
//! crate docs.

use mpp_engine::{Engine, EngineConfig, Observation, StreamKey, StreamKind, TelemetryConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// The bench-shaped workload: every rank carries periodic sender, size
/// and tag streams, interleaved round-robin.
fn batch(ranks: u32) -> Vec<Observation> {
    let mut out = Vec::new();
    for step in 0..8usize {
        for rank in 0..ranks {
            let sp = 2 + (rank as usize % 5);
            out.push(Observation::new(
                StreamKey::new(rank, StreamKind::Sender),
                ((step + rank as usize) % sp) as u64,
            ));
            out.push(Observation::new(
                StreamKey::new(rank, StreamKind::Size),
                [512u64, 4096, 1 << 20][(step + rank as usize) % 3],
            ));
            out.push(Observation::new(
                StreamKey::new(rank, StreamKind::Tag),
                (step % 2) as u64,
            ));
        }
    }
    out
}

/// Runs the warmup + measured rounds on one engine configuration and
/// asserts the measured rounds allocated exactly zero times.
fn audit_steady_state(telemetry: bool) {
    let events = batch(32);
    let mut cfg = EngineConfig {
        shards: 2,
        // A TTL exercises the expiry arithmetic and the (empty) sweep
        // pops on the hot path; the streams stay fresh, so nothing is
        // ever actually reclaimed mid-measurement.
        ttl: Some(1_000_000),
        ..EngineConfig::with_shards(2)
    };
    if telemetry {
        cfg = cfg.with_telemetry(TelemetryConfig::enabled());
    }
    let mut engine = Engine::new(cfg);
    let mut forecast = Vec::new();

    // Warm-up: create slots, grow interners, size every scratch buffer.
    for _ in 0..3 {
        engine.observe_batch(&events);
        for rank in 0..32 {
            engine.forecast_messages(rank, 5, &mut forecast);
        }
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..5 {
        engine.observe_batch(&events);
        for rank in 0..32 {
            engine.forecast_messages(rank, 5, &mut forecast);
            assert_eq!(forecast.len(), 5);
        }
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state observe_batch + forecast_at must not allocate \
         (telemetry={telemetry})"
    );

    // Sanity: the engine really did the work.
    let total = engine.metrics_total();
    assert_eq!(total.events_ingested, 8 * events.len() as u64);
    assert_eq!(total.forecasts_served, 8 * 32);
    assert!(total.hits > 0);
    if telemetry {
        let snap = engine.telemetry().expect("telemetry enabled");
        let h = snap.histogram("observe_batch_ns").expect("batch latency");
        assert!(h.count() >= 16, "both shards timed all 8 rounds");
        assert!(
            snap.histogram("forecast_ns")
                .expect("forecast latency")
                .count()
                >= 8 * 32,
            "every forecast call was timed"
        );
    }
}

#[test]
fn steady_state_observe_and_forecast_allocate_nothing() {
    // Sequential phases inside one test: the counting allocator is
    // global, so the two audits must never run concurrently.
    audit_steady_state(false);
    audit_steady_state(true);
}
