//! Host-speed gauge. The benchmark runs on a few cores of a shared
//! host, and the speed of those cores drifts with what the host's other
//! tenants run: the same seed, rerun, ingests up to 1.5× faster or
//! slower, in phases of a second or more, and a whole run can fall in
//! a slow phase. A dependent arithmetic chain does not see these
//! phases; throughput-bound compare loops like the detector's lag scan
//! do. The gauge times a fixed lag-scan kernel, compiled into the
//! benchmark and independent of the engine's code, in short readings
//! through the closed loop, and `setup_s`, `ingest_eps` and `recover_s`
//! are scaled to what the reference host would have measured by the
//! mean reading raised to [`ELASTICITY`]. A change to the engine moves
//! the engine's
//! time and not the gauge's, so it still shows in full; the raw times
//! are reported beside the scaled ones (`raw.*`, `host.speed`).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Symbol histories the kernel scans.
const HISTORIES: usize = 10;
/// Symbols per history.
const HISTORY: usize = 512;
/// Largest lag compared.
const MAX_LAG: usize = 64;
/// Kernel passes per reading, about 1.5 ms on the reference host. The
/// host's speed flips between a fast and a slow state every few tens
/// of milliseconds, so a reading is short and a piece of work is
/// scaled by the mean of many.
const PASSES: u32 = 4;
/// How far the engine's times follow the kernel's, in logarithms: a
/// timing is scaled by the host's speed to this power. Over two sets of
/// ten runs per workload whose host slowed by a quarter between the
/// sets, 0.75 left every scaled median within 8 % of the other set's
/// (0.5 left 13 %, the unscaled times 30 %) and kept the spreads lowest;
/// 1.0 over-corrected `tenant_serve`.
pub const ELASTICITY: f64 = 0.75;
/// Kernel passes per second on the reference host (2 vCPUs of a shared
/// x86-64 VM, about the mean of its readings over 18 runs): a reading
/// of 1.0.
const REFERENCE_PASSES_PER_S: f64 = 2_700.0;

pub struct Gauge {
    histories: Vec<Vec<u64>>,
}

impl Gauge {
    /// Fixed, periodic-looking histories, the same on every run.
    pub fn new() -> Gauge {
        let histories = (0..HISTORIES)
            .map(|s| {
                (0..HISTORY)
                    .map(|k| ((k * 7 + s) % (13 + s % 5)) as u64)
                    .collect()
            })
            .collect();
        Gauge { histories }
    }

    /// One pass: at every lag, count the matching pairs of every history.
    fn pass(histories: &[Vec<u64>]) -> u64 {
        let mut matches = 0u64;
        for h in histories {
            for lag in 1..MAX_LAG {
                for k in lag..h.len() {
                    matches += u64::from(h[k] == h[k - lag]);
                }
            }
        }
        matches
    }

    /// The host's current speed relative to the reference host: above
    /// 1.0 when it runs the kernel faster.
    pub fn speed(&self) -> f64 {
        let t = Instant::now();
        let mut matches = 0u64;
        for _ in 0..PASSES {
            matches += Self::pass(black_box(&self.histories));
        }
        black_box(matches);
        f64::from(PASSES) / t.elapsed().as_secs_f64() / REFERENCE_PASSES_PER_S
    }
}

/// The gauge's readings over one stretch of work, and the wall time
/// they took, which the work's own timing leaves out.
#[derive(Default)]
pub struct Readings {
    pub all: Vec<f64>,
    pub spent: Duration,
}

impl Readings {
    pub fn take(&mut self, gauge: &Gauge) {
        let t = Instant::now();
        self.all.push(gauge.speed());
        self.spent += t.elapsed();
    }
}
