//! The repository benchmark: two long single-process workloads
//! (`sweep-vxm`, `serve-mix`) that print end-to-end metrics and check every output against committed reference digests, plus a
//! traced mode that times the calls into each layer's public functions
//! from this crate's own code. See `README.md` beside this crate.

#![forbid(unsafe_code)]

pub mod digest;
pub mod layers;
pub mod serve;
pub mod spans;
pub mod sweep;

use sparsepipe_apps::StaApp;

/// The two workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 11 vxm apps × 9 matrices at scale 256, one worker, each matrix
    /// with a cold cache.
    SweepVxm,
    /// In-process daemon serving the 45-point pool at scale 256.
    ServeMix,
}

impl Workload {
    /// Every workload, in the order `--bless` evaluates their pools.
    pub const ALL: [Workload; 2] = [Workload::SweepVxm, Workload::ServeMix];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepVxm => "sweep-vxm",
            Workload::ServeMix => "serve-mix",
        }
    }
}

/// Whether `app` schedules SpGEMM passes (the four `mxm` family apps).
pub fn is_mxm(app: &StaApp) -> bool {
    sparsepipe_apps::registry::mxm_family()
        .iter()
        .any(|m| m.name == app.name)
}

/// What one run reports: the contract's last stdout line.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (points evaluated plus requests sent).
    pub attempted: u64,
    /// Operations that errored, were refused, or mismatched a reference.
    pub failed: u64,
    /// Set when the run measured something other than the workload
    /// (the open-loop generator fell behind its schedule).
    pub invalid: Option<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Counts one checked operation; `Err` carries why it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("failed: {why}");
            }
        }
    }

    /// The contract's result line.
    pub fn to_json(&self) -> String {
        use serde::Value;
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Map(vec![
                        ("value".to_string(), Value::Float(*value)),
                        ("unit".to_string(), Value::Str((*unit).to_string())),
                    ]),
                )
            })
            .collect();
        let v = Value::Map(vec![
            (
                "correct".to_string(),
                Value::Bool(self.failed == 0 && self.invalid.is_none()),
            ),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&v).expect("value trees always render")
    }
}

/// SplitMix64: a small seeded generator, so a seed gives the same
/// inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (any value, including 0).
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of an unsorted sample;
/// 0 for an empty one.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sparsepipe_bench::serve::loadgen::percentile(&sorted, p)
}

/// Process resident-memory high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current RSS (writing `5` to
/// `/proc/self/clear_refs`), so the next [`peak_rss_mb`] covers only
/// what ran in between. Sound only while one thread does the work.
///
/// # Errors
///
/// When the kernel refuses the write.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}
