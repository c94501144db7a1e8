//! The sweep workload: every point of an app × matrix pool, evaluated
//! on one worker, each matrix's points with a cache that starts cold.
//!
//! Sweeps run on one worker on purpose: per-point peak memory is read
//! by resetting the process high-water mark around each point, which is
//! sound only when nothing else runs, and two workers also raise peak
//! memory well past what one sweep needs.
//!
//! The host the benchmark was tuned on slows memory-bound code by up to
//! 2x for stretches of a fraction of a second to a minute, because other
//! tenants share its last-level cache and memory. A sweep therefore
//! evaluates the pool in rounds and keeps, for each point, its fastest
//! time of the run: the point's time on a quiet machine, which a slower
//! program still raises. Each point's work is the same in every round,
//! because its matrix gets a fresh cache and its apps run in registry
//! order, so the first app on a matrix always pays for the cache builds.

use std::time::{Duration, Instant};

use sparsepipe_apps::{registry, StaApp};
use sparsepipe_bench::datasets::{DatasetSpec, ScaledDataset};
use sparsepipe_bench::sweep::{Entry, EvalRequest};
use sparsepipe_core::MatrixCache;
use sparsepipe_tensor::MatrixId;

use crate::digest::{entry_digest, point_key, Refs};
use crate::layers::{eval_point, load_dataset, Counters, PerLayer};
use crate::spans::SpanLog;
use crate::{is_mxm, peak_rss_mb, percentile, reset_peak_rss, Report, Rng, Workload};

/// Dataset builds per run: at least this many, and more until
/// [`SETUP_SECONDS`] have passed; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// See [`SETUP_REPEATS`].
const SETUP_SECONDS: f64 = 2.0;

/// An app × matrix pool at one scale.
#[derive(Debug)]
pub struct Pool {
    /// Dataset scale divisor.
    pub scale: u64,
    /// Apps, registry order.
    pub apps: Vec<StaApp>,
    /// Matrices, Table-I order.
    pub matrices: &'static [MatrixId],
}

/// One evaluation of the pool: each point's seconds and entry, indexed
/// `[matrix][app]`.
pub struct Round {
    /// Seconds per point.
    pub secs: Vec<Vec<f64>>,
    /// Entry (or error) per point.
    pub entries: Vec<Vec<Result<Entry, String>>>,
}

impl Pool {
    /// The pool a sweep workload evaluates (`serve-mix` has none here).
    pub fn of(w: Workload) -> Option<Pool> {
        match w {
            // The vxm half of `experiments all`, at the serve pool's scale
            // so that a run holds dozens of rounds.
            Workload::SweepVxm => Some(Pool {
                scale: 256,
                apps: registry::all().into_iter().filter(|a| !is_mxm(a)).collect(),
                matrices: &MatrixId::ALL,
            }),
            Workload::ServeMix => None,
        }
    }

    fn len(&self) -> usize {
        self.apps.len() * self.matrices.len()
    }

    /// Builds every dataset through `DatasetSpec::load`, as each
    /// `experiments` run does; returns them with the seconds taken.
    ///
    /// # Errors
    ///
    /// The first dataset that fails to load.
    pub fn load(&self) -> Result<(Vec<ScaledDataset>, f64), String> {
        let t = Instant::now();
        let datasets = self
            .matrices
            .iter()
            .map(|&id| DatasetSpec::new(id, self.scale).load())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok((datasets, t.elapsed().as_secs_f64()))
    }

    /// The matrices in an order drawn from `rng`.
    pub fn order(&self, rng: &mut Rng) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.matrices.len()).collect();
        rng.shuffle(&mut order);
        order
    }

    fn key(&self, a: usize, d: usize) -> String {
        point_key(self.apps[a].name, self.matrices[d].code(), self.scale)
    }

    /// Checks every entry of `round` against `refs`.
    pub fn check(&self, refs: &Refs, round: Round, report: &mut Report) {
        for (d, entries) in round.entries.into_iter().enumerate() {
            for (a, entry) in entries.into_iter().enumerate() {
                let key = self.key(a, d);
                report.check(entry.and_then(|e| refs.check(&key, &entry_digest(&e))));
            }
        }
    }

    /// One untraced round: the matrices in `order`, each with a fresh
    /// cache and its apps in registry order.
    pub fn sweep(&self, datasets: &[ScaledDataset], order: &[usize]) -> Round {
        let n = self.matrices.len();
        let mut secs = vec![Vec::new(); n];
        let mut entries: Vec<Vec<Result<Entry, String>>> = (0..n).map(|_| Vec::new()).collect();
        for &d in order {
            let cache = MatrixCache::new();
            for app in &self.apps {
                let started = Instant::now();
                let entry = EvalRequest::new(app, &datasets[d], self.scale)
                    .cache(&cache)
                    .run()
                    .map(|o| o.evaluation.entry)
                    .map_err(|e| e.to_string());
                secs[d].push(started.elapsed().as_secs_f64());
                entries[d].push(entry);
            }
        }
        Round { secs, entries }
    }
}

/// The untraced run: repeated dataset builds, then rounds over
/// the pool (each in a fresh seeded matrix order) until `seconds` have
/// passed, at least two.
///
/// Each point's time is its fastest of the run. `sweep_s` is their sum,
/// `p50_ms` and `p99_ms` are percentiles over the points, and `sat_rps`
/// is points per second of `sweep_s`.
///
/// # Errors
///
/// When the datasets cannot be built.
pub fn run(pool: &Pool, seed: u64, seconds: f64, refs: &Refs) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut datasets = Vec::new();
    let setup_started = Instant::now();
    while setups.len() < SETUP_REPEATS
        || setup_started.elapsed() < Duration::from_secs_f64(SETUP_SECONDS)
    {
        drop(std::mem::take(&mut datasets));
        let (built, s) = pool.load()?;
        datasets = built;
        setups.push(s);
    }
    let mut rng = Rng::new(seed);
    let mut best = vec![f64::INFINITY; pool.len()];
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || started.elapsed() < Duration::from_secs_f64(seconds) {
        let order = pool.order(&mut rng);
        let round = pool.sweep(&datasets, &order);
        for (b, s) in best.iter_mut().zip(round.secs.iter().flatten()) {
            *b = b.min(*s);
        }
        pool.check(refs, round, &mut report);
        rounds += 1;
    }
    let sweep_s: f64 = best.iter().sum();
    let best_ms: Vec<f64> = best.iter().map(|s| s * 1e3).collect();
    report.metric("setup_s", percentile(&setups, 50.0), "s");
    report.metric("sweep_s", sweep_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("p50_ms", percentile(&best_ms, 50.0), "ms");
    report.metric("p99_ms", percentile(&best_ms, 99.0), "ms");
    report.metric("sat_rps", pool.len() as f64 / sweep_s, "1/s");
    Ok(report)
}

/// The traced run: datasets built layer by layer, a warm-up and a timed
/// untraced round, then the same order traced point by point through
/// [`eval_point`], each matrix with a fresh cache and the high-water
/// mark reset around each point.
///
/// # Errors
///
/// When the high-water mark cannot be reset.
pub fn run_traced(
    pool: &Pool,
    seed: u64,
    refs: &Refs,
    log: &mut SpanLog,
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut layer = PerLayer::default();
    let mut counters = Counters::default();

    let setup = log.begin("setup", 0);
    let datasets: Vec<ScaledDataset> = pool
        .matrices
        .iter()
        .map(|&id| load_dataset(id, pool.scale, log, &mut counters))
        .collect();
    log.end(setup);

    // The first round after the datasets are built also pays for fresh
    // heap pages; run once untimed so the untraced and traced rounds
    // compared below start from the same state.
    let order = pool.order(&mut Rng::new(seed));
    let mut untraced_s = 0.0;
    for _ in 0..2 {
        let round = pool.sweep(&datasets, &order);
        untraced_s = round.secs.iter().flatten().sum();
        pool.check(refs, round, &mut report);
    }

    let n = pool.matrices.len();
    let mut entries: Vec<Vec<Result<Entry, String>>> = (0..n).map(|_| Vec::new()).collect();
    let mut rid = 0;
    let root = log.begin("sweep", 0);
    for &d in &order {
        let cache = MatrixCache::new();
        for app in &pool.apps {
            rid += 1;
            reset_peak_rss().map_err(|e| format!("cannot reset VmHWM: {e}"))?;
            entries[d].push(eval_point(
                app,
                &datasets[d],
                pool.scale,
                &cache,
                log,
                rid,
                &mut counters,
            ));
            layer.point_rss(app, peak_rss_mb());
        }
        layer.cache_hits += cache.hits();
        layer.cache_misses += cache.misses();
        let resident_mb = cache.bytes().total() as f64 / (1u64 << 20) as f64;
        layer.cache_resident_mb = layer.cache_resident_mb.max(resident_mb);
    }
    let traced_s = log.end(root);
    let secs = vec![Vec::new(); n];
    pool.check(refs, Round { secs, entries }, &mut report);

    layer.sweep_traced_s = traced_s;
    layer.overhead_frac = traced_s / untraced_s - 1.0;
    layer.emit(log, &counters, &mut report);
    Ok(report)
}
