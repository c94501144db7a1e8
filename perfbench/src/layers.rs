//! The traced path: one point evaluated by calling each layer's public
//! functions in turn, with a span around every call.
//!
//! This replays what `EvalRequest::run` does for a point — compile, the
//! two `SimRequest` runs configured through `sweep::sparsepipe_config`,
//! the matrix-profile surcharge and the four baselines — but makes the
//! cache builds explicit first, so that a `SimRequest` only hits the
//! cache and its span holds the vxm pipeline or the SpGEMM stage alone.
//! The [`Entry`] it assembles is checked against the same reference
//! digest as the untraced one, so both paths measure the same work.

use sparsepipe_apps::StaApp;
use sparsepipe_baselines::ideal::IdealAccelerator;
use sparsepipe_baselines::oracle::OracleAccelerator;
use sparsepipe_baselines::WorkloadInstance;
use sparsepipe_bench::datasets::ScaledDataset;
use sparsepipe_bench::sweep::{mxm_work, scaled_cpu, scaled_gpu, sparsepipe_config, Entry};
use sparsepipe_core::{
    MatrixArena, MatrixCache, MatrixProfile, MemoryConfig, PassPlan, SimRequest, SparsepipeConfig,
};
use sparsepipe_tensor::{reorder, MatrixId, MatrixStats};

use crate::spans::SpanLog;
use crate::{percentile, Report};

/// Exact work counts gathered at the layer boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `StaApp::compile` calls.
    pub compiles: u64,
    /// Pipeline steps of the vxm `SimRequest` runs.
    pub vxm_steps: u64,
    /// SpGEMM intermediate products of the mxm `SimRequest` runs.
    pub intermediate_nnz: u64,
    /// Datasets built.
    pub loads: u64,
}

/// Builds one dataset the way `SyntheticSource` does, one layer call at
/// a time.
pub fn load_dataset(
    id: MatrixId,
    scale: u64,
    log: &mut SpanLog,
    c: &mut Counters,
) -> ScaledDataset {
    let matrix = log.span("datasets.generate", 0, |_| id.spec().generate(scale));
    let reordered = log.span("datasets.reorder", 0, |_| {
        let perm = reorder::graph_order(&matrix.to_csr(), 64);
        matrix.permute_symmetric(&perm)
    });
    let stats = log.span("datasets.stats", 0, |_| MatrixStats::compute(&matrix));
    c.loads += 1;
    ScaledDataset {
        id,
        scale,
        matrix,
        reordered,
        stats,
    }
}

/// Evaluates `app` on `dataset` through the layers, recording spans
/// under request id `rid`.
///
/// # Errors
///
/// A message when compilation or a simulation fails.
pub fn eval_point(
    app: &StaApp,
    dataset: &ScaledDataset,
    scale: u64,
    cache: &MatrixCache,
    log: &mut SpanLog,
    rid: u64,
    c: &mut Counters,
) -> Result<Entry, String> {
    let program = log
        .span("frontend.compile", rid, |_| app.compile())
        .map_err(|e| format!("{}: compile: {e}", app.name))?;
    c.compiles += 1;
    let iterations = app.default_iterations;
    let cfg = sparsepipe_config(dataset);
    let cfg_cpu = SparsepipeConfig {
        memory: MemoryConfig::ddr4(),
        ..cfg
    };
    let matrix = &dataset.reordered;
    let key = MatrixCache::key_for(dataset.id.code(), matrix);
    let reorder_kind = cfg.preprocessing.reorder;
    let t_of = |c: &SparsepipeConfig| c.subtensor_auto(matrix.ncols(), matrix.nnz());
    let mxm = program.profile.mxm_passes > 0;

    // Cache builds first, so the simulations below only hit the cache.
    if mxm {
        log.span("cache.arena", rid, |_| {
            cache.arena(key, || MatrixArena::from_coo(matrix))
        });
    } else {
        for t in [t_of(&cfg), t_of(&cfg_cpu)] {
            log.span("cache.plan", rid, |_| {
                cache.plan(key, reorder_kind, t, || PassPlan::build(matrix, t))
            });
        }
    }

    let sim_layer = if mxm { "spgemm" } else { "engine.vxm" };
    let (gpu, cpu) = log.span(sim_layer, rid, |_| {
        let run = |cfg: SparsepipeConfig| {
            SimRequest::new(&program, matrix)
                .iterations(iterations)
                .config(cfg)
                .cache(cache, key)
                .run()
        };
        (run(cfg), run(cfg_cpu))
    });
    let sim_err =
        |e: sparsepipe_core::CoreError| format!("{}-{}: {e}", app.name, dataset.id.code());
    let (gpu, cpu) = (gpu.map_err(sim_err)?, cpu.map_err(sim_err)?);
    for run in [&gpu, &cpu] {
        match &run.mxm {
            Some(stats) => c.intermediate_nnz += stats.intermediate_nnz,
            None => c.vxm_steps += run.telemetry.sim_steps,
        }
    }

    let work = if mxm {
        let t = t_of(&cfg);
        let profile = log.span("cache.profile", rid, |log| {
            cache.profile(key, reorder_kind, t, || {
                let plan = log.span("cache.plan", rid, |_| {
                    cache.plan(key, reorder_kind, t, || PassPlan::build(matrix, t))
                });
                MatrixProfile::build(&plan)
            })
        });
        mxm_work(&program.profile, &profile)
    } else {
        None
    };

    let (ideal, oracle, cpu_model, gpu_model) = log.span("baselines", rid, |_| {
        let w = WorkloadInstance {
            profile: &program.profile,
            n: dataset.matrix.nrows() as u64,
            nnz: dataset.matrix.nnz() as u64,
            stats: &dataset.stats,
            iterations,
            mxm: work,
        };
        (
            IdealAccelerator::new(cfg).evaluate(&w),
            OracleAccelerator::new(cfg).evaluate(&w),
            scaled_cpu(scale).evaluate(&w),
            scaled_gpu(scale).evaluate(&w),
        )
    });

    Ok(Entry {
        app: app.name,
        matrix: dataset.id,
        has_oei: program.profile.has_oei,
        iterations,
        sim: gpu.report,
        sim_iso_cpu: cpu.report,
        ideal,
        oracle,
        cpu: cpu_model,
        gpu: gpu_model,
    })
}

/// The per-layer metrics of a traced run. Every workload reports every
/// metric; a layer a workload leaves idle reads 0.
#[derive(Debug, Default)]
pub struct PerLayer {
    /// Matrix-cache lookups served from the cache.
    pub cache_hits: u64,
    /// Matrix-cache lookups that had to build.
    pub cache_misses: u64,
    /// Matrix-cache resident bytes at the end, in MB.
    pub cache_resident_mb: f64,
    /// Largest per-point peak RSS over the vxm points, in MB.
    pub point_rss_max_mb_vxm: f64,
    /// Largest per-point peak RSS over the mxm points, in MB.
    pub point_rss_max_mb_mxm: f64,
    /// Duration of the traced sweep.
    pub sweep_traced_s: f64,
    /// Median per-request encode time (request plus response), ms.
    pub wire_encode_ms: f64,
    /// Median per-request decode time (request plus response), ms.
    pub wire_decode_ms: f64,
    /// Per-request `EvalSpec::run_local` time on the warm cache, ms.
    pub service_ms: Vec<f64>,
    /// Per-request latency minus service and codec time, ms.
    pub wait_ms: Vec<f64>,
    /// Longest admission queue seen.
    pub queue_len_max: u64,
    /// Requests the daemon refused.
    pub rejected: u64,
    /// 99th percentile of how late the open loop sent, ms.
    pub late_ms_p99: f64,
    /// Traced over untraced end-to-end time, minus one.
    pub overhead_frac: f64,
}

impl PerLayer {
    /// Records one point's peak RSS under its family.
    pub fn point_rss(&mut self, app: &StaApp, mb: f64) {
        let slot = if crate::is_mxm(app) {
            &mut self.point_rss_max_mb_mxm
        } else {
            &mut self.point_rss_max_mb_vxm
        };
        *slot = slot.max(mb);
    }

    /// Appends every per-layer metric to `report`.
    pub fn emit(&self, log: &SpanLog, c: &Counters, report: &mut Report) {
        let times = log.self_time_by_name();
        let s = |name: &str| times.get(name).copied().unwrap_or(0.0);
        let per = |total_s: f64, count: u64| {
            if count == 0 {
                0.0
            } else {
                total_s * 1e9 / count as f64
            }
        };
        let pct = |v: &[f64], p: f64| percentile(v, p);
        let lookups = self.cache_hits + self.cache_misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        };
        let r = report;
        r.metric("datasets.generate_s", s("datasets.generate"), "s");
        r.metric("datasets.reorder_s", s("datasets.reorder"), "s");
        r.metric("datasets.stats_s", s("datasets.stats"), "s");
        r.metric("datasets.loads", c.loads as f64, "count");
        r.metric("frontend.compile_s", s("frontend.compile"), "s");
        r.metric("frontend.compiles", c.compiles as f64, "count");
        r.metric("cache.plan_build_s", s("cache.plan"), "s");
        r.metric("cache.profile_build_s", s("cache.profile"), "s");
        r.metric("cache.arena_build_s", s("cache.arena"), "s");
        r.metric("cache.hits", self.cache_hits as f64, "count");
        r.metric("cache.misses", self.cache_misses as f64, "count");
        r.metric("cache.hit_rate", hit_rate, "ratio");
        r.metric("cache.resident_mb", self.cache_resident_mb, "MB");
        r.metric("engine.vxm_s", s("engine.vxm"), "s");
        r.metric("engine.vxm_steps", c.vxm_steps as f64, "count");
        r.metric(
            "engine.ns_per_step",
            per(s("engine.vxm"), c.vxm_steps),
            "ns",
        );
        r.metric("spgemm.s", s("spgemm"), "s");
        r.metric(
            "spgemm.intermediate_nnz",
            c.intermediate_nnz as f64,
            "count",
        );
        r.metric(
            "spgemm.ns_per_product",
            per(s("spgemm"), c.intermediate_nnz),
            "ns",
        );
        r.metric("baselines.s", s("baselines"), "s");
        r.metric("sweep.traced_s", self.sweep_traced_s, "s");
        r.metric("sweep.other_s", s("sweep"), "s");
        r.metric(
            "sweep.point_rss_max_mb.vxm",
            self.point_rss_max_mb_vxm,
            "MB",
        );
        r.metric(
            "sweep.point_rss_max_mb.mxm",
            self.point_rss_max_mb_mxm,
            "MB",
        );
        r.metric("wire.encode_ms", self.wire_encode_ms, "ms");
        r.metric("wire.decode_ms", self.wire_decode_ms, "ms");
        r.metric("serve.service_ms_p50", pct(&self.service_ms, 50.0), "ms");
        r.metric("serve.service_ms_p99", pct(&self.service_ms, 99.0), "ms");
        r.metric("serve.wait_ms_p50", pct(&self.wait_ms, 50.0), "ms");
        r.metric("serve.wait_ms_p99", pct(&self.wait_ms, 99.0), "ms");
        r.metric("serve.queue_len_max", self.queue_len_max as f64, "count");
        r.metric("serve.rejected", self.rejected as f64, "count");
        r.metric("loadgen.late_ms_p99", self.late_ms_p99, "ms");
        r.metric("trace.overhead_frac", self.overhead_frac, "ratio");
    }
}
