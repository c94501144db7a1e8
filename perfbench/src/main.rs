//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its result as the last stdout line;
//! `perfbench --bless` rewrites `refs.txt` from the current code.

use std::process::ExitCode;
use std::time::Instant;

use sparsepipe_bench::datasets::MatrixSet;
use sparsepipe_perfbench::digest::{entry_digest, point_key, Refs, REFS_PATH};
use sparsepipe_perfbench::spans::SpanLog;
use sparsepipe_perfbench::sweep::Pool;
use sparsepipe_perfbench::{serve, Report, Rng, Workload};

const USAGE: &str = "usage: perfbench --workload <sweep-vxm|serve-mix> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --bless";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
    })
}

/// Evaluates every point of `pool` untraced into `refs`.
fn bless_pool(pool: &Pool, refs: &mut Refs) -> Result<(), String> {
    let (datasets, _) = pool.load()?;
    let round = pool.sweep(&datasets, &pool.order(&mut Rng::new(0)));
    for (d, entries) in round.entries.into_iter().enumerate() {
        for (a, entry) in entries.into_iter().enumerate() {
            let key = point_key(pool.apps[a].name, pool.matrices[d].code(), pool.scale);
            refs.insert(key, entry_digest(&entry?));
        }
    }
    Ok(())
}

/// Rewrites `refs.txt` from the two pools: the sweep's and the serve
/// pool (every app on `ca`, `gy`, `bu`).
fn bless() -> Result<(), String> {
    let mut refs = Refs::default();
    for pool in Workload::ALL.into_iter().filter_map(Pool::of) {
        bless_pool(&pool, &mut refs)?;
    }
    let serve_pool = Pool {
        scale: serve::SCALE,
        apps: sparsepipe_apps::registry::all(),
        matrices: MatrixSet::Quick.ids(),
    };
    bless_pool(&serve_pool, &mut refs)?;
    std::fs::write(REFS_PATH, refs.render()).map_err(|e| format!("{REFS_PATH}: {e}"))?;
    eprintln!("blessed {} points into {REFS_PATH}", refs.len());
    Ok(())
}

fn run(args: &Args) -> Result<Report, String> {
    let refs = Refs::committed();
    if refs.is_empty() {
        return Err("no reference digests compiled in; run --bless".into());
    }
    if !args.trace {
        return match Pool::of(args.workload) {
            Some(pool) => sparsepipe_perfbench::sweep::run(&pool, args.seed, args.seconds, &refs),
            None => serve::run(args.seed, args.seconds, &refs),
        };
    }
    let mut log = SpanLog::new(Instant::now());
    let report = match Pool::of(args.workload) {
        Some(pool) => sparsepipe_perfbench::sweep::run_traced(&pool, args.seed, &refs, &mut log)?,
        None => serve::run_traced(args.seed, args.seconds, &refs, &mut log)?,
    };
    write_trace(args.workload, &log, &report)?;
    Ok(report)
}

/// Writes `out/<workload>.spans.jsonl` and `out/<workload>.layers.json`
/// beside this crate.
fn write_trace(w: Workload, log: &SpanLog, report: &Report) -> Result<(), String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let write = |name: String, text: String| {
        std::fs::write(format!("{dir}/{name}"), text).map_err(|e| format!("{dir}/{name}: {e}"))
    };
    write(format!("{}.spans.jsonl", w.name()), log.to_jsonl())?;
    write(
        format!("{}.layers.json", w.name()),
        format!("{}\n", report.to_json()),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--bless") {
        return match bless() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            if let Some(why) = &report.invalid {
                eprintln!("invalid run: {why}");
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
