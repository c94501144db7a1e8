//! The `serve-mix` workload: an in-process daemon with 2 workers serving
//! the 45-point `serve-loadgen` pool (15 apps × `ca`, `gy`, `bu` at scale
//! 256), driven through the public wire API.
//!
//! Sub-millisecond points share the queue with ~50 ms `bu` mxm points,
//! so head-of-line waiting shows in p99, and the SpGEMM stage takes most
//! of the pool's service time. The open loop sends seeded Poisson
//! arrivals at a fixed rate of a fifth or less of the closed-loop rate on
//! a 2-core machine: at 90 requests/s, service-time swings from other
//! tenants of a shared host pushed the median latency from 1.2 ms to
//! 8.6 ms between runs. The rate is a constant, so every commit is
//! offered the same load.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sparsepipe_bench::datasets::{MatrixSet, ScaledDataset};
use sparsepipe_bench::serve::loadgen;
use sparsepipe_bench::serve::proto::{read_frame, write_frame, MAX_FRAME_DEFAULT};
use sparsepipe_bench::serve::{EvalSpec, Request, Response, ServeConfig, Server};
use sparsepipe_core::MatrixCache;

use crate::digest::{entry_digest, point_key, value_digest, Refs};
use crate::layers::{eval_point, load_dataset, Counters, PerLayer};
use crate::spans::SpanLog;
use crate::{peak_rss_mb, percentile, reset_peak_rss, Report, Rng};

/// Dataset scale of every pool point.
pub const SCALE: u64 = 256;
/// Open-loop arrival rate.
pub const RATE_RPS: f64 = 60.0;
/// The open loop has fallen behind, and the run is invalid, when its
/// median send runs later than this. Sends wait for absolute due times,
/// so a send delayed by the scheduler does not delay the ones after it,
/// and latency is timed from the due time, so such a delay is already
/// charged to the request; only a generator late on most sends fails to
/// offer the scheduled load.
const LATE_LIMIT_MS: f64 = 10.0;
/// How long a reply may take before the connection counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// The latency charged to a failed or refused request: beyond any limit.
const FAILED_MS: f64 = 60_000.0;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Serial passes over the pool per run; `sweep_s` is the fastest (see
/// [`crate::sweep`]).
const PASS_REPEATS: usize = 15;
/// Workers and closed-loop connections.
const WORKERS: usize = 2;

/// The 45-point pool, registry order within each matrix.
pub fn pool() -> Vec<EvalSpec> {
    loadgen::workload(MatrixSet::Quick, SCALE, None)
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(stream)
}

fn encode(id: u64, spec: &EvalSpec) -> String {
    Request::Eval {
        id,
        spec: spec.clone(),
    }
    .encode()
}

fn recv(stream: &mut TcpStream) -> io::Result<String> {
    read_frame(stream, MAX_FRAME_DEFAULT)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection"))
}

/// A reply frame, decoded (with a `wire.decode` span when traced).
/// Returns the echoed id and the digest-checked outcome.
fn check_reply(
    text: &str,
    specs: &dyn Fn(u64) -> Option<EvalSpec>,
    refs: &Refs,
    log: Option<&mut SpanLog>,
) -> (Option<u64>, Result<(), String>) {
    let decoded = match log {
        Some(log) => {
            let idx = log.begin("wire.decode", 0);
            let r = Response::decode(text);
            log.end(idx);
            if let Ok(Response::Entry { id, .. } | Response::Error { id, .. }) = &r {
                log.set_rid(idx, *id);
            }
            r
        }
        None => Response::decode(text),
    };
    match decoded {
        Ok(Response::Entry { id, entry, .. }) => match specs(id) {
            Some(spec) => {
                let key = point_key(&spec.app, &spec.matrix, spec.scale);
                (Some(id), refs.check(&key, &value_digest(&entry)))
            }
            None => (Some(id), Err(format!("reply for unknown request id {id}"))),
        },
        Ok(Response::Error {
            id, code, message, ..
        }) => (Some(id), Err(format!("request {id}: [{code}] {message}"))),
        Ok(_) => (None, Err("unexpected reply type".to_string())),
        Err(e) => (None, Err(format!("undecodable reply: {e}"))),
    }
}

fn start() -> Result<Server, String> {
    Server::start(ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("daemon failed to start: {e}"))
}

/// One request per pool point on one connection, each sent after the
/// previous reply; returns the pass's seconds.
fn serial_pass(addr: SocketAddr, pool: &[EvalSpec], refs: &Refs, report: &mut Report) -> f64 {
    let started = Instant::now();
    let mut replies: Vec<io::Result<String>> = Vec::with_capacity(pool.len());
    match connect(addr) {
        Ok(mut stream) => {
            for (i, spec) in pool.iter().enumerate() {
                let reply = write_frame(&mut stream, &encode(i as u64, spec))
                    .and_then(|()| recv(&mut stream));
                let failed = reply.is_err();
                replies.push(reply);
                if failed {
                    break;
                }
            }
        }
        Err(e) => replies.push(Err(e)),
    }
    let secs = started.elapsed().as_secs_f64();
    let spec_of = |id: u64| pool.get(id as usize).cloned();
    for i in 0..pool.len() {
        report.check(match replies.get(i) {
            Some(Ok(text)) => check_reply(text, &spec_of, refs, None).1,
            Some(Err(e)) => Err(format!("request {i}: {e}")),
            None => Err(format!("request {i}: not sent after a connection failure")),
        });
    }
    secs
}

/// Starts the daemon and warms it with one request per pool point.
fn setup(pool: &[EvalSpec], refs: &Refs, report: &mut Report) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let server = start()?;
    serial_pass(server.addr(), pool, refs, report);
    Ok((server, started.elapsed().as_secs_f64()))
}

/// What the open loop saw, indexed by request id.
struct OpenLoop {
    /// Pool index of each request.
    spec_idx: Vec<usize>,
    /// Encoded request frames.
    requests: Vec<String>,
    /// Latency from due time to reply, ms (`FAILED_MS` when failed).
    latency_ms: Vec<f64>,
    /// How late each send started, ms.
    late_ms: Vec<f64>,
    /// Longest admission queue seen (traced runs only).
    queue_len_max: u64,
}

/// Seeded Poisson arrivals at [`RATE_RPS`], pipelined on one connection
/// by a sender (this thread) and a receiver thread; replies are matched
/// by id. Requests are encoded before the clock starts, so the loop
/// times only the daemon and the connection.
fn open_loop(
    server: &Server,
    pool: &[EvalSpec],
    n: usize,
    seed: u64,
    refs: &Refs,
    report: &mut Report,
    mut log: Option<&mut SpanLog>,
) -> OpenLoop {
    let mut rng = Rng::new(seed);
    let mut due_s = Vec::with_capacity(n);
    let mut spec_idx = Vec::with_capacity(n);
    let mut t = 0.0;
    for _ in 0..n {
        t += rng.exp(1.0 / RATE_RPS);
        due_s.push(t);
        spec_idx.push(rng.below(pool.len()));
    }
    let requests: Vec<String> = (0..n)
        .map(|i| match log.as_deref_mut() {
            Some(log) => log.span("wire.encode", i as u64, |_| {
                encode(i as u64, &pool[spec_idx[i]])
            }),
            None => encode(i as u64, &pool[spec_idx[i]]),
        })
        .collect();
    let sample_queue = log.is_some();

    let mut late_ms = vec![0.0; n];
    let mut latency_ms = vec![FAILED_MS; n];
    let mut queue_len_max = 0;
    let mut frames = Vec::new();
    match connect(server.addr()).and_then(|s| Ok((s.try_clone()?, s))) {
        Ok((mut reader, mut writer)) => {
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                let rx = scope.spawn(move || {
                    let mut got = Vec::with_capacity(n);
                    let mut qmax = 0;
                    while got.len() < n {
                        let Ok(text) = recv(&mut reader) else { break };
                        got.push((t0.elapsed().as_secs_f64(), text));
                        if sample_queue {
                            qmax = qmax.max(server.stats().queue_len);
                        }
                    }
                    (got, qmax)
                });
                for i in 0..n {
                    let due = t0 + Duration::from_secs_f64(due_s[i]);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    late_ms[i] = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                    if write_frame(&mut writer, &requests[i]).is_err() {
                        break;
                    }
                }
                let _ = writer.shutdown(std::net::Shutdown::Write);
                (frames, queue_len_max) = rx.join().expect("receiver thread panicked");
            });
        }
        Err(e) => report.check(Err(format!("open loop cannot connect: {e}"))),
    }

    let spec_of = |id: u64| spec_idx.get(id as usize).map(|&i| pool[i].clone());
    let mut answered = vec![false; n];
    for (recv_s, text) in &frames {
        let (id, outcome) = check_reply(text, &spec_of, refs, log.as_deref_mut());
        let ok = outcome.is_ok();
        report.check(outcome);
        if let Some(id) = id.filter(|&id| (id as usize) < n && !answered[id as usize]) {
            answered[id as usize] = true;
            if ok {
                latency_ms[id as usize] = (recv_s - due_s[id as usize]) * 1e3;
            }
        }
    }
    for (i, _) in answered.iter().enumerate().filter(|(_, a)| !**a) {
        report.check(Err(format!("request {i}: no reply")));
    }
    OpenLoop {
        spec_idx,
        requests,
        latency_ms,
        late_ms,
        queue_len_max,
    }
}

/// Two connections, each sending its next request when the previous
/// reply arrives, in whole passes over the pool (each pass a seeded
/// permutation of it), until `seconds` have passed.
///
/// Returns the saturation rate: the sum over the connections of pool
/// size over the connection's fastest pass. Every pass is the same work,
/// so its fastest one is the rate on a quiet host (see [`crate::sweep`]).
/// A pass's time is the sum of its round trips: each reply is checked as
/// it arrives, outside that time, so that replies are not held in memory
/// and `peak_rss_mb` does not grow with the rate.
fn closed_loop(
    server: &Server,
    pool: &[EvalSpec],
    seconds: f64,
    seed: u64,
    refs: &Refs,
    report: &mut Report,
    log: Option<&mut SpanLog>,
) -> f64 {
    let traced = log.is_some();
    let origin = Instant::now();
    let stop = origin + Duration::from_secs_f64(seconds);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS as u64)
            .map(|k| {
                scope.spawn(move || {
                    let mut rng = Rng::new(seed ^ (k + 1).wrapping_mul(0xA24B_AED4_963E_E407));
                    let mut thread_log = SpanLog::new(origin);
                    let mut outcomes = Vec::new();
                    let mut best_pass_s = f64::INFINITY;
                    let mut error = None;
                    match connect(server.addr()) {
                        Ok(mut stream) => {
                            // Ids above 2^32 keep these apart from the open loop's.
                            let mut id = (k + 1) << 32;
                            'passes: while best_pass_s.is_infinite() || Instant::now() < stop {
                                let mut order: Vec<usize> = (0..pool.len()).collect();
                                rng.shuffle(&mut order);
                                let mut pass_s = 0.0;
                                for idx in order {
                                    let text = if traced {
                                        thread_log
                                            .span("wire.encode", id, |_| encode(id, &pool[idx]))
                                    } else {
                                        encode(id, &pool[idx])
                                    };
                                    let sent = Instant::now();
                                    match write_frame(&mut stream, &text)
                                        .and_then(|()| recv(&mut stream))
                                    {
                                        Ok(reply) => {
                                            pass_s += sent.elapsed().as_secs_f64();
                                            let spec_of =
                                                |got: u64| (got == id).then(|| pool[idx].clone());
                                            let log = traced.then_some(&mut thread_log);
                                            outcomes
                                                .push(check_reply(&reply, &spec_of, refs, log).1);
                                        }
                                        Err(e) => {
                                            error = Some(format!("closed loop: {e}"));
                                            break 'passes;
                                        }
                                    }
                                    id += 1;
                                }
                                best_pass_s = best_pass_s.min(pass_s);
                            }
                        }
                        Err(e) => error = Some(format!("closed loop cannot connect: {e}")),
                    }
                    (outcomes, error, best_pass_s, thread_log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let rps = results.iter().map(|r| pool.len() as f64 / r.2).sum::<f64>();
    let mut log = log;
    for (outcomes, error, _, thread_log) in results {
        if let Some(log) = log.as_deref_mut() {
            log.absorb(thread_log);
        }
        for outcome in outcomes {
            report.check(outcome);
        }
        if let Some(e) = error {
            report.check(Err(e));
        }
    }
    rps
}

/// Open-loop requests per run: two thirds of `seconds` of arrivals at
/// [`RATE_RPS`], a count that does not depend on the seed.
fn open_requests(seconds: f64) -> usize {
    (RATE_RPS * seconds * 2.0 / 3.0).round().max(1.0) as usize
}

/// Length of a closed-loop phase: the third of `seconds` the open loop
/// leaves.
fn closed_seconds(seconds: f64) -> f64 {
    seconds / 3.0
}

fn open_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED
}

/// The untraced run.
///
/// # Errors
///
/// When the daemon cannot start.
pub fn run(seed: u64, seconds: f64, refs: &Refs) -> Result<Report, String> {
    let pool = pool();
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            Server::shutdown(old);
        }
        let (s, secs) = setup(&pool, refs, &mut report)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one setup");
    let passes: Vec<f64> = (0..PASS_REPEATS)
        .map(|_| serial_pass(server.addr(), &pool, refs, &mut report))
        .collect();
    let open = open_loop(
        &server,
        &pool,
        open_requests(seconds),
        open_seed(seed),
        refs,
        &mut report,
        None,
    );
    let sat_rps = closed_loop(
        &server,
        &pool,
        closed_seconds(seconds),
        seed,
        refs,
        &mut report,
        None,
    );
    server.shutdown();

    let late_p50 = percentile(&open.late_ms, 50.0);
    if late_p50 > LATE_LIMIT_MS {
        report.invalid = Some(format!(
            "open loop fell behind: median send {late_p50:.2} ms late"
        ));
    }
    report.metric("setup_s", percentile(&setups, 50.0), "s");
    report.metric(
        "sweep_s",
        passes.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("p50_ms", percentile(&open.latency_ms, 50.0), "ms");
    report.metric("p99_ms", percentile(&open.latency_ms, 99.0), "ms");
    report.metric("sat_rps", sat_rps, "1/s");
    Ok(report)
}

/// The traced run: one setup, an untraced and a traced closed loop
/// (their ratio is the tracing overhead), the open loop with the queue
/// sampled after each reply, then a replay of every open-loop request
/// through `EvalSpec::run_local` on the daemon's warm cache with the
/// codec timed around it, and one layer-by-layer pass over the pool.
///
/// # Errors
///
/// When the daemon cannot start.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    refs: &Refs,
    log: &mut SpanLog,
) -> Result<Report, String> {
    let pool = pool();
    let mut report = Report::default();
    let mut layer = PerLayer::default();
    let mut counters = Counters::default();
    let (server, _) = setup(&pool, refs, &mut report)?;
    let cache: &MatrixCache = server.cache();

    let untraced_rps = closed_loop(
        &server,
        &pool,
        closed_seconds(seconds),
        seed,
        refs,
        &mut report,
        None,
    );
    let (hits, misses) = (cache.hits(), cache.misses());
    let open = open_loop(
        &server,
        &pool,
        open_requests(seconds),
        open_seed(seed),
        refs,
        &mut report,
        Some(log),
    );
    layer.cache_hits = cache.hits() - hits;
    layer.cache_misses = cache.misses() - misses;
    let traced_rps = closed_loop(
        &server,
        &pool,
        closed_seconds(seconds),
        seed,
        refs,
        &mut report,
        Some(log),
    );
    layer.overhead_frac = untraced_rps / traced_rps - 1.0;
    layer.queue_len_max = open.queue_len_max;
    layer.rejected = server.stats().rejected;
    layer.late_ms_p99 = percentile(&open.late_ms, 99.0);
    layer.cache_resident_mb = cache.bytes().total() as f64 / (1u64 << 20) as f64;

    let datasets: Vec<ScaledDataset> = MatrixSet::Quick
        .ids()
        .iter()
        .map(|&id| load_dataset(id, SCALE, log, &mut counters))
        .collect();
    let dataset_of = |spec: &EvalSpec| datasets.iter().find(|d| d.id.code() == spec.matrix);
    let n = open.requests.len() as u64;
    // Server-side decode plus encode per request: the codec time inside
    // each open-loop latency (the client encoded before the due time and
    // decoded after the reply was timed).
    let mut server_codec_ms = vec![0.0; open.requests.len()];
    for (i, text) in open.requests.iter().enumerate() {
        let rid = i as u64;
        let span = log.begin("wire.decode", rid);
        let decoded = Request::decode(text);
        let mut codec_s = log.end(span);
        let outcome = match (decoded, dataset_of(&pool[open.spec_idx[i]])) {
            (Ok(Request::Eval { id, spec }), Some(dataset)) => log
                .span("serve.service", rid, |_| spec.run_local(dataset, cache))
                .map_err(|e| e.to_string())
                .and_then(|o| {
                    let entry = o.evaluation.entry;
                    let span = log.begin("wire.encode", rid);
                    let value = serde::Serialize::to_value(&entry);
                    Response::Entry {
                        id,
                        attempts: 1,
                        entry: value,
                    }
                    .encode();
                    codec_s += log.end(span);
                    let key = point_key(&spec.app, &spec.matrix, spec.scale);
                    refs.check(&key, &entry_digest(&entry))
                }),
            _ => Err(format!("request {i} does not replay")),
        };
        server_codec_ms[i] = codec_s * 1e3;
        report.check(outcome);
    }
    // The layer-by-layer pass builds into a fresh cache per matrix (the
    // pool is matrix-major), so that the cache builds show; the daemon is
    // idle, so the high-water mark read around each point is this point's.
    let mut pass_cache = (String::new(), MatrixCache::new());
    for (j, spec) in pool.iter().enumerate() {
        let (Some(app), Some(dataset)) = (
            sparsepipe_apps::registry::by_name(&spec.app),
            dataset_of(spec),
        ) else {
            report.check(Err(format!("pool point {} does not resolve", spec.app)));
            continue;
        };
        if pass_cache.0 != spec.matrix {
            pass_cache = (spec.matrix.clone(), MatrixCache::new());
        }
        reset_peak_rss().map_err(|e| format!("cannot reset VmHWM: {e}"))?;
        let key = point_key(&spec.app, &spec.matrix, spec.scale);
        report.check(
            eval_point(
                &app,
                dataset,
                SCALE,
                &pass_cache.1,
                log,
                n + j as u64,
                &mut counters,
            )
            .and_then(|e| refs.check(&key, &entry_digest(&e))),
        );
        layer.point_rss(&app, peak_rss_mb());
    }
    server.shutdown();

    let ms = |m: &std::collections::BTreeMap<u64, f64>, rid: u64| {
        m.get(&rid).copied().unwrap_or(0.0) * 1e3
    };
    let enc = log.duration_by_rid("wire.encode");
    let dec = log.duration_by_rid("wire.decode");
    let svc = log.duration_by_rid("serve.service");
    let rids = 0..n;
    layer.service_ms = rids.clone().map(|r| ms(&svc, r)).collect();
    layer.wait_ms = rids
        .clone()
        .map(|r| {
            let i = r as usize;
            (open.latency_ms[i] - ms(&svc, r) - server_codec_ms[i]).max(0.0)
        })
        .collect();
    layer.wire_encode_ms = percentile(&rids.clone().map(|r| ms(&enc, r)).collect::<Vec<_>>(), 50.0);
    layer.wire_decode_ms = percentile(&rids.map(|r| ms(&dec, r)).collect::<Vec<_>>(), 50.0);
    layer.emit(log, &counters, &mut report);
    Ok(report)
}
