//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <study|serve> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` it runs the named
//! workload for about `S` seconds and prints the end-to-end metrics; with
//! `--trace 1` it walks every layer once, timing each public call from
//! outside, and prints the per-layer metrics. Either way the last line of
//! stdout is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. A run whose outputs fail the correctness gate prints
//! `"correct": false` with no metrics and exits 1. See `README.md`.

mod gate;
mod loadgen;
mod measure;
mod serve;
mod study;

use std::path::{Path, PathBuf};
use std::time::Instant;

use measure::{median, peak_rss_mb, percentile};
use study::Layers;

/// Workers of the pipeline's executor in every timed phase: one worker
/// gives steadier walls than two on a two-core host.
const PIPELINE_WORKERS: usize = 1;
/// Distinct requests in the seeded serve plan; the schedule cycles it.
/// A closed-loop round is one whole cycle (the serve `wall_s`), and so is
/// one second of the open loop.
const PLAN_LEN: usize = 2000;
/// Open-loop request rate of the serve workload: about a fifth of the
/// closed-loop peak on a two-core host, low enough that queueing does not
/// amplify the noise of a shared host into the latency figures.
const OPEN_LOOP_RATE: f64 = PLAN_LEN as f64;
/// Open-loop requests per latency window (half a second): the smallest
/// window with ten samples beyond its p99.
const LATENCY_WINDOW: usize = 1000;
/// Cold start + open loop + closed loop sessions in one serve run.
const SERVE_SESSIONS: usize = 8;

const USAGE: &str = "usage: perfbench --workload <study|serve> --seed N --seconds S --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: write the serve workload's store file and exit.
    prepare_store: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2012u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut prepare_store = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--prepare-store" => prepare_store = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = match workload.as_deref() {
        Some(w @ ("study" | "serve")) => w.to_string(),
        Some(w) => return Err(format!("unknown workload {w:?}")),
        None if prepare_store.is_some() => String::new(),
        None => return Err("--workload is required".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        prepare_store,
    })
}

/// Why a run printed no numbers.
enum Failure {
    /// The correctness gate failed.
    Incorrect(String),
    /// The run could not complete.
    Error(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Error(e)
    }
}

impl From<taxitrace_core::Error> for Failure {
    fn from(e: taxitrace_core::Error) -> Self {
        Failure::Error(e.to_string())
    }
}

/// What a run prints: operation counts and named metrics with units.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn json(&self) -> Result<String, String> {
        let mut fields = Vec::with_capacity(self.metrics.len());
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Scratch directory for store files, inside the working directory and
/// removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        let dir = Path::new(".perfbench").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only removed when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench");
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2)
    });
    if let Some(path) = &args.prepare_store {
        if let Err(e) = serve::prepare_store(args.seed, path) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    taxitrace_exec::set_max_workers(PIPELINE_WORKERS);
    eprintln!(
        "perfbench: run record {{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"scale\": {}, \
         \"seconds\": {}, \"available_parallelism\": {}, \"pipeline_workers\": {}, \"server_workers\": {}}}",
        args.workload,
        u8::from(args.trace),
        args.seed,
        study::SCALE,
        args.seconds,
        nproc(),
        PIPELINE_WORKERS,
        nproc()
    );
    let result = WorkDir::create().map_err(Failure::from).and_then(|work| {
        if args.trace {
            traced(&args, &work)
        } else {
            match args.workload.as_str() {
                "study" => run_study(&args, &work),
                _ => run_serve(&args, &work),
            }
        }
    });
    match result.and_then(|r| r.json().map_err(Failure::from)) {
        Ok(line) => println!("{line}"),
        Err(Failure::Incorrect(e)) => {
            eprintln!("perfbench: correctness gate failed: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            std::process::exit(1);
        }
        Err(Failure::Error(e)) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Repeats `op` until `seconds` would be exceeded by one more median
/// operation (at least once); returns the walls.
fn repeat<F>(seconds: f64, mut op: F) -> Result<Vec<f64>, Failure>
where
    F: FnMut() -> Result<f64, Failure>,
{
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        walls.push(op()?);
        if start.elapsed().as_secs_f64() + median(&walls) > seconds {
            return Ok(walls);
        }
    }
}

fn run_study(args: &Args, work: &WorkDir) -> Result<Report, Failure> {
    let cfg = study::config(args.seed);
    let store = work.file("study.tts");
    let mut report = Report::default();
    let mut first: Option<(u64, String)> = None;
    // Set-up is sampled before every pass, so its median spans the run.
    let mut setups = Vec::new();
    let walls = repeat(args.seconds, || {
        setups.extend(study::setup_samples(args.seed, 5)?);
        let start = Instant::now();
        let (out, rendered) = study::pass(&cfg, &store)?;
        let wall = start.elapsed().as_secs_f64();
        let fp = gate::study_fingerprint(&out);
        match &first {
            None => first = Some((fp, rendered)),
            Some((f, r)) if *f != fp || *r != rendered => {
                return Err(Failure::Incorrect(
                    "study passes disagree with each other".into(),
                ))
            }
            Some(_) => {}
        }
        report.attempted += out.store.sessions().len() as u64;
        report.failed += out.quarantine.len() as u64;
        Ok(wall)
    })?;
    let rss = peak_rss_mb();
    // The stream path must converge to the same output (untimed).
    let (run, _) = study::stream_pass(&cfg)?;
    let batch = first.map_or(0, |(f, _)| f);
    gate::check_fingerprints(
        args.seed,
        batch,
        gate::study_fingerprint(&run.output),
        (gate::PINNED_SEED, gate::PINNED_FINGERPRINT),
    )
    .map_err(Failure::Incorrect)?;
    eprintln!(
        "perfbench: study fingerprint {batch:#018x}, {} passes",
        walls.len()
    );
    // An operation is one pass: its records all wait for its end, so the
    // latency percentiles are over pass walls.
    let wall = median(&walls);
    report.put("setup_s", median(&setups), "s");
    report.put("wall_s", wall, "s");
    report.put("peak_rss_mb", rss, "MB");
    report.put(
        "success_frac",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        "frac",
    );
    report.put("p50_us", wall * 1e6, "us");
    report.put("p99_us", percentile(&walls, 0.99) * 1e6, "us");
    report.put("peak_qps", 1.0 / wall, "1/s");
    Ok(report)
}

/// Writes the serve store in a child process, so the source's memory is
/// not the server's.
fn prepare_store_child(seed: u64, path: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg("--prepare-store")
        .arg(path)
        .arg("--seed")
        .arg(seed.to_string())
        .status()
        .map_err(|e| format!("spawn store writer: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("store writer failed: {status}"))
    }
}

fn run_serve(args: &Args, work: &WorkDir) -> Result<Report, Failure> {
    let cfg = study::config(args.seed);
    let store = work.file("serve.tts");
    prepare_store_child(args.seed, &store)?;
    let workers = nproc();
    // Each session is a cold start, an open-loop segment and a closed-loop
    // segment. Several short sessions, each with fresh server threads, keep
    // one unlucky thread placement or a slow stretch of the shared host
    // from setting a whole run's figures.
    let open_n = OPEN_LOOP_RATE as usize
        * ((0.5 * args.seconds / SERVE_SESSIONS as f64).round() as usize).max(1);
    let closed_s = 0.4 * args.seconds / SERVE_SESSIONS as f64;
    let first = serve::cold_start(&store, &cfg, workers)?;
    let plan = serve::plan(&first.server.snapshot(), args.seed, PLAN_LEN)?;
    let check = serve::BodyCheck::new(&plan);
    let mut report = Report::default();
    let (mut setups, mut p50s, mut p99s, mut rounds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut next = 0usize;
    let mut cold = Some(first);
    for _ in 0..SERVE_SESSIONS {
        let session = match cold.take() {
            Some(c) => c,
            None => serve::cold_start(&store, &cfg, workers)?,
        };
        setups.push(session.setup_s);
        let addr = session.server.addr();

        // Open loop at a fixed rate. Percentiles per window of
        // `LATENCY_WINDOW` requests: a stall of the shared host lifts the
        // windows it falls in, which the lower quartile below leaves out.
        let base = next;
        let samples = loadgen::open_loop(
            addr,
            open_n,
            OPEN_LOOP_RATE,
            workers,
            |j| check.path(base + j),
            |j, b| check.check(base + j, b),
        );
        next += open_n;
        for window in samples.chunks(LATENCY_WINDOW) {
            let latencies: Vec<f64> = window.iter().map(|s| s.latency_us).collect();
            p50s.push(median(&latencies));
            p99s.push(percentile(&latencies, 0.99));
        }
        report.attempted += samples.len() as u64;
        report.failed += samples.iter().filter(|s| !s.ok).count() as u64;

        // Closed loop with one connection per core.
        let closed_start = Instant::now();
        let mut n_rounds = 0;
        while n_rounds < 2 || closed_start.elapsed().as_secs_f64() < closed_s {
            let (wall, failed) = loadgen::closed_loop(
                addr,
                next,
                PLAN_LEN,
                workers,
                |j| check.path(j),
                |j, b| check.check(j, b),
            );
            next += PLAN_LEN;
            n_rounds += 1;
            rounds.push(wall);
            report.attempted += PLAN_LEN as u64;
            report.failed += failed as u64;
        }
        session.server.shutdown();
    }
    if let Some(e) = check.mismatch() {
        return Err(Failure::Incorrect(e));
    }
    // Each serve timing is the lower quartile over its samples: stalls of
    // a shared host only ever add time, and on a two-core host they hit
    // this workload's four busy threads often enough to move a median.
    let quiet = |xs: &[f64]| percentile(xs, 0.25);
    let round = quiet(&rounds);
    report.put("setup_s", quiet(&setups), "s");
    report.put("wall_s", round, "s");
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    report.put(
        "success_frac",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        "frac",
    );
    report.put("p50_us", quiet(&p50s), "us");
    report.put("p99_us", quiet(&p99s), "us");
    report.put("peak_qps", PLAN_LEN as f64 / round, "1/s");
    eprintln!(
        "perfbench: serve {} sessions, {} open-loop windows at {OPEN_LOOP_RATE}/s, {} closed-loop rounds",
        setups.len(),
        p99s.len(),
        rounds.len()
    );
    Ok(report)
}

/// The traced run: every layer once, each public call timed from outside,
/// plus what the pipeline's own spans and counters say. The same walk
/// whatever the workload, so every per-layer metric is always present.
fn traced(args: &Args, work: &WorkDir) -> Result<Report, Failure> {
    let cfg = study::config(args.seed);
    let store = work.file("trace.tts");
    let mut layers = Layers::new();
    let mut report = Report::default();
    layers.insert("host.available_parallelism".into(), nproc() as f64);
    layers.insert("run.pipeline_workers".into(), PIPELINE_WORKERS as f64);

    // Study: untraced and traced passes interleaved; the difference of
    // their median walls is the tracing overhead.
    let (mut untraced, mut traced_walls) = (Vec::new(), Vec::new());
    let mut out = None;
    for _ in 0..2 {
        let start = Instant::now();
        study::pass(&cfg, &store)?;
        untraced.push(start.elapsed().as_secs_f64());
        let (o, wall) = study::traced_pass(&cfg, &store, &mut layers)?;
        traced_walls.push(wall);
        out = Some(o);
    }
    let out = out.ok_or_else(|| "no traced pass ran".to_string())?;
    let (u, t) = (median(&untraced), median(&traced_walls));
    layers.insert("trace.untraced_wall_s".into(), u);
    layers.insert("trace.traced_wall_s".into(), t);
    layers.insert("trace.overhead_frac".into(), (t - u) / u);
    study::probe_layers(&cfg, &out, &store, &mut layers).map_err(Failure::Incorrect)?;
    let batch = gate::study_fingerprint(&out);
    report.attempted += (untraced.len() + traced_walls.len()) as u64;
    drop(out);

    // Ungated diagnostics: the study at one worker per core.
    taxitrace_exec::set_max_workers(nproc());
    let wide = taxitrace_core::Study::new(cfg.clone()).run()?;
    taxitrace_exec::set_max_workers(PIPELINE_WORKERS);
    for (stage, span) in [
        ("simulate", "study/simulate"),
        ("clean", "study/clean"),
        ("od", "study/od"),
        ("match_fuse", "study/match_fuse"),
    ] {
        layers.insert(
            format!("nproc.stage.{stage}_s"),
            wide.metrics.span_wall_s(span),
        );
    }
    study::exec_layers(&wide.metrics, "nproc.", &mut layers);
    drop(wide);

    // Stream.
    let (run, wall) = study::stream_pass(&cfg)?;
    let pinned = (gate::PINNED_SEED, gate::PINNED_FINGERPRINT);
    gate::check_fingerprints(
        args.seed,
        batch,
        gate::study_fingerprint(&run.output),
        pinned,
    )
    .map_err(Failure::Incorrect)?;
    let m = &run.output.metrics;
    let assemble = m.span_wall_s("study/clean")
        + m.span_wall_s("study/od")
        + m.span_wall_s("study/match_fuse");
    for (name, value) in [
        ("stream.wall_s", wall),
        ("stream.source_s", m.span_wall_s("study/simulate")),
        ("stream.engine_s", m.span_wall_s("study/stream")),
        ("stream.assemble_s", assemble),
        (
            "stream.backpressure_stalls",
            run.report.backpressure_stalls as f64,
        ),
        ("stream.max_queue_depth", run.report.max_queue_depth as f64),
        ("stream.trips_closed", run.report.trips_closed as f64),
    ] {
        layers.insert(name.into(), value);
    }
    report.attempted += 1;
    drop(run);

    // Serve: cold start over the traced pass's store, then each route.
    let workers = nproc();
    let cold = serve::cold_start(&store, &cfg, workers)?;
    layers.insert("serve.setup_s".into(), cold.setup_s);
    layers.insert("serve.open_s".into(), cold.open_s);
    let server = cold.server;
    let addr = server.addr();
    let snapshot = server.snapshot();
    let plan = serve::plan(&snapshot, args.seed, PLAN_LEN)?;
    let check = serve::BodyCheck::new(&plan);
    let mut connects = Vec::new();
    for (route, name) in serve::ROUTES.iter().enumerate() {
        let (mut answer, mut encode, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
        for p in plan.iter().filter(|p| p.route == route).take(200) {
            let start = Instant::now();
            let resp = taxitrace_core::QueryEngine::query(&*snapshot, &p.request)
                .map_err(|e| format!("{}: {e}", p.path))?;
            answer.push(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            let body = resp.to_json();
            encode.push(start.elapsed().as_secs_f64() * 1e6);
            bytes.push(body.len() as f64);
        }
        let (lat, conn) = serve::route_latencies(addr, &plan, route, 1000, &check);
        connects.extend(conn);
        report.attempted += lat.len() as u64;
        layers.insert(format!("core.answer_us.{name}"), median(&answer));
        layers.insert(format!("core.encode_us.{name}"), median(&encode));
        layers.insert(format!("core.body_bytes.{name}"), median(&bytes));
        layers.insert(format!("serve.latency_us.{name}.p50"), median(&lat));
        layers.insert(
            format!("serve.latency_us.{name}.p99"),
            percentile(&lat, 0.99),
        );
    }
    layers.insert("serve.connect_us".into(), median(&connects));
    // One second of the open loop, for the generator's own lateness.
    let n = OPEN_LOOP_RATE as usize;
    let samples = loadgen::open_loop(
        addr,
        n,
        OPEN_LOOP_RATE,
        workers,
        |j| check.path(j),
        |j, b| check.check(j, b),
    );
    let late: Vec<f64> = samples.iter().map(|s| s.late_us).collect();
    layers.insert("loadgen.late_us_p99".into(), percentile(&late, 0.99));
    report.attempted += samples.len() as u64;
    report.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    let served = server.registry().snapshot();
    layers.insert(
        "serve.shed".into(),
        served.counter("serve.shed_total").unwrap_or(0) as f64,
    );
    layers.insert(
        "serve.errors".into(),
        served.counter("serve.errors_total").unwrap_or(0) as f64,
    );
    drop(snapshot);
    server.shutdown();
    if let Some(e) = check.mismatch() {
        return Err(Failure::Incorrect(e));
    }

    for (name, value) in layers {
        let unit = unit_of(&name);
        report.metrics.push((name, value, unit));
    }
    Ok(report)
}

/// Unit of a per-layer metric, from its name.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_s") {
        "s"
    } else if name.contains("_us") {
        "us"
    } else if name.contains("_bytes") {
        "bytes"
    } else if name.ends_with("_frac") || name.ends_with("_rate") {
        "frac"
    } else {
        "count"
    }
}
