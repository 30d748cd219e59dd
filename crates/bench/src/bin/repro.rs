//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p taxitrace-bench --bin repro -- [--seed N] [--scale F] <experiment>
//! ```
//!
//! Experiments: `fig2 table1 table2 table3 table4 table5 fig3 fig4 fig5
//! fig6 fig7 fig8 fig9 fig10 validation ablation-thick ablation-lookahead
//! ablation-rules ablation-grid all`.
//!
//! `repro fingerprint` (not part of `all`) prints `StudyOutput::fingerprint`
//! of the full pipeline output as `study fingerprint 0x…`, the same line
//! `repro stream` and `repro ingest` print, so scripts can assert that
//! every front door and every `--threads` setting converge on one study.
//! Timings live in the repository benchmark (`perfbench/`), not here.
//!
//! `--threads N` pins the worker pool (oversubscription allowed, so
//! multi-worker interleavings are exercisable on any host); the default
//! sizes workers to the machine.
//!
//! `--metrics <table|json|prometheus>` renders the study's full
//! observability snapshot — stage/sub-stage spans, per-stage counters,
//! executor and gap-fill-cache stats — to stderr, or to a file with
//! `--metrics-out <path>` (which implies `--metrics json` unless a format
//! is given). Neither flag touches stdout, so experiment output stays
//! byte-identical to the committed baseline.
//!
//! `--chaos <plan>` loads a fault plan (`key value` lines, see
//! `taxitrace_traces::FaultPlan::parse`) and runs the study under it:
//! injected trace faults are quarantined, injected task panics are
//! isolated, and stage error budgets decide whether the degraded run
//! still counts. `--checkpoint-dir <dir>` checkpoints the simulated
//! sessions there and resumes interrupted runs (chaos kills, failed
//! checkpoint writes) from them, recomputing every later stage. A quarantine
//! summary goes to stderr; stdout stays the byte-exact experiment
//! surface.
//!
//! `--store <file>` replays the study from a persisted trip store instead
//! of simulating: the file is read through the salvage path, damaged
//! records are quarantined with typed reasons and `store.*` corruption
//! metrics appear in `--metrics` output. Three maintenance subcommands
//! manage such files: `store-save <file>` writes one, `store-corrupt
//! --chaos <plan> <file>` applies a plan's seeded disk faults to it, and
//! `fsck [--repair] <path>` integrity-scans (and repairs) stores and
//! checkpoints.
//!
//! `repro stream` runs the same study as a live feed — points in arrival
//! order through a bounded queue, trips closed by the watermark, cleaned
//! incrementally — and prints the pipeline fingerprint it converges to,
//! which equals the batch fingerprint (see `DESIGN.md` §15). `--chaos`
//! adds stream faults (kill, late flood, burst, stall, garble) and
//! `--checkpoint-dir` makes killed runs resume from the stream cursor.
//!
//! Absolute values come from the calibrated simulator, not the authors'
//! taxis; the point of each experiment is the *shape* comparison printed
//! alongside the paper's published numbers (see `EXPERIMENTS.md`).

use std::collections::HashMap;
use std::sync::OnceLock;

use taxitrace_cleaning::{clean_session, validate_segments, CleaningConfig, SegmentationConfig};
use taxitrace_core::{
    directional_speeds, mixed_model, render_table1, render_table3, render_table4,
    render_table5, seasonal_deltas, seasonal_speeds, temperature_analysis, Source, Study,
    StudyConfig, StudyOutput, Table4,
};
use taxitrace_geo::{CellId, Corridor, Grid, Point};
use taxitrace_matching::{evaluate, CandidateIndex, MatchAccuracy, MatchConfig};
use taxitrace_obs::MetricsFormat;
use taxitrace_od::{OdAnalyzer, OdConfig, OdEndpoint};
use taxitrace_timebase::Season;
use taxitrace_traces::TaxiId;

struct Args {
    seed: u64,
    scale: f64,
    experiment: String,
    /// Path operand of the maintenance subcommands (`fsck`, `store-save`,
    /// `store-corrupt`, `export`, `ingest`, `mutate`).
    operand: Option<String>,
    /// Second path operand (`mutate <in> <out>`).
    operand2: Option<String>,
    /// Run the study from an external trace CSV instead of simulating.
    from_csv: Option<String>,
    /// External OSMX map to ingest the city from (with `--from-csv` or
    /// `ingest`); without it the synthetic city of the config is used.
    map: Option<String>,
    metrics: Option<MetricsFormat>,
    metrics_out: Option<String>,
    chaos: Option<String>,
    checkpoint_dir: Option<String>,
    /// Replay the study from this trip-store file instead of simulating.
    store: Option<String>,
    /// `fsck --repair`: rewrite/remove damaged files.
    repair: bool,
    /// Worker-pool override (`--threads N`); `None` sizes to the machine.
    threads: Option<usize>,
    /// `serve`: TCP port to bind (0 = ephemeral, the default).
    port: u16,
    /// `serve --shutdown-file PATH`: poll for this file and drain when
    /// it appears, instead of running until killed.
    shutdown_file: Option<String>,
}

impl Args {
    fn operand(&self, what: &str) -> &str {
        self.operand.as_deref().unwrap_or_else(|| die(what))
    }
}

fn parse_args() -> Args {
    let mut seed = 2012u64;
    let mut scale = 0.3f64;
    let mut experiment = None;
    let mut operand = None;
    let mut operand2 = None;
    let mut from_csv = None;
    let mut map = None;
    let mut metrics = None;
    let mut metrics_out = None;
    let mut chaos = None;
    let mut checkpoint_dir = None;
    let mut store = None;
    let mut repair = false;
    let mut threads = None;
    let mut port = 0u16;
    let mut shutdown_file = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a float"));
            }
            "--metrics" => {
                let fmt = it.next().unwrap_or_else(|| die("--metrics needs a format"));
                metrics = Some(MetricsFormat::parse(&fmt).unwrap_or_else(|| {
                    die("--metrics wants table, json or prometheus")
                }));
            }
            "--metrics-out" => {
                metrics_out =
                    Some(it.next().unwrap_or_else(|| die("--metrics-out needs a path")));
            }
            "--chaos" => {
                chaos = Some(it.next().unwrap_or_else(|| die("--chaos needs a plan path")));
            }
            "--checkpoint-dir" => {
                checkpoint_dir = Some(
                    it.next().unwrap_or_else(|| die("--checkpoint-dir needs a directory")),
                );
            }
            "--store" => {
                store = Some(it.next().unwrap_or_else(|| die("--store needs a path")));
            }
            "--from-csv" => {
                from_csv =
                    Some(it.next().unwrap_or_else(|| die("--from-csv needs a path")));
            }
            "--map" => {
                map = Some(it.next().unwrap_or_else(|| die("--map needs a path")));
            }
            "--repair" => repair = true,
            "--port" => {
                port = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--port needs a port number"));
            }
            "--shutdown-file" => {
                shutdown_file =
                    Some(it.next().unwrap_or_else(|| die("--shutdown-file needs a path")));
            }
            "--threads" => {
                threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| die("--threads needs a positive integer")),
                );
            }
            "--help" | "-h" => die(
                "usage: repro [--seed N] [--scale F] [--threads N] [--metrics FMT] \
                 [--metrics-out PATH] [--chaos PLAN] [--checkpoint-dir DIR] \
                 [--store FILE] <experiment>\n\
                 \n\
                 maintenance subcommands:\n\
                 \x20 repro store-save <file>              simulate and write a v3 trip store\n\
                 \x20 repro store-corrupt --chaos P <file> apply a plan's disk faults to a store\n\
                 \x20 repro fsck [--repair] <path>         integrity-scan store/checkpoint files\n\
                 \n\
                 serving subcommands:\n\
                 \x20 repro serve [--port P] [--threads N] [--shutdown-file PATH]\n\
                 \x20                                        run the HTTP query service\n\
                 \n\
                 streaming subcommand:\n\
                 \x20 repro stream [--chaos PLAN] [--checkpoint-dir DIR]\n\
                 \x20                                        run the study as a live stream\n\
                 \n\
                 ingestion subcommands (untrusted external formats):\n\
                 \x20 repro export <dir>                   simulate, write traces.csv + map.osmx\n\
                 \x20 repro ingest <traces.csv> [--map M]  run the study from external files\n\
                 \x20 repro mutate <in> <out> [--seed N]   apply the seeded fuzz mutator to a file\n\
                 \x20 repro <exp> --from-csv F [--map M]   run any experiment over ingested input\n\
                 \n\
                 exit codes: 0 success (possibly with quarantined records),\n\
                 \x20          2 I/O, config or usage error, 3 error budget exceeded",
            ),
            other => {
                if experiment.is_none() {
                    experiment = Some(other.to_string());
                } else if operand.is_none() {
                    operand = Some(other.to_string());
                } else if operand2.is_none() {
                    operand2 = Some(other.to_string());
                } else {
                    die(&format!("unexpected argument '{other}'"));
                }
            }
        }
    }
    Args {
        seed,
        scale,
        experiment: experiment.unwrap_or_else(|| String::from("all")),
        operand,
        operand2,
        from_csv,
        map,
        metrics,
        metrics_out,
        chaos,
        checkpoint_dir,
        store,
        repair,
        threads,
        port,
        shutdown_file,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Exit with the code class of a study failure: 3 when a stage blew its
/// error budget (the input was readable but too degraded to report
/// results from), 2 for everything else (I/O, config, pipeline errors).
/// Success with quarantined-but-within-budget records stays exit 0.
fn die_study(e: taxitrace_core::Error) -> ! {
    eprintln!("study failed: {e}");
    let code = match e {
        taxitrace_core::Error::BudgetExceeded { .. } => 3,
        _ => 2,
    };
    std::process::exit(code)
}

static OUTPUT: OnceLock<StudyOutput> = OnceLock::new();

/// The study configuration for this invocation: the baseline scaled
/// config, plus the chaos plan when `--chaos` names one.
fn study_config(args: &Args) -> StudyConfig {
    let mut config = StudyConfig::scaled(args.seed, args.scale);
    if let Some(path) = &args.chaos {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read chaos plan {path}: {e}")));
        let plan = taxitrace_core::FaultPlan::parse(&text)
            .unwrap_or_else(|e| die(&format!("bad chaos plan {path}: {e}")));
        config.chaos = Some(plan);
    }
    config.validate().unwrap_or_else(|e| die(&format!("bad study config: {e}")));
    config
}

/// Runs the study once. Without `--checkpoint-dir` a failure is final;
/// with it, an interrupted run (a chaos kill, a failed checkpoint write)
/// is resumed from the `simulate` checkpoint, a bounded number of times.
fn run_study(args: &Args) -> StudyOutput {
    let study = Study::new(study_config(args));
    let source = if let Some(csv) = &args.from_csv {
        if args.store.is_some() || args.checkpoint_dir.is_some() {
            die("--from-csv cannot be combined with --store or --checkpoint-dir");
        }
        Source::External {
            traces: std::path::Path::new(csv),
            map: args.map.as_deref().map(std::path::Path::new),
        }
    } else if let Some(store) = &args.store {
        if args.checkpoint_dir.is_some() {
            die("--store and --checkpoint-dir cannot be combined");
        }
        Source::Store(std::path::Path::new(store))
    } else {
        Source::Simulate
    };
    let Some(dir) = &args.checkpoint_dir else {
        return study.run_from(source).unwrap_or_else(|e| die_study(e));
    };
    let dir = std::path::Path::new(dir);
    let mut attempt = 0u32;
    loop {
        match study.run_with_checkpoints(dir) {
            Ok(out) => return out,
            Err(e) if attempt < 4 => {
                attempt += 1;
                eprintln!(
                    "[repro] study interrupted ({e}); resuming from {} (attempt {attempt})",
                    dir.display()
                );
            }
            Err(e) => {
                eprintln!("study failed after {attempt} resume(s)");
                die_study(e)
            }
        }
    }
}

fn output(args: &Args) -> &'static StudyOutput {
    OUTPUT.get_or_init(|| {
        eprintln!(
            "[repro] running study: seed {}, scale {} (full paper year = 1.0) ...",
            args.seed, args.scale
        );
        let out = run_study(args);
        eprintln!(
            "[repro] {} sessions, {} segments, {} transitions, {} transition points",
            out.cleaning.sessions,
            out.segments.len(),
            out.transitions.len(),
            out.total_transition_points()
        );
        if !out.quarantine.is_empty() {
            eprintln!(
                "[repro] quarantined {} record(s) by reason: {:?}",
                out.quarantine.len(),
                out.quarantine.by_reason()
            );
        }
        eprintln!();
        out
    })
}

fn main() {
    let args = parse_args();
    if let Some(n) = args.threads {
        taxitrace_exec::set_max_workers(n);
    }
    match args.experiment.as_str() {
        "store-save" => return cmd_store_save(&args),
        "store-corrupt" => return cmd_store_corrupt(&args),
        "fsck" => return cmd_fsck(&args),
        "export" => return cmd_export(&args),
        "ingest" => return cmd_ingest(&args),
        "mutate" => return cmd_mutate(&args),
        "serve" => return cmd_serve(&args),
        "stream" => return cmd_stream(&args),
        _ => {}
    }
    let all: Vec<&str> = vec![
        "fig2", "table1", "table2", "table3", "table4", "table5", "fig3", "fig4", "fig5", "fig6",
        "fig7", "fig8", "fig9", "fig10", "validation",
    ];
    match args.experiment.as_str() {
        "all" => {
            for e in all {
                run(e, &args);
            }
        }
        e => run(e, &args),
    }
    if args.metrics.is_some() || args.metrics_out.is_some() {
        // `--metrics-out` without an explicit format means machine-readable.
        let fmt = args.metrics.unwrap_or(MetricsFormat::Json);
        let rendered = taxitrace_obs::render(&output(&args).metrics, fmt);
        match &args.metrics_out {
            Some(path) => std::fs::write(path, rendered)
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}"))),
            None => eprint!("{rendered}"),
        }
    }
}

// --------------------------------------------- storage maintenance tools

/// `repro store-save <file>`: simulate stage 1 under the current
/// seed/scale/chaos flags and persist the sessions as a v3 trip store,
/// fingerprinted so `--store` replays refuse a mismatched config.
fn cmd_store_save(args: &Args) {
    let path = args.operand("store-save needs a target path").to_string();
    eprintln!(
        "[repro] simulating store: seed {}, scale {} -> {path}",
        args.seed, args.scale
    );
    let study = Study::new(study_config(args));
    let sim = study.simulate().unwrap_or_else(|e| die(&format!("simulate failed: {e}")));
    sim.save_store(std::path::Path::new(&path))
        .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    println!("wrote {} session(s) to {path}", sim.store.sessions().len());
}

/// `repro export <dir>`: simulate the study's inputs under the current
/// seed/scale flags and write them in the two external exchange formats
/// — `traces.csv` (the GTFS-like trace schema) and `map.osmx` (the
/// compact map exchange format). Floats are written in shortest
/// round-trip form, so `repro ingest` on the exported files reproduces
/// the batch study bit-for-bit.
fn cmd_export(args: &Args) {
    let dir = args.operand("export needs a target directory").to_string();
    let dir = std::path::Path::new(&dir);
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
    eprintln!(
        "[repro] exporting external formats: seed {}, scale {} -> {}",
        args.seed,
        args.scale,
        dir.display()
    );
    let study = Study::new(study_config(args));
    let sim = study.simulate().unwrap_or_else(|e| die_study(e));
    let traces_path = dir.join("traces.csv");
    let map_path = dir.join("map.osmx");
    let csv = taxitrace_ingest::export_trace_csv(sim.store.sessions());
    std::fs::write(&traces_path, csv)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", traces_path.display())));
    let osmx = taxitrace_ingest::export_osmx(&sim.city);
    std::fs::write(&map_path, osmx)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", map_path.display())));
    let points: usize = sim.store.sessions().iter().map(|s| s.points.len()).sum();
    println!(
        "wrote {} session(s), {} point(s) to {} and the city map to {}",
        sim.store.sessions().len(),
        points,
        traces_path.display(),
        map_path.display()
    );
}

/// `repro ingest <traces.csv> [--map <map.osmx>]`: run the full study
/// over externally supplied, untrusted input files. Malformed records
/// are quarantined at the `ingest` stage (within the configured error
/// budget — beyond it the run exits 3); the final `study fingerprint`
/// line matches the batch study's when the input is an unmutated
/// `repro export`.
fn cmd_ingest(args: &Args) {
    let trace = args.operand("ingest needs a trace CSV path").to_string();
    eprintln!(
        "[repro] ingesting external input: seed {}, scale {}, traces {trace}{}",
        args.seed,
        args.scale,
        args.map.as_deref().map(|m| format!(", map {m}")).unwrap_or_default()
    );
    let study = Study::new(study_config(args));
    let out = study
        .run_from(Source::External {
            traces: std::path::Path::new(&trace),
            map: args.map.as_deref().map(std::path::Path::new),
        })
        .unwrap_or_else(|e| die_study(e));
    let records = out.metrics.counter("ingest.records_total").unwrap_or(0);
    let quarantined = out.metrics.counter("ingest.quarantined_total").unwrap_or(0);
    println!("ingest records {records} quarantined {quarantined}");
    if !out.quarantine.is_empty() {
        println!("quarantine by reason: {:?}", out.quarantine.by_reason());
    }
    println!(
        "pipeline: {} sessions, {} segments, {} transitions",
        out.cleaning.sessions,
        out.segments.len(),
        out.transitions.len()
    );
    println!("study fingerprint {:#018x}", out.fingerprint());
    if args.metrics.is_some() || args.metrics_out.is_some() {
        let fmt = args.metrics.unwrap_or(MetricsFormat::Json);
        let rendered = taxitrace_obs::render(&out.metrics, fmt);
        match &args.metrics_out {
            Some(path) => std::fs::write(path, rendered)
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}"))),
            None => eprint!("{rendered}"),
        }
    }
}

/// `repro mutate <in> <out> [--seed N]`: apply the ingest fuzz mutator
/// (truncation, bit flips, field swaps, encoding garbage, CRLF/BOM,
/// numeric extremes) to a file, deterministically per seed. A test tool
/// for the adversarial-ingest CI smoke: the same seed always produces
/// the same damaged bytes.
fn cmd_mutate(args: &Args) {
    let input = args.operand("mutate needs an input path").to_string();
    let out_path = args
        .operand2
        .clone()
        .unwrap_or_else(|| die("mutate needs an output path"));
    let bytes = std::fs::read(&input)
        .unwrap_or_else(|e| die(&format!("cannot read {input}: {e}")));
    let mutated = taxitrace_ingest::mutate(&bytes, args.seed);
    std::fs::write(&out_path, &mutated)
        .unwrap_or_else(|e| die(&format!("cannot write {out_path}: {e}")));
    println!(
        "mutated {input} ({} bytes) -> {out_path} ({} bytes) with seed {}",
        bytes.len(),
        mutated.len(),
        args.seed
    );
}

/// `repro store-corrupt --chaos <plan> <file>`: apply the plan's seeded
/// disk faults (bit flips, tail truncation, record duplication, garbage
/// header) to a store file in place. A test tool: the write is
/// deliberately plain, this is the damage the rest of the stack defends
/// against.
fn cmd_store_corrupt(args: &Args) {
    let path = args.operand("store-corrupt needs a store file").to_string();
    let plan_path =
        args.chaos.as_deref().unwrap_or_else(|| die("store-corrupt needs --chaos <plan>"));
    let text = std::fs::read_to_string(plan_path)
        .unwrap_or_else(|e| die(&format!("cannot read chaos plan {plan_path}: {e}")));
    let plan = taxitrace_core::FaultPlan::parse(&text)
        .unwrap_or_else(|e| die(&format!("bad chaos plan {plan_path}: {e}")));
    let mut bytes = std::fs::read(&path)
        .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let spans = taxitrace_store::codec::record_spans(&bytes)
        .unwrap_or_else(|e| die(&format!("cannot frame records of {path}: {e}")));
    let applied = plan.corrupt_file(0, &mut bytes, &spans);
    if applied.is_empty() {
        die("chaos plan injects no disk faults (set disk_bit_flips, \
             disk_truncate_bytes, disk_duplicate_record or disk_garbage_header)");
    }
    std::fs::write(&path, &bytes)
        .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    println!("applied {} disk fault(s) to {path}: {:?}", applied.len(), applied);
}

/// `repro fsck [--repair] <path>`: integrity-scan a store/checkpoint file
/// or directory. Reports per-file version, fingerprint and record counts;
/// with `--repair`, damaged stores are rewritten as clean v3 files from
/// their salvageable records and corrupt checkpoints removed (the
/// pipeline recomputes them). Exits 1 while unrepaired damage
/// remains.
fn cmd_fsck(args: &Args) {
    let path = args.operand("fsck needs a file or directory").to_string();
    let reports = taxitrace_store::fsck_path(std::path::Path::new(&path), args.repair)
        .unwrap_or_else(|e| die(&format!("fsck failed on {path}: {e}")));
    if reports.is_empty() {
        die(&format!("no store or checkpoint files found under {path}"));
    }
    let mut unrepaired = 0usize;
    for r in &reports {
        let fate = match r.repaired {
            Some(action) => format!("  [{action}]"),
            None => String::new(),
        };
        println!(
            "{:<40} {:<10} v{} fingerprint {:#018x} records {}/{} — {}{}",
            r.path.display(),
            r.kind.label(),
            r.version,
            r.fingerprint,
            r.records_valid,
            r.records_declared,
            r.damage_summary(),
            fate
        );
        for d in r.damage.iter().take(8) {
            println!("    record {}: {} ({})", d.index, d.kind.label(), d.detail);
        }
        if r.damage.len() > 8 {
            println!("    ... {} more damaged record(s)", r.damage.len() - 8);
        }
        if !r.is_clean() && r.repaired.is_none() {
            unrepaired += 1;
        }
    }
    println!(
        "{} file(s) scanned, {} with unrepaired damage",
        reports.len(),
        unrepaired
    );
    if unrepaired > 0 {
        std::process::exit(1);
    }
}

/// `repro serve [--port P] [--threads N] [--shutdown-file PATH]`: run the
/// HTTP query service over the study's snapshot — replayed from a
/// persisted store when `--store` names one (verified read path, salvage
/// demotion), otherwise simulated from the seed. Prints the bound address
/// (ephemeral port resolved) on stdout so scripts can discover it. With
/// `--shutdown-file`, polls for the file and shuts down gracefully when it
/// appears — in-flight requests drain, workers join — so scripts get a
/// clean exit instead of `kill`. Without it, runs until the process is
/// killed.
fn cmd_serve(args: &Args) {
    use std::io::Write as _;
    let workers = args.threads.unwrap_or(4).max(1);
    let snapshot = taxitrace_serve::Snapshot::from_output(run_study(args));
    let registry = taxitrace_obs::Registry::new();
    let server = taxitrace_serve::Server::start(snapshot, args.port, workers, registry)
        .unwrap_or_else(|e| die(&format!("cannot bind port {}: {e}", args.port)));
    println!("serving on {} ({} workers)", server.addr(), workers);
    let _ = std::io::stdout().flush();
    match &args.shutdown_file {
        Some(path) => {
            let path = std::path::Path::new(path);
            while !path.exists() {
                std::thread::sleep(std::time::Duration::from_millis(150));
            }
            eprintln!("[repro] shutdown file present; draining");
            server.shutdown();
            println!("server drained and stopped");
        }
        // Runs until the process is killed; metrics are live at /metrics.
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
}

/// `repro stream [--chaos PLAN] [--checkpoint-dir DIR]`: run the study as
/// a live stream — points arriving one at a time through the bounded
/// queue, trips closed by the watermark, cleaned incrementally — and
/// print the stream report plus the same pipeline fingerprint the batch
/// path reports, so scripts can assert stream/batch parity and that a
/// killed-and-resumed stream converges to the identical output.
fn cmd_stream(args: &Args) {
    let stream_cfg = taxitrace_stream::StreamConfig {
        checkpoint_every: if args.checkpoint_dir.is_some() { 1000 } else { 0 },
        ..taxitrace_stream::StreamConfig::default()
    };
    let dir = args.checkpoint_dir.as_ref().map(std::path::Path::new);
    let mut attempt = 0u32;
    let run = loop {
        match taxitrace_stream::run_stream(study_config(args), &stream_cfg, dir) {
            Ok(run) => break run,
            Err(e) if dir.is_some() && attempt < 4 => {
                attempt += 1;
                eprintln!(
                    "[repro] stream interrupted ({e}); resuming from {} (attempt {attempt})",
                    dir.expect("checked").display()
                );
            }
            Err(e) => die(&format!("stream failed after {attempt} resume(s): {e}")),
        }
    };
    let r = &run.report;
    println!(
        "stream: {} records -> {} trips closed ({} malformed, {} late-dropped quarantined)",
        r.records_total, r.trips_closed, r.records_malformed, r.late_dropped
    );
    println!(
        "flow:   {} backpressure stall(s), {} feeder stall(s), max queue depth {}",
        r.backpressure_stalls, r.feeder_stalls, r.max_queue_depth
    );
    if let Some(cursor) = r.resumed_from {
        println!(
            "resume: {} checkpoint(s), resumed {} time(s), last from record {cursor}",
            r.checkpoints, r.resumes
        );
    }
    println!("study fingerprint {:#018x}", run.output.fingerprint());
    if args.metrics.is_some() || args.metrics_out.is_some() {
        let fmt = args.metrics.unwrap_or(MetricsFormat::Json);
        let rendered = taxitrace_obs::render(&run.output.metrics, fmt);
        match &args.metrics_out {
            Some(path) => std::fs::write(path, rendered)
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}"))),
            None => eprint!("{rendered}"),
        }
    }
}

fn run(experiment: &str, args: &Args) {
    println!("\n================ {experiment} ================");
    match experiment {
        "fig2" => fig2(args),
        "table1" => table1(args),
        "table2" => table2(args),
        "table3" => table3(args),
        "table4" => table4(args),
        "table5" => table5(args),
        "fig3" => fig3(args),
        "fig4" => fig4(args),
        "fig5" => fig5(args),
        "fig6" => fig6(args),
        "fig7" => fig7(args),
        "fig8" => fig8(args),
        "fig9" => fig9(args),
        "fig10" => fig10(args),
        "validation" => validation(args),
        "fingerprint" => fingerprint(args),
        "ablation-thick" => ablation_thick(args),
        "ablation-lookahead" => ablation_lookahead(args),
        "ablation-rules" => ablation_rules(args),
        "ablation-grid" => ablation_grid(args),
        other => die(&format!("unknown experiment '{other}'")),
    }
}

// ---------------------------------------------------------------- tables

fn table1(args: &Args) {
    let out = output(args);
    println!("Junction pairs with merged element chains (§IV-A, cf. paper Table 1):\n");
    print!("{}", render_table1(out, 6));
    let multi = out
        .city
        .graph
        .edges()
        .iter()
        .filter(|e| e.elements.len() >= 2)
        .count();
    println!(
        "\n{} of {} edges merge multiple traffic elements (paper shows such rows explicitly).",
        multi,
        out.city.graph.num_edges()
    );
}

fn table2(args: &Args) {
    let out = output(args);
    let c = SegmentationConfig::default();
    println!("Active Table 2 segmentation rules and their fire counts on this study:\n");
    println!(
        "1. no position change within {} s (freeze radius {} m)      → fired {}",
        c.rule1_window_s, c.freeze_radius_m, out.cleaning.rule_fires[0]
    );
    println!(
        "2. silent gap > {} s with movement < {} km                  → fired {}",
        c.rule2_gap_s,
        c.rule24_distance_m / 1000.0,
        out.cleaning.rule_fires[1]
    );
    println!(
        "3. pairwise speed < {} m/s (guarded by gap > {} s)        → fired {}",
        c.rule3_speed_ms, c.rule3_min_gap_s, out.cleaning.rule_fires[2]
    );
    println!(
        "4. gap > {} s, moved < {} km, speed above rule-3 bound      → fired {}",
        c.rule4_gap_s,
        c.rule24_distance_m / 1000.0,
        out.cleaning.rule_fires[3]
    );
    println!(
        "5. re-split of > {} km trips with rule 1 at {} s            → fired {}",
        c.rule5_trigger_m / 1000.0,
        c.rule5_window_s,
        out.cleaning.rule_fires[4]
    );
    println!(
        "\nfilters: kept {}, dropped {} (< 5 points) + {} (> 30 km)",
        out.cleaning.segments_kept,
        out.cleaning.segments_too_few_points,
        out.cleaning.segments_too_long
    );
}

const PAPER_TABLE3: [[usize; 5]; 7] = [
    [2409, 636, 89, 79, 65],
    [3068, 1282, 172, 156, 128],
    [1790, 447, 44, 32, 19],
    [2486, 622, 102, 93, 73],
    [2429, 616, 88, 75, 65],
    [1815, 625, 113, 108, 96],
    [4080, 1109, 162, 131, 98],
];

fn table3(args: &Args) {
    let out = output(args);
    println!("Reproduced funnel (scale {} of the study year):\n", args.scale);
    print!("{}", render_table3(out));
    println!("\nPaper Table 3:");
    for (i, r) in PAPER_TABLE3.iter().enumerate() {
        println!(
            "{:<5} {:>10} {:>10} {:>12} {:>12} {:>13}",
            i + 1,
            r[0],
            r[1],
            r[2],
            r[3],
            r[4]
        );
    }
    let ours: usize = out.funnel().iter().map(|r| r.segments_total).sum();
    let trans: usize = out.funnel().iter().map(|r| r.transitions_total).sum();
    let paper_segs: usize = PAPER_TABLE3.iter().map(|r| r[0]).sum();
    let paper_trans: usize = PAPER_TABLE3.iter().map(|r| r[2]).sum();
    println!(
        "\nshape: transitions/segments = {:.3} (ours) vs {:.3} (paper)",
        trans as f64 / ours.max(1) as f64,
        paper_trans as f64 / paper_segs as f64
    );
}

fn table4(args: &Args) {
    let out = output(args);
    print!("{}", render_table4(&Table4::compute(out)));
    // §VI: "Low speed also correlates to fuel consumption".
    let low: Vec<f64> = out.transitions.iter().map(|t| t.low_speed_pct).collect();
    let fuel_km: Vec<f64> =
        out.transitions.iter().map(|t| t.fuel_ml / t.dist_km.max(0.1)).collect();
    if let Some(r) = taxitrace_stats::pearson(&low, &fuel_km) {
        println!("\ncorr(low-speed %, fuel/km) = {r:+.2} (paper: positive)");
    }
    println!(
        "\npaper shape check (means): low-speed T-S/S-T > T-L/L-T; normal speed reversed;\n\
         light and junction counts similar across directions.\n"
    );
    println!("paper means for reference:");
    println!("  low speed %   : T-S 38.2, S-T 33.3, T-L 23.3, L-T 24.2");
    println!("  normal speed %: T-S 6.4,  S-T 8.8,  T-L 14.7, L-T 14.5");
    println!("  traffic lights: T-S 8,    S-T 5,    T-L 7,    L-T 7");
    println!("  junctions     : T-S 23,   S-T 23,   T-L 22,   L-T 24");
}

fn table5(args: &Args) {
    let out = output(args);
    let grid = out.grid_stats(None);
    print!("{}", render_table5(&grid.table5()));
    println!("\npaper Table 5 (cell mean speeds):");
    println!("  lights = 0            : min 11.96 max 53.27 mean 25.53 var 231.5");
    println!("  lights = 0 & stops = 0: min 11.96 max 53.27 mean 29.25 var 303.5");
    println!("  lights > 0 & stops > 0: min  9.26 max 32.09 mean 18.78 var  49.9");
    println!("  lights > 0            : min  9.26 max 32.09 mean 18.71 var  47.9");
    println!("shape: lights (and lights+stops) lower the mean and sharply lower the variance.");
}

// ---------------------------------------------------------------- figures

/// Fig. 2: the selected O-D pairs and their thick geometry on the map.
fn fig2(args: &Args) {
    let out = output(args);
    let analyzer = OdAnalyzer::from_city(&out.city);
    println!(
        "Study area with named O-D roads and thick geometry (paper Fig. 2).\n\
         half width {} m, crossing-angle window {}°; centre area marked 'c'.\n",
        analyzer.config().thick_half_width_m,
        analyzer.config().max_angle_deg
    );
    // 17 × 17 map of 300 m cells over [-2550, 2550]².
    for iy in (-8..=8).rev() {
        let mut line = String::new();
        for ix in -8..=8 {
            let p = Point::new(ix as f64 * 300.0, iy as f64 * 300.0);
            let mut ch = "  ";
            if out.city.center_area.contains(p) {
                ch = " c";
            }
            for ep in analyzer.endpoints() {
                if ep.corridor.contains(p) {
                    ch = match ep.name.as_str() {
                        "T" => " T",
                        "S" => " S",
                        _ => " L",
                    };
                }
            }
            line.push_str(ch);
        }
        println!("  |{line}|");
    }
    println!("\nstudied ordered pairs: T-L, L-T, T-S, S-T (the paper's red arrows).");
}

fn fig3(args: &Args) {
    let out = output(args);
    let taxi = TaxiId(1);
    let speeds: Vec<f64> = out
        .transitions
        .iter()
        .filter(|t| t.taxi == taxi)
        .flat_map(|t| t.points.iter().map(|p| p.speed_kmh))
        .collect();
    println!(
        "Cleaned point speeds for taxi 1: {} points (paper: 4186 at full scale).",
        speeds.len()
    );
    histogram("speed (km/h)", &speeds, &[0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 80.0]);
}

fn fig4(args: &Args) {
    let out = output(args);
    println!("Taxi 1 point speeds by direction (paper Fig. 4):\n");
    for split in directional_speeds(out, Some(TaxiId(1))) {
        let speeds: Vec<f64> = split.points.iter().map(|(_, s)| *s).collect();
        println!(
            "{:<4} n={:<6} mean {:>5.1} km/h",
            split.pair,
            speeds.len(),
            split.mean_speed
        );
    }
    println!("\nall taxis:");
    for split in directional_speeds(out, None) {
        println!("{:<4} n={:<6} mean {:>5.1} km/h", split.pair, split.points.len(), split.mean_speed);
    }
}

fn fig5(args: &Args) {
    let out = output(args);
    println!("Point speeds by season (paper Fig. 5 + §VI deltas):\n");
    for (season, pts) in seasonal_speeds(out, None) {
        let speeds: Vec<f64> = pts.iter().map(|(_, s)| *s).collect();
        let mean = if speeds.is_empty() {
            f64::NAN
        } else {
            speeds.iter().sum::<f64>() / speeds.len() as f64
        };
        println!("{:<7} n={:<7} mean {:>5.2} km/h", season.label(), speeds.len(), mean);
    }
    println!("\ndeltas vs annual mean (paper: winter -0.07, spring +0.46, summer +0.70, autumn +1.38):");
    for d in seasonal_deltas(out) {
        println!("{:<7} {:+.2} km/h (n={})", d.season.label(), d.delta_kmh, d.n);
    }
}

fn fig6(args: &Args) {
    let out = output(args);
    let grid = out.grid_stats(Some("L-T"));
    println!(
        "L-T per-cell average speed with feature counts (paper Fig. 6).\n\
         Study-area feature totals {{lights, stops, ped.crossings}} = {:?} \
         (paper: {{67, 48, 293}}; paper also reports 271 other crossings).\n",
        grid.feature_totals
    );
    println!(
        "{:<14} {:>5} {:>10} {:>7} {:>6} {:>10}",
        "cell", "n", "mean km/h", "lights", "stops", "crossings"
    );
    for (cell, stat) in grid.cells.iter().take(24) {
        println!(
            "{:<14} {:>5} {:>10.1} {:>7} {:>6} {:>10}",
            cell.to_string(),
            stat.n,
            stat.mean_speed,
            stat.traffic_lights,
            stat.bus_stops,
            stat.pedestrian_crossings
        );
    }
    println!("… ({} cells total)", grid.cells.len());
}

fn fig7(args: &Args) {
    let out = output(args);
    let m = mixed_model(out).unwrap_or_else(|e| die(&format!("mixed model: {e}")));
    println!(
        "QQ plot of the {} cell-intercept BLUPs (paper Fig. 7: near-linear except far tails):\n",
        m.qq.len()
    );
    println!("{:>12} {:>12}", "theoretical", "sample blup");
    let n = m.qq.len();
    for idx in [0, n / 8, n / 4, n / 2, 3 * n / 4, 7 * n / 8, n - 1] {
        let p = &m.qq[idx];
        println!("{:>12.3} {:>12.3}", p.theoretical, p.sample);
    }
    let q25 = &m.qq[n / 4];
    let q75 = &m.qq[3 * n / 4];
    let slope = (q75.sample - q25.sample) / (q75.theoretical - q25.theoretical);
    println!(
        "\nquartile slope {:.2} vs sd(blups) — straightness in the bulk justifies the\nGaussian regularisation, matching the paper's conclusion.",
        slope
    );
}

fn fig8(args: &Args) {
    let out = output(args);
    let m = mixed_model(out).unwrap_or_else(|e| die(&format!("mixed model: {e}")));
    println!(
        "Cell intercepts with 95% limits, sorted (paper Fig. 8; coefficients ca. -15…+20 km/h):\n"
    );
    let n = m.cells.len();
    println!("{:>5} {:>12} {:>9} {:>20}", "rank", "blup km/h", "se", "95% interval");
    for idx in [0usize, n / 10, n / 4, n / 2, 3 * n / 4, 9 * n / 10, n - 1] {
        let c = &m.cells[idx];
        println!(
            "{:>5} {:>12.2} {:>9.2} [{:>7.2}, {:>7.2}]  (n={})",
            idx,
            c.blup,
            c.se,
            c.blup - 1.96 * c.se,
            c.blup + 1.96 * c.se,
            c.n
        );
    }
    println!(
        "\nspread: {:+.1} … {:+.1} km/h over {} cells; sigma_u = {:.1} km/h",
        m.cells[0].blup,
        m.cells[n - 1].blup,
        n,
        m.sigma2_u.sqrt()
    );
    println!(
        "geography effect: REML LRT = {:.0}, p {} (paper: \"strong evidence of the effect of geography\")",
        m.geography_lrt,
        if m.geography_p < 1e-12 { "< 1e-12".to_string() } else { format!("= {:.2e}", m.geography_p) }
    );
}

fn fig9(args: &Args) {
    let out = output(args);
    let m = mixed_model(out).unwrap_or_else(|e| die(&format!("mixed model: {e}")));
    let by_cell: HashMap<CellId, f64> = m.cells.iter().map(|c| (c.cell, c.blup)).collect();
    println!("Cell intercept predictions on the map (paper Fig. 9):");
    println!("  ## <= -6  == -6..-2  .. -2..+2  ++ > +2 km/h vs grand mean\n");
    for iy in (-8..=8).rev() {
        let mut line = String::new();
        for ix in -8..=8 {
            line.push_str(match by_cell.get(&CellId { ix, iy }) {
                None => "  ",
                Some(b) if *b <= -6.0 => "##",
                Some(b) if *b <= -2.0 => "==",
                Some(b) if *b < 2.0 => "..",
                Some(_) => "++",
            });
        }
        println!("  |{line}|");
    }
    // Centre-vs-outskirts contrast (the paper's centre slowdowns reach -8 km/h).
    let grid = Grid::new(Point::new(0.0, 0.0), out.config.grid_size_m);
    let (mut c_sum, mut c_n, mut o_sum, mut o_n) = (0.0, 0usize, 0.0, 0usize);
    for c in &m.cells {
        let d = grid.cell_center(c.cell).distance(Point::new(0.0, 0.0));
        if d < 500.0 {
            c_sum += c.blup;
            c_n += 1;
        } else if d > 1200.0 {
            o_sum += c.blup;
            o_n += 1;
        }
    }
    if c_n > 0 && o_n > 0 {
        println!(
            "\ncentre cells mean {:+.1} km/h vs outskirts {:+.1} km/h",
            c_sum / c_n as f64,
            o_sum / o_n as f64
        );
    }
}

fn fig10(args: &Args) {
    let out = output(args);
    println!(
        "Low-speed % by temperature class, lights < {} (white) vs >= {} (grey) — paper Fig. 10:\n",
        out.config.fig10_light_threshold, out.config.fig10_light_threshold
    );
    println!("{:<10} {:>18} {:>18}", "class", "< thresh lights", ">= thresh lights");
    let cells = temperature_analysis(out);
    for chunk in cells.chunks(2) {
        let few = &chunk[0];
        let many = &chunk[1];
        println!(
            "{:<10} {:>12.1}% (n={:<3}) {:>10.1}% (n={:<3})",
            few.class.label(),
            few.mean_low_speed_pct,
            few.n,
            many.mean_low_speed_pct,
            many.n
        );
    }
    println!(
        "\nshape: the >= group should sit above the < group in every populated class\n\
         (the paper: \"in general there is an increase of low speed, also independent\n\
         of the weather conditions\")."
    );
}

// ------------------------------------------------------------ fingerprint

/// Prints the study fingerprint, in the line format of `repro stream` and
/// `repro ingest`.
fn fingerprint(args: &Args) {
    println!("study fingerprint {:#018x}", output(args).fingerprint());
}

// ------------------------------------------------------------- validation

fn validation(args: &Args) {
    let out = output(args);
    // Ground-truth checks the paper could not run.
    let config = CleaningConfig::default();
    let mut repaired = 0;
    let mut order_ok = 0;
    let (mut legs, mut rec, mut segs, mut matched) = (0, 0, 0, 0);
    for session in out.store.sessions() {
        let cleaned = clean_session(session, &config);
        if cleaned.order_report.orders_differed {
            repaired += 1;
            let mut ok = true;
            let (ordered, _) = taxitrace_cleaning::repair_order(&session.points);
            for w in ordered.windows(2) {
                if w[0].truth.seq > w[1].truth.seq {
                    ok = false;
                    break;
                }
            }
            if ok {
                order_ok += 1;
            }
        }
        let v = validate_segments(session, &cleaned, 0.7);
        legs += v.truth_legs;
        rec += v.recovered_legs;
        segs += v.segments;
        matched += v.matched_segments;
    }
    println!("order repair : {repaired} corrupted sessions, {order_ok} perfectly restored");
    println!(
        "segmentation : recall {:.1}% ({rec}/{legs}), precision {:.1}% ({matched}/{segs})",
        100.0 * rec as f64 / legs.max(1) as f64,
        100.0 * matched as f64 / segs.max(1) as f64
    );

    // Matching accuracy on a sample of sessions.
    let index = CandidateIndex::new(&out.city.graph, &out.city.elements);
    let mc = MatchConfig::default();
    let mut inc = MatchAccuracy::default();
    let mut nea = MatchAccuracy::default();
    for session in out.store.sessions().iter().take(30) {
        let pts = session.points_in_true_order();
        inc.merge(&evaluate(
            &out.city.graph,
            &taxitrace_matching::incremental::match_trace(&out.city.graph, &index, &pts, &mc),
            &pts,
        ));
        nea.merge(&evaluate(
            &out.city.graph,
            &taxitrace_matching::nearest::match_trace(&out.city.graph, &index, &pts, &mc),
            &pts,
        ));
    }
    println!(
        "map-matching : incremental edge accuracy {:.1}% vs nearest {:.1}% ({} points)",
        100.0 * inc.edge_accuracy(),
        100.0 * nea.edge_accuracy(),
        inc.evaluated
    );
}

// -------------------------------------------------------------- ablations

fn ablation_thick(args: &Args) {
    let out = output(args);
    println!("Thick-geometry width / angle window vs funnel yield:\n");
    println!("{:>9} {:>7} {:>12} {:>13}", "width m", "angle", "transitions", "post-filtered");
    for width in [15.0, 40.0, 120.0, 200.0] {
        for angle in [20.0, 40.0, 60.0] {
            let mut config = OdConfig::new(out.city.center_area);
            config.thick_half_width_m = width;
            config.max_angle_deg = angle;
            let endpoints: Vec<OdEndpoint> = out
                .city
                .od_roads
                .iter()
                .map(|r| OdEndpoint {
                    name: r.name.clone(),
                    corridor: Corridor::new(r.axis.clone(), width),
                })
                .collect();
            let analyzer = OdAnalyzer::new(endpoints, config);
            let ts = analyzer.transitions(&out.segments);
            let post = ts.iter().filter(|t| t.post_filtered).count();
            println!("{:>9} {:>7} {:>12} {:>13}", width, angle, ts.len(), post);
        }
    }
}

fn ablation_lookahead(args: &Args) {
    let out = output(args);
    let index = CandidateIndex::new(&out.city.graph, &out.city.elements);
    println!("Incremental matcher look-ahead depth vs accuracy:\n");
    println!("{:>6} {:>14} {:>14}", "depth", "element acc", "edge acc");
    for depth in [0usize, 1, 2, 3] {
        let mc = MatchConfig { lookahead: depth, ..MatchConfig::default() };
        let mut acc = MatchAccuracy::default();
        for session in out.store.sessions().iter().take(25) {
            let pts = session.points_in_true_order();
            acc.merge(&evaluate(
                &out.city.graph,
                &taxitrace_matching::incremental::match_trace(&out.city.graph, &index, &pts, &mc),
                &pts,
            ));
        }
        println!(
            "{:>6} {:>13.1}% {:>13.1}%",
            depth,
            100.0 * acc.element_accuracy(),
            100.0 * acc.edge_accuracy()
        );
    }
}

fn ablation_rules(args: &Args) {
    let out = output(args);
    println!("Table 2 rule sensitivity (each rule disabled in turn):\n");
    println!("{:<14} {:>9} {:>10} {:>9} {:>10}", "config", "segments", "recall", "prec.", "rule fires");
    let variants: Vec<(&str, SegmentationConfig)> = vec![
        ("all rules", SegmentationConfig::default()),
        ("no rule 1", SegmentationConfig { rule1_window_s: i64::MAX / 4, ..Default::default() }),
        ("no rule 2", SegmentationConfig { rule2_gap_s: i64::MAX / 4, ..Default::default() }),
        ("no rule 3", SegmentationConfig { rule3_speed_ms: -1.0, ..Default::default() }),
        ("no rule 4", SegmentationConfig { rule4_gap_s: i64::MAX / 4, ..Default::default() }),
    ];
    for (name, seg_cfg) in variants {
        let cfg = CleaningConfig { segmentation: seg_cfg, ..CleaningConfig::default() };
        let (mut legs, mut rec, mut segs, mut matched, mut fires) = (0, 0, 0, 0, 0);
        for session in out.store.sessions() {
            let cleaned = clean_session(session, &cfg);
            let v = validate_segments(session, &cleaned, 0.7);
            legs += v.truth_legs;
            rec += v.recovered_legs;
            segs += v.segments;
            matched += v.matched_segments;
            fires += cleaned.stats.segmentation.rule_fires.iter().sum::<usize>();
        }
        println!(
            "{:<14} {:>9} {:>9.1}% {:>8.1}% {:>10}",
            name,
            segs,
            100.0 * rec as f64 / legs.max(1) as f64,
            100.0 * matched as f64 / segs.max(1) as f64,
            fires
        );
    }
}

fn ablation_grid(args: &Args) {
    let out = output(args);
    println!("Analysis grid size vs mixed-model geography effect:\n");
    println!("{:>8} {:>7} {:>12} {:>12} {:>14}", "cell m", "cells", "sigma2_u", "sigma2_e", "blup spread");
    for size in [100.0, 200.0, 400.0] {
        let mut cfg = out.config.clone();
        cfg.grid_size_m = size;
        // Re-run only the analysis, not the pipeline: clone the output
        // view with a different grid by fitting on the same transitions.
        let tmp = StudyOutputView { out, grid_size_m: size };
        match tmp.fit() {
            Some((cells, s2u, s2e, spread)) => println!(
                "{:>8} {:>7} {:>12.2} {:>12.2} {:>14.1}",
                size, cells, s2u, s2e, spread
            ),
            None => println!("{size:>8}  (model failed)"),
        }
        let _ = cfg;
    }
}

/// Helper re-fitting the Eq. 3 model at a different grid size.
struct StudyOutputView<'a> {
    out: &'a StudyOutput,
    grid_size_m: f64,
}

impl StudyOutputView<'_> {
    fn fit(&self) -> Option<(usize, f64, f64, f64)> {
        use taxitrace_stats::{Matrix, RandomIntercept};
        let grid = Grid::new(Point::new(0.0, 0.0), self.grid_size_m);
        let mut y = Vec::new();
        let mut groups = Vec::new();
        for t in &self.out.transitions {
            for p in &t.points {
                let c = grid.cell_of(p.pos);
                y.push(p.speed_kmh);
                groups.push(((c.ix as u32 as u64) << 32) | (c.iy as u32 as u64));
            }
        }
        let x = Matrix::from_rows(y.len(), 1, vec![1.0; y.len()]);
        let fit = RandomIntercept::default().fit(&y, &x, &groups).ok()?;
        let spread = fit
            .groups
            .iter()
            .map(|g| g.blup)
            .fold(f64::NEG_INFINITY, f64::max)
            - fit.groups.iter().map(|g| g.blup).fold(f64::INFINITY, f64::min);
        Some((fit.groups.len(), fit.sigma2_u, fit.sigma2_e, spread))
    }
}

// ------------------------------------------------------------------ misc

fn histogram(label: &str, values: &[f64], edges: &[f64]) {
    if values.is_empty() {
        println!("(no data)");
        return;
    }
    println!("\n{label} histogram:");
    for w in edges.windows(2) {
        let count = values.iter().filter(|v| **v >= w[0] && **v < w[1]).count();
        let bar_len = (60 * count / values.len().max(1)).min(60);
        println!(
            "{:>5.0}-{:<5.0} {:>6} |{}",
            w[0],
            w[1],
            count,
            "#".repeat(bar_len)
        );
    }
    // Seasonal sanity: unused import guard.
    let _ = Season::Winter;
}
