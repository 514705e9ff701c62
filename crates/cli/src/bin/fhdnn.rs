//! The `fhdnn` command-line tool: federated simulations and artifact
//! management for the FHDnn reproduction.

use std::process::ExitCode;
use std::sync::Arc;

use fhdnn::channel::Channel;
use fhdnn::checkpoint::FhdnnCheckpoint;
use fhdnn::experiment::{ExperimentSpec, Workload};
use fhdnn::extractor::FeatureExtractor;
use fhdnn::federated::metrics::RunHistory;
use fhdnn::hdc::encoder::RandomProjectionEncoder;
use fhdnn::hdc::model::HdModel;
use fhdnn::system::FhdnnSystem;
use fhdnn::telemetry::profile::Profile;
use fhdnn::telemetry::sink::MemorySink;
use fhdnn::telemetry::{Recorder, Telemetry};
use fhdnn_cli::{
    open_telemetry, parse_channel, read_jsonl_lenient, trace_view, Cli, Command, Dashboard,
    LintArgs, ProfileArgs, SimulateArgs, TraceArgs, Verbosity, WatchArgs,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{}", fhdnn_cli::config::USAGE);
            // 2 for a command line that was not understood, 1 for a run
            // that failed.
            return ExitCode::from(2);
        }
    };
    let result = match cli.command {
        Command::Simulate(sim) => simulate(sim),
        Command::Pretrain {
            workload,
            out,
            seed,
        } => pretrain(workload, &out, seed),
        Command::Evaluate {
            ckpt,
            workload,
            test_size,
        } => evaluate(&ckpt, workload, test_size),
        Command::Info { ckpt } => info(&ckpt),
        Command::Profile(args) => profile(args),
        Command::Watch(args) => watch(args),
        Command::Trace(args) => trace(args),
        Command::Export { from, prom } => export(&from, &prom),
        Command::Lint(args) => lint(args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn build_spec(sim: &SimulateArgs) -> ExperimentSpec {
    let mut spec = ExperimentSpec::quick(sim.workload);
    if sim.pretrain {
        spec = spec.with_light_pretrain();
    }
    if sim.non_iid {
        spec = spec.non_iid();
    }
    if sim.rounds > 0 {
        spec.fl.rounds = sim.rounds;
    }
    if sim.clients > 0 {
        spec.fl.num_clients = sim.clients;
        // Keep at least a couple of samples per client so partitioning
        // never produces an empty shard at fleet scale.
        spec.train_size = spec.train_size.max(sim.clients * 2);
    }
    spec.fleet_telemetry = sim.fleet_telemetry;
    spec.transport = sim.transport;
    spec.seed = sim.seed;
    spec.fl.seed = sim.seed;
    spec.threads = sim.threads;
    spec
}

/// An enabled recorder for a live run: streaming to JSONL when
/// `--telemetry` is given, in-memory aggregation otherwise.
fn enabled_recorder(sim: &SimulateArgs) -> Result<Telemetry, String> {
    match &sim.telemetry {
        Some(path) => open_telemetry(path),
        None => Ok(Recorder::in_memory()),
    }
}

/// What a finished campaign leaves behind for its subcommand.
struct Campaign {
    spec: ExperimentSpec,
    channel: Box<dyn Channel>,
    extractor: FeatureExtractor,
    system: FhdnnSystem,
    history: RunHistory,
}

/// The one campaign runner behind `simulate` and the live modes of
/// `profile`, `watch` and `trace`: spec → extractor → system → run →
/// flush, observed by `tel`, announced as `fhdnn <label>` unless quiet.
fn run_campaign(sim: &SimulateArgs, tel: &Telemetry, label: &str) -> Result<Campaign, String> {
    let channel = parse_channel(&sim.channel)?;
    let spec = build_spec(sim);
    if sim.verbosity != Verbosity::Quiet {
        println!(
            "fhdnn {label}: workload={} channel={} rounds={} partition={} transport={:?}",
            sim.workload, sim.channel, spec.fl.rounds, spec.partition, sim.transport
        );
    }
    let mut extractor = spec.build_extractor().map_err(|e| e.to_string())?;
    let mut system = spec
        .build_fhdnn_with_telemetry(&mut extractor, tel.clone())
        .map_err(|e| e.to_string())?;
    let history = system
        .run(channel.as_ref(), label)
        .map_err(|e| e.to_string())?;
    tel.flush();
    Ok(Campaign {
        spec,
        channel,
        extractor,
        system,
        history,
    })
}

fn simulate(sim: SimulateArgs) -> Result<(), String> {
    // Under `--quiet` without a sink the shared disabled recorder keeps
    // overhead at zero.
    let tel = if sim.telemetry.is_none() && sim.verbosity == Verbosity::Quiet {
        Recorder::disabled()
    } else {
        enabled_recorder(&sim)?
    };
    let chatty = sim.verbosity != Verbosity::Quiet;
    let Campaign {
        spec,
        channel,
        extractor,
        system,
        history,
    } = run_campaign(&sim, &tel, "simulate")?;
    if chatty {
        match sim.verbosity {
            Verbosity::Verbose => {
                println!("\nround  accuracy  up B/cl  down B/cl  seconds");
                for r in &history.rounds {
                    println!(
                        "{:>5}  {:.4}  {:>8}  {:>9}  {:>7.3}",
                        r.round + 1,
                        r.test_accuracy,
                        r.bytes_per_client,
                        r.downlink_bytes_per_client,
                        r.round_seconds
                    );
                }
            }
            _ => {
                println!("\nround  accuracy");
                for r in &history.rounds {
                    println!("{:>5}  {:.4}", r.round + 1, r.test_accuracy);
                }
            }
        }
    }
    println!(
        "\nfhdnn: final accuracy {:.3}, update {} B/client/round",
        history.final_accuracy(),
        system.update_bytes()
    );
    if sim.verbosity == Verbosity::Verbose {
        let chan = system.channel_stats();
        println!(
            "channel: {} transmissions, {} symbols, {} bits flipped, {} dims erased, \
             {} packets dropped, noise energy {:.3}",
            chan.transmissions,
            chan.symbols_sent,
            chan.bits_flipped,
            chan.dims_erased,
            chan.packets_dropped,
            chan.noise_energy
        );
    }

    if sim.baseline {
        let outcome = spec
            .run_resnet_with_telemetry(channel.as_ref(), tel.clone())
            .map_err(|e| e.to_string())?;
        println!(
            "resnet baseline: final accuracy {:.3}, update {} B/client/round",
            outcome.history.final_accuracy(),
            outcome.update_bytes
        );
    }

    if chatty && tel.enabled() {
        println!("\ntelemetry summary:");
        print!("{}", tel.summary());
    }
    tel.flush();

    if let Some(path) = &sim.save {
        let ckpt = FhdnnCheckpoint::capture(
            spec.arch,
            spec.backbone,
            &extractor,
            // Same derivation the system used internally, so the saved
            // encoder matches the trained HD model exactly.
            &RandomProjectionEncoder::new(
                system.hd_dim(),
                extractor.feature_width(),
                spec.seed ^ 0xe4c0de,
            )
            .map_err(|e| e.to_string())?,
            system.global(),
        )
        .map_err(|e| e.to_string())?;
        save(&ckpt, path)?;
        println!("checkpoint saved to {path}");
    }
    Ok(())
}

/// `fhdnn profile`: renders a span-tree profile either by replaying a
/// recorded `--telemetry` JSONL stream (`--from`) or by running a fresh
/// simulation with an enabled recorder.
fn profile(args: ProfileArgs) -> Result<(), String> {
    let prof = match &args.from {
        Some(path) => Profile::from_jsonl_str(&read_jsonl_lenient(path)?)?,
        None => {
            // Profiling needs an enabled recorder even under --quiet; the
            // stream still goes to --telemetry when requested.
            let tel = enabled_recorder(&args.sim)?;
            run_campaign(&args.sim, &tel, "profile")?;
            if args.sim.verbosity != Verbosity::Quiet {
                println!("\ntelemetry summary:");
                print!("{}", tel.summary());
            }
            Profile::from_recorder(&tel)
        }
    };

    println!("\nspan-tree profile:");
    print!("{}", prof.render());
    if args.mem {
        println!();
        print!("{}", prof.render_mem());
    }
    if let Some(path) = &args.collapsed {
        std::fs::write(path, prof.collapsed())
            .map_err(|e| format!("write collapsed stacks {path}: {e}"))?;
        println!("collapsed stacks written to {path}");
    }
    Ok(())
}

/// `fhdnn watch`: renders the model-health dashboard either by replaying
/// a recorded `--telemetry` JSONL stream (`--from`, a pure and therefore
/// byte-deterministic function of the stream) or by running a fresh
/// simulation against an in-memory sink and folding its events.
fn watch(args: WatchArgs) -> Result<(), String> {
    let dash = match &args.from {
        Some(path) => Dashboard::from_jsonl_str(&read_jsonl_lenient(path)?),
        None => {
            // The dashboard folds the serialized event stream, so watch
            // always records into memory; --telemetry additionally
            // persists the same lines for later replay.
            let sink = Arc::new(MemorySink::new());
            run_campaign(&args.sim, &Recorder::with_sink(sink.clone()), "watch")?;
            let stream = sink
                .events()
                .iter()
                .map(|e| e.to_json())
                .collect::<Vec<_>>()
                .join("\n");
            if let Some(path) = &args.sim.telemetry {
                std::fs::write(path, format!("{stream}\n"))
                    .map_err(|e| format!("write {path}: {e}"))?;
            }
            Dashboard::from_jsonl_str(&stream)
        }
    };
    print!("{}", dash.render());
    Ok(())
}

/// `fhdnn trace`: renders the round-anatomy execution trace either by
/// replaying a recorded `--telemetry` JSONL stream (`--from`, a pure and
/// therefore byte-deterministic function of the stream) or by running a
/// fresh simulation with an enabled recorder and reading its trace ring.
/// `--chrome` additionally writes the dual-lane timeline as Chrome
/// trace-event JSON (loadable in Perfetto / chrome://tracing).
fn trace(args: TraceArgs) -> Result<(), String> {
    let rows = match &args.from {
        Some(path) => trace_view::rows_from_jsonl_str(&read_jsonl_lenient(path)?),
        None => {
            // Tracing needs an enabled recorder even under --quiet; the
            // stream still goes to --telemetry when requested.
            let tel = enabled_recorder(&args.sim)?;
            run_campaign(&args.sim, &tel, "trace")?;
            tel.trace_snapshot()
        }
    };
    print!("{}", trace_view::render_summaries(&rows));
    if let Some(path) = &args.chrome {
        let json = fhdnn::telemetry::trace::chrome_trace(&rows);
        if path == "-" {
            print!("{json}");
        } else {
            std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
            println!("chrome trace written to {path} (load in Perfetto / chrome://tracing)");
        }
    }
    Ok(())
}

/// `fhdnn export`: folds a recorded stream and writes the latest health
/// snapshot in the Prometheus text exposition format.
fn export(from: &str, prom: &str) -> Result<(), String> {
    let exposition = Dashboard::from_jsonl_str(&read_jsonl_lenient(from)?).prometheus();
    if prom == "-" {
        print!("{exposition}");
    } else {
        std::fs::write(prom, exposition).map_err(|e| format!("write {prom}: {e}"))?;
        println!("health snapshot exported to {prom}");
    }
    Ok(())
}

/// `fhdnn lint`: runs the workspace invariant checker. The report goes
/// to stdout (text or `--json`); the exit code reflects error-severity
/// findings so CI can gate on it.
fn lint(args: LintArgs) -> Result<(), String> {
    if let Some(rule) = &args.explain {
        return match fhdnn_lint::explain(rule) {
            Some(text) => {
                print!("{text}");
                Ok(())
            }
            None => Err(format!(
                "unknown rule '{rule}'; known rules:\n  {}",
                fhdnn_lint::rule_ids().join("\n  ")
            )),
        };
    }
    let root = std::path::Path::new(&args.root);
    if args.fix_baseline {
        let path = fhdnn_lint::write_baseline(root)?;
        println!("schema baseline regenerated at {}", path.display());
    }
    let report = fhdnn_lint::run(root)?;
    if args.json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.failed() {
        Err(format!(
            "lint failed with {} error(s) (see report above)",
            report.error_count()
        ))
    } else {
        Ok(())
    }
}

fn pretrain(workload: Workload, out: &str, seed: u64) -> Result<(), String> {
    let mut spec = ExperimentSpec::quick(workload).with_light_pretrain();
    spec.seed = seed;
    println!("pretraining contrastive extractor on unlabeled {workload} pool…");
    let extractor = spec.build_extractor().map_err(|e| e.to_string())?;
    let encoder =
        RandomProjectionEncoder::new(spec.hd_dim, extractor.feature_width(), seed ^ 0xe4c0de)
            .map_err(|e| e.to_string())?;
    let hd = HdModel::new(10, spec.hd_dim).map_err(|e| e.to_string())?;
    let ckpt = FhdnnCheckpoint::capture(spec.arch, spec.backbone, &extractor, &encoder, &hd)
        .map_err(|e| e.to_string())?;
    save(&ckpt, out)?;
    println!(
        "wrote {out}: {}-wide features, d={} encoder, untrained HD model",
        extractor.feature_width(),
        spec.hd_dim
    );
    Ok(())
}

fn load(ckpt_path: &str) -> Result<FhdnnCheckpoint, String> {
    let bytes = std::fs::read(ckpt_path).map_err(|e| format!("read {ckpt_path}: {e}"))?;
    FhdnnCheckpoint::from_bytes(&bytes).map_err(|e| format!("{ckpt_path}: {e}"))
}

fn save(ckpt: &FhdnnCheckpoint, path: &str) -> Result<(), String> {
    std::fs::write(path, ckpt.to_bytes()).map_err(|e| format!("write {path}: {e}"))
}

fn evaluate(ckpt_path: &str, workload: Workload, test_size: usize) -> Result<(), String> {
    let ckpt = load(ckpt_path)?;
    let (mut extractor, encoder, hd) = ckpt.restore().map_err(|e| e.to_string())?;
    let test = workload
        .spec()
        .generate(test_size, 0xe7a1)
        .map_err(|e| e.to_string())?;
    let feats = extractor
        .extract_chunked(&test.images, 64)
        .map_err(|e| e.to_string())?;
    let h = encoder.encode_batch(&feats).map_err(|e| e.to_string())?;
    let acc = hd.accuracy(&h, &test.labels).map_err(|e| e.to_string())?;
    println!("{ckpt_path} on {workload} ({test_size} samples): accuracy {acc:.3}");
    Ok(())
}

fn info(ckpt_path: &str) -> Result<(), String> {
    let ckpt = load(ckpt_path)?;
    println!("checkpoint {ckpt_path}");
    println!("  version        : {}", ckpt.version);
    println!("  backbone       : {:?}", ckpt.backbone);
    println!("  trunk params   : {}", ckpt.trunk_params.len());
    println!("  trunk bn state : {}", ckpt.trunk_running.len());
    println!(
        "  encoder        : d={} over {}-wide features",
        ckpt.encoder.dim(),
        ckpt.encoder.feature_width()
    );
    println!(
        "  hd model       : {} classes x {} dims ({} B as float32)",
        ckpt.hd.num_classes(),
        ckpt.hd.dim(),
        ckpt.hd.num_params() * 4
    );
    // Quick smoke-restore to confirm integrity.
    ckpt.restore().map_err(|e| e.to_string())?;
    println!("  integrity      : ok (restores cleanly)");
    Ok(())
}
