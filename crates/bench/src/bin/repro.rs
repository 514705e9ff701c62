//! `repro` — regenerates every table and figure of the FHDnn paper.
//!
//! ```text
//! repro <experiment|fast|all> [--scale quick|standard] [--json DIR]
//! ```
//!
//! `repro --help` prints the experiment ids; [`EXPERIMENTS`] is the one
//! list behind dispatch, `all` and that text.

use std::io::Write as _;
use std::process::ExitCode;

use fhdnn_bench::report::ExperimentReport;
use fhdnn_bench::{ablations, figures, tables, Scale};

type Experiment = (&'static str, fn(Scale) -> fhdnn::Result<ExperimentReport>);

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("fig4", figures::fig4),
    ("fig5", figures::fig5),
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("fig8", figures::fig8),
    ("convergence", figures::convergence),
    ("table1", tables::table1),
    ("comm", tables::comm),
    ("summary", tables::summary),
    ("ablation-extractor", ablations::ablation_extractor),
    ("ablation-snr", ablations::ablation_snr),
    ("ablation-dimension", ablations::ablation_dimension),
    ("ablation-quantizer", ablations::ablation_quantizer),
    ("ablation-backbone", ablations::ablation_backbone),
    ("ablation-compression", ablations::ablation_compression),
    ("ablation-encoding", ablations::ablation_encoding),
];

/// The subset that finishes in minutes.
const FAST: &[&str] = &["fig4", "fig5", "table1", "comm", "ablation-snr"];

/// The table rows `name` stands for: one experiment, `fast`'s subset or
/// all of them; empty when `name` is none of these.
fn experiments_for(name: &str) -> Vec<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .filter(|(id, _)| match name {
            "all" => true,
            "fast" => FAST.contains(id),
            one => *id == one,
        })
        .collect()
}

fn usage() -> String {
    let mut text = String::from(
        "usage: repro <experiment|fast|all> [--scale quick|standard] [--json DIR]\nexperiments:",
    );
    for (i, (id, _)) in EXPERIMENTS.iter().enumerate() {
        text.push_str(if i % 5 == 0 { "\n  " } else { " " });
        text.push_str(id);
    }
    text.push_str("\nfast: ");
    text.push_str(&FAST.join(" "));
    text
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    if args[0] == "--help" || args[0] == "-h" {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let todo = experiments_for(&args[0]);
    if todo.is_empty() {
        eprintln!("unknown experiment: {}", args[0]);
        return ExitCode::FAILURE;
    }
    let mut scale = Scale::Quick;
    let mut json_dir: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("--scale needs a value");
                    return ExitCode::FAILURE;
                };
                let Some(s) = Scale::parse(v) else {
                    eprintln!("unknown scale: {v} (expected quick or standard)");
                    return ExitCode::FAILURE;
                };
                scale = s;
                i += 2;
            }
            "--json" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("--json needs a directory");
                    return ExitCode::FAILURE;
                };
                json_dir = Some(v.clone());
                i += 2;
            }
            other => {
                eprintln!("unknown flag: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(dir) = &json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }
    for &(name, run) in todo {
        let started = std::time::Instant::now();
        match run(scale) {
            Ok(report) => {
                println!("{}", report.render());
                println!(
                    "[{name} completed in {:.1} s]\n",
                    started.elapsed().as_secs_f64()
                );
                if let Some(dir) = &json_dir {
                    let path = format!("{dir}/{name}.json");
                    match std::fs::File::create(&path) {
                        Ok(mut f) => {
                            if let Err(e) = f.write_all(report.to_json().as_bytes()) {
                                eprintln!("write {path}: {e}");
                            }
                        }
                        Err(e) => eprintln!("create {path}: {e}"),
                    }
                }
            }
            Err(e) => {
                eprintln!("FAILED {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
