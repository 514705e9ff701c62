//! The FHDnn reproduction's campaign benchmark.
//!
//! ```text
//! benchmark run [--workload NAME] [--seed S] [--seconds T | --reps N]
//!               [--trace 0|1] [--smoke] [--out DIR]
//! benchmark compare A.json B.json
//! ```
//!
//! `run` measures one workload (all four without `--workload`). With
//! `--trace 0` it times same-seed repetitions of the campaign for
//! `--seconds` seconds and reports the end-to-end metrics; with
//! `--trace 1` it makes the traced run and reports the per-layer
//! metrics; without `--trace` it does both. The last line it prints for
//! a workload is one JSON object `{correct, attempted, failed,
//! metrics}`. README.md in this directory has the tables.

mod campaign;
mod fingerprint;
mod json;
mod layers;
mod ledger;
mod spec;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use fhdnn::hdc::encoder::RandomProjectionEncoder;
use fhdnn::hdc::packed::{PackedBatch, PackedHdModel};
use fhdnn::tensor::Tensor;

use campaign::{build_seconds, campaign, campaign_seconds, setup, verify, Mode, Observe};
use json::Value;
use layers::Layers;
use ledger::{Ledger, Stage};
use spec::{MetricDef, WorkloadSpec, END_TO_END, PER_LAYER, WORKLOADS};
use stats::median;

const SCHEMA: &str = "fhdnn-benchmark-v1";
const MIB: f64 = 1024.0 * 1024.0;
/// Campaign seeds derived from one `--seed`; repetitions cycle through
/// them, and every one runs at least once.
const ENSEMBLE: usize = 5;

/// How long the timed repetitions go on.
#[derive(Debug, Clone, Copy)]
enum Budget {
    Seconds(f64),
    Reps(usize),
}

#[derive(Debug)]
struct RunArgs {
    workloads: Vec<WorkloadSpec>,
    seed: u64,
    budget: Budget,
    /// `Some(false)`: end-to-end only; `Some(true)`: traced only;
    /// `None`: both.
    trace: Option<bool>,
    out: PathBuf,
}

/// What `run` measured on one workload.
#[derive(Debug, Default)]
struct Measured {
    end_to_end: Option<Layers>,
    per_layer: Option<Layers>,
    /// Every repetition's reading of the repeated timings, and the
    /// accuracy after each round, for whoever wants what is behind the
    /// reported numbers.
    samples: Vec<(String, Vec<f64>)>,
    repetitions: u64,
    round_samples: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Resolves the SIMD dispatcher's `OnceLock` before anything is timed:
/// one 64-sample encode and one packed predict.
fn warm_up() -> Result<(), String> {
    let encoder = RandomProjectionEncoder::new(256, 16, 0).map_err(|e| e.to_string())?;
    let hypervectors = encoder
        .encode_batch(&Tensor::ones(&[64, 16]))
        .map_err(|e| e.to_string())?;
    let batch = PackedBatch::from_tensor(&hypervectors).map_err(|e| e.to_string())?;
    let model = PackedHdModel::new(2, 256).map_err(|e| e.to_string())?;
    std::hint::black_box(model.predict_packed(batch.row(0)));
    Ok(())
}

/// What one member of the seed ensemble learned. Same-seed repetitions
/// must agree on all of it bit for bit.
#[derive(Debug, Default)]
struct Member {
    signature: Option<campaign::Signature>,
    /// Rounds up to and including the first at the target accuracy.
    rounds_to_target: usize,
    uplink_mib: f64,
    final_accuracy: f64,
    accuracy_history: Vec<f64>,
}

/// The campaign seed of ensemble member `k` of `--seed seed`.
fn member_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(ENSEMBLE as u64).wrapping_add(k as u64)
}

/// Repetitions of set-up, the campaign with the recorder off, and the
/// campaign again with `Recorder::in_memory()`, cycling through the
/// `ENSEMBLE` campaign seeds derived from `--seed`.
///
/// Timings. A repetition of one campaign seed does the same work bit
/// for bit, so what separates two readings of a timing is interference
/// from outside the process, and that only ever adds time. Each timing
/// is therefore the fastest repetition's, not the median's: on the
/// reference box the medians of two runs differ by 10 to 15 %, the
/// fastest repetitions by 2 to 9 %. `setup_s` alone is a median, as the
/// driver's contract asks.
///
/// Learning. How fast a small federation learns depends on its seed
/// (FedAvg crosses its target a round earlier or later on one seed in
/// four, a 25 % swing in bytes to target), so the three accuracy-derived
/// metrics are taken over the ensemble: the median member's rounds and
/// bytes to target, the mean member's final accuracy.
fn timed_run(
    w: &WorkloadSpec,
    seed: u64,
    budget: Budget,
    out: &mut Measured,
) -> Result<(), String> {
    let started = Instant::now();
    let ops = w.rounds as u64 + 2;
    let recorded_mode = Mode {
        observe: Observe::Recorded,
        ..Mode::TIMED
    };
    let (mut setup_s, mut campaign_s, mut build_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rounds_s, mut recorded_rounds_s, mut round_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut peak_mib, mut to_round) = (Vec::new(), Vec::new());
    let mut members: Vec<Member> = (0..ENSEMBLE).map(|_| Member::default()).collect();
    let mut round_samples = 0;
    let mut reps = 0;
    loop {
        let go_on = match budget {
            Budget::Reps(n) => reps < n,
            // Start another repetition only if half of it still fits, so
            // runs end around the budget instead of past it.
            Budget::Seconds(s) => {
                let elapsed = started.elapsed().as_secs_f64();
                reps < ENSEMBLE || elapsed + 0.5 * elapsed / (reps as f64) < s
            }
        };
        if !go_on {
            break;
        }
        let member = &mut members[reps % ENSEMBLE];
        let seed = member_seed(seed, reps % ENSEMBLE);
        reps += 1;
        let mut ledger = Ledger::new(seed);
        let mut inputs = setup(w, seed, &mut ledger)?;
        let rep = campaign(w, seed, &mut inputs, Mode::TIMED, &mut ledger)?;
        let mut recorded_ledger = Ledger::new(seed);
        let recorded = campaign(w, seed, &mut inputs, recorded_mode, &mut recorded_ledger)?;

        let signature = member.signature.get_or_insert_with(|| rep.signature());
        for (label, checked) in [("timed", &rep), ("recorded", &recorded)] {
            out.attempted += ops;
            let wrong = verify(w, checked, signature);
            if !wrong.is_empty() {
                out.failed += ops;
                out.problems.extend(
                    wrong
                        .into_iter()
                        .map(|p| format!("repetition {reps} (campaign seed {seed}), {label}: {p}")),
                );
            }
        }

        let build = build_seconds(&ledger);
        let per_round = ledger.seconds(Stage::RunRound);
        setup_s.push(ledger.total(Stage::Setup));
        campaign_s.push(campaign_seconds(&ledger));
        build_s.push(build);
        rounds_s.push(ledger.total(Stage::Rounds));
        recorded_rounds_s.push(recorded_ledger.total(Stage::Rounds));
        round_ms.push(median(&per_round) * 1e3);
        round_samples += per_round.len() as u64;
        peak_mib.push(rep.peak_bytes as f64 / MIB);
        if let Some(crossing) = rep.crossing(w.target_accuracy) {
            member.rounds_to_target = crossing + 1;
            let bytes: u64 = rep.uplink_bytes()[..=crossing].iter().sum();
            member.uplink_mib = bytes as f64 / MIB;
        }
        to_round.push((build, per_round));
        member.final_accuracy = rep.final_accuracy(w.tail_rounds());
        member.accuracy_history = rep
            .rounds
            .iter()
            .map(|r| f64::from(r.test_accuracy))
            .collect();
    }
    members.truncate(reps);
    let over_members =
        |value: fn(&Member) -> f64| -> Vec<f64> { members.iter().map(value).collect() };
    let final_accuracies = over_members(|m| m.final_accuracy);
    // Every member does all but the same work per round, so the time to
    // the median member's crossing round is read off every repetition,
    // not only that member's.
    let rounds_to_target = median(&over_members(|m| m.rounds_to_target as f64)) as usize;
    let to_target_s: Vec<f64> = to_round
        .iter()
        .map(|(build, per_round)| build + per_round[..rounds_to_target].iter().sum::<f64>())
        .collect();
    out.repetitions = reps as u64;
    out.round_samples = round_samples;
    let end_to_end = Layers::from([
        ("setup_s", median(&setup_s)),
        ("campaign_s", fastest(&campaign_s)),
        ("build_s", fastest(&build_s)),
        ("rounds_per_s", w.rounds as f64 / fastest(&rounds_s)),
        (
            "recorded_rounds_per_s",
            w.rounds as f64 / fastest(&recorded_rounds_s),
        ),
        ("round_ms_p50", fastest(&round_ms)),
        ("time_to_target_s", fastest(&to_target_s)),
        (
            "uplink_mib_to_target",
            median(&over_members(|m| m.uplink_mib)),
        ),
        (
            "final_accuracy",
            final_accuracies.iter().sum::<f64>() / final_accuracies.len() as f64,
        ),
        ("peak_mib", median(&peak_mib)),
    ]);
    out.samples = [
        ("setup_s", setup_s),
        ("campaign_s", campaign_s),
        ("build_s", build_s),
        ("rounds_s", rounds_s),
        ("recorded_rounds_s", recorded_rounds_s),
        ("round_ms_p50", round_ms),
        ("time_to_target_s", to_target_s),
    ]
    .map(|(name, values)| (name.to_string(), values))
    .into();
    for (k, member) in members.into_iter().enumerate() {
        out.samples
            .push((format!("accuracy_history.{k}"), member.accuracy_history));
    }
    for (name, value) in &end_to_end {
        if !value.is_finite() || *value <= 0.0 {
            out.failed = out.attempted;
            out.problems
                .push(format!("{name} = {value} is not a positive finite number"));
        }
    }
    out.end_to_end = Some(end_to_end);
    Ok(())
}

/// The fastest repetition's reading; 0 when there is none.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

fn traced_run(w: &WorkloadSpec, seed: u64, dir: &Path, out: &mut Measured) -> Result<(), String> {
    let traced = layers::traced(w, seed)?;
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    out.problems.extend(traced.problems);
    for (name, value) in &traced.layers {
        if !value.is_finite() {
            out.failed = out.attempted;
            out.problems.push(format!("{name} = {value} is not finite"));
        }
    }
    let trace = Value::obj(vec![
        ("schema", Value::from(SCHEMA)),
        ("workload", Value::from(w.name)),
        ("seed", Value::from(seed)),
        ("spans", traced.ledger.to_json()),
    ]);
    write_file(&dir.join(format!("trace-{}.json", w.name)), &trace)?;
    out.per_layer = Some(traced.layers);
    Ok(())
}

fn write_file(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{value}\n")).map_err(|e| format!("write {}: {e}", path.display()))
}

impl Measured {
    /// What was measured, in table order: the section's name, its
    /// metric table and its values. A metric with no value reads 0.
    fn sections(&self) -> Vec<(&'static str, &'static [MetricDef], &Layers)> {
        [
            ("end_to_end", &END_TO_END[..], &self.end_to_end),
            ("per_layer", &PER_LAYER[..], &self.per_layer),
        ]
        .into_iter()
        .filter_map(|(name, defs, values)| Some((name, defs, values.as_ref()?)))
        .collect()
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

fn metrics_object(defs: &[MetricDef], values: &Layers) -> Vec<(String, Value)> {
    defs.iter()
        .map(|def| {
            let value = values.get(def.name).copied().unwrap_or(0.0);
            let entry = Value::obj(vec![
                ("value", Value::from(value)),
                ("unit", Value::from(def.unit)),
            ]);
            (def.name.to_string(), entry)
        })
        .collect()
}

/// The table a person reads, then the one-line JSON object a driver
/// reads.
fn report(w: &WorkloadSpec, seed: u64, measured: &Measured) -> String {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "workload {}  seed {seed}  repetitions {}  round_samples {}  ops_attempted {}  ops_failed {}",
        w.name, measured.repetitions, measured.round_samples, measured.attempted, measured.failed
    );
    let mut line = Vec::new();
    for (section, defs, values) in measured.sections() {
        for def in defs {
            let value = values.get(def.name).copied().unwrap_or(0.0);
            let _ = writeln!(
                text,
                "  {section:<10}  {:<36} {value:>16.6} {}",
                def.name, def.unit
            );
        }
        line.extend(metrics_object(defs, values));
    }
    for problem in &measured.problems {
        let _ = writeln!(text, "  problem     {problem}");
    }
    let _ = writeln!(
        text,
        "{}",
        Value::obj(vec![
            ("correct", Value::from(measured.correct())),
            ("attempted", Value::from(measured.attempted.max(1))),
            ("failed", Value::from(measured.failed)),
            ("metrics", Value::Obj(line)),
        ])
    );
    text
}

fn result_entry(w: &WorkloadSpec, measured: &Measured) -> Value {
    let mut fields = vec![
        ("name", Value::from(w.name)),
        ("correct", Value::from(measured.correct())),
        ("ops_attempted", Value::from(measured.attempted)),
        ("ops_failed", Value::from(measured.failed)),
        ("repetitions", Value::from(measured.repetitions)),
        ("round_samples", Value::from(measured.round_samples)),
    ];
    for (section, defs, values) in measured.sections() {
        fields.push((section, Value::Obj(metrics_object(defs, values))));
    }
    if !measured.samples.is_empty() {
        let samples = measured.samples.iter().map(|(name, values)| {
            let values = values.iter().map(|v| Value::from(*v)).collect();
            (name.clone(), Value::Arr(values))
        });
        fields.push(("samples", Value::Obj(samples.collect())));
    }
    fields.push((
        "problems",
        Value::Arr(
            measured
                .problems
                .iter()
                .map(|p| Value::from(p.as_str()))
                .collect(),
        ),
    ));
    Value::obj(fields)
}

/// Runs the workloads, returns what to print. Kept apart from `main` so
/// the self-test can run `--smoke` in-process.
fn run(args: &RunArgs) -> Result<(String, bool), String> {
    warm_up()?;
    let mut text = String::new();
    let mut entries = Vec::new();
    let mut all_correct = true;
    let mut repetitions = 0;
    for w in &args.workloads {
        let mut measured = Measured::default();
        if args.trace != Some(true) {
            timed_run(w, args.seed, args.budget, &mut measured)?;
        }
        if args.trace != Some(false) {
            traced_run(w, member_seed(args.seed, 0), &args.out, &mut measured)?;
        }
        all_correct &= measured.correct();
        repetitions = repetitions.max(measured.repetitions);
        entries.push(result_entry(w, &measured));
        text.push_str(&report(w, args.seed, &measured));
    }
    let results = Value::obj(vec![
        ("schema", Value::from(SCHEMA)),
        (
            "fingerprint",
            fingerprint::fingerprint(args.seed, repetitions),
        ),
        ("workloads", Value::Arr(entries)),
    ]);
    write_file(&args.out.join("results.json"), &results)?;
    Ok((text, all_correct))
}

fn load_results(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let value = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if value.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} results file"));
    }
    Ok(value)
}

fn failure_share(entry: &Value) -> f64 {
    let field = |key| entry.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    field("ops_failed") / field("ops_attempted").max(1.0)
}

/// Applies `BENCHMARK.json`'s bounds to two results files: `b` may not
/// be worse than `a` by more than a metric's bound, nor fail a larger
/// share of its operations. Returns the table and whether `b` passes.
fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let contract = spec::contract()?;
    let mut text = String::new();
    let mut pass = true;
    for key in [
        "nproc",
        "cpu_model",
        "simd_backend",
        "fhdnn_no_simd",
        "rustc",
    ] {
        let of = |v: &Value| v.get("fingerprint").and_then(|f| f.get(key)).cloned();
        if of(a) != of(b) {
            let _ = writeln!(
                text,
                "warning: fingerprints differ in {key}; absolute rows are not like for like"
            );
        }
    }
    for entry_a in a.get("workloads").map_or(&[][..], Value::as_arr) {
        let name = entry_a.get("name").and_then(Value::as_str).unwrap_or("");
        let Some(entry_b) = b
            .get("workloads")
            .map_or(&[][..], Value::as_arr)
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
        else {
            let _ = writeln!(text, "{name}: missing from the second file");
            pass = false;
            continue;
        };
        if failure_share(entry_b) > failure_share(entry_a) {
            let _ = writeln!(
                text,
                "{name}: failed operations rose from {} to {} of those attempted  BREACH",
                failure_share(entry_a),
                failure_share(entry_b)
            );
            pass = false;
        }
        for def in &END_TO_END {
            let value = |entry: &Value| {
                entry
                    .get("end_to_end")?
                    .get(def.name)?
                    .get("value")?
                    .as_f64()
            };
            let (Some(va), Some(vb)) = (value(entry_a), value(entry_b)) else {
                continue;
            };
            let bound = spec::bound(&contract, def.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))?;
            let worse = if def.higher_is_better {
                va - vb
            } else {
                vb - va
            } / va;
            let breach = worse > bound;
            pass &= !breach;
            let _ = writeln!(
                text,
                "{name:<22} {:<24} {va:>14.6} -> {vb:>14.6} {:<8} worse by {:>+8.2}% (bound {:.0}%){}",
                def.name,
                def.unit,
                worse * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    Ok((text, pass))
}

fn parse_run(mut args: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let contract = spec::contract()?;
    let run_seconds = contract
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let (mut workload, mut seed, mut seconds, mut reps) = (None, 0, run_seconds, None);
    let (mut trace, mut smoke, mut out) = (None, false, PathBuf::from("target/benchmark"));
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: '{text}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)? as f64,
            "--reps" => reps = Some(number(value()?)? as usize),
            "--trace" => trace = Some(number(value()?)? != 0),
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let mut workloads = match workload {
        None => WORKLOADS.to_vec(),
        Some(name) => vec![spec::workload(&name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {name}; the workloads are {}",
                known.join(", ")
            )
        })?],
    };
    if smoke {
        workloads = workloads.into_iter().map(WorkloadSpec::smoke).collect();
        reps = reps.or(Some(2));
    }
    if reps == Some(0) {
        return Err("--reps must be at least 1".into());
    }
    Ok(RunArgs {
        workloads,
        seed,
        budget: reps.map_or(Budget::Seconds(seconds), Budget::Reps),
        trace,
        out,
    })
}

fn dispatch(mut args: impl Iterator<Item = String>) -> Result<(String, bool), String> {
    match args.next().as_deref() {
        Some("run") => run(&parse_run(args)?),
        Some("compare") => match (args.next(), args.next(), args.next()) {
            (Some(a), Some(b), None) => compare(&load_results(&a)?, &load_results(&b)?),
            _ => Err("usage: benchmark compare A.json B.json".into()),
        },
        _ => Err(
            "usage: benchmark run [--workload NAME] [--seed S] [--seconds T | --reps N] \
                  [--trace 0|1] [--smoke] [--out DIR]\n       benchmark compare A.json B.json"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1)) {
        Ok((text, pass)) => {
            print!("{text}");
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `--smoke` in-process: every workload and metric `BENCHMARK.json`
    /// names comes out exactly once per workload, with its unit, and the
    /// last line is the result object with every metric in it.
    #[test]
    fn smoke_prints_every_contracted_name_once() {
        let out =
            std::env::temp_dir().join(format!("fhdnn-benchmark-smoke-{}", std::process::id()));
        let flags = ["--smoke", "--seed", "3", "--out"].map(String::from);
        let args = parse_run(flags.into_iter().chain([out.display().to_string()])).unwrap();
        let (text, correct) = run(&args).unwrap();
        assert!(correct, "smoke run failed its own output check:\n{text}");

        let contract = spec::contract().unwrap();
        let listed = |section: &str| -> Vec<(String, String)> {
            contract
                .get(section)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    let field =
                        |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let blocks: Vec<&str> = text.split("workload ").skip(1).collect();
        let workloads = listed("workloads");
        assert_eq!(blocks.len(), workloads.len());
        for ((workload, _), block) in workloads.iter().zip(&blocks) {
            assert!(well_formed(workload), "{workload}");
            assert!(block.starts_with(&format!("{workload} ")), "{block}");
            let table: Vec<&str> = block.lines().filter(|l| l.starts_with("  ")).collect();
            for (name, unit) in listed("end_to_end").iter().chain(&listed("per_layer")) {
                assert!(well_formed(name), "{name}");
                let rows: Vec<&&str> = table
                    .iter()
                    .filter(|l| l.split_whitespace().nth(1) == Some(name))
                    .collect();
                assert_eq!(
                    rows.len(),
                    1,
                    "{workload}: {name} printed {} times",
                    rows.len()
                );
                assert_eq!(
                    rows[0].split_whitespace().last(),
                    Some(unit.as_str()),
                    "{name}"
                );
            }
            let last = json::parse(block.lines().last().unwrap()).unwrap();
            assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(last.get("failed"), Some(&Value::Num(0.0)));
            let metrics = last.get("metrics").unwrap().as_obj();
            assert_eq!(metrics.len(), END_TO_END.len() + PER_LAYER.len());
        }
        for w in &WORKLOADS {
            assert!(out.join(format!("trace-{}.json", w.name)).exists());
        }

        let results = load_results(&out.join("results.json").display().to_string()).unwrap();
        let (table, pass) = compare(&results, &results).unwrap();
        assert!(
            pass,
            "a results file does not compare equal to itself:\n{table}"
        );
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn compare_flags_a_breach_and_a_rise_in_failures() {
        let file = |campaign_s: f64, failed: u64| {
            json::parse(&format!(
                r#"{{"schema": "{SCHEMA}", "fingerprint": {{}}, "workloads": [{{"name": "w",
                    "ops_attempted": 10, "ops_failed": {failed},
                    "end_to_end": {{"campaign_s": {{"value": {campaign_s}, "unit": "s"}}}}}}]}}"#
            ))
            .unwrap()
        };
        assert!(compare(&file(1.0, 0), &file(1.05, 0)).unwrap().1);
        assert!(!compare(&file(1.0, 0), &file(1.5, 0)).unwrap().1);
        assert!(!compare(&file(1.0, 0), &file(1.0, 1)).unwrap().1);
    }

    #[test]
    fn run_flags_are_checked() {
        let parse = |flags: &[&str]| parse_run(flags.iter().map(|f| f.to_string()));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--reps", "0"]).is_err());
        let args = parse(&[
            "--workload",
            "feat_quant_biterr",
            "--seed",
            "4",
            "--seconds",
            "7",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workloads.len(), 1);
        assert_eq!((args.seed, args.trace), (4, Some(true)));
        assert!(matches!(args.budget, Budget::Seconds(s) if s == 7.0));
    }
}
