//! Command-line argument parsing (hand-rolled, dependency-free).

use fhdnn::experiment::Workload;
use fhdnn::federated::fedhd::HdTransport;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand to execute.
    pub command: Command,
}

/// Supported subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a federated simulation.
    Simulate(SimulateArgs),
    /// Pretrain an extractor and write a checkpoint.
    Pretrain {
        /// Workload providing the unlabeled pool.
        workload: Workload,
        /// Output checkpoint path.
        out: String,
        /// Master seed.
        seed: u64,
    },
    /// Evaluate a checkpoint on a fresh test set.
    Evaluate {
        /// Checkpoint path.
        ckpt: String,
        /// Workload to evaluate on.
        workload: Workload,
        /// Test-set size.
        test_size: usize,
    },
    /// Print checkpoint metadata.
    Info {
        /// Checkpoint path.
        ckpt: String,
    },
    /// Render a span-tree profile, live or from a recorded stream.
    Profile(ProfileArgs),
    /// Render the model-health dashboard, live or from a recorded stream.
    Watch(WatchArgs),
    /// Render the round-anatomy execution trace (per-worker timelines,
    /// critical path), live or from a recorded stream.
    Trace(TraceArgs),
    /// Export the latest health snapshot from a recorded stream.
    Export {
        /// Recorded `--telemetry` JSONL stream to read.
        from: String,
        /// Prometheus text-exposition output path (`-` for stdout).
        prom: String,
    },
    /// Run the workspace invariant checker.
    Lint(LintArgs),
}

/// Arguments for `lint`.
#[derive(Debug, Clone, PartialEq)]
pub struct LintArgs {
    /// Emit the machine-readable JSON report instead of text.
    pub json: bool,
    /// Regenerate `lint-schema.toml` from the current sources.
    pub fix_baseline: bool,
    /// Print a rule's help, rationale, and dirty/clean example instead
    /// of running the lint.
    pub explain: Option<String>,
    /// Workspace root to scan (defaults to the current directory).
    pub root: String,
}

impl Default for LintArgs {
    fn default() -> Self {
        LintArgs {
            json: false,
            fix_baseline: false,
            explain: None,
            root: ".".into(),
        }
    }
}

/// Arguments for `watch`.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchArgs {
    /// Replay a recorded `--telemetry` JSONL stream instead of running a
    /// fresh simulation.
    pub from: Option<String>,
    /// Simulation to watch when `from` is absent (same flags as
    /// `simulate`).
    pub sim: SimulateArgs,
}

/// Arguments for `trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    /// Replay a recorded `--telemetry` JSONL stream instead of running a
    /// fresh simulation.
    pub from: Option<String>,
    /// Optional Chrome trace-event JSON output path (`-` for stdout),
    /// loadable in Perfetto / chrome://tracing.
    pub chrome: Option<String>,
    /// Simulation to trace when `from` is absent (same flags as
    /// `simulate`).
    pub sim: SimulateArgs,
}

/// Arguments for `profile`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileArgs {
    /// Replay a recorded `--telemetry` JSONL stream instead of running a
    /// fresh simulation.
    pub from: Option<String>,
    /// Optional collapsed-stack (flamegraph-compatible) output path.
    pub collapsed: Option<String>,
    /// Also render the allocation tree (span-attributed allocs/bytes)
    /// next to the time tree.
    pub mem: bool,
    /// Simulation to profile when `from` is absent (same flags as
    /// `simulate`).
    pub sim: SimulateArgs,
}

/// Output verbosity of the `simulate` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verbosity {
    /// `-q`: only the final accuracy line (and errors).
    Quiet,
    /// Default: progress, per-round table, telemetry summary.
    #[default]
    Normal,
    /// `-v`: additionally per-round byte/timing columns and channel
    /// impairment totals.
    Verbose,
}

/// Arguments for `simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateArgs {
    /// Workload to train on.
    pub workload: Workload,
    /// Channel specification string (see [`crate::parse_channel`]).
    pub channel: String,
    /// Rounds to run (0 keeps the scale preset's default).
    pub rounds: usize,
    /// Clients in the federation (0 keeps the scale preset's default).
    /// The training pool grows with the cohort so every client keeps at
    /// least a couple of samples.
    pub clients: usize,
    /// Fleet-telemetry mode: per-client event emission is replaced by
    /// mergeable sketch summaries, keeping telemetry cost per round O(1)
    /// in the cohort size. Results are unchanged.
    pub fleet_telemetry: bool,
    /// Run non-IID (2-shard) partitioning.
    pub non_iid: bool,
    /// Also run the ResNet FedAvg baseline for comparison.
    pub baseline: bool,
    /// HD transport.
    pub transport: HdTransport,
    /// Enable contrastive pretraining of the extractor.
    pub pretrain: bool,
    /// Master seed.
    pub seed: u64,
    /// Round-pool threads (`0` = auto-detect, `1` = serial). Purely a
    /// wall-clock knob: results are byte-identical at every value.
    pub threads: usize,
    /// Optional checkpoint output path for the trained deployment.
    pub save: Option<String>,
    /// Optional JSONL telemetry event-stream output path.
    pub telemetry: Option<String>,
    /// Output verbosity.
    pub verbosity: Verbosity,
}

impl Default for SimulateArgs {
    fn default() -> Self {
        SimulateArgs {
            workload: Workload::Cifar,
            channel: "noiseless".into(),
            rounds: 0,
            clients: 0,
            fleet_telemetry: false,
            non_iid: false,
            baseline: false,
            transport: HdTransport::Float,
            pretrain: true,
            seed: 0,
            threads: 0,
            save: None,
            telemetry: None,
            verbosity: Verbosity::Normal,
        }
    }
}

fn parse_workload(s: &str) -> Result<Workload, String> {
    match s {
        "mnist" => Ok(Workload::Mnist),
        "fashion" => Ok(Workload::Fashion),
        "cifar" => Ok(Workload::Cifar),
        other => Err(format!(
            "unknown workload '{other}' (expected mnist, fashion, cifar)"
        )),
    }
}

fn parse_transport(s: &str) -> Result<HdTransport, String> {
    match s {
        "float" => Ok(HdTransport::Float),
        "binary" => Ok(HdTransport::Binary),
        other => {
            if let Some(bits) = other.strip_prefix("q") {
                let bitwidth: u32 = bits
                    .parse()
                    .map_err(|e| format!("quantized bitwidth: {e}"))?;
                Ok(HdTransport::Quantized { bitwidth })
            } else {
                Err(format!(
                    "unknown transport '{other}' (expected float, q<bits>, binary)"
                ))
            }
        }
    }
}

/// The value following the first occurrence of `flag`, if the flag is
/// present at all.
fn flag_value(rest: &[&String], flag: &str) -> Result<Option<String>, String> {
    let Some(at) = rest.iter().position(|a| *a == flag) else {
        return Ok(None);
    };
    match rest.get(at + 1) {
        Some(value) => Ok(Some((*value).clone())),
        None => Err(format!("{flag} needs a value")),
    }
}

/// The `simulate` flags that take a value, and its bare switches: what
/// [`parse_simulate_args`] reads.
const SIMULATE_VALUED: &[&str] = &[
    "--workload",
    "--channel",
    "--rounds",
    "--clients",
    "--transport",
    "--seed",
    "--threads",
    "--save",
    "--telemetry",
];
const SIMULATE_SWITCHES: &[&str] = &[
    "--non-iid",
    "--fleet-telemetry",
    "--baseline",
    "--no-pretrain",
    "-q",
    "--quiet",
    "-v",
    "--verbose",
];

/// Fails on the first argument of `command` that is neither one of its
/// `valued` flags, the value after one, nor one of its `switches`; with
/// `live`, the `simulate` flags count as the command's own.
fn reject_unknown(
    command: &str,
    rest: &[&String],
    valued: &[&str],
    switches: &[&str],
    live: bool,
) -> Result<(), String> {
    let mut args = rest.iter().map(|arg| arg.as_str());
    while let Some(arg) = args.next() {
        if valued.contains(&arg) || (live && SIMULATE_VALUED.contains(&arg)) {
            args.next(); // its value; a missing one is reported where the flag is read
        } else if !(switches.contains(&arg) || (live && SIMULATE_SWITCHES.contains(&arg))) {
            return Err(format!("{command}: unknown argument '{arg}'"));
        }
    }
    Ok(())
}

/// Parses the `simulate` flag set out of an argument list. Shared by
/// `simulate` and the live modes of `profile`, `watch` and `trace`.
fn parse_simulate_args(rest: &[&String]) -> Result<SimulateArgs, String> {
    let get_value = |flag| flag_value(rest, flag);
    let has_flag = |flag: &str| rest.iter().any(|a| *a == flag);

    let mut sim = SimulateArgs::default();
    if let Some(w) = get_value("--workload")? {
        sim.workload = parse_workload(&w)?;
    }
    if let Some(c) = get_value("--channel")? {
        sim.channel = c;
    }
    if let Some(r) = get_value("--rounds")? {
        sim.rounds = r.parse().map_err(|e| format!("--rounds: {e}"))?;
    }
    if let Some(c) = get_value("--clients")? {
        sim.clients = c.parse().map_err(|e| format!("--clients: {e}"))?;
    }
    if let Some(t) = get_value("--transport")? {
        sim.transport = parse_transport(&t)?;
    }
    if let Some(s) = get_value("--seed")? {
        sim.seed = s.parse().map_err(|e| format!("--seed: {e}"))?;
    }
    if let Some(t) = get_value("--threads")? {
        sim.threads = t.parse().map_err(|e| format!("--threads: {e}"))?;
    }
    sim.save = get_value("--save")?;
    sim.telemetry = get_value("--telemetry")?;
    sim.non_iid = has_flag("--non-iid");
    sim.fleet_telemetry = has_flag("--fleet-telemetry");
    sim.baseline = has_flag("--baseline");
    if has_flag("--no-pretrain") {
        sim.pretrain = false;
    }
    let quiet = has_flag("-q") || has_flag("--quiet");
    let verbose = has_flag("-v") || has_flag("--verbose");
    sim.verbosity = match (quiet, verbose) {
        (true, true) => return Err("choose one of --quiet/--verbose".into()),
        (true, false) => Verbosity::Quiet,
        (false, true) => Verbosity::Verbose,
        (false, false) => Verbosity::Normal,
    };
    Ok(sim)
}

/// The usage text printed on `--help` or argument errors.
pub const USAGE: &str = "\
usage: fhdnn <command> [options]

commands:
  simulate   run a federated FHDnn simulation
             --workload mnist|fashion|cifar   (default cifar)
             --channel SPEC                   noiseless | packet:0.2 | awgn:10 |
                                              ber:1e-3 | burst:g,b,g2b,b2g
             --rounds N                       override round count
             --clients N                      override client count (the training
                                              pool scales with the cohort)
             --fleet-telemetry                O(1)-per-round telemetry: sketch
                                              summaries + exemplars instead of
                                              per-client events (results are
                                              unchanged)
             --non-iid                        2-shard pathological split
             --baseline                       also run the ResNet baseline
             --transport float|q<bits>|binary (default float)
             --no-pretrain                    use a random extractor
             --seed N                         master seed (default 0)
             --threads N                      round-pool threads (0 = auto,
                                              default; results identical at
                                              every value)
             --save PATH                      write the trained checkpoint
             --telemetry PATH                 stream telemetry events to PATH (JSONL)
             -q, --quiet                      only the final accuracy line
             -v, --verbose                    per-round bytes/timing + channel stats
  profile    span-tree profile of a simulation (or a recorded stream)
             --from PATH                      replay a recorded --telemetry JSONL
                                              stream instead of simulating
             --collapsed PATH                 also write collapsed stacks
                                              (flamegraph.pl / inferno input)
             --mem                            also render the allocation tree
                                              (span-attributed allocs/bytes)
             plus any simulate flags when running live
  watch      model-health dashboard of a simulation (or a recorded stream):
             accuracy sparkline, channel damage, saturation gauge, alerts
             --from PATH                      replay a recorded --telemetry JSONL
                                              stream (deterministic render)
             plus any simulate flags when running live
  trace      round-anatomy execution trace of a simulation (or a recorded
             stream): per-round critical path, worker utilization, queue
             depth, dual-lane (measured + simulated AIoT) timelines
             --from PATH                      replay a recorded --telemetry JSONL
                                              stream (deterministic render)
             --chrome PATH                    also write Chrome trace-event JSON
                                              (Perfetto-loadable; '-' for stdout)
             plus any simulate flags when running live
  export     --from PATH --prom PATH          write the latest health snapshot
                                              in Prometheus text exposition
                                              format (PATH '-' for stdout)
  lint       check workspace invariants (determinism, forbidden APIs,
             unsafe audit, telemetry registry, record schema freeze);
             exits non-zero on any error-severity finding
             --json                           machine-readable report (stable
                                              ordering; byte-identical reruns)
             --fix-baseline                   regenerate lint-schema.toml after
                                              an intentional schema change
             --explain RULE                   print a rule's help, rationale,
                                              and dirty/clean example pair
             --root PATH                      workspace root (default .)
  pretrain   --workload W --out PATH [--seed N]
  evaluate   --ckpt PATH --workload W [--test-size N]
  info       --ckpt PATH";

impl Cli {
    /// Parses command-line arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a message suitable for printing alongside [`USAGE`].
    pub fn parse(args: &[String]) -> Result<Cli, String> {
        let mut it = args.iter();
        let command = it.next().ok_or("missing command")?;
        let rest: Vec<&String> = it.collect();
        let get_value = |flag| flag_value(&rest, flag);
        let has_flag = |flag: &str| rest.iter().any(|a| *a == flag);

        // Every arm names the flags it is about to read before reading them.
        let known = |valued: &[&str], switches: &[&str], live: bool| {
            reject_unknown(command, &rest, valued, switches, live)
        };

        let command = match command.as_str() {
            "simulate" => {
                known(&[], &[], true)?;
                Command::Simulate(parse_simulate_args(&rest)?)
            }
            "profile" => {
                known(&["--from", "--collapsed"], &["--mem"], true)?;
                Command::Profile(ProfileArgs {
                    sim: parse_simulate_args(&rest)?,
                    from: get_value("--from")?,
                    collapsed: get_value("--collapsed")?,
                    mem: has_flag("--mem"),
                })
            }
            "watch" => {
                known(&["--from"], &[], true)?;
                Command::Watch(WatchArgs {
                    sim: parse_simulate_args(&rest)?,
                    from: get_value("--from")?,
                })
            }
            "trace" => {
                known(&["--from", "--chrome"], &[], true)?;
                Command::Trace(TraceArgs {
                    sim: parse_simulate_args(&rest)?,
                    from: get_value("--from")?,
                    chrome: get_value("--chrome")?,
                })
            }
            "export" => {
                known(&["--from", "--prom"], &[], false)?;
                Command::Export {
                    from: get_value("--from")?.ok_or("export needs --from")?,
                    prom: get_value("--prom")?.ok_or("export needs --prom")?,
                }
            }
            "lint" => {
                known(
                    &["--explain", "--root"],
                    &["--json", "--fix-baseline"],
                    false,
                )?;
                Command::Lint(LintArgs {
                    json: has_flag("--json"),
                    fix_baseline: has_flag("--fix-baseline"),
                    explain: get_value("--explain")?,
                    root: get_value("--root")?.unwrap_or_else(|| ".".into()),
                })
            }
            "pretrain" => {
                known(&["--workload", "--out", "--seed"], &[], false)?;
                Command::Pretrain {
                    workload: parse_workload(
                        &get_value("--workload")?.ok_or("pretrain needs --workload")?,
                    )?,
                    out: get_value("--out")?.ok_or("pretrain needs --out")?,
                    seed: match get_value("--seed")? {
                        Some(s) => s.parse().map_err(|e| format!("--seed: {e}"))?,
                        None => 0,
                    },
                }
            }
            "evaluate" => {
                known(&["--ckpt", "--workload", "--test-size"], &[], false)?;
                Command::Evaluate {
                    ckpt: get_value("--ckpt")?.ok_or("evaluate needs --ckpt")?,
                    workload: parse_workload(
                        &get_value("--workload")?.ok_or("evaluate needs --workload")?,
                    )?,
                    test_size: match get_value("--test-size")? {
                        Some(s) => s.parse().map_err(|e| format!("--test-size: {e}"))?,
                        None => 200,
                    },
                }
            }
            "info" => {
                known(&["--ckpt"], &[], false)?;
                Command::Info {
                    ckpt: get_value("--ckpt")?.ok_or("info needs --ckpt")?,
                }
            }
            "--help" | "-h" | "help" => return Err(String::new()),
            other => return Err(format!("unknown command '{other}'")),
        };
        Ok(Cli { command })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn simulate_defaults() {
        let cli = Cli::parse(&args("simulate")).unwrap();
        let Command::Simulate(sim) = cli.command else {
            panic!("expected simulate");
        };
        assert_eq!(sim.workload, Workload::Cifar);
        assert_eq!(sim.channel, "noiseless");
        assert!(sim.pretrain);
        assert!(!sim.baseline);
        assert_eq!(sim.clients, 0);
        assert!(!sim.fleet_telemetry);
        assert_eq!(sim.threads, 0);
        assert_eq!(sim.telemetry, None);
        assert_eq!(sim.verbosity, Verbosity::Normal);
    }

    #[test]
    fn simulate_full_flags() {
        let cli = Cli::parse(&args(
            "simulate --workload mnist --channel packet:0.2 --rounds 7 --clients 100 \
             --non-iid --baseline --transport q8 --no-pretrain \
             --seed 9 --threads 4 \
             --fleet-telemetry --save out.bin --telemetry trace.jsonl -v",
        ))
        .unwrap();
        let Command::Simulate(sim) = cli.command else {
            panic!("expected simulate");
        };
        assert_eq!(sim.workload, Workload::Mnist);
        assert_eq!(sim.channel, "packet:0.2");
        assert_eq!(sim.rounds, 7);
        assert_eq!(sim.clients, 100);
        assert!(sim.fleet_telemetry);
        assert!(sim.non_iid && sim.baseline && !sim.pretrain);
        assert_eq!(sim.transport, HdTransport::Quantized { bitwidth: 8 });
        assert_eq!(sim.seed, 9);
        assert_eq!(sim.threads, 4);
        assert_eq!(sim.save.as_deref(), Some("out.bin"));
        assert_eq!(sim.telemetry.as_deref(), Some("trace.jsonl"));
        assert_eq!(sim.verbosity, Verbosity::Verbose);
    }

    #[test]
    fn verbosity_flags() {
        for flags in ["-q", "--quiet"] {
            let cli = Cli::parse(&args(&format!("simulate {flags}"))).unwrap();
            let Command::Simulate(sim) = cli.command else {
                panic!("expected simulate");
            };
            assert_eq!(sim.verbosity, Verbosity::Quiet);
        }
        let cli = Cli::parse(&args("simulate --verbose")).unwrap();
        let Command::Simulate(sim) = cli.command else {
            panic!("expected simulate");
        };
        assert_eq!(sim.verbosity, Verbosity::Verbose);
        assert!(Cli::parse(&args("simulate -q -v")).is_err());
    }

    #[test]
    fn transport_parsing() {
        assert_eq!(parse_transport("float").unwrap(), HdTransport::Float);
        assert_eq!(parse_transport("binary").unwrap(), HdTransport::Binary);
        assert_eq!(
            parse_transport("q16").unwrap(),
            HdTransport::Quantized { bitwidth: 16 }
        );
        assert!(parse_transport("q").is_err());
        assert!(parse_transport("int8").is_err());
    }

    #[test]
    fn other_commands_parse() {
        assert!(matches!(
            Cli::parse(&args("pretrain --workload fashion --out x.bin"))
                .unwrap()
                .command,
            Command::Pretrain { .. }
        ));
        assert!(matches!(
            Cli::parse(&args("evaluate --ckpt x.bin --workload mnist"))
                .unwrap()
                .command,
            Command::Evaluate { test_size: 200, .. }
        ));
        assert!(matches!(
            Cli::parse(&args("info --ckpt x.bin")).unwrap().command,
            Command::Info { .. }
        ));
    }

    #[test]
    fn profile_parses_replay_and_live_forms() {
        let cli = Cli::parse(&args(
            "profile --from trace.jsonl --collapsed out.folded --mem",
        ))
        .unwrap();
        let Command::Profile(p) = cli.command else {
            panic!("expected profile");
        };
        assert_eq!(p.from.as_deref(), Some("trace.jsonl"));
        assert_eq!(p.collapsed.as_deref(), Some("out.folded"));
        assert!(p.mem);

        let cli = Cli::parse(&args("profile --workload mnist --rounds 3 -q")).unwrap();
        let Command::Profile(p) = cli.command else {
            panic!("expected profile");
        };
        assert_eq!(p.from, None);
        assert!(!p.mem);
        assert_eq!(p.sim.workload, Workload::Mnist);
        assert_eq!(p.sim.rounds, 3);
        assert_eq!(p.sim.verbosity, Verbosity::Quiet);
    }

    #[test]
    fn watch_parses_replay_and_live_forms() {
        let cli = Cli::parse(&args("watch --from trace.jsonl")).unwrap();
        let Command::Watch(w) = cli.command else {
            panic!("expected watch");
        };
        assert_eq!(w.from.as_deref(), Some("trace.jsonl"));

        let cli = Cli::parse(&args(
            "watch --workload mnist --channel ber:1e-3 --rounds 4",
        ))
        .unwrap();
        let Command::Watch(w) = cli.command else {
            panic!("expected watch");
        };
        assert_eq!(w.from, None);
        assert_eq!(w.sim.workload, Workload::Mnist);
        assert_eq!(w.sim.channel, "ber:1e-3");
        assert_eq!(w.sim.rounds, 4);
    }

    #[test]
    fn trace_parses_replay_and_live_forms() {
        let cli = Cli::parse(&args("trace --from run.jsonl --chrome out.json")).unwrap();
        let Command::Trace(t) = cli.command else {
            panic!("expected trace");
        };
        assert_eq!(t.from.as_deref(), Some("run.jsonl"));
        assert_eq!(t.chrome.as_deref(), Some("out.json"));

        let cli = Cli::parse(&args("trace --workload mnist --rounds 2 --threads 4")).unwrap();
        let Command::Trace(t) = cli.command else {
            panic!("expected trace");
        };
        assert_eq!(t.from, None);
        assert_eq!(t.chrome, None);
        assert_eq!(t.sim.workload, Workload::Mnist);
        assert_eq!(t.sim.rounds, 2);
        assert_eq!(t.sim.threads, 4);
        assert!(Cli::parse(&args("trace --chrome")).is_err());
    }

    #[test]
    fn export_needs_both_paths() {
        let cli = Cli::parse(&args("export --from trace.jsonl --prom out.prom")).unwrap();
        assert_eq!(
            cli.command,
            Command::Export {
                from: "trace.jsonl".into(),
                prom: "out.prom".into(),
            }
        );
        assert!(Cli::parse(&args("export --from trace.jsonl")).is_err());
        assert!(Cli::parse(&args("export --prom out.prom")).is_err());
    }

    #[test]
    fn lint_parses_flags_and_rejects_strays() {
        let cli = Cli::parse(&args("lint")).unwrap();
        assert_eq!(cli.command, Command::Lint(LintArgs::default()));

        let cli = Cli::parse(&args("lint --json --fix-baseline --root sub/dir")).unwrap();
        assert_eq!(
            cli.command,
            Command::Lint(LintArgs {
                json: true,
                fix_baseline: true,
                explain: None,
                root: "sub/dir".into(),
            })
        );

        let cli = Cli::parse(&args("lint --explain forbidden/panic")).unwrap();
        assert_eq!(
            cli.command,
            Command::Lint(LintArgs {
                explain: Some("forbidden/panic".into()),
                ..LintArgs::default()
            })
        );

        assert!(Cli::parse(&args("lint --jsno")).is_err());
        assert!(Cli::parse(&args("lint --root")).is_err());
        assert!(Cli::parse(&args("lint --explain")).is_err());
    }

    #[test]
    fn every_subcommand_rejects_flags_it_does_not_know() {
        // A flag that is misspelt, was removed (`--execution`, PR 23) or
        // belongs to another subcommand is named in the error, not dropped.
        for (line, stray) in [
            ("simulate --execution reference", "--execution"),
            ("simulate --rounds 3 --mem", "--mem"),
            ("profile --from run.jsonl --chrome out.json", "--chrome"),
            (
                "watch --workload mnist --collapsed out.folded",
                "--collapsed",
            ),
            ("trace --chrome out.json --prom out.prom", "--prom"),
            ("export --from run.jsonl --prom out.prom --json", "--json"),
            ("lint --json --workload mnist", "--workload"),
            (
                "pretrain --workload mnist --out x.bin --rounds 3",
                "--rounds",
            ),
            ("evaluate --ckpt x.bin --workload mnist --seed 1", "--seed"),
            ("info --ckpt x.bin extra", "extra"),
        ] {
            let command = line.split(' ').next().unwrap();
            let error = Cli::parse(&args(line)).unwrap_err();
            assert_eq!(error, format!("{command}: unknown argument '{stray}'"));
        }
        // A flag's value is never taken for a flag.
        assert!(Cli::parse(&args("export --from --json --prom -")).is_ok());
    }

    #[test]
    fn errors_are_actionable() {
        assert!(Cli::parse(&args("pretrain --out x.bin")).is_err());
        assert!(Cli::parse(&args("simulate --rounds abc")).is_err());
        assert!(Cli::parse(&args("simulate --clients abc")).is_err());
        assert!(Cli::parse(&args("simulate --threads abc")).is_err());
        assert!(Cli::parse(&args("teleport")).is_err());
        assert!(Cli::parse(&[]).is_err());
        assert!(Cli::parse(&args("simulate --workload")).is_err());
    }
}
