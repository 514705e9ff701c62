//! The paper's qualitative results, pinned on the committed
//! `results/*.json`: a refactor, kernel change or RNG swap that
//! regenerates those files cannot move a conclusion silently. Bands are
//! wide enough for another seed or stream, narrow enough that an ordering
//! cannot flip inside them. Read through the workspace's one JSON codec,
//! which the same files also exercise as a writer.

use fhdnn::telemetry::jsonl::{self, Value};

const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

fn load(path: impl AsRef<std::path::Path>) -> Value {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    jsonl::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn report(id: &str) -> Value {
    load(format!("{RESULTS}/{id}.json"))
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Arr(items) => items,
        other => panic!("not an array: {other}"),
    }
}

/// The `(x, y)` points of the one series whose label starts with `label`.
fn series(report: &Value, label: &str) -> Vec<(f64, f64)> {
    let matches: Vec<&Value> = items(report.get("series").expect("series"))
        .iter()
        .filter(|s| {
            s.get("label")
                .and_then(Value::as_str)
                .unwrap()
                .starts_with(label)
        })
        .collect();
    assert_eq!(matches.len(), 1, "series {label:?}");
    let axis = |key: &str| -> Vec<f64> {
        items(matches[0].get(key).unwrap())
            .iter()
            .map(|n| n.as_f64().expect("finite number"))
            .collect()
    };
    axis("x").into_iter().zip(axis("y")).collect()
}

/// The value of the summary row `key`.
fn summary<'a>(report: &'a Value, key: &str) -> &'a str {
    items(report.get("summary").expect("summary"))
        .iter()
        .map(items)
        .find(|row| row[0].as_str() == Some(key))
        .and_then(|row| row[1].as_str())
        .unwrap_or_else(|| panic!("no summary row {key:?}"))
}

#[test]
fn fig5_retention_is_linear_and_accuracy_survives_masking() {
    let report = report("fig5");
    for (removed, retention) in series(&report, "(a)") {
        let linear = 1.0 - removed;
        assert!(
            (retention - linear).abs() <= 0.03,
            "retention {retention} at {removed} removed, linear law says {linear}"
        );
    }
    let accuracy = series(&report, "(b)");
    let baseline = accuracy[0].1;
    let (_, at_80) = *accuracy
        .iter()
        .find(|(removed, _)| (removed - 0.8).abs() < 1e-6)
        .expect("80% point");
    assert!(at_80 >= baseline - 0.2, "{at_80} vs baseline {baseline}");
}

#[test]
fn fig7_fhdnn_converges_in_fewer_rounds() {
    let report = report("fig7");
    for workload in ["mnist", "fashion", "cifar"] {
        let fhdnn = series(&report, &format!("fhdnn/{workload}"));
        let resnet = series(&report, &format!("resnet/{workload}"));
        // The shared target of `figures::fig7`: 90% of the weaker final.
        let target = 0.9 * fhdnn.last().unwrap().1.min(resnet.last().unwrap().1);
        let rounds = |curve: &[(f64, f64)]| {
            curve
                .iter()
                .find(|(_, acc)| *acc >= target)
                .map(|(round, _)| *round)
                .expect("both reach the shared target")
        };
        assert!(
            rounds(&fhdnn) < rounds(&resnet),
            "{workload}: fhdnn {} vs resnet {} rounds to {target:.3}",
            rounds(&fhdnn),
            rounds(&resnet)
        );
    }
}

#[test]
fn fig8_fhdnn_holds_where_resnet_collapses() {
    let report = report("fig8");
    // (channel, fhdnn series suffix, the harsh end of its x axis)
    type OnAxis = fn(f64) -> bool;
    let harsh: [(&str, &str, OnAxis); 3] = [
        ("packet-loss", "fhdnn", |loss| (loss - 0.2).abs() < 1e-6),
        ("awgn", "fhdnn", |snr_db| snr_db == 5.0),
        ("bit-error", "fhdnn(quantized)", |ber| {
            ber >= 1e-4 * (1.0 - 1e-6)
        }),
    ];
    for split in ["iid", "non-iid"] {
        for (channel, fhdnn_name, is_harsh) in harsh {
            let fhdnn = series(&report, &format!("{channel}/{split}/{fhdnn_name}:"));
            let resnet = series(&report, &format!("{channel}/{split}/resnet:"));
            let best = fhdnn.iter().map(|p| p.1).fold(f64::MIN, f64::max);
            let mut points = 0;
            for ((x, hd), (_, cnn)) in fhdnn.iter().zip(&resnet).filter(|(p, _)| is_harsh(p.0)) {
                points += 1;
                let at = format!("{channel}/{split} at {x}");
                assert!(best - hd <= 0.15, "{at}: fhdnn {hd} vs its best {best}");
                assert!(hd - cnn >= 0.2, "{at}: fhdnn {hd} vs resnet {cnn}");
            }
            assert!(points > 0, "{channel}/{split}: no harsh point");
        }
    }
}

#[test]
fn comm_data_reduction_holds() {
    let report = report("comm");
    let reduction = summary(&report, "measured data reduction");
    let factor: f64 = reduction
        .strip_suffix('x')
        .and_then(|f| f.parse().ok())
        .unwrap_or_else(|| panic!("unreadable factor {reduction:?}"));
    assert!(factor >= 15.0, "§4.4 data reduction fell to {reduction}");
}

/// Every committed report survives the writer, indented and on one line.
#[test]
fn committed_results_round_trip_through_the_writer() {
    let mut files: Vec<_> = std::fs::read_dir(RESULTS)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 16, "{files:?}");
    for path in files {
        let parsed = load(&path);
        assert_eq!(
            jsonl::parse(&format!("{parsed:#}")).as_ref(),
            Ok(&parsed),
            "{path:?}"
        );
        assert_eq!(
            jsonl::parse(&parsed.to_string()).as_ref(),
            Ok(&parsed),
            "{path:?}"
        );
    }
}
