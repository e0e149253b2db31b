//! Smoke-scale runs of every workload: the metric sets, the
//! verification and the seed handling, at sizes a test can afford.

use tcgen_e2ebench::inputs::Scale;
use tcgen_e2ebench::layers::LAYER_METRICS;
use tcgen_e2ebench::stats::Metric;
use tcgen_e2ebench::{result_line, run, Report, Workload, END_TO_END};

fn names(metrics: &[Metric]) -> Vec<(&str, &str)> {
    metrics.iter().map(|m| (m.name, m.unit)).collect()
}

fn value(report: &Report, name: &str) -> f64 {
    report.metrics.iter().find(|m| m.name == name).unwrap().value
}

fn timed(workload: Workload, seed: u64) -> Report {
    run(workload, seed, 0.2, false, &Scale::SMOKE)
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

#[test]
fn every_workload_prints_exactly_the_end_to_end_metrics_and_verifies() {
    for workload in Workload::ALL {
        let report = timed(workload, 1);
        assert_eq!(names(&report.metrics), END_TO_END, "{}", workload.name());
        assert_eq!(report.tally.failed, 0, "{}: {:?}", workload.name(), report.tally.errors);
        assert_eq!(value(&report, "success_rate"), 1.0);
        assert!(report.metrics.iter().all(|m| m.value > 0.0 && m.samples > 0), "{report:?}");
        let percentiles = report.lines.iter().filter(|l| l.starts_with("percentile ")).count();
        assert_eq!(percentiles, if workload == Workload::ArchiveLarge { 0 } else { 2 });
        let line = result_line(&report.tally, &report.metrics).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    }
}

#[test]
fn seeds_change_the_inputs_but_not_the_metric_set() {
    for workload in Workload::ALL {
        let inputs = |seed| workload.probe_inputs(seed, &Scale::SMOKE);
        let (one, two) = (inputs(1), inputs(2));
        assert!(
            one.iter().zip(&two).any(|(a, b)| a.trace.raw != b.trace.raw),
            "{}",
            workload.name()
        );
        assert!(one.iter().zip(inputs(1)).all(|(a, b)| a.trace.raw == b.trace.raw));

        let (first, again, other) =
            (timed(workload, 1), timed(workload, 1), timed(workload, 2));
        assert_eq!(names(&first.metrics), names(&other.metrics));
        assert_eq!(value(&first, "compression_rate"), value(&again, "compression_rate"));
        assert_ne!(value(&first, "compression_rate"), value(&other, "compression_rate"));
    }
}

#[test]
fn traced_run_prints_every_layer_metric_and_keeps_its_spans() {
    for workload in Workload::ALL {
        let report = run(workload, 3, 0.4, true, &Scale::SMOKE)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert_eq!(names(&report.metrics), LAYER_METRICS, "{}", workload.name());
        assert_eq!(report.tally.failed, 0, "{}: {:?}", workload.name(), report.tally.errors);
        for layer in ["spec", "predictors", "blockzip", "engine", "seek", "server"] {
            let root = format!("layer.{layer}");
            assert!(report.spans.iter().any(|s| s.name == root), "no {root} span");
        }
        assert!(report
            .spans
            .iter()
            .any(|s| s.name == "workload.round" || s.name == "server.request"));
        assert!(report.lines.iter().any(|l| l.starts_with("untraced requests_per_s")));
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let (e2e, layers) = json.split_once("\"per_layer\"").unwrap();
    for (name, unit) in END_TO_END {
        assert!(e2e.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")), "{name}");
    }
    for (name, unit) in LAYER_METRICS {
        assert!(
            layers.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name}"
        );
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        Workload::ALL.len() + END_TO_END.len() + LAYER_METRICS.len()
    );
    for workload in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", workload.name())));
    }
}
