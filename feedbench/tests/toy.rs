//! Each workload at toy scale, through the same checks as a full run.

use feedbench::{run, Params, Report, Scale, Workload};

fn toy(workload: Workload, trace: bool, drop_one_delivery: bool) -> Report {
    run(&Params {
        workload,
        seed: 5,
        seconds: 0.2,
        trace,
        scale: Scale::Toy,
        drop_one_delivery,
    })
}

/// The metric names declared in BENCHMARK.json under `section`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

fn names(r: &Report) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_workload_passes_its_checks() {
    for w in Workload::ALL {
        let r = toy(w, false, false);
        assert!(r.correct(), "{}: {:?}", w.name(), r.problems);
        assert_eq!(r.failed, 0, "{}", w.name());
        assert!(r.attempted > 0, "{}", w.name());
        assert_eq!(names(&r), declared("end_to_end"), "{}", w.name());
        for m in &r.metrics {
            assert!(m.value > 0.0, "{}: {} reads {}", w.name(), m.name, m.value);
        }
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    for w in Workload::ALL {
        let r = toy(w, true, false);
        assert!(r.correct(), "{}: {:?}", w.name(), r.problems);
        assert_eq!(names(&r), declared("per_layer"), "{}", w.name());
    }
}

#[test]
fn a_dropped_delivery_fails_the_checks() {
    for w in Workload::ALL {
        let r = toy(w, false, true);
        assert!(!r.correct(), "{}: a lost delivery went unnoticed", w.name());
    }
}

#[test]
fn a_run_without_timed_batches_fails() {
    let r = run(&Params {
        workload: Workload::PollerIngest,
        seed: 5,
        seconds: 0.0,
        trace: false,
        scale: Scale::Toy,
        drop_one_delivery: false,
    });
    assert!(!r.correct(), "unmeasured metrics passed as {:?}", r.metrics);
}
