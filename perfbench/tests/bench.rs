//! The benchmark's own tests, on the downscaled smoke size.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::{run, run_against, Opts, Outcome, Size, Workload, PER_LAYER, WORKLOADS};

fn opts(workload: Workload, trace: bool) -> Opts {
    Opts {
        workload,
        seed: 0,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
    }
}

fn smoke(workload: Workload, trace: bool) -> Outcome {
    run(&opts(workload, trace))
}

#[test]
fn smoke_mode_passes_every_output_check() {
    for w in WORKLOADS {
        let out = smoke(w, false);
        assert!(out.correct, "{}: {:?}", w.name(), out.notes);
        assert!(out.attempted > 0, "{}: nothing checked", w.name());
        assert_eq!(out.fail_ratio(), 0.0, "{}", w.name());
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, ["setup_s", "run_s", "peak_rss_mb"], "{}", w.name());
        assert!(out.metrics.iter().all(|m| m.value > 0.0), "{}", w.name());
    }
}

#[test]
fn corrupted_expected_digest_shows_as_failures() {
    for w in WORKLOADS {
        let mut expected = w.expected(Size::Smoke, 0).expect("recorded smoke output");
        expected.digest ^= 1;
        let out = run_against(&opts(w, false), Some(expected));
        assert!(!out.correct, "{}", w.name());
        assert!(out.fail_ratio() > 0.0, "{}", w.name());
        // The mismatch is counted, not fatal: metrics are still reported.
        assert_eq!(out.metrics.len(), 3, "{}", w.name());
    }
}

#[test]
fn traced_and_untraced_runs_produce_the_same_digests() {
    for w in WORKLOADS {
        let plain = smoke(w, false);
        let traced = smoke(w, true);
        assert!(traced.correct, "{}: {:?}", w.name(), traced.notes);
        assert!(!traced.traced_digests.is_empty(), "{}", w.name());
        for d in &traced.traced_digests {
            assert_eq!(*d, plain.digests[0], "{}: traced digest differs", w.name());
        }
        assert!(!traced.tracer.is_empty(), "{}: no spans recorded", w.name());
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|l| l.0).collect();
        assert_eq!(names, want, "{}", w.name());
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_code_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for name in ["setup_s", "run_s", "peak_rss_mb"]
        .into_iter()
        .chain(PER_LAYER.iter().map(|l| l.0))
    {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
    for (name, unit, better) in PER_LAYER {
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
        assert!(
            json.contains(&entry),
            "BENCHMARK.json entry differs: {entry}"
        );
    }
    for w in WORKLOADS {
        let listed = json.contains(&format!("\"name\": \"{}\"", w.name()));
        assert_eq!(listed, w.gated(), "{} in BENCHMARK.json", w.name());
    }
}
