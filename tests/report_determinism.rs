//! Parallel ≡ serial, proven at the artifact level: every rendered
//! experiment report must be byte-identical under a 1-thread, 2-thread,
//! and N-thread pool. This is the determinism contract the executor and
//! the drivers were built around — per-replication `Seed::fork` streams
//! plus index-ordered result collection make the thread count
//! unobservable in every table.

use rogue_bench::{render_report, report_builders, report_e10_evasion};

#[test]
fn every_report_is_byte_identical_across_thread_counts() {
    let reps = 2;
    let serial: Vec<String> = rayon::with_num_threads(1, || {
        report_builders()
            .iter()
            .map(|build| render_report(&build(reps)))
            .collect()
    });
    assert_eq!(serial.len(), 10, "one rendered table per experiment");
    for threads in [2, 4] {
        let parallel: Vec<String> = rayon::with_num_threads(threads, || {
            report_builders()
                .iter()
                .map(|build| render_report(&build(reps)))
                .collect()
        });
        for (serial_report, parallel_report) in serial.iter().zip(&parallel) {
            assert_eq!(
                serial_report, parallel_report,
                "report diverged between 1 and {threads} threads"
            );
        }
    }
}

#[test]
fn every_report_is_byte_identical_across_shard_counts() {
    // The parallel burst executor must be unobservable in every
    // rendered table, whatever the pool size. Shard count 1 is serial
    // dispatch (the baseline); 2 turns the executor on, whose frozen
    // plans, per-node chains and outbox barrier then run on a 1-thread
    // and a 4-thread pool.
    let reps = 2;
    let baseline: Vec<String> = rayon::with_num_threads(1, || {
        report_builders()
            .iter()
            .map(|build| render_report(&build(reps)))
            .collect()
    });
    for threads in [1, 4] {
        let parallel: Vec<String> = rogue_core::with_default_shards(2, || {
            rayon::with_num_threads(threads, || {
                report_builders()
                    .iter()
                    .map(|build| render_report(&build(reps)))
                    .collect()
            })
        });
        for (i, (a, b)) in baseline.iter().zip(&parallel).enumerate() {
            assert_eq!(
                a, b,
                "report {i} diverged in parallel mode at threads={threads}"
            );
        }
    }
}

#[test]
fn evasion_report_is_byte_identical_across_thread_counts() {
    // E10-evasion lives outside `report_builders` (the ten-report
    // harness contract is frozen) but is held to the same standard: its
    // replication fan-out and the sharded WIDS engine underneath must
    // render identical bytes whatever the pool size.
    let reps = 2;
    let serial = rayon::with_num_threads(1, || render_report(&report_e10_evasion(reps)));
    for threads in [2, 4] {
        let parallel =
            rayon::with_num_threads(threads, || render_report(&report_e10_evasion(reps)));
        assert_eq!(
            serial, parallel,
            "evasion report diverged between 1 and {threads} threads"
        );
    }
}

// ---------------------------------------------------------------------
// The same contract for the scenario layer: a `.toml` file plus its
// seed is a pure function of the text, whatever the thread count. The
// E-series kinds fan replications out through rayon; summary runs are
// single-world but go through the same seed-forked generators — both
// must render identical bytes at 1, 2 and 4 threads.

fn scenario_report(file: &str, overrides: &[&str]) -> String {
    let path = format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("scenario file");
    let overrides: Vec<String> = overrides.iter().map(|s| s.to_string()).collect();
    rogue_scenario::run_source(&src, &overrides).expect("scenario run")
}

#[test]
fn scenario_reports_are_byte_identical_across_thread_counts() {
    // E10 exercises the rayon fan-out; the campus file (downscaled so
    // the suite stays quick) exercises the generator + mobility +
    // traffic path end to end.
    let cases: [(&str, &[&str]); 2] = [
        ("e10_wids.toml", &["report.reps=1"]),
        (
            "campus_waypoint_500.toml",
            &["population.0.count=12", "duration=4s"],
        ),
    ];
    for (file, overrides) in cases {
        let serial = rayon::with_num_threads(1, || scenario_report(file, overrides));
        for threads in [2, 4] {
            let parallel = rayon::with_num_threads(threads, || scenario_report(file, overrides));
            assert_eq!(
                serial, parallel,
                "{file} diverged between 1 and {threads} threads"
            );
        }
        // And under the parallel burst executor: the campus case moves
        // radios every mobility tick, the WIDS case runs the full sensor
        // pipeline — both must render the same bytes as serial dispatch.
        for threads in [1, 4] {
            let parallel = rogue_core::with_default_shards(2, || {
                rayon::with_num_threads(threads, || scenario_report(file, overrides))
            });
            assert_eq!(
                serial, parallel,
                "{file} diverged in parallel mode at threads={threads}"
            );
        }
    }
}
