//! `paper_suite`: the E1–E10 reports plus E10-evasion, built
//! concurrently on the rayon pool as the `harness` binary builds them,
//! and compared byte for byte with the checked-in outputs.
//!
//! The report builders take only `reps`; their seed is the paper's fixed
//! `REPORT_SEED`, so this workload's input does not change with
//! `--seed`.

use std::time::Instant;

use rayon::prelude::*;
use rogue_bench::{render_report, report_builders, report_e10_evasion, Report};

use crate::trace::Tracer;
use crate::{host, Digest, Output, Pass, Size};

/// `harness 10` stdout, checked in at the repository root.
pub const HARNESS_REPS10: &str = include_str!("../../harness_output.txt");
/// E10-evasion at reps 2, checked in as a golden file.
pub const EVASION_REPS2: &str = include_str!("../../tests/golden/e10_evasion_reps2.txt");

/// Span names of the eleven reports, in build order.
pub const SPANS: [&str; 11] = [
    "experiments.e1",
    "experiments.e2",
    "experiments.e3",
    "experiments.e4",
    "experiments.e5",
    "experiments.e6",
    "experiments.e7",
    "experiments.e8",
    "experiments.e9",
    "experiments.e10",
    "experiments.e10_evasion",
];

/// Layer metric names matching [`SPANS`].
const LAYERS: [&str; 11] = [
    "experiments.e1_s",
    "experiments.e2_s",
    "experiments.e3_s",
    "experiments.e4_s",
    "experiments.e5_s",
    "experiments.e6_s",
    "experiments.e7_s",
    "experiments.e8_s",
    "experiments.e9_s",
    "experiments.e10_s",
    "experiments.e10_evasion_s",
];

/// `(reps for E1–E10, reps for E10-evasion)`.
pub fn reps(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (10, 2),
        Size::Smoke => (1, 2),
    }
}

type Builder = fn(usize) -> Report;

/// Build all eleven reports on the pool; returns them in order with
/// each build's start and end.
fn build_all(reps: usize, evasion_reps: usize) -> Vec<(Report, Instant, Instant)> {
    let mut jobs: Vec<(Builder, usize)> =
        report_builders().into_iter().map(|b| (b, reps)).collect();
    jobs.push((report_e10_evasion, evasion_reps));
    jobs.into_par_iter()
        .map(|(build, reps)| {
            let start = Instant::now();
            let report = build(reps);
            (report, start, Instant::now())
        })
        .collect()
}

/// The harness binary's stdout for these reports, and the evasion report.
fn render(reps: usize, reports: &[(Report, Instant, Instant)]) -> (String, String) {
    let mut harness = format!(
        "Countering Rogues in Wireless Networks — reproduction harness\nreplications per cell: {reps}\n\n"
    );
    for (r, _, _) in &reports[..10] {
        harness.push_str(&render_report(r));
    }
    (harness, render_report(&reports[10].0))
}

/// Warm-up (set-up): the suite once at reps 1, which pays lazy
/// initialisation, first-touch page faults and pool start-up. Then the
/// measured suite.
pub fn pass(size: Size, tr: &mut Tracer) -> Pass {
    let t0 = Instant::now();
    tr.span("experiments.warmup", || build_all(1, 1));
    let setup_s = t0.elapsed().as_secs_f64();

    let (reps, evasion_reps) = reps(size);
    let mark = tr.mark();
    let cpu0 = host::process_cpu_s();
    let t1 = Instant::now();
    let sp = tr.open("experiments.suite");
    let reports = build_all(reps, evasion_reps);
    for (i, (_, start, end)) in reports.iter().enumerate() {
        tr.record(SPANS[i], *start, *end, 1 + i as u32);
    }
    tr.close(sp);
    let run_s = t1.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;

    let (harness, evasion) = render(reps, &reports);
    let mut d = Digest::new();
    d.bytes(harness.as_bytes());
    d.bytes(evasion.as_bytes());
    // The golden files hold reps 10 (E1–E10) and reps 2 (E10-evasion).
    let mut fields = vec![
        ("harness_bytes", harness.len() as u64),
        ("evasion_bytes", evasion.len() as u64),
        (
            "evasion_matches_golden",
            u64::from(evasion == EVASION_REPS2),
        ),
    ];
    if reps == 10 {
        fields.push((
            "harness_matches_golden",
            u64::from(harness == HARNESS_REPS10),
        ));
    }
    let layers = LAYERS
        .iter()
        .zip(SPANS)
        .map(|(&layer, span)| (layer, tr.seconds_since(mark, span)))
        .collect();
    Pass {
        setup_s,
        run_s,
        cpu_s,
        output: Output {
            digest: d.finish(),
            fields,
        },
        events: 0,
        dropped: 0,
        layers,
    }
}
