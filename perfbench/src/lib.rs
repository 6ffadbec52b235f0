//! The repository benchmark: four output-checked workloads driven
//! through the simulator's public API, timed from outside.
//!
//! * `city_join` — [`city`]: the `city_scale` world joining, serial
//!   dispatch.
//! * `campus_day` — [`campus`]: the 500-client campus scenario file.
//!   Not gated (see [`Workload::gated`]); the traced runs use it.
//! * `paper_suite` — [`suite`]: the E1–E10 + E10-evasion reports.
//! * `wids_replay` — [`wids`]: an attack stream through the WIDS pipeline.
//!   Not gated either; the traced runs use it.
//!
//! A run repeats *passes* (set-up, then the workload's fixed work) until
//! its time budget is spent, checks every pass's output, and reports
//! medians. The untraced run gives the end-to-end metrics; the traced
//! run ([`run`] with `trace`) records spans around the public calls and
//! gives the per-layer metrics. `perfbench/README.md` lists every metric
//! and what it should move.

pub mod campus;
pub mod city;
pub mod host;
pub mod suite;
pub mod trace;
pub mod wids;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rogue_sim::Seed;
use rogue_wids::EngineMode;

use trace::Tracer;

/// FNV-1a, 64-bit: a digest that is stable across toolchains.
pub struct Digest(u64);

impl Digest {
    pub const EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

    pub fn new() -> Digest {
        Digest(Self::EMPTY)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// What a pass produced: a digest of its output plus named counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Output {
    pub digest: u64,
    pub fields: Vec<(&'static str, u64)>,
}

/// One pass: set-up, then the workload's fixed work.
pub struct Pass {
    pub setup_s: f64,
    pub run_s: f64,
    /// Process CPU time over the run part (all threads).
    pub cpu_s: f64,
    pub output: Output,
    /// WIDS events offered to a sensor ring, and how many it dropped.
    pub events: u64,
    pub dropped: u64,
    /// Per-layer figures of this pass (span-derived ones need tracing).
    pub layers: Vec<(&'static str, f64)>,
}

/// Workload scale: the measured size, or the downscaled smoke size the
/// tests and the traced run's cross-layer legs use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CityJoin,
    CampusDay,
    PaperSuite,
    WidsReplay,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::CityJoin,
    Workload::CampusDay,
    Workload::PaperSuite,
    Workload::WidsReplay,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::CityJoin => "city_join",
            Workload::CampusDay => "campus_day",
            Workload::PaperSuite => "paper_suite",
            Workload::WidsReplay => "wids_replay",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// Listed in `BENCHMARK.json`, so its end-to-end metrics are
    /// bounded. `campus_day` is not: at some seeds the program gives two
    /// different outputs for one input (due ARP retries go out in
    /// `HashMap` order), so its output check fails until that is fixed.
    /// `wids_replay` is not either: on a shared host its medians shifted
    /// by more than the largest bound between sets of runs. The layers of
    /// both still reach every traced run through their smoke legs and
    /// reference legs.
    pub fn gated(self) -> bool {
        matches!(self, Workload::CityJoin | Workload::PaperSuite)
    }

    /// The seed the program receives: `--seed 0` is the workload's
    /// default seed (the one with recorded outputs); any other `n` forks
    /// it. Masked to 48 bits so it fits a scenario-file integer.
    pub fn program_seed(self, n: u64) -> u64 {
        let default = match self {
            Workload::CityJoin => city::DEFAULT_SEED,
            Workload::CampusDay => campus::DEFAULT_SEED,
            Workload::PaperSuite => 0,
            Workload::WidsReplay => wids::DEFAULT_SEED,
        };
        if n == 0 {
            default
        } else {
            Seed(default).fork(n).0 & 0xFFFF_FFFF_FFFF
        }
    }

    /// One pass on the default engine / serial dispatch.
    pub fn pass(self, size: Size, n: u64, tr: &mut Tracer) -> Pass {
        let seed = self.program_seed(n);
        match self {
            Workload::CityJoin => city::pass(size, seed, 1, tr),
            Workload::CampusDay => campus::pass(size, seed, tr),
            Workload::PaperSuite => suite::pass(size, tr),
            Workload::WidsReplay => wids::pass(size, seed, EngineMode::default(), tr),
        }
    }

    /// The recorded output at the default seed (every seed for
    /// `paper_suite`, whose input does not depend on it).
    pub fn expected(self, size: Size, n: u64) -> Option<Output> {
        if n != 0 && self != Workload::PaperSuite {
            return None;
        }
        let (digest, fields): (u64, &[(&'static str, u64)]) = match (self, size) {
            (Workload::CityJoin, Size::Full) => (
                0x0e58_d3c6_0662_ccc4,
                &[
                    ("mac_events", 3_083),
                    ("frames_sent", 23_421),
                    ("events", 66_054),
                    ("halfduplex_misses", 25_102),
                    ("sinr_drops", 608_201),
                ],
            ),
            (Workload::CityJoin, Size::Smoke) => (
                0xdc2b_9690_1692_6c7e,
                &[
                    ("mac_events", 954),
                    ("frames_sent", 6_969),
                    ("events", 18_881),
                    ("halfduplex_misses", 7_387),
                    ("sinr_drops", 140_133),
                ],
            ),
            (Workload::CampusDay, Size::Full) => (
                0xbeff_2458_6b67_59c2,
                &[
                    ("table_bytes", 639),
                    ("moves", 12_736),
                    ("associations", 409),
                    ("wids_incidents", 2),
                ],
            ),
            (Workload::CampusDay, Size::Smoke) => (
                0x266e_f444_1db4_2d91,
                &[
                    ("table_bytes", 625),
                    ("moves", 960),
                    ("associations", 53),
                    ("wids_incidents", 2),
                ],
            ),
            (Workload::PaperSuite, Size::Full) => (
                0x520e_9a9b_31dd_a604,
                &[
                    ("harness_bytes", 9_106),
                    ("evasion_bytes", 855),
                    ("evasion_matches_golden", 1),
                    ("harness_matches_golden", 1),
                ],
            ),
            (Workload::PaperSuite, Size::Smoke) => (
                0x700d_c158_25bb_93e4,
                &[
                    ("harness_bytes", 9_091),
                    ("evasion_bytes", 855),
                    ("evasion_matches_golden", 1),
                ],
            ),
            (Workload::WidsReplay, Size::Full) => (
                0x010f_5313_a7da_9757,
                &[("incidents", 32), ("alerts_raw", 81), ("events", 1_200_000)],
            ),
            (Workload::WidsReplay, Size::Smoke) => (
                0x0600_fd90_0c29_6ad9,
                &[("incidents", 32), ("alerts_raw", 80), ("events", 32_000)],
            ),
        };
        Some(Output {
            digest,
            fields: fields.to_vec(),
        })
    }
}

/// Compares every pass's output with the recorded one, or — at seeds
/// without a recording — with the run's first pass.
pub struct Checker {
    reference: Option<Output>,
    pub checks: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checker {
    pub fn new(reference: Option<Output>) -> Checker {
        Checker {
            reference,
            checks: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 16 {
            self.notes.push(note);
        }
    }

    pub fn check(&mut self, label: &str, out: &Output) {
        let Some(reference) = &self.reference else {
            // First pass at an unrecorded seed: it must have produced
            // something; later passes must reproduce it.
            self.checks += 1;
            if out.digest == Digest::EMPTY {
                self.fail(format!("{label}: empty output"));
            }
            self.reference = Some(out.clone());
            return;
        };
        let reference = reference.clone();
        self.checks += 1;
        if out.digest != reference.digest {
            self.fail(format!(
                "{label}: digest {:#018x}, expected {:#018x}",
                out.digest, reference.digest
            ));
        }
        for &(name, want) in &reference.fields {
            self.checks += 1;
            match out.fields.iter().find(|f| f.0 == name) {
                Some(&(_, got)) if got == want => {}
                got => self.fail(format!("{label}: {name} = {got:?}, expected {want}")),
            }
        }
    }
}

/// How to run.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// A metric as printed: name, value, unit, how many samples it is the
/// median of (1 for counts and single measurements), and the workload
/// it was measured on.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub source: &'static str,
}

/// Everything a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Output digest of every pass, in run order (traced passes included).
    pub digests: Vec<u64>,
    /// Digests of the traced passes alone (empty when untraced).
    pub traced_digests: Vec<u64>,
    /// The first pass's output, for the record.
    pub first_output: Option<Output>,
    /// Per-pass `(setup_s, run_s, cpu_s)` of the untraced passes, in run order.
    pub samples: Vec<(f64, f64, f64)>,
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

impl Outcome {
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Per-layer metrics: name, unit, `better`. The order is the print order.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("phy.medium_plan_s", "s", "lower"),
    ("phy.plan_us_per_completion", "us", "lower"),
    ("phy.medium_commit_s", "s", "lower"),
    ("phy.frames_sent", "count", "lower"),
    ("phy.pathloss_pairs", "count", "lower"),
    ("phy.pathloss_lookups", "count", "lower"),
    ("phy.pathloss_hit_ratio", "ratio", "higher"),
    ("phy.audible_rows_reused", "count", "higher"),
    ("phy.power_map_entries", "count", "lower"),
    ("core.op_commit_s", "s", "lower"),
    ("core.deliver_s", "s", "lower"),
    ("core.poll_s", "s", "lower"),
    ("core.exec_wall_s", "s", "lower"),
    ("core.tx_complete_s", "s", "lower"),
    ("core.node_poll_s", "s", "lower"),
    ("core.run_until_s", "s", "lower"),
    ("core.build_s", "s", "lower"),
    ("core.serial_run_s", "s", "lower"),
    ("core.shard2_run_s", "s", "lower"),
    ("core.shard2_speedup", "x", "higher"),
    ("sim.events", "count", "lower"),
    ("sim.queue_pop_s", "s", "lower"),
    ("sim.queue_schedule_s", "s", "lower"),
    ("sim.prof_overhead_permille", "permille", "lower"),
    ("sim.plans_parallel", "count", "lower"),
    ("sim.plans_stale_ratio", "ratio", "lower"),
    ("scenario.load_s", "s", "lower"),
    ("scenario.compile_s", "s", "lower"),
    ("scenario.mobility_s", "s", "lower"),
    ("scenario.moves", "count", "lower"),
    ("wids.ingest_s", "s", "lower"),
    ("wids.step_s", "s", "lower"),
    ("wids.events_pushed", "count", "higher"),
    ("wids.ring_dropped", "count", "lower"),
    ("wids.alerts_raw", "count", "lower"),
    ("wids.incidents", "count", "lower"),
    ("wids.state_evictions", "count", "lower"),
    ("wids.tracked_sources", "count", "higher"),
    ("wids.detector_state_bytes", "bytes", "lower"),
    ("wids.default_engine_run_s", "s", "lower"),
    ("wids.serial_engine_run_s", "s", "lower"),
    ("wids.sharded_speedup", "x", "higher"),
    ("experiments.e1_s", "s", "lower"),
    ("experiments.e2_s", "s", "lower"),
    ("experiments.e3_s", "s", "lower"),
    ("experiments.e4_s", "s", "lower"),
    ("experiments.e5_s", "s", "lower"),
    ("experiments.e6_s", "s", "lower"),
    ("experiments.e7_s", "s", "lower"),
    ("experiments.e8_s", "s", "lower"),
    ("experiments.e9_s", "s", "lower"),
    ("experiments.e10_s", "s", "lower"),
    ("experiments.e10_evasion_s", "s", "lower"),
    ("host.cpu_s", "s", "lower"),
    ("host.parallel_efficiency", "ratio", "higher"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.traced_run_s", "s", "lower"),
    ("trace_overhead_pct", "%", "lower"),
];

/// Runs passes on `tracers` in turn (one pass each round) until the
/// budget is spent, checking each output. Returns the passes per tracer.
fn measure(
    o: &Opts,
    tracers: &mut [&mut Tracer],
    checker: &mut Checker,
    attempted_events: &mut (u64, u64),
    digests: &mut Vec<u64>,
) -> Vec<Vec<Pass>> {
    let min_rounds = if o.size == Size::Smoke { 1 } else { 3 };
    let start = Instant::now();
    let mut out: Vec<Vec<Pass>> = tracers.iter().map(|_| Vec::new()).collect();
    let mut round_walls = Vec::new();
    loop {
        let r0 = Instant::now();
        for (i, tr) in tracers.iter_mut().enumerate() {
            let label = format!("{} pass {}", o.workload.name(), digests.len() + 1);
            match catch_unwind(AssertUnwindSafe(|| o.workload.pass(o.size, o.seed, tr))) {
                Ok(p) => {
                    checker.check(&label, &p.output);
                    digests.push(p.output.digest);
                    attempted_events.0 += p.events;
                    attempted_events.1 += p.dropped;
                    out[i].push(p);
                }
                Err(_) => {
                    checker.checks += 1;
                    checker.fail(format!("{label}: panicked"));
                    return out;
                }
            }
        }
        round_walls.push(r0.elapsed().as_secs_f64());
        let rounds = round_walls.len();
        let next_end = start.elapsed().as_secs_f64() + median(&round_walls);
        if rounds >= min_rounds && (next_end > o.seconds || rounds >= 10_000) {
            return out;
        }
    }
}

fn layer_medians(passes: &[Pass]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for p in passes {
        for &(name, v) in &p.layers {
            by_name.entry(name).or_default().push(v);
        }
    }
    by_name.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// The workload's reference leg, run once after the measured passes:
/// `city_join` at 2 shards, `wids_replay` on the serial engine. Each is
/// asserted output-identical to the default path. Returns its layers.
fn reference_leg(
    w: Workload,
    size: Size,
    n: u64,
    default_run_s: f64,
    default_digest: Option<u64>,
    checker: &mut Checker,
) -> Vec<(&'static str, f64)> {
    let seed = w.program_seed(n);
    let mut off = Tracer::new(false);
    let label = match w {
        Workload::CityJoin => "city_join at 2 shards",
        Workload::WidsReplay => "wids_replay on the serial engine",
        _ => return Vec::new(),
    };
    checker.checks += 1;
    let leg = catch_unwind(AssertUnwindSafe(|| match w {
        Workload::CityJoin => city::pass(size, seed, 2, &mut off),
        _ => wids::pass(size, seed, EngineMode::Serial, &mut off),
    }));
    let Ok(leg) = leg else {
        checker.fail(format!("{label}: panicked"));
        return Vec::new();
    };
    if Some(leg.output.digest) != default_digest {
        checker.fail(format!(
            "{label}: digest {:#018x} differs from the default path's {:?}",
            leg.output.digest, default_digest
        ));
    }
    let get = |k: &str| leg.layers.iter().find(|l| l.0 == k).map_or(0.0, |l| l.1);
    match w {
        Workload::CityJoin => {
            let planned = get("sim.plans_parallel");
            vec![
                ("core.serial_run_s", default_run_s),
                ("core.shard2_run_s", leg.run_s),
                ("core.shard2_speedup", default_run_s / leg.run_s),
                ("core.exec_wall_s", get("core.exec_wall_s")),
                ("sim.plans_parallel", planned),
                (
                    "sim.plans_stale_ratio",
                    if planned == 0.0 {
                        0.0
                    } else {
                        get("sim.plans_stale") / planned
                    },
                ),
            ]
        }
        _ => vec![
            ("wids.default_engine_run_s", default_run_s),
            ("wids.serial_engine_run_s", leg.run_s),
            ("wids.sharded_speedup", leg.run_s / default_run_s),
        ],
    }
}

fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
    source: &'static str,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
        source,
    }
}

/// Run one workload as `o` says, checked against its recorded output.
pub fn run(o: &Opts) -> Outcome {
    run_against(o, o.workload.expected(o.size, o.seed))
}

/// Run one workload, checking its passes against `expected` (or, when
/// that is `None`, against the run's first pass).
pub fn run_against(o: &Opts, expected: Option<Output>) -> Outcome {
    let mut checker = Checker::new(expected);
    let mut ev = (0u64, 0u64);
    let mut digests = Vec::new();
    let mut untraced = Tracer::new(false);
    let mut traced = Tracer::new(o.trace);
    let mut metrics = Vec::new();
    let mut traced_digests = Vec::new();
    let first_output;
    let samples;

    if !o.trace {
        let passes = measure(o, &mut [&mut untraced], &mut checker, &mut ev, &mut digests)
            .pop()
            .unwrap_or_default();
        first_output = passes.first().map(|p| p.output.clone());
        samples = passes
            .iter()
            .map(|p| (p.setup_s, p.run_s, p.cpu_s))
            .collect();
        let n = passes.len();
        let setup: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
        let run: Vec<f64> = passes.iter().map(|p| p.run_s).collect();
        let name = o.workload.name();
        metrics.push(metric("setup_s", median(&setup), "s", n, name));
        metrics.push(metric("run_s", median(&run), "s", n, name));
        metrics.push(metric("peak_rss_mb", host::peak_rss_mb(), "MB", 1, name));
    } else {
        let mut sets = measure(
            o,
            &mut [&mut untraced, &mut traced],
            &mut checker,
            &mut ev,
            &mut digests,
        );
        let traced_passes = sets.pop().unwrap_or_default();
        let plain = sets.pop().unwrap_or_default();
        traced_digests = traced_passes.iter().map(|p| p.output.digest).collect();
        first_output = plain.first().map(|p| p.output.clone());
        samples = plain
            .iter()
            .map(|p| (p.setup_s, p.run_s, p.cpu_s))
            .collect();
        let plain_run: Vec<f64> = plain.iter().map(|p| p.run_s).collect();
        let traced_run: Vec<f64> = traced_passes.iter().map(|p| p.run_s).collect();
        let (u, t) = (median(&plain_run), median(&traced_run));

        // name -> (value, samples, workload it was measured on)
        let here = o.workload.name();
        let mut layers: BTreeMap<&'static str, (f64, usize, &'static str)> =
            layer_medians(&traced_passes)
                .into_iter()
                .map(|(k, v)| (k, (v, traced_passes.len(), here)))
                .collect();
        let threads = rayon::current_num_threads() as f64;
        let cpu: Vec<f64> = plain.iter().map(|p| p.cpu_s).collect();
        let eff: Vec<f64> = plain
            .iter()
            .map(|p| p.cpu_s / (p.run_s * threads))
            .collect();
        let n = plain.len();
        layers.insert("host.cpu_s", (median(&cpu), n, here));
        layers.insert("host.parallel_efficiency", (median(&eff), n, here));
        layers.insert("trace.untraced_run_s", (u, n, here));
        layers.insert("trace.traced_run_s", (t, traced_passes.len(), here));
        layers.insert("trace_overhead_pct", ((t / u - 1.0) * 100.0, n, here));
        let first = plain.first().map(|p| p.output.digest);
        for (k, v) in reference_leg(o.workload, o.size, o.seed, u, first, &mut checker) {
            layers.insert(k, (v, 1, here));
        }

        // Layers this workload does not reach are measured on a smoke
        // pass of the workload that does, so no figure is a placeholder.
        for w in WORKLOADS.into_iter().filter(|&w| w != o.workload) {
            let mut c = Checker::new(w.expected(Size::Smoke, 0));
            let label = format!("{} smoke leg", w.name());
            match catch_unwind(AssertUnwindSafe(|| w.pass(Size::Smoke, 0, &mut traced))) {
                Ok(p) => {
                    c.check(&label, &p.output);
                    let leg =
                        reference_leg(w, Size::Smoke, 0, p.run_s, Some(p.output.digest), &mut c);
                    ev.0 += p.events;
                    ev.1 += p.dropped;
                    for (k, v) in p.layers.into_iter().chain(leg) {
                        layers.entry(k).or_insert((v, 1, w.name()));
                    }
                }
                Err(_) => {
                    c.checks += 1;
                    c.fail(format!("{label}: panicked"));
                }
            }
            checker.checks += c.checks;
            checker.failed += c.failed;
            checker.notes.extend(c.notes);
        }
        for &(name, unit, _) in PER_LAYER {
            let (v, samples, from) = layers.get(name).copied().unwrap_or_else(|| {
                checker.checks += 1;
                checker.fail(format!("per-layer metric {name} was not measured"));
                (0.0, 0, "none")
            });
            metrics.push(metric(name, v, unit, samples, from));
        }
    }

    let attempted = checker.checks + ev.0;
    let failed = checker.failed + ev.1;
    Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics,
        digests,
        traced_digests,
        first_output,
        samples,
        notes: checker.notes,
        tracer: traced,
    }
}
