//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <city_join|campus_day|paper_suite|wids_replay> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Human-readable lines come first; the
//! last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 1` also writes the recorded spans to
//! `.bench_build/perfbench-trace/<workload>-seed<n>.json`.

use std::fmt::Write as _;
use std::process::ExitCode;

use perfbench::{host, run, Opts, Size, Workload, WORKLOADS};

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Option<Opts> {
    let mut o = Opts {
        workload: Workload::CityJoin,
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => workload = Some(Workload::from_name(&it.next()?)?),
            "--seed" => o.seed = it.next()?.parse().ok()?,
            "--seconds" => o.seconds = it.next()?.parse().ok()?,
            "--trace" => o.trace = it.next()?.parse::<u8>().ok()? != 0,
            _ => return None,
        }
    }
    o.workload = workload?;
    Some(o)
}

fn main() -> ExitCode {
    let Some(o) = parse() else {
        return usage();
    };
    println!(
        "perfbench {} seed {} (program seed {:#x}) budget {} s trace {}",
        o.workload.name(),
        o.seed,
        o.workload.program_seed(o.seed),
        o.seconds,
        u8::from(o.trace)
    );
    for (k, v) in host::facts() {
        println!("host {k}: {v}");
    }
    println!("bounds and metric meanings: perfbench/README.md");

    let out = run(&o);

    for m in &out.metrics {
        println!(
            "{:<28} {:>16.6} {:<8} median of {:>3} from {}",
            m.name, m.value, m.unit, m.samples, m.source
        );
    }
    println!(
        "fail_ratio {:.6} ratio ({} failed of {} attempted: output checks plus WIDS events offered; base = attempted)",
        out.fail_ratio(),
        out.failed,
        out.attempted
    );
    if let Some(first) = &out.first_output {
        let fields: Vec<String> = first
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!(
            "output digest {:#018x} {} ({} passes checked)",
            first.digest,
            fields.join(" "),
            out.digests.len()
        );
    }
    let runs: Vec<String> = out.samples.iter().map(|s| format!("{:.4}", s.1)).collect();
    println!("run_s per untraced pass: {}", runs.join(" "));
    let cpu: Vec<f64> = out.samples.iter().map(|s| s.2).collect();
    println!(
        "cpu_s median over untraced passes: {:.6}",
        perfbench::median(&cpu)
    );
    for n in &out.notes {
        println!("check: {n}");
    }
    if o.trace {
        let dir = std::path::Path::new(".bench_build").join("perfbench-trace");
        let path = dir.join(format!("{}-seed{}.json", o.workload.name(), o.seed));
        let mut meta = host::facts();
        meta.push(("workload", o.workload.name().to_string()));
        meta.push(("seed", o.seed.to_string()));
        match std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, out.tracer.to_chrome_json(&meta)))
        {
            Ok(()) => println!("trace: {} spans -> {}", out.tracer.len(), path.display()),
            Err(e) => println!("trace: not written ({e})"),
        }
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct, out.attempted, out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            v,
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}
