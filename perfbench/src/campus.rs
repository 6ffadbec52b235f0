//! `campus_day`: `scenarios/campus_waypoint_500.toml`, loaded and
//! compiled through the scenario language and driven tick by tick the
//! way `run_summary` drives it — simulation slice, mobility step, WIDS
//! sensor drains, pipeline step.
//!
//! The full 40 s, 500-client day takes ~20 s on a 2-CPU host, too long
//! to repeat inside one measured run, so the benchmark runs the same
//! file with 200 clients over 16 s, the three rogues activating halfway
//! through instead of at 30 s. The changes are
//! `--override`s of the scenario language (see [`overrides`]); shadowing,
//! tick, traffic mix, WEP, mobility and the WIDS are the file's own.

use std::time::Instant;

use rogue_dot11::{MacEvent, StaState};
use rogue_scenario::run::{summary_report, SummaryRun};
use rogue_scenario::{compile, load_source, Compiled, Scenario, SummaryStats};
use rogue_services::apps::{BrowserApp, DownloadClient};
use rogue_services::traffic::{PingApp, UdpCbrSource, UdpSink};
use rogue_sim::SimTime;

use crate::city::world_layers;
use crate::trace::Tracer;
use crate::{host, Digest, Output, Pass, Size};

pub const SOURCE: &str = include_str!("../../scenarios/campus_waypoint_500.toml");

/// The file's own `seed`.
pub const DEFAULT_SEED: u64 = 0xCA30_0500;

/// Scenario-language overrides for each size.
pub fn overrides(size: Size, seed: u64) -> Vec<String> {
    let (clients, duration, rogues_at) = match size {
        Size::Full => (200, "16s", "8s"),
        Size::Smoke => (40, "6s", "3s"),
    };
    let mut o = vec![
        format!("population.0.count={clients}"),
        format!("duration={duration}"),
    ];
    for r in 0..3 {
        o.push(format!("rogue.{r}.start={rogues_at}"));
    }
    if seed != DEFAULT_SEED {
        o.push(format!("seed={seed}"));
    }
    o
}

/// The summary totals, extracted exactly as `run_summary` extracts them.
fn stats(c: &Compiled) -> SummaryStats {
    let mut s = SummaryStats {
        clients: c.clients.len(),
        walkers: c.mobility.len(),
        moves: c.mobility.moves_applied,
        wids_incidents: c.wids.as_ref().map_or(0, |w| w.pipe.incidents().len()),
        ..SummaryStats::default()
    };
    for (_, _, ev) in &c.world.mac_events {
        match ev {
            MacEvent::Associated { .. } => s.associations += 1,
            MacEvent::Disassociated { forced: true, .. } => s.forced_disassociations += 1,
            _ => {}
        }
    }
    for cl in &c.clients {
        if c.world.sta_state(cl.node, cl.radio) == StaState::Associated {
            s.associated_at_end += 1;
        }
        for &a in &cl.browser_apps {
            let b: &BrowserApp = c.world.app(cl.node, a);
            s.pages_ok += b.pages_ok;
            s.pages_tampered += b.pages_tampered;
            s.page_failures += b.failures;
        }
        for &a in &cl.download_apps {
            let d: &DownloadClient = c.world.app(cl.node, a);
            match &d.outcome {
                Some(o) if o.error.is_none() && o.verified => s.downloads_ok += 1,
                _ => s.downloads_bad += 1,
            }
        }
        for &a in &cl.udp_source_apps {
            s.udp_sent += c.world.app::<UdpCbrSource>(cl.node, a).sent;
        }
        for &a in &cl.ping_apps {
            let p: &PingApp = c.world.app(cl.node, a);
            s.pings_sent += p.sent;
            s.pings_answered += p.received;
        }
    }
    for srv in &c.servers {
        s.udp_received += c.world.app::<UdpSink>(srv.node, srv.sink_app).received;
    }
    s
}

/// Load + compile (set-up), then the tick loop.
pub fn pass(size: Size, seed: u64, tr: &mut Tracer) -> Pass {
    let ov = overrides(size, seed);
    let mark = tr.mark();
    let t0 = Instant::now();
    let sc: Scenario = tr
        .span("scenario.load", || load_source(SOURCE, &ov))
        .expect("campus scenario loads");
    let mut c = tr
        .span("scenario.compile", || compile(&sc))
        .expect("campus scenario compiles");
    let setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = host::process_cpu_s();
    let t1 = Instant::now();
    let end = SimTime::ZERO + sc.duration;
    let mut now = SimTime::ZERO;
    while now < end {
        now = (now + sc.tick).min(end);
        tr.span("core.run_until", || c.world.run_until(now));
        tr.span("scenario.mobility", || {
            c.mobility.step(now, sc.tick, &mut c.world.medium)
        });
        if let Some(w) = &mut c.wids {
            let world = &c.world;
            tr.span("wids.ingest", || {
                for (sensor, &mon) in w.radio_sensors.iter_mut().zip(&w.monitors) {
                    sensor.drain(world.sniffer(w.node, mon), &mut w.pipe.ring);
                }
                if let Some(tap) = world.wire_tap(w.node) {
                    for (at, bytes) in &tap.frames[w.wired_cursor..] {
                        w.wired_sensor.ingest(*at, bytes, &mut w.pipe.ring);
                    }
                    w.wired_cursor = tap.frames.len();
                }
            });
            tr.span("wids.step", || w.pipe.step(now));
        }
    }
    let run_s = t1.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;

    let stats = stats(&c);
    let mut layers = world_layers(&c.world);
    layers.extend([
        ("scenario.load_s", tr.seconds_since(mark, "scenario.load")),
        (
            "scenario.compile_s",
            tr.seconds_since(mark, "scenario.compile"),
        ),
        (
            "scenario.mobility_s",
            tr.seconds_since(mark, "scenario.mobility"),
        ),
        ("scenario.moves", stats.moves as f64),
        ("core.run_until_s", tr.seconds_since(mark, "core.run_until")),
    ]);
    let (mut events, mut dropped) = (0, 0);
    if let Some(w) = &c.wids {
        let m = w.pipe.metrics();
        events = w.pipe.ring.pushed + w.pipe.ring.dropped;
        dropped = w.pipe.ring.dropped;
        layers.extend([
            ("wids.ingest_s", tr.seconds_since(mark, "wids.ingest")),
            ("wids.step_s", tr.seconds_since(mark, "wids.step")),
            ("wids.events_pushed", w.pipe.ring.pushed as f64),
            ("wids.ring_dropped", dropped as f64),
            ("wids.alerts_raw", m.counter("wids.alerts_raw") as f64),
            ("wids.incidents", w.pipe.incidents().len() as f64),
            ("wids.state_evictions", w.pipe.state_evictions() as f64),
            ("wids.tracked_sources", w.pipe.tracked_sources() as f64),
            (
                "wids.detector_state_bytes",
                w.pipe.detector_state_bytes() as f64,
            ),
        ]);
    }
    let run = SummaryRun { compiled: c, stats };
    let table = summary_report(&sc, &run);
    let mut d = Digest::new();
    d.bytes(table.as_bytes());
    Pass {
        setup_s,
        run_s,
        cpu_s,
        output: Output {
            digest: d.finish(),
            fields: vec![
                ("table_bytes", table.len() as u64),
                ("moves", run.stats.moves),
                ("associations", run.stats.associations as u64),
                ("wids_incidents", run.stats.wids_incidents as u64),
            ],
        },
        events,
        dropped,
        layers,
    }
}
