//! `city_join`: the `city_scale` world — radios on a 30 m grid, an AP on
//! every fifth grid point of every fifth row, stations everywhere else,
//! all powering on and joining — under serial default dispatch.

use std::net::Ipv4Addr;
use std::time::Instant;

use rogue_core::world::World;
use rogue_dot11::{ApConfig, MacAddr, StaConfig};
use rogue_phy::{MediumParams, Pos};
use rogue_sim::profile::Snapshot;
use rogue_sim::{Seed, SimDuration, SimTime};

use crate::trace::Tracer;
use crate::{host, Digest, Output, Pass, Size};

pub const DEFAULT_SEED: u64 = 0xC17;

const PITCH_M: f64 = 30.0;
const AP_STRIDE: usize = 5;

/// `(grid side, simulated ms)`.
pub fn dims(size: Size) -> (usize, u64) {
    match size {
        Size::Full => (101, 500),
        Size::Smoke => (45, 600),
    }
}

/// Build the city exactly as the `city_scale` bench does: staggered AP
/// beacons over one interval, staggered station power-on over two scan
/// cycles. Each `add_*` call is a span when tracing.
pub fn build(side: usize, seed: u64, tr: &mut Tracer) -> World {
    let mut w = tr.span("core.world_new", || {
        World::new(Seed(seed), MediumParams::default())
    });
    let mut idx = 0u64;
    for gy in 0..side {
        for gx in 0..side {
            let pos = Pos::new(gx as f64 * PITCH_M, gy as f64 * PITCH_M);
            let ip = Ipv4Addr::new(10, (idx >> 16) as u8, (idx >> 8) as u8, idx as u8);
            let mac = MacAddr::local(idx + 1);
            if gx % AP_STRIDE == 2 && gy % AP_STRIDE == 2 {
                let channel = [1u8, 6, 11][(gx / AP_STRIDE + gy / AP_STRIDE) % 3];
                let start = SimTime::from_millis((idx * 97) % 100);
                tr.span("core.add_ap", || {
                    let n = w.add_node(&format!("ap{idx}"));
                    let cfg = ApConfig::typical(mac, "CITY", channel, None);
                    w.add_ap_local_starting_at(n, pos, 15.0, cfg, ip, 8, start);
                });
            } else {
                let start = SimTime::from_millis((idx * 719) % 720);
                tr.span("core.add_sta", || {
                    let n = w.add_node(&format!("sta{idx}"));
                    let cfg = StaConfig::typical(mac, "CITY", None);
                    w.add_sta_starting_at(n, pos, 15.0, cfg, ip, 8, start);
                });
            }
            idx += 1;
        }
    }
    w
}

/// The MAC-event fingerprint plus the medium and queue counters.
fn output(w: &World) -> Output {
    let mut d = Digest::new();
    for (t, n, e) in &w.mac_events {
        d.u64(t.as_nanos());
        d.u64(n.0 as u64);
        d.bytes(format!("{e:?}").as_bytes());
    }
    let m = &w.medium;
    Output {
        digest: d.finish(),
        fields: vec![
            ("mac_events", w.mac_events.len() as u64),
            ("frames_sent", m.frames_sent),
            ("events", w.events_dispatched()),
            ("halfduplex_misses", m.halfduplex_misses),
            ("sinr_drops", m.sinr_drops),
        ],
    }
}

fn phase_s(p: &Snapshot, label: &str) -> (f64, u64) {
    p.phases
        .iter()
        .chain(&p.kinds)
        .find(|r| r.0 == label)
        .map_or((0.0, 0), |&(_, ns, count)| (ns as f64 / 1e9, count))
}

/// Per-layer figures any world exposes after a run: the always-on
/// profiler's phases and event kinds, and the medium's counters.
pub fn world_layers(w: &World) -> Vec<(&'static str, f64)> {
    let p = w.profile_snapshot();
    let (plan_s, plans) = phase_s(&p, "medium_plan");
    let (pairs, hits, misses) = w.medium.pathloss_cache_stats();
    let lookups = hits + misses;
    vec![
        ("phy.medium_plan_s", plan_s),
        (
            "phy.plan_us_per_completion",
            if plans == 0 {
                0.0
            } else {
                plan_s * 1e6 / plans as f64
            },
        ),
        ("phy.medium_commit_s", phase_s(&p, "medium_commit").0),
        ("phy.frames_sent", w.medium.frames_sent as f64),
        ("phy.pathloss_pairs", pairs as f64),
        ("phy.pathloss_lookups", lookups as f64),
        (
            "phy.pathloss_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
        ),
        (
            "phy.audible_rows_reused",
            w.medium.audible_rows_reused() as f64,
        ),
        ("phy.power_map_entries", w.medium.power_map_entries() as f64),
        ("core.op_commit_s", phase_s(&p, "op_commit").0),
        ("core.deliver_s", phase_s(&p, "deliver").0),
        ("core.poll_s", phase_s(&p, "poll").0),
        ("core.tx_complete_s", phase_s(&p, "tx_complete").0),
        ("core.node_poll_s", phase_s(&p, "node_poll").0),
        ("sim.events", w.events_dispatched() as f64),
        ("sim.queue_pop_s", phase_s(&p, "queue_pop").0),
        ("sim.queue_schedule_s", phase_s(&p, "queue_schedule").0),
        ("sim.prof_overhead_permille", p.overhead_permille() as f64),
    ]
}

/// One city: build (set-up), run to the horizon, fingerprint. With
/// `shards > 1` the world runs under the sharded window loop instead
/// and also reports its speculative-plan counters.
pub fn pass(size: Size, seed: u64, shards: usize, tr: &mut Tracer) -> Pass {
    let (side, horizon_ms) = dims(size);
    let t0 = Instant::now();
    let sp = tr.open("core.build");
    let mut w = build(side, seed, tr);
    tr.close(sp);
    let setup_s = t0.elapsed().as_secs_f64();
    if shards > 1 {
        w.set_shards(shards);
        w.set_shard_window(SimDuration::from_millis(1));
    }
    let cpu0 = host::process_cpu_s();
    let t1 = Instant::now();
    tr.span("core.run_until", || {
        w.run_until(SimTime::from_millis(horizon_ms))
    });
    let run_s = t1.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    let mut layers = world_layers(&w);
    layers.push(("core.build_s", setup_s));
    layers.push(("core.run_until_s", run_s));
    if shards > 1 {
        // Wall time of the parallel exec regions; serial dispatch has none.
        let exec_wall = phase_s(&w.profile_snapshot(), "exec_wall").0;
        layers.push(("core.exec_wall_s", exec_wall));
        layers.push((
            "sim.plans_parallel",
            w.metrics.counter("sim.plans_parallel") as f64,
        ));
        layers.push((
            "sim.plans_stale",
            w.metrics.counter("sim.plans_stale") as f64,
        ));
    }
    Pass {
        setup_s,
        run_s,
        cpu_s,
        output: output(&w),
        events: 0,
        dropped: 0,
        layers,
    }
}
