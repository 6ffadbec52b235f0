//! medium_scale — medium throughput as the radio registry grows.
//!
//! Campus-floor topology: `R` radios on a uniform grid (30 m spacing,
//! channels round-robin over the non-overlapping {1, 6, 11} set), with 16
//! transmitter stations spread evenly across the floor streaming
//! back-to-back 256-byte data frames. This is the shape the dense-hotspot
//! scenarios (E8, and site-scale WIDS coverage) converge to: thousands of
//! registered radios, of which only the ones within decode range of a
//! given transmitter can possibly hear a frame.
//!
//! Figures per sweep point:
//!
//! * **frames/sec** and **ns/frame** — wall-clock cost of one
//!   `begin_tx` → `channel_busy` → `complete_tx` cycle. Sub-linear
//!   ns/frame growth vs. radio count is the point of the spatial cull.
//! * **power-map entries/tx** — `(radio, dBm)` pairs retained per
//!   transmission: O(R) for the dense fill, O(audible) for the sparse
//!   path.
//!
//! Every size runs twice in one process on one host: the default sparse
//! path, and the same schedule through [`Medium::force_dense`] — the
//! O(registry) reference fill the sparse path must match bit for bit.
//! The two legs must deliver the same frames; the speedup is their
//! ratio. Results are written to `BENCH_medium_scale.json` at the
//! workspace root. `-- --test` runs a shortened smoke sweep (the sizes
//! up to 5,000 radios); the JSON is written either way.

use std::time::Instant;

use bytes::Bytes;
use criterion::black_box;
use rogue_phy::{Bitrate, Medium, MediumParams, Pos};
use rogue_sim::{Seed, SimTime};

/// Payload bytes per frame (a small data frame).
const PAYLOAD_LEN: usize = 256;

/// Grid spacing in metres. At 15 dBm / default propagation the decode
/// horizon is ~200 m, so each transmitter can reach a bounded
/// neighbourhood (~140 radios) regardless of how big the floor grows.
const SPACING_M: f64 = 30.0;

/// Transmitters streaming concurrently, spread evenly over the floor.
const SOURCES: usize = 16;

/// Radio counts swept; the smoke sweep stops at [`SMOKE_RADIOS_MAX`].
const RADIOS: [usize; 5] = [50, 200, 1000, 5000, 20_000];
const SMOKE_RADIOS_MAX: usize = 5000;

/// One leg (sparse or forced-dense) at one size.
struct Leg {
    frames_per_sec: f64,
    ns_per_frame: f64,
    deliveries: u64,
    power_map_entries_per_tx: f64,
}

struct Sweep {
    radios: usize,
    sparse: Leg,
    dense: Leg,
}

/// Build the campus grid: `radios` radios at `SPACING_M` pitch, channels
/// round-robin over {1, 6, 11}.
fn build(radios: usize, force_dense: bool) -> (Medium, Vec<rogue_phy::RadioId>) {
    let mut m = Medium::new(MediumParams::default(), Seed(42));
    m.force_dense(force_dense);
    let side = (radios as f64).sqrt().ceil() as usize;
    let mut ids = Vec::with_capacity(radios);
    for i in 0..radios {
        let (gx, gy) = (i % side, i / side);
        let pos = Pos::new(gx as f64 * SPACING_M, gy as f64 * SPACING_M);
        let channel = [1u8, 6, 11][i % 3];
        ids.push(m.add_radio(pos, channel, 15.0));
    }
    (m, ids)
}

/// One timed run: `frames` back-to-back data frames from `SOURCES`
/// rotating transmitters. Returns (elapsed seconds, deliveries,
/// power-map entries per tx).
fn run(radios: usize, frames: usize, force_dense: bool) -> (f64, u64, f64) {
    let (mut m, ids) = build(radios, force_dense);
    let sources: Vec<_> = (0..SOURCES.min(radios))
        .map(|s| ids[s * radios / SOURCES.min(radios)])
        .collect();
    let payload = Bytes::from(vec![0xA5u8; PAYLOAD_LEN]);

    let mut entries = 0u64;
    let mut entry_samples = 0u64;
    let start = Instant::now();
    let mut t = SimTime::ZERO;
    let mut deliveries = 0u64;
    for i in 0..frames {
        let src = sources[i % sources.len()];
        let busy = m.channel_busy(t, src);
        black_box(busy);
        let (h, end) = m.begin_tx(t, src, payload.clone(), Bitrate::B11);
        if m.tx_backlog() > 0 {
            entries += m.power_map_entries() as u64 / m.tx_backlog() as u64;
            entry_samples += 1;
        }
        deliveries += m.complete_tx(end, h).len() as u64;
        t = end;
    }
    let elapsed = start.elapsed().as_secs_f64();
    black_box(&m);
    (
        elapsed,
        deliveries,
        entries as f64 / entry_samples.max(1) as f64,
    )
}

/// Best-of-`reps` timing of one leg.
fn leg(radios: usize, frames: usize, reps: usize, force_dense: bool) -> Leg {
    let mut best = f64::INFINITY;
    let mut deliveries = 0;
    let mut entries = 0.0;
    for _ in 0..reps {
        let (elapsed, d, e) = run(radios, frames, force_dense);
        best = best.min(elapsed);
        deliveries = d;
        entries = e;
    }
    Leg {
        frames_per_sec: frames as f64 / best,
        ns_per_frame: best * 1e9 / frames as f64,
        deliveries,
        power_map_entries_per_tx: entries,
    }
}

fn sweep(frames: usize, reps: usize, max_radios: usize) -> Vec<Sweep> {
    RADIOS
        .iter()
        .filter(|&&radios| radios <= max_radios)
        .map(|&radios| {
            let sweep = Sweep {
                radios,
                sparse: leg(radios, frames, reps, false),
                dense: leg(radios, frames, reps, true),
            };
            assert_eq!(
                sweep.sparse.deliveries, sweep.dense.deliveries,
                "sparse and forced-dense legs diverged at {radios} radios"
            );
            sweep
        })
        .collect()
}

fn write_json(path: &std::path::Path, frames: usize, reps: usize, results: &[Sweep]) {
    let rows: Vec<String> = results
        .iter()
        .map(|s| {
            format!(
                concat!(
                    "    {{\"radios\": {}, \"frames_per_sec\": {:.0}, ",
                    "\"ns_per_frame\": {:.0}, \"deliveries\": {}, ",
                    "\"power_map_entries_per_tx\": {:.1}, ",
                    "\"dense_frames_per_sec\": {:.0}, ",
                    "\"dense_power_map_entries_per_tx\": {:.1}, ",
                    "\"speedup_vs_dense\": {:.2}}}"
                ),
                s.radios,
                s.sparse.frames_per_sec,
                s.sparse.ns_per_frame,
                s.sparse.deliveries,
                s.sparse.power_map_entries_per_tx,
                s.dense.frames_per_sec,
                s.dense.power_map_entries_per_tx,
                s.sparse.frames_per_sec / s.dense.frames_per_sec,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"medium_scale\",\n",
            "  \"payload_len\": {},\n  \"spacing_m\": {},\n",
            "  \"sources\": {},\n  \"frames_per_run\": {},\n",
            "  \"reps_best_of\": {},\n  \"host_cpus\": {},\n",
            "  \"results\": [\n{}\n  ]\n}}\n"
        ),
        PAYLOAD_LEN,
        SPACING_M,
        SOURCES,
        frames,
        reps,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows.join(",\n")
    );
    std::fs::write(path, json).expect("write BENCH_medium_scale.json");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (frames, reps, max_radios) = if smoke {
        (500, 2, SMOKE_RADIOS_MAX)
    } else {
        (4000, 4, usize::MAX)
    };

    let results = sweep(frames, reps, max_radios);
    println!("medium_scale ({PAYLOAD_LEN}-byte payloads, {frames} frames/run, {SOURCES} sources)");
    for s in &results {
        println!(
            "  radios={:<6} {:>10.0} frames/s   {:>9.0} ns/frame   {:>8.1} power-map entries/tx   {} deliveries   {:.2}x vs dense ({:.0} frames/s)",
            s.radios,
            s.sparse.frames_per_sec,
            s.sparse.ns_per_frame,
            s.sparse.power_map_entries_per_tx,
            s.sparse.deliveries,
            s.sparse.frames_per_sec / s.dense.frames_per_sec,
            s.dense.frames_per_sec,
        );
    }

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_medium_scale.json");
    write_json(&path, frames, reps, &results);
    println!("wrote {}", path.display());
}
