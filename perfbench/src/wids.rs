//! `wids_replay`: a multi-sensor attack stream pushed through
//! `WidsPipeline` with the default engine.
//!
//! The stream is the `wids_throughput` bench's campus: per sensor, 24
//! well-behaved clients, a MAC-randomizing rogue sending half of all
//! frames from never-repeating addresses, an interleaved MAC spoof, a
//! deauth flood, a wrong-channel BSSID clone, an evil twin and a wired
//! ARP poisoner. It is generated one 2,048-event slice at a time between
//! the timed calls — the generator never runs inside them, and memory
//! holds one slice, so peak RSS is the pipeline's.
//!
//! Set-up is building the input: the pipeline and its sensor ids, plus
//! the generation of every slice. Pipeline construction alone takes
//! under a millisecond, too little to time steadily.

use std::collections::HashMap;
use std::time::Instant;

use rogue_dot11::MacAddr;
use rogue_netstack::arp::ArpOp;
use rogue_netstack::Ipv4Addr;
use rogue_sim::rng::{Seed, SplitMix64};
use rogue_sim::SimTime;
use rogue_wids::{
    ArpEvent, Dot11Event, Dot11Kind, EngineMode, SensorEvent, SensorId, WidsConfig, WidsPipeline,
};

use crate::trace::Tracer;
use crate::{host, Digest, Output, Pass, Size};

pub const DEFAULT_SEED: u64 = 0x3D1_BEEF;

pub const SENSORS: usize = 8;
const SLICE: usize = 2_048;
const CHANNELS: [u8; 3] = [1, 6, 11];
const CLIENTS_PER_SENSOR: u64 = 24;

/// Events per sensor.
pub fn events_per_sensor(size: Size) -> usize {
    match size {
        Size::Full => 150_000,
        Size::Smoke => 4_000,
    }
}

fn chan(s: usize) -> u8 {
    CHANNELS[s % 3]
}

fn ap_mac(s: usize) -> MacAddr {
    MacAddr::local(9_000 + s as u64)
}

fn client_mac(s: usize, i: u64) -> MacAddr {
    MacAddr::local(1_000 * (s as u64 + 1) + i)
}

#[allow(clippy::too_many_arguments)]
fn dot11(
    sensor: SensorId,
    at: SimTime,
    channel: u8,
    rssi_dbm: f64,
    ta: MacAddr,
    bssid: MacAddr,
    seq: u16,
    kind: Dot11Kind,
) -> SensorEvent {
    SensorEvent::Dot11(Dot11Event {
        sensor,
        at,
        channel,
        rssi_dbm,
        ta,
        ra: MacAddr::BROADCAST,
        bssid,
        seq,
        retry: false,
        kind,
    })
}

fn beacon(ssid: &str, claimed: u8) -> Dot11Kind {
    Dot11Kind::Beacon {
        ssid: ssid.to_string(),
        claimed_channel: claimed,
        capability: 0,
        probe_resp: false,
    }
}

/// One sensor's event stream, produced an event at a time.
struct SensorGen {
    s: usize,
    rng: SplitMix64,
    ssid: String,
    seq: HashMap<MacAddr, u16>,
    spoof_phase: u64,
    churn_n: u64,
    at: SimTime,
    left: usize,
}

impl SensorGen {
    fn new(s: usize, events: usize, seed: Seed) -> SensorGen {
        SensorGen {
            s,
            rng: SplitMix64::new(seed.fork(s as u64 + 1).0),
            ssid: format!("CORP-{s}"),
            seq: HashMap::new(),
            spoof_phase: 0,
            churn_n: 0,
            // Distinct ns offsets per sensor keep merged timestamps unique.
            at: SimTime(1_000 + s as u64),
            left: events,
        }
    }

    fn next(&mut self) -> Option<SensorEvent> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let s = self.s;
        let rng = &mut self.rng;
        let sensor = SensorId(s as u16);
        let ch = chan(s);
        let ap = ap_mac(s);
        self.at = SimTime(self.at.0 + 120_000 + (rng.next_u64() % 160) * 1_000);
        let at = self.at;
        let roll = rng.next_u64() % 100;
        let ev = if roll < 35 {
            // Clean client data.
            let ta = client_mac(s, rng.next_u64() % CLIENTS_PER_SENSOR);
            let sq = self.seq.entry(ta).or_insert(0);
            *sq = (*sq + 1 + (rng.next_u64() % 2) as u16) & 0x0FFF;
            let rssi = -48.0 - (rng.next_u64() % 6) as f64;
            dot11(
                sensor,
                at,
                ch,
                rssi,
                ta,
                ap,
                *sq,
                Dot11Kind::Data { protected: true },
            )
        } else if roll < 85 {
            // The MAC randomizer: every frame a fresh forged source.
            self.churn_n += 1;
            let rssi = -70.0 - (rng.next_u64() % 5) as f64;
            let ta = MacAddr::local(100_000_000 * (s as u64 + 1) + self.churn_n);
            let sq = (rng.next_u64() & 0x0FFF) as u16;
            dot11(
                sensor,
                at,
                ch,
                rssi,
                ta,
                ap,
                sq,
                Dot11Kind::Data { protected: false },
            )
        } else if roll < 90 {
            // The authorized AP beaconing where it belongs.
            let sq = self.seq.entry(ap).or_insert(0);
            *sq = (*sq + 1) & 0x0FFF;
            let rssi = -40.0 - (rng.next_u64() % 3) as f64;
            dot11(sensor, at, ch, rssi, ap, ap, *sq, beacon(&self.ssid, ch))
        } else if roll < 95 {
            // Interleaved MAC spoof: two radios behind one address.
            self.spoof_phase += 1;
            let even = self.spoof_phase.is_multiple_of(2);
            let base = if even { 100 } else { 2_900 };
            let rssi = if even { -40.0 } else { -62.0 };
            let sq = ((base + self.spoof_phase / 2) & 0x0FFF) as u16;
            let spoofed = client_mac(s, 900);
            dot11(
                sensor,
                at,
                ch,
                rssi,
                spoofed,
                ap,
                sq,
                Dot11Kind::Data { protected: false },
            )
        } else if roll < 97 {
            // Deauth burst from one forged transmitter.
            let flooder = client_mac(s, 901);
            dot11(
                sensor,
                at,
                ch,
                -50.0,
                flooder,
                ap,
                0,
                Dot11Kind::Deauth { reason: 7 },
            )
        } else if roll < 98 {
            // Wrong-channel clone of the authorized BSSID.
            let sq = self.seq.entry(client_mac(s, 902)).or_insert(2_000);
            *sq = (*sq + 1) & 0x0FFF;
            let kind = beacon(&self.ssid, chan(s + 1));
            dot11(sensor, at, chan(s + 1), -55.0, ap, ap, *sq, kind)
        } else if roll < 99 {
            // Evil twin: unknown BSSID advertising the owned SSID.
            let sq = self.seq.entry(MacAddr::local(990)).or_insert(3_000);
            *sq = (*sq + 1) & 0x0FFF;
            let twin = client_mac(s, 902);
            dot11(
                sensor,
                at,
                ch,
                -58.0,
                twin,
                twin,
                *sq,
                beacon(&self.ssid, ch),
            )
        } else {
            // Wired side: benign ARP chatter plus the gateway poisoner.
            let poison = rng.next_u64().is_multiple_of(4);
            let (mac, ip) = if poison {
                (client_mac(s, 903), Ipv4Addr::new(10, 0, s as u8, 1))
            } else {
                let i = rng.next_u64() % 8;
                (
                    client_mac(s, 910 + i),
                    Ipv4Addr::new(10, 0, s as u8, 50 + i as u8),
                )
            };
            SensorEvent::Arp(ArpEvent {
                sensor,
                at,
                src_mac: mac,
                op: ArpOp::Reply,
                sender_mac: mac,
                sender_ip: ip,
                target_ip: Ipv4Addr::new(10, 0, s as u8, 255),
                gratuitous: poison,
            })
        };
        Some(ev)
    }
}

/// The merged, globally time-ordered multi-sensor stream.
pub struct Stream {
    gens: Vec<SensorGen>,
    heads: Vec<Option<SensorEvent>>,
}

impl Stream {
    pub fn new(events_per_sensor: usize, seed: u64) -> Stream {
        let mut gens: Vec<SensorGen> = (0..SENSORS)
            .map(|s| SensorGen::new(s, events_per_sensor, Seed(seed)))
            .collect();
        let heads = gens.iter_mut().map(SensorGen::next).collect();
        Stream { gens, heads }
    }

    /// Fill `out` with the next slice; false when the stream is done.
    pub fn next_slice(&mut self, out: &mut Vec<SensorEvent>) -> bool {
        out.clear();
        while out.len() < SLICE {
            let Some(s) = (0..SENSORS)
                .filter(|&s| self.heads[s].is_some())
                .min_by_key(|&s| self.heads[s].as_ref().map(SensorEvent::at))
            else {
                break;
            };
            let next = self.gens[s].next();
            out.push(std::mem::replace(&mut self.heads[s], next).expect("head present"));
        }
        !out.is_empty()
    }
}

fn config(seed_engine: EngineMode) -> WidsConfig {
    WidsConfig {
        authorized_aps: (0..SENSORS).map(|s| (ap_mac(s), chan(s))).collect(),
        trusted_bindings: (0..SENSORS)
            .map(|s| (Ipv4Addr::new(10, 0, s as u8, 1), MacAddr::local(254)))
            .collect(),
        engine: seed_engine,
        ..WidsConfig::default()
    }
}

/// Pipeline construction, then one slice at a time: generate (set-up),
/// push into the sensor rings and step (run).
pub fn pass(size: Size, seed: u64, engine: EngineMode, tr: &mut Tracer) -> Pass {
    let mark = tr.mark();
    let t0 = Instant::now();
    let mut pipe = tr.span("wids.new", || {
        let mut pipe = WidsPipeline::new(config(engine));
        for _ in 0..SENSORS {
            pipe.new_sensor_id();
        }
        pipe
    });
    let mut stream = Stream::new(events_per_sensor(size), seed);
    let mut slice = Vec::with_capacity(SLICE);
    let mut setup_s = t0.elapsed().as_secs_f64();
    let (mut run_s, mut cpu_s) = (0.0, 0.0);
    let (mut offered, mut dropped) = (0u64, 0u64);
    loop {
        let g = Instant::now();
        let more = stream.next_slice(&mut slice);
        setup_s += g.elapsed().as_secs_f64();
        if !more {
            break;
        }
        let last = slice.last().map_or(SimTime::ZERO, SensorEvent::at);
        let cpu0 = host::process_cpu_s();
        let t1 = Instant::now();
        tr.span("wids.ingest", || {
            for ev in slice.drain(..) {
                let ring = pipe.sensor_ring(ev.sensor());
                if !ring.push(ev) {
                    dropped += 1;
                }
                offered += 1;
            }
        });
        tr.span("wids.step", || pipe.step(last));
        run_s += t1.elapsed().as_secs_f64();
        cpu_s += host::process_cpu_s() - cpu0;
    }

    let mut d = Digest::new();
    for i in pipe.incidents() {
        d.u64(i.category as u64);
        d.bytes(&i.subject.0);
        d.u64(i.opened_at.0);
        d.u64(i.last_evidence_at.0);
        d.u64(i.score.to_bits());
        d.u64(i.alerts_fused as u64);
        for name in &i.detectors {
            d.bytes(name.as_bytes());
            d.bytes(&[0]);
        }
    }
    // Incidents settle early in the stream; the counters and the
    // per-source tables keep moving to its end.
    let m = pipe.metrics();
    for key in m.counter_keys() {
        d.bytes(key.as_bytes());
        d.u64(m.counter(key));
    }
    d.u64(pipe.state_evictions());
    d.u64(pipe.tracked_sources() as u64);
    let raw = m.counter("wids.alerts_raw");
    let layers = vec![
        ("wids.ingest_s", tr.seconds_since(mark, "wids.ingest")),
        ("wids.step_s", tr.seconds_since(mark, "wids.step")),
        ("wids.events_pushed", (offered - dropped) as f64),
        ("wids.ring_dropped", dropped as f64),
        ("wids.alerts_raw", raw as f64),
        ("wids.incidents", pipe.incidents().len() as f64),
        ("wids.state_evictions", pipe.state_evictions() as f64),
        ("wids.tracked_sources", pipe.tracked_sources() as f64),
        (
            "wids.detector_state_bytes",
            pipe.detector_state_bytes() as f64,
        ),
    ];
    Pass {
        setup_s,
        run_s,
        cpu_s,
        output: Output {
            digest: d.finish(),
            fields: vec![
                ("incidents", pipe.incidents().len() as u64),
                ("alerts_raw", raw),
                ("events", offered),
            ],
        },
        events: offered,
        dropped,
        layers,
    }
}
