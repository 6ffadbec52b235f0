//! vpn_throughput — records/sec through the full VPN record path, and
//! handshakes/sec through its Diffie–Hellman exchange.
//!
//! Drives one established client/server session pair exactly the way
//! the tunnel does in steady state: `seal_record` produces the encoded
//! wire record in a single buffer, the receiver `Message::decode`s it
//! (ciphertext as a zero-copy slice) and `open`s it in place. Three
//! figures per payload size:
//!
//! * **records/sec** — wall-clock seal → decode → open throughput.
//! * **MB/sec** — the same, scaled by payload size.
//! * **bytes copied / record** — payload bytes `open` had to copy
//!   because the record buffer was still shared, straight from the
//!   `SessionCrypto::bytes_copied` counter; the steady-state path
//!   decrypts in place and reports 0. A pointer-containment audit
//!   cross-checks that the returned plaintext aliases the wire buffer.
//!
//! The handshake leg times one side's key exchange — `DhKeyPair::generate`
//! then `agree` with the peer's public value — and, in the same process,
//! the same two exponentiations through the `BigUint` reference oracle.
//! It asserts both give the same bytes and reports
//! `dh_speedup_vs_biguint`, the ratio of the two rates.
//!
//! Results go to `BENCH_vpn_throughput.json` at the workspace root, with
//! the host's CPU count, so CI can archive the perf trajectory per PR.
//! Every rate is the best of `reps_best_of` timed runs. `-- --test` runs
//! a shortened smoke sweep; the JSON is written either way.

use std::time::Instant;

use criterion::black_box;
use rogue_crypto::bigint::BigUint;
use rogue_crypto::dh::{DhKeyPair, ELEMENT_LEN, EXPONENT_LEN, MODP_1024};
use rogue_sim::{Seed, SimRng};
use rogue_vpn::protocol::{gen_keypair, Message, SessionCrypto};

/// Inner-packet sizes swept: tiny (ACK-ish), small data, and the
/// near-MTU size that dominates a bulk download through the tunnel.
const PAYLOAD_LENS: [usize; 3] = [64, 256, 1400];

struct Sweep {
    payload_len: usize,
    records_per_sec: f64,
    mb_per_sec: f64,
    bytes_copied_per_record: f64,
}

fn established_pair() -> (SessionCrypto, SessionCrypto) {
    let mut rng = SimRng::new(Seed(1));
    let ckp = gen_keypair(&mut rng);
    let skp = gen_keypair(&mut rng);
    let shared = ckp.agree(&skp.public).unwrap();
    let nc = [1u8; 16];
    let ns = [2u8; 16];
    (
        SessionCrypto::derive(&shared, &nc, &ns, true),
        SessionCrypto::derive(&shared, &nc, &ns, false),
    )
}

/// One timed run: `records` records sealed by the client and opened by
/// the server. Returns (elapsed seconds, bytes copied at open).
fn run(payload_len: usize, records: usize) -> (f64, u64) {
    let (mut c, mut s) = established_pair();
    let payload = vec![0xA5u8; payload_len];
    let start = Instant::now();
    for i in 0..records {
        let rec = c.seal_record(&payload);
        let base = rec.as_ptr() as usize;
        let Some(Message::Data {
            seq,
            tag,
            ciphertext,
        }) = Message::decode(&rec)
        else {
            unreachable!()
        };
        drop(rec); // receiver owns the record now — steady state
        let pt = s.open(seq, &tag, ciphertext).expect("valid record");
        // Cross-check the counter: the plaintext must alias the single
        // record allocation (in-place decrypt), never a fresh copy.
        if i == 0 && payload_len > 0 {
            let p = pt.as_ptr() as usize;
            assert!(
                (base..base + 21 + payload_len).contains(&p),
                "open copied despite unique ownership"
            );
        }
        black_box(&pt);
    }
    (start.elapsed().as_secs_f64(), s.bytes_copied)
}

fn sweep(records: usize, reps: usize) -> Vec<Sweep> {
    PAYLOAD_LENS
        .iter()
        .map(|&payload_len| {
            let mut best = f64::INFINITY;
            let mut copied = 0u64;
            for _ in 0..reps {
                let (elapsed, c) = run(payload_len, records);
                best = best.min(elapsed);
                copied = c;
            }
            let records_per_sec = records as f64 / best;
            Sweep {
                payload_len,
                records_per_sec,
                mb_per_sec: records_per_sec * payload_len as f64 / 1e6,
                bytes_copied_per_record: copied as f64 / records as f64,
            }
        })
        .collect()
}

struct Handshakes {
    per_run: usize,
    /// `generate` + `agree` per second (fixed-width Montgomery path).
    per_sec: f64,
    /// The same two exponentiations through `BigUint::pow_mod`.
    biguint_per_sec: f64,
}

/// One side of a handshake through the reference oracle: the public
/// value g^x and the secret peer^x, with `generate`'s clamp.
fn biguint_handshake(random: &[u8; EXPONENT_LEN], peer: &BigUint, p: &BigUint) -> Vec<u8> {
    let mut x = *random;
    x[0] |= 0x80;
    let x = BigUint::from_be_bytes(&x);
    let public = BigUint::from_u64(2).pow_mod(&x, p);
    let mut out = public.to_be_bytes(ELEMENT_LEN);
    out.extend(peer.pow_mod(&x, p).to_be_bytes(ELEMENT_LEN));
    out
}

/// Times `per_run` handshakes against one fixed peer on both paths,
/// best of `reps`, after checking the two paths agree byte for byte.
fn handshakes(per_run: usize, reps: usize) -> Handshakes {
    let peer = DhKeyPair::generate(&[0x5A; EXPONENT_LEN]).public;
    let peer_n = BigUint::from_be_bytes(&peer);
    let p = BigUint::from_be_bytes(MODP_1024);
    // Distinct per-handshake randomness, as the simulator's RNG draws it.
    let mut rng = SimRng::new(Seed(2));
    let randomness: Vec<[u8; EXPONENT_LEN]> = (0..per_run)
        .map(|_| {
            let mut r = [0u8; EXPONENT_LEN];
            rng.fill_bytes(&mut r);
            r
        })
        .collect();
    for r in randomness.iter().take(4) {
        let kp = DhKeyPair::generate(r);
        let mut fast = kp.public.clone();
        fast.extend(kp.agree(&peer).expect("valid peer"));
        assert_eq!(fast, biguint_handshake(r, &peer_n, &p), "DH paths disagree");
    }
    let best = |run: &dyn Fn()| {
        (0..reps)
            .map(|_| {
                let start = Instant::now();
                run();
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let fast = best(&|| {
        for r in &randomness {
            let kp = DhKeyPair::generate(r);
            black_box(kp.agree(&peer));
        }
    });
    let slow = best(&|| {
        for r in &randomness {
            black_box(biguint_handshake(r, &peer_n, &p));
        }
    });
    Handshakes {
        per_run,
        per_sec: per_run as f64 / fast,
        biguint_per_sec: per_run as f64 / slow,
    }
}

fn write_json(
    path: &std::path::Path,
    records: usize,
    reps: usize,
    results: &[Sweep],
    hs: &Handshakes,
) {
    let rows: Vec<String> = results
        .iter()
        .map(|s| {
            format!(
                concat!(
                    "    {{\"payload_len\": {}, \"records_per_sec\": {:.0}, ",
                    "\"mb_per_sec\": {:.1}, \"bytes_copied_per_record\": {:.1}}}"
                ),
                s.payload_len, s.records_per_sec, s.mb_per_sec, s.bytes_copied_per_record,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"vpn_throughput\",\n",
            "  \"records_per_run\": {},\n  \"reps_best_of\": {},\n",
            "  \"host_cpus\": {},\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"handshake\": {{\"handshakes_per_run\": {}, \"handshakes_per_sec\": {:.0}, ",
            "\"biguint_handshakes_per_sec\": {:.0}, \"dh_speedup_vs_biguint\": {:.2}}}\n}}\n"
        ),
        records,
        reps,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows.join(",\n"),
        hs.per_run,
        hs.per_sec,
        hs.biguint_per_sec,
        hs.per_sec / hs.biguint_per_sec,
    );
    std::fs::write(path, json).expect("write BENCH_vpn_throughput.json");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (records, handshakes_per_run, reps) = if smoke { (500, 8, 2) } else { (20000, 200, 5) };

    let results = sweep(records, reps);
    println!("vpn_throughput ({records} records/run)");
    for s in &results {
        println!(
            "  payload={:5}  {:>10.0} records/s   {:>8.1} MB/s   {:>6.1} bytes copied/record",
            s.payload_len, s.records_per_sec, s.mb_per_sec, s.bytes_copied_per_record
        );
    }
    let hs = handshakes(handshakes_per_run, reps);
    println!(
        "  handshake (generate + agree)  {:>8.0} /s   BigUint oracle {:>6.0} /s   speedup {:.2}x",
        hs.per_sec,
        hs.biguint_per_sec,
        hs.per_sec / hs.biguint_per_sec
    );

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_vpn_throughput.json");
    write_json(&path, records, reps, &results, &hs);
    println!("wrote {}", path.display());
}
