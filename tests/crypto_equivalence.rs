//! Equivalence proptests pinning the block-batched crypto paths to
//! independent byte-wise references.
//!
//! The record-path optimizations (block-batched ChaCha20 XOR, multi-block
//! SHA-1 absorption, precomputed HMAC pad midstates, register-local RC4)
//! are only admissible because they are *bit-identical* to the simple
//! per-byte formulations — every golden table in EXPERIMENTS.md depends
//! on the ciphertext bytes not moving. Each property here re-derives the
//! expected bytes through a deliberately naive path (one byte per
//! `update`, pads built by hand from RFC 2104) and requires exact
//! equality at arbitrary lengths, splits, and resumption points.
//!
//! The DH exponentiation follows the same rule: the fixed-width
//! Montgomery path in `rogue_crypto::dh` must equal the general
//! `BigUint::pow_mod` byte for byte, and `DhKeyPair::agree`, which reads
//! attacker-controlled bytes, must accept exactly the non-degenerate
//! elements and derive the reference secret from them.

use proptest::prelude::*;
use rogue_crypto::bigint::BigUint;
use rogue_crypto::chacha20::ChaCha20;
use rogue_crypto::dh::{modp_pow, DhKeyPair, ELEMENT_LEN, EXPONENT_LEN, MODP_1024};
use rogue_crypto::hmac::{hmac_sha1, HmacSha1};
use rogue_crypto::sha1::Sha1;
use rogue_crypto::Rc4;

/// Naive HMAC-SHA1: pads assembled by hand, no midstates, one byte per
/// `update` call so even SHA-1's internal buffering is exercised on the
/// slowest path.
fn hmac_sha1_reference(key: &[u8], msg: &[u8]) -> [u8; 20] {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        let mut h = Sha1::new();
        for &b in key {
            h.update(&[b]);
        }
        k[..20].copy_from_slice(&h.finalize());
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha1::new();
    for &b in &k {
        inner.update(&[b ^ 0x36]);
    }
    for &b in msg {
        inner.update(&[b]);
    }
    let inner_digest = inner.finalize();
    let mut outer = Sha1::new();
    for &b in &k {
        outer.update(&[b ^ 0x5C]);
    }
    for &b in &inner_digest {
        outer.update(&[b]);
    }
    outer.finalize()
}

fn modp() -> BigUint {
    BigUint::from_be_bytes(MODP_1024)
}

/// p − 1, the one element besides 0 and 1 that `agree` must refuse.
fn modp_minus_one() -> Vec<u8> {
    let mut pm1 = MODP_1024.to_vec();
    pm1[ELEMENT_LEN - 1] &= 0xFE; // p is odd
    pm1
}

/// `base^exp mod p` through the general big integer.
fn pow_reference(base: &[u8], exp: &[u8]) -> Vec<u8> {
    BigUint::from_be_bytes(base)
        .pow_mod(&BigUint::from_be_bytes(exp), &modp())
        .to_be_bytes(ELEMENT_LEN)
}

/// Big-endian element bytes of a small value.
fn small(v: u8) -> [u8; ELEMENT_LEN] {
    let mut b = [0u8; ELEMENT_LEN];
    b[ELEMENT_LEN - 1] = v;
    b
}

/// Montgomery `modp_pow` == `BigUint::pow_mod` at the bases and
/// exponents where a windowed, reduced-once path could slip: zero and
/// one, the generator, p − 1, unreduced bases (p, 2¹⁰²⁴ − 1), empty and
/// zero-padded exponents, and all-ones exponents.
#[test]
fn montgomery_pow_matches_biguint_at_edge_cases() {
    let p_bytes: [u8; ELEMENT_LEN] = MODP_1024.try_into().unwrap();
    let pm1: [u8; ELEMENT_LEN] = modp_minus_one().try_into().unwrap();
    let bases = [
        small(0),
        small(1),
        small(2),
        pm1,
        p_bytes,
        [0xFF; ELEMENT_LEN],
    ];
    let exps: [&[u8]; 8] = [
        &[],
        &[0],
        &[1],
        &[0, 0, 0, 1],
        &[0x10],
        &[0xFF; EXPONENT_LEN],
        &[0xFF; ELEMENT_LEN],
        &pm1,
    ];
    for base in &bases {
        for exp in exps {
            assert_eq!(
                modp_pow(base, exp).to_vec(),
                pow_reference(base, exp),
                "base {:?} exp {:?}",
                BigUint::from_be_bytes(base),
                BigUint::from_be_bytes(exp)
            );
        }
    }
}

/// Montgomery `modp_pow` == `BigUint::pow_mod` for random bases below p
/// and random full 1024-bit exponents. A plain loop of 16 cases rather
/// than a 64-case proptest: the reference costs about 130 ms per
/// full-width exponent in a debug build.
#[test]
fn montgomery_pow_matches_biguint_full_exponents() {
    let mut rng = proptest::test_runner::Rng::deterministic("full_exponents");
    let mut cases = 0;
    while cases < 16 {
        let base = any::<[u8; ELEMENT_LEN]>().sample(&mut rng);
        let exp = any::<[u8; ELEMENT_LEN]>().sample(&mut rng);
        if BigUint::from_be_bytes(&base) >= modp() {
            continue;
        }
        assert_eq!(
            modp_pow(&base, &exp).to_vec(),
            pow_reference(&base, &exp),
            "case {cases}"
        );
        cases += 1;
    }
}

proptest! {
    /// Montgomery `modp_pow` == `BigUint::pow_mod` for random bases
    /// below p and random 256-bit exponents (the handshake's shape).
    #[test]
    fn montgomery_pow_matches_biguint_short_exponents(
        base in any::<[u8; ELEMENT_LEN]>(),
        exp in any::<[u8; EXPONENT_LEN]>(),
    ) {
        prop_assume!(BigUint::from_be_bytes(&base) < modp());
        prop_assert_eq!(modp_pow(&base, &exp).to_vec(), pow_reference(&base, &exp));
    }

    /// `generate` == `BigUint::pow_mod` of the generator 2 by the
    /// clamped exponent.
    #[test]
    fn generate_matches_biguint(random in any::<[u8; EXPONENT_LEN]>()) {
        let mut exp = random;
        exp[0] |= 0x80;
        prop_assert_eq!(DhKeyPair::generate(&random).public, pow_reference(&small(2), &exp));
    }

    /// Fermat: a^(p−1) = 1 for every nonzero a below the prime p.
    #[test]
    fn montgomery_pow_fermat(base in any::<[u8; ELEMENT_LEN]>()) {
        let a = BigUint::from_be_bytes(&base);
        prop_assume!(!a.is_zero() && a < modp());
        prop_assert_eq!(modp_pow(&base, &modp_minus_one()), small(1));
    }

    /// `agree` on attacker-chosen peer bytes: any length, the degenerate
    /// elements, values ≥ p, and 128 random bytes. It never panics,
    /// returns `None` exactly for a wrong length, 0, 1, p − 1 and values
    /// ≥ p, and otherwise yields the reference secret.
    #[test]
    fn agree_rejects_exactly_the_degenerate_peers(
        kind in 0u8..10,
        noise in any::<[u8; ELEMENT_LEN]>(),
        any_len in proptest::collection::vec(any::<u8>(), 0..300),
        random in any::<[u8; EXPONENT_LEN]>(),
    ) {
        let peer: Vec<u8> = match kind {
            0 => any_len,
            1 => small(0).to_vec(),
            2 => small(1).to_vec(),
            3 => modp_minus_one(),
            4 => MODP_1024.to_vec(),
            5 => {
                // Above p: p's ninth byte is 0xC9.
                let mut v = noise.to_vec();
                v[..16].fill(0xFF);
                v
            }
            _ => noise.to_vec(),
        };
        let v = BigUint::from_be_bytes(&peer);
        let degenerate = peer.len() != ELEMENT_LEN
            || v.is_zero()
            || v == BigUint::one()
            || peer == modp_minus_one()
            || v >= modp();
        let kp = DhKeyPair::generate(&random);
        let got = kp.agree(&peer);
        prop_assert_eq!(got.is_none(), degenerate, "peer {:?} len {}", v, peer.len());
        if let Some(secret) = got {
            // `generate` clamps the exponent's top bit.
            let mut exp = random;
            exp[0] |= 0x80;
            prop_assert_eq!(secret, pow_reference(&peer, &exp));
        }
    }

    /// Block-batched ChaCha20 == byte-at-a-time reference for arbitrary
    /// data, counters, and two-way splits, including the resumed state.
    #[test]
    fn chacha20_batched_matches_bytewise(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        counter in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..512),
        cut in any::<u16>(),
    ) {
        let cut = (cut as usize) % (data.len() + 1);
        let mut fast = data.clone();
        let mut slow = data.clone();
        let mut cf = ChaCha20::new(&key, &nonce, counter);
        let mut cs = ChaCha20::new(&key, &nonce, counter);
        let (fa, fb) = fast.split_at_mut(cut);
        cf.apply_keystream(fa);
        cf.apply_keystream(fb);
        let (sa, sb) = slow.split_at_mut(cut);
        cs.apply_keystream_bytewise(sa);
        cs.apply_keystream_bytewise(sb);
        prop_assert_eq!(&fast, &slow);
        // The partial-block resume buffer must agree too.
        let mut tf = [0u8; 3];
        let mut ts = [0u8; 3];
        cf.apply_keystream(&mut tf);
        cs.apply_keystream_bytewise(&mut ts);
        prop_assert_eq!(tf, ts);
    }

    /// Multi-block SHA-1 absorption == one byte per update, at any split.
    #[test]
    fn sha1_batched_matches_bytewise(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        cut in any::<u16>(),
    ) {
        let cut = (cut as usize) % (data.len() + 1);
        let mut fast = Sha1::new();
        fast.update(&data[..cut]);
        fast.update(&data[cut..]);
        let mut slow = Sha1::new();
        for &b in &data {
            slow.update(&[b]);
        }
        prop_assert_eq!(fast.finalize(), slow.finalize());
    }

    /// Midstate HMAC (and the streaming context) == the hand-built
    /// RFC 2104 reference, across key-size classes and message splits.
    #[test]
    fn hmac_midstate_matches_reference(
        key in proptest::collection::vec(any::<u8>(), 0..100),
        msg in proptest::collection::vec(any::<u8>(), 0..512),
        cut in any::<u16>(),
    ) {
        let expect = hmac_sha1_reference(&key, &msg);
        prop_assert_eq!(hmac_sha1(&key, &msg), expect);
        let pre = HmacSha1::new(&key);
        prop_assert_eq!(pre.mac(&msg), expect);
        let cut = (cut as usize) % (msg.len() + 1);
        let mut ctx = pre.begin();
        ctx.update(&msg[..cut]);
        ctx.update(&msg[cut..]);
        prop_assert_eq!(ctx.finalize(), expect);
    }

    /// Register-local RC4 keystream application == repeated `next_byte`,
    /// and `skip` == discarding that many output bytes.
    #[test]
    fn rc4_inplace_matches_next_byte(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        data in proptest::collection::vec(any::<u8>(), 0..512),
        skip in 0usize..300,
    ) {
        let mut fast = Rc4::new(&key);
        let mut slow = Rc4::new(&key);
        fast.skip(skip);
        for _ in 0..skip {
            slow.next_byte();
        }
        let mut batched = data.clone();
        fast.apply_keystream(&mut batched);
        let bytewise: Vec<u8> = data.iter().map(|b| b ^ slow.next_byte()).collect();
        prop_assert_eq!(batched, bytewise);
    }
}
