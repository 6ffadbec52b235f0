//! Finite-field Diffie–Hellman key agreement.
//!
//! The VPN handshake (Section 5 of the paper) needs a fresh shared secret
//! per session so that a rogue gateway relaying packets learns nothing.
//! We use the classic 1024-bit MODP group (RFC 2409 "Oakley Group 2",
//! generator 2) — period-correct for a 2003 PPP-over-SSH deployment —
//! with 256-bit private exponents (standard short-exponent practice).
//!
//! Note the paper's crucial caveat (§5.2): DH alone is anonymous, so the
//! tunnel must *also* authenticate the endpoint against pre-established
//! credentials — otherwise the rogue AP can simply terminate the VPN
//! itself. `rogue-vpn` binds this exchange to a pre-shared key via HMAC,
//! and `rogue-vpn`'s tests include the MITM-without-auth failure case.
//!
//! Every VPN session runs two exponentiations per side, and E3, E5 and
//! E7 run hundreds of sessions, so the arithmetic is specialised to the
//! one modulus: an element is sixteen little-endian `u64` limbs, products
//! are Montgomery products (CIOS form, R = 2¹⁰²⁴) on the stack with no
//! allocation. `generate` and `agree` both consume their exponent in
//! fixed 4-bit windows over a 16-entry table of powers of the base (g = 2
//! or the peer's value). p, −p⁻¹ mod 2⁶⁴, R mod p and R² mod p are
//! derived once, by word arithmetic, behind a `OnceLock`. `agree`'s
//! checks on the peer value run on the limbs too.
//! [`crate::bigint::BigUint`] is the reference oracle:
//! `tests/crypto_equivalence.rs` holds [`modp_pow`] and `generate` to its
//! `pow_mod` byte for byte, and the known-answer test below pins the
//! handshake bytes it produced. Like the rest of the crate this is **not
//! constant-time**: the window table is indexed by secret exponent bits.

use std::sync::OnceLock;

/// RFC 2409 Oakley Group 2: 1024-bit safe prime, generator 2.
pub const MODP_1024: &[u8] = &[
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xC9, 0x0F, 0xDA, 0xA2, 0x21, 0x68, 0xC2, 0x34,
    0xC4, 0xC6, 0x62, 0x8B, 0x80, 0xDC, 0x1C, 0xD1, 0x29, 0x02, 0x4E, 0x08, 0x8A, 0x67, 0xCC, 0x74,
    0x02, 0x0B, 0xBE, 0xA6, 0x3B, 0x13, 0x9B, 0x22, 0x51, 0x4A, 0x08, 0x79, 0x8E, 0x34, 0x04, 0xDD,
    0xEF, 0x95, 0x19, 0xB3, 0xCD, 0x3A, 0x43, 0x1B, 0x30, 0x2B, 0x0A, 0x6D, 0xF2, 0x5F, 0x14, 0x37,
    0x4F, 0xE1, 0x35, 0x6D, 0x6D, 0x51, 0xC2, 0x45, 0xE4, 0x85, 0xB5, 0x76, 0x62, 0x5E, 0x7E, 0xC6,
    0xF4, 0x4C, 0x42, 0xE9, 0xA6, 0x37, 0xED, 0x6B, 0x0B, 0xFF, 0x5C, 0xB6, 0xF4, 0x06, 0xB7, 0xED,
    0xEE, 0x38, 0x6B, 0xFB, 0x5A, 0x89, 0x9F, 0xA5, 0xAE, 0x9F, 0x24, 0x11, 0x7C, 0x4B, 0x1F, 0xE6,
    0x49, 0x28, 0x66, 0x51, 0xEC, 0xE6, 0x53, 0x81, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
];

/// Byte length of a group element on the wire.
pub const ELEMENT_LEN: usize = 128;

/// Private exponent length in bytes (256-bit short exponents).
pub const EXPONENT_LEN: usize = 32;

/// 64-bit limbs per group element.
const LIMBS: usize = ELEMENT_LEN / 8;

/// A group element (or Montgomery residue): little-endian 64-bit limbs.
type Limbs = [u64; LIMBS];

/// 1 as limbs; a Montgomery product by it leaves Montgomery form.
const ONE: Limbs = small_limbs(1);

/// The group's generator, 2.
const GENERATOR: Limbs = small_limbs(2);

const fn small_limbs(v: u64) -> Limbs {
    let mut limbs = [0u64; LIMBS];
    limbs[0] = v;
    limbs
}

/// One side's ephemeral DH keypair.
pub struct DhKeyPair {
    /// Clamped private exponent, big-endian.
    private: [u8; EXPONENT_LEN],
    /// Public value `g^x mod p`, serialized to [`ELEMENT_LEN`] bytes.
    pub public: Vec<u8>,
}

impl DhKeyPair {
    /// Generate a keypair from caller-supplied randomness (the simulator's
    /// deterministic RNG provides it).
    pub fn generate(random: &[u8; EXPONENT_LEN]) -> DhKeyPair {
        let mut private = *random;
        // Clamp: force the top bit so the exponent has full length, and
        // avoid trivial exponents.
        private[0] |= 0x80;
        DhKeyPair {
            private,
            public: limbs_to_be(&pow(&GENERATOR, &private, modulus())).to_vec(),
        }
    }

    /// Combine with the peer's public value, producing the shared secret
    /// (fixed [`ELEMENT_LEN`] bytes). Returns `None` for degenerate peer
    /// values (0, 1, p-1, or ≥ p) — accepting those would let an in-path
    /// attacker force a known secret.
    pub fn agree(&self, peer_public: &[u8]) -> Option<Vec<u8>> {
        let peer = limbs_from_be(peer_public.try_into().ok()?);
        let m = modulus();
        let mut pm1 = m.p;
        pm1[0] -= 1; // p is odd
        let at_most_one = peer[0] <= 1 && peer[1..].iter().all(|&l| l == 0);
        if at_most_one || peer == pm1 || !less_than(&peer, &m.p) {
            return None;
        }
        Some(limbs_to_be(&pow(&peer, &self.private, m)).to_vec())
    }
}

/// `base^exp mod p` over the MODP-1024 prime: `base` is any 1024-bit
/// big-endian value (it is reduced mod p), `exp` big-endian bytes of any
/// length. The exponentiation [`DhKeyPair`] runs, exposed so that tests
/// can hold it to the [`crate::bigint::BigUint`] reference.
pub fn modp_pow(base: &[u8; ELEMENT_LEN], exp: &[u8]) -> [u8; ELEMENT_LEN] {
    limbs_to_be(&pow(&limbs_from_be(base), exp, modulus()))
}

/// The modulus and its Montgomery constants (R = 2¹⁰²⁴).
struct Modulus {
    p: Limbs,
    /// −p⁻¹ mod 2⁶⁴.
    neg_inv: u64,
    /// R mod p: 1 in Montgomery form.
    one: Limbs,
    /// R² mod p: one Montgomery product by it maps x to x·R mod p.
    r2: Limbs,
}

/// The MODP-1024 constants, derived once by word arithmetic.
fn modulus() -> &'static Modulus {
    static MODULUS: OnceLock<Modulus> = OnceLock::new();
    MODULUS.get_or_init(|| {
        let p = limbs_from_be(MODP_1024.try_into().expect("128-byte modulus"));
        // Newton's iteration doubles the correct low bits of p⁻¹ mod 2⁶⁴
        // per step (p is odd): 1 → 64 bits in six steps.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(p[0].wrapping_mul(inv)));
        }
        // p's top bit is set, so R mod p = R − p, which 0 − p wraps to.
        // 1024 modular doublings then multiply it by R.
        let mut one = [0u64; LIMBS];
        sub_assign(&mut one, &p);
        let mut r2 = one;
        for _ in 0..ELEMENT_LEN * 8 {
            let carry = r2[LIMBS - 1] >> 63;
            for i in (1..LIMBS).rev() {
                r2[i] = (r2[i] << 1) | (r2[i - 1] >> 63);
            }
            r2[0] <<= 1;
            if carry == 1 || !less_than(&r2, &p) {
                sub_assign(&mut r2, &p);
            }
        }
        Modulus {
            p,
            neg_inv: inv.wrapping_neg(),
            one,
            r2,
        }
    })
}

/// `base^exp mod p` with a fixed 4-bit window: a table of base⁰..base¹⁵
/// in Montgomery form, then four squarings and one table product per
/// exponent nibble. Not constant-time: the table index is exponent bits
/// and zero nibbles skip their product.
fn pow(base: &Limbs, exp: &[u8], m: &Modulus) -> Limbs {
    let mut table = [[0u64; LIMBS]; 16];
    table[0] = m.one;
    table[1] = mont_mul(base, &m.r2, m);
    for k in 2..16 {
        table[k] = mont_mul(&table[k - 1], &table[1], m);
    }
    let mut acc = table[0];
    let mut started = false;
    for nibble in exp.iter().flat_map(|&b| [b >> 4, b & 0x0F]) {
        if started {
            for _ in 0..4 {
                acc = mont_mul(&acc, &acc, m);
            }
            if nibble != 0 {
                acc = mont_mul(&acc, &table[nibble as usize], m);
            }
        } else if nibble != 0 {
            // Leading zero nibbles would only square R mod p.
            acc = table[nibble as usize];
            started = true;
        }
    }
    mont_mul(&acc, &ONE, m)
}

/// Montgomery product a·b·R⁻¹ mod p, coarsely integrated operand
/// scanning (CIOS): each limb of `b` is multiplied in and one limb is
/// reduced away per outer step. `a` may be any value below R but `b`
/// must be below p: then a·b < R·p, the running value stays below 2p,
/// and one conditional subtraction leaves the result fully reduced.
fn mont_mul(a: &Limbs, b: &Limbs, m: &Modulus) -> Limbs {
    let p = &m.p;
    debug_assert!(less_than(b, p), "mont_mul needs b < p");
    let mut t = [0u64; LIMBS + 2];
    for &bi in b {
        let mut carry = 0u64;
        for j in 0..LIMBS {
            let s = t[j] as u128 + a[j] as u128 * bi as u128 + carry as u128;
            t[j] = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = t[LIMBS] as u128 + carry as u128;
        t[LIMBS] = s as u64;
        t[LIMBS + 1] = (s >> 64) as u64;

        // Add q·p with q chosen so the low limb becomes zero, then shift
        // down one limb.
        let q = t[0].wrapping_mul(m.neg_inv);
        let s = t[0] as u128 + q as u128 * p[0] as u128;
        let mut carry = (s >> 64) as u64;
        for j in 1..LIMBS {
            let s = t[j] as u128 + q as u128 * p[j] as u128 + carry as u128;
            t[j - 1] = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = t[LIMBS] as u128 + carry as u128;
        t[LIMBS - 1] = s as u64;
        t[LIMBS] = t[LIMBS + 1] + (s >> 64) as u64;
    }
    let mut out = [0u64; LIMBS];
    out.copy_from_slice(&t[..LIMBS]);
    if t[LIMBS] != 0 || !less_than(&out, p) {
        sub_assign(&mut out, p);
    }
    out
}

/// `a < b`.
fn less_than(a: &Limbs, b: &Limbs) -> bool {
    a.iter().rev().lt(b.iter().rev())
}

/// `a -= b` modulo 2¹⁰²⁴.
fn sub_assign(a: &mut Limbs, b: &Limbs) {
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        *x = d;
        borrow = b1 || b2;
    }
}

fn limbs_from_be(bytes: &[u8; ELEMENT_LEN]) -> Limbs {
    let mut limbs = [0u64; LIMBS];
    for (limb, chunk) in limbs.iter_mut().zip(bytes.rchunks_exact(8)) {
        *limb = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    limbs
}

fn limbs_to_be(limbs: &Limbs) -> [u8; ELEMENT_LEN] {
    let mut bytes = [0u8; ELEMENT_LEN];
    for (chunk, limb) in bytes.rchunks_exact_mut(8).zip(limbs) {
        chunk.copy_from_slice(&limb.to_be_bytes());
    }
    bytes
}

impl std::fmt::Debug for DhKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the private exponent.
        write!(f, "DhKeyPair {{ public: {} bytes }}", self.public.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::BigUint;

    fn keypair(tag: u8) -> DhKeyPair {
        let mut r = [tag; EXPONENT_LEN];
        r[31] = tag.wrapping_add(1);
        DhKeyPair::generate(&r)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Known answers recorded from the general big-integer `pow_mod`
    /// before the Montgomery path replaced it: the handshake bytes of
    /// every VPN session, and so every golden report, depend on them.
    #[test]
    fn known_answer_public_values_and_secret() {
        let ra: [u8; EXPONENT_LEN] = std::array::from_fn(|i| i as u8);
        let rb: [u8; EXPONENT_LEN] = std::array::from_fn(|i| 0xFF - (i as u8) * 7);
        let a = DhKeyPair::generate(&ra);
        let b = DhKeyPair::generate(&rb);
        assert_eq!(
            hex(&a.public),
            "ff2f22817ed9fcb52eb84299e01daf054628e462504ec4f57dd646cb77314a8c\
             5d0f0ed2d588085a49c0de73e8c64db482e2b3e7f21ebcb9768873857f61963a\
             3ce9fd8092c1dee1486e3a62162a2d8d7bfc481836b10c8694220dc2bb5dc434\
             9feb44b8fadba98f56d63a6ed248a3acfc2eebad12106bd3e166d91ab3f93cee"
        );
        assert_eq!(
            hex(&b.public),
            "af6f32a67de01b37e1022d51728dcd87945b32c8bf61dd43b38a3e31dfdbd160\
             6e2ba748d876279b952150577595de74c8602b29ba1b6d3c0da1cb5f842f0110\
             6acb9ed1ea25030891ddad4e7bcd1981f8fbbe7a936f08a4c0e8dad60f96e87d\
             942fd92e1634bdb65f80d43bd35455132e81d7c27627272a9fd954348c2dd986"
        );
        let secret = a.agree(&b.public).expect("valid peer");
        assert_eq!(
            hex(&secret),
            "ce23b4f3b718b12a8b58140f2734a881986d335eade48287f4fb0163f8304438\
             b7091e7874e97ee1405e59510d8bd0fb9e2b379e9c3076c95405d4fd2c643098\
             ad587a95c516fa47b7e9f6d58f28055da50281b6d7692f15bf3702370d584733\
             cd8a9e55b1fcaafd7d1f7ca1f81cbae1b24e37a8e634e4761a8757378b0bf8f2"
        );
        assert_eq!(b.agree(&a.public), Some(secret));
    }

    #[test]
    fn agreement_matches() {
        let alice = keypair(0xA1);
        let bob = keypair(0xB2);
        let s1 = alice.agree(&bob.public).expect("valid peer");
        let s2 = bob.agree(&alice.public).expect("valid peer");
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), ELEMENT_LEN);
    }

    #[test]
    fn different_peers_different_secrets() {
        let alice = keypair(1);
        let bob = keypair(2);
        let carol = keypair(3);
        let ab = alice.agree(&bob.public).unwrap();
        let ac = alice.agree(&carol.public).unwrap();
        assert_ne!(ab, ac);
    }

    #[test]
    fn rejects_degenerate_public_values() {
        let alice = keypair(9);
        let zero = vec![0u8; ELEMENT_LEN];
        assert!(alice.agree(&zero).is_none(), "0 must be rejected");
        let mut one = vec![0u8; ELEMENT_LEN];
        one[ELEMENT_LEN - 1] = 1;
        assert!(alice.agree(&one).is_none(), "1 must be rejected");
        let p = MODP_1024.to_vec();
        assert!(alice.agree(&p).is_none(), "p must be rejected");
        let mut pm1 = MODP_1024.to_vec();
        pm1[ELEMENT_LEN - 1] &= 0xFE;
        assert!(alice.agree(&pm1).is_none(), "p-1 must be rejected");
        assert!(alice.agree(&[1, 2, 3]).is_none(), "short input rejected");
    }

    #[test]
    fn public_value_is_in_range() {
        let kp = keypair(0x55);
        let p = BigUint::from_be_bytes(MODP_1024);
        let pubv = BigUint::from_be_bytes(&kp.public);
        assert!(pubv < p);
        assert!(!pubv.is_zero());
    }

    #[test]
    fn deterministic_from_randomness() {
        let a = DhKeyPair::generate(&[7u8; EXPONENT_LEN]);
        let b = DhKeyPair::generate(&[7u8; EXPONENT_LEN]);
        assert_eq!(a.public, b.public);
    }

    #[test]
    fn debug_hides_private_key() {
        let kp = keypair(4);
        assert!(!format!("{kp:?}").contains("private"));
    }
}
