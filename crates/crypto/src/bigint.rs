//! Minimal variable-length unsigned big integer: the reference oracle
//! for [`crate::dh`].
//!
//! [`crate::dh`] runs its exponentiations on fixed-width Montgomery limbs
//! specialised to the MODP-1024 prime; this type is the general, simple
//! formulation those are checked against (`tests/crypto_equivalence.rs`
//! and the `vpn_throughput` bench's A/B leg). It supports comparison,
//! multiplication, division with remainder (Knuth Algorithm D over
//! base-2³² digits) and left-to-right binary modular exponentiation, and
//! allocates freely: clarity wins over speed here.
//!
//! Values are little-endian vectors of u32 digits with no trailing zeros
//! (canonical form).

/// Arbitrary-size unsigned integer, little-endian base-2³² digits.
#[derive(Clone, PartialEq, Eq)]
pub struct BigUint {
    digits: Vec<u32>, // canonical: no trailing zero digits
}

impl BigUint {
    /// Zero.
    pub fn zero() -> BigUint {
        BigUint { digits: Vec::new() }
    }

    /// One.
    pub fn one() -> BigUint {
        BigUint::from_u64(1)
    }

    /// From a machine word.
    pub fn from_u64(v: u64) -> BigUint {
        let mut n = BigUint {
            digits: vec![v as u32, (v >> 32) as u32],
        };
        n.normalize();
        n
    }

    /// Parse big-endian bytes (as conventionally printed in RFCs).
    pub fn from_be_bytes(bytes: &[u8]) -> BigUint {
        let mut digits = vec![0u32; bytes.len().div_ceil(4)];
        for (i, &b) in bytes.iter().rev().enumerate() {
            digits[i / 4] |= (b as u32) << ((i % 4) * 8);
        }
        let mut n = BigUint { digits };
        n.normalize();
        n
    }

    /// Serialize to exactly `len` big-endian bytes (left-padded with
    /// zeros). Panics if the value does not fit.
    pub fn to_be_bytes(&self, len: usize) -> Vec<u8> {
        assert!(
            self.bit_len().div_ceil(8) <= len,
            "value does not fit in {len} bytes"
        );
        let mut out = vec![0u8; len];
        for i in 0..len {
            let digit = i / 4;
            if digit >= self.digits.len() {
                break;
            }
            out[len - 1 - i] = ((self.digits[digit] >> ((i % 4) * 8)) & 0xFF) as u8;
        }
        out
    }

    fn normalize(&mut self) {
        while self.digits.last() == Some(&0) {
            self.digits.pop();
        }
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.digits.is_empty()
    }

    /// Index of highest set bit plus one (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.digits.last() {
            None => 0,
            Some(&top) => (self.digits.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// Test bit `i`.
    pub fn bit(&self, i: usize) -> bool {
        let d = i / 32;
        d < self.digits.len() && (self.digits[d] >> (i % 32)) & 1 == 1
    }

    /// Schoolbook product.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut prod = vec![0u32; self.digits.len() + other.digits.len()];
        for (i, &a) in self.digits.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry: u64 = 0;
            for (j, &b) in other.digits.iter().enumerate() {
                let cur = prod[i + j] as u64 + a as u64 * b as u64 + carry;
                prod[i + j] = cur as u32;
                carry = cur >> 32;
            }
            prod[i + other.digits.len()] = carry as u32;
        }
        let mut n = BigUint { digits: prod };
        n.normalize();
        n
    }

    /// Quotient and remainder. Panics on division by zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.digits.len() == 1 {
            let d = divisor.digits[0] as u64;
            let mut q = vec![0u32; self.digits.len()];
            let mut rem: u64 = 0;
            for i in (0..self.digits.len()).rev() {
                let cur = (rem << 32) | self.digits[i] as u64;
                q[i] = (cur / d) as u32;
                rem = cur % d;
            }
            let mut qn = BigUint { digits: q };
            qn.normalize();
            return (qn, BigUint::from_u64(rem));
        }
        self.div_rem_knuth(divisor)
    }

    /// Knuth TAOCP vol. 2, Algorithm D (multi-digit division).
    fn div_rem_knuth(&self, v: &BigUint) -> (BigUint, BigUint) {
        let n = v.digits.len();
        let m = self.digits.len() - n;
        // D1: normalize so the top divisor digit has its high bit set.
        let shift = v.digits[n - 1].leading_zeros();
        let mut vn = shl_bits(&v.digits, shift);
        vn.truncate(n); // shifting cannot overflow the top digit
        let mut un = shl_bits(&self.digits, shift);
        un.resize(self.digits.len() + 1, 0);

        let mut q = vec![0u32; m + 1];
        // D2..D7: main loop.
        for j in (0..=m).rev() {
            // D3: estimate quotient digit.
            let top = ((un[j + n] as u64) << 32) | un[j + n - 1] as u64;
            let mut qhat = top / vn[n - 1] as u64;
            let mut rhat = top % vn[n - 1] as u64;
            while qhat >= 1u64 << 32
                || qhat * vn[n - 2] as u64 > ((rhat << 32) | un[j + n - 2] as u64)
            {
                qhat -= 1;
                rhat += vn[n - 1] as u64;
                if rhat >= 1u64 << 32 {
                    break;
                }
            }
            // D4: multiply and subtract.
            let mut borrow: i64 = 0;
            let mut carry: u64 = 0;
            for i in 0..n {
                let p = qhat * vn[i] as u64 + carry;
                carry = p >> 32;
                let t = un[j + i] as i64 - borrow - (p as u32) as i64;
                un[j + i] = t as u32;
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = un[j + n] as i64 - borrow - carry as i64;
            un[j + n] = t as u32;
            // D5/D6: if we subtracted too much, add back.
            if t < 0 {
                qhat -= 1;
                let mut carry: u64 = 0;
                for i in 0..n {
                    let s = un[j + i] as u64 + vn[i] as u64 + carry;
                    un[j + i] = s as u32;
                    carry = s >> 32;
                }
                un[j + n] = (un[j + n] as u64).wrapping_add(carry) as u32;
            }
            q[j] = qhat as u32;
        }
        // D8: denormalize remainder.
        let mut rem_digits = shr_bits(&un[..n], shift);
        rem_digits.truncate(n);
        let mut qn = BigUint { digits: q };
        qn.normalize();
        let mut rn = BigUint { digits: rem_digits };
        rn.normalize();
        (qn, rn)
    }

    /// `self mod m`.
    pub fn mod_reduce(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// `(self * other) mod m`. Inputs need not be pre-reduced.
    pub fn mul_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).mod_reduce(m)
    }

    /// Modular exponentiation `self^exp mod m` (left-to-right binary).
    pub fn pow_mod(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modulus must be nonzero");
        let base = self.mod_reduce(m);
        let mut result = BigUint::one();
        result = result.mod_reduce(m); // handles m == 1
        for i in (0..exp.bit_len()).rev() {
            result = result.mul_mod(&result, m);
            if exp.bit(i) {
                result = result.mul_mod(&base, m);
            }
        }
        result
    }
}

/// Shift a digit slice left by `shift` bits (0..32), growing by one digit.
fn shl_bits(digits: &[u32], shift: u32) -> Vec<u32> {
    let mut out = vec![0u32; digits.len() + 1];
    if shift == 0 {
        out[..digits.len()].copy_from_slice(digits);
        return out;
    }
    for (i, &d) in digits.iter().enumerate() {
        out[i] |= d << shift;
        out[i + 1] = d >> (32 - shift);
    }
    out
}

/// Shift a digit slice right by `shift` bits (0..32).
fn shr_bits(digits: &[u32], shift: u32) -> Vec<u32> {
    if shift == 0 {
        return digits.to_vec();
    }
    let mut out = vec![0u32; digits.len()];
    for i in 0..digits.len() {
        out[i] = digits[i] >> shift;
        if i + 1 < digits.len() {
            out[i] |= digits[i + 1] << (32 - shift);
        }
    }
    out
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.digits
            .len()
            .cmp(&other.digits.len())
            .then_with(|| self.digits.iter().rev().cmp(other.digits.iter().rev()))
    }
}

impl std::fmt::Debug for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            return write!(f, "0x0");
        }
        write!(f, "0x")?;
        for (i, d) in self.digits.iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{d:x}")?;
            } else {
                write!(f, "{d:08x}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip() {
        let v = BigUint::from_be_bytes(&[0x12, 0x34, 0x56, 0x78, 0x9a]);
        assert_eq!(v.to_be_bytes(5), vec![0x12, 0x34, 0x56, 0x78, 0x9a]);
        assert_eq!(v.to_be_bytes(7), vec![0, 0, 0x12, 0x34, 0x56, 0x78, 0x9a]);
        assert_eq!(v.bit_len(), 37);
    }

    #[test]
    fn normalization_strips_leading_zeros() {
        let v = BigUint::from_be_bytes(&[0, 0, 0, 1]);
        assert_eq!(v, BigUint::one());
        assert_eq!(BigUint::from_be_bytes(&[0, 0]), BigUint::zero());
    }

    #[test]
    fn small_mul_and_div() {
        let a = BigUint::from_u64(0xFFFF_FFFF_FFFF_FFFF);
        let b = BigUint::from_u64(0xFFFF_FFFF_FFFF_FFFF);
        let p = a.mul(&b);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(p.bit_len(), 128);
        let (q, r) = p.div_rem(&a);
        assert_eq!(q, a);
        assert_eq!(r, BigUint::zero());
    }

    #[test]
    fn div_rem_invariant_random() {
        // Deterministic pseudo-random cross-check of a = q*b + r, r < b.
        let mut x: u64 = 0x1234_5678_9abc_def0;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200 {
            let mut abytes = vec![0u8; (next() % 40 + 1) as usize];
            for b in &mut abytes {
                *b = next() as u8;
            }
            let mut bbytes = vec![0u8; (next() % 20 + 1) as usize];
            for b in &mut bbytes {
                *b = next() as u8;
            }
            let a = BigUint::from_be_bytes(&abytes);
            let b = BigUint::from_be_bytes(&bbytes);
            if b.is_zero() {
                continue;
            }
            let (q, r) = a.div_rem(&b);
            assert!(r < b, "remainder not reduced");
            let back = q.mul(&b);
            // back + r == a  (verify via byte serialization after add)
            let sum = add(&back, &r);
            assert_eq!(sum, a, "a != q*b + r");
        }
    }

    fn add(a: &BigUint, b: &BigUint) -> BigUint {
        let n = a.digits.len().max(b.digits.len()) + 1;
        let mut out = vec![0u32; n];
        let mut carry = 0u64;
        for (i, slot) in out.iter_mut().enumerate() {
            let da = *a.digits.get(i).unwrap_or(&0) as u64;
            let db = *b.digits.get(i).unwrap_or(&0) as u64;
            let s = da + db + carry;
            *slot = s as u32;
            carry = s >> 32;
        }
        let mut r = BigUint { digits: out };
        r.normalize();
        r
    }

    #[test]
    fn small_pow_mod_matches_u128() {
        let m = 4_294_967_291u64; // largest 32-bit prime
        let cases = [(2u64, 10u64), (3, 1000), (12345, 67891), (m - 1, 2)];
        for (b, e) in cases {
            let mut want = 1u128;
            let mut base = b as u128 % m as u128;
            let mut exp = e;
            while exp > 0 {
                if exp & 1 == 1 {
                    want = want * base % m as u128;
                }
                base = base * base % m as u128;
                exp >>= 1;
            }
            let got = BigUint::from_u64(b).pow_mod(&BigUint::from_u64(e), &BigUint::from_u64(m));
            assert_eq!(got, BigUint::from_u64(want as u64), "{b}^{e} mod {m}");
        }
    }

    #[test]
    fn fermat_little_theorem() {
        // p = 2^61 - 1 (Mersenne prime): a^(p-1) = 1 mod p.
        let p = BigUint::from_u64((1u64 << 61) - 1);
        let pm1 = BigUint::from_u64((1u64 << 61) - 2);
        for a in [2u64, 3, 65537, 1_234_567_891] {
            let r = BigUint::from_u64(a).pow_mod(&pm1, &p);
            assert_eq!(r, BigUint::one(), "a={a}");
        }
    }

    #[test]
    fn pow_mod_identities() {
        let m = BigUint::from_u64(97);
        let a = BigUint::from_u64(5);
        assert_eq!(a.pow_mod(&BigUint::zero(), &m), BigUint::one());
        assert_eq!(a.pow_mod(&BigUint::one(), &m), BigUint::from_u64(5));
        assert_eq!(
            BigUint::zero().pow_mod(&BigUint::from_u64(5), &m),
            BigUint::zero()
        );
        // Modulus one: everything is zero.
        assert_eq!(
            a.pow_mod(&BigUint::from_u64(3), &BigUint::one()),
            BigUint::zero()
        );
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u64(6);
        let c = BigUint::from_be_bytes(&[1, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(a < b);
        assert!(b > a);
        assert!(b < c);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn mul_mod_commutes_and_reduces() {
        let m = BigUint::from_be_bytes(&[0xC3; 32]);
        let a = BigUint::from_be_bytes(&[0x5A; 24]);
        let b = BigUint::from_be_bytes(&[0x77; 28]);
        let ab = a.mul_mod(&b, &m);
        let ba = b.mul_mod(&a, &m);
        assert_eq!(ab, ba);
        assert!(ab < m);
    }

    #[test]
    fn debug_renders_hex() {
        assert_eq!(
            format!("{:?}", BigUint::from_u64(0xdead_beef)),
            "0xdeadbeef"
        );
        assert_eq!(format!("{:?}", BigUint::zero()), "0x0");
    }
}
