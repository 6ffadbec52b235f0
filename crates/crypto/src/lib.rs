//! # rogue-crypto — from-scratch primitives for the reproduction
//!
//! *Countering Rogues in Wireless Networks* (ICPP 2003) rests on a handful
//! of cryptographic facts: WEP's RC4 keystream is breakable from passively
//! captured frames (the paper's attacker "retrieved the WEP key via
//! Airsnort"), MD5 checksums on a download page authenticate nothing when
//! the page itself can be rewritten in flight, and an end-to-end
//! authenticated tunnel defeats the rewrite entirely. To reproduce those
//! facts honestly — rather than flagging "key cracked" by fiat — this crate
//! implements every primitive from scratch:
//!
//! * [`rc4`] — the RC4 stream cipher (KSA + PRGA),
//! * [`mod@crc32`] — IEEE CRC-32, used as WEP's (linear, forgeable) ICV,
//! * [`wep`] — WEP encapsulation: IV ∥ keyid ∥ RC4(payload ∥ ICV),
//! * [`fms`] — the Fluhrer–Mantin–Shamir weak-IV key-recovery attack, the
//!   mathematics behind Airsnort (paper refs \[3\] and \[11\]),
//! * [`mod@md5`] — RFC 1321, for the download-page MD5SUMs of Section 4.1,
//! * [`mod@sha1`] + [`hmac`] — tunnel integrity and key derivation,
//! * [`chacha20`] — the VPN record cipher (a modern stand-in for the
//!   paper's SSH transport cipher; any strong stream cipher preserves the
//!   argument),
//! * [`dh`] — finite-field Diffie–Hellman over the RFC 2409 Group 2
//!   modulus, on fixed-width Montgomery limbs,
//! * [`bigint`] — a general big integer, kept as the reference oracle
//!   the `dh` arithmetic is tested against.
//!
//! **Not constant-time, not for production use** — this is a faithful
//! simulation substrate, including WEP precisely *because* it is broken.

pub mod bigint;
pub mod chacha20;
pub mod crc32;
pub mod dh;
pub mod fms;
pub mod hmac;
pub mod md5;
pub mod rc4;
pub mod sha1;
pub mod wep;

pub use crc32::crc32;
pub use md5::{md5, md5_hex};
pub use rc4::Rc4;
pub use sha1::sha1;
