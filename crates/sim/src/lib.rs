//! # rogue-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate beneath every experiment in the
//! *Countering Rogues in Wireless Networks* reproduction. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time,
//! * [`EventQueue`] — a stable-ordered pending-event set: events scheduled
//!   for the same instant fire in scheduling order, which makes every run a
//!   pure function of its inputs,
//! * [`rng`] — a from-scratch SplitMix64 / xoshiro256\*\* PRNG family so
//!   experiments are bit-reproducible from a single master [`rng::Seed`]
//!   without depending on external RNG crates whose streams may change,
//! * [`trace`] — a lightweight event trace and counter/histogram recorder
//!   used by the experiment harness.
//!
//! Design rule (see DESIGN.md §5, revised by §15): one simulation world
//! dispatches events in one deterministic `(time, seq)` order;
//! parallelism happens *across* worlds (seeds, parameter points) in the
//! `rogue-core` experiment drivers, and *inside* a world only in the
//! opt-in burst executor, which runs node-local work of one instant on
//! the pool and commits every shared effect back in that same order.

pub mod profile;
pub mod queue;
pub mod rng;
pub mod time;
pub mod trace;

pub use queue::EventQueue;
pub use rng::{Seed, SimRng};
pub use time::{SimDuration, SimTime};
