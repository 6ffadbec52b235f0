//! The medium's retention rule, checked against a brute-force model.
//!
//! `Medium::begin_tx` retires completed transmissions that can no
//! longer overlap anything. The rule: after a `begin_tx` at `now`, the
//! retained records are exactly the in-flight transmissions plus the
//! completed ones whose `end` lies strictly after the horizon, where the
//! horizon is the earliest in-flight start (or `now` when the air is
//! clear). A completed record ending exactly at the horizon can never
//! overlap again and must be gone.
//!
//! The sparse/dense equivalence suite cannot see this rule (both modes
//! retire through the same code), so this suite drives random
//! overlapping schedules and compares `tx_backlog()` with the model
//! after every `begin_tx`. Completions land exactly at their end time
//! and the clock is often advanced to exactly a pending end, so
//! `end == horizon` ties occur constantly.

use proptest::prelude::*;
use rogue_phy::{Bitrate, Medium, MediumParams, Pos, TxHandle};
use rogue_sim::{Seed, SimTime};

/// A transmission as the model tracks it.
struct Tracked {
    start: SimTime,
    end: SimTime,
    completed: bool,
}

/// The number of records the retention rule keeps after a `begin_tx`
/// at `now`. `txs` holds every transmission ever begun: the clock never
/// runs backwards, so the horizon never does either, and a record
/// retired earlier (completed, ending at or before an earlier horizon)
/// is excluded here too.
fn expected_backlog(txs: &[Tracked], now: SimTime) -> usize {
    let horizon = txs
        .iter()
        .filter(|t| !t.completed)
        .map(|t| t.start)
        .min()
        .unwrap_or(now);
    txs.iter()
        .filter(|t| !t.completed || t.end > horizon)
        .count()
}

/// Drive one schedule; `Err` names the first step where the medium and
/// the model disagree.
fn run(radios: usize, ops: &[u64], force_dense: bool) -> Result<(), String> {
    let mut m = Medium::new(MediumParams::default(), Seed(5));
    m.force_dense(force_dense);
    let ids: Vec<_> = (0..radios)
        .map(|i| m.add_radio(Pos::new(i as f64 * 15.0, 0.0), [1, 3, 6][i % 3], 15.0))
        .collect();
    let rates = [Bitrate::B1, Bitrate::B2, Bitrate::B5_5, Bitrate::B11];
    let mut model: Vec<Tracked> = Vec::new();
    // In-flight frames: (end, index into `model`, handle).
    let mut pending: Vec<(SimTime, usize, TxHandle)> = Vec::new();
    let mut t = SimTime::ZERO;

    let earliest = |pending: &[(SimTime, usize, TxHandle)]| {
        pending
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| (p.0, p.1))
            .map(|(i, _)| i)
    };

    for (step, &w) in ops.iter().enumerate() {
        if w % 3 == 0 {
            // Complete the earliest-ending frame at exactly its end.
            if let Some(i) = earliest(&pending) {
                let (end, k, h) = pending.remove(i);
                t = end;
                m.complete_tx(end, h);
                model[k].completed = true;
            }
            continue;
        }
        let src = ids[(w >> 8) as usize % ids.len()];
        let rate = rates[(w >> 16) as usize % rates.len()];
        let len = 10 + ((w >> 24) % 300) as usize;
        let (h, end) = m.begin_tx(t, src, bytes::Bytes::from(vec![0u8; len]), rate);
        pending.push((end, model.len(), h));
        model.push(Tracked {
            start: t,
            end,
            completed: false,
        });
        let (got, want) = (m.tx_backlog(), expected_backlog(&model, t));
        if got != want {
            return Err(format!(
                "step {step}: tx_backlog() = {got}, model expects {want}"
            ));
        }
        // Advance the clock by 0–300 µs, never past the earliest
        // pending end (completions happen in time order), so the clock
        // often lands exactly on an end.
        let next = SimTime(t.as_nanos() + (w >> 40) % 300_000);
        t = match earliest(&pending) {
            Some(i) => next.min(pending[i].0),
            None => next,
        };
    }
    Ok(())
}

proptest! {
    #[test]
    fn backlog_matches_the_brute_force_retention_rule(
        radios in 2usize..10,
        ops in proptest::collection::vec(any::<u64>(), 0..120),
    ) {
        prop_assert_eq!(run(radios, &ops, false), Ok(()));
        prop_assert_eq!(run(radios, &ops, true), Ok(()));
    }
}
