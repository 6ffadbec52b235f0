//! Always-on cycle profiler for the event hot path.
//!
//! The dispatch loop needs to know where its microseconds go — per event
//! kind and per phase (queue ops, medium plan/commit, netstack delivery)
//! — without slowing itself down enough to distort the answer. The
//! design:
//!
//! * [`now`] reads the TSC (`rdtsc` on x86_64, `cntvct` on aarch64) —
//!   a handful of cycles, no syscall. Other targets fall back to a
//!   monotonic [`std::time::Instant`] anchored at first use.
//! * Spans are accumulated into fixed arrays indexed by [`Phase`] — one
//!   add + one increment per probe, no branching on labels.
//! * Cycle→nanosecond conversion is *calibrated at snapshot time* from
//!   an `Instant`/counter pair recorded at construction, so the profiler
//!   itself never calls into the OS on the hot path.
//! * The profiler measures its own probe cost at construction (a tight
//!   loop of paired reads) and reports estimated total overhead with
//!   every snapshot, so the ≤ 2 % overhead budget is *checked*, not
//!   assumed.
//!
//! Profiler output is wall-clock and therefore nondeterministic; it is
//! surfaced only through `sim.prof.*` metrics and bench JSON breakdowns,
//! which are never rendered into golden report tables.

use std::time::Instant;

/// Phases of one event dispatch, in the order they appear in the loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Queue pop / peek / merge work.
    QueuePop = 0,
    /// Scheduling follow-up events (queue inserts, cancels).
    QueueSchedule = 1,
    /// `Medium::begin_tx` — power sampling, audible-row builds and
    /// retirement, run from the op barrier.
    MediumBegin = 2,
    /// `Medium::plan_complete` — SINR/interference planning.
    MediumPlan = 3,
    /// `Medium::commit_complete` / `complete_tx` — state mutation.
    MediumCommit = 4,
    /// Frame delivery into radios/MACs/switches.
    Deliver = 5,
    /// Netstack polls (host timers, MAC state machines, apps).
    Poll = 6,
    /// Applying deferred ops at the commit point, in canonical order:
    /// the barrier's own time, exclusive of the `MediumBegin` spans
    /// nested inside it (the caller subtracts their [`Profiler::cycles`]
    /// growth).
    OpCommit = 7,
    /// Wall-clock time of parallel regions (plan batches, chain
    /// execution). Unlike every other phase — which accumulates
    /// *cumulative* worker time and can exceed wall time on a
    /// multi-thread pool — this one is measured from the coordinating
    /// thread, so `exec_wall / (deliver + poll + medium_plan)` reads
    /// directly as parallel efficiency.
    ExecWall = 8,
}

/// Number of `Phase` variants (array sizing).
pub const NUM_PHASES: usize = 9;

/// Static labels, indexed by `Phase as usize`.
pub const PHASE_NAMES: [&str; NUM_PHASES] = [
    "queue_pop",
    "queue_schedule",
    "medium_begin",
    "medium_plan",
    "medium_commit",
    "deliver",
    "poll",
    "op_commit",
    "exec_wall",
];

/// Read the cycle counter. Monotonic-enough for span accumulation; the
/// unit is calibrated against wall-clock at snapshot time.
#[inline(always)]
pub fn now() -> u64 {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(target_arch = "aarch64")]
    unsafe {
        let v: u64;
        core::arch::asm!("mrs {v}, cntvct_el0", v = out(reg) v, options(nomem, nostack));
        v
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        use std::sync::OnceLock;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// One accumulator cell: total cycles and probe count.
#[derive(Clone, Copy, Default)]
struct Cell {
    cycles: u64,
    count: u64,
}

/// A snapshot row: `(label, total_ns, count)`.
pub type SnapshotRow = (&'static str, u64, u64);

/// Converted, wall-clock-calibrated view of the accumulated spans.
pub struct Snapshot {
    /// Per-phase `(label, ns, count)` rows, in `Phase` order.
    pub phases: Vec<SnapshotRow>,
    /// Per-event-kind `(label, ns, count)` rows, in registration order.
    pub kinds: Vec<SnapshotRow>,
    /// Estimated profiler self-cost across all probes, in ns.
    pub overhead_ns: u64,
    /// Total ns attributed to event kinds (the dispatch denominator).
    pub dispatch_ns: u64,
}

impl Snapshot {
    /// Overhead as a permille of dispatch time (0 when nothing ran).
    /// The acceptance budget is ≤ 20 ‰ (2 %).
    pub fn overhead_permille(&self) -> u64 {
        (self.overhead_ns * 1000)
            .checked_div(self.dispatch_ns)
            .unwrap_or(0)
    }
}

/// Cycle-count profiler with fixed phase cells and caller-registered
/// event-kind cells.
pub struct Profiler {
    phases: [Cell; NUM_PHASES],
    kinds: Vec<(&'static str, Cell)>,
    /// Actual probe pairs taken. Distinct from cell counts since
    /// [`Self::record_many`]: one probe can account for many events.
    probes: u64,
    anchor_instant: Instant,
    anchor_cycles: u64,
    /// Measured cost of one start/stop probe pair, in cycles.
    pair_cost_cycles: u64,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// Build a profiler and calibrate the per-probe cost.
    pub fn new() -> Self {
        // Measure the cost of a paired read: this is exactly what one
        // record() span costs on top of the work it wraps.
        const PROBES: u64 = 512;
        let t0 = now();
        let mut sink = 0u64;
        for _ in 0..PROBES {
            sink = sink.wrapping_add(now());
        }
        let t1 = now();
        std::hint::black_box(sink);
        let pair_cost_cycles = (t1.wrapping_sub(t0)) / PROBES;
        Profiler {
            phases: [Cell::default(); NUM_PHASES],
            kinds: Vec::new(),
            probes: 0,
            anchor_instant: Instant::now(),
            anchor_cycles: now(),
            pair_cost_cycles,
        }
    }

    /// Register an event-kind cell; returns its index for [`Self::record_kind`].
    pub fn register_kind(&mut self, label: &'static str) -> usize {
        self.kinds.push((label, Cell::default()));
        self.kinds.len() - 1
    }

    /// Attribute `now() - t0` to `phase`, returning the counter read
    /// that ended the span: passed as the next span's `t0`, it chains
    /// back-to-back spans at one read per span.
    #[inline(always)]
    pub fn record(&mut self, phase: Phase, t0: u64) -> u64 {
        let t1 = now();
        let c = &mut self.phases[phase as usize];
        c.cycles = c.cycles.wrapping_add(t1.wrapping_sub(t0));
        c.count += 1;
        self.probes += 1;
        t1
    }

    /// Attribute `now() - t0` to `phase`, counting `n` items under the
    /// single probe — the bulk-drain variant: a burst pop loop takes one
    /// probe pair but dequeues `n` events, and the cell count must stay
    /// comparable with the serial loop's one-probe-per-pop accounting.
    #[inline(always)]
    pub fn record_many(&mut self, phase: Phase, t0: u64, n: u64) {
        let c = &mut self.phases[phase as usize];
        c.cycles = c.cycles.wrapping_add(now().wrapping_sub(t0));
        c.count += n;
        self.probes += 1;
    }

    /// Cycles accumulated in `phase` so far. The difference of two
    /// readings is the time spans nested inside an outer span spent in
    /// `phase` — what the outer span subtracts to record self time.
    #[inline(always)]
    pub fn cycles(&self, phase: Phase) -> u64 {
        self.phases[phase as usize].cycles
    }

    /// Fold externally measured cycles into `phase` — the merge path for
    /// spans taken on pool workers, where `&mut self` is unavailable.
    /// `probes` is how many `now()` pairs produced the total, so the
    /// self-cost estimate stays honest.
    #[inline]
    pub fn add_cycles(&mut self, phase: Phase, cycles: u64, count: u64, probes: u64) {
        let c = &mut self.phases[phase as usize];
        c.cycles = c.cycles.wrapping_add(cycles);
        c.count += count;
        self.probes += probes;
    }

    /// Attribute `now() - t0` to the registered kind `idx`, returning
    /// the counter read that ended the span (as [`Self::record`]).
    #[inline(always)]
    pub fn record_kind(&mut self, idx: usize, t0: u64) -> u64 {
        let t1 = now();
        let c = &mut self.kinds[idx].1;
        c.cycles = c.cycles.wrapping_add(t1.wrapping_sub(t0));
        c.count += 1;
        self.probes += 1;
        t1
    }

    /// Fold externally measured cycles into kind `idx` (pool merge path).
    #[inline]
    pub fn add_kind_cycles(&mut self, idx: usize, cycles: u64, count: u64, probes: u64) {
        let c = &mut self.kinds[idx].1;
        c.cycles = c.cycles.wrapping_add(cycles);
        c.count += count;
        self.probes += probes;
    }

    /// Calibrate cycles→ns against the wall clock and convert every cell.
    ///
    /// Reads the clock *now*, so the calibration window spans the whole
    /// profiled run — long enough that `Instant` granularity is noise.
    pub fn snapshot(&self) -> Snapshot {
        let elapsed_ns = self.anchor_instant.elapsed().as_nanos() as u64;
        let elapsed_cycles = now().wrapping_sub(self.anchor_cycles).max(1);
        let to_ns = |cycles: u64| -> u64 {
            // u128 to survive cycles * ns products at hour scale.
            ((cycles as u128 * elapsed_ns as u128) / elapsed_cycles as u128) as u64
        };
        let phases: Vec<SnapshotRow> = self
            .phases
            .iter()
            .enumerate()
            .map(|(i, c)| (PHASE_NAMES[i], to_ns(c.cycles), c.count))
            .collect();
        let kinds: Vec<SnapshotRow> = self
            .kinds
            .iter()
            .map(|(label, c)| (*label, to_ns(c.cycles), c.count))
            .collect();
        let overhead_ns = to_ns(self.probes.saturating_mul(self.pair_cost_cycles));
        let dispatch_ns = kinds.iter().map(|(_, ns, _)| ns).sum();
        Snapshot {
            phases,
            kinds,
            overhead_ns,
            dispatch_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic_enough() {
        let a = now();
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = now();
        assert!(b.wrapping_sub(a) > 0, "time must pass across real work");
    }

    #[test]
    fn spans_accumulate_and_convert() {
        let mut p = Profiler::new();
        let k = p.register_kind("test_kind");
        for _ in 0..100 {
            let t0 = now();
            let mut x = 0u64;
            for i in 0..1000u64 {
                x = x.wrapping_add(i * i);
            }
            std::hint::black_box(x);
            p.record(Phase::Poll, t0);
            p.record_kind(k, t0);
        }
        // Let the calibration window accumulate some wall time.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let s = p.snapshot();
        assert_eq!(s.phases[Phase::Poll as usize].2, 100);
        assert_eq!(s.kinds[0].2, 100);
        assert_eq!(s.kinds[0].0, "test_kind");
        assert!(s.kinds[0].1 > 0, "real work must convert to nonzero ns");
        assert!(s.dispatch_ns >= s.kinds[0].1);
    }

    #[test]
    fn record_many_counts_items_not_probes() {
        let mut p = Profiler::new();
        let t0 = now();
        p.record_many(Phase::QueuePop, t0, 37);
        let before = p.probes;
        p.record_many(Phase::QueuePop, now(), 3);
        assert_eq!(p.probes, before + 1, "one probe pair per bulk record");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let s = p.snapshot();
        assert_eq!(s.phases[Phase::QueuePop as usize].2, 40);
    }

    #[test]
    fn chained_spans_partition_the_interval() {
        let mut p = Profiler::new();
        let k = p.register_kind("event");
        let busy = || {
            let mut x = 0u64;
            for i in 0..20_000u64 {
                x = x.wrapping_add(i * i);
            }
            std::hint::black_box(x);
        };
        let t0 = now();
        busy();
        let t = p.record(Phase::MediumPlan, t0);
        busy();
        let t = p.record(Phase::Deliver, t);
        busy();
        let t1 = p.record_kind(k, t0);
        // A span that shares both end reads costs no probe of its own.
        p.add_cycles(Phase::OpCommit, t1.wrapping_sub(t), 1, 0);
        let phases =
            p.cycles(Phase::MediumPlan) + p.cycles(Phase::Deliver) + p.cycles(Phase::OpCommit);
        assert_eq!(phases, p.kinds[k].1.cycles, "laps sum to the event span");
        assert_eq!(p.probes, 3);
    }

    #[test]
    fn overhead_estimate_is_reported() {
        let mut p = Profiler::new();
        let k = p.register_kind("busy");
        for _ in 0..10_000 {
            let t0 = now();
            p.record_kind(k, t0);
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
        let s = p.snapshot();
        // Empty spans: nearly all recorded time IS probe overhead, so the
        // estimate must be in the same ballpark as the accumulated total
        // (within noise) — and definitely nonzero.
        assert!(s.overhead_ns > 0);
    }
}
