//! Property-based equivalence: the timing-wheel [`EventQueue`] against a
//! reference lazy-deletion priority queue (the `BinaryHeap` scheme the wheel
//! replaced).
//!
//! Random operation schedules — pushes at near/far/multi-window-future
//! timestamps (including equal-timestamp runs), timer arm/re-arm/cancel on a
//! handful of nodes, and interleaved pops — must produce:
//!
//! * identical `(time, event)` delivery streams (live events only, in
//!   `(time, seq)` order, which exercises FIFO-within-bucket, sorted-insert
//!   into the drained region, and spill cascades);
//! * identical totals: the wheel's live pops plus its drained ghosts equal
//!   the reference's pops (live + stale), so the events-processed
//!   denominator is invariant under eager cancellation;
//! * `live_len()` matching the reference's live count at every step;
//! * `pop_batch` yielding exactly the `pop` stream, batched by timestamp.

use proptest::prelude::*;
use wifi_sim::events::{Event, EventQueue, TimerKind};

/// One wheel window (16 µs × 4096 slots), mirrored from the implementation
/// to aim pushes at slot/window/spill boundaries.
const WINDOW_US: u64 = 4096 << 4;

/// Reference model: every entry stays until popped; timers are invalidated
/// by overwriting the node's armed seq (lazy deletion). Pops scan for the
/// global `(at, seq)` minimum — O(n²) overall, fine at test sizes.
#[derive(Default)]
struct RefQueue {
    entries: Vec<RefEntry>,
    armed: Vec<Option<u64>>,
    next_seq: u64,
    delivered: Vec<(u64, Event)>,
    live_pops: u64,
    stale_pops: u64,
}

struct RefEntry {
    at: u64,
    seq: u64,
    event: Event,
    timer_node: Option<usize>,
}

impl RefQueue {
    fn push(&mut self, at: u64, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(RefEntry {
            at,
            seq,
            event,
            timer_node: None,
        });
    }

    fn arm_timer(&mut self, node: usize, kind: TimerKind, at: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.armed.len() <= node {
            self.armed.resize(node + 1, None);
        }
        self.armed[node] = Some(seq); // the previous arm goes stale
        self.entries.push(RefEntry {
            at,
            seq,
            event: Event::Timer { node, kind },
            timer_node: Some(node),
        });
    }

    fn cancel_timer(&mut self, node: usize) {
        if let Some(slot) = self.armed.get_mut(node) {
            *slot = None;
        }
    }

    fn live_len(&self) -> usize {
        self.entries.iter().filter(|e| self.entry_live(e)).count()
    }

    fn entry_live(&self, e: &RefEntry) -> bool {
        match e.timer_node {
            None => true,
            Some(node) => self.armed.get(node).copied().flatten() == Some(e.seq),
        }
    }

    /// Pops the global minimum; stale timer entries are consumed and counted
    /// but not delivered (the lazy-deletion behaviour). Returns false when
    /// empty.
    fn pop(&mut self) -> bool {
        let Some(min_idx) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.at, e.seq))
            .map(|(i, _)| i)
        else {
            return false;
        };
        let e = self.entries.swap_remove(min_idx);
        if self.entry_live(&e) {
            if let Some(node) = e.timer_node {
                self.armed[node] = None; // fired
            }
            self.delivered.push((e.at, e.event));
            self.live_pops += 1;
        } else {
            self.stale_pops += 1;
        }
        true
    }

    /// Drains only entries at or before `until` (the `run_until` contract).
    fn pop_until(&mut self, until: u64) -> bool {
        let next = self.entries.iter().map(|e| (e.at, e.seq)).min();
        match next {
            Some((at, _)) if at <= until => self.pop(),
            _ => false,
        }
    }
}

/// Decodes one opcode triple into an operation against both queues.
/// `now` tracks the last popped timestamp so the schedule resembles a real
/// simulation (pushes land at or after the present).
struct Driver {
    wheel: EventQueue,
    wheel_delivered: Vec<(u64, Event)>,
    wheel_ghosts: u64,
    reference: RefQueue,
    now: u64,
    next_id: usize,
}

impl Driver {
    fn new() -> Driver {
        Driver {
            wheel: EventQueue::new(),
            wheel_delivered: Vec::new(),
            wheel_ghosts: 0,
            reference: RefQueue::default(),
            now: 0,
            next_id: 0,
        }
    }

    /// Timestamp classes: slot-dense (forces equal timestamps and drained-
    /// region inserts), intra-window, and multi-window spill.
    fn target_time(&self, class: u64, offset: u64) -> u64 {
        self.now
            + match class % 3 {
                0 => offset % 8,
                1 => offset % (2 * WINDOW_US),
                _ => offset % (40 * WINDOW_US),
            }
    }

    fn apply(&mut self, op: (u8, u64, u64)) {
        let (code, a, b) = op;
        match code % 6 {
            // Two push opcodes: pushes should dominate the mix.
            0 | 1 => {
                let at = self.target_time(a, b);
                let ev = Event::UserJoin { node: self.next_id };
                self.next_id += 1;
                self.wheel.push(at, ev);
                self.reference.push(at, ev);
            }
            2 => {
                let node = (a % 4) as usize;
                let at = self.target_time(a / 4, b);
                let kind = [
                    TimerKind::DeferDone,
                    TimerKind::BackoffDone,
                    TimerKind::CtsTimeout,
                    TimerKind::AckTimeout,
                ][(a / 16 % 4) as usize];
                self.wheel.arm_timer(node, kind, at);
                self.reference.arm_timer(node, kind, at);
            }
            3 => {
                let node = (a % 4) as usize;
                self.wheel.cancel_timer(node);
                self.reference.cancel_timer(node);
            }
            _ => {
                for _ in 0..(b % 4) + 1 {
                    match self.wheel.pop() {
                        Some((at, ev)) => {
                            self.now = at;
                            self.wheel_delivered.push((at, ev));
                        }
                        None => break,
                    }
                    // The reference consumes stale entries up to (and at)
                    // the same timestamp before its next live pop.
                    loop {
                        let before = self.reference.delivered.len();
                        assert!(self.reference.pop(), "reference empty, wheel was not");
                        if self.reference.delivered.len() > before {
                            break;
                        }
                    }
                }
                // Ghosts of cancelled timers whose fire time has passed
                // become countable now, exactly as run_until drains them.
                self.wheel_ghosts += self.wheel.drain_ghosts(self.now);
            }
        }
    }

    fn drain_all(&mut self) {
        while let Some((at, ev)) = self.wheel.pop() {
            self.now = at;
            self.wheel_delivered.push((at, ev));
        }
        self.wheel_ghosts += self.wheel.drain_ghosts(u64::MAX);
        while self.reference.pop() {}
    }
}

proptest! {
    fn wheel_matches_reference_on_random_schedules(
        ops in proptest::collection::vec((0u8..24, 0u64..1_000_000, 0u64..u64::MAX / 2), 1..80),
    ) {
        let mut d = Driver::new();
        for op in ops {
            d.apply(op);
            prop_assert_eq!(d.wheel.live_len(), d.reference.live_len());
        }
        d.drain_all();
        prop_assert!(d.wheel.is_empty());
        prop_assert_eq!(&d.wheel_delivered, &d.reference.delivered);
        let stats = d.wheel.stats();
        // The events-processed identity: live pops + ghosts reproduce the
        // lazy scheme's pop total, and every push is accounted for.
        prop_assert_eq!(stats.popped, d.reference.live_pops);
        prop_assert_eq!(d.wheel_ghosts, d.reference.stale_pops);
        prop_assert_eq!(stats.stale_dropped, d.reference.stale_pops);
        prop_assert_eq!(stats.pushed, stats.popped + stats.stale_dropped);
    }

    /// `pop_batch` must yield the one-at-a-time stream, grouped by equal
    /// timestamps, and respect its `until` bound exactly.
    fn batch_pop_equals_single_pop(
        ops in proptest::collection::vec((0u8..24, 0u64..1_000_000, 0u64..u64::MAX / 2), 1..60),
        until_frac in 0u64..100,
    ) {
        // Build two identical queues from the push/arm/cancel prefix of the
        // schedule (pops skipped so both queues see the same inserts).
        let mut single = EventQueue::new();
        let mut batched = EventQueue::new();
        let mut id = 0usize;
        let mut max_at = 0u64;
        for (code, a, b) in ops {
            match code % 3 {
                0 | 1 => {
                    let at = match a % 3 {
                        0 => b % 64,
                        1 => b % (2 * WINDOW_US),
                        _ => b % (40 * WINDOW_US),
                    };
                    max_at = max_at.max(at);
                    let ev = Event::UserJoin { node: id };
                    id += 1;
                    single.push(at, ev);
                    batched.push(at, ev);
                }
                _ => {
                    let node = (a % 4) as usize;
                    let at = b % (2 * WINDOW_US);
                    max_at = max_at.max(at);
                    single.arm_timer(node, TimerKind::DeferDone, at);
                    batched.arm_timer(node, TimerKind::DeferDone, at);
                }
            }
        }
        let until = max_at / 100 * until_frac;
        let mut single_stream = Vec::new();
        while single.peek_time().is_some_and(|t| t <= until) {
            let (at, ev) = single.pop().unwrap();
            single_stream.push((at, ev));
        }
        let mut batch_stream = Vec::new();
        let mut batch = Vec::new();
        while let Some(at) = batched.pop_batch(until, &mut batch) {
            prop_assert!(at <= until);
            for ev in batch.drain(..) {
                batch_stream.push((at, ev));
            }
        }
        prop_assert_eq!(&batch_stream, &single_stream);
        prop_assert_eq!(batched.live_len(), single.live_len());
        // Timestamps within each queue's remainder agree too: drain fully.
        let mut rest_single = Vec::new();
        while let Some(x) = single.pop() { rest_single.push(x); }
        let mut rest_batch = Vec::new();
        while let Some(at) = batched.pop_batch(u64::MAX, &mut batch) {
            for ev in batch.drain(..) { rest_batch.push((at, ev)); }
        }
        prop_assert_eq!(&rest_batch, &rest_single);
    }

    /// Bounded popping (`pop_until`, the `run_until` contract) leaves both
    /// models in the same state when the bound advances in stages.
    fn staged_bounds_are_pure_continuations(
        ops in proptest::collection::vec((0u8..24, 0u64..1_000_000, 0u64..u64::MAX / 2), 1..40),
        stages in proptest::collection::vec(0u64..(45 * WINDOW_US), 1..5),
    ) {
        let mut d = Driver::new();
        for op in ops {
            // Inserts only (skip the pop opcode) to build pending state.
            if op.0 % 6 >= 4 { continue; }
            d.apply(op);
        }
        let mut stages = stages;
        stages.sort_unstable();
        for until in stages {
            loop {
                match d.wheel.peek_time() {
                    Some(t) if t <= until => {
                        let (at, ev) = d.wheel.pop().unwrap();
                        d.wheel_delivered.push((at, ev));
                    }
                    _ => break,
                }
            }
            d.wheel_ghosts += d.wheel.drain_ghosts(until);
            let mut ref_stales_and_lives = 0u64;
            while d.reference.pop_until(until) { ref_stales_and_lives += 1; }
            let _ = ref_stales_and_lives;
            prop_assert_eq!(d.wheel_delivered.len(), d.reference.delivered.len());
            // The ghost identity holds at every stage boundary, not just at
            // the end: counted stale == reference stale pops so far.
            prop_assert_eq!(
                d.wheel.stats().popped + d.wheel_ghosts,
                d.reference.live_pops + d.reference.stale_pops
            );
        }
        prop_assert_eq!(&d.wheel_delivered, &d.reference.delivered);
    }
}
