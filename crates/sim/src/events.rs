//! Deterministic discrete-event queue on a hierarchical timing wheel.
//!
//! Events at equal timestamps pop in insertion order (a monotone sequence
//! number breaks ties), so a simulation is a pure function of its
//! configuration and seed. The original implementation was one global
//! `BinaryHeap`; at plenary scale the scheduler itself became the hot path —
//! every DIFS/backoff/SIFS/NAV re-arm paid an O(log n) sift against a heap
//! inflated by dead superseded timers. The wheel replaces that
//! with O(1) bucket pushes and batched, cache-friendly pops; it still pays
//! for itself: a `BinaryHeap` queue with lazy deletion measured `wall_s`
//! +24 % on perfbench's plenary-523, +30 % on figure-sweep and +34 % on
//! churn (seed 11, paired suite on a 2-vCPU x86-64 host).
//!
//! * **Near future** (one 65.536 ms window of 4096 × 16 µs slots): an event
//!   is appended to its slot's FIFO bucket. Pops drain one slot at a time
//!   into a scratch buffer, stable-sorted by timestamp — stability preserves
//!   the sequence-number tie-break, so the pop stream is byte-identical to
//!   the heap's `(time, seq)` order.
//! * **Far future**: events overflow to a sorted spill level (a `BTreeMap`
//!   keyed by timestamp) and cascade into the wheel, at most once each, when
//!   their window arrives. An empty wheel jumps straight to the spill's
//!   first window instead of revolving through idle time.
//! * **Timers** ([`EventQueue::arm_timer`]): each node has at most one live
//!   exchange timer (`CtsTimeout`/`AckTimeout`), tracked in a per-node slot.
//!   Re-arming overwrites the slot — the previous entry is physically
//!   removed instead of lingering as a dead heap entry — and
//!   [`EventQueue::cancel_timer`] drops it outright.
//! * **Grants** (`EventQueue::set_grant`): backoff countdowns are not
//!   queue entries. [`crate::access`] keeps each station's countdown end,
//!   and each medium holds at most one [`Event::Grant`] here, at or before
//!   the earliest end of its stations; a busy edge that freezes a countdown
//!   costs no queue operation, unless it was the medium's last, whose grant
//!   is then dropped. Moving a grant earlier removes and re-inserts it like
//!   a timer re-arm.
//! * **Ghosts**: the fire times of timers the historical lazy-deletion heap
//!   would have popped dead — cancelled timers and frozen countdowns, and
//!   the defer deadline of every backoff countdown (the two-timer DCF's
//!   separate defer timer, which the simulator folds into its countdown;
//!   see [`EventQueue::record_ghost`]). [`EventQueue::drain_ghosts`] adds
//!   them back so the events-processed denominator stays exactly the
//!   historical one (committed perf baselines fingerprint it). A ghost at or
//!   before the drain horizon ([`EventQueue::set_ghost_horizon`]) is only
//!   counted; later ones are kept until a drain reaches them.
//!
//! Slot buffers and spill buckets come from, and go back to, the allocator;
//! only `SLOT_RETAIN_CAP` bounds what a drained slot keeps.
//!
//! Queue churn is observable through [`EventQueue::stats`]:
//! pushed/popped/stale-dropped/cascaded counters that run reports surface
//! per cell.

use std::collections::BTreeMap;
use wifi_frames::timing::Micros;

/// Identifies a node (station, AP, or sniffer) inside one simulation.
pub type NodeId = usize;

/// Timer kinds a station can arm. The exchange timers (`CtsTimeout`,
/// `AckTimeout`) are cancellable: arming via [`EventQueue::arm_timer`]
/// overwrites the node's single timer slot. `SifsResponse` and `NavExpired`
/// are condition-validated plain events and may coexist with an exchange
/// timer. `BackoffDone` is never queued: the simulator makes one for each
/// countdown that a popped [`Event::Grant`] finds at its end.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimerKind {
    /// The DIFS/EIFS defer and then the backoff slots of a countdown ran
    /// out; transmit.
    BackoffDone,
    /// The SIFS before an owed CTS/ACK response elapsed.
    SifsResponse,
    /// CTS did not arrive in time.
    CtsTimeout,
    /// ACK did not arrive in time.
    AckTimeout,
    /// NAV expired.
    NavExpired,
}

impl TimerKind {
    /// Whether this kind lives in the node's cancellable timer slot.
    pub fn is_cancellable(self) -> bool {
        matches!(self, TimerKind::CtsTimeout | TimerKind::AckTimeout)
    }
}

/// A simulation event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Event {
    /// A transmission that started earlier finishes on `medium`.
    TxEnd {
        /// The channel index of the medium the transmission is on (the
        /// simulator keeps one medium per channel).
        medium: usize,
        /// The transmitter. A station has at most one transmission in
        /// flight and stays `Transmitting` until this event, so the
        /// transmitter names the transmission.
        node: NodeId,
    },
    /// Carrier sense of a transmission becomes detectable at listeners —
    /// one detection delay after the transmission began. Stations whose
    /// backoff expires inside that window transmit concurrently; this is the
    /// collision vulnerability window of CSMA.
    CsBusy {
        /// The channel index of the transmission's medium.
        medium: usize,
        /// The transmitter whose energy becomes detectable. This event
        /// fires strictly before the transmission's `TxEnd`, so it is the
        /// transmitter's one transmission in flight.
        node: NodeId,
    },
    /// A station timer fires. A cancelled or superseded exchange timer
    /// never fires: the queue removes it eagerly
    /// ([`EventQueue::cancel_timer`]).
    Timer {
        /// The station.
        node: NodeId,
        /// Which timer.
        kind: TimerKind,
    },
    /// A traffic source emits its next MSDU.
    TrafficArrival {
        /// The station whose flow fires.
        node: NodeId,
        /// Flow index within the station.
        flow: usize,
    },
    /// A scheduled beacon target time (TBTT).
    BeaconDue {
        /// The AP.
        node: NodeId,
    },
    /// An AP evaluates per-channel load and may switch channels (the
    /// Airespace-style dynamic channel assignment of the paper's venue).
    ChannelEval {
        /// The AP.
        node: NodeId,
    },
    /// A client follows its AP to a new channel and re-associates.
    FollowAp {
        /// The client.
        node: NodeId,
        /// Destination channel index.
        channel_idx: usize,
    },
    /// A power-saving client emits its next Null-function frame.
    PowerSaveTick {
        /// The client.
        node: NodeId,
    },
    /// A user powers on and begins associating.
    UserJoin {
        /// The client.
        node: NodeId,
    },
    /// A user leaves the venue.
    UserLeave {
        /// The client.
        node: NodeId,
    },
    /// The earliest backoff countdown of a medium's stations may have run
    /// out (`EventQueue::set_grant`). Never dispatched itself: the
    /// simulator replaces it in its batch with one `BackoffDone` timer per
    /// countdown that ends at the batch's time.
    Grant {
        /// The channel index of the medium.
        medium: usize,
    },
}

/// Queue-churn counters, surfaced per sweep cell through run reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events inserted (plain pushes and timer arms).
    pub pushed: u64,
    /// Events delivered to the simulator.
    pub popped: u64,
    /// Timers dropped at cancellation/re-arm time, and grants moved
    /// earlier or dropped, instead of popping dead.
    pub stale_dropped: u64,
    /// Far-future events cascaded from the spill level into the wheel.
    pub cascaded: u64,
}

/// Width of one wheel slot, as a power-of-two shift (16 µs).
const SLOT_SHIFT: u32 = 4;
/// Number of slots per wheel window (must be a power of two).
const NUM_SLOTS: usize = 4096;
/// Shift from a timestamp to its window index.
const WINDOW_SHIFT: u32 = SLOT_SHIFT + NUM_SLOTS.trailing_zeros();
/// Span of one wheel window in microseconds (65.536 ms).
const WINDOW_US: Micros = (NUM_SLOTS as Micros) << SLOT_SHIFT;
/// Largest capacity (entries) a drained slot bucket may keep. Buckets grow
/// to the burstiest moment their 16 µs slot ever saw (join storms, beacon
/// alignment), and with 4096 of them those peaks used to accumulate into
/// megabytes of idle capacity — the ramp-320 peak-RSS regression the wheel
/// introduced. Dropping oversized buffers back to the allocator caps the
/// wheel's resident footprint at `NUM_SLOTS × SLOT_RETAIN_CAP` entries
/// (~900 kB worst case; in practice a few hundred kB since only touched
/// slots hold anything) while keeping the common few-events-per-slot path
/// allocation-free; 4 covers the typical slot population and measures
/// within noise on events/s.
const SLOT_RETAIN_CAP: usize = 4;

#[derive(Clone, Copy, Debug)]
struct Entry {
    at: Micros,
    seq: u64,
    event: Event,
    /// Tombstone: cancelled while already drained into the scratch buffer.
    dead: bool,
}

/// A node's armed cancellable timer, or a medium's grant: enough to locate
/// the entry for removal.
#[derive(Clone, Copy)]
struct ArmedTimer {
    seq: u64,
    at: Micros,
}

/// The event queue.
pub struct EventQueue {
    /// The wheel: fixed-width FIFO buckets covering one window.
    slots: Vec<Vec<Entry>>,
    /// One bit per slot; makes "next non-empty slot" a few word scans.
    occupancy: Vec<u64>,
    /// Start time of `slots[0]` in the current window (window-aligned).
    wheel_base: Micros,
    /// Next slot index to drain.
    cursor: usize,
    /// Live entries resident in the wheel.
    wheel_len: usize,
    /// The drained slot, sorted by `(at, seq)`, consumed from `current_pos`.
    current: Vec<Entry>,
    current_pos: usize,
    /// Exclusive upper bound of the drained region: pushes below it merge
    /// into `current`, keeping the pop stream totally ordered.
    current_end: Micros,
    /// Far-future overflow, keyed by timestamp; each value vec is in
    /// insertion (sequence) order.
    spill: BTreeMap<Micros, Vec<Entry>>,
    spill_len: usize,
    /// Per-node armed cancellable timer.
    armed: Vec<Option<ArmedTimer>>,
    /// Per-medium pending grant.
    grants: Vec<Option<ArmedTimer>>,
    /// Ghosts later than `ghost_horizon`, for events-processed parity (see
    /// [`EventQueue::drain_ghosts`]). Unordered: a flat retain scan beats
    /// heap sifts, and only ghosts past the running horizon land here.
    ghosts: Vec<Micros>,
    /// Ghosts at or before `ghost_horizon` since the last drain: the next
    /// drain reaches them whatever its time, so they are only counted.
    ghosts_due: u64,
    /// The earliest time the next [`EventQueue::drain_ghosts`] may use.
    ghost_horizon: Micros,
    next_seq: u64,
    /// Live entries (excludes tombstones).
    live: usize,
    stats: QueueStats,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..NUM_SLOTS).map(|_| Vec::new()).collect(),
            occupancy: vec![0u64; NUM_SLOTS / 64],
            wheel_base: 0,
            cursor: 0,
            wheel_len: 0,
            current: Vec::new(),
            current_pos: 0,
            current_end: 0,
            spill: BTreeMap::new(),
            spill_len: 0,
            armed: Vec::new(),
            grants: Vec::new(),
            ghosts: Vec::new(),
            ghosts_due: 0,
            ghost_horizon: 0,
            next_seq: 0,
            live: 0,
            stats: QueueStats::default(),
        }
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: Micros, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.pushed += 1;
        self.insert(Entry {
            at,
            seq,
            event,
            dead: false,
        });
    }

    /// Arms `node`'s single cancellable timer at `at`, overwriting (and
    /// physically removing) any previously armed one.
    pub fn arm_timer(&mut self, node: NodeId, kind: TimerKind, at: Micros) {
        debug_assert!(kind.is_cancellable());
        self.cancel_timer(node);
        if self.armed.len() <= node {
            self.armed.resize(node + 1, None);
        }
        self.armed[node] = Some(self.push_tracked(at, Event::Timer { node, kind }));
    }

    /// Cancels `node`'s armed timer, removing its entry from the queue. The
    /// fire time is recorded as a ghost so the events-processed denominator
    /// stays identical to the lazy-deletion scheme this replaced.
    pub fn cancel_timer(&mut self, node: NodeId) {
        let armed = self.armed.get_mut(node).and_then(Option::take);
        if let Some(timer) = armed {
            self.remove_entry(timer);
            self.record_ghost(timer.at);
        }
    }

    /// The fire time of `node`'s armed cancellable timer, if any.
    pub fn armed_at(&self, node: NodeId) -> Option<Micros> {
        self.armed.get(node).copied().flatten().map(|t| t.at)
    }

    /// Places `medium`'s grant at `at`, physically removing a pending one.
    /// A grant is no timer of the lazy-deletion heap, so moving one records
    /// no ghost.
    pub(crate) fn set_grant(&mut self, medium: usize, at: Micros) {
        if self.grants.len() <= medium {
            self.grants.resize(medium + 1, None);
        }
        if let Some(grant) = self.grants[medium].take() {
            self.remove_entry(grant);
        }
        self.grants[medium] = Some(self.push_tracked(at, Event::Grant { medium }));
    }

    /// Removes `medium`'s pending grant, if any, without a ghost.
    pub(crate) fn drop_grant(&mut self, medium: usize) {
        if let Some(grant) = self.grants.get_mut(medium).and_then(Option::take) {
            self.remove_entry(grant);
        }
    }

    /// The time of `medium`'s pending grant, if any.
    pub(crate) fn grant_at(&self, medium: usize) -> Option<Micros> {
        self.grants.get(medium).copied().flatten().map(|t| t.at)
    }

    /// Pushes `event` and returns what locates its entry.
    fn push_tracked(&mut self, at: Micros, event: Event) -> ArmedTimer {
        let seq = self.next_seq;
        self.push(at, event);
        ArmedTimer { seq, at }
    }

    /// Records a ghost at `at`: an event the lazy-deletion scheme would
    /// have popped and counted at that time without this queue holding it.
    /// Besides cancelled timers, the simulator records here the end of each
    /// countdown a busy edge froze, where that scheme cancelled its timer,
    /// and the defer deadline of each backoff countdown with slots left,
    /// where the two-timer DCF dispatched or cancelled a separate defer
    /// timer.
    pub fn record_ghost(&mut self, at: Micros) {
        if at <= self.ghost_horizon {
            self.ghosts_due += 1;
        } else {
            self.ghosts.push(at);
        }
    }

    /// Promises that the next [`EventQueue::drain_ghosts`] comes at or after
    /// `horizon`, so ghosts up to it need no storage. `Simulator::run_until`
    /// sets its `until` here.
    pub fn set_ghost_horizon(&mut self, horizon: Micros) {
        self.ghost_horizon = horizon;
    }

    /// Takes a tracked entry (a timer or a grant) out of the queue.
    fn remove_entry(&mut self, timer: ArmedTimer) {
        self.stats.stale_dropped += 1;
        self.live -= 1;
        if timer.at < self.current_end {
            // Already drained: tombstone in place so consume indices hold.
            for e in self.current[self.current_pos..].iter_mut() {
                if e.seq == timer.seq {
                    e.dead = true;
                    return;
                }
            }
            unreachable!("armed timer not found in drained buffer");
        } else if timer.at < self.wheel_base + WINDOW_US {
            let idx = ((timer.at - self.wheel_base) >> SLOT_SHIFT) as usize;
            let slot = &mut self.slots[idx];
            let pos = slot
                .iter()
                .position(|e| e.seq == timer.seq)
                .expect("armed timer not found in wheel slot");
            slot.remove(pos);
            if slot.is_empty() {
                self.occupancy[idx >> 6] &= !(1u64 << (idx & 63));
            }
            self.wheel_len -= 1;
        } else {
            let entries = self
                .spill
                .get_mut(&timer.at)
                .expect("armed timer not found in spill");
            let pos = entries
                .iter()
                .position(|e| e.seq == timer.seq)
                .expect("armed timer not found in spill bucket");
            entries.remove(pos);
            if entries.is_empty() {
                self.spill.remove(&timer.at);
            }
            self.spill_len -= 1;
        }
    }

    fn insert(&mut self, e: Entry) {
        self.live += 1;
        if e.at < self.current_end {
            // The drained region: merge at the entry's (at, seq) position,
            // never before the consume cursor.
            let pos = self.current_pos
                + self.current[self.current_pos..]
                    .partition_point(|x| (x.at, x.seq) <= (e.at, e.seq));
            self.current.insert(pos, e);
        } else if e.at < self.wheel_base + WINDOW_US {
            let idx = ((e.at - self.wheel_base) >> SLOT_SHIFT) as usize;
            self.slots[idx].push(e);
            self.occupancy[idx >> 6] |= 1u64 << (idx & 63);
            self.wheel_len += 1;
        } else {
            match self.spill.entry(e.at) {
                std::collections::btree_map::Entry::Occupied(mut o) => o.get_mut().push(e),
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(vec![e]);
                }
            }
            self.spill_len += 1;
        }
    }

    /// Moves every spill entry belonging to the current window into its
    /// wheel slot. Called once per window advance, so each far-future event
    /// cascades at most once.
    fn cascade_window(&mut self) {
        let window_end = self.wheel_base + WINDOW_US;
        match self.spill.keys().next() {
            Some(&first) if first < window_end => {}
            _ => return,
        }
        let rest = self.spill.split_off(&window_end);
        let take = std::mem::replace(&mut self.spill, rest);
        for (at, mut entries) in take {
            let idx = ((at - self.wheel_base) >> SLOT_SHIFT) as usize;
            let n = entries.len();
            // Appending (never prepending) keeps sequence order within the
            // slot.
            self.slots[idx].append(&mut entries);
            self.occupancy[idx >> 6] |= 1u64 << (idx & 63);
            self.wheel_len += n;
            self.spill_len -= n;
            self.stats.cascaded += n as u64;
        }
    }

    /// The first occupied slot at or after `cursor`, via the bitmap.
    fn next_occupied_slot(&self) -> Option<usize> {
        let mut word_idx = self.cursor >> 6;
        if word_idx >= self.occupancy.len() {
            return None;
        }
        let mut word = self.occupancy[word_idx] & (!0u64 << (self.cursor & 63));
        loop {
            if word != 0 {
                return Some((word_idx << 6) + word.trailing_zeros() as usize);
            }
            word_idx += 1;
            if word_idx >= self.occupancy.len() {
                return None;
            }
            word = self.occupancy[word_idx];
        }
    }

    /// Ensures `current[current_pos]` is the earliest live entry, draining
    /// slots, advancing windows, and cascading the spill as needed. Returns
    /// false when the queue is empty.
    fn prepare_next(&mut self) -> bool {
        loop {
            while self.current_pos < self.current.len() {
                if self.current[self.current_pos].dead {
                    self.current_pos += 1;
                } else {
                    return true;
                }
            }
            self.current.clear();
            self.current_pos = 0;
            if self.live == 0 {
                return false;
            }
            if self.wheel_len == 0 {
                // Nothing in this window: jump straight to the spill's first
                // window instead of revolving through idle time.
                let &first = self.spill.keys().next().expect("live entries exist");
                self.wheel_base = (first >> WINDOW_SHIFT) << WINDOW_SHIFT;
                self.cursor = 0;
                self.current_end = self.wheel_base;
                self.cascade_window();
            }
            match self.next_occupied_slot() {
                Some(s) => {
                    std::mem::swap(&mut self.current, &mut self.slots[s]);
                    // The slot inherits the previous drain buffer; if a past
                    // burst left it oversized, free it.
                    if self.slots[s].capacity() > SLOT_RETAIN_CAP {
                        self.slots[s] = Vec::new();
                    }
                    self.occupancy[s >> 6] &= !(1u64 << (s & 63));
                    self.wheel_len -= self.current.len();
                    // Stable sort: equal timestamps keep insertion (seq)
                    // order, reproducing the heap's (time, seq) tie-break.
                    self.current.sort_by_key(|e| e.at);
                    self.cursor = s + 1;
                    self.current_end = self.wheel_base + (((s + 1) as Micros) << SLOT_SHIFT);
                }
                None => {
                    self.wheel_base += WINDOW_US;
                    self.cursor = 0;
                    self.current_end = self.wheel_base;
                    self.cascade_window();
                }
            }
        }
    }

    /// Clears the armed-timer or grant slot when its entry is delivered.
    #[inline]
    fn note_materialized(&mut self, e: &Entry) {
        let slot = match e.event {
            Event::Timer { node, kind } if kind.is_cancellable() => self.armed.get_mut(node),
            Event::Grant { medium } => self.grants.get_mut(medium),
            _ => return,
        };
        if let Some(slot) = slot {
            if slot.is_some_and(|t| t.seq == e.seq) {
                *slot = None;
            }
        }
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(Micros, Event)> {
        if !self.prepare_next() {
            return None;
        }
        let e = self.current[self.current_pos];
        self.current_pos += 1;
        self.live -= 1;
        self.stats.popped += 1;
        self.note_materialized(&e);
        Some((e.at, e.event))
    }

    /// Pops every event sharing the earliest timestamp, provided that
    /// timestamp is `<= until`, appending them to `out` in sequence order.
    /// Returns the batch timestamp, or `None` (touching nothing) when the
    /// queue is empty or the next event is later than `until`. Events pushed
    /// at the same timestamp *during* batch processing carry higher sequence
    /// numbers, so re-calling yields them as a follow-up batch — identical
    /// to one-at-a-time popping.
    pub fn pop_batch(&mut self, until: Micros, out: &mut Vec<Event>) -> Option<Micros> {
        if !self.prepare_next() {
            return None;
        }
        let at = self.current[self.current_pos].at;
        if at > until {
            return None;
        }
        while self.current_pos < self.current.len() {
            let e = self.current[self.current_pos];
            if e.dead {
                self.current_pos += 1;
                continue;
            }
            if e.at != at {
                break;
            }
            self.current_pos += 1;
            self.live -= 1;
            self.stats.popped += 1;
            self.note_materialized(&e);
            out.push(e.event);
        }
        Some(at)
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&mut self) -> Option<Micros> {
        if !self.prepare_next() {
            return None;
        }
        Some(self.current[self.current_pos].at)
    }

    /// Counts (and forgets) the ghosts whose time is `<= now`; `now` must
    /// not be before the horizon ([`EventQueue::set_ghost_horizon`]).
    ///
    /// Under lazy deletion these entries would have popped as stale events
    /// and been counted into the simulator's events-processed figure — the
    /// denominator committed perf baselines fingerprint. Eager cancellation
    /// removes the entries; this hands the simulator the exact count the
    /// lazy scheme would have produced by the time `now` is reached.
    pub fn drain_ghosts(&mut self, now: Micros) -> u64 {
        debug_assert!(now >= self.ghost_horizon, "drain before the horizon");
        let before = self.ghosts.len();
        self.ghosts.retain(|&t| t > now);
        (before - self.ghosts.len()) as u64 + std::mem::take(&mut self.ghosts_due)
    }

    /// Pending events that will actually be delivered.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Churn counters since construction.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::BeaconDue { node: 3 });
        q.push(10, Event::BeaconDue { node: 1 });
        q.push(20, Event::BeaconDue { node: 2 });
        let order: Vec<Micros> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for node in 0..100 {
            q.push(5, Event::UserJoin { node });
        }
        let mut nodes = Vec::new();
        while let Some((t, Event::UserJoin { node })) = q.pop() {
            assert_eq!(t, 5);
            nodes.push(node);
        }
        assert_eq!(nodes, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(42, Event::BeaconDue { node: 0 });
        assert_eq!(q.peek_time(), Some(42));
        assert_eq!(q.live_len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_spills_and_cascades_in_order() {
        let mut q = EventQueue::new();
        // Far beyond the first window, interleaved with near events.
        q.push(10 * WINDOW_US + 7, Event::BeaconDue { node: 4 });
        q.push(3, Event::BeaconDue { node: 1 });
        q.push(WINDOW_US + 1, Event::BeaconDue { node: 3 });
        q.push(WINDOW_US - 1, Event::BeaconDue { node: 2 });
        q.push(40 * WINDOW_US, Event::BeaconDue { node: 5 });
        let order: Vec<(Micros, NodeId)> = std::iter::from_fn(|| {
            q.pop().map(|(t, e)| match e {
                Event::BeaconDue { node } => (t, node),
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(
            order,
            vec![
                (3, 1),
                (WINDOW_US - 1, 2),
                (WINDOW_US + 1, 3),
                (10 * WINDOW_US + 7, 4),
                (40 * WINDOW_US, 5),
            ]
        );
        assert!(q.stats().cascaded >= 3);
    }

    #[test]
    fn push_into_drained_region_keeps_order() {
        let mut q = EventQueue::new();
        q.push(5, Event::BeaconDue { node: 1 });
        q.push(9, Event::BeaconDue { node: 3 });
        assert_eq!(q.pop().map(|(t, _)| t), Some(5));
        // 5 and 9 share the 16 µs slot, already drained; a push at 7 must
        // still pop before 9.
        q.push(7, Event::BeaconDue { node: 2 });
        assert_eq!(q.pop().map(|(t, _)| t), Some(7));
        assert_eq!(q.pop().map(|(t, _)| t), Some(9));
    }

    #[test]
    fn rearm_overwrites_and_cancel_removes() {
        let mut q = EventQueue::new();
        q.arm_timer(2, TimerKind::AckTimeout, 100);
        assert_eq!(q.live_len(), 1);
        // Re-arm: the old entry is gone, not lingering as a dead one.
        q.arm_timer(2, TimerKind::CtsTimeout, 300);
        assert_eq!(q.live_len(), 1);
        assert_eq!(q.stats().stale_dropped, 1);
        q.cancel_timer(2);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // Ghosts reproduce the lazy-deletion pop count: both cancelled
        // timers would have popped (stale) by t=300.
        assert_eq!(q.drain_ghosts(99), 0);
        assert_eq!(q.drain_ghosts(300), 2);
        assert_eq!(q.drain_ghosts(1_000_000), 0);
        // Up to the horizon a ghost is a count, not a stored time.
        q.set_ghost_horizon(2_000_000);
        q.record_ghost(2_000_000);
        q.arm_timer(2, TimerKind::AckTimeout, 1_500_000);
        q.cancel_timer(2);
        assert!(q.ghosts.is_empty());
        assert_eq!(q.drain_ghosts(2_000_000), 2);
    }

    /// A medium's grant is one entry: moving or dropping it removes the
    /// pending one without a ghost, and delivering it frees the slot.
    #[test]
    fn a_grant_moves_and_drops_without_a_ghost_and_frees_its_slot_on_delivery() {
        let mut q = EventQueue::new();
        q.set_grant(1, 500);
        q.arm_timer(1, TimerKind::AckTimeout, 400);
        assert_eq!((q.grant_at(0), q.grant_at(1)), (None, Some(500)));
        q.set_grant(1, 200);
        assert_eq!((q.live_len(), q.grant_at(1)), (2, Some(200)));
        assert_eq!(q.armed_at(1), Some(400), "node and medium slots are apart");
        assert_eq!(q.pop(), Some((200, Event::Grant { medium: 1 })));
        assert_eq!(q.grant_at(1), None);
        q.set_grant(1, 300);
        q.drop_grant(1);
        q.drop_grant(1);
        assert_eq!((q.grant_at(1), q.live_len()), (None, 1));
        let s = q.stats();
        assert_eq!((s.pushed, s.popped, s.stale_dropped), (4, 1, 2));
        assert_eq!(q.drain_ghosts(Micros::MAX), 0);
    }

    /// Drains must count exactly the ghosts that have come due, whatever
    /// the interleaving of arms, re-arms, cancels, recorded ghosts, horizons
    /// and drains — including drains that land on a ghost's time, timers
    /// cancelled after their time has passed, and ghosts recorded on either
    /// side of the horizon.
    #[test]
    fn ghost_drain_matches_full_scan() {
        let mut q = EventQueue::new();
        let mut reference: Vec<Micros> = Vec::new();
        let mut state = 0x9e37_79b9_u64;
        let mut rand = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut now: Micros = 0;
        let mut drained = 0;
        for round in 0..5_000u64 {
            // The next drain's time, promised up front as the horizon.
            let next = now + rand(60);
            q.set_ghost_horizon(next);
            for _ in 0..rand(4) {
                let node = rand(16) as NodeId;
                // Arming over a live timer cancels it: a ghost too.
                if let Some(at) = q.armed_at(node) {
                    reference.push(at);
                }
                let at = now.saturating_sub(50) + rand(400);
                q.arm_timer(node, TimerKind::AckTimeout, at);
                if rand(2) == 0 {
                    reference.push(at);
                    q.cancel_timer(node);
                }
                if rand(2) == 0 {
                    let ghost = now.saturating_sub(50) + rand(400);
                    reference.push(ghost);
                    q.record_ghost(ghost);
                }
            }
            now = next;
            let before = reference.len();
            reference.retain(|&t| t > now);
            let expect = (before - reference.len()) as u64;
            assert_eq!(q.drain_ghosts(now), expect, "round {round}, now {now}");
            drained += expect;
        }
        assert!(drained > 1_000, "the sequence exercised real drains");
        // Only ghosts past the horizon were stored: exactly those still due.
        assert_eq!(q.ghosts.len(), reference.len());
        assert_eq!(q.drain_ghosts(Micros::MAX), reference.len() as u64);
        assert_eq!(q.drain_ghosts(Micros::MAX), 0);
    }

    #[test]
    fn cancel_finds_entries_in_every_region() {
        let mut q = EventQueue::new();
        // Spill region.
        q.arm_timer(0, TimerKind::AckTimeout, 5 * WINDOW_US);
        q.cancel_timer(0);
        assert!(q.is_empty());
        // Wheel region.
        q.arm_timer(0, TimerKind::AckTimeout, 50);
        q.cancel_timer(0);
        assert!(q.is_empty());
        // Drained (current) region: same slot as an already-popped event.
        q.push(3, Event::BeaconDue { node: 9 });
        q.arm_timer(0, TimerKind::AckTimeout, 4);
        assert_eq!(q.pop().map(|(t, _)| t), Some(3));
        q.cancel_timer(0);
        assert_eq!(q.live_len(), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn batch_pop_returns_equal_timestamp_runs() {
        let mut q = EventQueue::new();
        q.push(10, Event::UserJoin { node: 0 });
        q.push(10, Event::UserJoin { node: 1 });
        q.push(20, Event::UserJoin { node: 2 });
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(100, &mut out), Some(10));
        assert_eq!(
            out,
            vec![Event::UserJoin { node: 0 }, Event::UserJoin { node: 1 }]
        );
        out.clear();
        // Bounded by `until`: nothing at 20 is touched.
        assert_eq!(q.pop_batch(15, &mut out), None);
        assert!(out.is_empty());
        assert_eq!(q.pop_batch(20, &mut out), Some(20));
        assert_eq!(out, vec![Event::UserJoin { node: 2 }]);
        assert!(q.is_empty());
    }

    #[test]
    fn stats_account_for_all_flows() {
        let mut q = EventQueue::new();
        q.push(1, Event::BeaconDue { node: 0 });
        q.arm_timer(1, TimerKind::AckTimeout, 30);
        q.arm_timer(1, TimerKind::AckTimeout, 60); // re-arm drops one
        while q.pop().is_some() {}
        let s = q.stats();
        assert_eq!(s.pushed, 3);
        assert_eq!(s.popped, 2);
        assert_eq!(s.stale_dropped, 1);
        assert_eq!(s.pushed, s.popped + s.stale_dropped);
    }
}
