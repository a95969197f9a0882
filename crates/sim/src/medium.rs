//! The shared radio medium of one channel.
//!
//! Tracks in-flight transmissions and, for each, every other transmission
//! that overlapped it in time — the interferer set from which receivers
//! compute SINR. Propagation delay is neglected (a conference hall is well
//! under one microsecond across).
//!
//! Interferers are stored as node ids only: positions are fixed per
//! scenario, so receivers look the interferer path loss up in the cached
//! [`SensingTopology`](crate::topology::SensingTopology) instead of
//! carrying positions around. The `sensed_by` listener set is a pooled
//! [`NodeSet`] bitset that retiring a transmission recycles; interferer
//! lists come from, and go back to, the allocator.
//!
//! The medium is also where carrier sense lives. Its `busy` set is the
//! union of the listener sets of the transmissions whose carrier sense has
//! been applied, so "does station *i* sense energy?" is one bit, and a busy
//! or release edge is a few word-wide ORs instead of a counter update at
//! every listener. The listener sets of the releases of the last
//! [`dcf::EIFS_US`] are kept, which is all a defer decision can see of
//! when the channel went idle (see `Medium::last_release`).

use crate::events::NodeId;
use crate::frame_info::SimFrame;
use crate::topology::NodeSet;
use std::collections::VecDeque;
use wifi_frames::phy::Rate;
use wifi_frames::timing::{dcf, Micros};

/// Tail-overlap guard: a transmission whose last `OVERLAP_GUARD_US`
/// microseconds (or less) overlap another's start is *not* registered as an
/// interferer of that other transmission (and vice versa).
///
/// Physically this is one SIFS — by the time a new preamble could put
/// energy on the air, a frame with under one SIFS left is into its final
/// symbols and the receiver's PHY pipeline has already committed to them;
/// a sub-SIFS tail graze does not flip the decode. It is part of the model
/// the goldens pin (see `docs/DETERMINISM.md` §5).
pub const OVERLAP_GUARD_US: Micros = 10;

/// One transmission in flight (or just completed). A node has at most one
/// transmission in flight, so its transmitter names it.
#[derive(Clone, Debug)]
pub struct Transmission {
    /// Transmitting node.
    pub node: NodeId,
    /// The frame.
    pub frame: SimFrame,
    /// PHY rate.
    pub rate: Rate,
    /// Air start time.
    pub start: Micros,
    /// Air end time.
    pub end: Micros,
    /// Node of every other transmission that overlapped this one beyond the
    /// tail guard, in ascending node order (receivers resolve path loss via
    /// the topology cache; the fixed order keeps float SINR sums bit-stable
    /// across materializations).
    pub interferers: Vec<NodeId>,
    /// Stations whose carrier sense this transmission raises (computed by
    /// the simulator at start; a channel switch adds or removes one).
    pub sensed_by: NodeSet,
    /// Whether the busy indication has already been applied at listeners
    /// (set when the carrier-sense detection delay elapses).
    pub cs_applied: bool,
}

/// Keeps an interferer list sorted by ascending node id (no duplicates
/// arise: a node has at most one transmission in flight).
fn insert_sorted(list: &mut Vec<NodeId>, node: NodeId) {
    let pos = list.partition_point(|&n| n < node);
    list.insert(pos, node);
}

/// One carrier-sense release: when it happened and who sensed it.
struct Release {
    at: Micros,
    listeners: NodeSet,
}

/// The medium of a single channel: its in-flight transmissions, and the
/// carrier sense they raise at the channel's stations.
pub struct Medium {
    active: Vec<Transmission>,
    /// Running count of transmissions that suffered at least one overlap.
    pub collisions: u64,
    /// Running count of all transmissions.
    pub transmissions: u64,
    /// The stations that sense energy: the union of the `sensed_by` sets of
    /// the transmissions whose carrier sense has been applied and not yet
    /// released ([`Medium::apply_cs`], [`Medium::retire`]).
    busy: NodeSet,
    /// Listener sets of the most recent releases, oldest first; pruned to
    /// the last [`dcf::EIFS_US`] whenever a release is added.
    releases: VecDeque<Release>,
    /// Recycled listener bitsets (from [`Medium::retire`] and pruned
    /// releases).
    set_pool: Vec<NodeSet>,
}

impl Default for Medium {
    fn default() -> Medium {
        Medium {
            active: Vec::new(),
            collisions: 0,
            transmissions: 0,
            busy: NodeSet::new(),
            releases: VecDeque::new(),
            set_pool: Vec::new(),
        }
    }
}

impl Medium {
    /// An idle medium.
    pub fn new() -> Medium {
        Medium::default()
    }

    /// A cleared listener set from the pool (or a fresh one), for the
    /// caller to fill and hand to [`Medium::start_tx`]. The pool pays for
    /// itself: without it, perfbench's plenary-sharded `wall_s` rose 25 %
    /// and churn's 11–12 % (paired suite on a 2-vCPU x86-64 host).
    pub fn take_set(&mut self) -> NodeSet {
        self.set_pool.pop().unwrap_or_default()
    }

    /// Registers `node`'s transmission; `node` must have none in flight.
    /// Every already-active transmission whose transmitter is RF-coupled to
    /// `node` (per the `coupled` predicate — the topology's pair-coupling
    /// floor) and whose remaining air time exceeds [`OVERLAP_GUARD_US`]
    /// becomes a mutual interferer; uncoupled and sub-guard tail overlaps
    /// are physically negligible and excluding them here is what keeps
    /// interferer lists — and the collision counter — identical whether a
    /// channel is simulated whole or split into shards. `sensed_by` is the
    /// listener set the simulator computed for this transmission.
    #[allow(clippy::too_many_arguments)]
    pub fn start_tx(
        &mut self,
        node: NodeId,
        frame: SimFrame,
        rate: Rate,
        start: Micros,
        end: Micros,
        sensed_by: NodeSet,
        coupled: impl Fn(NodeId) -> bool,
    ) {
        debug_assert!(
            self.active.iter().all(|t| t.node != node),
            "node {node} already has a transmission in flight"
        );
        let mut interferers = Vec::new();
        for other in &mut self.active {
            // `other` started no later than `start`; the pair interferes iff
            // the earlier transmission outlives the later one's start by
            // more than the tail guard.
            if !coupled(other.node) || other.end <= start + OVERLAP_GUARD_US {
                continue;
            }
            insert_sorted(&mut other.interferers, node);
            insert_sorted(&mut interferers, other.node);
        }
        self.transmissions += 1;
        self.active.push(Transmission {
            node,
            frame,
            rate,
            start,
            end,
            interferers,
            sensed_by,
            cs_applied: false,
        });
    }

    /// Removes and returns `node`'s completed transmission, counting it into
    /// `collisions` if it suffered at least one overlap. Its carrier sense
    /// stays applied until the transmission is handed back via
    /// [`Medium::retire`].
    pub fn end_tx(&mut self, node: NodeId) -> Option<Transmission> {
        let idx = self.active.iter().position(|t| t.node == node)?;
        let tx = self.active.swap_remove(idx);
        if !tx.interferers.is_empty() {
            self.collisions += 1;
        }
        Some(tx)
    }

    /// Applies the carrier sense of `node`'s in-flight transmission: writes
    /// into `hits` (cleared first) the words of the listeners that were
    /// idle and are `contending`, then marks every listener busy.
    ///
    /// # Panics
    ///
    /// If `node` has no transmission in flight.
    pub fn apply_cs(&mut self, node: NodeId, contending: &NodeSet, hits: &mut Vec<u64>) {
        let t = self
            .active
            .iter_mut()
            .find(|t| t.node == node)
            .expect("carrier sense of a transmission not in flight");
        t.cs_applied = true;
        fresh_hits(&t.sensed_by, &self.busy, contending, hits);
        self.busy.union_with(&t.sensed_by);
    }

    /// Releases the carrier sense of a transmission taken out by
    /// [`Medium::end_tx`] and returns its listener set to the pool. `busy`
    /// becomes the union of the carrier sense still in flight; `hits`
    /// (cleared first) receives the words of the listeners that went quiet
    /// and are `contending`. The listener set is kept as a release at `now`
    /// for `Medium::last_release`.
    pub fn retire(
        &mut self,
        tx: Transmission,
        now: Micros,
        contending: &NodeSet,
        hits: &mut Vec<u64>,
    ) {
        let Transmission {
            sensed_by,
            cs_applied,
            ..
        } = tx;
        hits.clear();
        if !cs_applied {
            self.recycle_set(sensed_by);
            return;
        }
        self.busy.clear();
        for t in self.active.iter().filter(|t| t.cs_applied) {
            self.busy.union_with(&t.sensed_by);
        }
        fresh_hits(&sensed_by, &self.busy, contending, hits);
        // A defer waits at most EIFS, so an older release decides nothing
        // a later stamp would not.
        while self
            .releases
            .front()
            .is_some_and(|r| r.at + dcf::EIFS_US <= now)
        {
            if let Some(old) = self.releases.pop_front() {
                self.recycle_set(old.listeners);
            }
        }
        self.releases.push_back(Release {
            at: now,
            listeners: sensed_by,
        });
    }

    fn recycle_set(&mut self, mut set: NodeSet) {
        set.clear();
        self.set_pool.push(set);
    }

    /// Whether `node` senses a transmission on this medium.
    #[inline]
    pub fn senses(&self, node: NodeId) -> bool {
        self.busy.contains(node)
    }

    /// The latest release `node` sensed, if it came within the last EIFS:
    /// an older one is at least a full defer interval back and decides a
    /// defer the same way as any older one.
    pub(crate) fn last_release(&self, node: NodeId) -> Option<Micros> {
        let mut releases = self.releases.iter().rev();
        releases.find(|r| r.listeners.contains(node)).map(|r| r.at)
    }

    /// Takes `node` off this medium's in-flight transmissions (it is
    /// switching to another channel): it senses none of them any more.
    pub fn detach(&mut self, node: NodeId) {
        for t in &mut self.active {
            t.sensed_by.remove(node);
        }
        self.busy.remove(node);
    }

    /// Puts `node` (switching onto this channel) on the listener set of
    /// every in-flight transmission it senses, per `senses_tx(transmitter)`;
    /// those already carrier-sensed make it busy at once.
    pub fn attach(&mut self, node: NodeId, senses_tx: impl Fn(NodeId) -> bool) {
        for t in &mut self.active {
            if senses_tx(t.node) {
                t.sensed_by.insert(node);
                if t.cs_applied {
                    self.busy.insert(node);
                }
            }
        }
    }

    /// Whether `busy` is exactly the union of the listener sets of the
    /// carrier-sensed in-flight transmissions (checked by the event loop in
    /// debug builds, between event batches).
    pub(crate) fn busy_consistent(&self) -> bool {
        let mut union = NodeSet::new();
        for t in self.active.iter().filter(|t| t.cs_applied) {
            union.union_with(&t.sensed_by);
        }
        union.iter().eq(self.busy.iter())
    }

    /// Active transmissions.
    pub fn active(&self) -> &[Transmission] {
        &self.active
    }
}

/// Writes `listeners ∖ busy ∩ contending`, word by word, into `hits`
/// (cleared first): the contending listeners whose carrier just changed.
fn fresh_hits(listeners: &NodeSet, busy: &NodeSet, contending: &NodeSet, hits: &mut Vec<u64>) {
    hits.clear();
    hits.extend(
        listeners
            .words()
            .iter()
            .enumerate()
            .map(|(wi, &w)| w & !busy.word(wi) & contending.word(wi)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::idle_since;
    use crate::rng::SimRng;
    use crate::topology::for_each_bit;
    use rand::Rng;
    use wifi_frames::mac::MacAddr;

    fn frame() -> SimFrame {
        SimFrame::ack(MacAddr::from_id(1))
    }

    fn start(m: &mut Medium, node: NodeId, start: Micros, end: Micros) -> NodeId {
        let set = m.take_set();
        m.start_tx(node, frame(), Rate::R1, start, end, set, |_| true);
        node
    }

    fn retire(m: &mut Medium, tx: Transmission) {
        let end = tx.end;
        m.retire(tx, end, &NodeSet::new(), &mut Vec::new());
    }

    #[test]
    fn single_tx_lifecycle() {
        let mut m = Medium::new();
        assert!(m.active().is_empty());
        let id = start(&mut m, 0, 0, 304);
        assert_eq!(m.active().len(), 1);
        let tx = m.end_tx(id).unwrap();
        assert!(tx.interferers.is_empty());
        assert!(m.active().is_empty());
        assert_eq!(m.collisions, 0);
        assert_eq!(m.transmissions, 1);
    }

    #[test]
    fn overlap_registers_mutual_interference() {
        let mut m = Medium::new();
        let a = start(&mut m, 0, 0, 1000);
        let b = start(&mut m, 1, 500, 900);
        let tb = m.end_tx(b).unwrap();
        assert_eq!(tb.interferers, vec![0]);
        assert_eq!(m.collisions, 1, "b suffered the overlap");
        let ta = m.end_tx(a).unwrap();
        assert_eq!(ta.interferers, vec![1]);
        assert_eq!(m.collisions, 2, "both parties of the overlap count");
    }

    #[test]
    fn sub_guard_tail_overlap_is_ignored() {
        let mut m = Medium::new();
        // `a` has exactly OVERLAP_GUARD_US of air left when `b` starts:
        // the tail graze registers nothing, in either direction.
        let a = start(&mut m, 0, 0, 500 + OVERLAP_GUARD_US);
        let b = start(&mut m, 1, 500, 900);
        let ta = m.end_tx(a).unwrap();
        assert!(ta.interferers.is_empty());
        let tb = m.end_tx(b).unwrap();
        assert!(tb.interferers.is_empty());
        assert_eq!(m.collisions, 0);
    }

    #[test]
    fn interferer_lists_stay_sorted_by_node() {
        let mut m = Medium::new();
        let a = start(&mut m, 5, 0, 10_000);
        for node in [9, 2, 7] {
            let id = start(&mut m, node, 100, 5_000);
            let tx = m.end_tx(id).unwrap();
            retire(&mut m, tx);
        }
        let t = m.end_tx(a).unwrap();
        assert_eq!(t.interferers, vec![2, 7, 9]);
    }

    #[test]
    fn interference_accumulates_across_sequential_overlaps() {
        let mut m = Medium::new();
        let long = start(&mut m, 0, 0, 10_000);
        for i in 1..4 {
            let id = start(&mut m, i, 0, 100);
            let tx = m.end_tx(id).unwrap();
            retire(&mut m, tx);
        }
        let t = m.end_tx(long).unwrap();
        assert_eq!(t.interferers, vec![1, 2, 3], "keeps ended interferers");
    }

    #[test]
    fn recycled_buffers_come_back_empty() {
        let mut m = Medium::new();
        let a = start(&mut m, 0, 0, 1000);
        let b = start(&mut m, 1, 0, 900);
        let mut tx = m.end_tx(b).unwrap();
        tx.sensed_by.insert(5);
        assert!(!tx.interferers.is_empty());
        retire(&mut m, tx);
        let set = m.take_set();
        assert!(set.is_empty(), "pooled set is cleared");
        m.start_tx(2, frame(), Rate::R1, 0, 10, set, |_| true);
        let tc = m.end_tx(2).unwrap();
        // The interferer list is fresh: only the still-active transmission
        // shows up.
        assert_eq!(tc.interferers, vec![0]);
        let _ = m.end_tx(a);
    }

    #[test]
    fn end_unknown_tx_is_none() {
        let mut m = Medium::new();
        assert!(m.end_tx(99).is_none());
    }

    /// One in-flight frame as the counting oracle sees it.
    struct Flight {
        medium: usize,
        node: NodeId,
        listeners: Vec<NodeId>,
        applied: bool,
    }

    /// The per-listener carrier sense the medium's busy set replaced: a
    /// count of carrier-sensed frames per station, and an idle time written
    /// at every edge that leaves a station with no carrier and no NAV.
    struct CountingOracle {
        sensed: Vec<u32>,
        idle_since: Vec<Micros>,
        flights: Vec<Flight>,
    }

    /// Random busy/release/NAV/channel-switch sequences over 130 stations
    /// on two media, checked edge by edge against [`CountingOracle`]:
    /// whether each station's channel is busy, which contending stations
    /// each busy and each release edge calls back (NAV permitting), and,
    /// for every idle station at every step, the idle time a defer reads —
    /// clamped at one EIFS back, beyond which every value defers alike.
    #[test]
    fn carrier_sense_matches_per_listener_counting() {
        const N: usize = 130;
        for seed in 0..4 {
            let mut rng = SimRng::new(seed, 0);
            // Who senses whom, one word at a time: full words, half-full
            // words and sparse words all occur (130 = two words and a
            // two-bit tail).
            let senses: Vec<NodeSet> = (0..N)
                .map(|tx| {
                    let mut set = NodeSet::new();
                    for word in 0..3 {
                        let p = [1.0, 0.5, 0.04][rng.gen_range(0..3usize)];
                        for rx in word * 64..(word * 64 + 64).min(N) {
                            if rx != tx && rng.gen_bool(p) {
                                set.insert(rx);
                            }
                        }
                    }
                    set
                })
                .collect();
            let mut chan: Vec<usize> = (0..N).map(|i| (i >= 120) as usize).collect();
            let mut media = [Medium::new(), Medium::new()];
            let mut nav: Vec<Micros> = vec![0; N];
            let mut stamp: Vec<Micros> = vec![0; N];
            let mut expiries: Vec<(Micros, NodeId)> = Vec::new();
            let mut contending = NodeSet::new();
            let mut oracle = CountingOracle {
                sensed: vec![0; N],
                idle_since: vec![0; N],
                flights: Vec::new(),
            };
            let mut hits = Vec::new();
            let mut now: Micros = 0;
            let fired = |hits: &[u64], nav: &[Micros], now: Micros| -> Vec<NodeId> {
                let mut out = Vec::new();
                for (wi, &w) in hits.iter().enumerate() {
                    for_each_bit(w, wi * 64, |i| {
                        if nav[i] <= now {
                            out.push(i);
                        }
                    });
                }
                out
            };
            for step in 0..3000 {
                // The next edge: now, a little later, much later, or right
                // on a pending NAV expiry (so an idle query can land on the
                // microsecond a NAV ends, before its expiry timer runs).
                let next_expiry = expiries.iter().map(|e| e.0).min();
                now = match (rng.gen_range(0..8), next_expiry) {
                    (0, Some(at)) => at.max(now),
                    (1 | 2, _) => now,
                    (3..=5, _) => now + rng.gen_range(1..=60u64),
                    _ => now + rng.gen_range(1..=500u64),
                };
                let query =
                    |media: &[Medium; 2], nav: &[Micros], stamp: &[Micros], o: &CountingOracle| {
                        for i in 0..N {
                            let m = &media[chan[i]];
                            let busy = m.senses(i) || nav[i] > now;
                            assert_eq!(
                                busy,
                                o.sensed[i] > 0 || nav[i] > now,
                                "seed {seed} step {step} busy({i})"
                            );
                            if !busy {
                                let floor = now.saturating_sub(dcf::EIFS_US);
                                let derived = idle_since(m.last_release(i), stamp[i], nav[i]);
                                assert_eq!(
                                    derived.max(floor),
                                    o.idle_since[i].max(floor),
                                    "seed {seed} step {step} idle_since({i}) at {now}"
                                );
                            }
                        }
                    };
                // NAV expiry timers run in time order, before the edges of
                // their microsecond; queries run on both sides of them.
                expiries.sort_unstable();
                let fire_until =
                    |limit: Micros,
                     media: &[Medium; 2],
                     stamp: &mut [Micros],
                     o: &mut CountingOracle,
                     expiries: &mut Vec<(Micros, NodeId)>| {
                        while expiries.first().is_some_and(|&(at, _)| at <= limit) {
                            let (at, i) = expiries.remove(0);
                            if nav[i] <= at && !media[chan[i]].senses(i) {
                                stamp[i] = at;
                            }
                            if nav[i] <= at && o.sensed[i] == 0 {
                                o.idle_since[i] = at;
                            }
                        }
                    };
                fire_until(
                    now.saturating_sub(1),
                    &media,
                    &mut stamp,
                    &mut oracle,
                    &mut expiries,
                );
                query(&media, &nav, &stamp, &oracle);
                fire_until(now, &media, &mut stamp, &mut oracle, &mut expiries);
                query(&media, &nav, &stamp, &oracle);

                match rng.gen_range(0..10) {
                    // A frame starts on a random medium.
                    0..=2 => {
                        let m = rng.gen_range(0..2);
                        let node = rng.gen_range(0..N);
                        if chan[node] != m || oracle.flights.iter().any(|f| f.node == node) {
                            continue;
                        }
                        let mut set = media[m].take_set();
                        let listeners: Vec<NodeId> =
                            senses[node].iter().filter(|&i| chan[i] == m).collect();
                        for &i in &listeners {
                            set.insert(i);
                        }
                        let end = now + rng.gen_range(20..2000u64);
                        media[m].start_tx(node, frame(), Rate::R1, now, end, set, |_| true);
                        oracle.flights.push(Flight {
                            medium: m,
                            node,
                            listeners,
                            applied: false,
                        });
                    }
                    // A frame's carrier sense lands.
                    3 | 4 => {
                        let Some(f) = oracle.flights.iter_mut().find(|f| !f.applied) else {
                            continue;
                        };
                        f.applied = true;
                        media[f.medium].apply_cs(f.node, &contending, &mut hits);
                        let mut expect = Vec::new();
                        for &i in &f.listeners {
                            oracle.sensed[i] += 1;
                            if oracle.sensed[i] == 1 && nav[i] <= now && contending.contains(i) {
                                expect.push(i);
                            }
                        }
                        expect.sort_unstable();
                        assert_eq!(
                            fired(&hits, &nav, now),
                            expect,
                            "seed {seed} step {step} busy hits"
                        );
                    }
                    // A carrier-sensed frame ends.
                    5 | 6 => {
                        let Some(k) = oracle.flights.iter().position(|f| f.applied) else {
                            continue;
                        };
                        let f = oracle.flights.remove(k);
                        let tx = media[f.medium].end_tx(f.node).expect("in flight");
                        media[f.medium].retire(tx, now, &contending, &mut hits);
                        for &i in &f.listeners {
                            oracle.sensed[i] -= 1;
                            if oracle.sensed[i] == 0 && nav[i] <= now {
                                oracle.idle_since[i] = now;
                            }
                        }
                        let mut expect: Vec<NodeId> = f
                            .listeners
                            .iter()
                            .copied()
                            .filter(|&i| oracle.sensed[i] == 0 && nav[i] <= now)
                            .filter(|&i| contending.contains(i))
                            .collect();
                        expect.sort_unstable();
                        assert_eq!(
                            fired(&hits, &nav, now),
                            expect,
                            "seed {seed} step {step} release hits"
                        );
                        // The transmitter stamps its own end.
                        if !media[f.medium].senses(f.node) && nav[f.node] <= now {
                            stamp[f.node] = now;
                        }
                        if oracle.sensed[f.node] == 0 && nav[f.node] <= now {
                            oracle.idle_since[f.node] = now;
                        }
                    }
                    // An overheard RTS/CTS sets a NAV, always longer than
                    // one EIFS as the simulator's are.
                    7 => {
                        let i = rng.gen_range(0..N);
                        let until = now + rng.gen_range(dcf::EIFS_US + 1..3000);
                        if until > nav[i] {
                            nav[i] = until;
                            expiries.push((until, i));
                        }
                    }
                    // A station that is not transmitting switches channel,
                    // mid-frame or not.
                    8 => {
                        let i = rng.gen_range(0..N);
                        if oracle.flights.iter().any(|f| f.node == i) {
                            continue;
                        }
                        let (from, to) = (chan[i], 1 - chan[i]);
                        media[from].detach(i);
                        chan[i] = to;
                        media[to].attach(i, |tx| senses[tx].contains(i));
                        for f in &mut oracle.flights {
                            if f.medium == from {
                                if let Some(k) = f.listeners.iter().position(|&l| l == i) {
                                    f.listeners.remove(k);
                                    oracle.sensed[i] -= f.applied as u32;
                                }
                            } else if senses[f.node].contains(i) {
                                f.listeners.push(i);
                                oracle.sensed[i] += f.applied as u32;
                            }
                        }
                        nav[i] = 0;
                        stamp[i] = now;
                        oracle.idle_since[i] = now;
                    }
                    // Stations enter and leave contention.
                    _ => {
                        for _ in 0..12 {
                            let i = rng.gen_range(0..N);
                            if !contending.remove(i) {
                                contending.insert(i);
                            }
                        }
                    }
                }
                assert!(
                    media.iter().all(Medium::busy_consistent),
                    "seed {seed} step {step}"
                );
            }
        }
    }
}
