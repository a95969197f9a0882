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
//! [`NodeSet`] bitset, and interferer lists are pooled too (via the
//! [`crate::arena`] free-list) — ending a transmission recycles both, so
//! steady-state operation allocates nothing.

use crate::arena::VecPool;
use crate::events::NodeId;
use crate::frame_info::SimFrame;
use crate::topology::NodeSet;
use wifi_frames::phy::Rate;
use wifi_frames::timing::Micros;

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
    /// Stations whose carrier sense this transmission raised (computed by
    /// the simulator at start; used to release carrier sense at end).
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

/// Interferer-list buffers the medium's arena keeps warm; both bounds
/// comfortably exceed the concurrent-transmission count of any cell while
/// capping the arena's resident ceiling in the tens of kilobytes.
const LIST_POOL_SPARES: usize = 64;
/// Largest capacity (node ids) a retained interferer list may have.
const LIST_POOL_RETAIN_CAP: usize = 256;

/// The medium of a single channel.
pub struct Medium {
    active: Vec<Transmission>,
    /// Running count of transmissions that suffered at least one overlap.
    pub collisions: u64,
    /// Running count of all transmissions.
    pub transmissions: u64,
    /// Recycled listener bitsets (returned by [`Medium::recycle`]).
    set_pool: Vec<NodeSet>,
    /// Recycled interferer lists (a bounded [`crate::arena`] free-list;
    /// concurrent-transmission counts keep it tiny in practice).
    list_pool: VecPool<NodeId>,
}

impl Default for Medium {
    fn default() -> Medium {
        Medium {
            active: Vec::new(),
            collisions: 0,
            transmissions: 0,
            set_pool: Vec::new(),
            list_pool: VecPool::new(LIST_POOL_SPARES, LIST_POOL_RETAIN_CAP),
        }
    }
}

impl Medium {
    /// An idle medium.
    pub fn new() -> Medium {
        Medium::default()
    }

    /// A cleared listener set from the pool (or a fresh one), for the
    /// caller to fill and hand to [`Medium::start_tx`].
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
        let mut interferers = self.list_pool.take();
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
    /// `collisions` if it suffered at least one overlap. Hand it back via
    /// [`Medium::recycle`] when done to keep the pools warm.
    pub fn end_tx(&mut self, node: NodeId) -> Option<Transmission> {
        let idx = self.active.iter().position(|t| t.node == node)?;
        let tx = self.active.swap_remove(idx);
        if !tx.interferers.is_empty() {
            self.collisions += 1;
        }
        Some(tx)
    }

    /// Returns a finished transmission's buffers to the pools.
    pub fn recycle(&mut self, tx: Transmission) {
        let Transmission {
            mut sensed_by,
            interferers,
            ..
        } = tx;
        sensed_by.clear();
        self.set_pool.push(sensed_by);
        self.list_pool.put(interferers);
    }

    /// Active transmissions (for carrier-sense queries).
    pub fn active(&self) -> &[Transmission] {
        &self.active
    }

    /// Mutable access to active transmissions (for channel-switch
    /// bookkeeping).
    pub fn active_mut(&mut self) -> &mut [Transmission] {
        &mut self.active
    }

    /// Marks `node`'s in-flight transmission's carrier sense as applied at
    /// its listeners; returns those listeners.
    ///
    /// # Panics
    ///
    /// If `node` has no transmission in flight.
    pub fn mark_cs_applied(&mut self, node: NodeId) -> &NodeSet {
        let t = self
            .active
            .iter_mut()
            .find(|t| t.node == node)
            .expect("carrier sense of a transmission not in flight");
        t.cs_applied = true;
        &t.sensed_by
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifi_frames::mac::MacAddr;

    fn frame() -> SimFrame {
        SimFrame::ack(MacAddr::from_id(1))
    }

    fn start(m: &mut Medium, node: NodeId, start: Micros, end: Micros) -> NodeId {
        let set = m.take_set();
        m.start_tx(node, frame(), Rate::R1, start, end, set, |_| true);
        node
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
            m.recycle(tx);
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
            m.recycle(tx);
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
        m.recycle(tx);
        let set = m.take_set();
        assert!(set.is_empty(), "pooled set is cleared");
        m.start_tx(2, frame(), Rate::R1, 0, 10, set, |_| true);
        let tc = m.end_tx(2).unwrap();
        // The pooled interferer list was cleared before reuse: only the
        // still-active transmission shows up.
        assert_eq!(tc.interferers, vec![0]);
        let _ = m.end_tx(a);
    }

    #[test]
    fn end_unknown_tx_is_none() {
        let mut m = Medium::new();
        assert!(m.end_tx(99).is_none());
    }
}
