//! Cached sensing topology: pairwise RSSI and carrier-sense reachability.
//!
//! Station positions are fixed for the life of a scenario and
//! [`RadioConfig::rssi_dbm`](crate::radio::RadioConfig::rssi_dbm) is a pure
//! function of the two positions, so the per-transmission "who can sense
//! this?" loop — O(stations) of `log10` path-loss math on every frame — can
//! be computed once into an index-based matrix. [`SensingTopology`] holds:
//!
//! * the full pairwise RSSI matrix (`tx × rx`), bit-identical to calling
//!   `rssi_dbm` afresh (it *is* the same call, memoized);
//! * one carrier-sense row per transmitter: a bitset of the listeners whose
//!   cached RSSI clears the CS threshold (self excluded) — a transmission's
//!   `sensed_by` set becomes one word-wise AND with the channel-membership
//!   bitset instead of an O(stations) float loop;
//! * a sniffer RSSI matrix (`sniffer × tx`) for the capture path.
//!
//! The cache is *incrementally maintained*: joining a station, moving one,
//! or adding a sniffer recomputes only the dirty row + column
//! ([`SensingTopology::add_station`], [`SensingTopology::update_station`],
//! [`SensingTopology::add_sniffer`]) — O(population) per change, against
//! O(population²) for the full [`SensingTopology::rebuild`], which remains
//! as the reference implementation the incremental paths are proven
//! bit-identical to (`tests/topology_incremental.rs`). Every mutation bumps
//! an [`epoch`](SensingTopology::epoch) counter, the explicit dirty
//! protocol consumers (fade caches, shard drift detection) key off instead
//! of guessing from population counts. Fading is time-varying and
//! deliberately *not* cached here — callers add the current fade on top of
//! the cached path loss.

use crate::events::NodeId;
use crate::geometry::Pos;
use crate::radio::RadioConfig;

/// A set of node ids as a bitset. Iteration is ascending, matching the
/// `0..stations.len()` order of the loops it replaces, so replacing a
/// `Vec<NodeId>` built by such a loop preserves event order exactly.
#[derive(Clone, Debug, Default)]
pub struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// An empty set.
    pub fn new() -> NodeSet {
        NodeSet::default()
    }

    /// Adds `id`, growing the backing storage as needed.
    pub fn insert(&mut self, id: NodeId) {
        let word = id / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (id % 64);
    }

    /// Removes `id`; returns whether it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let word = id / 64;
        if word >= self.words.len() {
            return false;
        }
        let mask = 1 << (id % 64);
        let was = self.words[word] & mask != 0;
        self.words[word] &= !mask;
        was
    }

    /// Membership test.
    pub fn contains(&self, id: NodeId) -> bool {
        self.words
            .get(id / 64)
            .is_some_and(|w| w & (1 << (id % 64)) != 0)
    }

    /// Removes every element, keeping capacity.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// True when no id is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of ids present.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + b)
            })
        })
    }

    /// Snapshots the backing words into `out` (cleared first). Callers on
    /// the carrier-sense hot path walk the bits of the copy directly —
    /// ascending, exactly like [`NodeSet::iter`] — instead of extracting
    /// every set bit into a `Vec<NodeId>` per transmission.
    pub fn copy_words_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.words);
    }

    fn words(&self) -> &[u64] {
        &self.words
    }
}

/// The precomputed pairwise radio geometry of the current population.
#[derive(Default)]
pub struct SensingTopology {
    /// Stations covered (matrix dimension).
    n: usize,
    /// Sniffers covered.
    sniffers: usize,
    /// Row stride of `rssi` and `sniffer_rssi` (≥ `n`; extra columns are
    /// reserved growth room so a join extends rows in place).
    cap: usize,
    /// Words per carrier-sense row (derived from `cap`).
    wpr: usize,
    /// Mutation counter: bumped by every `rebuild`/`add_*`/`update_*` call.
    epoch: u64,
    /// Station positions, the inputs the cache is derived from.
    positions: Vec<Pos>,
    /// Sniffer positions.
    sniffer_positions: Vec<Pos>,
    /// Path-loss RSSI, `[tx * cap + rx]`, dBm.
    rssi: Vec<f64>,
    /// Carrier-sense reachability rows, `wpr` words per transmitter: bit
    /// `rx` set when `rssi[tx][rx] >= cs_threshold_dbm` and `rx != tx`.
    sensed: Vec<u64>,
    /// Pair-coupling rows, same layout: bit `rx` set when `rssi[tx][rx]`
    /// clears the effective coupling floor (and `rx != tx`) — the edges of
    /// the RF-isolation graph [`crate::shard`] partitions along. Carrier
    /// sense and decode range are subsets by construction (the floor is
    /// clamped under both thresholds).
    coupled: Vec<u64>,
    /// Path-loss RSSI at each sniffer, `[sniffer * cap + tx]`, dBm.
    sniffer_rssi: Vec<f64>,
}

impl SensingTopology {
    /// Stations currently covered by the cache.
    #[inline]
    pub fn station_count(&self) -> usize {
        self.n
    }

    /// Sniffers currently covered by the cache.
    #[inline]
    pub fn sniffer_count(&self) -> usize {
        self.sniffers
    }

    /// The mutation epoch: incremented by every population or position
    /// change. Consumers that derive state from the topology (shard plans,
    /// fade caches) record the epoch they saw and compare instead of
    /// guessing from population counts — a moved station changes no count
    /// but does bump the epoch, so position changes can't be silently
    /// missed.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The position station `id` was last registered at.
    #[inline]
    pub fn position(&self, id: NodeId) -> Pos {
        self.positions[id]
    }

    /// Pre-sizes the cache for `stations`/`sniffers` before a batch of
    /// `add_station`/`add_sniffer` calls: one exact allocation, no
    /// geometric overshoot. Scenario builders know their final populations,
    /// so the incremental join path ends at exactly the footprint a
    /// one-shot `rebuild` would have had.
    pub fn reserve(&mut self, stations: usize, sniffers: usize) {
        if stations > self.cap {
            self.grow(stations);
        }
        self.positions
            .reserve_exact(stations.saturating_sub(self.positions.len()));
        self.sniffer_positions
            .reserve_exact(sniffers.saturating_sub(self.sniffer_positions.len()));
        let want = sniffers.max(self.sniffers) * self.cap;
        self.sniffer_rssi
            .reserve_exact(want.saturating_sub(self.sniffer_rssi.len()));
    }

    /// Re-strides every matrix to `new_cap` columns. Pure copies — no RSSI
    /// is recomputed, so grown caches stay bit-identical to a fresh
    /// rebuild. Growth reserves the *full* `new_cap × new_cap` matrix up
    /// front (exact when the caller sized via [`SensingTopology::reserve`];
    /// geometric-doubling overshoot otherwise is address space the ramp
    /// never touches — see the allocation note in
    /// [`SensingTopology::rebuild`]).
    fn grow(&mut self, new_cap: usize) {
        debug_assert!(new_cap > self.cap);
        let (old_cap, old_wpr) = (self.cap, self.wpr);
        let new_wpr = new_cap.div_ceil(64).max(1);
        let mut rssi = Vec::new();
        rssi.reserve_exact(new_cap * new_cap);
        rssi.resize(self.n * new_cap, f64::NAN);
        for tx in 0..self.n {
            rssi[tx * new_cap..tx * new_cap + self.n]
                .copy_from_slice(&self.rssi[tx * old_cap..tx * old_cap + self.n]);
        }
        self.rssi = rssi;
        let mut sensed = Vec::new();
        sensed.reserve_exact(new_cap * new_wpr);
        sensed.resize(self.n * new_wpr, 0);
        let mut coupled = Vec::new();
        coupled.reserve_exact(new_cap * new_wpr);
        coupled.resize(self.n * new_wpr, 0);
        for tx in 0..self.n {
            sensed[tx * new_wpr..tx * new_wpr + old_wpr]
                .copy_from_slice(&self.sensed[tx * old_wpr..(tx + 1) * old_wpr]);
            coupled[tx * new_wpr..tx * new_wpr + old_wpr]
                .copy_from_slice(&self.coupled[tx * old_wpr..(tx + 1) * old_wpr]);
        }
        self.sensed = sensed;
        self.coupled = coupled;
        let mut sniffer_rssi = Vec::new();
        sniffer_rssi.reserve_exact(self.sniffers * new_cap);
        sniffer_rssi.resize(self.sniffers * new_cap, f64::NAN);
        for s in 0..self.sniffers {
            sniffer_rssi[s * new_cap..s * new_cap + self.n]
                .copy_from_slice(&self.sniffer_rssi[s * old_cap..s * old_cap + self.n]);
        }
        self.sniffer_rssi = sniffer_rssi;
        self.cap = new_cap;
        self.wpr = new_wpr;
    }

    /// Registers a joining station and computes only its dirty row +
    /// column: RSSI to and from every existing station, `sensed`/`coupled`
    /// bits in both directions, and its column in every sniffer row —
    /// O(population) against the O(population²) full rebuild, and
    /// bit-identical to it (same pure calls in the same argument order).
    /// Returns the new station's id.
    pub fn add_station(&mut self, pos: Pos, radio: &RadioConfig) -> NodeId {
        if self.n == self.cap {
            self.grow((self.cap * 2).max(8));
        }
        let id = self.n;
        let (cap, wpr) = (self.cap, self.wpr);
        self.n = id + 1;
        self.positions.push(pos);
        self.rssi.resize(self.n * cap, f64::NAN);
        self.sensed.resize(self.n * wpr, 0);
        self.coupled.resize(self.n * wpr, 0);
        let floor = radio.effective_coupling_floor_dbm();
        let (col_word, col_mask) = (id / 64, 1u64 << (id % 64));
        for other in 0..self.n {
            // Row `id → other` (the diagonal included, as in `rebuild`).
            let out = radio.rssi_dbm(pos, self.positions[other]);
            self.rssi[id * cap + other] = out;
            if other != id {
                if out >= radio.cs_threshold_dbm {
                    self.sensed[id * wpr + other / 64] |= 1 << (other % 64);
                }
                if out >= floor {
                    self.coupled[id * wpr + other / 64] |= 1 << (other % 64);
                }
                // Column `other → id`.
                let inc = radio.rssi_dbm(self.positions[other], pos);
                self.rssi[other * cap + id] = inc;
                if inc >= radio.cs_threshold_dbm {
                    self.sensed[other * wpr + col_word] |= col_mask;
                }
                if inc >= floor {
                    self.coupled[other * wpr + col_word] |= col_mask;
                }
            }
        }
        for s in 0..self.sniffers {
            self.sniffer_rssi[s * cap + id] = radio.rssi_dbm(pos, self.sniffer_positions[s]);
        }
        self.epoch += 1;
        id
    }

    /// Moves station `id` to `pos`, recomputing only its row + column
    /// (both bitset directions and every sniffer's column entry). O(n)
    /// per move; bit-identical to a full rebuild at the new positions.
    pub fn update_station(&mut self, id: NodeId, pos: Pos, radio: &RadioConfig) {
        assert!(
            id < self.n,
            "update_station({id}) beyond population {}",
            self.n
        );
        self.positions[id] = pos;
        let (cap, wpr) = (self.cap, self.wpr);
        let floor = radio.effective_coupling_floor_dbm();
        self.sensed[id * wpr..(id + 1) * wpr].fill(0);
        self.coupled[id * wpr..(id + 1) * wpr].fill(0);
        let (col_word, col_mask) = (id / 64, 1u64 << (id % 64));
        for other in 0..self.n {
            let out = radio.rssi_dbm(pos, self.positions[other]);
            self.rssi[id * cap + other] = out;
            if other != id {
                if out >= radio.cs_threshold_dbm {
                    self.sensed[id * wpr + other / 64] |= 1 << (other % 64);
                }
                if out >= floor {
                    self.coupled[id * wpr + other / 64] |= 1 << (other % 64);
                }
                let inc = radio.rssi_dbm(self.positions[other], pos);
                self.rssi[other * cap + id] = inc;
                let s = &mut self.sensed[other * wpr + col_word];
                if inc >= radio.cs_threshold_dbm {
                    *s |= col_mask;
                } else {
                    *s &= !col_mask;
                }
                let c = &mut self.coupled[other * wpr + col_word];
                if inc >= floor {
                    *c |= col_mask;
                } else {
                    *c &= !col_mask;
                }
            }
        }
        for s in 0..self.sniffers {
            self.sniffer_rssi[s * cap + id] = radio.rssi_dbm(pos, self.sniffer_positions[s]);
        }
        self.epoch += 1;
    }

    /// Registers a new sniffer and computes its RSSI row over the current
    /// station population. O(n). Returns the sniffer's index.
    pub fn add_sniffer(&mut self, pos: Pos, radio: &RadioConfig) -> usize {
        let idx = self.sniffers;
        self.sniffers = idx + 1;
        self.sniffer_positions.push(pos);
        self.sniffer_rssi.resize(self.sniffers * self.cap, f64::NAN);
        for tx in 0..self.n {
            self.sniffer_rssi[idx * self.cap + tx] = radio.rssi_dbm(self.positions[tx], pos);
        }
        self.epoch += 1;
        idx
    }

    /// Recomputes the full cache for the given populations — the O(n²)
    /// reference implementation the incremental paths above are proven
    /// bit-identical against, and the bulk path for one-shot builds.
    pub fn rebuild(&mut self, station_pos: &[Pos], sniffer_pos: &[Pos], radio: &RadioConfig) {
        let n = station_pos.len();
        self.n = n;
        self.sniffers = sniffer_pos.len();
        self.cap = n;
        self.wpr = n.div_ceil(64).max(1);
        self.positions.clear();
        self.positions.extend_from_slice(station_pos);
        self.sniffer_positions.clear();
        self.sniffer_positions.extend_from_slice(sniffer_pos);
        // Exact-size matrix, old buffer dropped first: a one-shot rebuild
        // knows its final dimension, so it never pays growth overshoot.
        // The incremental join path reaches the same exact footprint when
        // the builder pre-sizes via `reserve`; un-hinted joins fall back to
        // geometric doubling whose over-reservation is address space the
        // run never writes (untouched pages stay non-resident — measured
        // flat against the ramp-320 RSS pin either way).
        self.rssi = Vec::new();
        self.rssi.reserve_exact(n * n);
        self.sensed.clear();
        self.sensed.resize(n * self.wpr, 0);
        self.coupled.clear();
        self.coupled.resize(n * self.wpr, 0);
        let floor = radio.effective_coupling_floor_dbm();
        for tx in 0..n {
            for rx in 0..n {
                let rssi = radio.rssi_dbm(station_pos[tx], station_pos[rx]);
                self.rssi.push(rssi);
                if rx != tx && rssi >= radio.cs_threshold_dbm {
                    self.sensed[tx * self.wpr + rx / 64] |= 1 << (rx % 64);
                }
                if rx != tx && rssi >= floor {
                    self.coupled[tx * self.wpr + rx / 64] |= 1 << (rx % 64);
                }
            }
        }
        self.sniffer_rssi = Vec::new();
        self.sniffer_rssi.reserve_exact(sniffer_pos.len() * n);
        for &sp in sniffer_pos {
            for &tp in station_pos {
                self.sniffer_rssi.push(radio.rssi_dbm(tp, sp));
            }
        }
        self.epoch += 1;
    }

    /// Cached path-loss RSSI of the `tx → rx` station link, dBm.
    #[inline]
    pub fn rssi(&self, tx: NodeId, rx: NodeId) -> f64 {
        self.rssi[tx * self.cap + rx]
    }

    /// Cached path-loss RSSI of station `tx` at sniffer `sniffer`, dBm.
    #[inline]
    pub fn sniffer_rssi(&self, sniffer: usize, tx: NodeId) -> f64 {
        self.sniffer_rssi[sniffer * self.cap + tx]
    }

    /// Whether `rx` carrier-senses transmissions from `tx` (always false
    /// for `rx == tx`; the row excludes self).
    #[inline]
    pub fn sensed(&self, tx: NodeId, rx: NodeId) -> bool {
        self.sensed[tx * self.wpr + rx / 64] & (1 << (rx % 64)) != 0
    }

    /// Whether stations `a` and `b` are RF-coupled: their path-loss RSSI
    /// clears the effective coupling floor (always false for `a == b`).
    /// Path loss is symmetric, so this relation is too.
    #[inline]
    pub fn coupled(&self, a: NodeId, b: NodeId) -> bool {
        self.coupled[a * self.wpr + b / 64] & (1 << (b % 64)) != 0
    }

    /// Fills `out` with the stations that sense a transmission from `tx`,
    /// restricted to `members` (the transmission channel's population):
    /// one word-wise AND over the cached row.
    pub fn sensed_into(&self, tx: NodeId, members: &NodeSet, out: &mut NodeSet) {
        out.words.clear();
        out.words.resize(self.wpr, 0);
        let row = &self.sensed[tx * self.wpr..(tx + 1) * self.wpr];
        for ((o, &r), &m) in out.words.iter_mut().zip(row).zip(members.words()) {
            *o = r & m;
        }
    }

    /// The boundary-coupling closure of one lockstep shard: every station
    /// whose transmissions the shard would have to observe for its own
    /// physics to be exact. Kept only for perfbench's traced pass (via
    /// [`crate::shard::ShardSpec::partition_lockstep`]) until ROADMAP item
    /// 1's benchmark PR.
    ///
    /// Let `A` be the shard's `owned` stations and `S₁` the stations
    /// directly coupled to `A` — plus `audible`, the stations any of the
    /// shard's sniffers can hear (sniffer RSSI at or above the coupling
    /// floor). Frames from `S₁` can be sensed, decoded, or sniffed inside
    /// the shard, so they must be mirrored in. But a mirrored frame's
    /// *interferer list* must also be complete — SINR sums every registered
    /// interferer with no floor cut at the receiver, and a sniffer's
    /// `missed_clean` verdict reads list emptiness — so the neighbors of
    /// `S₁` (who interfere with frames from `S₁`) are needed too. The
    /// result written to `out` is the 2-hop closure
    /// `A ∪ S₁ ∪ neighbors(S₁)`, computed as word-wise ORs of the cached
    /// coupling rows. Over-approximation is harmless (an extra mirrored
    /// frame draws no randomness and touches no owned state below the
    /// coupling floor); a missing member would be an exactness bug.
    pub fn boundary_relevance(&self, owned: &NodeSet, audible: &NodeSet, out: &mut NodeSet) {
        let mut s1 = vec![0u64; self.wpr];
        for id in owned.iter() {
            let row = &self.coupled[id * self.wpr..(id + 1) * self.wpr];
            for (w, &r) in s1.iter_mut().zip(row) {
                *w |= r;
            }
        }
        for (w, &a) in s1.iter_mut().zip(audible.words()) {
            *w |= a;
        }
        out.words.clear();
        out.words.resize(self.wpr, 0);
        out.words.copy_from_slice(&s1);
        // `owned`'s backing may be shorter than a full row (it grows
        // lazily); OR what exists.
        for (o, &a) in out.words.iter_mut().zip(owned.words()) {
            *o |= a;
        }
        for (wi, &word) in s1.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let id = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let row = &self.coupled[id * self.wpr..(id + 1) * self.wpr];
                for (o, &r) in out.words.iter_mut().zip(row) {
                    *o |= r;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn radio() -> RadioConfig {
        RadioConfig {
            cs_threshold_dbm: -85.0,
            ..RadioConfig::default()
        }
    }

    #[test]
    fn nodeset_insert_remove_iter() {
        let mut s = NodeSet::new();
        assert!(s.is_empty());
        for id in [3usize, 64, 200, 0] {
            s.insert(id);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 64, 200]);
        assert_eq!(s.len(), 4);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 200]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn matrix_matches_direct_computation() {
        let radio = radio();
        let pos: Vec<Pos> = (0..5)
            .map(|i| Pos::new(i as f64 * 20.0, (i % 2) as f64 * 7.0))
            .collect();
        let mut topo = SensingTopology::default();
        topo.rebuild(&pos, &[Pos::new(10.0, 3.0)], &radio);
        for tx in 0..pos.len() {
            for rx in 0..pos.len() {
                // Bit-identical: the cache stores the same pure function's
                // output.
                assert_eq!(topo.rssi(tx, rx), radio.rssi_dbm(pos[tx], pos[rx]));
                let expect = tx != rx && topo.rssi(tx, rx) >= radio.cs_threshold_dbm;
                assert_eq!(topo.sensed(tx, rx), expect, "sensed({tx},{rx})");
            }
            assert_eq!(
                topo.sniffer_rssi(0, tx),
                radio.rssi_dbm(pos[tx], Pos::new(10.0, 3.0))
            );
        }
    }

    #[test]
    fn sensed_into_masks_by_membership() {
        let radio = radio();
        // Three co-located stations: everyone senses everyone.
        let pos = vec![Pos::new(0.0, 0.0), Pos::new(1.0, 0.0), Pos::new(2.0, 0.0)];
        let mut topo = SensingTopology::default();
        topo.rebuild(&pos, &[], &radio);
        let mut members = NodeSet::new();
        members.insert(0);
        members.insert(2);
        let mut out = NodeSet::new();
        topo.sensed_into(0, &members, &mut out);
        // Self is excluded by the row, node 1 by membership.
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn boundary_relevance_is_the_two_hop_closure() {
        let radio = radio();
        // A chain of stations 400 m apart: each couples only with its
        // immediate neighbors (800 m is past the −110 dBm coupling floor
        // for this radio; asserted so the scenario can't silently degrade).
        let pos: Vec<Pos> = (0..6).map(|i| Pos::new(i as f64 * 400.0, 0.0)).collect();
        let mut topo = SensingTopology::default();
        topo.rebuild(&pos, &[], &radio);
        assert!(topo.coupled(0, 1) && !topo.coupled(0, 2), "chain premise");
        let mut owned = NodeSet::new();
        owned.insert(0);
        let mut out = NodeSet::new();
        topo.boundary_relevance(&owned, &NodeSet::new(), &mut out);
        // owned {0} → S1 {1} → neighbors(S1) {0, 2}.
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![0, 1, 2]);

        // A sniffer-audible station extends the closure by its neighbors.
        let mut audible = NodeSet::new();
        audible.insert(4);
        topo.boundary_relevance(&owned, &audible, &mut out);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn counts_and_epoch_track_every_mutation() {
        let radio = radio();
        let mut topo = SensingTopology::default();
        assert_eq!((topo.station_count(), topo.sniffer_count()), (0, 0));
        let e0 = topo.epoch();
        topo.rebuild(&[Pos::new(0.0, 0.0)], &[], &radio);
        assert_eq!((topo.station_count(), topo.sniffer_count()), (1, 0));
        assert!(topo.epoch() > e0);
        let e1 = topo.epoch();
        topo.add_station(Pos::new(5.0, 0.0), &radio);
        assert_eq!(topo.station_count(), 2);
        assert!(topo.epoch() > e1);
        let e2 = topo.epoch();
        // A move changes no population count — only the epoch says so.
        topo.update_station(1, Pos::new(9.0, 2.0), &radio);
        assert_eq!((topo.station_count(), topo.sniffer_count()), (2, 0));
        assert!(topo.epoch() > e2);
        let e3 = topo.epoch();
        topo.add_sniffer(Pos::new(1.0, 1.0), &radio);
        assert_eq!(topo.sniffer_count(), 1);
        assert!(topo.epoch() > e3);
    }

    /// Every matrix cell, both bitsets, and the sniffer rows must agree
    /// bit-for-bit between `incremental` and a fresh full rebuild of the
    /// same positions (the generic form is the proptest in
    /// `tests/topology_incremental.rs`).
    fn assert_matches_rebuild(topo: &SensingTopology, radio: &RadioConfig) {
        let mut fresh = SensingTopology::default();
        fresh.rebuild(&topo.positions, &topo.sniffer_positions, radio);
        let n = topo.station_count();
        for a in 0..n {
            for b in 0..n {
                assert_eq!(topo.rssi(a, b).to_bits(), fresh.rssi(a, b).to_bits());
                assert_eq!(topo.sensed(a, b), fresh.sensed(a, b), "sensed({a},{b})");
                assert_eq!(topo.coupled(a, b), fresh.coupled(a, b), "coupled({a},{b})");
            }
            for s in 0..topo.sniffer_count() {
                assert_eq!(
                    topo.sniffer_rssi(s, a).to_bits(),
                    fresh.sniffer_rssi(s, a).to_bits()
                );
            }
        }
    }

    #[test]
    fn incremental_join_and_move_match_full_rebuild() {
        let radio = radio();
        let mut topo = SensingTopology::default();
        topo.add_sniffer(Pos::new(10.0, 3.0), &radio);
        for i in 0..9 {
            topo.add_station(Pos::new(i as f64 * 20.0, (i % 3) as f64 * 7.0), &radio);
            assert_matches_rebuild(&topo, &radio);
        }
        topo.add_sniffer(Pos::new(60.0, 1.0), &radio);
        assert_matches_rebuild(&topo, &radio);
        // Moves, including ones that cross the CS threshold both ways.
        for (id, pos) in [(0, Pos::new(150.0, 0.0)), (4, Pos::new(1.0, 1.0))] {
            topo.update_station(id, pos, &radio);
            assert_matches_rebuild(&topo, &radio);
        }
    }

    #[test]
    fn reserve_avoids_restriding_and_changes_nothing() {
        let radio = radio();
        let mut hinted = SensingTopology::default();
        hinted.reserve(12, 1);
        let mut grown = SensingTopology::default();
        for i in 0..12 {
            let p = Pos::new(i as f64 * 30.0, 0.0);
            hinted.add_station(p, &radio);
            grown.add_station(p, &radio);
        }
        hinted.add_sniffer(Pos::new(5.0, 5.0), &radio);
        grown.add_sniffer(Pos::new(5.0, 5.0), &radio);
        assert_matches_rebuild(&hinted, &radio);
        assert_matches_rebuild(&grown, &radio);
    }
}
