//! RF-isolation sharding: partitioning a scenario into independent
//! simulators.
//!
//! A venue-scale deployment (the multi-hall campus the paper's conference
//! would sit in) contains groups of stations that can never interact: their
//! pairwise path loss is below every interaction threshold. Such groups —
//! connected components of the pair-coupling graph restricted to one
//! channel — are *RF-isolation components*. A per-channel simulator over
//! any coupling-closed subset of the stations (a union of whole
//! components) produces bit-identical per-station and per-sniffer results,
//! so components can run on separate threads.
//!
//! [`ShardSpec`] records a scenario build (the same adder calls
//! [`Simulator`] exposes), so the one description can be materialized as a
//! single unsharded simulator or as any grouping of component simulators:
//!
//! 1. [`ShardSpec::build_unsharded`] replays the ops into a per-channel
//!    simulator — exactly what calling the adders directly produces.
//! 2. [`ShardSpec::partition`] finds the components and packs them into at
//!    most `max_shards` shards (longest-processing-time by station count);
//!    [`ShardSpec::build_shard`] materializes one shard as an ordinary
//!    per-channel [`Simulator`] over that shard's stations and sniffers.
//!
//! Both builds replay the same ops through the same keyed adders; they
//! differ only in which stations and sniffers they replay.
//!
//! ## Why results are identical (the determinism argument)
//!
//! * **Couplings never cross components.** The component edges are "path
//!   RSSI ≥ the effective coupling floor", and the simulator ignores every
//!   pair below the floor even when both transmit on one medium: interferer
//!   registration checks `coupled`, carrier sense reaches only `sensed ⊆
//!   coupled` listeners (the floor is clamped under the CS and sensitivity
//!   thresholds), reception, NAV and probe responses check `coupled`, and
//!   sniffers apply the floor too. A transmission's full effect set
//!   therefore lies inside its component, whichever other components share
//!   its shard's channel medium.
//! * **Random streams are per-entity.** Every station draws from a
//!   counter-based stream keyed by its scenario-wide build index, and every
//!   sniffer from one keyed past the station space ([`crate::rng`]). A
//!   station's draw sequence depends only on the events it experiences,
//!   which are the same whether its component shares a simulator with
//!   others or not. Fade realizations are keyed by the same global ids.
//! * **Association picks cannot escape the component.** A joining client
//!   associates to the strongest-path-loss AP on its channel (first maximum
//!   in ascending build order). The planner adds a forced edge from each
//!   client to exactly that AP, so the client's component — and so its
//!   shard — contains it. A packed shard also holds other components' APs
//!   on that channel, but a subset argmax that contains the global argmax
//!   *is* the global argmax: in ascending build order every AP before it is
//!   strictly weaker, so none of them can win.
//! * **Same-timestamp ordering is preserved within a component.** Shards
//!   add stations in ascending global build order, so the relative event
//!   sequence of any two same-component events matches the unsharded run;
//!   events in different components never affect common state, so their
//!   relative order is immaterial.
//!
//! Dynamic channel management migrates stations between channels at run
//! time, which can couple stations a fixed plan put in different shards;
//! `partition` declines (returns `None`) when it is enabled, as it does
//! when some client's channel has no AP anywhere (the client would rescan
//! onto another channel). Callers fall back to the unsharded build.
//!
//! A plan is computed once, from the recorded build positions. A station
//! that moves at run time ([`Simulator::move_station`]) can change the
//! coupling cut, which a fixed plan cannot follow, so mobile scenarios run
//! unsharded.
//!
//! A dense coupled cell — the paper's 523-user plenary — is one component
//! per channel, so it runs as one shard per channel however many cores are
//! available.
//!
//! ## Lockstep planner (kept only for perfbench)
//!
//! [`ShardSpec::partition_lockstep`] cuts a coupled cell along BSS lines
//! and [`ShardSpec::build_lockstep_shard`] materializes one cut as a
//! full-roster simulator whose unowned stations are passive *shells*.
//! Nothing runs these shards any more: time-window lockstep execution was
//! never faster than serial and is gone. The planner surface stays
//! callable only for perfbench's traced pass until ROADMAP item 1's
//! benchmark PR removes it.

use crate::config::SimConfig;
use crate::geometry::Pos;
use crate::medium::OVERLAP_GUARD_US;
use crate::rate::RateAdaptation;
use crate::sim::{ClientConfig, Simulator};
use crate::sniffer::SnifferConfig;
use crate::station::RtsPolicy;
use crate::topology::{NodeSet, SensingTopology};
use wifi_frames::phy::Rate;
use wifi_frames::timing::Micros;

/// Default lockstep window width, µs: the widest window that is safe under
/// the default radio timing (`min(cs_delay, OVERLAP_GUARD_US)`). Kept only
/// for perfbench's traced pass until ROADMAP item 1's benchmark PR.
pub const DEFAULT_LOCKSTEP_WINDOW_US: Micros = 10;

/// One recorded station-build operation.
#[derive(Clone, Debug)]
enum StationOp {
    Ap {
        pos: Pos,
        channel_idx: usize,
        ssid_len: u32,
        adaptation: RateAdaptation,
        rts_policy: RtsPolicy,
    },
    Client(ClientConfig),
}

impl StationOp {
    fn pos(&self) -> Pos {
        match self {
            StationOp::Ap { pos, .. } => *pos,
            StationOp::Client(cfg) => cfg.pos,
        }
    }

    fn channel_idx(&self) -> usize {
        match self {
            StationOp::Ap { channel_idx, .. } => *channel_idx,
            StationOp::Client(cfg) => cfg.channel_idx,
        }
    }

    fn is_ap(&self) -> bool {
        matches!(self, StationOp::Ap { .. })
    }

    /// Replays this op into `sim` under the global station key `key`.
    fn add_to(&self, sim: &mut Simulator, key: u64) {
        match self {
            StationOp::Ap {
                pos,
                channel_idx,
                ssid_len,
                adaptation,
                rts_policy,
            } => {
                sim.add_ap_keyed(*pos, *channel_idx, *ssid_len, *adaptation, *rts_policy, key);
            }
            StationOp::Client(cfg) => {
                sim.add_client_keyed(cfg.clone(), key);
            }
        }
    }
}

/// A recorded scenario build: configuration plus the adder calls, in order.
///
/// Station keys (RNG streams, fade links, MAC addresses) are the build
/// indices, so any materialization — unsharded or sharded — reproduces the
/// same per-entity identities.
///
/// ```
/// use wifi_sim::SimConfig;
/// use wifi_sim::geometry::Pos;
/// use wifi_sim::shard::ShardSpec;
///
/// let mut spec = ShardSpec::new(SimConfig::default());
/// spec.add_ap(Pos::new(0.0, 0.0), 0, 6);      // two cells, far beyond
/// spec.add_ap(Pos::new(10_000.0, 0.0), 0, 6); // the coupling range
///
/// let mut whole = spec.build_unsharded();
/// whole.run_until(1_000_000);
///
/// // The same build, partitioned: two RF-isolation components whose
/// // summed output reproduces the unsharded run bit for bit.
/// let plan = spec.partition(8).unwrap();
/// assert_eq!(plan.shards.len(), 2);
/// let events: u64 = plan
///     .shards
///     .iter()
///     .map(|shard| {
///         let mut sim = spec.build_shard(shard);
///         sim.run_until(1_000_000);
///         sim.events_processed()
///     })
///     .sum();
/// assert_eq!(events, whole.events_processed());
/// ```
pub struct ShardSpec {
    config: SimConfig,
    stations: Vec<StationOp>,
    sniffers: Vec<SnifferConfig>,
}

/// One shard of a partitioned scenario: the stations and sniffers of a
/// group of whole RF-isolation components, materialized as one per-channel
/// [`Simulator`].
#[derive(Clone, Debug)]
pub struct Shard {
    /// Global station indices, ascending.
    stations: Vec<usize>,
    /// Global sniffer indices, ascending.
    sniffers: Vec<usize>,
}

impl Shard {
    /// Number of stations materialized into this shard.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// Sniffers materialized into this shard (global indices, ascending).
    pub fn sniffer_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.sniffers.iter().copied()
    }
}

/// The result of partitioning: shards covering every station and sniffer
/// exactly once.
pub struct ShardPlan {
    /// The shards, largest (by station count) first.
    pub shards: Vec<Shard>,
    /// RF-isolation components found before grouping (shards merge
    /// components; this is the parallelism ceiling).
    pub components: usize,
}

/// One lockstep shard: a full-roster simulator that *owns* a subset of the
/// stations (the rest are shells) and a subset of the sniffers. Built by
/// [`ShardSpec::partition_lockstep`], materialized by
/// [`ShardSpec::build_lockstep_shard`]. Kept only for perfbench's traced
/// pass until ROADMAP item 1's benchmark PR.
#[derive(Clone, Debug)]
pub struct LockstepShard {
    /// Global indices of owned stations, ascending.
    owned: Vec<usize>,
    /// `owned_mask[gi]`: does this shard own global station `gi`?
    owned_mask: Vec<bool>,
    /// `exported[gi]`: is owned station `gi` inside some sibling's
    /// relevance closure?
    exported: Vec<bool>,
    /// Global indices of owned sniffers, ascending.
    sniffers: Vec<usize>,
}

impl LockstepShard {
    /// Stations owned by this shard.
    pub fn station_count(&self) -> usize {
        self.owned.len()
    }

    /// Does this shard own global station `gi`?
    pub fn owns(&self, gi: usize) -> bool {
        self.owned_mask.get(gi).copied().unwrap_or(false)
    }

    /// Owned stations (global indices, ascending).
    pub fn owned_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.owned.iter().copied()
    }

    /// Owned sniffers (global indices, ascending).
    pub fn sniffer_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.sniffers.iter().copied()
    }

    /// How many owned stations are exported across the cut.
    pub fn exported_count(&self) -> usize {
        self.exported.iter().filter(|&&e| e).count()
    }
}

/// The result of lockstep partitioning: every station owned by exactly one
/// shard, every sniffer owned by exactly one shard, and a validated window.
/// Kept only for perfbench's traced pass until ROADMAP item 1's benchmark
/// PR.
pub struct LockstepPlan {
    /// The shards, largest (by owned-station count) first.
    pub shards: Vec<LockstepShard>,
    /// The validated lockstep window width, µs.
    pub window_us: Micros,
}

/// Union-find over scenario entities (stations, then sniffers).
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: lower root wins, so component identity is
            // independent of edge processing order.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }

    /// Numbers the sets densely in first-seen order of entity index:
    /// returns each entity's set number and the number of sets.
    fn dense_ids(&mut self) -> (Vec<usize>, usize) {
        let n = self.parent.len();
        let mut id_of_root = vec![usize::MAX; n];
        let mut count = 0;
        let mut ids = Vec::with_capacity(n);
        for e in 0..n {
            let root = self.find(e);
            if id_of_root[root] == usize::MAX {
                id_of_root[root] = count;
                count += 1;
            }
            ids.push(id_of_root[root]);
        }
        (ids, count)
    }
}

/// Longest-processing-time packing: items, largest `sizes` first, each go
/// to the least-loaded of at most `max_bins` bins (at least one).
/// Deterministic — stable sort, lowest bin wins ties. Returns the item
/// indices of each bin in placement order.
fn lpt_pack(sizes: &[usize], max_bins: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(sizes[i]));
    let bins = max_bins.min(sizes.len()).max(1);
    let mut loads = vec![0usize; bins];
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); bins];
    for i in order {
        let bin = (0..bins)
            .min_by_key(|&b| loads[b])
            .expect("at least one bin");
        loads[bin] += sizes[i];
        assignment[bin].push(i);
    }
    assignment
}

impl ShardSpec {
    /// A new, empty scenario description.
    pub fn new(config: SimConfig) -> ShardSpec {
        ShardSpec {
            config,
            stations: Vec::new(),
            sniffers: Vec::new(),
        }
    }

    /// The configuration this scenario was described against.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Mutable configuration access (e.g. to switch off ground-truth
    /// recording for perf runs). Changing the channel list after recording
    /// stations is on the caller.
    pub fn config_mut(&mut self) -> &mut SimConfig {
        &mut self.config
    }

    /// Records an access point (defaults mirror [`Simulator::add_ap`]).
    /// Returns its global station index.
    pub fn add_ap(&mut self, pos: Pos, channel_idx: usize, ssid_len: u32) -> usize {
        self.add_ap_with(
            pos,
            channel_idx,
            ssid_len,
            RateAdaptation::Arf(Rate::R11),
            RtsPolicy::Never,
        )
    }

    /// Records an access point with explicit adaptation and RTS policy.
    pub fn add_ap_with(
        &mut self,
        pos: Pos,
        channel_idx: usize,
        ssid_len: u32,
        adaptation: RateAdaptation,
        rts_policy: RtsPolicy,
    ) -> usize {
        assert!(
            channel_idx < self.config.channels.len(),
            "bad channel index"
        );
        self.stations.push(StationOp::Ap {
            pos,
            channel_idx,
            ssid_len,
            adaptation,
            rts_policy,
        });
        self.stations.len() - 1
    }

    /// Records a client. Returns its global station index.
    pub fn add_client(&mut self, cfg: ClientConfig) -> usize {
        assert!(
            cfg.channel_idx < self.config.channels.len(),
            "bad channel index"
        );
        self.stations.push(StationOp::Client(cfg));
        self.stations.len() - 1
    }

    /// Records a sniffer. Returns its global sniffer index.
    pub fn add_sniffer(&mut self, cfg: SnifferConfig) -> usize {
        assert!(
            cfg.channel_idx < self.config.channels.len(),
            "bad channel index"
        );
        self.sniffers.push(cfg);
        self.sniffers.len() - 1
    }

    /// Stations recorded so far.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// Sniffers recorded so far.
    pub fn sniffer_count(&self) -> usize {
        self.sniffers.len()
    }

    /// Materializes the whole scenario as one per-channel simulator —
    /// identical to having called the [`Simulator`] adders directly.
    pub fn build_unsharded(&self) -> Simulator {
        self.build(0..self.stations.len(), 0..self.sniffers.len())
    }

    /// A per-channel simulator over the given stations and sniffers
    /// (global indices, ascending), each added under its global key.
    fn build(
        &self,
        stations: impl ExactSizeIterator<Item = usize>,
        sniffers: impl ExactSizeIterator<Item = usize>,
    ) -> Simulator {
        let mut sim = Simulator::new(self.config.clone());
        sim.reserve_stations(stations.len(), sniffers.len());
        for gi in stations {
            self.stations[gi].add_to(&mut sim, gi as u64);
        }
        for si in sniffers {
            sim.add_sniffer_keyed(self.sniffers[si], si as u64);
        }
        sim
    }

    /// Does some client's channel have no AP at all? Its join would rescan
    /// onto another channel, outside any fixed plan.
    fn has_orphan_client(&self) -> bool {
        let has_ap = |ch: usize| {
            self.stations
                .iter()
                .any(|o| o.is_ap() && o.channel_idx() == ch)
        };
        self.stations
            .iter()
            .any(|op| !op.is_ap() && !has_ap(op.channel_idx()))
    }

    /// Each client's join-time AP as `(client, ap)`, ascending by client:
    /// the co-channel AP with the strongest path RSSI, first maximum in
    /// build order — exactly the join-time argmax. Callers rule out orphan
    /// clients first.
    fn client_aps(&self) -> Vec<(usize, usize)> {
        let radio = &self.config.radio;
        let mut client_ap = Vec::new();
        for (c, client) in self.stations.iter().enumerate() {
            if client.is_ap() {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for (i, op) in self.stations.iter().enumerate() {
                if op.is_ap() && op.channel_idx() == client.channel_idx() {
                    let rssi = radio.rssi_dbm(op.pos(), client.pos());
                    if best.is_none_or(|(_, b)| rssi > b) {
                        best = Some((i, rssi));
                    }
                }
            }
            let (ap, _) = best.expect("orphan clients are ruled out first");
            client_ap.push((c, ap));
        }
        client_ap
    }

    /// Partitions the scenario into at most `max_shards` shards of
    /// RF-isolation components, or `None` when the scenario cannot be
    /// sharded (dynamic channel management, or a client whose channel has
    /// no AP and would rescan across channels).
    pub fn partition(&self, max_shards: usize) -> Option<ShardPlan> {
        if self.config.channel_mgmt.is_some() || max_shards == 0 || self.has_orphan_client() {
            return None;
        }
        let n = self.stations.len();
        let radio = &self.config.radio;
        let floor = radio.effective_coupling_floor_dbm();
        // Direct path-loss math: materializing an O(N²) topology just for
        // this one pass would be a multi-hundred-MB transient at venue
        // scale.
        let mut uf = UnionFind::new(n + self.sniffers.len());
        // Coupled same-channel pairs interact; everything below the floor
        // is ignored by the simulator entirely.
        for (a, op_a) in self.stations.iter().enumerate() {
            for (b, op_b) in self.stations.iter().enumerate().skip(a + 1) {
                if op_a.channel_idx() == op_b.channel_idx()
                    && radio.rssi_dbm(op_a.pos(), op_b.pos()) >= floor
                {
                    uf.union(a, b);
                }
            }
        }
        // Forced edge: each client joins its join-time AP wherever it is;
        // keep that AP in the client's component.
        for (c, ap) in self.client_aps() {
            uf.union(c, ap);
        }
        // A sniffer hears (or counts a miss for) every co-channel station
        // whose path RSSI at the sniffer clears the floor; all of them must
        // share the sniffer's shard.
        for (si, cfg) in self.sniffers.iter().enumerate() {
            for (i, op) in self.stations.iter().enumerate() {
                if op.channel_idx() == cfg.channel_idx && radio.rssi_dbm(op.pos(), cfg.pos) >= floor
                {
                    uf.union(n + si, i);
                }
            }
        }
        // Group the members by component (a sniffer coupled to nothing is
        // its own silent component).
        let (comp_of, components) = uf.dense_ids();
        let mut comps = vec![
            Shard {
                stations: Vec::new(),
                sniffers: Vec::new(),
            };
            components
        ];
        for i in 0..n {
            comps[comp_of[i]].stations.push(i);
        }
        for si in 0..self.sniffers.len() {
            comps[comp_of[n + si]].sniffers.push(si);
        }
        // Pack by station count into at most `max_shards` shards.
        let sizes: Vec<usize> = comps.iter().map(|c| c.stations.len()).collect();
        let mut shards = Vec::new();
        for group in lpt_pack(&sizes, max_shards) {
            if group.is_empty() {
                continue;
            }
            let mut shard = Shard {
                stations: Vec::new(),
                sniffers: Vec::new(),
            };
            for &ci in &group {
                shard.stations.extend_from_slice(&comps[ci].stations);
                shard.sniffers.extend_from_slice(&comps[ci].sniffers);
            }
            // Ascending global order (components are internally ascending;
            // merge across them) so same-timestamp sequence order matches
            // the unsharded build.
            shard.stations.sort_unstable();
            shard.sniffers.sort_unstable();
            shards.push(shard);
        }
        shards.sort_by_key(|s| std::cmp::Reverse(s.stations.len()));
        Some(ShardPlan { shards, components })
    }

    /// Materializes one shard as a per-channel simulator over the shard's
    /// stations and sniffers, keyed by their global indices.
    pub fn build_shard(&self, shard: &Shard) -> Simulator {
        assert!(
            self.config.channel_mgmt.is_none(),
            "component shards are incompatible with dynamic channel assignment"
        );
        self.build(
            shard.stations.iter().copied(),
            shard.sniffers.iter().copied(),
        )
    }

    /// Cuts the scenario along BSS lines into at most `max_shards` lockstep
    /// shards, or `None` when the cut declines: dynamic channel management,
    /// an orphan client (cross-channel rescan), `max_shards < 2`, an unsafe
    /// `window_us` (zero, or wider than `min(cs_delay, OVERLAP_GUARD_US)`),
    /// or a scenario whose BSS groups cannot fill more than one shard.
    /// Nothing runs the result; kept only for perfbench's traced pass until
    /// ROADMAP item 1's benchmark PR.
    pub fn partition_lockstep(&self, max_shards: usize, window_us: Micros) -> Option<LockstepPlan> {
        let owned = self.bss_cut(max_shards, window_us)?;
        Some(self.lockstep_plan(owned, window_us))
    }

    /// The BSS-cut step of [`ShardSpec::partition_lockstep`]: each shard's
    /// owned stations (ascending), largest shard first, or `None` where
    /// lockstep declines. Builds no topology. Kept only for perfbench's
    /// traced pass until ROADMAP item 1's benchmark PR.
    fn bss_cut(&self, max_shards: usize, window_us: Micros) -> Option<Vec<Vec<usize>>> {
        let n = self.stations.len();
        if self.config.channel_mgmt.is_some() || max_shards < 2 || n == 0 {
            return None;
        }
        // The window must not outlive either influence-latency bound: a
        // transmission started in the first microsecond of a window must
        // not owe carrier sense (one cs_delay later) or retroactive
        // interferer registration (the overlap guard) to a sibling shard
        // before the boundary exchange can deliver it.
        if window_us == 0 || window_us > self.config.cs_delay_us.min(OVERLAP_GUARD_US) {
            return None;
        }
        // Orphan clients rescan onto other channels, toward APs a sibling
        // shard may own; decline exactly as component sharding does.
        if self.has_orphan_client() {
            return None;
        }
        // BSS grouping: co-own each client with its join-time argmax AP.
        // Downlink MSDUs are enqueued at the AP from the client's own
        // traffic handler; only co-ownership keeps that enqueue
        // shard-local.
        let mut uf = UnionFind::new(n);
        for (c, ap) in self.client_aps() {
            uf.union(c, ap);
        }
        let (group_of, count) = uf.dense_ids();
        if count < 2 {
            return None; // one BSS: nothing to split
        }
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); count];
        for (i, &g) in group_of.iter().enumerate() {
            groups[g].push(i);
        }
        // Pack by station count, then ascending owned lists.
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        let mut owned_lists: Vec<Vec<usize>> = lpt_pack(&sizes, max_shards)
            .into_iter()
            .filter(|bin| !bin.is_empty())
            .map(|bin| {
                let mut v: Vec<usize> = bin
                    .iter()
                    .flat_map(|&g| groups[g].iter().copied())
                    .collect();
                v.sort_unstable();
                v
            })
            .collect();
        if owned_lists.len() < 2 {
            return None;
        }
        owned_lists.sort_by_key(|v| (std::cmp::Reverse(v.len()), v.first().copied()));
        Some(owned_lists)
    }

    /// The relevance step of [`ShardSpec::partition_lockstep`]: assigns the
    /// sniffers to the BSS cut's shards and derives each shard's exported
    /// stations from relevance closures over a full N×N topology — the
    /// expensive part of lockstep planning. Kept only for perfbench's
    /// traced pass until ROADMAP item 1's benchmark PR.
    fn lockstep_plan(&self, owned_lists: Vec<Vec<usize>>, window_us: Micros) -> LockstepPlan {
        let n = self.stations.len();
        let radio = &self.config.radio;
        let floor = radio.effective_coupling_floor_dbm();
        let k = owned_lists.len();
        // Sniffers: deterministic round-robin by global index. Each sniffer
        // is wholly owned by one shard; the relevance closure below covers
        // every transmission it can hear.
        let mut shard_sniffers: Vec<Vec<usize>> = vec![Vec::new(); k];
        for si in 0..self.sniffers.len() {
            shard_sniffers[si % k].push(si);
        }
        // Per-shard relevance closures over a throwaway full topology:
        // R_B = owned ∪ coupled-or-audible (S₁) ∪ neighbors(S₁).
        let station_pos: Vec<Pos> = self.stations.iter().map(|o| o.pos()).collect();
        let sniffer_pos: Vec<Pos> = self.sniffers.iter().map(|c| c.pos).collect();
        let mut topo = SensingTopology::default();
        topo.rebuild(&station_pos, &sniffer_pos, radio);
        let mut relevance: Vec<NodeSet> = Vec::with_capacity(k);
        for b in 0..k {
            let mut owned = NodeSet::new();
            for &gi in &owned_lists[b] {
                owned.insert(gi);
            }
            let mut audible = NodeSet::new();
            for &si in &shard_sniffers[b] {
                for gi in 0..n {
                    if topo.sniffer_rssi(si, gi) >= floor {
                        audible.insert(gi);
                    }
                }
            }
            let mut rel = NodeSet::new();
            topo.boundary_relevance(&owned, &audible, &mut rel);
            relevance.push(rel);
        }
        let shards = owned_lists
            .into_iter()
            .zip(shard_sniffers)
            .enumerate()
            .map(|(a, (owned, sniffers))| {
                let mut owned_mask = vec![false; n];
                let mut exported = vec![false; n];
                for &gi in &owned {
                    owned_mask[gi] = true;
                    exported[gi] = (0..k).any(|b| b != a && relevance[b].contains(gi));
                }
                LockstepShard {
                    owned,
                    owned_mask,
                    exported,
                    sniffers,
                }
            })
            .collect();
        LockstepPlan { shards, window_us }
    }

    /// Materializes one lockstep shard: a full-roster per-channel simulator
    /// in which `shard`'s stations are owned, every other station is a
    /// passive shell, and only `shard`'s sniffers exist. Node ids equal
    /// global build indices on every shard. Kept only for perfbench's
    /// traced pass until ROADMAP item 1's benchmark PR.
    pub fn build_lockstep_shard(&self, shard: &LockstepShard) -> Simulator {
        let mut sim = Simulator::new(self.config.clone());
        sim.reserve_stations(self.stations.len(), shard.sniffers.len());
        for (gi, op) in self.stations.iter().enumerate() {
            sim.set_shell_mode(!shard.owns(gi));
            op.add_to(&mut sim, gi as u64);
        }
        sim.set_shell_mode(false);
        for &si in &shard.sniffers {
            sim.add_sniffer_keyed(self.sniffers[si], si as u64);
        }
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::RadioConfig;
    use crate::sniffer::SnifferConfig;
    use crate::traffic::TrafficProfile;

    fn config(channels: Vec<u8>) -> SimConfig {
        SimConfig {
            channels: channels
                .into_iter()
                .map(|n| wifi_frames::phy::Channel::new(n).unwrap())
                .collect(),
            ..SimConfig::default()
        }
    }

    fn client(pos: Pos, channel_idx: usize) -> ClientConfig {
        ClientConfig {
            pos,
            channel_idx,
            rts_policy: RtsPolicy::Never,
            adaptation: RateAdaptation::Arf(Rate::R11),
            traffic: TrafficProfile::silent(),
            join_at_us: 0,
            leave_at_us: None,
            power_save_interval_us: None,
            frag_threshold: None,
        }
    }

    /// Two halls far beyond the coupling floor split into two components;
    /// one hall stays whole.
    #[test]
    fn partitions_far_halls() {
        let mut spec = ShardSpec::new(config(vec![1]));
        spec.add_ap(Pos::new(0.0, 0.0), 0, 4);
        spec.add_client(client(Pos::new(5.0, 0.0), 0));
        spec.add_ap(Pos::new(10_000.0, 0.0), 0, 4);
        spec.add_client(client(Pos::new(10_005.0, 0.0), 0));
        let plan = spec.partition(8).expect("shardable");
        assert_eq!(plan.components, 2);
        assert_eq!(plan.shards.len(), 2);
        let mut stations: Vec<Vec<usize>> =
            plan.shards.iter().map(|s| s.stations.clone()).collect();
        stations.sort();
        assert_eq!(stations, vec![vec![0, 1], vec![2, 3]]);
    }

    /// Stations within range form one component regardless of shard cap.
    #[test]
    fn near_stations_stay_together() {
        let mut spec = ShardSpec::new(config(vec![1]));
        spec.add_ap(Pos::new(0.0, 0.0), 0, 4);
        for i in 0..5 {
            spec.add_client(client(Pos::new(3.0 * i as f64, 4.0), 0));
        }
        let plan = spec.partition(8).expect("shardable");
        assert_eq!(plan.components, 1);
        assert_eq!(plan.shards.len(), 1);
        assert_eq!(plan.shards[0].station_count(), 6);
    }

    /// Different channels are independent even at the same position.
    #[test]
    fn channels_split_components() {
        let mut spec = ShardSpec::new(config(vec![1, 6]));
        spec.add_ap(Pos::new(0.0, 0.0), 0, 4);
        spec.add_client(client(Pos::new(1.0, 0.0), 0));
        spec.add_ap(Pos::new(0.0, 1.0), 1, 4);
        spec.add_client(client(Pos::new(1.0, 1.0), 1));
        let plan = spec.partition(8).expect("shardable");
        assert_eq!(plan.components, 2);
    }

    /// A client with no co-channel AP forces the unsharded fallback.
    #[test]
    fn orphan_client_declines() {
        let mut spec = ShardSpec::new(config(vec![1, 6]));
        spec.add_ap(Pos::new(0.0, 0.0), 0, 4);
        spec.add_client(client(Pos::new(1.0, 0.0), 1));
        assert!(spec.partition(8).is_none());
    }

    /// A sniffer between two otherwise-separate groups merges them.
    #[test]
    fn sniffer_bridges_components() {
        // Pick a separation where the groups are mutually below the floor
        // but a midpoint sniffer couples to both sides.
        let radio = RadioConfig::default();
        let floor = radio.effective_coupling_floor_dbm();
        let mut d = 10.0;
        while radio.rssi_dbm(Pos::new(0.0, 0.0), Pos::new(d, 0.0)) >= floor {
            d += 10.0;
        }
        assert!(
            radio.rssi_dbm(Pos::new(0.0, 0.0), Pos::new(d / 2.0, 0.0)) >= floor,
            "midpoint must stay coupled for this test to be meaningful"
        );
        let mut spec = ShardSpec::new(config(vec![1]));
        spec.add_ap(Pos::new(0.0, 0.0), 0, 4);
        spec.add_ap(Pos::new(d, 0.0), 0, 4);
        let plan = spec.partition(8).expect("shardable");
        assert_eq!(plan.components, 2, "groups start separate");
        spec.add_sniffer(SnifferConfig {
            pos: Pos::new(d / 2.0, 0.0),
            channel_idx: 0,
            ..SnifferConfig::default()
        });
        let plan = spec.partition(8).expect("shardable");
        assert_eq!(plan.components, 1, "sniffer couples to both sides");
    }

    /// LPT grouping respects the shard cap and covers every station once.
    #[test]
    fn grouping_covers_all_once() {
        let mut spec = ShardSpec::new(config(vec![1]));
        for h in 0..5 {
            let x = h as f64 * 10_000.0;
            spec.add_ap(Pos::new(x, 0.0), 0, 4);
            for i in 0..=h {
                spec.add_client(client(Pos::new(x + 2.0 * i as f64, 3.0), 0));
            }
        }
        let plan = spec.partition(2).expect("shardable");
        assert_eq!(plan.components, 5);
        assert_eq!(plan.shards.len(), 2);
        let mut seen: Vec<usize> = plan
            .shards
            .iter()
            .flat_map(|s| s.stations.iter().copied())
            .collect();
        seen.sort();
        assert_eq!(seen, (0..spec.station_count()).collect::<Vec<_>>());
    }

    /// Channel management disables sharding.
    #[test]
    fn channel_mgmt_declines() {
        let mut cfg = config(vec![1, 6]);
        cfg.channel_mgmt = Some(crate::config::ChannelMgmt::default());
        let mut spec = ShardSpec::new(cfg);
        spec.add_ap(Pos::new(0.0, 0.0), 0, 4);
        assert!(spec.partition(8).is_none());
    }

    /// A dense two-BSS cell: one RF-isolation component (the ceiling of
    /// component sharding), but lockstep splits it along BSS lines, keeping
    /// each client with its join-time argmax AP.
    #[test]
    fn lockstep_splits_one_component() {
        let mut spec = ShardSpec::new(config(vec![1]));
        let ap0 = spec.add_ap(Pos::new(0.0, 0.0), 0, 4);
        let ap1 = spec.add_ap(Pos::new(40.0, 0.0), 0, 4);
        for i in 0..3 {
            spec.add_client(client(Pos::new(2.0 * i as f64, 1.0), 0));
            spec.add_client(client(Pos::new(40.0 + 2.0 * i as f64, 1.0), 0));
        }
        let comp = spec.partition(8).expect("shardable");
        assert_eq!(comp.components, 1, "everything is coupled: one component");
        let plan = spec
            .partition_lockstep(4, DEFAULT_LOCKSTEP_WINDOW_US)
            .expect("two BSS groups can lockstep");
        assert_eq!(plan.shards.len(), 2);
        assert_eq!(plan.window_us, DEFAULT_LOCKSTEP_WINDOW_US);
        // Coverage: every station owned exactly once.
        let mut seen: Vec<usize> = plan.shards.iter().flat_map(|s| s.owned_indices()).collect();
        seen.sort();
        assert_eq!(seen, (0..spec.station_count()).collect::<Vec<_>>());
        // BSS co-ownership: each client shares a shard with its argmax AP.
        let owner_of = |gi: usize| plan.shards.iter().position(|s| s.owns(gi)).unwrap();
        for (c, ap) in [
            (2usize, ap0),
            (3, ap1),
            (4, ap0),
            (5, ap1),
            (6, ap0),
            (7, ap1),
        ] {
            assert_eq!(owner_of(c), owner_of(ap), "client {c} rides with AP {ap}");
        }
        // Fully coupled cell: every owned station sits in the sibling's
        // relevance closure, so everything is exported.
        for s in &plan.shards {
            assert_eq!(s.exported_count(), s.station_count());
        }
    }

    /// Lockstep declines when the window is unsafe, when there is nothing
    /// to split, and under dynamic channel management.
    #[test]
    fn lockstep_declines() {
        let mut spec = ShardSpec::new(config(vec![1]));
        spec.add_ap(Pos::new(0.0, 0.0), 0, 4);
        spec.add_ap(Pos::new(40.0, 0.0), 0, 4);
        spec.add_client(client(Pos::new(1.0, 1.0), 0));
        spec.add_client(client(Pos::new(41.0, 1.0), 0));
        assert!(spec.partition_lockstep(4, 0).is_none(), "zero window");
        let too_wide = spec.config().cs_delay_us.min(OVERLAP_GUARD_US) + 1;
        assert!(
            spec.partition_lockstep(4, too_wide).is_none(),
            "window wider than the influence-latency bound"
        );
        assert!(spec.partition_lockstep(1, 10).is_none(), "one shard max");
        // One BSS: both clients argmax onto the same AP.
        let mut one = ShardSpec::new(config(vec![1]));
        one.add_ap(Pos::new(0.0, 0.0), 0, 4);
        one.add_client(client(Pos::new(1.0, 0.0), 0));
        one.add_client(client(Pos::new(2.0, 0.0), 0));
        assert!(one.partition_lockstep(4, 10).is_none(), "single BSS");
        let mut cfg = config(vec![1]);
        cfg.channel_mgmt = Some(crate::config::ChannelMgmt::default());
        let mut cm = ShardSpec::new(cfg);
        cm.add_ap(Pos::new(0.0, 0.0), 0, 4);
        cm.add_ap(Pos::new(40.0, 0.0), 0, 4);
        cm.add_client(client(Pos::new(1.0, 1.0), 0));
        cm.add_client(client(Pos::new(41.0, 1.0), 0));
        assert!(cm.partition_lockstep(4, 10).is_none(), "channel mgmt");
    }

    /// Adds a dense cell of two BSSs on channel `ch` at `x`: one coupled
    /// component, two BSS groups.
    fn dense_two_bss(spec: &mut ShardSpec, ch: usize, x: f64) {
        spec.add_ap(Pos::new(x, 0.0), ch, 4);
        spec.add_ap(Pos::new(x + 40.0, 0.0), ch, 4);
        for i in 0..3 {
            spec.add_client(client(Pos::new(x + 2.0 * i as f64, 1.0), ch));
            spec.add_client(client(Pos::new(x + 40.0 + 2.0 * i as f64, 1.0), ch));
        }
    }

    /// Dense multi-BSS cells stay whole: the partition never splits a
    /// component, whatever the cap, and a zero cap declines.
    #[test]
    fn dense_cells_partition_as_components() {
        let mut halls = ShardSpec::new(config(vec![1]));
        dense_two_bss(&mut halls, 0, 0.0);
        dense_two_bss(&mut halls, 0, 10_000.0);
        for max_shards in [1, 2, 8] {
            let plan = halls.partition(max_shards).expect("shardable");
            assert_eq!(plan.components, 2);
            assert_eq!(plan.shards.len(), max_shards.min(2));
        }
        assert!(halls.partition(0).is_none(), "zero cap");
    }
}
