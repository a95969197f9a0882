//! The simulator: event loop and MAC orchestration.
//!
//! [`Simulator`] owns the stations, the per-channel media, the sniffers and
//! the event queue, and drives every MAC-layer interaction: RTS/CTS
//! exchanges, SIFS-spaced responses, retransmission, rate-adaptation
//! feedback, beaconing, association, traffic generation, and sniffer
//! capture. CSMA/CA channel access (defer, backoff, freeze/resume, the
//! contention window, and the countdown ends each medium's grant stands
//! for) is [`crate::access`]'s: the handlers tell it what happened.
//!
//! ## Fidelity notes and deliberate simplifications
//!
//! * Propagation delay is zero (a conference hall is < 0.3 µs across).
//! * NAV is honoured for RTS/CTS overhearers; for plain DATA/ACK exchanges
//!   physical carrier sense alone is sufficient because SIFS (10 µs) is
//!   shorter than DIFS (50 µs): no conformant station can seize the channel
//!   inside a SIFS gap anyway.
//! * EIFS is applied at the intended receiver after a failed decode;
//!   third-party stations skip the draw for cost reasons.
//! * If a station owes two SIFS responses nearly simultaneously (two frames
//!   ending within a SIFS of each other — only possible via hidden
//!   terminals), the later obligation replaces the earlier, costing the
//!   first peer an ACK. Real hardware behaves comparably under collision.

use crate::access::{Access, ChannelAccess, Edge, StationAccess};
use crate::config::SimConfig;
use crate::events::{Event, EventQueue, NodeId, QueueStats, TimerKind};
use crate::frame_info::SimFrame;
use crate::geometry::Pos;
use crate::medium::Medium;
use crate::radio::{
    frame_success_prob, processing_gain_db, FadeMemo, NoiseFloor, NOISE_FLOOR_DBM, SENSITIVITY_DBM,
};
use crate::rate::RateAdaptation;
use crate::rng::SimRng;
use crate::sniffer::{MissReason, Sniffer, SnifferConfig, FADE_SCALE};
use crate::station::{
    HotState, MacMap, MacState, Msdu, MsduKind, Role, RtsPolicy, Station, TxOp, TxPhase,
};
use crate::topology::{NodeSet, SensingTopology};
use crate::traffic::TrafficProfile;
use rand::Rng;
use wifi_frames::fc::FrameKind;
use wifi_frames::frame;
use wifi_frames::mac::MacAddr;
use wifi_frames::phy::{Preamble, Rate};
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::{dcf, delay, frame_airtime_us, Micros};

/// Management-frame body sizes (bytes) used for the association handshake.
const ASSOC_REQ_BODY: u32 = 34;
const ASSOC_RESP_BODY: u32 = 30;
const PROBE_REQ_BODY: u32 = 12;
const PROBE_RESP_BODY: u32 = 42;
/// Rate of control and management frames and beacons (the basic rate).
const CONTROL_RATE: Rate = Rate::R1;
/// PLCP preamble of every frame.
const PREAMBLE: Preamble = Preamble::Long;
/// Beacon interval in microseconds (100 TU ≈ the paper's 100 ms).
const BEACON_INTERVAL_US: Micros = 102_400;
/// Guard added to CTS/ACK timeouts beyond SIFS + response air time.
const TIMEOUT_MARGIN_US: Micros = 30;
/// Delay before a failed association is retried.
const ASSOC_RETRY_US: Micros = 500_000;
/// Key offset distinguishing sniffer fade links and RNG streams from
/// station ones: a sniffer's fade link and RNG stream are both keyed
/// `SNIFFER_LINK_BASE + key`. Station keys are scenario build indices, far
/// below this; a moved station's fade key adds its move count at bit 44
/// and up ([`FadeMemo`]).
pub(crate) const SNIFFER_LINK_BASE: u64 = 1 << 40;

/// Ground-truth log of everything that actually went on air.
#[derive(Default)]
pub struct GroundTruth {
    /// Every transmitted frame; empty unless
    /// [`SimConfig::record_ground_truth`] is on.
    pub records: Vec<FrameRecord>,
    /// Total transmissions.
    pub transmissions: u64,
    /// Data-frame transmissions (including retries).
    pub data_tx: u64,
    /// MSDUs delivered network-wide.
    pub delivered: u64,
    /// MSDUs dropped at the retry limit.
    pub retry_drops: u64,
}

/// Options for one client station.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Position.
    pub pos: Pos,
    /// Channel (index into [`SimConfig::channels`]).
    pub channel_idx: usize,
    /// RTS/CTS policy.
    pub rts_policy: RtsPolicy,
    /// Rate-adaptation algorithm.
    pub adaptation: RateAdaptation,
    /// Traffic flows.
    pub traffic: TrafficProfile,
    /// When the user powers on.
    pub join_at_us: Micros,
    /// When the user leaves (`None`: stays to the end).
    pub leave_at_us: Option<Micros>,
    /// Power-save signalling: when set, the client sends a Null-function
    /// frame to its AP at roughly this interval (µs), toggling the
    /// power-management bit — the short S-class chatter real clients emit.
    pub power_save_interval_us: Option<Micros>,
    /// Fragmentation threshold in payload bytes (`None`: off, the 2005
    /// default — cards shipped with threshold 2346, above the MTU).
    pub frag_threshold: Option<u32>,
}

/// The simulator.
pub struct Simulator {
    /// Configuration (immutable after construction).
    pub config: SimConfig,
    now: Micros,
    queue: EventQueue,
    stations: Vec<Station>,
    /// Struct-of-arrays columns of the per-station hot state (contention
    /// state, identity keys), parallel to `stations`. Carrier sense itself
    /// is a bitset per medium; packed columns keep the MAC callbacks of a
    /// busy or release edge on a few cache lines.
    hot: HotState,
    /// DCF channel access: every station's access columns and every
    /// medium's grant bookkeeping ([`Self::access`]).
    channel_access: ChannelAccess,
    sniffers: Vec<Sniffer>,
    /// One medium per channel (`media[c]` is channel `c`), in every
    /// simulator, whole or shard. Every effect of a transmission —
    /// reception, NAV, carrier sense, sniffer capture — is confined to its
    /// channel's medium and, within it, to the transmitter's RF-coupled
    /// stations, so a shard's co-channel components never interact. Each
    /// medium also keeps which of its stations sense energy, and the
    /// listeners of its recent releases.
    media: Vec<Medium>,
    mac_index: MacMap<NodeId>,
    /// Ground truth.
    pub ground_truth: GroundTruth,
    events_processed: u64,
    /// Cumulative transmission air time per channel, µs (drives dynamic
    /// channel assignment).
    chan_airtime_us: Vec<u64>,
    /// Cached pairwise RSSI / carrier-sense reachability (rebuilt lazily
    /// when the population changes; see [`crate::topology`]).
    topology: SensingTopology,
    /// Which stations belong to each medium (kept in lockstep with
    /// `HotState::channel_idx`), for masking cached sensing rows.
    medium_members: Vec<NodeSet>,
    /// Per-sniffer decode-draw streams, keyed `SNIFFER_LINK_BASE` plus the
    /// sniffer's global key (scenario-wide build order, stable across shard
    /// partitionings).
    sniffer_rngs: Vec<SimRng>,
    /// Scratch: sampled MSDU sizes of one traffic batch.
    sizes_scratch: Vec<u32>,
    /// Scratch: the words of the contending listeners whose carrier a busy
    /// or release edge changed — the stations the MAC callback pass visits
    /// (see [`Self::on_cs_busy`]).
    cs_scratch: Vec<u64>,
    /// Scratch: interferer RSSI values of one reception.
    interferer_rssi: Vec<f64>,
    /// The thermal noise floor of every receiver, converted once.
    noise: NoiseFloor,
    /// Scratch: one same-timestamp event batch from the queue.
    batch_scratch: Vec<Event>,
    /// Timestamp of the latest event batch (`Micros::MAX` before the first).
    batch_at: Micros,
    /// Index of the latest batch among those at `batch_at`: 0 for the first,
    /// then one per follow-up batch of events pushed at that time. Orders a
    /// countdown's defer end against same-microsecond events
    /// (`MacState::Backoff::round`).
    round: u32,
    /// The event being handled, inside `run_until`.
    dispatching: Option<Event>,
    /// Slow-fade draws of every station and sniffer link, memoized per
    /// coherence interval — the only reader of `Fading::fade_db`.
    fades: FadeMemo,
    /// While `true`, the station adders materialize passive *shells*
    /// (identity only — no seeded events, no build-time RNG draws, no
    /// medium membership). Toggled by
    /// [`crate::shard::ShardSpec::build_lockstep_shard`], kept only for
    /// perfbench's traced pass until ROADMAP item 1's benchmark PR.
    shell_mode: bool,
}

impl Simulator {
    /// A new, empty simulation with one medium per channel.
    pub fn new(config: SimConfig) -> Simulator {
        let channels = config.channels.len();
        Simulator {
            now: 0,
            queue: EventQueue::new(),
            stations: Vec::new(),
            hot: HotState::default(),
            channel_access: ChannelAccess::new(channels, config.eifs_enabled),
            sniffers: Vec::new(),
            media: (0..channels).map(|_| Medium::new()).collect(),
            mac_index: MacMap::default(),
            ground_truth: GroundTruth::default(),
            events_processed: 0,
            chan_airtime_us: vec![0; channels],
            topology: SensingTopology::default(),
            medium_members: (0..channels).map(|_| NodeSet::new()).collect(),
            sniffer_rngs: Vec::new(),
            sizes_scratch: Vec::new(),
            cs_scratch: Vec::new(),
            interferer_rssi: Vec::new(),
            noise: NoiseFloor::new(NOISE_FLOOR_DBM),
            batch_scratch: Vec::new(),
            batch_at: Micros::MAX,
            round: 0,
            dispatching: None,
            fades: FadeMemo::new(config.radio.fading),
            shell_mode: false,
            config,
        }
    }

    /// Current simulation time, microseconds.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Discrete events so far, as the historical lazy-deletion event heap
    /// counted them — the denominator of the events-per-second throughput
    /// figure in run reports. Counted at each `run_until` return: every
    /// event dispatched, plus a ghost for each event that heap would have
    /// popped dead — every cancelled or superseded timer, and the end of
    /// every countdown's defer that has slots left, where the two-timer
    /// DCF dispatched or cancelled a timer of its own.
    /// [`Self::queue_stats`]' `popped` counts only the dispatched events.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Event-queue churn counters (pushed/popped/stale-dropped/cascaded).
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// The stations (APs and clients): cold per-station state.
    pub fn stations(&self) -> &[Station] {
        &self.stations
    }

    /// The struct-of-arrays hot-state columns (contention state, keys),
    /// indexed by node id parallel to [`Self::stations`]. Carrier sense is
    /// not among them: it is derived from the in-flight transmissions of
    /// each channel's [`Medium`].
    pub fn hot(&self) -> &HotState {
        &self.hot
    }

    /// Station `node`'s channel-access values.
    pub fn station_access(&self, node: NodeId) -> StationAccess {
        self.channel_access.station(node, self.hot.state(node))
    }

    /// Channel access, lent the event loop's clock and state for one call.
    #[inline]
    fn access(&mut self) -> Access<'_> {
        Access {
            dcf: &mut self.channel_access,
            hot: &mut self.hot,
            queue: &mut self.queue,
            media: &self.media,
            members: &self.medium_members,
            stations: &mut self.stations,
            now: self.now,
            round: self.round,
            dispatching: self.dispatching,
        }
    }

    /// The sniffers.
    pub fn sniffers(&self) -> &[Sniffer] {
        &self.sniffers
    }

    /// Mutable sniffer access (e.g. to take traces out).
    pub fn sniffers_mut(&mut self) -> &mut [Sniffer] {
        &mut self.sniffers
    }

    /// Collision/transmission counters per channel.
    pub fn medium_stats(&self) -> Vec<(u64, u64)> {
        self.media
            .iter()
            .map(|m| (m.transmissions, m.collisions))
            .collect()
    }

    /// Cached path-loss RSSI plus the current slow-fade of the `tx → rx`
    /// station link.
    #[inline]
    fn faded_rssi(&mut self, tx_node: NodeId, rx_node: NodeId) -> f64 {
        self.topology.rssi(tx_node, rx_node) + self.fades.link(tx_node, rx_node, self.now)
    }

    /// SINR of transmission `tx` at station `rx_node`: cached+faded RSSI
    /// against the interferer set, summed in ascending interferer order via
    /// the reusable scratch buffer (no per-reception allocation).
    fn station_sinr(
        &mut self,
        rssi: f64,
        tx: &crate::medium::Transmission,
        rx_node: NodeId,
    ) -> f64 {
        let mut interf = std::mem::take(&mut self.interferer_rssi);
        interf.clear();
        for &nid in &tx.interferers {
            interf.push(self.faded_rssi(nid, rx_node));
        }
        let sinr = self
            .noise
            .sinr_db(rssi, &interf, processing_gain_db(tx.rate));
        self.interferer_rssi = interf;
        sinr
    }

    /// Adds an access point. Returns its node id. The first beacon is
    /// scheduled at a random offset inside one beacon interval so that
    /// co-channel APs do not beacon in lockstep.
    pub fn add_ap(&mut self, pos: Pos, channel_idx: usize, ssid_len: u32) -> NodeId {
        let adaptation = RateAdaptation::Arf(Rate::R11);
        self.add_ap_with(pos, channel_idx, ssid_len, adaptation, RtsPolicy::Never)
    }

    /// Adds an AP whose downlink transmissions use the given rate adaptation
    /// and RTS policy (ablations).
    pub fn add_ap_with(
        &mut self,
        pos: Pos,
        channel_idx: usize,
        ssid_len: u32,
        adaptation: RateAdaptation,
        rts_policy: RtsPolicy,
    ) -> NodeId {
        assert!(
            channel_idx < self.config.channels.len(),
            "bad channel index"
        );
        let key = self.stations.len() as u64;
        self.add_ap_keyed(pos, channel_idx, ssid_len, adaptation, rts_policy, key)
    }

    /// AP adder taking the global identity explicitly: `key` is the
    /// scenario-wide build index (RNG stream, fade link, MAC). The public
    /// adders pass the local index; [`crate::shard`] passes global keys.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn add_ap_keyed(
        &mut self,
        pos: Pos,
        channel_idx: usize,
        ssid_len: u32,
        adaptation: RateAdaptation,
        rts_policy: RtsPolicy,
        key: u64,
    ) -> NodeId {
        let mac = MacAddr::from_id(key as u32 + 1);
        let id = self.stations.len();
        // Beacon body: fixed fields, the SSID, then the IEs around it.
        let beacon_body =
            (frame::BEACON_FIXED_BODY_BYTES + frame::BEACON_IE_BYTES) as u32 + ssid_len;
        let mut st = Station::new(
            id,
            mac,
            pos,
            Role::Ap {
                beacon_body_bytes: beacon_body,
            },
            rts_policy,
            adaptation,
            TrafficProfile::silent(),
        );
        st.queue_cap = self.config.queue_cap;
        st.joined = true;
        st.rng = SimRng::new(self.config.seed, key);
        self.stations.push(st);
        self.hot.push(channel_idx, key, self.shell_mode);
        self.channel_access.push();
        self.fades.add_station(key);
        // Eager incremental topology maintenance: one dirty row + column,
        // shells included (every shard must agree on the full matrix).
        self.topology.add_station(pos, &self.config.radio);
        self.mac_index.insert(mac, id);
        if self.shell_mode {
            // Passive shell: identity only. No medium membership, no beacon
            // schedule, and — critically for cross-shard RNG agreement — no
            // build-time draws from the station's stream.
            return id;
        }
        self.medium_members[channel_idx].insert(id);
        let channel_mgmt = self.config.channel_mgmt;
        let offset = self.stations[id].rng.gen_range(0..BEACON_INTERVAL_US);
        self.queue.push(offset, Event::BeaconDue { node: id });
        if let Some(cm) = channel_mgmt {
            let jitter = self.stations[id]
                .rng
                .gen_range(0..cm.eval_interval_us.max(1));
            self.queue.push(
                cm.eval_interval_us + jitter,
                Event::ChannelEval { node: id },
            );
        }
        id
    }

    /// Adds a client. Returns its node id.
    pub fn add_client(&mut self, cfg: ClientConfig) -> NodeId {
        assert!(
            cfg.channel_idx < self.config.channels.len(),
            "bad channel index"
        );
        let key = self.stations.len() as u64;
        self.add_client_keyed(cfg, key)
    }

    /// Client adder taking the global identity explicitly (see
    /// [`Self::add_ap_keyed`]).
    pub(crate) fn add_client_keyed(&mut self, cfg: ClientConfig, key: u64) -> NodeId {
        let mac = MacAddr::from_id(key as u32 + 1);
        let id = self.stations.len();
        let mut st = Station::new(
            id,
            mac,
            cfg.pos,
            Role::Client,
            cfg.rts_policy,
            cfg.adaptation,
            cfg.traffic,
        );
        st.queue_cap = self.config.queue_cap;
        st.power_save_interval_us = cfg.power_save_interval_us;
        st.frag_threshold = cfg.frag_threshold;
        st.rng = SimRng::new(self.config.seed, key);
        self.stations.push(st);
        self.hot.push(cfg.channel_idx, key, self.shell_mode);
        self.channel_access.push();
        self.fades.add_station(key);
        self.topology.add_station(cfg.pos, &self.config.radio);
        self.mac_index.insert(mac, id);
        if self.shell_mode {
            return id; // passive shell (see add_ap_keyed)
        }
        self.medium_members[cfg.channel_idx].insert(id);
        self.queue
            .push(cfg.join_at_us, Event::UserJoin { node: id });
        if let Some(leave) = cfg.leave_at_us {
            self.queue.push(leave, Event::UserLeave { node: id });
        }
        if let Some(interval) = cfg.power_save_interval_us {
            let first = cfg.join_at_us + self.stations[id].rng.gen_range(0..interval.max(1));
            self.queue.push(first, Event::PowerSaveTick { node: id });
        }
        id
    }

    /// Adds a sniffer; returns its index.
    pub fn add_sniffer(&mut self, cfg: SnifferConfig) -> usize {
        assert!(
            cfg.channel_idx < self.config.channels.len(),
            "bad channel index"
        );
        let key = self.sniffers.len() as u64;
        self.add_sniffer_keyed(cfg, key)
    }

    /// Sniffer adder taking the global identity explicitly (see
    /// [`Self::add_ap_keyed`]). The RNG stream and fade link are keyed
    /// `SNIFFER_LINK_BASE + key`, past the station key space.
    pub(crate) fn add_sniffer_keyed(&mut self, cfg: SnifferConfig, key: u64) -> usize {
        let link = SNIFFER_LINK_BASE + key;
        self.fades.add_sniffer(link);
        self.sniffer_rngs.push(SimRng::new(self.config.seed, link));
        self.topology.add_sniffer(cfg.pos, &self.config.radio);
        self.sniffers.push(Sniffer::new(cfg));
        self.sniffers.len() - 1
    }

    /// Pre-sizes the station list and the topology cache for a known final
    /// population: one exact allocation each instead of geometric growth
    /// while stations join.
    /// [`crate::shard::ShardSpec`] calls this with its recorded counts; the
    /// resulting footprint matches a one-shot full rebuild exactly.
    pub(crate) fn reserve_stations(&mut self, stations: usize, sniffers: usize) {
        self.stations.reserve_exact(stations);
        self.topology.reserve(stations, sniffers);
    }

    /// Switches the builder into (or out of) *shell mode*: while on, the
    /// station adders materialize passive shells owned by another shard, so
    /// [`crate::shard::ShardSpec::build_lockstep_shard`] can replay the full
    /// build order. Kept only for perfbench's traced pass until ROADMAP
    /// item 1's benchmark PR.
    pub(crate) fn set_shell_mode(&mut self, on: bool) {
        self.shell_mode = on;
    }

    /// Runs the simulation until `until` (microseconds).
    ///
    /// Events are drained in same-timestamp batches: one queue operation
    /// yields every event sharing the earliest time. Each batch is then
    /// re-ordered by the *canonical* key (`batch_sort_key`) — event
    /// class, then the acting entity's scenario-global key — rather than
    /// push-sequence order. Push order is materialization-local (a component
    /// shard pushes only its own stations' events, in shard-local
    /// interleavings), while the canonical key is a pure function of the
    /// event itself, so every materialization of a scenario processes a
    /// same-microsecond batch identically. Handlers that push at the
    /// current timestamp form the *next* batch (higher sequence numbers),
    /// which is canonically sorted in turn; `round` numbers the batches of
    /// one microsecond. Backoff countdowns join the batches through their
    /// medium's grant ([`crate::access`]).
    pub fn run_until(&mut self, until: Micros) {
        // The station/sniffer adders and `move_station` keep the topology
        // covering the population eagerly and incrementally (one dirty row
        // + column per change, `crate::topology`).
        debug_assert_eq!(self.topology.station_count(), self.stations.len());
        debug_assert_eq!(self.topology.sniffer_count(), self.sniffers.len());
        self.fades.cover();
        self.queue.set_ghost_horizon(until);
        let mut batch = std::mem::take(&mut self.batch_scratch);
        loop {
            self.access().place_grants();
            batch.clear();
            let Some(at) = self.queue.pop_batch(until, &mut batch) else {
                break;
            };
            self.access().expand_grants(at, &mut batch);
            if batch.is_empty() {
                // Grants none of whose countdowns end now (the earliest
                // froze): the timers they stand for were cancelled, so
                // there is no batch, and no round.
                continue;
            }
            if batch.len() > 1 {
                // Stable: events with identical keys (only literally
                // identical, idempotent events can tie) keep queue order.
                batch.sort_by_key(|e| batch_sort_key(e, &self.hot.key));
            }
            self.round = if at == self.batch_at {
                self.round + 1
            } else {
                0
            };
            self.batch_at = at;
            self.now = at;
            self.events_processed += batch.len() as u64;
            for &event in &batch {
                self.dispatching = Some(event);
                self.handle(event);
            }
            debug_assert!(
                self.access().consistent(),
                "channel access out of step with the MAC states"
            );
            debug_assert!(
                self.media.iter().all(Medium::busy_consistent),
                "busy set out of step with the carrier-sensed transmissions"
            );
        }
        self.dispatching = None;
        self.batch_scratch = batch;
        // Every defer that ends at or before `until` has ended: the next
        // batch at `until`, pushed between calls, sorts after all of them.
        if self.batch_at == until {
            self.round += 1;
        } else {
            self.batch_at = until;
            self.round = 0;
        }
        self.now = until;
        // Ghosts — timers cancelled eagerly, and ended defers — would have
        // popped (and been counted) as stale events under the lazy scheme;
        // fold them back in so the events-per-second denominator stays
        // comparable across the committed baseline trajectory.
        self.events_processed += self.queue.drain_ghosts(until);
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::UserJoin { node } => self.on_user_join(node),
            Event::UserLeave { node } => self.on_user_leave(node),
            Event::BeaconDue { node } => self.on_beacon_due(node),
            Event::TrafficArrival { node, flow } => self.on_traffic(node, flow),
            Event::Timer { node, kind } => self.on_timer(node, kind),
            Event::CsBusy { medium, node } => self.on_cs_busy(medium, node),
            Event::TxEnd { medium, node } => self.on_tx_end(medium, node),
            Event::ChannelEval { node } => self.on_channel_eval(node),
            Event::PowerSaveTick { node } => self.on_power_save_tick(node),
            Event::FollowAp { node, channel_idx } => self.on_follow_ap(node, channel_idx),
            Event::Grant { .. } => unreachable!("grants are expanded before dispatch"),
        }
    }

    /// NavExpired and SifsResponse are condition-validated. An exchange
    /// timer that pops is live: cancelling or re-arming one removes it from
    /// the queue. A `BackoffDone` is live unless an earlier event of its
    /// batch froze the countdown; in a same-microsecond batch timers run
    /// before the carrier-sense and end-of-frame events that freeze them.
    fn on_timer(&mut self, node: NodeId, kind: TimerKind) {
        match kind {
            TimerKind::NavExpired => self.access().idle_if_quiet(node),
            TimerKind::SifsResponse => self.fire_sifs_response(node),
            TimerKind::BackoffDone => {
                if self.access().backoff_done(node) {
                    self.transmit_current(node);
                }
            }
            TimerKind::CtsTimeout => self.on_exchange_timeout(node, MacState::AwaitCts),
            TimerKind::AckTimeout => self.on_exchange_timeout(node, MacState::AwaitAck),
        }
    }

    // ------------------------------------------------------------------
    // Join / leave / association
    // ------------------------------------------------------------------

    fn on_user_join(&mut self, node: NodeId) {
        let st = &self.stations[node];
        if st.associated_ap.is_some() || st.departed {
            return; // already associated, or left for good (stale retry)
        }
        let channel = self.hot.channel_idx[node];
        let first_join = !st.joined;
        self.stations[node].joined = true;
        // Active scanning: a broadcast probe request precedes the first
        // association attempt, as real clients do.
        if first_join {
            self.stations[node].enqueue(Msdu {
                dst: MacAddr::BROADCAST,
                bssid: MacAddr::BROADCAST,
                payload: PROBE_REQ_BODY,
                kind: MsduKind::Mgmt(FrameKind::ProbeRequest),
                enqueued_at: self.now,
            });
        }
        // Pick the strongest AP on our channel (cached path loss). In a
        // shard that is the strongest in our RF-isolation component: the
        // planner's forced edge keeps the global argmax there.
        let mut choice = self.strongest_ap(node, Some(channel));
        if choice.is_none() {
            // Our channel has no AP (it may have migrated away): scan all
            // channels and retune to the strongest AP found anywhere. Never
            // in a shard: the planner declines orphan clients.
            if let Some((ap_id, rssi)) = self.strongest_ap(node, None) {
                let target = self.hot.channel_idx[ap_id];
                if self.move_station_channel(node, target) {
                    choice = Some((ap_id, rssi));
                }
            }
        }
        let Some((ap_id, _)) = choice else {
            // No AP anywhere yet (or we were mid-exchange); retry later.
            self.queue
                .push(self.now + ASSOC_RETRY_US, Event::UserJoin { node });
            return;
        };
        let ap_mac = self.stations[ap_id].mac;
        let msdu = Msdu {
            dst: ap_mac,
            bssid: ap_mac,
            payload: ASSOC_REQ_BODY,
            kind: MsduKind::Mgmt(FrameKind::AssocRequest),
            enqueued_at: self.now,
        };
        self.stations[node].enqueue(msdu);
        self.try_dequeue(node);
    }

    /// The AP with the strongest cached path-loss RSSI at `node`, on
    /// `channel` (any channel for `None`); ties go to the first maximum in
    /// build order. Join, rescan and roam all pick here, so a roam targets
    /// exactly the AP a join would.
    fn strongest_ap(&self, node: NodeId, channel: Option<usize>) -> Option<(NodeId, f64)> {
        let mut best: Option<(NodeId, f64)> = None;
        for (i, ap) in self.stations.iter().enumerate() {
            if ap.is_ap() && channel.is_none_or(|c| self.hot.channel_idx[i] == c) {
                let rssi = self.topology.rssi(i, node);
                if best.is_none_or(|(_, b)| rssi > b) {
                    best = Some((i, rssi));
                }
            }
        }
        best
    }

    fn on_user_leave(&mut self, node: NodeId) {
        let st = &mut self.stations[node];
        st.joined = false;
        st.departed = true;
        st.associated_ap = None;
        st.queue.clear();
        // An in-flight TxOp completes or times out on its own.
    }

    fn complete_association(&mut self, client: NodeId, ap: NodeId) {
        let st = &mut self.stations[client];
        if st.associated_ap.is_some() || !st.joined {
            return;
        }
        st.associated_ap = Some(ap);
        // Start traffic flows; both directions draw on the client's stream.
        let Station { traffic, rng, .. } = st;
        let gaps = [traffic.uplink.next_gap(rng), traffic.downlink.next_gap(rng)];
        for (flow, gap) in gaps.into_iter().enumerate() {
            if let Some(g) = gap {
                let arrival = Event::TrafficArrival { node: client, flow };
                self.queue.push(self.now + g, arrival);
            }
        }
    }

    // ------------------------------------------------------------------
    // Traffic and beacons
    // ------------------------------------------------------------------

    fn on_traffic(&mut self, node: NodeId, flow: usize) {
        let st = &self.stations[node];
        if !st.joined {
            return; // user left: flow dies
        }
        let Some(ap) = st.associated_ap else {
            return; // disassociated: flow dies (re-association restarts it)
        };
        let ap_mac = self.stations[ap].mac;
        let client_mac = st.mac;
        let now = self.now;
        // One arrival event delivers a (possibly bursty) batch of MSDUs.
        // Borrow-split so the flow config (whose size distribution is
        // heap-backed) is sampled in place instead of cloned per event. Both
        // directions of a client's traffic draw on the *client's* stream
        // (downlink MSDUs are enqueued at the AP but belong to this flow).
        {
            let Simulator {
                stations,
                sizes_scratch,
                ..
            } = self;
            let Station { traffic, rng, .. } = &mut stations[node];
            let flow_cfg = traffic.flow(flow);
            let batch = flow_cfg.batch_size(rng);
            sizes_scratch.clear();
            for _ in 0..batch {
                sizes_scratch.push(flow_cfg.sizes.sample(rng));
            }
        }
        let (enqueue_on, dst, to_ds) = if flow == 0 {
            (node, ap_mac, true)
        } else {
            (ap, client_mac, false)
        };
        for i in 0..self.sizes_scratch.len() {
            let size = self.sizes_scratch[i];
            self.stations[enqueue_on].enqueue(Msdu {
                dst,
                bssid: ap_mac,
                payload: size,
                kind: MsduKind::Data { to_ds },
                enqueued_at: now,
            });
        }
        self.try_dequeue(enqueue_on);
        let Simulator {
            stations, queue, ..
        } = self;
        let Station { traffic, rng, .. } = &mut stations[node];
        if let Some(g) = traffic.flow(flow).next_gap(rng) {
            queue.push(now + g, Event::TrafficArrival { node, flow });
        }
    }

    fn on_beacon_due(&mut self, node: NodeId) {
        let Role::Ap { beacon_body_bytes } = self.stations[node].role else {
            return;
        };
        let mac = self.stations[node].mac;
        self.stations[node].enqueue_front(Msdu {
            dst: MacAddr::BROADCAST,
            bssid: mac,
            payload: beacon_body_bytes,
            kind: MsduKind::Beacon,
            enqueued_at: self.now,
        });
        self.queue
            .push(self.now + BEACON_INTERVAL_US, Event::BeaconDue { node });
        self.try_dequeue(node);
    }

    /// A power-saving client toggles its power-management bit with a
    /// Null-function frame to its AP — the short S-class signalling chatter
    /// real clients emit (Section 3's power-save machinery, trace-visible).
    fn on_power_save_tick(&mut self, node: NodeId) {
        let st = &self.stations[node];
        if !st.joined || st.departed {
            return; // user left: cadence dies
        }
        let Some(interval) = st.power_save_interval_us else {
            return;
        };
        if let Some(ap) = st.associated_ap {
            let ap_mac = self.stations[ap].mac;
            let st = &mut self.stations[node];
            st.power_save_state = !st.power_save_state;
            st.enqueue(Msdu {
                dst: ap_mac,
                bssid: ap_mac,
                payload: 0,
                kind: MsduKind::Null,
                enqueued_at: self.now,
            });
            self.try_dequeue(node);
        }
        let jitter = self.stations[node].rng.gen_range(0..interval / 4 + 1);
        self.queue
            .push(self.now + interval + jitter, Event::PowerSaveTick { node });
    }

    // ------------------------------------------------------------------
    // Contention
    // ------------------------------------------------------------------

    /// Starts serving the head-of-line MSDU if the station is free.
    fn try_dequeue(&mut self, node: NodeId) {
        if self.hot.state(node) != MacState::Idle {
            return;
        }
        let st = &mut self.stations[node];
        if st.current.is_some() {
            return;
        }
        let Some(msdu) = st.queue.pop_front() else {
            return;
        };
        let seq = st.take_seq();
        let unicast = !msdu.dst.is_multicast();
        let (rate, use_rts) = match msdu.kind {
            MsduKind::Data { .. } => {
                let r = st.pick_rate(msdu.dst);
                (r, unicast && st.rts_policy.applies(msdu.payload))
            }
            _ => (CONTROL_RATE, false),
        };
        // Fragmentation: unicast data MSDUs above the threshold become a
        // SIFS-separated fragment burst.
        let (current_payload, pending_fragments) = match (st.frag_threshold, &msdu.kind) {
            (Some(thr), MsduKind::Data { .. }) if unicast && msdu.payload > thr && thr > 0 => {
                let rest = (thr..msdu.payload).step_by(thr as usize);
                (thr, rest.map(|at| thr.min(msdu.payload - at)).collect())
            }
            _ => (msdu.payload, Vec::new()),
        };
        st.current = Some(TxOp {
            msdu,
            retries: 0,
            current_payload,
            pending_fragments,
            frag_no: 0,
            use_rts,
            cts_received: false,
            seq,
            rate,
            first_tx_at: None,
        });
        if self.access().start(node) {
            self.transmit_current(node);
        }
    }

    // ------------------------------------------------------------------
    // Transmission
    // ------------------------------------------------------------------

    fn transmit_current(&mut self, node: NodeId) {
        let now = self.now;
        let st = &mut self.stations[node];
        let op = st.current.as_mut().expect("transmit without TxOp");
        let mac = st.mac;
        let unicast = !op.msdu.dst.is_multicast();

        if op.use_rts && !op.cts_received {
            // RTS attempt.
            let data_bytes = frame::DATA_OVERHEAD_BYTES as u32 + op.current_payload;
            let data_air = frame_airtime_us(data_bytes as u64, op.rate, PREAMBLE);
            let dur = (3 * delay::SIFS + delay::CTS + data_air + delay::ACK).min(u16::MAX as u64);
            let frame = SimFrame::rts(mac, op.msdu.dst, dur as u16);
            st.stats.rts_sent += 1;
            self.start_transmission(node, frame, CONTROL_RATE, TxPhase::Rts);
            return;
        }

        let retry = op.retries > 0;
        let seq = op.seq;
        op.first_tx_at.get_or_insert(now);
        // A unicast frame reserves the channel for its ACK.
        let dur = if unicast {
            (delay::SIFS + delay::ACK) as u16
        } else {
            0
        };
        let frame = match op.msdu.kind {
            MsduKind::Data { to_ds } => SimFrame::data_fragment(
                mac,
                op.msdu.dst,
                op.msdu.bssid,
                seq,
                op.frag_no,
                op.current_payload,
                retry,
                dur,
                to_ds,
                !op.pending_fragments.is_empty(),
            ),
            MsduKind::Null => {
                let mut f = SimFrame::data(
                    mac,
                    op.msdu.dst,
                    op.msdu.bssid,
                    seq,
                    0,
                    retry,
                    (delay::SIFS + delay::ACK) as u16,
                    true,
                );
                f.kind = FrameKind::NullData;
                f.mac_bytes = frame::DATA_OVERHEAD_BYTES as u32;
                f
            }
            MsduKind::Beacon => SimFrame::beacon(mac, seq, op.msdu.payload),
            MsduKind::Mgmt(kind) => SimFrame::mgmt(
                kind,
                mac,
                op.msdu.dst,
                op.msdu.bssid,
                seq,
                op.msdu.payload,
                retry,
                dur,
            ),
        };
        let rate = match op.msdu.kind {
            MsduKind::Data { .. } => op.rate,
            _ => CONTROL_RATE,
        };
        st.stats.tx_attempts += 1;
        self.ground_truth.data_tx += matches!(op.msdu.kind, MsduKind::Data { .. }) as u64;
        self.start_transmission(node, frame, rate, TxPhase::Data);
    }

    fn start_transmission(&mut self, node: NodeId, frame: SimFrame, rate: Rate, phase: TxPhase) {
        let now = self.now;
        let air = frame_airtime_us(frame.mac_bytes as u64, rate, PREAMBLE);
        let end = now + air;
        let medium = self.hot.channel_idx[node];
        self.hot.set_state(node, MacState::Transmitting { phase });
        self.hot.tx_until[node] = end;
        // Decide who will sense this transmission: the cached carrier-sense
        // row masked by the medium's membership — a few word ANDs where the
        // unoptimized loop did O(stations) path-loss math per frame. The
        // busy indication lands one detection delay later (the CSMA
        // vulnerability window).
        let Simulator {
            media,
            topology,
            medium_members,
            ..
        } = self;
        let mut sensed_by = media[medium].take_set();
        topology.sensed_into(node, &medium_members[medium], &mut sensed_by);
        media[medium].start_tx(node, frame, rate, now, end, sensed_by, |other| {
            topology.coupled(node, other)
        });
        // The station stays `Transmitting` until its own `TxEnd`, and
        // `CsBusy` lands strictly before it, so `(medium, node)` names this
        // transmission at both events.
        self.queue.push(
            now + self.config.cs_delay_us.min(air.saturating_sub(1)),
            Event::CsBusy { medium, node },
        );
        self.queue.push(end, Event::TxEnd { medium, node });
    }

    /// One detection delay into a transmission: listeners now sense energy.
    ///
    /// [`Medium::apply_cs`] adds the listener set to the medium's busy set
    /// and collects, into a reused scratch buffer, the listeners that were
    /// idle and are contending, which channel access then freezes. Only
    /// contending listeners need it: a busy edge acts only on `Backoff`.
    fn on_cs_busy(&mut self, medium: usize, node: NodeId) {
        let mut hits = std::mem::take(&mut self.cs_scratch);
        self.media[medium].apply_cs(node, self.hot.contending(), &mut hits);
        self.access().carrier_edge(&hits, Edge::Busy);
        self.cs_scratch = hits;
    }

    fn fire_sifs_response(&mut self, node: NodeId) {
        let Some(frame) = self.stations[node].pending_response.take() else {
            return;
        };
        let state = self.hot.state(node);
        let (phase, rate) = match frame.kind {
            // The data frame of an RTS-protected exchange (released a SIFS
            // after its CTS, state AwaitCts) or the next fragment of a burst
            // (released a SIFS after the previous fragment's ACK, state
            // AwaitAck).
            FrameKind::Data | FrameKind::NullData => {
                if state != MacState::AwaitCts && state != MacState::AwaitAck {
                    return;
                }
                let rate = self.stations[node]
                    .current
                    .as_ref()
                    .map(|op| op.rate)
                    .unwrap_or(CONTROL_RATE);
                (TxPhase::Data, rate)
            }
            FrameKind::Cts | FrameKind::Ack => {
                // A control response; never interrupt an exchange we are in
                // the middle of (the peer will retry instead).
                if state.in_exchange() {
                    return;
                }
                // Pause any contention countdown; it resumes after the
                // response.
                self.access().busy(node);
                if frame.kind == FrameKind::Cts {
                    self.stations[node].stats.cts_sent += 1;
                    (TxPhase::Cts, CONTROL_RATE)
                } else {
                    self.stations[node].stats.acks_sent += 1;
                    (TxPhase::Ack, CONTROL_RATE)
                }
            }
            _ => return,
        };
        self.start_transmission(node, frame, rate, phase);
    }

    // ------------------------------------------------------------------
    // Transmission end: receptions, sniffers, state advance
    // ------------------------------------------------------------------

    fn on_tx_end(&mut self, channel: usize, node: NodeId) {
        let tx = self.media[channel]
            .end_tx(node)
            .expect("TxEnd for a transmission not in flight");
        let now = self.now;

        // 1. Advance the transmitter's state machine.
        self.advance_transmitter(&tx);

        // 2. Intended-receiver reception.
        self.process_reception(channel, &tx);

        // 3. NAV at overhearers, for RTS/CTS only (see module docs).
        if matches!(tx.frame.kind, FrameKind::Rts | FrameKind::Cts) && tx.frame.duration_us > 0 {
            self.process_nav(channel, &tx);
        }

        // 4. Sniffers.
        self.process_sniffers(channel, &tx);

        // 5. Ground truth and channel load accounting.
        self.chan_airtime_us[channel] += tx.end.saturating_sub(tx.start);
        self.ground_truth.transmissions += 1;
        if self.config.record_ground_truth {
            let ch = self.config.channels[channel];
            let sig = self.config.radio.tx_power_dbm as i8;
            self.ground_truth
                .records
                .push(tx.frame.to_record(tx.end, tx.rate, ch, sig));
        }

        // 6. Release carrier sense (and return the transmission's buffers):
        // the medium's busy set drops the listeners no other frame holds and
        // keeps the listener set as a release at `now`, which is the idle
        // edge every listener's next defer reads. Channel access then
        // restarts the defer of the contending listeners that went idle, and
        // stamps the transmitter's own channel quiet from its side.
        let transmitter = tx.node;
        let mut hits = std::mem::take(&mut self.cs_scratch);
        self.media[channel].retire(tx, now, self.hot.contending(), &mut hits);
        self.access()
            .carrier_edge(&hits, Edge::Release { transmitter });
        self.cs_scratch = hits;
    }

    fn advance_transmitter(&mut self, tx: &crate::medium::Transmission) {
        let node = tx.node;
        let now = self.now;
        let MacState::Transmitting { phase } = self.hot.state(node) else {
            return;
        };
        match phase {
            TxPhase::Rts => {
                self.hot.set_state(node, MacState::AwaitCts);
                let timeout = now + delay::SIFS + delay::CTS + TIMEOUT_MARGIN_US;
                self.queue.arm_timer(node, TimerKind::CtsTimeout, timeout);
            }
            TxPhase::Data => {
                if tx.frame.is_broadcast() {
                    self.complete_delivery(node, false);
                } else {
                    self.hot.set_state(node, MacState::AwaitAck);
                    let timeout = now + delay::SIFS + delay::ACK + TIMEOUT_MARGIN_US;
                    self.queue.arm_timer(node, TimerKind::AckTimeout, timeout);
                }
            }
            TxPhase::Cts | TxPhase::Ack => {
                // Response sent; resume whatever we were doing. Contention
                // was paused by fire_sifs_response and restarts with its
                // backoff preserved.
                let has_work = self.stations[node].current.is_some();
                self.access().response_sent(node, has_work);
                if !has_work {
                    self.try_dequeue(node);
                }
            }
        }
    }

    /// Whether station `rx` decodes transmission `tx`: the pair-coupling
    /// floor, half-duplex and sensitivity gates, then one success draw from
    /// `rx`'s stream against the SINR. `None` when a gate stops the frame
    /// (no draw is made); otherwise the draw's outcome and the SINR. The
    /// one decode path of the intended receiver, probed APs and NAV
    /// overhearers.
    #[inline]
    fn decode_at(&mut self, tx: &crate::medium::Transmission, rx: NodeId) -> Option<(bool, f64)> {
        if !self.topology.coupled(tx.node, rx) {
            return None; // below the pair-coupling floor: no interaction
        }
        if self.hot.was_transmitting_during(rx, tx.start) {
            return None; // half-duplex
        }
        let rssi = self.faded_rssi(tx.node, rx);
        if rssi < SENSITIVITY_DBM {
            return None; // out of range
        }
        let sinr = self.station_sinr(rssi, tx, rx);
        let p = frame_success_prob(sinr, tx.rate, tx.frame.mac_bytes);
        Some((self.stations[rx].rng.gen::<f64>() < p, sinr))
    }

    fn process_reception(&mut self, channel: usize, tx: &crate::medium::Transmission) {
        let frame = &tx.frame;
        if frame.dst.is_multicast() {
            // Broadcast probes solicit responses from every AP that decodes
            // them; other broadcast frames have no modelled consequences.
            if frame.kind == FrameKind::ProbeRequest {
                self.process_probe_request(channel, tx);
            }
            return;
        }
        let Some(&rx_node) = self.mac_index.get(&frame.dst) else {
            return;
        };
        if rx_node == tx.node || self.hot.channel_idx[rx_node] != channel {
            return;
        }
        if self.hot.shell[rx_node] {
            return; // passive shell: it owns no reception (or RNG draw)
        }
        let Some((decoded, sinr)) = self.decode_at(tx, rx_node) else {
            return;
        };
        if !decoded {
            self.access().owe_eifs(rx_node);
            return;
        }
        self.deliver_frame(rx_node, tx, sinr);
    }

    /// A broadcast probe request: every AP on the channel that decodes it
    /// queues a probe response to the prober.
    fn process_probe_request(&mut self, channel: usize, tx: &crate::medium::Transmission) {
        let Some(prober) = tx.frame.src else {
            return;
        };
        let now = self.now;
        for i in 0..self.stations.len() {
            if !self.stations[i].is_ap()
                || self.hot.channel_idx[i] != channel
                || i == tx.node
                || self.hot.shell[i]
            {
                continue;
            }
            if !matches!(self.decode_at(tx, i), Some((true, _))) {
                continue;
            }
            let ap_mac = self.stations[i].mac;
            self.stations[i].enqueue(Msdu {
                dst: prober,
                bssid: ap_mac,
                payload: PROBE_RESP_BODY,
                kind: MsduKind::Mgmt(FrameKind::ProbeResponse),
                enqueued_at: now,
            });
            self.try_dequeue(i);
        }
    }

    /// A frame decoded successfully at `rx_node`.
    fn deliver_frame(&mut self, rx_node: NodeId, tx: &crate::medium::Transmission, sinr: f64) {
        let now = self.now;
        let frame = &tx.frame;
        if let Some(src) = frame.src {
            self.stations[rx_node].snr_hints.insert(src, sinr);
        }
        match frame.kind {
            FrameKind::Ack => {
                if self.hot.state(rx_node) == MacState::AwaitAck {
                    self.queue.cancel_timer(rx_node); // the AckTimeout
                    let has_more = self.stations[rx_node]
                        .current
                        .as_ref()
                        .is_some_and(|op| !op.pending_fragments.is_empty());
                    if has_more {
                        self.advance_fragment(rx_node);
                    } else {
                        self.complete_delivery(rx_node, true);
                    }
                }
            }
            FrameKind::Cts => {
                if self.hot.state(rx_node) == MacState::AwaitCts {
                    self.queue.cancel_timer(rx_node); // the CtsTimeout
                    if let Some(op) = self.stations[rx_node].current.as_mut() {
                        op.cts_received = true;
                    }
                    // Data follows after SIFS, bypassing contention.
                    self.schedule_post_cts_data(rx_node);
                }
            }
            FrameKind::Rts => {
                // Respond with CTS only if our NAV is clear.
                if self.access().nav_clear(rx_node) {
                    let src = frame.src.expect("RTS carries a transmitter");
                    let dur = (frame.duration_us as u64)
                        .saturating_sub(delay::SIFS + delay::CTS)
                        .min(u16::MAX as u64) as u16;
                    self.owe_response(rx_node, SimFrame::cts(src, dur));
                }
            }
            FrameKind::Data | FrameKind::NullData => {
                let src = frame.src.expect("data carries a transmitter");
                self.owe_response(rx_node, SimFrame::ack(src));
                // Payload content is not consumed further; duplicates are
                // ACKed like real hardware does.
            }
            FrameKind::AssocRequest => {
                let src = frame.src.expect("mgmt carries a transmitter");
                self.owe_response(rx_node, SimFrame::ack(src));
                if self.stations[rx_node].is_ap() && self.mac_index.contains_key(&src) {
                    let already_queued = self.stations[rx_node].queue.iter().any(|m| {
                        m.dst == src && m.kind == MsduKind::Mgmt(FrameKind::AssocResponse)
                    });
                    if !already_queued {
                        let ap_mac = self.stations[rx_node].mac;
                        self.stations[rx_node].enqueue(Msdu {
                            dst: src,
                            bssid: ap_mac,
                            payload: ASSOC_RESP_BODY,
                            kind: MsduKind::Mgmt(FrameKind::AssocResponse),
                            enqueued_at: now,
                        });
                        self.try_dequeue(rx_node);
                    }
                }
            }
            FrameKind::AssocResponse => {
                let src = frame.src.expect("mgmt carries a transmitter");
                self.owe_response(rx_node, SimFrame::ack(src));
                if let Some(&ap) = self.mac_index.get(&src) {
                    self.complete_association(rx_node, ap);
                }
            }
            _ => {
                // Other management frames: ACK if unicast to us.
                if let Some(src) = frame.src {
                    self.owe_response(rx_node, SimFrame::ack(src));
                }
            }
        }
    }

    fn owe_response(&mut self, node: NodeId, frame: SimFrame) {
        // Never take on a response while mid-exchange: starting a CTS/ACK
        // from AwaitCts/AwaitAck would clobber that state machine. The peer
        // simply retries — comparable to real-hardware behaviour under the
        // same (collision-heavy) conditions.
        if self.hot.state(node).in_exchange() {
            return;
        }
        self.after_sifs(node, frame);
    }

    /// `node` sends `frame` a SIFS from now, bypassing contention
    /// ([`Self::fire_sifs_response`]).
    fn after_sifs(&mut self, node: NodeId, frame: SimFrame) {
        self.stations[node].pending_response = Some(frame);
        let kind = TimerKind::SifsResponse;
        self.queue
            .push(self.now + delay::SIFS, Event::Timer { node, kind });
    }

    /// The data frame of an RTS-protected exchange follows the CTS by a
    /// SIFS, bypassing contention.
    fn schedule_post_cts_data(&mut self, node: NodeId) {
        let now = self.now;
        let st = &mut self.stations[node];
        let op = st.current.as_mut().expect("CTS without TxOp");
        let MsduKind::Data { to_ds } = op.msdu.kind else {
            return; // RTS only protects data
        };
        op.first_tx_at.get_or_insert(now + delay::SIFS);
        let retry = op.retries > 0;
        let frame = SimFrame::data(
            st.mac,
            op.msdu.dst,
            op.msdu.bssid,
            op.seq,
            op.msdu.payload,
            retry,
            (delay::SIFS + delay::ACK) as u16,
            to_ds,
        );
        st.stats.tx_attempts += 1;
        self.ground_truth.data_tx += 1;
        self.after_sifs(node, frame);
    }

    fn process_nav(&mut self, channel: usize, tx: &crate::medium::Transmission) {
        let now = self.now;
        let until = now + tx.frame.duration_us as Micros;
        for i in 0..self.stations.len() {
            if i == tx.node || self.hot.channel_idx[i] != channel || self.hot.shell[i] {
                continue;
            }
            if self.stations[i].mac == tx.frame.dst {
                continue; // the addressee does not set NAV from its own exchange
            }
            let decoded = matches!(self.decode_at(tx, i), Some((true, _)));
            if decoded && self.access().set_nav(i, until) {
                // A plain event validated by condition: it must not take
                // the exchange-timer slot (that would cancel a live timer).
                let kind = TimerKind::NavExpired;
                self.queue.push(until, Event::Timer { node: i, kind });
            }
        }
    }

    /// Every sniffer on the channel takes the frame through the stations'
    /// reception kernels: coupling gate, sensitivity gate, SINR, one decode
    /// draw from its own stream, then its capture token bucket. Sniffers
    /// share no state, so one pass per sniffer reorders nothing.
    fn process_sniffers(&mut self, channel: usize, tx: &crate::medium::Transmission) {
        let ch = self.config.channels[channel];
        let now = self.now;
        let floor = self.config.radio.effective_coupling_floor_dbm();
        for idx in 0..self.sniffers.len() {
            if self.sniffers[idx].config.channel_idx != channel {
                continue;
            }
            // The pair-coupling floor applies to sniffer links too: a
            // transmission whose path-loss RSSI at the sniffer is below the
            // floor is not on this sniffer's air at all — not even as a
            // miss. This is what makes per-sniffer traces and statistics
            // independent of how the channel is partitioned into shards.
            let path = self.topology.sniffer_rssi(idx, tx.node);
            if path < floor {
                continue;
            }
            // Sniffer links get their own fade realizations, keyed past the
            // station id space, and the sniffers' own fade scale.
            let rssi = path + FADE_SCALE * self.fades.sniffer(idx, tx.node, now);
            if rssi < SENSITIVITY_DBM {
                self.sniffers[idx].miss(MissReason::OutOfRange);
                continue;
            }
            let mut interf = std::mem::take(&mut self.interferer_rssi);
            interf.clear();
            for &nid in &tx.interferers {
                let path = self.topology.sniffer_rssi(idx, nid);
                if path < floor {
                    continue; // below the floor at this sniffer
                }
                interf.push(path + FADE_SCALE * self.fades.sniffer(idx, nid, now));
            }
            let sinr = self
                .noise
                .sinr_db(rssi, &interf, processing_gain_db(tx.rate));
            self.interferer_rssi = interf;
            let p = frame_success_prob(sinr, tx.rate, tx.frame.mac_bytes);
            if self.sniffer_rngs[idx].gen::<f64>() >= p {
                if tx.interferers.is_empty() {
                    self.sniffers[idx].stats.missed_clean += 1;
                }
                self.sniffers[idx].miss(MissReason::BitError);
                continue;
            }
            if !self.sniffers[idx].try_take_token(now) {
                self.sniffers[idx].miss(MissReason::HardwareDrop);
                continue;
            }
            let record = tx.frame.to_record(tx.end, tx.rate, ch, rssi.round() as i8);
            self.sniffers[idx].capture(record);
        }
    }

    // ------------------------------------------------------------------
    // Dynamic channel assignment (the Airespace stand-in)
    // ------------------------------------------------------------------

    /// Periodic per-AP evaluation: compare recent air time across channels
    /// and switch to the least-loaded one when the imbalance clears the
    /// hysteresis ratio. Associated clients follow after a staggered delay.
    fn on_channel_eval(&mut self, node: NodeId) {
        let Some(cm) = self.config.channel_mgmt else {
            return;
        };
        self.queue
            .push(self.now + cm.eval_interval_us, Event::ChannelEval { node });
        if !self.stations[node].is_ap() {
            return;
        }
        // First evaluation only takes the baseline snapshot (into the
        // station's reusable snapshot buffer).
        if self.stations[node].chan_airtime_snapshot.is_empty() {
            let snap = &mut self.stations[node].chan_airtime_snapshot;
            snap.extend_from_slice(&self.chan_airtime_us);
            return;
        }
        // Each channel's air time since the last evaluation; the first
        // least-loaded channel is the candidate.
        let cur = self.hot.channel_idx[node];
        let snapshot = &mut self.stations[node].chan_airtime_snapshot;
        let airtime = &self.chan_airtime_us;
        let load = |c: usize| airtime[c].saturating_sub(snapshot[c]);
        let best = (0..airtime.len())
            .min_by_key(|&c| load(c))
            .expect("a channel");
        let (best_load, cur_load) = (load(best), load(cur) as f64);
        snapshot.copy_from_slice(airtime);
        if best == cur {
            return;
        }
        if cur_load <= cm.switch_ratio * best_load as f64 + 1.0 {
            return; // not imbalanced enough
        }
        if !self.move_station_channel(node, best) {
            return; // mid-exchange; try again next interval
        }
        // Associated clients notice the beacon loss and follow.
        for c in 0..self.stations.len() {
            if self.stations[c].associated_ap != Some(node) {
                continue;
            }
            self.stations[c].associated_ap = None;
            let delay = self.stations[c]
                .rng
                .gen_range(10_000..cm.follow_delay_max_us.max(10_001));
            self.queue.push(
                self.now + delay,
                Event::FollowAp {
                    node: c,
                    channel_idx: best,
                },
            );
        }
    }

    /// A client moves to its AP's new channel and re-associates.
    fn on_follow_ap(&mut self, node: NodeId, channel_idx: usize) {
        if !self.stations[node].joined || self.stations[node].departed {
            return;
        }
        if !self.move_station_channel(node, channel_idx) {
            // Mid-exchange: retry shortly.
            self.queue
                .push(self.now + 50_000, Event::FollowAp { node, channel_idx });
            return;
        }
        self.stations[node].associated_ap = None;
        self.on_user_join(node);
    }

    /// Retunes a station's radio to another channel, maintaining carrier
    /// sense and NAV bookkeeping consistency. Returns false (no change)
    /// when the station is in the middle of a frame exchange.
    fn move_station_channel(&mut self, node: NodeId, new_idx: usize) -> bool {
        assert!(new_idx < self.config.channels.len(), "bad channel index");
        if self.hot.state(node).in_exchange() || self.stations[node].pending_response.is_some() {
            return false;
        }
        let old_idx = self.hot.channel_idx[node];
        if old_idx == new_idx {
            return true;
        }
        // Detach from the old channel's in-flight transmissions, and pause
        // any contention countdown.
        self.media[old_idx].detach(node);
        self.access().detune(node);
        self.hot.channel_idx[node] = new_idx;
        self.medium_members[old_idx].remove(node);
        self.medium_members[new_idx].insert(node);
        // Attach to the new channel's in-flight transmissions (carrier-sense
        // reachability comes straight from the cached topology row).
        let topology = &self.topology;
        self.media[new_idx].attach(node, |tx| topology.sensed(tx, node));
        self.access().retuned(node);
        true
    }

    // ------------------------------------------------------------------
    // Mobility (driven between `run_until` calls; see ietf-workloads'
    // waypoint model and docs/DETERMINISM.md §mobility)
    // ------------------------------------------------------------------

    /// Moves a station to `pos` — the position half of a mobility tick,
    /// called between `run_until` calls. The topology cache takes one
    /// incremental row + column update (O(population), not a rebuild), and
    /// the station's links draw fresh fade realizations from here on
    /// (the fade memo forgets exactly its memoized fades).
    ///
    /// Frames already in the air keep the physics they started with:
    /// `sensed_by` sets and interferer lists are snapshotted at TX start,
    /// and their carrier-sense release consumes those snapshots, so moving
    /// a station mid-frame leaves no dangling carrier sense. The new
    /// position governs every transmission that starts after the move.
    pub fn move_station(&mut self, node: NodeId, pos: Pos) {
        self.stations[node].pos = pos;
        self.topology.update_station(node, pos, &self.config.radio);
        self.fades.moved(node);
    }

    /// Strongest-AP reassociation with hysteresis — the roaming half of a
    /// mobility tick. When some co-channel AP's cached path-loss RSSI beats
    /// the currently associated AP's by at least `hysteresis_db`, the
    /// client disassociates and a `UserJoin` event is queued at the current
    /// time, so the re-association exchange (and the traffic restart it
    /// triggers) runs through the canonical event order of the next
    /// `run_until`. Returns whether a roam was initiated.
    ///
    /// Stations mid-frame-exchange, unassociated, departed, or APs return
    /// `false` unchanged — the next tick simply re-evaluates.
    pub fn reassociate_strongest(&mut self, node: NodeId, hysteresis_db: f64) -> bool {
        let st = &self.stations[node];
        if st.is_ap() || !st.joined || st.departed {
            return false;
        }
        let Some(cur) = st.associated_ap else {
            return false; // association in flight; let it land first
        };
        if self.hot.state(node).in_exchange() || st.pending_response.is_some() {
            return false;
        }
        let channel = self.hot.channel_idx[node];
        let Some((best_ap, best_rssi)) = self.strongest_ap(node, Some(channel)) else {
            return false;
        };
        if best_ap == cur || best_rssi < self.topology.rssi(cur, node) + hysteresis_db {
            return false;
        }
        self.stations[node].associated_ap = None;
        self.queue.push(self.now, Event::UserJoin { node });
        true
    }

    // ------------------------------------------------------------------
    // Exchange outcomes
    // ------------------------------------------------------------------

    fn on_exchange_timeout(&mut self, node: NodeId, expected: MacState) {
        if self.hot.state(node) != expected {
            return;
        }
        let op = self.stations[node]
            .current
            .as_mut()
            .expect("timeout without TxOp");
        op.retries += 1;
        op.cts_received = false;
        let (peer, kind) = (op.msdu.dst, op.msdu.kind);
        let is_assoc_req = kind == MsduKind::Mgmt(FrameKind::AssocRequest);
        let is_data = matches!(kind, MsduKind::Data { .. });
        let drop = op.retries > dcf::RETRY_LIMIT;
        let grown = dcf::cw_after(op.retries);
        // Rate-adaptation feedback for data frames. This is exactly the
        // deficiency the paper identifies: the adapter cannot distinguish a
        // collision from a weak signal, so congestion drives rates down.
        if is_data {
            if drop {
                self.stations[node].adapter_for(peer).on_drop();
            } else {
                self.stations[node].adapter_for(peer).on_failure();
            }
        }
        if drop {
            self.access().backoff_from(node, dcf::CW_MIN);
            let st = &mut self.stations[node];
            st.stats.retry_drops += 1;
            st.current = None;
            self.hot.set_state(node, MacState::Idle);
            self.ground_truth.retry_drops += 1;
            if is_assoc_req && self.stations[node].joined {
                self.queue
                    .push(self.now + ASSOC_RETRY_US, Event::UserJoin { node });
            }
            self.try_dequeue(node);
            return;
        }
        // Retry: new rate decision, fresh backoff from the grown window.
        let new_rate = self.stations[node].pick_rate(peer);
        if let Some(op) = self.stations[node].current.as_mut() {
            if matches!(op.msdu.kind, MsduKind::Data { .. }) {
                op.rate = new_rate;
            }
        }
        self.access().backoff_from(node, grown);
        self.hot.set_state(node, MacState::Idle);
        if self.access().start(node) {
            self.transmit_current(node);
        }
    }

    /// A fragment was acknowledged and more remain: release the next one a
    /// SIFS later, without re-contending (the fragment-burst rule).
    fn advance_fragment(&mut self, node: NodeId) {
        let st = &mut self.stations[node];
        let Some(op) = st.current.as_mut() else {
            return;
        };
        let MsduKind::Data { to_ds } = op.msdu.kind else {
            return;
        };
        op.current_payload = op.pending_fragments.remove(0);
        op.frag_no = op.frag_no.wrapping_add(1);
        op.retries = 0; // per-fragment retry counting, as the standard does
        let frame = SimFrame::data_fragment(
            st.mac,
            op.msdu.dst,
            op.msdu.bssid,
            op.seq,
            op.frag_no,
            op.current_payload,
            false,
            (delay::SIFS + delay::ACK) as u16,
            to_ds,
            !op.pending_fragments.is_empty(),
        );
        st.stats.tx_attempts += 1;
        self.ground_truth.data_tx += 1;
        self.after_sifs(node, frame);
    }

    /// The current MSDU is done: delivered (ACK received) or broadcast sent.
    fn complete_delivery(&mut self, node: NodeId, acked: bool) {
        let st = &mut self.stations[node];
        let op = st.current.take().expect("completion without TxOp");
        let (peer, is_data) = (op.msdu.dst, matches!(op.msdu.kind, MsduKind::Data { .. }));
        st.stats.delivered += 1;
        st.stats.delivery_delay_total_us += self.now.saturating_sub(op.msdu.enqueued_at);
        self.access().backoff_from(node, dcf::CW_MIN);
        self.hot.set_state(node, MacState::Idle);
        self.ground_truth.delivered += 1;
        if acked && is_data {
            self.stations[node].adapter_for(peer).on_success();
        }
        self.try_dequeue(node);
    }
}

/// Canonical order of same-microsecond events: `(event class, global entity
/// key, detail)`, with `key` the stations' global keys. Every component is
/// derived from scenario-global identity — station keys are build indices,
/// and transmission events order by their transmitter's key — so any two
/// simulators holding the same events in a batch sort them the same way. A
/// station has at most one transmission in flight, so the transmitter key
/// is unique per `TxEnd`/`CsBusy` at one timestamp.
pub(crate) fn batch_sort_key(ev: &Event, key: &[u64]) -> (u8, u64, u64) {
    // Rank 0 is a countdown's defer end (`access::DEFER_END_RANK`).
    let timer_rank = |kind: TimerKind| match kind {
        TimerKind::BackoffDone => 1u64,
        TimerKind::SifsResponse => 2,
        TimerKind::CtsTimeout => 3,
        TimerKind::AckTimeout => 4,
        TimerKind::NavExpired => 5,
    };
    match *ev {
        Event::UserJoin { node } => (0, key[node], 0),
        Event::UserLeave { node } => (1, key[node], 0),
        Event::BeaconDue { node } => (2, key[node], 0),
        Event::TrafficArrival { node, flow } => (3, key[node], flow as u64),
        Event::Timer { node, kind } => (4, key[node], timer_rank(kind)),
        Event::CsBusy { node, .. } => (5, key[node], 0),
        Event::TxEnd { node, .. } => (6, key[node], 0),
        Event::ChannelEval { node } => (7, key[node], 0),
        Event::PowerSaveTick { node } => (8, key[node], 0),
        Event::FollowAp { node, channel_idx } => (9, key[node], channel_idx as u64),
        Event::Grant { .. } => unreachable!("grants are expanded before sorting"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::tests::set_backoff_slots;

    /// A client `x` metres out that joins at `join_at_us` and sends nothing.
    fn silent_client(x: f64, join_at_us: Micros) -> ClientConfig {
        ClientConfig {
            pos: Pos::new(x, 0.0),
            channel_idx: 0,
            rts_policy: RtsPolicy::Never,
            adaptation: RateAdaptation::Fixed(Rate::R11),
            traffic: TrafficProfile::silent(),
            join_at_us,
            leave_at_us: None,
            power_save_interval_us: None,
            frag_threshold: None,
        }
    }

    /// A countdown's defer ends where the two-timer DCF's defer timer ran:
    /// after earlier microseconds and batches, before later ones, and in
    /// its own batch at rank 0 of its station's class-4 timers. The
    /// station's own `UserJoin` (class 0, the one event of that batch that
    /// can freeze it from before the timer) is not reachable with a frozen
    /// countdown through the public API, so it is pinned here.
    #[test]
    fn a_defer_end_sorts_where_its_timer_would() {
        let mut sim = Simulator::new(SimConfig::default());
        let ap = sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
        let c = sim.add_client(silent_client(5.0, 0));
        (sim.now, sim.batch_at, sim.round) = (500, 500, 2);
        let mut over = |event: Event, started: Micros, round: u32| {
            sim.dispatching = Some(event);
            sim.access().defer_over(c, started, round)
        };
        let timer = |node: NodeId, kind: TimerKind| Event::Timer { node, kind };
        let busy = Event::CsBusy {
            medium: 0,
            node: ap,
        };
        let join = Event::UserJoin { node: c };
        // Other microseconds and other batches decide alone.
        assert!(over(join, 499, 9));
        assert!(!over(busy, 501, 0));
        assert!(over(join, 500, 1));
        assert!(!over(busy, 500, 3));
        // In its own batch: the canonical order.
        assert!(!over(join, 500, 2));
        assert!(!over(Event::TrafficArrival { node: c, flow: 0 }, 500, 2));
        assert!(!over(timer(ap, TimerKind::AckTimeout), 500, 2));
        assert!(over(timer(c, TimerKind::SifsResponse), 500, 2));
        assert!(over(busy, 500, 2));
        assert!(over(
            Event::TxEnd {
                medium: 0,
                node: ap
            },
            500,
            2
        ));
    }

    /// A run that ends at `until` ends every defer due by then: the next
    /// run's first batch at `until` sorts after all of them.
    #[test]
    fn defers_due_at_a_run_end_are_over_for_the_next_run() {
        let mut sim = Simulator::new(SimConfig::default());
        // No batch at 1 000: a defer due then was armed earlier (round 0).
        sim.run_until(1_000);
        assert_eq!((sim.batch_at, sim.round + 1), (1_000, 1));
        // One batch at 2 000 (a join): a defer armed during it for 2 000
        // ends in round 1, and the next batch at 2 000 would be round 2.
        sim.add_client(silent_client(0.0, 2_000));
        sim.run_until(2_000);
        assert_eq!((sim.batch_at, sim.round + 1), (2_000, 2));
    }

    /// `sim` with a client, far from joining, that sits mid-dispatch in the
    /// first batch at 1 000 µs with a broadcast to send and no slots left:
    /// the state in which a handler arms a countdown for now.
    fn mid_batch_at_1000(mut sim: Simulator) -> (Simulator, NodeId) {
        let c = sim.add_client(silent_client(5.0, 10_000_000));
        sim.run_until(999);
        (sim.now, sim.batch_at, sim.round) = (1_000, 1_000, 0);
        sim.dispatching = Some(Event::UserJoin { node: c });
        let msdu = Msdu {
            dst: MacAddr::BROADCAST,
            bssid: MacAddr::BROADCAST,
            payload: PROBE_REQ_BODY,
            kind: MsduKind::Mgmt(FrameKind::ProbeRequest),
            enqueued_at: 1_000,
        };
        sim.stations[c].current = Some(TxOp {
            msdu,
            retries: 0,
            current_payload: PROBE_REQ_BODY,
            pending_fragments: Vec::new(),
            frag_no: 0,
            use_rts: false,
            cts_received: false,
            seq: 0,
            rate: CONTROL_RATE,
            first_tx_at: None,
        });
        set_backoff_slots(&mut sim.channel_access, c, 0);
        (sim, c)
    }

    /// A zero-slot countdown armed for the current microsecond ends in the
    /// follow-up batch, where its queue timer ran: the grant placed for it
    /// pops there and dispatches its `BackoffDone`.
    #[test]
    fn a_zero_slot_countdown_armed_for_now_fires_in_the_follow_up_batch() {
        let (mut sim, c) = mid_batch_at_1000(Simulator::new(SimConfig::default()));
        sim.access().arm_countdown(c, 1_000);
        assert_eq!(sim.station_access(c).countdown_end, Some(1_000));
        sim.run_until(1_000);
        let transmitting = MacState::Transmitting {
            phase: TxPhase::Data,
        };
        assert_eq!(sim.hot.state(c), transmitting);
        assert_eq!(sim.station_access(c).countdown_end, None);
        // One follow-up batch (round 1), closed by the run's end.
        assert_eq!((sim.batch_at, sim.round), (1_000, 2));
        assert_eq!(sim.events_processed(), 1, "the BackoffDone");
        assert_eq!(sim.queue_stats().popped, 1, "the grant");
    }

    /// A frozen countdown is no batch, as its cancelled queue timer made
    /// none, so `round` does not advance and the defers of that
    /// microsecond resolve against later batches as before. With nothing
    /// else counting down on its medium it gets no grant, or loses the one
    /// placed for it; under a grant that another countdown keeps, the grant
    /// pops, dispatches nothing, is skipped and moves on.
    #[test]
    fn a_frozen_countdown_is_no_batch() {
        // Frozen in the batch that armed it: no grant.
        let (mut sim, c) = mid_batch_at_1000(Simulator::new(SimConfig::default()));
        sim.access().arm_countdown(c, 1_000);
        // Inside the defer, no slots left: the end is the cancelled
        // timer's ghost.
        sim.access().busy(c);
        assert_eq!(sim.hot.state(c), MacState::Frozen);
        sim.run_until(1_000);
        assert_eq!(sim.queue_stats().pushed, 1, "no grant, only the join");
        assert_eq!(sim.events_processed(), 1, "only the ghost");
        // No batch after round 0: the run's end closes round 1, where a
        // defer armed in round 0 for now would have ended, and the next
        // batch at 1 000 is round 2, as with the timer cancelled outright.
        assert_eq!((sim.batch_at, sim.round + 1), (1_000, 2));

        // Frozen under its grant, alone: the grant goes.
        let (mut sim, c) = mid_batch_at_1000(Simulator::new(SimConfig::default()));
        set_backoff_slots(&mut sim.channel_access, c, 3);
        sim.access().arm_countdown(c, 1_000);
        sim.run_until(1_010);
        assert_eq!(sim.queue.grant_at(0), Some(1_060));
        sim.access().busy(c);
        assert_eq!(sim.queue.grant_at(0), None);
        sim.run_until(1_060);
        assert_eq!(sim.queue_stats().popped, 0);
        assert_eq!(
            sim.events_processed(),
            2,
            "the defer's and the end's ghosts"
        );
        assert_eq!((sim.batch_at, sim.round), (1_060, 0), "no batch at 1 060");

        // Frozen under a grant that a later countdown keeps.
        let mut two = Simulator::new(SimConfig::default());
        let d = two.add_client(silent_client(5.0, 10_000_000));
        let (mut sim, c) = mid_batch_at_1000(two);
        sim.stations[d].current = sim.stations[c].current.clone();
        set_backoff_slots(&mut sim.channel_access, c, 3);
        set_backoff_slots(&mut sim.channel_access, d, 5);
        sim.access().arm_countdown(c, 1_000);
        sim.access().arm_countdown(d, 1_000);
        sim.run_until(1_010);
        sim.access().busy(c);
        sim.run_until(1_060);
        assert_eq!(sim.queue_stats().popped, 1, "the grant popped");
        assert_eq!((sim.batch_at, sim.round), (1_060, 0), "no batch at 1 060");
        assert_eq!(sim.queue.grant_at(0), Some(1_100), "on to the next end");
        assert_eq!(sim.events_processed(), 3, "two defer ghosts, one end ghost");
    }

    /// A `BackoffDone` already in its batch still transmits when an earlier
    /// event of the batch froze its countdown and armed another: the
    /// station's own `UserJoin`, finding no AP on its channel, switches it
    /// to the AP's. The counts are those of the per-node queue timer this
    /// replaced (measured on it with this same setup): that timer left the
    /// new countdown's timer armed, to pop dead at its end (1 110 µs), which
    /// the ghost recorded at the transmission now counts instead.
    #[test]
    fn a_countdown_rearmed_before_its_dispatched_end_transmits() {
        let config = SimConfig {
            channels: vec![
                wifi_frames::phy::Channel::new(1).unwrap(),
                wifi_frames::phy::Channel::new(6).unwrap(),
            ],
            record_ground_truth: true,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(config);
        sim.add_ap(Pos::new(0.0, 0.0), 1, 6);
        let (mut sim, c) = mid_batch_at_1000(sim);
        set_backoff_slots(&mut sim.channel_access, c, 3);
        sim.access().arm_countdown(c, 1_000);
        sim.queue.push(1_060, Event::UserJoin { node: c });
        let mut seen = Vec::new();
        for until in [1_060, 1_109, 1_110, 5_000, 300_000] {
            sim.run_until(until);
            seen.push((
                until,
                sim.events_processed(),
                sim.ground_truth.transmissions,
            ));
        }
        assert_eq!(sim.hot.channel_idx[c], 1, "switched to the AP's channel");
        assert_eq!(
            seen,
            [
                (1_060, 3, 0),
                (1_109, 4, 0),
                (1_110, 5, 0),
                (5_000, 34, 6),
                (300_000, 61, 13)
            ]
        );
        let ends: Vec<Micros> = sim.ground_truth.records[..4]
            .iter()
            .map(|r| r.timestamp_us)
            .collect();
        // The probe went out at 1 060 µs, with the switch's DIFS unheeded.
        assert_eq!(ends, [1_572, 2_104, 3_152, 3_466]);
    }
}
