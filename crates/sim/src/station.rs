//! Per-station MAC state: the contention state, the transmit queue,
//! per-peer rate adapters, and counters.
//!
//! `Station` is deliberately a *state container*: the transition logic lives
//! in [`crate::sim::Simulator`], which owns the medium and the event queue,
//! and channel access in [`crate::access`]. The methods here are the
//! self-contained pieces (queue management, adapter lookup) that are
//! unit-testable in isolation.

use crate::events::NodeId;
use crate::frame_info::SimFrame;
use crate::geometry::Pos;
use crate::rate::{RateAdaptation, RateAdapter};
use crate::rng::SimRng;
use crate::topology::NodeSet;
use crate::traffic::TrafficProfile;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use wifi_frames::fc::FrameKind;
use wifi_frames::mac::MacAddr;
use wifi_frames::phy::Rate;
use wifi_frames::timing::Micros;

/// When a station precedes data frames with an RTS/CTS exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtsPolicy {
    /// Never use RTS/CTS (the default on commodity cards, per the paper).
    Never,
    /// Always use RTS/CTS for unicast data.
    Always,
    /// Use RTS/CTS for payloads strictly larger than the threshold (bytes).
    Threshold(u32),
}

impl RtsPolicy {
    /// Whether a unicast data frame of `payload` bytes takes the RTS path.
    pub fn applies(&self, payload: u32) -> bool {
        match *self {
            RtsPolicy::Never => false,
            RtsPolicy::Always => true,
            RtsPolicy::Threshold(t) => payload > t,
        }
    }
}

/// What a station is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Role {
    /// An access point: beacons, accepts associations, relays downlink.
    Ap {
        /// Beacon body size (depends on SSID length).
        beacon_body_bytes: u32,
    },
    /// A client: associates to an AP and runs traffic flows.
    Client,
}

/// One queued MSDU awaiting transmission.
#[derive(Clone, Debug)]
pub struct Msdu {
    /// Destination MAC (next hop).
    pub dst: MacAddr,
    /// BSSID to stamp on the frame.
    pub bssid: MacAddr,
    /// Payload bytes (zero for management frames).
    pub payload: u32,
    /// What kind of frame this becomes on air.
    pub kind: MsduKind,
    /// Enqueue time (for queueing-delay stats).
    pub enqueued_at: Micros,
}

/// MSDU kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsduKind {
    /// A data frame; `to_ds` is true for client→AP.
    Data {
        /// Direction bit.
        to_ds: bool,
    },
    /// A Null-function frame (power-save signalling; unicast, ACKed, no
    /// payload on air).
    Null,
    /// A beacon (broadcast, no ACK).
    Beacon,
    /// A management frame of the given subtype (unicast when addressed,
    /// ACKed; broadcast probes draw no ACK).
    Mgmt(FrameKind),
}

/// The in-progress transmission operation for the head-of-line MSDU.
#[derive(Clone, Debug)]
pub struct TxOp {
    /// The MSDU.
    pub msdu: Msdu,
    /// Retry count so far for the current fragment (0 = first attempt
    /// pending).
    pub retries: u32,
    /// Payload of the fragment currently being sent (equals
    /// `msdu.payload` when unfragmented).
    pub current_payload: u32,
    /// Payloads of the fragments still to send after the current one
    /// (in send order; empty when unfragmented or on the last fragment).
    pub pending_fragments: Vec<u32>,
    /// Fragment number of the current fragment.
    pub frag_no: u8,
    /// Whether this exchange uses RTS/CTS.
    pub use_rts: bool,
    /// True once the CTS for this attempt has been received.
    pub cts_received: bool,
    /// Sequence number assigned to the MSDU.
    pub seq: u16,
    /// Data rate of the current attempt (fixed per attempt at queue time).
    pub rate: Rate,
    /// When the first attempt hit the air (for acceptance-delay ground
    /// truth); `None` until then.
    pub first_tx_at: Option<Micros>,
}

/// The DCF contention state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MacState {
    /// Nothing to send.
    Idle,
    /// Have a frame and an idle channel: waiting out DIFS/EIFS until
    /// `started`, then counting down the backoff slots, with one deadline
    /// at the end of both where the medium's grant dispatches a
    /// `BackoffDone` ([`crate::access`]). A busy edge before the defer ends
    /// consumes nothing; one after it consumes the whole slots elapsed
    /// since `started`.
    Backoff {
        /// When the defer ends and the slot countdown begins.
        started: Micros,
        /// Which same-microsecond batch at `started` the defer ends in: 0
        /// for the first, `r + 1` for a defer armed at `started` itself
        /// during batch `r` (see `Simulator::run_until`). Orders the
        /// defer's end against the other events of that microsecond.
        round: u32,
        /// The EIFS flag while the defer runs. Arming the countdown clears
        /// the station's flag, as the defer's end does in the standard; a
        /// failed decode before that end sets this instead, and a busy edge
        /// before it puts this back.
        held_eifs: bool,
    },
    /// Have a frame; channel is busy; backoff frozen.
    Frozen,
    /// Our transmission is in the air.
    Transmitting {
        /// What we are sending.
        phase: TxPhase,
    },
    /// RTS sent; waiting for the CTS.
    AwaitCts,
    /// Data sent; waiting for the ACK.
    AwaitAck,
}

impl MacState {
    /// Mid frame exchange: transmitting, or awaiting a CTS or ACK.
    pub(crate) fn in_exchange(self) -> bool {
        matches!(
            self,
            MacState::Transmitting { .. } | MacState::AwaitCts | MacState::AwaitAck
        )
    }
}

/// What a transmitting station is sending.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxPhase {
    /// An RTS for the current TxOp.
    Rts,
    /// The data/management/beacon frame of the current TxOp.
    Data,
    /// A CTS we owe a peer.
    Cts,
    /// An ACK we owe a peer.
    Ack,
}

/// Per-station counters (ground truth, not sniffer-derived).
#[derive(Clone, Copy, Debug, Default)]
pub struct StationStats {
    /// Data/mgmt transmission attempts (includes retries).
    pub tx_attempts: u64,
    /// MSDUs delivered (ACK received, or broadcast sent).
    pub delivered: u64,
    /// MSDUs dropped at the retry limit.
    pub retry_drops: u64,
    /// MSDUs dropped because the queue was full.
    pub queue_drops: u64,
    /// ACKs sent.
    pub acks_sent: u64,
    /// RTS frames sent.
    pub rts_sent: u64,
    /// CTS frames sent.
    pub cts_sent: u64,
    /// Sum of (delivery time − enqueue time) over delivered MSDUs, µs.
    pub delivery_delay_total_us: u64,
}

/// Struct-of-arrays block of the per-station *hot* state: the fields the
/// event loop touches on every carrier-sense transition, timer delivery and
/// reception, extracted from [`Station`] into parallel vectors indexed by
/// [`NodeId`].
///
/// Carrier sense itself is not here: each [`crate::medium::Medium`] keeps
/// the set of its stations that sense energy, so a busy or release edge
/// is word-wide set arithmetic on the listener bitset, and only the
/// listeners whose carrier changed *and* that are *contending* — in
/// `Backoff` or `Frozen`, tracked as a bitset beside `state` —
/// get a MAC callback, which reads `state` here. With the
/// fields inline in `Station` (a multi-hundred-byte struct holding queues
/// and adapter maps) each touch was a fresh cache line. Packed columns put
/// 8–16 stations' worth of one field on a line. Cold state (MAC, queue
/// payloads, stats, RNG, adapters) stays in [`Station`] behind the same
/// `NodeId` indexing, and channel access keeps its own columns
/// ([`crate::access`]).
#[derive(Default)]
pub struct HotState {
    /// Contention state. Private so that every write goes through
    /// [`HotState::set_state`], which keeps `contending` in step.
    state: Vec<MacState>,
    /// Stations whose `state` is `Backoff` or `Frozen` — the only states a
    /// carrier-sense busy or idle transition acts on beyond the idle stamp.
    contending: NodeSet,
    /// End time of the station's own most recent transmission
    /// (half-duplex check).
    pub tx_until: Vec<Micros>,
    /// Index into the simulator's channel list, and so into its media
    /// (one medium per channel).
    pub channel_idx: Vec<usize>,
    /// Global station key: the station's index in the *scenario-wide* build
    /// order, stable across shard partitionings (equals the node id in an
    /// unsharded simulator). The station's RNG stream and fade links are
    /// keyed by it, so a station draws the same values whichever shard it
    /// runs in; here it orders same-microsecond events canonically.
    pub key: Vec<u64>,
    /// This station is a passive *shell* of a lockstep shard — it exists for
    /// identity only (node id, MAC, RNG keying, topology row) and is owned
    /// by another shard. Shells seed no events, draw no randomness, join no
    /// medium, and are skipped by every listener-side handler. Only
    /// [`crate::shard::ShardSpec::build_lockstep_shard`] makes them, kept
    /// for perfbench's traced pass until ROADMAP item 1's benchmark PR;
    /// always `false` in every simulator that runs.
    pub shell: Vec<bool>,
}

impl HotState {
    /// Appends one station's row; returns its node id.
    pub fn push(&mut self, channel_idx: usize, key: u64, shell: bool) -> NodeId {
        let id = self.state.len();
        self.state.push(MacState::Idle);
        self.tx_until.push(0);
        self.channel_idx.push(channel_idx);
        self.key.push(key);
        self.shell.push(shell);
        id
    }

    /// Contention state of `node`.
    #[inline]
    pub fn state(&self, node: NodeId) -> MacState {
        self.state[node]
    }

    /// Sets the contention state of `node`, keeping its `contending` bit in
    /// step — the only write path to `state`.
    #[inline]
    pub(crate) fn set_state(&mut self, node: NodeId, state: MacState) {
        self.state[node] = state;
        if is_contending(state) {
            self.contending.insert(node);
        } else {
            self.contending.remove(node);
        }
    }

    /// The contending stations (see [`HotState::set_state`]).
    #[inline]
    pub(crate) fn contending(&self) -> &NodeSet {
        &self.contending
    }

    /// Whether `contending` holds exactly the stations whose state is
    /// contending (checked by the event loop in debug builds).
    pub(crate) fn contending_consistent(&self) -> bool {
        self.state
            .iter()
            .enumerate()
            .all(|(i, &s)| self.contending.contains(i) == is_contending(s))
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// True when no stations have been added.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Was station `node` still transmitting after `start`, when a frame
    /// it might receive began?
    #[inline]
    pub fn was_transmitting_during(&self, node: NodeId, start: Micros) -> bool {
        // Transmissions always begin before the station could hear
        // anything, so overlap with the frame reduces to this check.
        self.tx_until[node] > start
    }
}

/// A `HashMap` keyed by MAC address, hashed with [`MacHasher`].
pub type MacMap<V> = HashMap<MacAddr, V, BuildHasherDefault<MacHasher>>;

/// A fixed multiply-and-fold hasher for the MAC-keyed maps of the event
/// loop. Keys come from the simulation itself, never from outside it, so
/// they need no keyed (SipHash) hashing; no such map is iterated, so the
/// hasher cannot change any output. A MAC hashes as its length prefix and
/// one little-endian word of its six octets; the fold at the end spreads
/// the octets that vary (the low id bytes sit high in that word) into the
/// low bits the table indexes with.
#[derive(Clone, Copy, Default)]
pub struct MacHasher(u64);

impl MacHasher {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for MacHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let wide = self.0 as u128 * Self::K as u128;
        (wide as u64) ^ (wide >> 64) as u64
    }
}

/// The states a carrier-sense transition acts on: a busy channel freezes
/// `Backoff`, an idle one restarts the defer of `Frozen`.
#[inline]
fn is_contending(state: MacState) -> bool {
    matches!(state, MacState::Backoff { .. } | MacState::Frozen)
}

/// A station (AP or client): the *cold* per-station state — identity,
/// queues, adapters and counters. The event-loop-hot contention fields live
/// in the simulator's [`HotState`] columns under the same node id.
pub struct Station {
    /// Node id within the simulation.
    pub id: NodeId,
    /// This station's private random stream (backoff, traffic, decode and
    /// jitter draws), keyed by `(scenario seed, global station key)`.
    pub rng: SimRng,
    /// MAC address.
    pub mac: MacAddr,
    /// Current position. Fixed for the life of a scenario unless the
    /// driver moves the station ([`crate::Simulator::move_station`]), which
    /// keeps the topology cache and fade keying in sync.
    pub pos: Pos,
    /// AP or client.
    pub role: Role,
    /// Transmit queue.
    pub queue: VecDeque<Msdu>,
    /// Queue capacity; MSDUs beyond it are dropped.
    pub queue_cap: usize,
    /// In-flight operation for the head-of-line MSDU.
    pub current: Option<TxOp>,
    /// A response (CTS/ACK) owed after SIFS.
    pub pending_response: Option<SimFrame>,
    /// RTS policy for unicast data.
    pub rts_policy: RtsPolicy,
    /// Rate-adaptation algorithm configuration.
    pub adapter_cfg: RateAdaptation,
    /// Per-peer adapters.
    pub adapters: MacMap<Box<dyn RateAdapter>>,
    /// Most recent SNR (dB) observed from each peer.
    pub snr_hints: MacMap<f64>,
    /// Next sequence number.
    pub next_seq: u16,
    /// Has the user powered on (join event fired)?
    pub joined: bool,
    /// Has the user left for good (no re-association)?
    pub departed: bool,
    /// Client: associated AP node, once association completes.
    pub associated_ap: Option<NodeId>,
    /// Traffic profile (clients; ignored for APs).
    pub traffic: TrafficProfile,
    /// Counters.
    pub stats: StationStats,
    /// APs with dynamic channel assignment: per-channel air-time counters
    /// at the last evaluation (empty until the first one).
    pub chan_airtime_snapshot: Vec<u64>,
    /// Fragmentation threshold (payload bytes): unicast data MSDUs larger
    /// than this are sent as a SIFS-separated fragment burst. `None` (the
    /// 2005 default) disables fragmentation.
    pub frag_threshold: Option<u32>,
    /// Power-save Null-frame cadence (clients), µs; `None` = no signalling.
    pub power_save_interval_us: Option<Micros>,
    /// Current power-management bit (toggles with each Null frame).
    pub power_save_state: bool,
}

impl Station {
    /// Creates a station with empty state.
    pub fn new(
        id: NodeId,
        mac: MacAddr,
        pos: Pos,
        role: Role,
        rts_policy: RtsPolicy,
        adapter_cfg: RateAdaptation,
        traffic: TrafficProfile,
    ) -> Station {
        Station {
            id,
            rng: SimRng::new(0, id as u64),
            mac,
            pos,
            role,
            queue: VecDeque::new(),
            queue_cap: 128,
            current: None,
            pending_response: None,
            rts_policy,
            adapter_cfg,
            adapters: MacMap::default(),
            snr_hints: MacMap::default(),
            next_seq: 0,
            joined: false,
            departed: false,
            associated_ap: None,
            traffic,
            stats: StationStats::default(),
            chan_airtime_snapshot: Vec::new(),
            frag_threshold: None,
            power_save_interval_us: None,
            power_save_state: false,
        }
    }

    /// True when this station is an AP.
    pub fn is_ap(&self) -> bool {
        matches!(self.role, Role::Ap { .. })
    }

    /// Enqueues an MSDU; returns false (and counts a drop) when full.
    pub fn enqueue(&mut self, msdu: Msdu) -> bool {
        if self.queue.len() >= self.queue_cap {
            self.stats.queue_drops += 1;
            return false;
        }
        self.queue.push_back(msdu);
        true
    }

    /// Pushes an MSDU at the front (beacons preempt data).
    pub fn enqueue_front(&mut self, msdu: Msdu) {
        self.queue.push_front(msdu);
    }

    /// Assigns the next sequence number.
    pub fn take_seq(&mut self) -> u16 {
        let s = self.next_seq;
        self.next_seq = (self.next_seq + 1) % 4096;
        s
    }

    /// The rate adapter for `peer`, created on first use.
    pub fn adapter_for(&mut self, peer: MacAddr) -> &mut Box<dyn RateAdapter> {
        let cfg = self.adapter_cfg;
        self.adapters.entry(peer).or_insert_with(|| cfg.build())
    }

    /// Picks the data rate for the next attempt to `peer`.
    pub fn pick_rate(&mut self, peer: MacAddr) -> Rate {
        let hint = self.snr_hints.get(&peer).copied();
        self.adapter_for(peer).rate(hint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn station() -> Station {
        Station::new(
            0,
            MacAddr::from_id(1),
            Pos::default(),
            Role::Client,
            RtsPolicy::Never,
            RateAdaptation::Arf(Rate::R11),
            TrafficProfile::silent(),
        )
    }

    fn hot_with_one() -> HotState {
        let mut h = HotState::default();
        h.push(0, 0, false);
        h
    }

    fn msdu() -> Msdu {
        Msdu {
            dst: MacAddr::from_id(2),
            bssid: MacAddr::from_id(2),
            payload: 100,
            kind: MsduKind::Data { to_ds: true },
            enqueued_at: 0,
        }
    }

    #[test]
    fn rts_policy_threshold() {
        assert!(!RtsPolicy::Never.applies(5000));
        assert!(RtsPolicy::Always.applies(0));
        let t = RtsPolicy::Threshold(1000);
        assert!(!t.applies(1000));
        assert!(t.applies(1001));
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut s = station();
        s.queue_cap = 3;
        for _ in 0..3 {
            assert!(s.enqueue(msdu()));
        }
        assert!(!s.enqueue(msdu()));
        assert_eq!(s.stats.queue_drops, 1);
        assert_eq!(s.queue.len(), 3);
    }

    #[test]
    fn beacon_preempts_queue() {
        let mut s = station();
        s.enqueue(msdu());
        let mut beacon = msdu();
        beacon.kind = MsduKind::Beacon;
        s.enqueue_front(beacon);
        assert_eq!(s.queue.front().unwrap().kind, MsduKind::Beacon);
    }

    #[test]
    fn seq_numbers_wrap_mod_4096() {
        let mut s = station();
        s.next_seq = 4095;
        assert_eq!(s.take_seq(), 4095);
        assert_eq!(s.take_seq(), 0);
    }

    #[test]
    fn adapters_are_per_peer() {
        let mut s = station();
        let p1 = MacAddr::from_id(10);
        let p2 = MacAddr::from_id(11);
        s.adapter_for(p1).on_failure();
        s.adapter_for(p1).on_failure();
        assert_eq!(s.pick_rate(p1), Rate::R5_5, "p1 stepped down");
        assert_eq!(s.pick_rate(p2), Rate::R11, "p2 untouched");
    }

    #[test]
    fn contending_tracks_every_state() {
        let mut h = hot_with_one();
        h.push(0, 1, false);
        assert!(h.contending.is_empty(), "new stations start Idle");
        let phases = [TxPhase::Rts, TxPhase::Data, TxPhase::Cts, TxPhase::Ack];
        let states = [
            (MacState::Idle, false),
            (
                MacState::Backoff {
                    started: 5,
                    round: 1,
                    held_eifs: true,
                },
                true,
            ),
            (MacState::Frozen, true),
            (MacState::AwaitCts, false),
            (MacState::AwaitAck, false),
        ]
        .into_iter()
        .chain(
            phases
                .into_iter()
                .map(|phase| (MacState::Transmitting { phase }, false)),
        );
        for (state, contending) in states {
            // Enter from both sides of the split so insert and remove run.
            for from in [MacState::Idle, MacState::Frozen] {
                h.set_state(1, from);
                h.set_state(1, state);
                assert_eq!(h.state(1), state);
                assert_eq!(h.contending.contains(1), contending, "{state:?}");
                assert!(!h.contending.contains(0), "neighbour untouched");
                assert!(h.contending_consistent());
            }
        }
    }

    /// Simulated MACs differ only in their last octets, which sit in the
    /// high bytes of the hashed word; the fold must still spread them over
    /// the low bits a table indexes with (a bare multiply leaves those bits
    /// constant).
    #[test]
    fn mac_hashes_spread_over_the_low_bits() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<MacHasher>::default();
        let buckets: std::collections::BTreeSet<u64> = (1..=4096)
            .map(|id| build.hash_one(MacAddr::from_id(id)) & 4095)
            .collect();
        // 4 096 random draws fill about 2 590 of 4 096 buckets.
        assert!(buckets.len() > 2_400, "{} buckets", buckets.len());
    }

    #[test]
    fn half_duplex_overlap_check() {
        let mut h = hot_with_one();
        h.tx_until[0] = 1000;
        assert!(h.was_transmitting_during(0, 500));
        assert!(!h.was_transmitting_during(0, 1000));
    }
}
