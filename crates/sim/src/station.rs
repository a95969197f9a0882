//! Per-station MAC state: the DCF contention machine's data, the transmit
//! queue, per-peer rate adapters, and counters.
//!
//! `Station` is deliberately a *state container*: the transition logic lives
//! in [`crate::sim::Simulator`], which owns the medium and the event queue.
//! The methods here are the self-contained pieces (queue management, backoff
//! bookkeeping, adapter lookup) that are unit-testable in isolation.

use crate::events::NodeId;
use crate::frame_info::SimFrame;
use crate::geometry::Pos;
use crate::rate::{RateAdaptation, RateAdapter};
use crate::rng::SimRng;
use crate::topology::{for_each_bit, NodeSet};
use crate::traffic::TrafficProfile;
use std::collections::{HashMap, VecDeque};
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
    /// Have a frame; waiting out DIFS/EIFS after the channel went idle.
    WaitDefer,
    /// Counting down backoff slots; `started` is when the countdown began,
    /// `slots_at_start` the remaining slots at that moment.
    Backoff {
        /// Countdown start time.
        started: Micros,
        /// Slots remaining when the countdown began.
        slots_at_start: u32,
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
/// The carrier-sense busy/release fan-outs walk a listener bitset twice per
/// frame: a counter pass touching `sensed` (and, on release, `nav_until`
/// and `idle_since`) for every listening station, then a MAC-callback pass
/// over the listeners that are also *contending* — in `WaitDefer`,
/// `Backoff` or `Frozen`, tracked as a bitset beside `state`. With the
/// fields inline in `Station` (a multi-hundred-byte struct holding queues
/// and adapter maps) each touch was a fresh cache line. Packed columns put
/// 8–16 stations' worth of one field on a line. Cold state (MAC, queue
/// payloads, stats, RNG, adapters) stays in [`Station`] behind the same
/// `NodeId` indexing.
#[derive(Default)]
pub struct HotState {
    /// Contention state. Private so that every write goes through
    /// [`HotState::set_state`], which keeps `contending` in step.
    state: Vec<MacState>,
    /// Stations whose `state` is `WaitDefer`, `Backoff` or `Frozen` — the
    /// only states a carrier-sense busy or idle transition acts on beyond
    /// the counters and the idle stamp.
    contending: NodeSet,
    /// Remaining backoff slots (meaningful in WaitDefer/Frozen/Backoff).
    pub backoff_slots: Vec<u32>,
    /// Current contention-window size.
    pub cw: Vec<u32>,
    /// Number of carrier-sensed in-flight transmissions.
    pub sensed: Vec<u32>,
    /// NAV expiry.
    pub nav_until: Vec<Micros>,
    /// When the channel last became idle for this station.
    pub idle_since: Vec<Micros>,
    /// Whether the next defer must use EIFS (after an undecodable frame).
    pub use_eifs: Vec<bool>,
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
    pub fn push(&mut self, channel_idx: usize, key: u64, cw_min: u32, shell: bool) -> NodeId {
        let id = self.state.len();
        self.state.push(MacState::Idle);
        self.backoff_slots.push(0);
        self.cw.push(cw_min);
        self.sensed.push(0);
        self.nav_until.push(0);
        self.idle_since.push(0);
        self.use_eifs.push(false);
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

    /// Counter pass of a carrier-sense busy fan-out over the listener
    /// bitset `words` ([`NodeSet::words`]): raises `sensed` for every
    /// listener and writes `words ∩ contending` into `hits` (cleared first),
    /// the listeners the MAC callback pass visits.
    pub(crate) fn sense_busy(&mut self, words: &[u64], hits: &mut Vec<u64>) {
        hits.clear();
        for (wi, &w) in words.iter().enumerate() {
            let base = wi * 64;
            if w == u64::MAX {
                // A dense cell fills whole words: a plain slice loop, which
                // the compiler vectorizes.
                self.sensed[base..base + 64]
                    .iter_mut()
                    .for_each(|s| *s += 1);
            } else {
                for_each_bit(w, base, |i| self.sensed[i] += 1);
            }
            hits.push(w & self.contending.word(wi));
        }
    }

    /// Counter pass of a carrier-sense release (see [`Self::sense_busy`]):
    /// lowers `sensed` for every listener, stamps `idle_since = now` where
    /// the channel went idle (no carrier left, NAV expired), and writes
    /// `words ∩ contending` into `hits`.
    pub(crate) fn sense_release(&mut self, words: &[u64], now: Micros, hits: &mut Vec<u64>) {
        hits.clear();
        for (wi, &w) in words.iter().enumerate() {
            let base = wi * 64;
            if w == u64::MAX {
                let sensed = &mut self.sensed[base..base + 64];
                sensed.iter_mut().for_each(|s| *s -= 1);
                let nav = &self.nav_until[base..base + 64];
                let idle = &mut self.idle_since[base..base + 64];
                for ((&s, &nav), idle) in sensed.iter().zip(nav).zip(idle) {
                    if s == 0 && nav <= now {
                        *idle = now;
                    }
                }
            } else {
                for_each_bit(w, base, |i| {
                    self.sensed[i] -= 1;
                    if self.sensed[i] == 0 && self.nav_until[i] <= now {
                        self.idle_since[i] = now;
                    }
                });
            }
            hits.push(w & self.contending.word(wi));
        }
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

    /// The channel is busy for station `node` right now?
    #[inline]
    pub fn channel_busy(&self, node: NodeId, now: Micros) -> bool {
        self.sensed[node] > 0 || self.nav_until[node] > now
    }

    /// Was station `node` transmitting at any point in `[start, end]`?
    #[inline]
    pub fn was_transmitting_during(&self, node: NodeId, start: Micros, end: Micros) -> bool {
        // tx_until > start means the last transmission was still in the air
        // after `start`; transmissions always begin before the station could
        // hear anything, so overlap reduces to this check.
        let _ = end;
        self.tx_until[node] > start
    }

    /// Consumes elapsed backoff time of `node`: decrements the remaining
    /// slot count by the number of whole slots that fit in `elapsed`.
    #[inline]
    pub fn consume_backoff(&mut self, node: NodeId, elapsed: Micros, slot_us: Micros) {
        let consumed = (elapsed / slot_us) as u32;
        self.backoff_slots[node] = self.backoff_slots[node].saturating_sub(consumed);
    }
}

/// The states a carrier-sense transition acts on: a busy channel freezes
/// `WaitDefer`/`Backoff`, an idle one restarts the defer of `Frozen`.
#[inline]
fn is_contending(state: MacState) -> bool {
    matches!(
        state,
        MacState::WaitDefer | MacState::Backoff { .. } | MacState::Frozen
    )
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
    pub adapters: HashMap<MacAddr, Box<dyn RateAdapter>>,
    /// Most recent SNR (dB) observed from each peer.
    pub snr_hints: HashMap<MacAddr, f64>,
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
            adapters: HashMap::new(),
            snr_hints: HashMap::new(),
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
        h.push(0, 0, 31, false);
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
    fn busy_combines_carrier_sense_and_nav() {
        let mut h = hot_with_one();
        assert!(!h.channel_busy(0, 100));
        h.sensed[0] = 1;
        assert!(h.channel_busy(0, 100));
        h.sensed[0] = 0;
        h.nav_until[0] = 200;
        assert!(h.channel_busy(0, 100));
        assert!(!h.channel_busy(0, 200));
    }

    #[test]
    fn backoff_consumption_floors_partial_slots() {
        let mut h = hot_with_one();
        h.backoff_slots[0] = 10;
        h.consume_backoff(0, 59, 20); // 2.95 slots -> 2
        assert_eq!(h.backoff_slots[0], 8);
        h.consume_backoff(0, 1_000_000, 20); // saturates at zero
        assert_eq!(h.backoff_slots[0], 0);
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
        h.push(0, 1, 31, false);
        assert!(h.contending.is_empty(), "new stations start Idle");
        let phases = [TxPhase::Rts, TxPhase::Data, TxPhase::Cts, TxPhase::Ack];
        let states = [
            (MacState::Idle, false),
            (MacState::WaitDefer, true),
            (
                MacState::Backoff {
                    started: 5,
                    slots_at_start: 3,
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

    #[test]
    fn sense_passes_match_per_station_counting() {
        // 130 stations: one full word, one partial word, one sparse word,
        // so both the slice path and the bit path run.
        let mut h = HotState::default();
        for key in 0..130 {
            h.push(0, key, 31, false);
        }
        let words = [u64::MAX, 0xF0F0_0000_0000_0001, 0b10];
        let listeners: Vec<usize> = (0..130)
            .filter(|&i| words[i / 64] >> (i % 64) & 1 == 1)
            .collect();
        h.set_state(3, MacState::Frozen);
        h.set_state(64, MacState::WaitDefer);
        h.set_state(65, MacState::Idle);
        h.set_state(129, MacState::Frozen);
        h.sensed[5] = 1; // already busy from another frame
        h.nav_until[7] = 500; // NAV outlives the release at 300
        let mut hits = Vec::new();

        h.sense_busy(&words, &mut hits);
        assert_eq!(hits, [1 << 3, 1, 1 << 1]);
        for i in 0..130 {
            let raised = listeners.contains(&i) as u32 + (i == 5) as u32;
            assert_eq!(h.sensed[i], raised, "station {i}");
        }

        h.sense_release(&words, 300, &mut hits);
        assert_eq!(hits, [1 << 3, 1, 1 << 1]);
        for i in 0..130 {
            assert_eq!(h.sensed[i], (i == 5) as u32, "station {i}");
            let went_idle = listeners.contains(&i) && i != 5 && i != 7;
            assert_eq!(h.idle_since[i], if went_idle { 300 } else { 0 }, "{i}");
        }
    }

    #[test]
    fn half_duplex_overlap_check() {
        let mut h = hot_with_one();
        h.tx_until[0] = 1000;
        assert!(h.was_transmitting_during(0, 500, 2000));
        assert!(!h.was_transmitting_during(0, 1000, 2000));
    }
}
