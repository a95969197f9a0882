//! DCF channel access: the DIFS/EIFS defer, the backoff, frozen
//! countdowns, the contention window and each medium's grant, in one
//! place (the decisions of ns-3's `ChannelAccessManager` and `Txop`).
//!
//! The module owns every station's access columns and every medium's grant
//! bookkeeping. The event handlers of [`crate::sim`] lend it the event
//! loop's clock and state for one call and say what happened: a frame is
//! ready, a carrier edge, a failed decode, an exchange's end, a
//! countdown's `BackoffDone`; and, around each batch, it places and expands
//! the grants. docs/ARCHITECTURE.md §4 has the model: one deadline per
//! countdown, where a defer's end sorts, and the ghosts that stand in for
//! the timers of the two-timer DCF.

use crate::events::{Event, EventQueue, NodeId, TimerKind};
use crate::medium::Medium;
use crate::sim::batch_sort_key;
use crate::station::{HotState, MacState, Station};
use crate::topology::{for_each_bit, NodeSet};
use rand::Rng;
use wifi_frames::timing::{dcf, Micros};

/// Timer rank (`batch_sort_key`) at which a countdown's defer ends: before
/// its station's `BackoffDone` and every other timer of it, where the
/// two-timer DCF's separate defer timer sorted.
pub(crate) const DEFER_END_RANK: u64 = 0;

/// `countdown_end` of a station with no countdown to grant.
const NO_COUNTDOWN: Micros = Micros::MAX;

/// One station's channel-access values, read whole: what a test or a
/// digest compares, independent of where the simulator keeps each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StationAccess {
    /// Contention state.
    pub state: MacState,
    /// Backoff slots left (in `Backoff`, those left when the defer ends).
    pub backoff_slots: u32,
    /// Contention window.
    pub cw: u32,
    /// When the running countdown ends; `None` outside `Backoff`, and once
    /// its `BackoffDone` is in a batch.
    pub countdown_end: Option<Micros>,
    /// NAV expiry.
    pub nav_until: Micros,
    /// The station's own idle stamp: the end of its own transmission, a
    /// NAV expiry, a channel switch.
    pub idle_stamp: Micros,
    /// Whether the next defer is an EIFS.
    pub use_eifs: bool,
}

/// Every station's access columns, by node id, and every medium's grant
/// bookkeeping, by channel index.
#[derive(Default)]
pub(crate) struct ChannelAccess {
    /// Whether a failed decode owes an EIFS (`SimConfig::eifs_enabled`).
    eifs_enabled: bool,
    /// Remaining backoff slots (in `Backoff`, those left at `started`).
    backoff_slots: Vec<u32>,
    cw: Vec<u32>,
    /// In `Backoff`, when the countdown runs out; [`NO_COUNTDOWN`] in every
    /// other state, and once the grant puts its `BackoffDone` in a batch.
    countdown_end: Vec<Micros>,
    /// Whether the next defer is an EIFS. In `Backoff`, the flag as it
    /// stands after the running defer; the flag during it is `held_eifs`.
    use_eifs: Vec<bool>,
    /// The station's own record of when its channel went idle; the idle
    /// edges of other stations' releases are kept by the medium
    /// (`idle_since` combines the two).
    idle_stamp: Vec<Micros>,
    nav_until: Vec<Micros>,
    /// Per medium: the earliest countdown end armed since its grant was
    /// placed, and the next end found when the grant popped.
    armed_since_grant: Vec<Micros>,
    /// Per medium: how many of its stations have a countdown end.
    counting_down: Vec<u32>,
    /// Whether some `armed_since_grant` entry was lowered since
    /// `place_grants` last ran; most batches arm nothing.
    grants_stale: bool,
}

impl ChannelAccess {
    /// No stations yet, on `channels` media.
    pub(crate) fn new(channels: usize, eifs_enabled: bool) -> ChannelAccess {
        ChannelAccess {
            eifs_enabled,
            armed_since_grant: vec![NO_COUNTDOWN; channels],
            counting_down: vec![0; channels],
            ..ChannelAccess::default()
        }
    }

    /// Appends one station's row, its window at CWmin.
    pub(crate) fn push(&mut self) {
        self.backoff_slots.push(0);
        self.cw.push(dcf::CW_MIN);
        self.countdown_end.push(NO_COUNTDOWN);
        self.use_eifs.push(false);
        self.idle_stamp.push(0);
        self.nav_until.push(0);
    }

    /// `node`'s values, in contention state `state`.
    pub(crate) fn station(&self, node: NodeId, state: MacState) -> StationAccess {
        StationAccess {
            state,
            backoff_slots: self.backoff_slots[node],
            cw: self.cw[node],
            countdown_end: Some(self.countdown_end[node]).filter(|&e| e != NO_COUNTDOWN),
            nav_until: self.nav_until[node],
            idle_stamp: self.idle_stamp[node],
            use_eifs: self.use_eifs[node],
        }
    }

    /// Decrements `node`'s remaining slots by the whole slots in `elapsed`.
    fn consume_backoff(&mut self, node: NodeId, elapsed: Micros) {
        let consumed = (elapsed / dcf::SLOT_US) as u32;
        self.backoff_slots[node] = self.backoff_slots[node].saturating_sub(consumed);
    }
}

/// When the channel last went idle for a station, as far as a defer can
/// tell (asked only while it is idle for the station): the later of its
/// own `stamp` (its own transmission's end, a NAV expiry, a channel switch)
/// and `release`, the latest release it sensed (`Medium::last_release`).
/// A release that left the station sensing another frame is followed by a
/// later one that did not, so the latest is the one that let its carrier
/// go. One before `nav_until` was covered by the NAV and is no idle edge;
/// the NAV's expiry stamps instead.
pub(crate) fn idle_since(release: Option<Micros>, stamp: Micros, nav_until: Micros) -> Micros {
    match release {
        Some(at) if at >= nav_until => stamp.max(at),
        _ => stamp,
    }
}

/// Which carrier-sense edge a medium's listeners saw.
#[derive(Clone, Copy)]
pub(crate) enum Edge {
    /// A transmission's energy reached them.
    Busy,
    /// `transmitter`'s frame left the air.
    Release { transmitter: NodeId },
}

/// Channel access lent the event loop for one call: its clock (the time,
/// the batch round, the event being dispatched), the hot columns, the queue
/// (grants and ghosts), the media with their members, and the stations,
/// whose streams draw the backoffs.
pub(crate) struct Access<'a> {
    pub(crate) dcf: &'a mut ChannelAccess,
    pub(crate) hot: &'a mut HotState,
    pub(crate) queue: &'a mut EventQueue,
    pub(crate) media: &'a [Medium],
    pub(crate) members: &'a [NodeSet],
    pub(crate) stations: &'a mut [Station],
    pub(crate) now: Micros,
    pub(crate) round: u32,
    pub(crate) dispatching: Option<Event>,
}

impl Access<'_> {
    /// The channel is busy for `node` right now: it senses a transmission,
    /// or its NAV is set.
    #[inline]
    fn channel_busy(&self, node: NodeId) -> bool {
        self.media[self.hot.channel_idx[node]].senses(node) || !self.nav_clear(node)
    }

    /// `node`'s NAV has run out.
    #[inline]
    pub(crate) fn nav_clear(&self, node: NodeId) -> bool {
        self.dcf.nav_until[node] <= self.now
    }

    /// `node` has a frame to send: whether it goes out at once, with no
    /// backoff pending and a defer of idle time already behind it.
    /// Otherwise the station draws a backoff if none is pending and
    /// freezes behind a busy channel or counts down.
    pub(crate) fn start(&mut self, node: NodeId) -> bool {
        let now = self.now;
        let defer = self.defer_interval(node);
        let ready_at = (!self.channel_busy(node)).then(|| {
            let release = self.media[self.hot.channel_idx[node]].last_release(node);
            idle_since(release, self.dcf.idle_stamp[node], self.dcf.nav_until[node]) + defer
        });
        if self.dcf.backoff_slots[node] == 0 {
            if ready_at.is_some_and(|at| at <= now) {
                return true;
            }
            self.backoff_from(node, self.dcf.cw[node]);
        }
        match ready_at {
            Some(at) => self.arm_countdown(node, at.max(now)),
            None => self.hot.set_state(node, MacState::Frozen),
        }
        false
    }

    /// Sets `node`'s contention window to `cw` and draws its backoff from
    /// it: CWmin after a success or a drop, the grown window for a retry,
    /// the window as it stands for a frame with no backoff pending.
    pub(crate) fn backoff_from(&mut self, node: NodeId, cw: u32) {
        self.dcf.cw[node] = cw;
        self.dcf.backoff_slots[node] = self.stations[node].rng.gen_range(0..=cw);
    }

    /// Starts `node`'s countdown: a defer that ends at `ready_at`, then its
    /// slots, with one deadline at the end of both. The medium's grant
    /// moves up to it before the next batch pops (`place_grants`).
    ///
    /// The defer's end does what the separate defer timer of the two-timer
    /// DCF did: it clears the EIFS flag (cleared here and held in the state
    /// in case a busy edge comes first, see `busy`), it falls among the
    /// events of its microsecond where that timer ran (`defer_over`), and
    /// it counts as one event: a ghost when slots are left, the
    /// `BackoffDone` at `ready_at` itself when none are.
    pub(crate) fn arm_countdown(&mut self, node: NodeId, ready_at: Micros) {
        let slots = self.dcf.backoff_slots[node];
        // A timer armed for a later time runs in the first batch there; one
        // armed for now, in the follow-up batch.
        let round = if ready_at == self.now {
            self.round + 1
        } else {
            0
        };
        let held_eifs = std::mem::replace(&mut self.dcf.use_eifs[node], false);
        let backoff = MacState::Backoff {
            started: ready_at,
            round,
            held_eifs,
        };
        self.hot.set_state(node, backoff);
        if slots > 0 {
            self.queue.record_ghost(ready_at);
        }
        debug_assert_eq!(self.queue.armed_at(node), None, "a live exchange timer");
        let end = ready_at + slots as Micros * dcf::SLOT_US;
        debug_assert_eq!(self.dcf.countdown_end[node], NO_COUNTDOWN);
        self.dcf.countdown_end[node] = end;
        let medium = self.hot.channel_idx[node];
        self.dcf.counting_down[medium] += 1;
        let armed = &mut self.dcf.armed_since_grant[medium];
        *armed = (*armed).min(end);
        self.dcf.grants_stale = true;
    }

    /// Whether the defer of `node`'s countdown, ending at `started` in batch
    /// `round` of that microsecond, is behind the event being dispatched:
    /// whether the two-timer DCF's defer timer would have run by now. At
    /// `started` itself that timer ran after the events of earlier batches
    /// and, within its own batch, in canonical order at
    /// `(4, key, DEFER_END_RANK)`: after the station's own `UserJoin`, say,
    /// and before any carrier-sense or end-of-frame event.
    pub(crate) fn defer_over(&self, node: NodeId, started: Micros, round: u32) -> bool {
        match (self.now, self.round).cmp(&(started, round)) {
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Equal => {
                let event = self.dispatching.expect("MAC handlers run inside run_until");
                batch_sort_key(&event, &self.hot.key) > (4, self.hot.key[node], DEFER_END_RANK)
            }
        }
    }

    fn defer_interval(&self, node: NodeId) -> Micros {
        if self.dcf.eifs_enabled && self.dcf.use_eifs[node] {
            dcf::EIFS_US
        } else {
            dcf::DIFS_US
        }
    }

    /// `node`'s countdown ran out, its `BackoffDone` dispatched: whether it
    /// transmits, which it does unless an earlier event of the batch took
    /// it out of `Backoff`.
    pub(crate) fn backoff_done(&mut self, node: NodeId) -> bool {
        if !matches!(self.hot.state(node), MacState::Backoff { .. }) {
            return false;
        }
        debug_assert!(!self.channel_busy(node), "a busy edge froze the countdown");
        let rearmed = std::mem::replace(&mut self.dcf.countdown_end[node], NO_COUNTDOWN);
        if rearmed != NO_COUNTDOWN {
            // An earlier event of this batch froze the countdown and armed
            // another (a channel switch). The station still transmits, as
            // its queue timer did; that timer left the new one armed, to
            // pop dead or be cancelled: one event at its end either way.
            self.dcf.counting_down[self.hot.channel_idx[node]] -= 1;
            self.queue.record_ghost(rearmed);
        }
        self.dcf.backoff_slots[node] = 0;
        true
    }

    /// A busy or release edge: `hits` holds the words of the contending
    /// listeners whose carrier it changed (`Medium::apply_cs`,
    /// `Medium::retire`). Each one whose NAV is not holding it already
    /// freezes, or restarts its defer, in ascending id order; each touches
    /// only its own station, its medium's grant bookkeeping and the ghost
    /// ledger, so the order is that of a walk over every listener. A
    /// release also stamps its transmitter idle, unless something else
    /// still holds the transmitter's channel.
    #[inline]
    pub(crate) fn carrier_edge(&mut self, hits: &[u64], edge: Edge) {
        for (wi, &w) in hits.iter().enumerate() {
            for_each_bit(w, wi * 64, |i| {
                if self.nav_clear(i) {
                    match edge {
                        Edge::Busy => self.busy(i),
                        Edge::Release { .. } => self.idle(i),
                    }
                }
            });
        }
        if let Edge::Release { transmitter } = edge {
            if !self.channel_busy(transmitter) {
                self.dcf.idle_stamp[transmitter] = self.now;
            }
        }
    }

    /// The channel turned busy for `node`: freeze contention. Inside the
    /// defer nothing is consumed and the EIFS flag is put back; after it,
    /// the whole slots since `started` are.
    ///
    /// The countdown's end is cleared; the queue is touched only when this
    /// was the last countdown of the medium, whose grant then goes. Where
    /// the queue timer this replaces was cancelled, its end is a ghost:
    /// after the defer, and inside it when no slots are left (the end is
    /// the defer's end). With slots left, the defer's end is the ghost
    /// already (`arm_countdown`). A countdown whose `BackoffDone` is in the
    /// current batch already has no end, and no ghost.
    #[inline]
    pub(crate) fn busy(&mut self, node: NodeId) {
        let MacState::Backoff {
            started,
            round,
            held_eifs,
        } = self.hot.state(node)
        else {
            return;
        };
        let end = std::mem::replace(&mut self.dcf.countdown_end[node], NO_COUNTDOWN);
        if end != NO_COUNTDOWN {
            let medium = self.hot.channel_idx[node];
            self.dcf.counting_down[medium] -= 1;
            if self.dcf.counting_down[medium] == 0 {
                // Its grant would pop with nothing to dispatch.
                self.queue.drop_grant(medium);
            }
        }
        let cancelled = if self.defer_over(node, started, round) {
            self.dcf.consume_backoff(node, self.now - started);
            true
        } else {
            self.dcf.use_eifs[node] = held_eifs;
            self.dcf.backoff_slots[node] == 0
        };
        if cancelled && end != NO_COUNTDOWN {
            self.queue.record_ghost(end);
        }
        self.hot.set_state(node, MacState::Frozen);
    }

    /// The channel turned idle for `node`: restart the defer.
    #[inline]
    fn idle(&mut self, node: NodeId) {
        let now = self.now;
        self.dcf.idle_stamp[node] = now;
        if self.hot.state(node) == MacState::Frozen {
            let defer = self.defer_interval(node);
            self.arm_countdown(node, now + defer);
        }
    }

    /// An idle edge for `node` unless its channel is still busy (a NAV
    /// expiry, a response sent, a channel switch).
    pub(crate) fn idle_if_quiet(&mut self, node: NodeId) {
        if !self.channel_busy(node) {
            self.idle(node);
        }
    }

    /// `node` sent a CTS or ACK: with work of its own it contends again
    /// with its backoff preserved; without, it is idle from now.
    pub(crate) fn response_sent(&mut self, node: NodeId, has_work: bool) {
        if has_work {
            self.hot.set_state(node, MacState::Frozen);
            self.idle_if_quiet(node);
        } else {
            self.hot.set_state(node, MacState::Idle);
            self.dcf.idle_stamp[node] = self.now;
        }
    }

    /// `node` failed to decode a frame addressed to it: its next defer is
    /// an EIFS. Inside a countdown's defer that is the held flag, which
    /// the defer's end discards.
    pub(crate) fn owe_eifs(&mut self, node: NodeId) {
        if !self.dcf.eifs_enabled {
            return;
        }
        if let MacState::Backoff { started, round, .. } = self.hot.state(node) {
            if !self.defer_over(node, started, round) {
                let held = MacState::Backoff {
                    started,
                    round,
                    held_eifs: true,
                };
                self.hot.set_state(node, held);
                return;
            }
        }
        self.dcf.use_eifs[node] = true;
    }

    /// `node` decoded an RTS or CTS reserving its channel until `until`:
    /// a NAV later than its own holds it, freezing its countdown if the
    /// channel was idle for it. Returns whether the NAV moved.
    pub(crate) fn set_nav(&mut self, node: NodeId, until: Micros) -> bool {
        if until <= self.dcf.nav_until[node] {
            return false;
        }
        let was_busy = self.channel_busy(node);
        self.dcf.nav_until[node] = until;
        if !was_busy {
            self.busy(node);
        }
        true
    }

    /// `node` leaves its channel: its countdown freezes, and the NAV and
    /// EIFS flag it owes that channel are void.
    pub(crate) fn detune(&mut self, node: NodeId) {
        self.busy(node);
        self.dcf.nav_until[node] = 0;
        self.dcf.use_eifs[node] = false;
    }

    /// `node` is on its new channel: idle from now, unless a frame there
    /// holds it.
    pub(crate) fn retuned(&mut self, node: NodeId) {
        self.dcf.idle_stamp[node] = self.now;
        self.idle_if_quiet(node);
    }

    /// Moves each medium's grant up to the earliest countdown armed there
    /// since it was placed, when that is earlier and something still counts
    /// down there; a grant already at or before it stays, and the earliest
    /// end is found again when it pops.
    pub(crate) fn place_grants(&mut self) {
        if !std::mem::take(&mut self.dcf.grants_stale) {
            return;
        }
        for (medium, armed) in self.dcf.armed_since_grant.iter_mut().enumerate() {
            let earliest = std::mem::replace(armed, NO_COUNTDOWN);
            if self.dcf.counting_down[medium] > 0
                && earliest < self.queue.grant_at(medium).unwrap_or(NO_COUNTDOWN)
            {
                self.queue.set_grant(medium, earliest);
            }
        }
    }

    /// Replaces each grant in `batch`, popped at `at`, with a `BackoffDone`
    /// for every countdown of its medium that ends at `at`, ascending, and
    /// notes the earliest end left for the grant's next placement.
    pub(crate) fn expand_grants(&mut self, at: Micros, batch: &mut Vec<Event>) {
        let mut i = 0;
        while i < batch.len() {
            let Event::Grant { medium } = batch[i] else {
                i += 1;
                continue;
            };
            // Order within the batch is the canonical sort's business.
            batch.swap_remove(i);
            if self.dcf.counting_down[medium] == 0 {
                continue; // nothing counts down there any more
            }
            let mut next = NO_COUNTDOWN;
            let contending = self.hot.contending();
            for (wi, &w) in self.members[medium].words().iter().enumerate() {
                for_each_bit(w & contending.word(wi), wi * 64, |node| {
                    let end = &mut self.dcf.countdown_end[node];
                    debug_assert!(*end >= at, "a countdown ended before its grant");
                    if *end == at {
                        *end = NO_COUNTDOWN;
                        self.dcf.counting_down[medium] -= 1;
                        let kind = TimerKind::BackoffDone;
                        batch.push(Event::Timer { node, kind });
                    } else {
                        next = next.min(*end);
                    }
                });
            }
            let armed = &mut self.dcf.armed_since_grant[medium];
            *armed = (*armed).min(next);
            self.dcf.grants_stale = true;
        }
    }

    /// Whether the bookkeeping is in step (checked by the event loop in
    /// debug builds, after every batch): `contending` holds exactly the
    /// contending stations; every `Backoff` station's countdown end is at
    /// `started + slots × slot`, and no other station has one; and each
    /// medium's grant, or the earlier end armed since it was placed, comes
    /// no later than its earliest undispatched end, with `counting_down`
    /// counting its ends.
    pub(crate) fn consistent(&self) -> bool {
        let dcf = &self.dcf;
        let countdowns = (0..self.hot.len()).all(|i| {
            let end = match self.hot.state(i) {
                MacState::Backoff { started, .. } => {
                    started + dcf.backoff_slots[i] as Micros * dcf::SLOT_US
                }
                _ => NO_COUNTDOWN,
            };
            dcf.countdown_end[i] == end
        });
        let grants = self.members.iter().enumerate().all(|(medium, members)| {
            let grant = self.queue.grant_at(medium).unwrap_or(NO_COUNTDOWN);
            let (earliest, counted) = members
                .iter()
                .map(|i| dcf.countdown_end[i])
                .fold((NO_COUNTDOWN, 0), |(earliest, n), end| {
                    (earliest.min(end), n + (end != NO_COUNTDOWN) as usize)
                });
            grant.min(dcf.armed_since_grant[medium]) <= earliest
                && counted == dcf.counting_down[medium] as usize
        });
        self.hot.contending_consistent() && countdowns && grants
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Gives `node` `slots` backoff slots (for tests that arm countdowns
    /// by hand).
    pub(crate) fn set_backoff_slots(dcf: &mut ChannelAccess, node: NodeId, slots: u32) {
        dcf.backoff_slots[node] = slots;
    }

    #[test]
    fn backoff_consumption_floors_partial_slots() {
        let mut dcf = ChannelAccess::new(1, true);
        dcf.push();
        dcf.backoff_slots[0] = 10;
        dcf.consume_backoff(0, 59); // 2.95 slots -> 2
        assert_eq!(dcf.backoff_slots[0], 8);
        dcf.consume_backoff(0, 1_000_000); // saturates at zero
        assert_eq!(dcf.backoff_slots[0], 0);
    }
}
