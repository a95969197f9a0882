//! # wifi-sim
//!
//! A discrete-event simulator of IEEE 802.11b DCF collision domains — the
//! substrate substituting for the live IETF-62 network in the reproduction of
//! *Understanding Congestion in IEEE 802.11b Wireless Networks* (IMC 2005).
//!
//! What is modelled:
//!
//! * **CSMA/CA** — carrier sense with configurable threshold (hence hidden
//!   terminals), DIFS/EIFS defer, slotted backoff with freeze/resume,
//!   exponential contention-window growth, retry limits;
//! * **RTS/CTS** — optional per station (never / always / size threshold),
//!   NAV honoured by overhearers;
//! * **PHY** — log-distance path loss, SINR with interference power
//!   summation, capture effect, per-rate/per-size frame error model,
//!   long-preamble 802.11b air times;
//! * **rate adaptation** — ARF, AARF, fixed, and SNR-threshold schemes;
//! * **infrastructure** — APs with beacons and association, clients with
//!   join/leave schedules and Poisson uplink/downlink traffic;
//! * **vicinity sniffers** — RFMon-style capture with the paper's three loss
//!   causes (out-of-range/hidden terminal, bit error/collision, hardware
//!   saturation) plus full ground truth for validating trace analyses.
//!
//! Simulations are deterministic: configuration + seed ⇒ identical traces.
//!
//! ```
//! use wifi_sim::{ClientConfig, SimConfig, Simulator};
//! use wifi_sim::geometry::Pos;
//! use wifi_sim::rate::RateAdaptation;
//! use wifi_sim::sniffer::SnifferConfig;
//! use wifi_sim::station::RtsPolicy;
//! use wifi_sim::traffic::TrafficProfile;
//! use wifi_frames::phy::Rate;
//!
//! let mut sim = Simulator::new(SimConfig::default());
//! sim.add_ap(Pos::new(0.0, 0.0), 0, 6);
//! sim.add_client(ClientConfig {
//!     pos: Pos::new(5.0, 0.0),
//!     channel_idx: 0,
//!     rts_policy: RtsPolicy::Never,
//!     adaptation: RateAdaptation::Arf(Rate::R11),
//!     traffic: TrafficProfile::symmetric(50.0),
//!     join_at_us: 0,
//!     leave_at_us: None,
//!     power_save_interval_us: None,
//!     frag_threshold: None,
//! });
//! sim.add_sniffer(SnifferConfig::default());
//! sim.run_until(2_000_000); // two simulated seconds
//! assert!(!sim.sniffers()[0].trace.is_empty());
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod config;
pub mod events;
pub mod frame_info;
pub mod geometry;
pub mod medium;
pub mod radio;
pub mod rate;
pub mod rng;
pub mod runner;
pub mod shard;
pub mod sim;
pub mod sniffer;
pub mod spsc;
pub mod station;
pub mod topology;
pub mod traffic;

pub use config::SimConfig;
pub use runner::{run_parallel, CellReport, RunReport};
pub use sim::{ClientConfig, GroundTruth, Simulator};
