//! # ietf80211-congestion
//!
//! A full reproduction of *Understanding Congestion in IEEE 802.11b
//! Wireless Networks* (Jardosh, Ramachandran, Almeroth, Belding-Royer;
//! IMC 2005) as a Rust workspace:
//!
//! * [`congestion`] — the paper's contribution: the channel busy-time
//!   metric, utilization, throughput/goodput, congestion classification,
//!   the unrecorded-frame estimator, and every per-figure analysis;
//! * [`wifi_sim`] — a discrete-event IEEE 802.11b DCF simulator standing in
//!   for the live IETF-62 network (CSMA/CA, RTS/CTS, rate adaptation,
//!   fading, association, vicinity sniffers);
//! * [`wifi_frames`] — 802.11 frames, wire format, radiotap, and timing;
//! * [`wifi_pcap`] — from-scratch classic-pcap and pcapng readers and
//!   writers;
//! * [`ietf_workloads`] — the day-session, plenary-session and load-ramp
//!   scenarios.
//!
//! The [`trace`] module glues the layers: export a simulated capture to a
//! pcap file exactly as a 2005 sniffer would have written it (radiotap
//! link type, 250-byte snaplen), and re-ingest any such file back into
//! [`wifi_frames::FrameRecord`]s for analysis.
//!
//! ```no_run
//! use ietf80211_congestion::prelude::*;
//!
//! let scenario = ietf_workloads::load_ramp(7, 100, 60, 2.0);
//! let result = scenario.run();
//! let stats = congestion::analyze(&result.traces[0]);
//! let bins = congestion::UtilizationBins::build(&stats);
//! println!("utilization mode: {:?}", bins.mode());
//! ```

#![warn(missing_docs)]

pub use congestion;
pub use ietf_workloads;
pub use wifi_frames;
pub use wifi_pcap;
pub use wifi_sim;

pub mod ingest;
pub mod serve;
pub mod trace;

/// Convenient glob-import surface for examples and quick scripts.
pub mod prelude {
    pub use congestion::{
        analyze, cbt_us, estimate_unrecorded, CongestionClassifier, CongestionLevel,
        UtilizationBins,
    };
    pub use ietf_workloads::{ietf_day, ietf_plenary, load_ramp, Scenario, SessionScale};
    pub use wifi_frames::{FrameKind, FrameRecord, MacAddr, Rate};
    pub use wifi_sim::{ClientConfig, SimConfig, Simulator};

    pub use crate::ingest::{
        analyze_capture_streams, render_analysis, SourceOutcome, StreamAnalysis,
    };
    pub use crate::serve::{run_serve, ServeConfig};
    pub use crate::trace::{read_capture, write_capture, CaptureStream, LossyCapture};
}
