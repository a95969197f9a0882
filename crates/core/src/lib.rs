//! # congestion
//!
//! The analysis library of the reproduction of *Understanding Congestion in
//! IEEE 802.11b Wireless Networks* (Jardosh et al., IMC 2005) — the paper's
//! primary contribution, as a reusable crate.
//!
//! Given a time-ordered stream of captured frames
//! ([`wifi_frames::FrameRecord`]), this crate computes:
//!
//! * **channel busy time & utilization** ([`busy_time`]) — Equations 2–8
//!   with the Table 2 delay components;
//! * **per-second link-layer statistics** ([`persec`]) — throughput,
//!   goodput, per-rate air time and byte counts, the 16 size×rate frame
//!   categories, first-attempt acknowledgment counts, acceptance delays;
//! * **utilization-conditioned aggregation** ([`bins`]) — the "average over
//!   all seconds that are x % utilized" grouping every figure of Section 6
//!   uses;
//! * **congestion classification** ([`congestion`]) — uncongested /
//!   moderate / high with the knee recovered from the throughput curve;
//! * **capture-loss estimation** ([`unrecorded`]) — the DATA→ACK, RTS→CTS
//!   and RTS→CTS→DATA atomicity estimator of Section 4.4;
//! * **per-AP and per-user accounting** ([`ap_stats`], [`users`]) —
//!   Figures 4(a)–4(c);
//! * **the beacon-reliability baseline metric** ([`beacon_metric`]) — the
//!   authors' earlier congestion signal, for comparison.
//!
//! ```
//! use congestion::{analyze, UtilizationBins, CongestionClassifier};
//! # let records: Vec<wifi_frames::FrameRecord> = Vec::new();
//! let per_second = analyze(&records);
//! let bins = UtilizationBins::build(&per_second);
//! let classifier = CongestionClassifier::from_measurements(&bins);
//! for s in &per_second {
//!     let _level = classifier.classify(s.utilization_pct());
//! }
//! ```

#![warn(missing_docs)]

pub mod ap_stats;
pub mod beacon_metric;
pub mod bins;
pub mod busy_time;
pub mod categories;
pub mod congestion;
pub mod merge;
pub mod persec;
pub mod stats;
pub mod theory;
pub mod unrecorded;
pub mod users;

pub use bins::{BinAgg, UtilizationBins};
pub use busy_time::cbt_us;
pub use categories::{Category, SizeClass};
pub use congestion::{find_knee, CongestionClassifier, CongestionLevel};
pub use merge::{coverage_gain, merge_traces, CoverageGain, MergePoll, MergeStream, OnlineMerge};
pub use persec::{analyze, DelayAgg, SecondAccumulator, SecondStats};
pub use stats::{mean_ci95, MeanCi};
pub use theory::{bianchi, tmt_bps, Bianchi};
pub use unrecorded::{estimate as estimate_unrecorded, UnrecordedEstimate};
