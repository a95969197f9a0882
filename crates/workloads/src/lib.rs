//! # ietf-workloads
//!
//! Scenario builders reproducing the workload of the 62nd IETF meeting for
//! the congestion study: the **day session** (users spread across rooms,
//! three sniffers inside the busiest room), the **plenary session** (everyone
//! packed into one merged ballroom, sniffers co-located), and a **load ramp**
//! that sweeps a single channel from idle to deep saturation so every
//! utilization bin of the paper's figures is populated.
//!
//! All scenarios are deterministic in their seed and scale-parameterized:
//! the defaults run in seconds on a laptop; turning `users`/`duration_s` up
//! approaches the original deployment's scale.
//!
//! Every scenario runs through one chunk loop in [`run`]: whole traces
//! ([`Scenario::run`], [`MobileScenario::run`]) or streamed per-second rows
//! ([`run::run_streaming`], [`run::run_streaming_mobile`],
//! [`run::run_sharded`]).

#![warn(missing_docs)]

pub mod attendance;
pub mod mobility;
pub mod run;
pub mod scenario;

pub use attendance::Attendance;
pub use mobility::{mobile_venue, ChurnScale, MobileScenario, WaypointMobility};
pub use run::RunPlan;
pub use scenario::{
    ietf_day, ietf_plenary, ietf_plenary_sharded, ietf_radio, load_ramp, load_ramp_with, table1,
    venue_campus, CampusScale, DataSetInfo, Scenario, ScenarioResult, SessionScale, ShardScenario,
    StationSummary,
};
