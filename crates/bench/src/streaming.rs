//! The streaming drivers, under the names the benchmark (`perfbench/`)
//! calls.
//!
//! They live in [`ietf_workloads::run`], beside [`ietf_workloads::Scenario`],
//! where the one chunk loop, component loop and merge serve every run:
//! [`run_streaming`] and [`run_streaming_mobile`] fold each sniffer's
//! captures into per-second rows chunk by chunk, and [`run_sharded`] runs
//! a recorded scenario's RF-isolation components on the
//! [`wifi_sim::runner::run_parallel`] pool. The whole-trace runs
//! ([`ietf_workloads::Scenario::run`],
//! [`ietf_workloads::MobileScenario::run`]) are the same loop in one chunk.

pub use ietf_workloads::run::{
    run_sharded, run_streaming, run_streaming_mobile, MobilityStats, ShardedRun, StreamedRun,
};
use ietf_workloads::Scenario;
use wifi_frames::timing::Micros;

/// [`run_streaming`] under its former name. Kept only because the frozen
/// `perfbench/` calls it by name; ROADMAP item 6's benchmark PR moves
/// `perfbench/` to [`run_streaming`] and deletes this forward.
pub fn run_streaming_pipelined(scenario: Scenario, chunk_us: Micros) -> StreamedRun {
    run_streaming(scenario, chunk_us)
}
