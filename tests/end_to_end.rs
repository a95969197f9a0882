//! Cross-crate integration tests: workload → simulator → sniffer capture →
//! congestion analysis, asserting the paper's qualitative results hold end
//! to end at test scale.

use congestion::ap_stats::{infer_aps, rank_aps, top_k_share};
use congestion::users::{peak_users, users_per_window};
use congestion::{analyze, estimate_unrecorded, CongestionClassifier, UtilizationBins};
use ietf_workloads::{ietf_day, ietf_plenary, load_ramp, SessionScale};
use wifi_frames::fc::FrameKind;
use wifi_frames::phy::Rate;

fn small_day() -> ietf_workloads::ScenarioResult {
    let mut scale = SessionScale::day_default(77);
    scale.users = 60;
    scale.duration_s = 40;
    ietf_day(scale).run()
}

fn small_plenary() -> ietf_workloads::ScenarioResult {
    let mut scale = SessionScale::plenary_default(78);
    scale.users = 60;
    scale.duration_s = 40;
    ietf_plenary(scale).run()
}

#[test]
fn day_session_produces_three_channel_traces() {
    let result = small_day();
    assert_eq!(result.traces.len(), 3);
    for (ch, trace) in result.traces.iter().enumerate() {
        assert!(
            trace.len() > 200,
            "channel {ch} captured only {} frames",
            trace.len()
        );
        // Traces are time-ordered.
        assert!(trace
            .windows(2)
            .all(|w| w[0].timestamp_us <= w[1].timestamp_us));
    }
}

#[test]
fn plenary_is_busier_than_day_per_channel() {
    let day = small_day();
    let plenary = small_plenary();
    let mode_of = |result: &ietf_workloads::ScenarioResult| {
        let mut seconds = Vec::new();
        for t in &result.traces {
            seconds.extend(analyze(t));
        }
        UtilizationBins::build(&seconds).mode().unwrap_or(0)
    };
    let day_mode = mode_of(&day);
    let plenary_mode = mode_of(&plenary);
    assert!(
        plenary_mode > day_mode,
        "plenary mode {plenary_mode} should exceed day mode {day_mode}"
    );
}

#[test]
fn analysis_invariants_hold_on_simulated_traces() {
    let result = small_plenary();
    for trace in &result.traces {
        for s in analyze(trace) {
            assert!(s.goodput_bits <= s.throughput_bits);
            assert!(s.acked_data <= s.data);
            let cats: u64 = s.tx_by_cat.iter().flatten().sum();
            assert_eq!(cats, s.data);
            let first: u64 = s.first_ack_by_rate.iter().sum();
            assert!(first <= s.acked_data);
        }
    }
}

#[test]
fn aps_inferred_and_ranked() {
    let result = small_day();
    let pooled = result.traces.concat();
    let aps = infer_aps(&pooled);
    assert_eq!(aps.len(), 9, "all nine grid APs beacon within range");
    let ranked = rank_aps(&pooled, &aps);
    assert_eq!(ranked.len(), 9);
    assert!(ranked.windows(2).all(|w| w[0].frames >= w[1].frames));
    let share = top_k_share(&ranked, 9);
    assert!((99.9..=100.0).contains(&share));
}

#[test]
fn users_appear_in_windows() {
    let result = small_day();
    let pooled = {
        let mut p = result.traces.concat();
        p.sort_by_key(|r| r.timestamp_us);
        p
    };
    let aps = infer_aps(&pooled);
    let windows = users_per_window(&pooled, &aps, 10);
    assert!(!windows.is_empty());
    let peak = peak_users(&windows);
    assert!(
        (10..=60).contains(&peak),
        "peak users {peak} out of range for 60 scheduled users"
    );
}

#[test]
fn unrecorded_estimator_stays_below_true_loss() {
    let result = small_plenary();
    for (ch, trace) in result.traces.iter().enumerate() {
        let est = estimate_unrecorded(trace);
        let st = &result.sniffer_stats[ch];
        let missed = st.missed_range + st.missed_bit_error + st.missed_hardware;
        let true_pct = missed as f64 / (missed + st.captured).max(1) as f64 * 100.0;
        // The estimator is a lower bound (dual losses are invisible); allow
        // a little slack for window mismatches.
        assert!(
            est.unrecorded_pct() <= true_pct + 3.0,
            "ch{ch}: estimated {:.2}% vs true {true_pct:.2}%",
            est.unrecorded_pct()
        );
    }
}

#[test]
fn ramp_reaches_high_congestion_and_uses_all_rates() {
    let result = load_ramp(79, 80, 60, 2.0).run();
    let stats = analyze(&result.traces[0]);
    let bins = UtilizationBins::build(&stats);
    let max_util = bins.occupied().map(|(u, _)| u).max().expect("nonempty");
    assert!(max_util >= 80, "ramp peaked at only {max_util}%");
    // All four rates appear among the data frames (fading spreads links
    // across the rate ladder).
    for rate in Rate::ALL {
        let n = result.traces[0]
            .iter()
            .filter(|r| r.kind == FrameKind::Data && r.rate == rate)
            .count();
        assert!(n > 0, "no data frames at {rate}");
    }
    // Retries exist under saturation.
    assert!(result.traces[0].iter().any(|r| r.retry));
}

#[test]
fn congestion_classifier_spans_ramp() {
    let result = load_ramp(80, 80, 60, 2.0).run();
    let stats = analyze(&result.traces[0]);
    let classifier = CongestionClassifier::ietf();
    let mut seen = [false; 3];
    for s in &stats {
        match classifier.classify(s.utilization_pct()) {
            congestion::CongestionLevel::Uncongested => seen[0] = true,
            congestion::CongestionLevel::Moderate => seen[1] = true,
            congestion::CongestionLevel::High => seen[2] = true,
        }
    }
    assert!(
        seen[0] && seen[1],
        "ramp must cover uncongested and moderate"
    );
    assert!(
        seen[2],
        "a saturated ramp must produce highly congested seconds"
    );
}

#[test]
fn scenario_results_are_deterministic() {
    let run = |seed| {
        let mut scenario = load_ramp(seed, 40, 20, 2.0);
        scenario.sim.config.record_ground_truth = true;
        scenario.run()
    };
    let a = run(81);
    let b = run(81);
    assert_eq!(a.traces[0], b.traces[0]);
    assert!(!a.ground_truth.is_empty());
    assert_eq!(a.ground_truth.len(), b.ground_truth.len());
    let c = run(82);
    assert_ne!(a.traces[0], c.traces[0]);
}
