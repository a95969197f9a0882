//! The grid shard planner returns the exhaustive O(N²) planner's plan on
//! the full-scale scenarios the benchmarks run: the 5 000-user campus at
//! three seeds, and the 523-user plenary at every shard cap it is run with.
//!
//! `wifi-sim`'s own proptest covers random layouts and the awkward
//! separations; this pins the layouts that matter.

use ietf_workloads::{ietf_plenary_sharded, venue_campus, CampusScale, SessionScale};

#[test]
fn venue_5k_plans_match_the_oracle() {
    for seed in [11, 23, 37] {
        let spec = venue_campus(CampusScale::venue_5k(seed)).spec;
        let plan = spec.partition(usize::MAX);
        assert!(plan.is_some(), "seed {seed}: the campus partitions");
        assert_eq!(plan, spec.partition_oracle(usize::MAX), "seed {seed}");
    }
}

#[test]
fn plenary_plans_match_the_oracle_at_every_cap() {
    let spec = ietf_plenary_sharded(SessionScale {
        users: 523,
        ..SessionScale::plenary_default(11)
    })
    .spec;
    for max_shards in [1, 2, 6, usize::MAX] {
        let plan = spec.partition(max_shards);
        assert!(
            plan.is_some(),
            "max_shards {max_shards}: the plenary partitions"
        );
        assert_eq!(
            plan,
            spec.partition_oracle(max_shards),
            "max_shards {max_shards}"
        );
    }
}
