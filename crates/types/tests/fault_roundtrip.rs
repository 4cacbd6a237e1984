//! Property tests for the fault-plan codecs: JSON encode/decode and the
//! spec-string `parse`/`describe` pair are exact inverses over arbitrary
//! plans, so a plan recorded in a results row reproduces the run.

use fcache_types::{
    FaultClause, FaultDirection, FaultKind, FaultPlan, FaultTarget, FaultWindow, Json,
};
use proptest::prelude::*;

fn target_strategy() -> impl Strategy<Value = FaultTarget> {
    prop_oneof![
        Just(FaultTarget::Filer),
        Just(FaultTarget::Net(FaultDirection::ToServer)),
        Just(FaultTarget::Net(FaultDirection::FromServer)),
        Just(FaultTarget::Device),
        Just(FaultTarget::Shard(None)),
        (0u16..8).prop_map(|k| FaultTarget::Shard(Some(k))),
    ]
}

fn kind_strategy() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::Outage),
        // Positive finite factors/probabilities, the same domain `parse`
        // accepts. Arbitrary f64 bit patterns round-trip through Rust's
        // shortest float formatting, so no quantization is needed.
        (0.001f64..1e6).prop_map(FaultKind::SlowBy),
        (0.0f64..1.0).prop_map(FaultKind::ErrorRate),
    ]
}

fn window_strategy() -> impl Strategy<Value = FaultWindow> {
    prop_oneof![
        (0u64..u64::MAX / 2, 1u64..u64::MAX / 2).prop_map(|(start, len)| {
            FaultWindow::Interval {
                start_ns: start,
                end_ns: start + len,
            }
        }),
        (1u64..1u64 << 40, 1u64..1u64 << 40, 1u32..64).prop_map(|(len, gap, count)| {
            FaultWindow::Episodes {
                mean_len_ns: len,
                mean_gap_ns: gap,
                count,
            }
        }),
    ]
}

fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    proptest::collection::vec(
        (target_strategy(), kind_strategy(), window_strategy()).prop_map(
            |(target, kind, window)| FaultClause {
                target,
                kind,
                window,
            },
        ),
        0..8,
    )
    .prop_map(|clauses| FaultPlan { clauses })
}

/// Plans whose canonical spec string survives `parse` exactly: time
/// values stay within f64-exact range (the spec grammar parses times as
/// floats), and clauses are deduplicated (parse rejects exact repeats).
fn spec_plan_strategy() -> impl Strategy<Value = FaultPlan> {
    let window = prop_oneof![
        (0u64..1u64 << 48, 1u64..1u64 << 48).prop_map(|(start, len)| FaultWindow::Interval {
            start_ns: start,
            end_ns: start + len,
        }),
        (1u64..1u64 << 40, 1u64..1u64 << 40, 1u32..64).prop_map(|(len, gap, count)| {
            FaultWindow::Episodes {
                mean_len_ns: len,
                mean_gap_ns: gap,
                count,
            }
        }),
    ];
    proptest::collection::vec(
        (target_strategy(), kind_strategy(), window).prop_map(|(target, kind, window)| {
            FaultClause {
                target,
                kind,
                window,
            }
        }),
        1..6,
    )
    .prop_map(|clauses| {
        let mut deduped: Vec<FaultClause> = Vec::new();
        for c in clauses {
            if !deduped.contains(&c) {
                deduped.push(c);
            }
        }
        FaultPlan { clauses: deduped }
    })
}

proptest! {
    #[test]
    fn fault_plan_json_roundtrip_is_exact(plan in plan_strategy()) {
        let encoded = plan.to_json().to_string();
        let parsed = Json::parse(&encoded).expect("reparse");
        let back = FaultPlan::from_json(&parsed).expect("decode");
        prop_assert_eq!(back, plan);
    }

    #[test]
    fn resolution_is_deterministic(plan in plan_strategy(), seed in any::<u64>()) {
        // Same plan, same seed, same schedule — and the decoded plan
        // resolves identically to the original, so a results row's
        // embedded plan reproduces the run's fault timeline.
        let parsed = Json::parse(&plan.to_json().to_string()).expect("reparse");
        let back = FaultPlan::from_json(&parsed).expect("decode");
        // Eight shards cover every shard clause the strategy draws.
        prop_assert_eq!(plan.resolve_sharded(seed, 64, 8), back.resolve_sharded(seed, 64, 8));
    }

    #[test]
    fn distinct_clause_specs_round_trip_through_describe(plan in spec_plan_strategy()) {
        // Duplicate-free plans are exactly the ones the spec grammar can
        // express: describe → parse is the identity on them.
        let canon = plan.describe();
        let back = FaultPlan::parse(&canon);
        prop_assert_eq!(back, Ok(plan));
    }

    #[test]
    fn injected_duplicate_clause_is_rejected(plan in spec_plan_strategy(), pick in any::<u64>()) {
        // Repeating any one clause of a valid plan makes the spec invalid,
        // regardless of where the duplicate's original sits.
        let dup = plan.clauses[(pick as usize) % plan.clauses.len()];
        let spec = format!("{};{}", plan.describe(), dup.describe());
        let err = FaultPlan::parse(&spec);
        prop_assert!(err.is_err(), "accepted duplicated spec {:?}", spec);
        prop_assert!(err.unwrap_err().contains("duplicate fault clause"));
    }
}

#[test]
fn spec_strings_round_trip_through_describe() {
    // The CLI-facing grammar: parse → describe → parse is a fixed point
    // (net sugar expands on the first parse).
    for spec in [
        "filer:outage@40s-60s",
        "net:slowx4@10s-20s",
        "net-up:err0.25@1s-2s;device:slowx2.5@3s-4s",
        "filer:err0.1@~3x2s/10s",
    ] {
        let plan = FaultPlan::parse(spec).expect("valid spec");
        let canon = plan.describe();
        assert_eq!(FaultPlan::parse(&canon).expect("canonical"), plan, "{spec}");
    }
}
