//! Differential tests for the Step-3 dichotomy generator.
//!
//! `required_dichotomies` filters strictly subsumed dichotomies in linear
//! time, from the observation that every generated group holds one or two
//! states. The posting-list filter it replaced is retained verbatim in
//! [`fantom_bench::reference::required_dichotomies`]; these tests pin the
//! two to the identical `Vec` — same dichotomies, order and orientation —
//! over the hand-written corpus and large suite, the seeded generator grid,
//! the pinned `scale`-tier draws and proptest-driven generator shapes.

use fantom_assign::required_dichotomies;
use fantom_bench::reference;
use fantom_bench::scale_tier_machine;
use fantom_flow::generate::{generate, GeneratorOptions};
use fantom_flow::{benchmarks, FlowTable};
use proptest::prelude::*;

fn assert_matches_reference(table: &FlowTable) {
    let ours = required_dichotomies(table);
    let oracle = reference::required_dichotomies(table);
    assert_eq!(
        ours.len(),
        oracle.len(),
        "{}: dichotomy count",
        table.name()
    );
    for (i, (d, r)) in ours.iter().zip(&oracle).enumerate() {
        // `Dichotomy` equality compares the oriented groups, so a flipped
        // dichotomy fails here too.
        assert_eq!(d, r, "{}: dichotomy {i}", table.name());
    }
}

#[test]
fn filter_matches_reference_on_corpus_and_large_suite() {
    for table in benchmarks::all()
        .into_iter()
        .chain(benchmarks::large_suite())
    {
        assert_matches_reference(&table);
    }
}

#[test]
fn filter_matches_reference_on_generator_grid() {
    for &states in &[10usize, 18, 26] {
        for &dc in &[0.25f64, 0.5, 0.75] {
            assert_matches_reference(&generate(&GeneratorOptions {
                states,
                dc_density: dc,
                ..GeneratorOptions::default()
            }));
        }
    }
}

#[test]
fn filter_matches_reference_on_scale_tier_draws() {
    for draw in 0..6 {
        for &states in &[40usize, 60, 80] {
            for &dc in &[0.25f64, 0.75] {
                assert_matches_reference(&scale_tier_machine(draw, states, dc));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn filter_matches_reference_on_random_shapes(
        states in 2usize..40,
        dc_pct in 0u32..90,
        seed in 0u64..4096,
    ) {
        let table = generate(&GeneratorOptions {
            states,
            dc_density: f64::from(dc_pct) / 100.0,
            seed,
            ..GeneratorOptions::default()
        });
        prop_assert_eq!(required_dichotomies(&table), reference::required_dichotomies(&table));
    }
}
