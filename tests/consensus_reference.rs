//! Differential and contract tests for the Step 7 on-pair consensus engine.
//!
//! `fantom_boolean::hazard::add_consensus_terms_on_pairs` finds the on-set
//! adjacencies of a function with one distance pass over its on-cover and
//! buckets each pair under the variables it serves. The per-variable
//! all-pairs walk it replaced is retained verbatim in
//! [`fantom_bench::reference::hazard`] as the oracle. These tests pin the
//! two to cube-for-cube identical covers for `fsv` and every `Yₙ` over the
//! hand-written corpus and large suite, the seeded generator grid, the
//! pinned `scale`-tier draws and random on-covers with overlapping cubes,
//! cubes free in the pair variable and more than 64 cubes.
//!
//! On every synthesized machine they also check Step 7's contract without
//! the engine: every on/on transition of every `Yₙ` lies in a single product
//! term of the factored cover.
//!
//! The 60- and 80-state tier draws are release-only: they run in the CI
//! release step, where the debug build's cost would not fit tier-1.

use std::collections::BTreeSet;

use fantom_bench::reference::hazard as reference;
use fantom_bench::reference::random_cover;
use fantom_bench::scale_tier_machine;
use fantom_boolean::hazard::{self, ConsensusScratch};
use fantom_boolean::{Cover, CoverFunction, Cube, Literal};
use fantom_flow::generate::{generate, GeneratorOptions};
use fantom_flow::{benchmarks, FlowTable};
use proptest::prelude::*;
use seance::{synthesize_sparse, SynthesisOptions};

/// Pin the engine to the oracle on `on`/`off`/`base`, through the
/// caller's long-lived scratch (as a synthesis worker reuses it).
fn check(on: &Cover, off: &Cover, base: &Cover, scratch: &mut ConsensusScratch, what: &str) {
    let ours = hazard::add_consensus_terms_on_pairs_with(on, off, base, scratch);
    let oracle = reference::add_consensus_terms_on_pairs(on, off, base);
    assert_eq!(ours.cubes(), oracle.cubes(), "{what}");
}

/// Step 7's contract for one next-state function, checked without the
/// consensus engine: for every variable `v`, each non-empty region of an
/// on-cube pair freed in `v` — transitions of `v` with both ends in the
/// on-set — lies in the union of the `v`-free cubes of `factored`. A
/// transition binds every variable but `v`, so it then lies in one `v`-free
/// product term, which holds the output through the transition.
fn assert_on_adjacencies_single_cube_covered(f: &CoverFunction, factored: &Cover, what: &str) {
    let on = f.on_cover().cubes();
    let n = f.num_vars();
    // Freeing one variable removes at most one conflict, so only pairs at
    // distance 0 or 1 can meet.
    let near: Vec<(usize, usize)> = (0..on.len())
        .flat_map(|i| (0..on.len()).map(move |j| (i, j)))
        .filter(|&(i, j)| on[i].distance(&on[j]) <= 1)
        .collect();
    for v in 0..n {
        let free = Cover::from_cubes(
            n,
            factored
                .cubes()
                .iter()
                .filter(|c| c.literal(v) == Literal::DontCare)
                .cloned()
                .collect(),
        );
        let regions: BTreeSet<Cube> = near
            .iter()
            .filter(|&&(i, j)| {
                on[i].literal(v) != Literal::One && on[j].literal(v) != Literal::Zero
            })
            .filter_map(|&(i, j)| {
                let a = on[i].with_literal(v, Literal::DontCare);
                a.intersect(&on[j].with_literal(v, Literal::DontCare))
            })
            .collect();
        for q in &regions {
            assert!(
                free.covers_cube_sharp(q),
                "{what}: on/on transitions of var {v} in {q} not single-cube covered"
            );
        }
    }
}

/// Synthesize `table` once, pin Step 7 on `fsv` and every `Yₙ` to the
/// oracle, and check the contract on every factored `Yₙ`.
fn check_machine(table: &FlowTable, scratch: &mut ConsensusScratch) {
    let options = SynthesisOptions {
        parallel_factoring: false,
        ..SynthesisOptions::for_large_machines()
    };
    let r = synthesize_sparse(table, &options).expect("sparse synthesis succeeds");
    let name = table.name();
    let (fsv, fsv_cover) = (&r.equations.fsv, &r.equations.fsv_cover);
    check(
        fsv.on_cover(),
        fsv.off_cover(),
        fsv_cover,
        scratch,
        &format!("{name} fsv"),
    );
    let y = r.equations.y.iter().zip(&r.equations.y_covers);
    for (bit, ((f, base), factored)) in y.zip(&r.factored.y_covers).enumerate() {
        let what = format!("{name} Y{}", bit + 1);
        check(f.on_cover(), f.off_cover(), base, scratch, &what);
        assert_on_adjacencies_single_cube_covered(f, factored, &what);
    }
}

#[test]
fn corpus_and_large_suite_match_reference() {
    let mut scratch = ConsensusScratch::default();
    for table in benchmarks::all()
        .into_iter()
        .chain(benchmarks::large_suite())
    {
        check_machine(&table, &mut scratch);
    }
}

#[test]
fn generator_grid_matches_reference() {
    let mut scratch = ConsensusScratch::default();
    for &states in &[10usize, 18, 26] {
        for &dc in &[0.25f64, 0.5, 0.75] {
            let table = generate(&GeneratorOptions {
                states,
                dc_density: dc,
                ..GeneratorOptions::default()
            });
            check_machine(&table, &mut scratch);
        }
    }
}

/// Check every draw of the `scale` tier's `(states, dc)` shape.
fn check_tier(states: usize, dc: f64) {
    let mut scratch = ConsensusScratch::default();
    for draw in 0..6 {
        check_machine(&scale_tier_machine(draw, states, dc), &mut scratch);
    }
}

// One test per shape, so the draws spread over the test threads.

#[test]
fn s40_d25_tier_draws_match_reference() {
    check_tier(40, 0.25);
}

#[test]
fn s40_d75_tier_draws_match_reference() {
    check_tier(40, 0.75);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run by the CI release step")]
fn s60_d25_tier_draws_match_reference() {
    check_tier(60, 0.25);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run by the CI release step")]
fn s60_d75_tier_draws_match_reference() {
    check_tier(60, 0.75);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run by the CI release step")]
fn s80_d25_tier_draws_match_reference() {
    check_tier(80, 0.25);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run by the CI release step")]
fn s80_d75_tier_draws_match_reference() {
    check_tier(80, 0.75);
}

/// A random function over `n` variables: `cubes` on-cubes binding `bound`
/// positions each plus a copy of the first with one literal freed (so
/// distance-0 and self pairs always occur), an off-set of cubes that avoid
/// the on-set, and a Step 6 stand-in cover keeping every other on-cube.
fn random_function(seed: u64, n: usize, cubes: usize, bound: usize) -> (Cover, Cover, Cover) {
    let mut on: Vec<Cube> = random_cover(seed, n, cubes, bound).cubes().to_vec();
    let first = on[0].clone();
    let bound_var = (0..n).find(|&v| first.literal(v) != Literal::DontCare);
    on.push(first.with_literal(bound_var.expect("bound >= 1"), Literal::DontCare));
    let on = Cover::from_cubes(n, on);
    let off: Vec<Cube> = random_cover(seed ^ 0x0FF, n, 4 * cubes, n.min(8))
        .cubes()
        .iter()
        .filter(|c| !on.intersects_cube(c))
        .cloned()
        .collect();
    let base: Vec<Cube> = on.cubes().iter().step_by(2).cloned().collect();
    (on, Cover::from_cubes(n, off), Cover::from_cubes(n, base))
}

/// Whether `on` has a pair of distinct intersecting cubes and a cube free
/// in some variable (a self pair) — the join's distance-0 cases.
fn has_overlap_and_self_pairs(on: &Cover) -> bool {
    let cubes = on.cubes();
    let overlap = cubes
        .iter()
        .enumerate()
        .any(|(i, a)| cubes[i + 1..].iter().any(|b| a.intersect(b).is_some()));
    overlap && cubes.iter().any(|c| c.literal_count() < c.num_vars())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Small covers over one or two packed words.
    #[test]
    fn random_covers_match_reference(
        n in 3usize..40,
        cubes in 1usize..64,
        bound_pct in 20usize..90,
        seed in 0u64..1 << 20,
    ) {
        let bound = (n * bound_pct / 100).clamp(1, n);
        let (on, off, base) = random_function(seed, n, cubes, bound);
        prop_assert!(has_overlap_and_self_pairs(&on));
        check(&on, &off, &base, &mut ConsensusScratch::default(), "random cover");
    }

    /// Covers past 64 cubes, so every index bitset spans several words.
    #[test]
    fn multiword_covers_match_reference(
        n in 6usize..36,
        cubes in 65usize..160,
        bound_pct in 40usize..90,
        seed in 0u64..1 << 20,
    ) {
        let bound = (n * bound_pct / 100).clamp(1, n);
        let (on, off, base) = random_function(seed, n, cubes, bound);
        prop_assert!(on.cube_count() > 64 && has_overlap_and_self_pairs(&on));
        check(&on, &off, &base, &mut ConsensusScratch::default(), "multi-word cover");
    }
}
