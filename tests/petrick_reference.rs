//! Differential tests for the Step 6 covering kernels.
//!
//! `fantom_boolean::petrick` selects covers with a bitset Petrick expansion
//! (one kernel behind both the dense `minimum_cover` and the sparse fragment
//! table) and an incrementally scored sharp greedy. The set-based kernels
//! they replaced are retained verbatim in [`fantom_bench::reference::petrick`]
//! as the oracle. These tests pin every path of the new code to identical
//! covers:
//!
//! * the exact fragment-table expansion,
//! * its > 2,000-product bailout to the greedy table cover,
//! * the `FRAGMENT_LIMIT` sharp-greedy fallback, and
//! * the dense `minimum_cover`,
//!
//! over the hand-written corpus, pinned generator draws at 40 and 80 states
//! (the scale benchmark's tier, where the bailout and the sharp fallback
//! fire) and proptest-driven generator shapes — and check that each path
//! actually fires, so the coverage cannot go quiet.

use fantom_bench::reference::petrick as reference;
use fantom_bench::{scale_tier_machine, table1_options};
use fantom_boolean::{petrick, quine, CoverFunction, Function};
use fantom_flow::generate::{generate, GeneratorOptions};
use fantom_flow::{benchmarks, FlowTable};
use proptest::prelude::*;
use seance::{synthesize, synthesize_sparse, SynthesisOptions};

/// Product-count bailout of the sparse fragment-table expansion.
const TABLE_PRODUCT_LIMIT: usize = 2_000;
/// `primes × rows` bound below which an exact expansion is attempted.
const PETRICK_EXACT_LIMIT: usize = 2_000;

/// How often each path of the sparse covering ran.
#[derive(Debug, Default)]
struct Paths {
    exact: usize,
    bailout: usize,
    greedy_table: usize,
    sharp: usize,
    dense_exact: usize,
}

/// Every function the sparse pipeline minimizes for `table`: `fsv`, the
/// stable-state detector, the outputs and the next-state functions.
fn sparse_functions(table: &FlowTable) -> Vec<CoverFunction> {
    let options = SynthesisOptions {
        parallel_factoring: false,
        ..SynthesisOptions::for_large_machines()
    };
    let r = synthesize_sparse(table, &options).expect("sparse synthesis succeeds");
    let mut out = vec![r.equations.fsv, r.outputs.ssd];
    out.extend(r.outputs.z);
    out.extend(r.equations.y);
    out
}

/// Every function the dense pipeline minimizes for `table`.
fn dense_functions(table: &FlowTable) -> Vec<Function> {
    let r = synthesize(table, &table1_options()).expect("dense synthesis succeeds");
    let mut out = vec![r.equations.fsv_function, r.outputs.ssd_function];
    out.extend(r.outputs.z_functions);
    out.extend(r.equations.y_functions);
    out
}

/// Pin the sparse cover of `f` to the reference and record which path it
/// took. With `force_sharp`, the sharp greedy is also pinned on `f` even
/// when fragmentation stays under `FRAGMENT_LIMIT`, which reaches it from
/// small machines too.
fn check_sparse(f: &CoverFunction, force_sharp: bool, paths: &mut Paths, what: &str) {
    let primes = f.expand_primes();
    let ours = petrick::minimum_cover_sparse(f, &primes);
    let oracle = reference::minimum_cover_sparse(f, &primes);
    assert_eq!(ours.cubes(), oracle.cubes(), "{what}: minimum_cover_sparse");
    if force_sharp {
        assert_eq!(
            petrick::greedy_sharp_cover(f, &primes).cubes(),
            reference::greedy_sharp_cover(f, &primes).cubes(),
            "{what}: greedy_sharp_cover"
        );
    }
    if primes.is_empty() || f.on_cover().is_empty() {
        return;
    }
    match petrick::covering_table(f, &primes) {
        None => paths.sharp += 1,
        Some(table) if table.rows.is_empty() => {}
        Some(table) if !table.exact_sized() => paths.greedy_table += 1,
        Some(table) => {
            if petrick::petrick_exact(&primes, &table.rows, TABLE_PRODUCT_LIMIT).is_some() {
                paths.exact += 1;
            } else {
                paths.bailout += 1;
            }
        }
    }
}

/// Pin the dense cover of `f` to the reference — over the pipeline's
/// expansion primes and, with `all_primes`, over the full Quine–McCluskey
/// prime set too — and record whether the exact expansion ran.
fn check_dense(f: &Function, all_primes: bool, paths: &mut Paths, what: &str) {
    let mut prime_sets = vec![quine::expand_primes(f)];
    if all_primes {
        prime_sets.push(quine::prime_implicants(f));
    }
    for primes in prime_sets {
        assert_eq!(
            petrick::minimum_cover(f, &primes).cubes(),
            reference::minimum_cover(f, &primes).cubes(),
            "{what}: minimum_cover"
        );
        if dense_exact_sized(f, &primes) {
            paths.dense_exact += 1;
        }
    }
}

/// Whether `minimum_cover` reaches the exact expansion: some on-set minterm
/// is left after the essential primes, and the residual is small enough.
fn dense_exact_sized(f: &Function, primes: &[fantom_boolean::Cube]) -> bool {
    let on: Vec<u64> = f.on_minterms().collect();
    let coverers = |m: u64| (0..primes.len()).filter(move |&i| primes[i].contains_minterm(m));
    let essential: Vec<usize> = on
        .iter()
        .filter_map(|&m| {
            let mut c = coverers(m);
            match (c.next(), c.next()) {
                (Some(i), None) => Some(i),
                _ => None,
            }
        })
        .collect();
    let remaining: Vec<u64> = on
        .into_iter()
        .filter(|&m| !essential.iter().any(|&i| primes[i].contains_minterm(m)))
        .collect();
    let candidates = (0..primes.len())
        .filter(|i| !essential.contains(i))
        .filter(|&i| remaining.iter().any(|&m| primes[i].contains_minterm(m)))
        .count();
    !remaining.is_empty() && candidates * remaining.len() <= PETRICK_EXACT_LIMIT
}

#[test]
fn covers_match_reference_on_benchmark_corpus() {
    let mut paths = Paths::default();
    for table in benchmarks::all() {
        for (i, f) in sparse_functions(&table).iter().enumerate() {
            check_sparse(
                f,
                true,
                &mut paths,
                &format!("{} sparse #{i}", table.name()),
            );
        }
        if table.num_states() <= 12 {
            for (i, f) in dense_functions(&table).iter().enumerate() {
                check_dense(f, true, &mut paths, &format!("{} dense #{i}", table.name()));
            }
        }
    }
    assert!(
        paths.exact > 0,
        "no exact fragment table in the corpus: {paths:?}"
    );
    assert!(paths.dense_exact > 0, "no dense exact expansion: {paths:?}");
}

/// Pin every cover of the scale tier's first `(states, dc)` draw to the
/// reference, returning the paths taken.
fn pinned_draw_paths(states: usize, dc_density: f64) -> Paths {
    let table = scale_tier_machine(0, states, dc_density);
    let mut paths = Paths::default();
    for (i, f) in sparse_functions(&table).iter().enumerate() {
        check_sparse(
            f,
            false,
            &mut paths,
            &format!("s{states} d{dc_density} #{i}"),
        );
    }
    paths
}

// The pinned 40- and 80-state draws, one test per shape so they run in
// parallel. Between them every sparse path fires: the exact table and its
// product bailout at 40 states d25, the sharp fallback at 80 states.

#[test]
fn pinned_s40_d25_fires_exact_table_and_bailout() {
    let paths = pinned_draw_paths(40, 0.25);
    assert!(paths.exact > 0, "exact table never ran: {paths:?}");
    assert!(paths.bailout > 0, "product bailout never fired: {paths:?}");
}

#[test]
fn pinned_s40_d75_matches_reference() {
    let paths = pinned_draw_paths(40, 0.75);
    assert!(paths.exact > 0, "exact table never ran: {paths:?}");
}

#[test]
fn pinned_s80_d25_fires_sharp_fallback() {
    let paths = pinned_draw_paths(80, 0.25);
    assert!(paths.sharp > 0, "sharp fallback never fired: {paths:?}");
}

#[test]
fn pinned_s80_d75_fires_exact_table_and_sharp_fallback() {
    let paths = pinned_draw_paths(80, 0.75);
    assert!(paths.exact > 0, "exact table never ran: {paths:?}");
    assert!(paths.sharp > 0, "sharp fallback never fired: {paths:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random generator shapes: every sparse and dense cover identical.
    #[test]
    fn covers_match_reference_on_random_shapes(
        states in 4usize..12,
        dc_pct in 0u32..90,
        seed in 0u64..1024,
    ) {
        let table = generate(&GeneratorOptions {
            states,
            dc_density: f64::from(dc_pct) / 100.0,
            seed,
            ..GeneratorOptions::default()
        });
        let mut paths = Paths::default();
        for (i, f) in sparse_functions(&table).iter().enumerate() {
            check_sparse(f, true, &mut paths, &format!("sparse #{i}"));
        }
        for (i, f) in dense_functions(&table).iter().enumerate() {
            check_dense(f, false, &mut paths, &format!("dense #{i}"));
        }
    }
}
