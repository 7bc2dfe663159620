//! Experiment harness shared by the `fantom-bench` binaries and Criterion
//! benches.
//!
//! The paper's measured evaluation is Table 1 (logic depths of the
//! synthesized machines for five MCNC benchmarks) plus a CPU-time remark in
//! Section 6. This crate regenerates those results and adds the ablation,
//! baseline-comparison and simulation-validation experiments described in
//! `DESIGN.md` (E1–E5).
//!
//! Key pieces: [`PAPER_TABLE1`] (the paper's reported depths),
//! [`table1_options`] (the Table-1 synthesis configuration),
//! [`mod@reference`] (naive literal-vector cube implementations used as
//! perf/correctness references), and the `bench_json` binary — the perf
//! emitter and CI regression gate (`cargo run -p fantom-bench --release
//! --bin bench_json -- OUT.json --baseline BENCH_baseline.json`), covering
//! the micro cube kernel, sparse-vs-dense engine comparisons, Step-2
//! reduction metrics (`reduce.*`) and end-to-end synthesis (`e2e.*`,
//! `e2e_reduced.*`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod heap_sim;
pub mod reference;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use fantom_flow::FlowTable;
use seance::baseline::{huffman_baseline, stg_expansion_estimate};
use seance::{synthesize, table1_row, SynthesisOptions, SynthesisResult, Table1Row};

/// Depth values reported in Table 1 of the paper, for side-by-side comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperRow {
    /// Benchmark name as used in this workspace.
    pub benchmark: &'static str,
    /// `fsv` depth reported by the paper.
    pub fsv_depth: usize,
    /// Next-state depth reported by the paper.
    pub y_depth: usize,
    /// Total depth reported by the paper.
    pub total_depth: usize,
}

/// The five rows of the paper's Table 1.
pub const PAPER_TABLE1: [PaperRow; 5] = [
    PaperRow {
        benchmark: "test_example",
        fsv_depth: 3,
        y_depth: 5,
        total_depth: 9,
    },
    PaperRow {
        benchmark: "traffic",
        fsv_depth: 3,
        y_depth: 5,
        total_depth: 9,
    },
    PaperRow {
        benchmark: "lion",
        fsv_depth: 3,
        y_depth: 5,
        total_depth: 9,
    },
    PaperRow {
        benchmark: "lion9",
        fsv_depth: 4,
        y_depth: 5,
        total_depth: 10,
    },
    PaperRow {
        benchmark: "train11",
        fsv_depth: 2,
        y_depth: 5,
        total_depth: 8,
    },
];

/// Seed of the `scale` benchmark's pinned tier of generator draws (the same
/// value as `TIER_SEED` in `perfbench/src/scale.rs`).
pub const SCALE_TIER_SEED: u64 = 0x5EED_F10C;

/// Draw `draw` of the `scale` benchmark's pinned tier for one
/// `(states, dc_density)` shape — the machine `perfbench` synthesizes, made
/// here so tests and `bench_json` can pin the same inputs.
pub fn scale_tier_machine(draw: u64, states: usize, dc_density: f64) -> FlowTable {
    use fantom_flow::generate::{generate, GeneratorOptions};
    // The benchmark's draw-seed mixer (splitmix64 finalizer).
    let mut z = SCALE_TIER_SEED
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(draw.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    generate(&GeneratorOptions {
        seed: z ^ (z >> 31),
        states,
        dc_density,
        ..GeneratorOptions::default()
    })
}

/// Synthesis options used for the Table-1 reproduction: the reconstructed
/// benchmark tables are treated as already reduced (see `DESIGN.md`,
/// "Substitutions"), so Step 2 is skipped to keep the canonical state counts.
pub fn table1_options() -> SynthesisOptions {
    SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::default()
    }
}

/// Synthesize one benchmark with the Table-1 options.
///
/// # Panics
///
/// Panics if synthesis fails — the shipped corpus always synthesizes.
pub fn synthesize_benchmark(table: &FlowTable) -> SynthesisResult {
    synthesize(table, &table1_options())
        .unwrap_or_else(|e| panic!("synthesis of {} failed: {e}", table.name()))
}

/// A measured Table-1 row together with the paper's reported values and the
/// synthesis wall-clock time.
#[derive(Debug, Clone)]
pub struct Table1Comparison {
    /// Measured row.
    pub measured: Table1Row,
    /// Paper row (if the paper reported this benchmark).
    pub paper: Option<PaperRow>,
    /// Wall-clock time of the synthesis run.
    pub elapsed: Duration,
}

/// Run the Table-1 experiment over the paper suite.
pub fn run_table1() -> Vec<Table1Comparison> {
    fantom_flow::benchmarks::paper_suite()
        .into_iter()
        .map(|table| {
            let start = Instant::now();
            let result = synthesize_benchmark(&table);
            let elapsed = start.elapsed();
            let measured = table1_row(&result);
            let paper = PAPER_TABLE1
                .iter()
                .copied()
                .find(|p| p.benchmark == table.name());
            Table1Comparison {
                measured,
                paper,
                elapsed,
            }
        })
        .collect()
}

/// Render the Table-1 comparison as a text table.
pub fn render_table1(rows: &[Table1Comparison]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>17} {:>17} {:>21} {:>12}",
        "Benchmark", "fsv depth (p/m)", "Y depth (p/m)", "Total depth (p/m)", "synth time"
    );
    for row in rows {
        let paper = row.paper;
        let fmt_pair = |p: Option<usize>, m: usize| match p {
            Some(p) => format!("{p} / {m}"),
            None => format!("- / {m}"),
        };
        let _ = writeln!(
            out,
            "{:<14} {:>17} {:>17} {:>21} {:>12}",
            row.measured.benchmark,
            fmt_pair(paper.map(|p| p.fsv_depth), row.measured.fsv_depth),
            fmt_pair(paper.map(|p| p.y_depth), row.measured.y_depth),
            fmt_pair(paper.map(|p| p.total_depth), row.measured.total_depth),
            format!("{:.2?}", row.elapsed),
        );
    }
    out
}

/// One row of the baseline-comparison experiment (E4).
#[derive(Debug, Clone)]
pub struct BaselineComparison {
    /// Benchmark name.
    pub benchmark: String,
    /// FANTOM total depth.
    pub fantom_total_depth: usize,
    /// FANTOM next-state literal count (factored form).
    pub fantom_y_literals: usize,
    /// Hazard states protected by `fsv`.
    pub fantom_hazard_states: usize,
    /// Classical Huffman baseline total depth.
    pub baseline_total_depth: usize,
    /// Baseline next-state literal count (all-primes cover).
    pub baseline_y_literals: usize,
    /// Hazard states the baseline leaves unprotected.
    pub baseline_unprotected: usize,
    /// STG-style expansion: extra intermediate states required.
    pub stg_extra_states: usize,
    /// STG-style expansion: single-bit steps after expansion.
    pub stg_expanded_steps: usize,
}

/// Run the baseline comparison over the paper suite.
pub fn run_baselines() -> Vec<BaselineComparison> {
    fantom_flow::benchmarks::paper_suite()
        .into_iter()
        .map(|table| {
            let fantom = synthesize_benchmark(&table);
            let baseline =
                huffman_baseline(&table).unwrap_or_else(|e| panic!("{}: {e}", table.name()));
            let stg = stg_expansion_estimate(&table);
            BaselineComparison {
                benchmark: table.name().to_string(),
                fantom_total_depth: fantom.depth.total_depth,
                fantom_y_literals: fantom.factored.y_literals(),
                fantom_hazard_states: fantom.hazards.hazard_state_count(),
                baseline_total_depth: baseline.total_depth,
                baseline_y_literals: baseline.y_literals,
                baseline_unprotected: baseline.unprotected_hazard_states,
                stg_extra_states: stg.extra_states,
                stg_expanded_steps: stg.expanded_steps,
            }
        })
        .collect()
}

/// Render the baseline comparison as a text table.
pub fn render_baselines(rows: &[BaselineComparison]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>13} {:>13} {:>14} {:>15} {:>15} {:>13} {:>11}",
        "Benchmark",
        "FANTOM depth",
        "FANTOM lits",
        "FANTOM hazards",
        "Huffman depth",
        "Huffman lits",
        "unprotected",
        "STG states+"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:>13} {:>13} {:>14} {:>15} {:>15} {:>13} {:>11}",
            r.benchmark,
            r.fantom_total_depth,
            r.fantom_y_literals,
            r.fantom_hazard_states,
            r.baseline_total_depth,
            r.baseline_y_literals,
            r.baseline_unprotected,
            r.stg_extra_states,
        );
    }
    out
}

/// One row of the factoring-ablation experiment (E3).
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Total depth with full Step-7 factoring.
    pub factored_total_depth: usize,
    /// Next-state literal count with factoring.
    pub factored_y_literals: usize,
    /// Total depth with factoring disabled (plain two-level logic).
    pub unfactored_total_depth: usize,
    /// Next-state literal count without factoring.
    pub unfactored_y_literals: usize,
}

/// Run the factoring ablation over the paper suite.
pub fn run_ablation() -> Vec<AblationRow> {
    fantom_flow::benchmarks::paper_suite()
        .into_iter()
        .map(|table| {
            let with = synthesize(&table, &table1_options())
                .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
            let without_opts = SynthesisOptions {
                hazard_factoring: false,
                fsv_all_primes: false,
                ..table1_options()
            };
            let without = synthesize(&table, &without_opts)
                .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
            AblationRow {
                benchmark: table.name().to_string(),
                factored_total_depth: with.depth.total_depth,
                factored_y_literals: with.factored.y_literals(),
                unfactored_total_depth: without.depth.total_depth,
                unfactored_y_literals: without.factored.y_literals(),
            }
        })
        .collect()
}

/// Render the ablation as a text table.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>20} {:>20} {:>22} {:>22}",
        "Benchmark",
        "total depth (factored)",
        "Y literals (factored)",
        "total depth (2-level)",
        "Y literals (2-level)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:>20} {:>20} {:>22} {:>22}",
            r.benchmark,
            r.factored_total_depth,
            r.factored_y_literals,
            r.unfactored_total_depth,
            r.unfactored_y_literals,
        );
    }
    out
}

/// One row of the simulation-validation experiment (E5).
#[derive(Debug, Clone)]
pub struct SimulationRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Multiple-input-change transitions simulated (× seeds).
    pub transitions_checked: usize,
    /// Whether every run settled.
    pub all_settled: bool,
    /// Whether every run reached the correct final state.
    pub all_final_states_correct: bool,
    /// Whether every run produced the correct final outputs.
    pub all_outputs_correct: bool,
    /// Glitches observed on invariant state variables across all runs.
    pub invariant_glitches: usize,
}

/// Run the simulation validation over the paper suite with the given delay
/// seeds.
pub fn run_simulation(seeds: &[u64]) -> Vec<SimulationRow> {
    fantom_flow::benchmarks::paper_suite()
        .into_iter()
        .map(|table| {
            let result = synthesize_benchmark(&table);
            let summary = seance::validate::validate_machine(&result, seeds);
            SimulationRow {
                benchmark: table.name().to_string(),
                transitions_checked: summary.len(),
                all_settled: summary.all_settled(),
                all_final_states_correct: summary.all_final_states_correct(),
                all_outputs_correct: summary.all_outputs_correct(),
                invariant_glitches: summary.total_invariant_glitches(),
            }
        })
        .collect()
}

/// Render the simulation validation as a text table.
pub fn render_simulation(rows: &[SimulationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>9} {:>13} {:>14} {:>17}",
        "Benchmark",
        "transitions",
        "settled",
        "final states",
        "final outputs",
        "invariant glitches"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>9} {:>13} {:>14} {:>17}",
            r.benchmark,
            r.transitions_checked,
            r.all_settled,
            r.all_final_states_correct,
            r.all_outputs_correct,
            r.invariant_glitches,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_experiment_produces_five_rows_with_paper_references() {
        let rows = run_table1();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.paper.is_some()));
        // The qualitative shape of Table 1: every machine needs a few levels of
        // fsv logic and about five levels of next-state logic.
        for r in &rows {
            assert!(r.measured.fsv_depth >= 2);
            assert!((3..=7).contains(&r.measured.y_depth));
            assert_eq!(
                r.measured.total_depth,
                r.measured.fsv_depth + r.measured.y_depth + 1
            );
        }
        let text = render_table1(&rows);
        assert!(text.contains("train11"));
    }

    #[test]
    fn baseline_experiment_shows_fantom_protecting_hazards() {
        let rows = run_baselines();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert_eq!(r.fantom_hazard_states, r.baseline_unprotected);
            assert!(r.fantom_total_depth >= r.baseline_total_depth);
        }
        assert!(rows.iter().any(|r| r.fantom_hazard_states > 0));
        assert!(render_baselines(&rows).contains("Huffman"));
    }

    #[test]
    fn ablation_experiment_shows_factoring_cost() {
        let rows = run_ablation();
        for r in &rows {
            assert!(r.factored_total_depth >= r.unfactored_total_depth);
        }
        assert!(render_ablation(&rows).contains("2-level"));
    }

    #[test]
    fn simulation_experiment_settles_and_reaches_correct_states() {
        let rows = run_simulation(&[3]);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.transitions_checked > 0, "{}", r.benchmark);
            assert!(r.all_settled, "{}", r.benchmark);
            assert!(r.all_final_states_correct, "{}", r.benchmark);
        }
    }
}
