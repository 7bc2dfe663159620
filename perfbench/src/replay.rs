//! The traced replay of `seance::synthesize_sparse`: the same sequence of
//! public step functions, each call wrapped in a span named after its layer.
//!
//! | span            | call                                                 | paper step |
//! |-----------------|------------------------------------------------------|------------|
//! | `flow.validate` | `fantom_flow::validate::validate`                    | 1          |
//! | `minimize`      | `fantom_minimize::reduce_with_options` + acceptance  | 2          |
//! | `assign`        | `fantom_assign::assign_in` + `StateAssignment::verify` | 3        |
//! | `spec`          | `SpecifiedTable::new`                                | 3          |
//! | `outputs`       | `seance::outputs::generate_covers`                   | 4          |
//! | `hazard`        | `seance::hazard::analyze`                            | 5          |
//! | `fsv`           | `seance::fsv::generate_covers`                       | 6          |
//! | `factoring`     | `seance::factoring::factor_covers_with`              | 7          |
//! | `depth`         | `seance::depth::report_parts`                        | Table 1    |
//!
//! All of them run inside a `pipeline` span, whose self time is what the
//! replay does between steps (clones, error plumbing).

use fantom_assign::{assign_in, required_dichotomies, AssignScratch};
use fantom_boolean::hazard::ConsensusScratch;
use fantom_flow::{validate, FlowTable};
use fantom_minimize::reduce_with_options;
use seance::factoring::{factor_covers_with, FactoringOptions};
use seance::{
    depth, fsv, hazard, outputs, SparseSynthesisResult, SpecifiedTable, SynthesisError,
    SynthesisOptions,
};

use crate::trace::Tracer;

/// Replay the sparse pipeline on `table` under spans, mirroring
/// `seance::synthesize_sparse_with` call for call, and record the step
/// counters of the request.
pub fn synthesize_traced(
    table: &FlowTable,
    options: &SynthesisOptions,
    tr: &mut Tracer,
) -> Result<SparseSynthesisResult, SynthesisError> {
    let root = tr.open("pipeline");
    let result = steps(table, options, tr);
    tr.close(root);
    if let Ok(r) = &result {
        record_counters(table, r, tr);
    }
    result
}

fn steps(
    table: &FlowTable,
    options: &SynthesisOptions,
    tr: &mut Tracer,
) -> Result<SparseSynthesisResult, SynthesisError> {
    if options.validate_input {
        let report = tr.span("flow.validate", || validate::validate(table));
        if !report.is_acceptable() {
            return Err(SynthesisError::InvalidFlowTable(format!(
                "{}: rejected by flow-table validation",
                table.name()
            )));
        }
    }

    let reduced_table = if options.minimize_states {
        let (reduced, accepted) = tr.span("minimize", || {
            let reduction = reduce_with_options(table, &options.reduction);
            if validate::is_normal_mode(&reduction.table)
                && validate::is_strongly_connected(&reduction.table)
            {
                (reduction.table, true)
            } else {
                (table.clone(), false)
            }
        });
        tr.count("minimize.runs", 1.0);
        tr.count("minimize.accepted", f64::from(u8::from(accepted)));
        reduced
    } else {
        table.clone()
    };

    let assignment = tr.span("assign", || {
        let a = assign_in(
            &reduced_table,
            &options.assignment,
            &mut AssignScratch::default(),
        );
        a.verify(&reduced_table).map(|()| a)
    })?;
    let spec = tr.span("spec", || {
        SpecifiedTable::new(reduced_table.clone(), assignment.clone())
    })?;
    let outputs = tr.span("outputs", || outputs::generate_covers(&spec))?;
    let hazards = tr.span("hazard", || hazard::analyze(&spec));
    let equations = tr.span("fsv", || fsv::generate_covers(&spec, &hazards))?;
    let factored = tr.span("factoring", || {
        factor_covers_with(
            &spec,
            &equations,
            FactoringOptions {
                fsv_all_primes: options.fsv_all_primes,
                hazard_factoring: options.hazard_factoring,
                parallel_y: options.parallel_factoring,
            },
            &mut ConsensusScratch::default(),
        )
    });
    let depth = tr.span("depth", || {
        depth::report_parts(&factored, &outputs.z_exprs, &outputs.ssd_expr)
    });

    Ok(SparseSynthesisResult {
        name: table.name().to_string(),
        reduced_table,
        assignment,
        spec,
        outputs,
        hazards,
        equations,
        factored,
        depth,
        options: *options,
    })
}

/// Work counters of one replayed synthesis, recorded outside every span.
fn record_counters(table: &FlowTable, r: &SparseSynthesisResult, tr: &mut Tracer) {
    let cubes = |covers: &[fantom_boolean::Cover]| -> usize {
        covers.iter().map(fantom_boolean::Cover::cube_count).sum()
    };
    let y_cubes = cubes(&r.equations.y_covers);
    let step6 = y_cubes + r.equations.fsv_cover.cube_count();
    let step7 = cubes(&r.factored.y_covers) + r.factored.fsv_cover.cube_count();
    tr.count("fsv.y_cubes", y_cubes as f64);
    tr.count("factoring.added_cubes", step7.saturating_sub(step6) as f64);
    tr.count("assign.vars", r.assignment.num_vars() as f64);
    tr.count(
        "assign.dichotomies",
        required_dichotomies(&r.reduced_table).len() as f64,
    );
    tr.count("hazard.states", r.hazards.hazard_state_count() as f64);
    if r.options.minimize_states {
        tr.count("minimize.states_before", table.num_states() as f64);
        tr.count("minimize.states_after", r.reduced_table.num_states() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fantom_flow::benchmarks;
    use fantom_flow::generate::{generate, GeneratorOptions};
    use seance::synthesize_sparse;

    /// The replay renders byte-identical equations to `synthesize_sparse` on
    /// the corpus, the large suite and generated machines.
    #[test]
    fn replay_is_byte_identical_to_synthesize_sparse() {
        let large = SynthesisOptions {
            parallel_factoring: false,
            ..SynthesisOptions::for_large_machines()
        };
        let mut cases: Vec<(FlowTable, SynthesisOptions)> = benchmarks::all()
            .into_iter()
            .map(|t| (t, SynthesisOptions::default()))
            .collect();
        for t in benchmarks::large_suite() {
            let unreduced = SynthesisOptions {
                minimize_states: false,
                ..large
            };
            cases.push((t, unreduced));
        }
        for dc in [0.25, 0.75] {
            let t = generate(&GeneratorOptions {
                seed: 11,
                states: 24,
                dc_density: dc,
                ..GeneratorOptions::default()
            });
            cases.push((t, large));
        }
        let mut tr = Tracer::default();
        for (t, o) in &cases {
            tr.begin_request();
            let direct = synthesize_sparse(t, o).expect("direct");
            let traced = synthesize_traced(t, o, &mut tr).expect("traced");
            assert_eq!(
                direct.render_equations(),
                traced.render_equations(),
                "{}",
                t.name()
            );
            assert_eq!(direct.depth, traced.depth, "{}", t.name());
        }
        let reqs = tr.requests();
        assert_eq!(reqs.len(), cases.len());
        for r in &reqs {
            for step in ["assign", "spec", "outputs", "hazard", "fsv", "factoring"] {
                assert!(r.self_ns.contains_key(step), "missing span {step}");
            }
        }
    }
}
