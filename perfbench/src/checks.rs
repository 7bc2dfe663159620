//! Output checks applied to every request. A failed check is returned as an
//! error message and counted against the run; it never aborts the run.

use fantom_assign::StateAssignment;
use fantom_boolean::{Cover, CoverFunction, Expr, MAX_DENSE_VARS};
use fantom_flow::{Bits, FlowTable};
use seance::factoring::FactoredEquations;
use seance::fsv::FsvEquations;
use seance::outputs::OutputEquations;
use seance::service::ServiceResult;
use seance::{
    fsv, hazard, outputs, synthesize, SparseSynthesisResult, SpecifiedTable, SynthesisOptions,
};

use crate::stats::fnv1a;

/// Quality of one synthesized machine, summed over a workload's distinct
/// machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    pub code_vars: usize,
    pub y_literals: usize,
    pub gate_count: usize,
    pub depth_total: usize,
}

impl Quality {
    pub fn of_sparse(r: &SparseSynthesisResult) -> Self {
        Quality {
            code_vars: r.assignment.num_vars(),
            y_literals: r.factored.y_literals(),
            gate_count: r.factored.gate_count(),
            depth_total: r.depth.total_depth,
        }
    }

    pub fn of_reply(r: &ServiceResult) -> Self {
        Quality {
            code_vars: r.assignment.num_vars(),
            y_literals: r.factored.y_literals(),
            gate_count: r.factored.gate_count(),
            depth_total: r.depth.total_depth,
        }
    }

    pub fn add(&mut self, other: Quality) {
        self.code_vars += other.code_vars;
        self.y_literals += other.y_literals;
        self.gate_count += other.gate_count;
        self.depth_total += other.depth_total;
    }
}

fn implements(what: &str, f: &CoverFunction, c: &Cover) -> Result<(), String> {
    if f.implemented_by(c) {
        Ok(())
    } else {
        Err(format!("{what} cover does not implement its function"))
    }
}

/// Checks on a `synthesize_sparse` result: the assignment verifies against
/// the synthesized table, every Step 4/6/7 cover implements its function,
/// and Z matches the table's outputs at every specified stable total state.
pub fn check_sparse(r: &SparseSynthesisResult) -> Result<(), String> {
    r.assignment
        .verify(&r.reduced_table)
        .map_err(|e| format!("assignment: {e}"))?;
    let eq = &r.equations;
    implements("step-6 fsv", &eq.fsv, &eq.fsv_cover)?;
    implements("factored fsv", &eq.fsv, &r.factored.fsv_cover)?;
    for (i, y) in eq.y.iter().enumerate() {
        implements(&format!("step-6 Y{}", i + 1), y, &eq.y_covers[i])?;
        implements(&format!("factored Y{}", i + 1), y, &r.factored.y_covers[i])?;
    }
    for (b, z) in r.outputs.z.iter().enumerate() {
        implements(&format!("Z{}", b + 1), z, &r.outputs.z_covers[b])?;
    }
    implements("SSD", &r.outputs.ssd, &r.outputs.ssd_cover)?;
    check_outputs(&r.reduced_table, &r.assignment, &r.outputs.z_exprs)
}

/// Every `Z` expression, evaluated at every specified stable total state of
/// `table` under `assignment`, equals the table's output bit.
pub fn check_outputs(
    table: &FlowTable,
    assignment: &StateAssignment,
    z_exprs: &[Expr],
) -> Result<(), String> {
    let ni = table.num_inputs();
    for s in table.states() {
        for c in table.stable_columns(s) {
            let Some(out) = table.output(s, c) else {
                continue;
            };
            let mut point = Bits::from_index(ni, c).as_slice().to_vec();
            point.extend_from_slice(assignment.code(s).as_slice());
            for (b, z) in z_exprs.iter().enumerate() {
                if z.eval(&point) != out.bit(b) {
                    return Err(format!(
                        "Z{} wrong at stable state {} column {c}",
                        b + 1,
                        table.state_name(s)
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The sparse covers implement the functions of the dense
/// `seance::synthesize` run of the same table and options. Only for machines
/// within `MAX_DENSE_VARS`.
pub fn check_dense_oracle(
    table: &FlowTable,
    options: &SynthesisOptions,
    r: &SparseSynthesisResult,
) -> Result<(), String> {
    let dense = synthesize(table, options).map_err(|e| format!("dense oracle: {e}"))?;
    if dense.assignment.codes() != r.assignment.codes() {
        return Err("dense oracle chose another assignment".to_string());
    }
    dense_agrees(
        &dense.equations,
        &dense.outputs,
        &r.factored,
        &r.outputs.z_covers,
        &r.outputs.ssd_cover,
    )
}

/// The factored and output covers implement the dense engine's functions.
fn dense_agrees(
    eq: &FsvEquations,
    out: &OutputEquations,
    f: &FactoredEquations,
    z_covers: &[Cover],
    ssd_cover: &Cover,
) -> Result<(), String> {
    let ok = eq.fsv_function.implemented_by(&f.fsv_cover)
        && eq
            .y_functions
            .iter()
            .zip(&f.y_covers)
            .all(|(y, c)| y.implemented_by(c))
        && out
            .z_functions
            .iter()
            .zip(z_covers)
            .all(|(z, c)| z.implemented_by(c))
        && out.ssd_function.implemented_by(ssd_cover);
    if ok {
        Ok(())
    } else {
        Err("covers disagree with the dense oracle".to_string())
    }
}

/// Checks on a service reply, which carries covers but no functions: the
/// assignment verifies against the served table, the functions are derived
/// again from the served table and assignment by the cover engine and every
/// served cover must implement them, and Z matches the served table's
/// outputs. With `dense_oracle`, and within `MAX_DENSE_VARS`, the covers must
/// also implement the dense engine's functions.
pub fn check_reply(reply: &ServiceResult, dense_oracle: bool) -> Result<(), String> {
    reply
        .assignment
        .verify(&reply.reduced_table)
        .map_err(|e| format!("assignment: {e}"))?;
    let spec = SpecifiedTable::new(reply.reduced_table.clone(), reply.assignment.clone())
        .map_err(|e| format!("spec: {e}"))?;
    let hazards = hazard::analyze(&spec);
    let f = &reply.factored;
    let o = &reply.outputs;
    let out = outputs::generate_covers(&spec).map_err(|e| format!("outputs: {e}"))?;
    let eq = fsv::generate_covers(&spec, &hazards).map_err(|e| format!("fsv: {e}"))?;
    implements("fsv", &eq.fsv, &f.fsv_cover)?;
    for (i, y) in eq.y.iter().enumerate() {
        implements(&format!("Y{}", i + 1), y, &f.y_covers[i])?;
    }
    for (b, z) in out.z.iter().enumerate() {
        implements(&format!("Z{}", b + 1), z, &o.z_covers[b])?;
    }
    implements("SSD", &out.ssd, &o.ssd_cover)?;
    if dense_oracle && spec.num_vars_extended() <= MAX_DENSE_VARS {
        let dout = outputs::generate(&spec).map_err(|e| format!("dense outputs: {e}"))?;
        let deq = fsv::generate(&spec, &hazards).map_err(|e| format!("dense fsv: {e}"))?;
        dense_agrees(&deq, &dout, f, &o.z_covers, &o.ssd_cover)?;
    }
    check_outputs(&reply.reduced_table, &reply.assignment, &o.z_exprs)
}

/// A digest of everything [`same_reply`] compares, for replies that are
/// checked after the timed loop without being kept.
pub fn reply_digest(r: &ServiceResult) -> u64 {
    fnv1a(&format!(
        "{:?}",
        (
            &r.name,
            r.states_before,
            &r.reduced_table,
            &r.assignment,
            &r.depth,
            r.hazard_state_count,
            &r.factored,
            (&r.outputs.z_covers, &r.outputs.z_exprs),
            (&r.outputs.ssd_cover, &r.outputs.ssd_expr),
        )
    ))
}

/// Whether two service replies give the same answer: every field that the
/// reply's report line and rendered equations are made from, and the covers.
pub fn same_reply(a: &ServiceResult, b: &ServiceResult) -> bool {
    let (fa, fb) = (&a.factored, &b.factored);
    let (oa, ob) = (&a.outputs, &b.outputs);
    a.name == b.name
        && a.states_before == b.states_before
        && a.reduced_table == b.reduced_table
        && a.assignment == b.assignment
        && a.depth == b.depth
        && a.hazard_state_count == b.hazard_state_count
        && fa.fsv_cover == fb.fsv_cover
        && fa.fsv_expr == fb.fsv_expr
        && fa.y_covers == fb.y_covers
        && fa.y_exprs == fb.y_exprs
        && oa.z_covers == ob.z_covers
        && oa.z_exprs == ob.z_exprs
        && oa.ssd_cover == ob.ssd_cover
        && oa.ssd_expr == ob.ssd_expr
}

#[cfg(test)]
mod tests {
    use super::*;
    use fantom_flow::benchmarks;
    use seance::synthesize_sparse;

    #[test]
    fn corpus_passes_every_check() {
        let options = SynthesisOptions::default();
        for table in benchmarks::all() {
            let r = synthesize_sparse(&table, &options).expect("corpus synthesizes");
            check_sparse(&r).unwrap_or_else(|e| panic!("{}: {e}", table.name()));
            check_dense_oracle(&table, &options, &r)
                .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
        }
    }

    #[test]
    fn a_wrong_output_is_caught() {
        let table = benchmarks::lion();
        let r = synthesize_sparse(&table, &SynthesisOptions::default()).expect("lion");
        let negated: Vec<Expr> = r
            .outputs
            .z_exprs
            .iter()
            .map(|z| Expr::Not(Box::new(z.clone())))
            .collect();
        assert!(check_outputs(&r.reduced_table, &r.assignment, &negated).is_err());
    }
}
