//! `validate`: Monte-Carlo hazard campaigns (`seance::run_campaign_sparse`)
//! over machines synthesized during set-up (closed loop, one client).
//!
//! Why: only `seance::emit` and the `fantom_sim` simulator work here. Event
//! counts are deterministic for a fixed campaign seed, so a synthesis change
//! that alters the netlist shows up as a change in event count.

use std::time::{Duration, Instant};

use fantom_boolean::MAX_DENSE_VARS;
use fantom_flow::{benchmarks, FlowTable};
use seance::emit::{emit_parts, MachineParts};
use seance::{
    run_campaign_sparse, synthesize_sparse, CampaignOptions, SparseSynthesisResult,
    SynthesisOptions,
};

use crate::checks::{check_dense_oracle, check_sparse, Quality};
use crate::scale::large_options;
use crate::stats::{fnv1a, Rng};
use crate::trace::Tracer;
use crate::Run;

/// The machines: the 8-machine corpus under the default options and the
/// 40-state suite under the large-machine options, all with Step 7 on the
/// calling thread.
pub fn machines() -> Vec<(FlowTable, SynthesisOptions)> {
    let mut out: Vec<(FlowTable, SynthesisOptions)> = benchmarks::all()
        .into_iter()
        .map(|t| (t, SynthesisOptions::for_service()))
        .collect();
    out.extend(
        benchmarks::large_suite()
            .into_iter()
            .map(|t| (t, large_options())),
    );
    out
}

/// Cycles whose campaigns make up the `latency_tail_ms` samples. Every run
/// makes at least this many, so the tail is always taken from the same
/// sample set: with eleven of each machine's campaigns, the 11th-largest
/// sample is the slowest machine's fastest campaign however many more cycles
/// fit in the run.
pub const TAIL_CYCLES: usize = 11;

/// The campaign seed, the same for every workload seed. The delay draws set
/// how many events a campaign simulates, and with 64 assignments per
/// campaign they differ enough between campaign seeds to move the median
/// campaign time by a third; fixed, they keep `sim.events` identical across
/// runs and leave the workload seed the order of the requests.
pub const CAMPAIGN_SEED: u64 = 0xCA;

/// Campaign settings: the default campaign with the fixed seed and at most
/// `workers` threads.
pub fn campaign_options(workers: usize) -> CampaignOptions {
    CampaignOptions {
        seed: CAMPAIGN_SEED,
        workers,
        ..CampaignOptions::default()
    }
}

fn setup(ms: &[(FlowTable, SynthesisOptions)]) -> Vec<Result<SparseSynthesisResult, String>> {
    ms.iter()
        .map(|(t, o)| synthesize_sparse(t, o).map_err(|e| e.to_string()))
        .collect()
}

pub fn run(seed: u64, seconds: f64, workers: usize, trace: Option<&mut Tracer>, out: &mut Run) {
    let ms = machines();
    let results = out.first_setup(|| setup(&ms));
    let mut ready: Vec<SparseSynthesisResult> = Vec::new();
    for ((table, options), r) in ms.iter().zip(results) {
        let checked = r.and_then(|r| {
            check_sparse(&r)?;
            if r.spec.num_vars_extended() <= MAX_DENSE_VARS {
                check_dense_oracle(table, options, &r)?;
            }
            Ok(r)
        });
        match checked {
            Ok(r) => {
                out.quality.add(Quality::of_sparse(&r));
                ready.push(r);
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("{}: {e}", table.name()));
            }
        }
    }
    if ready.is_empty() {
        return;
    }

    let copts = campaign_options(workers);
    let mut hashes: Vec<Option<u64>> = vec![None; ready.len()];
    let mut tracer = trace;
    let mut rng = Rng::new(seed, 9);
    let mut spent = 0.0;
    let mut cycles = 0;
    // Whole cycles over the machines, each in a seeded order, and at least
    // `TAIL_CYCLES` of them.
    while spent < seconds || cycles < TAIL_CYCLES {
        cycles += 1;
        for i in rng.permutation(ready.len()) {
            out.repeat_setup(Some(spent), seconds, || setup(&ms));
            let r = &ready[i];
            out.attempted += 1;
            let (report, dt) = match tracer.as_deref_mut() {
                None => timed(|| run_campaign_sparse(r, &copts)),
                Some(tr) => {
                    tr.begin_request();
                    let root = tr.open("request");
                    let (netlist, emit) = timed(|| {
                        tr.span("emit", || {
                            emit_parts(&MachineParts::from(r), copts.loop_stages.max(1))
                        })
                    });
                    tr.count("emit.gates", netlist.netlist.num_gates() as f64);
                    let id = tr.open("campaign");
                    let (report, dt) = timed(|| run_campaign_sparse(r, &copts));
                    tr.close(id);
                    tr.close(root);
                    // The campaign emits the netlist itself; its own work is
                    // the rest.
                    let campaign_ns = dt.as_nanos().saturating_sub(emit.as_nanos()) as f64;
                    tr.count("campaign.ms", campaign_ns / 1e6);
                    tr.count("campaign.ns", campaign_ns);
                    tr.count("sim.events", report.events as f64);
                    spent += emit.as_secs_f64();
                    (report, dt)
                }
            };
            spent += dt.as_secs_f64();
            out.record(dt, 1);
            if !report.is_clean() {
                out.fail(format!("{}: campaign not clean", r.name));
                continue;
            }
            let hash = fnv1a(&report.render());
            match hashes[i] {
                None => hashes[i] = Some(hash),
                Some(h) if h != hash => {
                    out.fail(format!("{}: campaign report changed on repeat", r.name));
                }
                Some(_) => {}
            }
        }
        if cycles == TAIL_CYCLES {
            out.tail_ms = Some(out.latencies_ms.clone());
        }
    }
    out.repeat_setup(None, seconds, || setup(&ms));
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}
