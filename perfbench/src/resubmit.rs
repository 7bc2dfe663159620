//! `resubmit`: fixed-size batches sent to one persistent
//! `seance::SynthesisService` with the cache on (closed loop, one client).
//!
//! Why: most submissions are relabelings of machines the service has seen,
//! so canonicalization, the cache and the worker pool do the work (read
//! path); a seeded minority are novel machines that miss, are synthesized
//! and are inserted (write path). Steps 3 and 6 are cheap here, so this is
//! the workload on which a Step 3/6 change should show no gain.

use std::time::Instant;

use fantom_flow::benchmarks;
use fantom_flow::canonical::{canonical_table, canonicalize, relabel};
use fantom_flow::generate::{generate, GeneratorOptions};
use fantom_flow::FlowTable;
use seance::service::{CacheStatus, ServiceResult};
use seance::{synthesize_many, ServiceOptions, SynthesisOptions, SynthesisService};

use crate::checks::{check_reply, reply_digest, same_reply, Quality};
use crate::layers::SHARE_BASE;
use crate::replay::synthesize_traced;
use crate::scale::TIER_SEED;
use crate::stats::{mix, Rng};
use crate::trace::Tracer;
use crate::Run;

/// Submissions per batch.
pub const BATCH: usize = 1024;
/// Novel machines per batch, one in each of as many equal stretches of the
/// batch, at a seeded position. The repository has no measured traffic mix;
/// this ratio is an assumption, chosen so that the write path (miss
/// synthesis, cache insert, eviction) is a resolvable share of batch time
/// next to the read path (see `perfbench/README.md`).
pub const NOVEL_PER_BATCH: usize = 32;
/// Relabeled copies of every seen machine in the submission pool.
pub const RELABELINGS: usize = 16;
/// Small generated machines seen alongside the 8-machine corpus.
pub const GENERATED_BASES: u64 = 8;

/// The `k`-th generated machine of `stream` with `states` states; the
/// don't-care density cycles through 0.25, 0.5 and 0.75.
fn small(seed: u64, stream: u64, k: u64, states: usize) -> FlowTable {
    generate(&GeneratorOptions {
        seed: mix(seed, stream + k),
        states,
        dc_density: [0.25, 0.5, 0.75][(k % 3) as usize],
        ..GeneratorOptions::default()
    })
}

/// The machines the service has seen: the corpus and small generated ones
/// from the pinned tier seed, so the quality sums (taken over these) read
/// the same for every workload seed.
pub fn bases() -> Vec<FlowTable> {
    let mut out = benchmarks::all();
    out.extend((0..GENERATED_BASES).map(|k| small(TIER_SEED, 1 << 20, k, 10 + k as usize)));
    out
}

/// The `k`-th novel machine of `seed`: 8 or 9 states.
///
/// Synthesis cost grows a heavy tail with size: over 300 draws per size the
/// slowest machine takes 2.3× the median at 8–9 states, 4.9× at 10, 18× at
/// 12 and 43× at 18 states. At 8–9 states a miss stays cheaper than the hits
/// the other worker serves meanwhile, so the write path is exercised without
/// the batch time (and its tail) becoming a Step 3/6 measurement; `scale`
/// measures those cost cliffs.
pub fn novel(seed: u64, k: u64) -> FlowTable {
    small(seed, 1 << 40, k, 8 + (k % 2) as usize)
}

/// A state-, input- and output-relabeled copy of `table`.
fn relabeled(table: &FlowTable, rng: &mut Rng, name: String) -> FlowTable {
    let sm = rng.permutation(table.num_states());
    let im = rng.permutation(table.num_inputs());
    let om = rng.permutation(table.num_outputs());
    relabel(table, &sm, &im, &om, &name)
}

/// One submission slot of a batch.
#[derive(Clone, Copy)]
enum Slot {
    Pool(usize),
    Novel(u64),
}

struct Inputs {
    bases: usize,
    /// `RELABELINGS` relabeled copies of every base, base-major.
    pool: Vec<FlowTable>,
}

fn inputs(seed: u64) -> Inputs {
    let bases = bases();
    let mut rng = Rng::new(seed, 3);
    let pool = bases
        .iter()
        .flat_map(|b| (0..RELABELINGS).map(move |r| (b, r)))
        .map(|(b, r)| relabeled(b, &mut rng, format!("{}_r{r}", b.name())))
        .collect();
    Inputs {
        bases: bases.len(),
        pool,
    }
}

/// The seeded plan of one batch; novel machines are numbered on from
/// `next_novel`, so a run never resubmits one.
fn plan(rng: &mut Rng, pool: usize, next_novel: &mut u64) -> Vec<Slot> {
    let stride = BATCH / NOVEL_PER_BATCH;
    let mut slots: Vec<Slot> = (0..BATCH).map(|_| Slot::Pool(rng.below(pool))).collect();
    for k in 0..NOVEL_PER_BATCH {
        slots[k * stride + rng.below(stride)] = Slot::Novel(*next_novel);
        *next_novel += 1;
    }
    slots
}

/// Service options: at most `workers` pool threads, cache on, bounded so
/// that every batch's novel entries evict the previous-but-one batch's.
pub fn service_options(bases: usize, workers: usize) -> ServiceOptions {
    ServiceOptions {
        synthesis: SynthesisOptions::for_service(),
        parallelism: workers,
        cache: true,
        max_cache_entries: bases + 2 * NOVEL_PER_BATCH,
        ..ServiceOptions::default()
    }
}

/// The reply a fresh one-shot service gives for `table` alone, checked
/// (against the dense oracle too for corpus machines).
fn direct(
    table: &FlowTable,
    options: &ServiceOptions,
    corpus: bool,
) -> Result<ServiceResult, String> {
    let one = ServiceOptions {
        parallelism: 1,
        max_cache_entries: 0,
        ..*options
    };
    let outcome = synthesize_many(std::slice::from_ref(table), &one)
        .pop()
        .expect("one outcome per submission");
    let reply = outcome.result.map_err(|e| e.to_string())?;
    check_reply(&reply, corpus)?;
    Ok(reply)
}

fn setup(seed: u64, workers: usize) -> (Inputs, SynthesisService) {
    let inp = inputs(seed);
    let service = SynthesisService::new(service_options(inp.bases, workers));
    // Warm the cache with one submission of every seen machine.
    let warm: Vec<FlowTable> = (0..inp.bases)
        .map(|b| inp.pool[b * RELABELINGS].clone())
        .collect();
    std::hint::black_box(service.synthesize_many(&warm));
    (inp, service)
}

pub fn run(seed: u64, seconds: f64, workers: usize, trace: Option<&mut Tracer>, out: &mut Run) {
    let (inp, service) = out.first_setup(|| setup(seed, workers));
    let options = *service.options();

    // Expected replies of the pool, from direct one-shot synthesis.
    let mut expected: Vec<Option<ServiceResult>> = Vec::with_capacity(inp.pool.len());
    for (i, t) in inp.pool.iter().enumerate() {
        let corpus = i / RELABELINGS < benchmarks::all().len();
        match direct(t, &options, corpus) {
            Ok(reply) => {
                if i % RELABELINGS == 0 {
                    out.quality.add(Quality::of_reply(&reply));
                }
                expected.push(Some(reply));
            }
            Err(e) => {
                out.fail(format!("{}: {e}", t.name()));
                expected.push(None);
            }
        }
    }

    let mut tracer = trace;
    let mut rng = Rng::new(seed, 5);
    let mut next_novel = 0;
    let mut novel_replies: Vec<(u64, u64)> = Vec::new();
    let mut spent = 0.0;
    while spent < seconds {
        out.repeat_setup(Some(spent), seconds, || setup(seed, workers));
        // The batch, novel machines included, is made before the clock starts.
        let slots = plan(&mut rng, inp.pool.len(), &mut next_novel);
        let batch: Vec<FlowTable> = slots
            .iter()
            .map(|s| match *s {
                Slot::Pool(i) => inp.pool[i].clone(),
                Slot::Novel(k) => novel(seed, k),
            })
            .collect();
        out.attempted += BATCH;
        let traced = tracer.as_deref_mut();
        let root = traced.map(|tr| {
            tr.begin_request();
            (tr.open("request"), tr.open("service.batch"))
        });
        let t = Instant::now();
        let replies = service.synthesize_many(&batch);
        let dt = t.elapsed();
        spent += dt.as_secs_f64();
        if let (Some(tr), Some((req, span))) = (tracer.as_deref_mut(), root) {
            tr.close(span);
            let t = Instant::now();
            replay(&batch, &replies, &options, dt.as_nanos() as f64, tr);
            tr.close(req);
            spent += t.elapsed().as_secs_f64();
        }
        let mut ok = 0;
        for (slot, (sub, outcome)) in slots.iter().zip(batch.iter().zip(&replies)) {
            let reply = match &outcome.result {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("{}: {e}", sub.name()));
                    continue;
                }
            };
            ok += 1;
            match *slot {
                Slot::Pool(i) => {
                    if !expected[i].as_ref().is_some_and(|e| same_reply(reply, e)) {
                        out.fail(format!(
                            "{}: reply differs from direct synthesis",
                            sub.name()
                        ));
                    }
                }
                Slot::Novel(k) => novel_replies.push((k, reply_digest(reply))),
            }
        }
        out.record(dt, ok);
    }
    out.repeat_setup(None, seconds, || setup(seed, workers));
    check_novel(seed, &novel_replies, &options, workers, out);
}

/// Compare the served replies of the novel machines with their direct
/// synthesis, on `workers` threads after the timed loop.
fn check_novel(
    seed: u64,
    replies: &[(u64, u64)],
    options: &ServiceOptions,
    workers: usize,
    out: &mut Run,
) {
    let chunk = replies.len().div_ceil(workers.max(1)).max(1);
    let verdicts: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = replies
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter_map(|&(k, digest)| {
                            let t = novel(seed, k);
                            match direct(&t, options, false) {
                                Ok(d) if reply_digest(&d) == digest => None,
                                Ok(_) => Some(format!(
                                    "{}: reply differs from direct synthesis",
                                    t.name()
                                )),
                                Err(e) => Some(format!("{}: {e}", t.name())),
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("novel check thread panicked"))
            .collect()
    });
    for failure in verdicts.into_iter().flatten() {
        out.fail(failure);
    }
}

/// The traced side of one batch: canonicalize every submission and replay
/// the synthesis of every miss under spans, then attribute the rest of the
/// batch time (pool, locks, relabeling, eviction) to `service.other_ms`.
/// The replays run on one thread while the batch ran on the pool, so their
/// time is divided by the worker count before it is taken off the batch's
/// wall time, and layer shares divide by the pool's thread time (batch wall
/// time × workers) rather than by the request span, which also holds the
/// replays.
fn replay(
    batch: &[FlowTable],
    replies: &[seance::SynthesisOutcome],
    options: &ServiceOptions,
    batch_ns: f64,
    tr: &mut Tracer,
) {
    let mut replayed_ns = 0.0;
    for (sub, outcome) in batch.iter().zip(replies) {
        let t = Instant::now();
        let canon = tr.span("canonical", || canonicalize(sub, &options.canonical));
        replayed_ns += t.elapsed().as_nanos() as f64;
        tr.count("canonical.calls", 1.0);
        tr.count("canonical.exact", f64::from(u8::from(canon.exact)));
        let Ok(reply) = &outcome.result else {
            continue;
        };
        tr.count("service.replies", 1.0);
        match reply.cache {
            CacheStatus::Hit => tr.count("service.hits", 1.0),
            CacheStatus::Miss => {
                let ctable = canonical_table(sub, &canon);
                let t = Instant::now();
                let _ = synthesize_traced(&ctable, &options.synthesis, tr);
                replayed_ns += t.elapsed().as_nanos() as f64;
            }
            CacheStatus::Uncached => {}
        }
    }
    let workers = options.parallelism.max(1) as f64;
    tr.count("service.other_ms", (batch_ns - replayed_ns / workers) / 1e6);
    tr.count(SHARE_BASE, batch_ns * workers);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DEFAULT_SEED, HELD_OUT_SEED};
    use fantom_flow::validate;

    #[test]
    fn held_out_seed_draws_other_small_machines_of_the_same_shapes() {
        for k in 0..12 {
            let a = novel(DEFAULT_SEED, k);
            let b = novel(HELD_OUT_SEED, k);
            assert_ne!(a, b);
            assert_eq!(a.num_states(), b.num_states());
            assert!((8..=9).contains(&a.num_states()));
            assert!(validate::validate(&b).is_acceptable());
        }
        // The relabeled pools differ too.
        let a = inputs(DEFAULT_SEED).pool;
        let b = inputs(HELD_OUT_SEED).pool;
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).filter(|(x, y)| x != y).count() > a.len() / 2);
    }

    #[test]
    fn relabeled_submissions_hit_and_match_direct_synthesis() {
        let inp = inputs(DEFAULT_SEED);
        let options = service_options(inp.bases, 2);
        let service = SynthesisService::new(options);
        let batch: Vec<FlowTable> = (0..inp.bases)
            .flat_map(|b| [0, 1].map(|r| inp.pool[b * RELABELINGS + r].clone()))
            .collect();
        let replies = service.synthesize_many(&batch);
        for (t, o) in batch.iter().zip(&replies) {
            let reply = o.result.as_ref().expect("synthesizes");
            assert!(same_reply(
                reply,
                &direct(t, &options, true).expect("direct")
            ));
        }
        let stats = service.cache_stats();
        assert_eq!(stats.misses, inp.bases);
        assert_eq!(stats.hits, inp.bases);
    }
}
