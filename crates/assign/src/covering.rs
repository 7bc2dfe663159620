//! Selection of a small set of state-variable partitions covering every
//! required dichotomy.
//!
//! This is a set cover over separation constraints: each candidate partition
//! is a maximal merge of compatible dichotomies, and the selected partitions
//! become the state variables. The engine is built around the inverted
//! **dichotomy index** of [`crate::index`], shared by every seed ordering:
//!
//! * **candidate growth** seeds one candidate per (dichotomy, ordering) pair
//!   — plus one per adjacency-cluster seed, see
//!   [`crate::assignment::adjacency_seeds`] — and absorbs compatible
//!   dichotomies in the ordering's sequence. Compatibility is read from
//!   blocked-id bitsets derived from the candidate's hit bitsets instead of
//!   per-dichotomy set probes, so a sweep enumerates only the ids still
//!   absorbable (word-granular). Each candidate that survives the dedup gets
//!   its `covers` set from the same hit bitsets, word-parallel, instead of a
//!   full separation rescan; duplicates never compute one;
//! * **selection** is an exact minimum-cover search on small candidate sets
//!   (under a node budget) or a lazy-max greedy cover followed by
//!   local-search refinement (drop redundant partitions, replace partition
//!   pairs by a single candidate);
//! * any dichotomy the budgets left uncovered receives a dedicated partition
//!   — so the result always covers every dichotomy, whatever the
//!   [`AssignmentOptions`].
//!
//! All growth and selection buffers live in an [`AssignScratch`], so batch
//! callers (the synthesis service's `Workspace`) reuse the allocations
//! across calls.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fantom_boolean::MintermSet;

use crate::dichotomy::{Dichotomy, StateSet};
use crate::index::{DichotomyIndex, GrowthScratch};
use crate::options::AssignmentOptions;

/// A candidate state variable, represented as a merged dichotomy: states in
/// its left group are coded 0, states in its right group are coded 1,
/// unconstrained states may take either value (and default to 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Merged dichotomy describing the constrained states.
    dichotomy: Dichotomy,
    /// Packed set of indices (into the dichotomy list) this partition covers.
    covers: MintermSet,
}

impl Partition {
    /// Build a partition from a merged dichotomy, recording which of
    /// `dichotomies` it separates by a full rescan. The growth engine
    /// computes `covers` from its hit bitsets and uses
    /// [`Partition::from_parts`]; this constructor remains for the
    /// dedicated-partition fallback (and as the debug-mode oracle for the
    /// hit-bitset sets).
    fn new(dichotomy: Dichotomy, dichotomies: &[Dichotomy]) -> Self {
        let ones = dichotomy.right();
        let covers = MintermSet::from_minterms(
            dichotomies.len() as u64,
            dichotomies
                .iter()
                .enumerate()
                .filter(|(_, d)| d.separated_by(ones))
                .map(|(i, _)| i as u64),
        );
        Partition { dichotomy, covers }
    }

    /// Build a partition from a merged dichotomy and its already-known
    /// coverage set.
    fn from_parts(dichotomy: Dichotomy, covers: MintermSet) -> Self {
        Partition { dichotomy, covers }
    }

    /// The merged dichotomy backing this partition.
    pub fn dichotomy(&self) -> &Dichotomy {
        &self.dichotomy
    }

    /// The set of states coded 1 by this partition (the right side of the
    /// merged dichotomy).
    pub fn ones(&self) -> &StateSet {
        self.dichotomy.right()
    }

    /// Packed indices of the dichotomies this partition separates.
    pub fn covers(&self) -> &MintermSet {
        &self.covers
    }
}

/// Reusable buffers for the assignment engine: the shared dichotomy index,
/// the per-candidate growth state, dedup set, candidate pool, and the
/// selection structures (greedy heap, exact-search undo log). A `Workspace`
/// in the synthesis service holds one of these so a batch of assignments
/// allocates once.
#[derive(Debug, Default)]
pub struct AssignScratch {
    index: DichotomyIndex,
    growth: GrowthScratch,
    seen: fantom_boolean::collections::HashSet<Dichotomy>,
    candidates: Vec<Partition>,
    heap: BinaryHeap<(usize, Reverse<usize>)>,
    undo: Vec<(u32, u64)>,
}

/// The sequence in which a growing candidate visits the dichotomy list. Each
/// ordering absorbs in a different order, so the greedy merges produce
/// different (and collectively more diverse) maximal candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeedOrder {
    /// Ascending wrap-around from the seed.
    Forward,
    /// Descending wrap-around from the seed.
    Reverse,
    /// Visit `seed + k·stride (mod num)` for `k = 1..num`; the stride is
    /// coprime to `num`, so the walk is a permutation of the ids.
    Stride(usize),
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The distinct seed orderings for a `num`-dichotomy list, at most
/// `requested` of them.
///
/// The old variants ≥ 2 rotated the list by a prime offset — a silent
/// duplicate of Forward, because rotation changes each seed's *position* but
/// not the ascending wrap order grown from it, so every rotated ordering
/// produced exactly the candidates of variant 0. Coprime strides fix that: a
/// stride `st` genuinely reorders the absorption sequence. Strides `1` and
/// `num - 1` are Forward and Reverse, each stride is used once, and the probe
/// starts from the old variants' prime offsets so the choice stays
/// decorrelated from the generation order.
fn seed_orders(num: usize, requested: usize) -> Vec<SeedOrder> {
    let mut orders = vec![SeedOrder::Forward];
    if requested >= 2 && num >= 2 {
        orders.push(SeedOrder::Reverse);
    }
    let mut used: Vec<usize> = Vec::new();
    let mut variant = 2usize;
    while orders.len() < requested && num >= 5 {
        let start = (variant * 7919) % num;
        let found = (0..num)
            .map(|k| (start + k) % num)
            .find(|&st| st >= 2 && st != num - 1 && gcd(st, num) == 1 && !used.contains(&st));
        let Some(st) = found else { break };
        used.push(st);
        orders.push(SeedOrder::Stride(st));
        variant += 1;
    }
    orders
}

/// One growing candidate: its two sides plus the incremental index state.
struct Grower<'a> {
    dichotomies: &'a [Dichotomy],
    index: &'a DichotomyIndex,
    growth: &'a mut GrowthScratch,
    left: StateSet,
    right: StateSet,
}

impl Grower<'_> {
    /// Absorb dichotomy `id` into the candidate. Must only be called while
    /// the id is allowed; prefers the direct orientation like `try_absorb`.
    fn absorb(&mut self, id: usize) {
        let d = &self.dichotomies[id];
        let (dl, dr) = if self.growth.direct_ok(id) {
            (d.left(), d.right())
        } else {
            debug_assert!(self.growth.flip_ok(id));
            (d.right(), d.left())
        };
        for s in dl.iter() {
            if self.left.insert(s) {
                self.growth.add_left_state(self.index, s);
            }
        }
        for s in dr.iter() {
            if self.right.insert(s) {
                self.growth.add_right_state(self.index, s);
            }
        }
        self.growth.mark_absorbed(id);
    }

    /// Absorb every still-allowed id in `[lo, hi)`, ascending. Word-granular:
    /// each iteration re-reads the word's allowed bits, so ids blocked by an
    /// absorption earlier in the sweep are never visited (the allowed set
    /// only shrinks, so re-taking the lowest live bit preserves the order).
    fn sweep_ascending(&mut self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        let (wlo, whi) = (lo / 64, (hi - 1) / 64);
        for w in wlo..=whi {
            let mut mask = !0u64;
            if w == wlo {
                mask &= !0u64 << (lo % 64);
            }
            if w == whi && hi % 64 != 0 {
                mask &= !0u64 >> (64 - hi % 64);
            }
            loop {
                let live = self.growth.allowed_word(w) & mask;
                if live == 0 {
                    break;
                }
                self.absorb(w * 64 + live.trailing_zeros() as usize);
            }
        }
    }

    /// Absorb every still-allowed id in `[lo, hi)`, descending.
    fn sweep_descending(&mut self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        let (wlo, whi) = (lo / 64, (hi - 1) / 64);
        for w in (wlo..=whi).rev() {
            let mut mask = !0u64;
            if w == wlo {
                mask &= !0u64 << (lo % 64);
            }
            if w == whi && hi % 64 != 0 {
                mask &= !0u64 >> (64 - hi % 64);
            }
            loop {
                let live = self.growth.allowed_word(w) & mask;
                if live == 0 {
                    break;
                }
                self.absorb(w * 64 + 63 - live.leading_zeros() as usize);
            }
        }
    }

    /// Run the growth sequence of `order` from `seed_pos`. One pass
    /// suffices: a dichotomy incompatible with the candidate stays
    /// incompatible forever (the sides only grow and both orientations'
    /// conflicts are monotone in them), so the second wrap-around pass of
    /// the replaced scan could never absorb anything new.
    fn grow(&mut self, seed_pos: usize, order: SeedOrder) {
        let num = self.dichotomies.len();
        match order {
            SeedOrder::Forward => {
                self.sweep_ascending(seed_pos, num);
                self.sweep_ascending(0, seed_pos);
            }
            SeedOrder::Reverse => {
                self.sweep_descending(0, (seed_pos + 1).min(num));
                self.sweep_descending(seed_pos + 1, num);
            }
            SeedOrder::Stride(stride) => {
                let mut id = seed_pos;
                for _ in 1..num {
                    id = (id + stride) % num;
                    if self.growth.allowed(id) {
                        self.absorb(id);
                    }
                }
            }
        }
    }
}

/// Grow one candidate from `seed` and push it (deduplicated) onto the pool.
#[allow(clippy::too_many_arguments)]
fn grow_and_emit(
    dichotomies: &[Dichotomy],
    index: &DichotomyIndex,
    growth: &mut GrowthScratch,
    seen: &mut fantom_boolean::collections::HashSet<Dichotomy>,
    candidates: &mut Vec<Partition>,
    state_bound: usize,
    seed: &Dichotomy,
    seed_id: Option<usize>,
    order: SeedOrder,
) {
    growth.reset(dichotomies.len());
    let mut left = StateSet::new(state_bound as u64);
    let mut right = StateSet::new(state_bound as u64);
    left.union_with(seed.left());
    right.union_with(seed.right());
    for s in left.iter() {
        growth.add_left_state(index, s);
    }
    for s in right.iter() {
        growth.add_right_state(index, s);
    }
    if let Some(id) = seed_id {
        growth.mark_absorbed(id);
    }
    let mut grower = Grower {
        dichotomies,
        index,
        growth,
        left,
        right,
    };
    grower.grow(seed_id.unwrap_or(0), order);
    let Grower { left, right, .. } = grower;
    // The grown orientation is the seed's orientation: `right` stays the
    // 1-coded side the hit bitsets were kept for.
    let dichotomy = Dichotomy::from_oriented_sets(left, right);
    if seen.insert(dichotomy.clone()) {
        let covers = growth.covers(index, dichotomy.left(), dichotomy.right());
        debug_assert!(
            covers.same_contents(&Partition::new(dichotomy.clone(), dichotomies).covers),
            "hit-bitset covers diverge from the separation rescan"
        );
        candidates.push(Partition::from_parts(dichotomy, covers));
    }
}

/// Fill `scratch.candidates` with the deduplicated candidate pool: adjacency
/// `seeds` first (they reach merges the dichotomy-seeded orderings tend to
/// miss on wide-column machines), then one candidate per (dichotomy, seed
/// ordering) pair, capped at `options.max_candidate_partitions`.
fn candidate_partitions_in(
    dichotomies: &[Dichotomy],
    seeds: &[Dichotomy],
    options: &AssignmentOptions,
    scratch: &mut AssignScratch,
) {
    let num = dichotomies.len();
    let state_bound = dichotomies
        .iter()
        .chain(seeds)
        .map(|d| d.left().capacity().max(d.right().capacity()))
        .max()
        .unwrap_or(0) as usize;
    let AssignScratch {
        index,
        growth,
        seen,
        candidates,
        ..
    } = scratch;
    index.rebuild(state_bound, dichotomies);
    seen.clear();
    candidates.clear();

    for seed in seeds {
        if candidates.len() >= options.max_candidate_partitions {
            return;
        }
        if seed.left().is_empty() || seed.right().is_empty() {
            continue;
        }
        grow_and_emit(
            dichotomies,
            index,
            growth,
            seen,
            candidates,
            state_bound,
            seed,
            None,
            SeedOrder::Forward,
        );
    }
    for &order in &seed_orders(num, options.seed_orderings.max(1)) {
        for k in 0..num {
            if candidates.len() >= options.max_candidate_partitions {
                return;
            }
            let seed = match order {
                SeedOrder::Forward => k,
                SeedOrder::Reverse => num - 1 - k,
                SeedOrder::Stride(st) => (k * st) % num,
            };
            grow_and_emit(
                dichotomies,
                index,
                growth,
                seen,
                candidates,
                state_bound,
                &dichotomies[seed],
                Some(seed),
                order,
            );
        }
    }
}

/// Grow the deduplicated candidate pool for `dichotomies` — optionally with
/// extra adjacency `seeds` grown first — and return it as a slice borrowed
/// from `scratch`. [`select_partitions_in`] uses this internally; it is
/// public for the differential harness and the micro benchmarks.
pub fn grow_candidates<'a>(
    dichotomies: &[Dichotomy],
    seeds: &[Dichotomy],
    options: &AssignmentOptions,
    scratch: &'a mut AssignScratch,
) -> &'a [Partition] {
    candidate_partitions_in(dichotomies, seeds, options, scratch);
    &scratch.candidates
}

/// Select a small set of partitions (state variables) such that every
/// dichotomy is separated by at least one selected partition, using the
/// default [`AssignmentOptions`].
pub fn select_partitions(dichotomies: &[Dichotomy]) -> Vec<Partition> {
    select_partitions_with(dichotomies, &AssignmentOptions::default())
}

/// Select a covering set of partitions under the budgets of `options`.
///
/// Small candidate sets get an exact minimum-cover search (bounded by
/// `exact_node_budget`); everything else — and exact searches that blow the
/// budget — goes through the lazy-max greedy cover plus `refine_passes`
/// rounds of local search. Dichotomies the budgets left uncovered each
/// receive their own dedicated partition, so the result always covers the
/// whole list.
pub fn select_partitions_with(
    dichotomies: &[Dichotomy],
    options: &AssignmentOptions,
) -> Vec<Partition> {
    select_partitions_in(dichotomies, &[], options, &mut AssignScratch::default())
}

/// [`select_partitions_with`] with explicit adjacency `seeds` and reusable
/// `scratch` buffers — the batch entry point the synthesis `Workspace` calls.
pub fn select_partitions_in(
    dichotomies: &[Dichotomy],
    seeds: &[Dichotomy],
    options: &AssignmentOptions,
    scratch: &mut AssignScratch,
) -> Vec<Partition> {
    if dichotomies.is_empty() {
        return Vec::new();
    }
    candidate_partitions_in(dichotomies, seeds, options, scratch);
    let num = dichotomies.len();
    let candidates = &scratch.candidates;

    let mut best: Option<Vec<usize>> = None;
    if candidates.len() <= options.exact_max_candidates {
        scratch.undo.clear();
        best = exact_cover(
            candidates,
            num,
            options.exact_node_budget,
            &mut scratch.undo,
        );
    }
    if best.is_none() {
        let greedy_pick = greedy_cover_by(
            |i| &candidates[i].covers,
            candidates.len(),
            num,
            &mut scratch.heap,
        );
        best = Some(refine_cover(
            greedy_pick,
            candidates,
            num,
            options.refine_passes,
        ));
    }
    let chosen = best.expect("some selection path ran");

    let mut selected: Vec<Partition> = chosen.iter().map(|&i| candidates[i].clone()).collect();

    // Guaranteed-coverage fallback: whatever the budgets cut, every dichotomy
    // ends up separated — in the worst case by a partition of its own.
    let mut covered = MintermSet::new(num as u64);
    for p in &selected {
        covered.union_with(&p.covers);
    }
    for (i, d) in dichotomies.iter().enumerate() {
        if !covered.contains(i as u64) {
            let p = Partition::new(d.clone(), dichotomies);
            covered.union_with(&p.covers);
            selected.push(p);
        }
    }
    selected
}

/// Exact minimum cover over the candidate set: try sizes `1..` and return the
/// first size that admits a cover. Returns `None` when the node budget is
/// exhausted before an answer is certain.
fn exact_cover(
    candidates: &[Partition],
    num: usize,
    node_budget: u64,
    undo: &mut Vec<(u32, u64)>,
) -> Option<Vec<usize>> {
    // Big candidates first: covers are found earlier and the size bound
    // prunes harder.
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(candidates[i].covers.len()));
    let mut nodes = 0u64;
    for k in 1..=candidates.len() {
        let mut uncovered = MintermSet::from_minterms(num as u64, 0..num as u64);
        let mut chosen = Vec::new();
        match exact_rec(
            candidates,
            &order,
            k,
            0,
            &mut uncovered,
            &mut chosen,
            undo,
            &mut nodes,
            node_budget,
        ) {
            ExactOutcome::Found(sol) => return Some(sol),
            ExactOutcome::Exhausted => continue,
            ExactOutcome::OutOfBudget => return None,
        }
    }
    None
}

enum ExactOutcome {
    Found(Vec<usize>),
    Exhausted,
    OutOfBudget,
}

#[allow(clippy::too_many_arguments)]
fn exact_rec(
    candidates: &[Partition],
    order: &[usize],
    k: usize,
    start: usize,
    uncovered: &mut MintermSet,
    chosen: &mut Vec<usize>,
    undo: &mut Vec<(u32, u64)>,
    nodes: &mut u64,
    node_budget: u64,
) -> ExactOutcome {
    *nodes += 1;
    if *nodes > node_budget {
        return ExactOutcome::OutOfBudget;
    }
    if uncovered.is_empty() {
        return ExactOutcome::Found(chosen.clone());
    }
    if chosen.len() == k {
        return ExactOutcome::Exhausted;
    }
    let picks_left = k - chosen.len();
    for pos in start..candidates.len() {
        // Not enough candidates left to reach size k.
        if candidates.len() - pos < picks_left {
            break;
        }
        let cand = order[pos];
        if candidates[cand].covers.intersection_count(uncovered) == 0 {
            continue;
        }
        // Mutate in place with a word-level undo record: the search explores
        // up to `node_budget` nodes, so per-node set clones would be pure
        // allocator traffic.
        let undo_mark = undo.len();
        uncovered.subtract_with_undo(&candidates[cand].covers, undo);
        chosen.push(cand);
        let outcome = exact_rec(
            candidates,
            order,
            k,
            pos + 1,
            uncovered,
            chosen,
            undo,
            nodes,
            node_budget,
        );
        match outcome {
            ExactOutcome::Exhausted => {}
            other => return other,
        }
        chosen.pop();
        uncovered.undo_subtract(&undo[undo_mark..]);
        undo.truncate(undo_mark);
    }
    ExactOutcome::Exhausted
}

/// Greedy set cover over explicit coverage sets: repeatedly take the set
/// covering the most still-uncovered dichotomies, ties to the earlier index.
/// Public for the differential harness; selection calls the same
/// implementation with its scratch heap.
pub fn greedy_cover_sets(covers: &[MintermSet], num: usize) -> Vec<usize> {
    greedy_cover_by(|i| &covers[i], covers.len(), num, &mut BinaryHeap::new())
}

/// Lazy-max greedy cover. The heap holds `(gain upper bound, Reverse(index))`
/// keys; coverage gains only shrink as dichotomies get covered, so a popped
/// entry wins outright if its *recomputed* gain still beats every remaining
/// upper bound, and re-enters with the fresh key otherwise. Picks — including
/// the smaller-index tie-break — are exactly those of the rescan-per-pick
/// loop this replaces, without the full candidate scan per selection.
fn greedy_cover_by<'a>(
    cover: impl Fn(usize) -> &'a MintermSet,
    n_candidates: usize,
    num: usize,
    heap: &mut BinaryHeap<(usize, Reverse<usize>)>,
) -> Vec<usize> {
    let mut uncovered = MintermSet::from_minterms(num as u64, 0..num as u64);
    let mut chosen: Vec<usize> = Vec::new();
    heap.clear();
    heap.extend((0..n_candidates).filter_map(|i| {
        let len = cover(i).len();
        (len > 0).then_some((len, Reverse(i)))
    }));
    while let Some((gain, Reverse(i))) = heap.pop() {
        if uncovered.is_empty() {
            break;
        }
        let fresh = cover(i).intersection_count(&uncovered);
        if fresh == 0 {
            continue;
        }
        if fresh == gain || heap.peek().map_or(true, |&top| (fresh, Reverse(i)) >= top) {
            uncovered.subtract(cover(i));
            chosen.push(i);
        } else {
            heap.push((fresh, Reverse(i)));
        }
    }
    heap.clear();
    chosen
}

/// Local-search refinement of a cover: drop partitions that no longer cover
/// anything uniquely, and replace pairs of partitions by a single candidate
/// that covers everything only they covered. Each successful replacement
/// shrinks the code by one variable; the loop runs until a pass changes
/// nothing or `passes` rounds have run.
fn refine_cover(
    mut selected: Vec<usize>,
    candidates: &[Partition],
    num: usize,
    passes: usize,
) -> Vec<usize> {
    for _ in 0..passes {
        let mut changed = false;

        // Drop to fixpoint: a partition every one of whose dichotomies is
        // also covered elsewhere is redundant.
        let mut counts = coverage_counts(&selected, candidates, num);
        let mut i = 0;
        while i < selected.len() {
            let covers = &candidates[selected[i]].covers;
            let unique = covers.iter().any(|d| counts[d as usize] == 1);
            if !unique && selected.len() > 1 {
                for d in covers.iter() {
                    counts[d as usize] -= 1;
                }
                selected.remove(i);
                changed = true;
            } else {
                i += 1;
            }
        }

        // Consolidate to fixpoint: if one unselected candidate covers
        // everything partitions i and j cover uniquely, it can replace both
        // (every replacement shrinks the code by one variable, so this loop
        // runs at most `selected.len()` times).
        'consolidate: loop {
            let counts = coverage_counts(&selected, candidates, num);
            for i in 0..selected.len() {
                for j in (i + 1)..selected.len() {
                    // Everything that loses its last cover when BOTH i and j
                    // go: dichotomies whose full coverage comes from the pair.
                    let ci = &candidates[selected[i]].covers;
                    let cj = &candidates[selected[j]].covers;
                    let mut need = MintermSet::new(num as u64);
                    for d in ci.iter().chain(cj.iter()) {
                        let pair_coverage =
                            usize::from(ci.contains(d)) + usize::from(cj.contains(d));
                        if counts[d as usize] as usize == pair_coverage {
                            need.insert(d);
                        }
                    }
                    let replacement = (0..candidates.len())
                        .find(|r| !selected.contains(r) && need.is_subset(&candidates[*r].covers));
                    if let Some(r) = replacement {
                        // Remove j first so index i stays valid.
                        selected.remove(j);
                        selected.remove(i);
                        selected.push(r);
                        changed = true;
                        continue 'consolidate;
                    }
                }
            }
            break;
        }

        if !changed {
            break;
        }
    }
    selected
}

/// How many selected partitions cover each dichotomy.
fn coverage_counts(selected: &[usize], candidates: &[Partition], num: usize) -> Vec<u32> {
    let mut counts = vec![0u32; num];
    for &s in selected {
        for d in candidates[s].covers.iter() {
            counts[d as usize] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dichotomy::required_dichotomies;
    use fantom_flow::{benchmarks, StateId};

    fn check_all_covered(dichotomies: &[Dichotomy], partitions: &[Partition]) {
        for (i, d) in dichotomies.iter().enumerate() {
            let covered = partitions.iter().any(|p| d.separated_by(p.ones()));
            assert!(covered, "dichotomy {i} ({d}) not covered");
        }
    }

    #[test]
    fn partitions_cover_all_dichotomies_for_every_benchmark() {
        for table in benchmarks::all() {
            let dichotomies = required_dichotomies(&table);
            let partitions = select_partitions(&dichotomies);
            check_all_covered(&dichotomies, &partitions);
        }
    }

    #[test]
    fn every_budget_still_covers_everything() {
        let brutal = AssignmentOptions {
            max_candidate_partitions: 1,
            seed_orderings: 1,
            refine_passes: 0,
            exact_max_candidates: 0,
            exact_node_budget: 0,
            adjacency_seeding: false,
        };
        for table in benchmarks::all() {
            let dichotomies = required_dichotomies(&table);
            let partitions = select_partitions_with(&dichotomies, &brutal);
            check_all_covered(&dichotomies, &partitions);
        }
    }

    #[test]
    fn variable_count_is_at_least_ceil_log2_states() {
        for table in benchmarks::all() {
            let dichotomies = required_dichotomies(&table);
            let partitions = select_partitions(&dichotomies);
            let lower = (usize::BITS - (table.num_states() - 1).leading_zeros()) as usize;
            assert!(
                partitions.len() >= lower,
                "{}: {} variables cannot encode {} states",
                table.name(),
                partitions.len(),
                table.num_states()
            );
            // And it should never need more variables than states.
            assert!(partitions.len() <= table.num_states());
        }
    }

    #[test]
    fn refinement_never_grows_the_greedy_cover() {
        for table in benchmarks::all() {
            let dichotomies = required_dichotomies(&table);
            let no_exact = AssignmentOptions {
                exact_max_candidates: 0,
                refine_passes: 0,
                ..AssignmentOptions::default()
            };
            let refined_opts = AssignmentOptions {
                exact_max_candidates: 0,
                ..AssignmentOptions::default()
            };
            let unrefined = select_partitions_with(&dichotomies, &no_exact);
            let refined = select_partitions_with(&dichotomies, &refined_opts);
            assert!(
                refined.len() <= unrefined.len(),
                "{}: refinement grew the cover {} -> {}",
                table.name(),
                unrefined.len(),
                refined.len()
            );
            check_all_covered(&dichotomies, &refined);
        }
    }

    #[test]
    fn empty_dichotomy_list_needs_no_partitions() {
        assert!(select_partitions(&[]).is_empty());
    }

    #[test]
    fn simple_two_state_case_needs_one_variable() {
        let d = vec![Dichotomy::new([StateId(0)], [StateId(1)])];
        let partitions = select_partitions(&d);
        assert_eq!(partitions.len(), 1);
    }

    #[test]
    fn seed_orders_are_distinct_and_stride_valid() {
        for num in [1usize, 2, 3, 4, 5, 8, 12, 13, 40, 97, 211] {
            let orders = seed_orders(num, 8);
            for (i, a) in orders.iter().enumerate() {
                for b in &orders[i + 1..] {
                    assert_ne!(a, b, "duplicate ordering for num={num}");
                }
                if let SeedOrder::Stride(st) = *a {
                    assert!(st >= 2 && st != num - 1, "degenerate stride {st}/{num}");
                    assert_eq!(gcd(st, num), 1, "stride {st} not coprime to {num}");
                }
            }
            assert_eq!(orders[0], SeedOrder::Forward);
            assert!(!orders.is_empty() && orders.len() <= 8);
        }
    }

    #[test]
    fn incremental_covers_match_separation_rescan() {
        // Release-mode version of the growth engine's debug assertion.
        let options = AssignmentOptions::default();
        let mut scratch = AssignScratch::default();
        for table in benchmarks::all() {
            let dichotomies = required_dichotomies(&table);
            for p in grow_candidates(&dichotomies, &[], &options, &mut scratch) {
                for (i, d) in dichotomies.iter().enumerate() {
                    assert_eq!(
                        p.covers().contains(i as u64),
                        d.separated_by(p.ones()),
                        "{}: covers bit {i} wrong",
                        table.name()
                    );
                }
            }
        }
    }

    #[test]
    fn extra_orderings_extend_the_candidate_pool_prefix() {
        let table = benchmarks::train11();
        let dichotomies = required_dichotomies(&table);
        let two = AssignmentOptions {
            seed_orderings: 2,
            ..AssignmentOptions::default()
        };
        let six = AssignmentOptions {
            seed_orderings: 6,
            ..AssignmentOptions::default()
        };
        let mut scratch = AssignScratch::default();
        let first = grow_candidates(&dichotomies, &[], &two, &mut scratch).to_vec();
        let more = grow_candidates(&dichotomies, &[], &six, &mut scratch).to_vec();
        assert!(more.len() >= first.len());
        assert_eq!(
            &more[..first.len()],
            &first[..],
            "pool is not prefix-stable"
        );
    }

    #[test]
    fn lazy_greedy_matches_rescan_reference() {
        for table in benchmarks::all() {
            let dichotomies = required_dichotomies(&table);
            let mut scratch = AssignScratch::default();
            let options = AssignmentOptions::default();
            let covers: Vec<MintermSet> =
                grow_candidates(&dichotomies, &[], &options, &mut scratch)
                    .iter()
                    .map(|p| p.covers().clone())
                    .collect();
            let num = dichotomies.len();
            // Rescan-per-pick oracle, verbatim from the replaced loop.
            let mut uncovered = MintermSet::from_minterms(num as u64, 0..num as u64);
            let mut expected: Vec<usize> = Vec::new();
            while !uncovered.is_empty() {
                let mut best: Option<(usize, usize)> = None;
                for (i, c) in covers.iter().enumerate() {
                    let gain = c.intersection_count(&uncovered);
                    if gain > 0 && best.map_or(true, |(_, g)| gain > g) {
                        best = Some((i, gain));
                    }
                }
                let Some((pick, _)) = best else { break };
                uncovered.subtract(&covers[pick]);
                expected.push(pick);
            }
            assert_eq!(
                greedy_cover_sets(&covers, num),
                expected,
                "{}: lazy greedy diverges",
                table.name()
            );
        }
    }
}
