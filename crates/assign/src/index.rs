//! Inverted dichotomy index and growth scratch for indexed candidate growth.
//!
//! Candidate partitions are grown by absorbing compatible dichotomies into a
//! seed. The absorption-compatibility and coverage tests both reduce to
//! *state-membership* questions — "which dichotomies put state `s` in their
//! left (right) group?" — so one inverted index answers them for every seed
//! of every ordering: a [`DichotomyIndex`] keeps, per state, two **posting
//! bitsets** over dichotomy ids (the `CoverIndex` phase-bucket idiom of
//! `fantom_boolean::index`, with states playing the role of variables and
//! left/right the role of phases).
//!
//! On top of the index, a [`GrowthScratch`] keeps four **hit bitsets** per
//! candidate: the ids whose left (right) group meets the candidate's 0-side
//! (1-side). A state joining a side ORs its two posting bitsets into the
//! side's pair, two lane-parallel ORs and no per-id loop. Everything else
//! is derived from the hit bitsets word by word:
//!
//! * **blocked sets** — a dichotomy is absorbable in the direct orientation
//!   iff its left group avoids the candidate's right side and vice versa, so
//!   the direct-blocked ids are `rl | lr` and the flip-blocked ids
//!   `ll | rr`; the growth pass enumerates only ids outside their
//!   intersection instead of re-testing the full list;
//! * **coverage** — a dichotomy is separated by the candidate's 1-coded set
//!   `R` iff one group lies inside `R` and the other outside it. States on
//!   neither side are coded 0, so with `Z0l`/`Z0r` the ids whose left/right
//!   group meets a 0-coded state (`ll`/`rl` plus the postings of the free
//!   states), the covered ids are `(¬Z0l ∧ ¬rr) ∨ (¬lr ∧ ¬Z0r)`. This is
//!   computed once per *distinct* candidate, at emit time — duplicate
//!   candidates, most of the grown ones on large machines, never pay for it.
//!
//! Both structures live in [`AssignScratch`](crate::AssignScratch) so batch
//! callers reuse the allocations across synthesis calls (the `Workspace`
//! carry-over of the service layer).

use fantom_boolean::{lane, MintermSet};

use crate::dichotomy::{Dichotomy, StateSet};

/// Inverted state → dichotomy-id index: for every state, the packed set of
/// dichotomy ids whose left (right) group contains the state. Built once per
/// assignment call and shared by every seed ordering (see the
/// [module docs](self)).
#[derive(Debug, Default)]
pub struct DichotomyIndex {
    /// Number of dichotomies indexed.
    num: usize,
    /// Per state: ids of dichotomies whose left group contains the state.
    left_ids: Vec<MintermSet>,
    /// Per state: ids of dichotomies whose right group contains the state.
    right_ids: Vec<MintermSet>,
    /// States some dichotomy mentions (the only non-empty posting sets).
    support: StateSet,
}

impl DichotomyIndex {
    /// Build an index over `dichotomies` for a `num_states`-state machine.
    pub fn build(num_states: usize, dichotomies: &[Dichotomy]) -> Self {
        let mut index = DichotomyIndex::default();
        index.rebuild(num_states, dichotomies);
        index
    }

    /// Rebuild in place, reusing the posting-bitset allocations of the
    /// previous build where the id-space width still fits (the batch-service
    /// reuse path: a worker's scratch serves a stream of same-shaped
    /// machines).
    pub fn rebuild(&mut self, num_states: usize, dichotomies: &[Dichotomy]) {
        let num = dichotomies.len();
        self.num = num;
        let reset = |buckets: &mut Vec<MintermSet>| {
            for bucket in buckets.iter_mut() {
                if bucket.capacity() >= num as u64 {
                    bucket.clear();
                } else {
                    *bucket = MintermSet::new(num as u64);
                }
            }
            buckets.resize_with(num_states, || MintermSet::new(num as u64));
            buckets.truncate(num_states);
        };
        reset(&mut self.left_ids);
        reset(&mut self.right_ids);
        self.support = StateSet::new(num_states as u64);
        for (i, d) in dichotomies.iter().enumerate() {
            for s in d.left().iter() {
                self.left_ids[s as usize].insert(i as u64);
                self.support.insert(s);
            }
            for s in d.right().iter() {
                self.right_ids[s as usize].insert(i as u64);
                self.support.insert(s);
            }
        }
    }

    /// Number of dichotomies indexed.
    pub fn num_dichotomies(&self) -> usize {
        self.num
    }

    /// Ids whose left group contains `state`.
    pub fn left_ids(&self, state: u64) -> &MintermSet {
        &self.left_ids[state as usize]
    }

    /// Ids whose right group contains `state`.
    pub fn right_ids(&self, state: u64) -> &MintermSet {
        &self.right_ids[state as usize]
    }
}

/// Word count of the id space (the stride of every per-candidate bitset).
fn id_words(num: usize) -> usize {
    num.div_ceil(64)
}

/// Per-candidate growth state, maintained incrementally as states join the
/// candidate's sides (see the [module docs](self)). Reused across seeds: a
/// [`reset`](GrowthScratch::reset) is five word-array memsets, not an
/// allocation.
#[derive(Debug, Default)]
pub struct GrowthScratch {
    /// Ids whose left group meets the candidate's left (0-coded) side.
    ll: Vec<u64>,
    /// Ids whose right group meets the candidate's left side.
    rl: Vec<u64>,
    /// Ids whose left group meets the candidate's right (1-coded) side.
    lr: Vec<u64>,
    /// Ids whose right group meets the candidate's right side.
    rr: Vec<u64>,
    /// Ids already absorbed into the candidate (skipped by the growth pass —
    /// re-absorbing is a no-op union).
    absorbed: Vec<u64>,
    /// Emit-time buffer: ids whose right group meets a 0-coded state.
    zero_right: Vec<u64>,
}

impl GrowthScratch {
    /// Clear the scratch for a new candidate over `num` dichotomy ids.
    pub fn reset(&mut self, num: usize) {
        let words = id_words(num);
        for hits in [
            &mut self.ll,
            &mut self.rl,
            &mut self.lr,
            &mut self.rr,
            &mut self.absorbed,
        ] {
            hits.clear();
            hits.resize(words, 0);
        }
    }

    /// Record that `state` joined the candidate's **left** (0-coded) side.
    #[inline]
    pub fn add_left_state(&mut self, index: &DichotomyIndex, state: u64) {
        lane::or_into(&mut self.ll, index.left_ids(state).words());
        lane::or_into(&mut self.rl, index.right_ids(state).words());
    }

    /// Record that `state` joined the candidate's **right** (1-coded) side.
    #[inline]
    pub fn add_right_state(&mut self, index: &DichotomyIndex, state: u64) {
        lane::or_into(&mut self.lr, index.left_ids(state).words());
        lane::or_into(&mut self.rr, index.right_ids(state).words());
    }

    /// Mark `id` as absorbed (skipped by later growth sweeps).
    #[inline]
    pub fn mark_absorbed(&mut self, id: usize) {
        self.absorbed[id / 64] |= 1 << (id % 64);
    }

    /// Word `w` of the ids blocked in the direct orientation (left joins
    /// left): some left state sits in the candidate's right side or some
    /// right state in its left side.
    #[inline]
    fn direct_word(&self, w: usize) -> u64 {
        self.rl[w] | self.lr[w]
    }

    /// Word `w` of the ids blocked in the flipped orientation (left joins
    /// right).
    #[inline]
    fn flip_word(&self, w: usize) -> u64 {
        self.ll[w] | self.rr[w]
    }

    /// Whether `id` can be absorbed in the direct orientation.
    #[inline]
    pub fn direct_ok(&self, id: usize) -> bool {
        self.direct_word(id / 64) & (1 << (id % 64)) == 0
    }

    /// Whether `id` can be absorbed in the flipped orientation.
    #[inline]
    pub fn flip_ok(&self, id: usize) -> bool {
        self.flip_word(id / 64) & (1 << (id % 64)) == 0
    }

    /// Word `w` of the *enumerable* id set: not yet absorbed and absorbable
    /// in at least one orientation. Recomputed cheaply after every
    /// absorption, so a sweep never visits an id a previous absorption just
    /// blocked — matching the temporal semantics of the replaced scan, which
    /// re-tested each dichotomy at its turn.
    #[inline]
    pub fn allowed_word(&self, w: usize) -> u64 {
        !(self.direct_word(w) & self.flip_word(w)) & !self.absorbed[w]
    }

    /// Whether `id` is enumerable right now (the per-id variant of
    /// [`allowed_word`](GrowthScratch::allowed_word), used by stride sweeps).
    #[inline]
    pub fn allowed(&self, id: usize) -> bool {
        self.allowed_word(id / 64) & (1 << (id % 64)) != 0
    }

    /// The coverage set of the candidate with sides `left` (0-coded) and
    /// `right` (1-coded): the ids it separates, given that states on
    /// neither side are coded 0. Word-parallel over the hit bitsets, with
    /// one posting OR per such free state.
    pub fn covers(
        &mut self,
        index: &DichotomyIndex,
        left: &StateSet,
        right: &StateSet,
    ) -> MintermSet {
        // Ids whose left / right group meets a 0-coded state.
        let mut zero_left = self.ll.clone();
        self.zero_right.clear();
        self.zero_right.extend_from_slice(&self.rl);
        let side_word = |set: &StateSet, w: usize| set.words().get(w).copied().unwrap_or(0);
        for (w, &support) in index.support.words().iter().enumerate() {
            let mut free = support & !side_word(left, w) & !side_word(right, w);
            while free != 0 {
                let state = (w * 64 + free.trailing_zeros() as usize) as u64;
                lane::or_into(&mut zero_left, index.left_ids(state).words());
                lane::or_into(&mut self.zero_right, index.right_ids(state).words());
                free &= free - 1;
            }
        }
        // Separated iff one group lies wholly in the 1 side (meets no
        // 0-coded state) and the other wholly outside it.
        for (w, word) in zero_left.iter_mut().enumerate() {
            *word = (!*word & !self.rr[w]) | (!self.lr[w] & !self.zero_right[w]);
        }
        if let Some(last) = zero_left.last_mut() {
            let tail = index.num % 64;
            if tail != 0 {
                *last &= (1 << tail) - 1;
            }
        }
        MintermSet::from_words(zero_left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dichotomy::required_dichotomies;
    use fantom_flow::benchmarks;

    #[test]
    fn index_posting_sets_match_group_membership() {
        for table in benchmarks::all() {
            let dichotomies = required_dichotomies(&table);
            let index = DichotomyIndex::build(table.num_states(), &dichotomies);
            assert_eq!(index.num_dichotomies(), dichotomies.len());
            for s in 0..table.num_states() as u64 {
                for (i, d) in dichotomies.iter().enumerate() {
                    assert_eq!(index.left_ids(s).contains(i as u64), d.left().contains(s));
                    assert_eq!(index.right_ids(s).contains(i as u64), d.right().contains(s));
                }
            }
        }
    }

    #[test]
    fn rebuild_reuses_and_matches_fresh_build() {
        let tables = [benchmarks::lion(), benchmarks::train11()];
        let mut index = DichotomyIndex::default();
        for table in &tables {
            let dichotomies = required_dichotomies(table);
            index.rebuild(table.num_states(), &dichotomies);
            let fresh = DichotomyIndex::build(table.num_states(), &dichotomies);
            assert_eq!(index.num, fresh.num);
            assert!(index.support.same_contents(&fresh.support));
            for s in 0..table.num_states() as u64 {
                assert!(index.left_ids(s).same_contents(fresh.left_ids(s)));
                assert!(index.right_ids(s).same_contents(fresh.right_ids(s)));
            }
        }
    }

    #[test]
    fn blocked_and_cover_state_matches_definitions() {
        // Grow a candidate by hand and, at every absorption step, cross-check
        // the hit-bitset state against `try_absorb` and the emit-time covers
        // against `separated_by`. wide36 spans several id words.
        for table in [benchmarks::train11(), benchmarks::wide36()] {
            let dichotomies = required_dichotomies(&table);
            let n = dichotomies.len();
            let index = DichotomyIndex::build(table.num_states(), &dichotomies);
            let mut scratch = GrowthScratch::default();
            scratch.reset(n);

            let mut merged = dichotomies[0].clone();
            for s in merged.left().iter() {
                scratch.add_left_state(&index, s);
            }
            for s in merged.right().iter() {
                scratch.add_right_state(&index, s);
            }
            scratch.mark_absorbed(0);
            let check_covers = |scratch: &mut GrowthScratch, merged: &Dichotomy| {
                let covers = scratch.covers(&index, merged.left(), merged.right());
                assert_eq!(covers.capacity(), MintermSet::new(n as u64).capacity());
                for (i, d) in dichotomies.iter().enumerate() {
                    assert_eq!(
                        covers.contains(i as u64),
                        d.separated_by(merged.right()),
                        "{}: covered bit of dichotomy {i} diverges from separated_by",
                        table.name()
                    );
                }
            };
            check_covers(&mut scratch, &merged);
            for (j, d) in dichotomies.iter().enumerate().skip(1) {
                let (direct, flip) = (scratch.direct_ok(j), scratch.flip_ok(j));
                assert_eq!(
                    direct,
                    merged.left().is_disjoint(d.right()) && merged.right().is_disjoint(d.left())
                );
                assert_eq!(
                    flip,
                    merged.left().is_disjoint(d.left()) && merged.right().is_disjoint(d.right())
                );
                let mut trial = merged.clone();
                let absorbs = trial.try_absorb(d);
                assert_eq!(direct || flip, absorbs, "{}: id {j}", table.name());
                assert_eq!(scratch.allowed(j), absorbs, "{}: id {j}", table.name());
                if !absorbs {
                    continue;
                }
                // `try_absorb` prefers the direct orientation, as growth does.
                let (dl, dr) = if direct {
                    (d.left(), d.right())
                } else {
                    (d.right(), d.left())
                };
                for s in dl.iter() {
                    if !merged.left().contains(s) {
                        scratch.add_left_state(&index, s);
                    }
                }
                for s in dr.iter() {
                    if !merged.right().contains(s) {
                        scratch.add_right_state(&index, s);
                    }
                }
                scratch.mark_absorbed(j);
                assert!(!scratch.allowed(j));
                merged = trial;
                assert!(dl.is_subset(merged.left()) && dr.is_subset(merged.right()));
                check_covers(&mut scratch, &merged);
            }
        }
    }
}
