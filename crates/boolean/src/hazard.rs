//! Static (single-input-change) hazard analysis of sum-of-products covers.
//!
//! A static-1 hazard exists for a SOP implementation when two adjacent input
//! vectors both produce 1 but no single product term covers both: during the
//! transition, the term holding the output high may turn off before the other
//! turns on, producing a momentary 0 glitch. Including *all* prime implicants
//! (equivalently, adding the consensus terms) removes every such hazard —
//! the classical result the paper leans on for its combinational logic
//! (Section 2.1) and for the `fsv` equation (Step 7).
//!
//! ## Cube-pair-wise detection
//!
//! Hazards are found without walking the `2^n · n` adjacency graph. For a
//! variable `v`, a transition pair is a cube binding every variable except
//! `v`; it is hazardous iff both end points are covered but no `v`-free cube
//! of the cover contains it. Freeing `v` in a pair of cover cubes `(a, b)`
//! (with `a` admitting `v = 0` and `b` admitting `v = 1`) and intersecting
//! yields the *region* of pairs whose ends are covered by `a` and `b`; the
//! union of these regions over all cube pairs, minus (disjoint sharp) the
//! cubes that are already `v`-free, is exactly the set of hazardous pairs —
//! computed entirely with word-parallel cube operations, so the cost scales
//! with the square of the cover size instead of the space size.
//!
//! ## Indexed region engine
//!
//! The quadratic pair walk is driven by a [`CoverIndex`]: phase buckets
//! enumerate the lower/upper/free cubes of each variable without rescanning
//! the cover, duplicate pair regions (many cube pairs intersect to the same
//! region) are skipped through an [`fxhash`](crate::fxhash) set, already-
//! covered regions are rejected by an exact word-parallel
//! single-cube-coverage query before any subtraction runs, and the remaining
//! regions are sharped only against the free cubes the index proves can hit
//! them — ordered largest-first so likely hits come early — in
//! double-buffered accumulators that reuse their allocations across pairs.
//! The consensus engines ([`add_consensus_terms_cover`],
//! [`add_consensus_terms_on_pairs`]) keep the index **incrementally
//! up to date** as they push primes, so every coverage test reflects the
//! cover as it grows, at push cost linear in the variable count.
//!
//! ## On-pair join
//!
//! [`add_consensus_terms_on_pairs`] needs the regions of on-cube pairs for
//! every variable. Instead of intersecting every (lower, upper) pair once per
//! variable, it makes one distance pass over the on-cover and buckets each
//! pair at distance 0 or 1 under the variables it straddles; pairs at
//! distance 2 or more stay disjoint whichever single variable is freed.

use crate::collections::HashSet;
use crate::cube::{sharp_pieces, Meet};
use crate::index::{BitIds, CoverIndex, IndexedCover};
use crate::{all_primes_cover, Cover, Cube, Function, Literal};

/// A potential static-1 hazard between two adjacent on-set vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticHazard {
    /// First minterm of the adjacent pair.
    pub from: u64,
    /// Second minterm of the adjacent pair (differs from `from` in one bit).
    pub to: u64,
    /// Index of the input variable whose change triggers the hazard.
    pub variable: usize,
}

/// A maximal bundle of hazardous transition pairs for one variable: every
/// sub-cube of `region` that binds all variables except `variable` is a
/// hazardous pair (both ends covered, no single product term covers both).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HazardRegion {
    /// The input variable whose change triggers the hazards.
    pub variable: usize,
    /// Cube with `variable` free; its `variable`-pairs are all hazardous.
    pub region: Cube,
}

impl HazardRegion {
    /// Number of hazardous transition pairs bundled in this region
    /// (`2^(free vars other than the hazard variable)`).
    pub fn pair_count(&self) -> u64 {
        self.region.minterm_count() / 2
    }
}

/// Reusable buffers for the indexed region engine: candidate bitsets,
/// candidate id lists, double-buffered sharp accumulators and the
/// region-dedup set. One instance serves a whole analysis — no per-pair
/// allocation survives in the hot loops.
#[derive(Default)]
struct RegionScratch {
    cand: Vec<u64>,
    ids: Vec<usize>,
    pieces: Vec<Cube>,
    next: Vec<Cube>,
    seen: HashSet<Cube>,
}

/// Reusable buffers for the consensus-augmentation engines
/// ([`add_consensus_terms_cover`], [`add_consensus_terms_on_pairs`]): the
/// static-hazard region engine's internal scratch plus the candidate
/// bitsets, id lists, double-buffered sharp accumulators and region dedup
/// set of the augmentation loops, the per-variable on-pair lists of the
/// on-pair join and its per-on-cube covering hints.
///
/// One instance can serve any number of consecutive calls (each call clears
/// what it uses but keeps the capacity), which is what lets a long-lived
/// synthesis worker stop allocating in the consensus hot loops — pass it to
/// the `_with` variants ([`add_consensus_terms_on_pairs_with`],
/// [`add_consensus_terms_cover_with`]). The plain entry points allocate a
/// fresh scratch per call.
#[derive(Default)]
pub struct ConsensusScratch {
    region: RegionScratch,
    regions: Vec<Cube>,
    cand: Vec<u64>,
    ids: Vec<usize>,
    pieces: Vec<Cube>,
    next: Vec<Cube>,
    survivors: Vec<Cube>,
    seen: HashSet<Cube>,
    pairs: Vec<Vec<u64>>,
    hints: Vec<Option<usize>>,
}

/// The hazardous regions of `cover` for variable `var`, appended to `out` as
/// a possibly **overlapping** cube list: for every pair of cover cubes whose
/// ends straddle `var`, the pair region (both cubes freed in `var` and
/// intersected) minus every `var`-free cube of the cover. Every hazardous
/// pair lies in at least one returned region and every returned region
/// contains only hazardous pairs, but a pair may appear in several regions.
///
/// `index` must index exactly `cover`. Phase buckets supply the
/// lower/upper/free cube lists, duplicate pair regions are skipped via the
/// scratch dedup set, covered regions are rejected by the exact indexed
/// coverage query, and surviving regions are sharped only against the free
/// cubes the index proves intersect them, largest subtrahends first.
fn overlapping_regions_indexed(
    cover: &Cover,
    index: &CoverIndex,
    var: usize,
    scratch: &mut RegionScratch,
    out: &mut Vec<Cube>,
) {
    let cubes = cover.cubes();
    let lower: Vec<Cube> = index
        .phase_ids(var, Literal::Zero)
        .map(|i| cubes[i].with_literal(var, Literal::DontCare))
        .collect();
    if lower.is_empty() {
        return;
    }
    let upper: Vec<Cube> = index
        .phase_ids(var, Literal::One)
        .map(|i| cubes[i].with_literal(var, Literal::DontCare))
        .collect();
    if upper.is_empty() {
        return;
    }
    // A var-free cube covering *either* end of a pair covers the whole pair
    // (the pair binds every other variable), so hazardous pairs can only have
    // their ends witnessed by Zero-/One-bound cubes — and any part of a pair
    // region that meets a var-free cube is covered and subtracted.
    scratch.seen.clear();
    for a in &lower {
        for b in &upper {
            let Some(q) = a.intersect(b) else { continue };
            if !scratch.seen.insert(q.clone()) {
                continue; // many pairs intersect to the same region
            }
            if index.covering_candidates(&q, &mut scratch.cand) {
                continue; // a var-free cube covers the whole region
            }
            scratch.pieces.clear();
            if index.free_intersecting_ids(var, &q, &mut scratch.cand, &mut scratch.ids) {
                scratch.ids.sort_by_key(|&i| cubes[i].literal_count()); // largest first
                scratch.pieces.push(q);
                for &i in &scratch.ids {
                    if !sharp_pieces(&mut scratch.pieces, &mut scratch.next, &cubes[i]) {
                        break;
                    }
                }
            } else {
                scratch.pieces.push(q);
            }
            out.append(&mut scratch.pieces);
        }
    }
}

/// Find all static-1 hazards of `cover` for single-input changes, bundled
/// into cube regions (see [`HazardRegion`]). Regions of the same variable are
/// pairwise disjoint, so each hazardous pair appears in exactly one region.
///
/// Disjointness costs a quadratic sharp pass over the raw overlapping
/// regions; callers that only need *some* covering of the hazards (the
/// consensus augmentation) or a yes/no answer ([`is_static_hazard_free`])
/// avoid it.
pub fn static_hazard_regions(cover: &Cover) -> Vec<HazardRegion> {
    let n = cover.num_vars();
    let index = CoverIndex::build(cover);
    let mut scratch = RegionScratch::default();
    let mut regions: Vec<Cube> = Vec::new();
    let mut out: Vec<HazardRegion> = Vec::new();
    for var in 0..n {
        regions.clear();
        overlapping_regions_indexed(cover, &index, var, &mut scratch, &mut regions);
        // Disjointness pass: each raw region is sharped against the part
        // already kept. The kept list is itself indexed so a region is only
        // sharped against the disjoint cubes that can actually overlap it.
        // The scratch buffers are idle between overlapping_regions_indexed
        // calls, so the pass reuses them.
        let mut disjoint: Vec<Cube> = Vec::new();
        let mut kept_index = CoverIndex::new(n);
        for q in regions.drain(..) {
            scratch.pieces.clear();
            scratch.pieces.push(q);
            if kept_index.intersecting_ids(&scratch.pieces[0], &mut scratch.cand, &mut scratch.ids)
            {
                for &i in &scratch.ids {
                    if !sharp_pieces(&mut scratch.pieces, &mut scratch.next, &disjoint[i]) {
                        break;
                    }
                }
            }
            for piece in scratch.pieces.drain(..) {
                kept_index.push(&piece);
                disjoint.push(piece);
            }
        }
        out.extend(disjoint.into_iter().map(|region| HazardRegion {
            variable: var,
            region,
        }));
    }
    out
}

/// Find all static-1 hazards of `cover` for single-input changes.
///
/// Both end points of each reported transition are covered by the cover, but
/// no single cube covers the pair, so a glitch is possible for some assignment
/// of gate delays. This enumerates the pairs of [`static_hazard_regions`];
/// prefer the regions (or [`is_static_hazard_free`]) when the pair list is
/// not needed, since a region bundles exponentially many pairs.
///
/// # Example
///
/// ```
/// use fantom_boolean::{hazard, Cover};
///
/// # fn main() -> Result<(), fantom_boolean::BooleanError> {
/// // f = ab + a'c has the classic hazard on the a transition with b=c=1.
/// let cover = Cover::parse(3, "11- 0-1")?;
/// let hazards = hazard::static_hazards(&cover);
/// assert_eq!(hazards.len(), 1);
/// assert_eq!(hazards[0].variable, 0);
/// # Ok(())
/// # }
/// ```
pub fn static_hazards(cover: &Cover) -> Vec<StaticHazard> {
    let n = cover.num_vars();
    let mut hazards: Vec<StaticHazard> = Vec::new();
    for hr in static_hazard_regions(cover) {
        let bit = 1u64 << (n - 1 - hr.variable);
        let zero_side = hr.region.with_literal(hr.variable, Literal::Zero);
        for m in zero_side.minterms_iter() {
            hazards.push(StaticHazard {
                from: m,
                to: m | bit,
                variable: hr.variable,
            });
        }
    }
    hazards.sort_by_key(|h| (h.from, h.variable));
    hazards
}

/// `true` if the cover has no static-1 hazard for any single-input change.
/// Scans the raw (overlapping) pair regions with early exit — no pair
/// enumeration and no disjointness pass.
pub fn is_static_hazard_free(cover: &Cover) -> bool {
    let index = CoverIndex::build(cover);
    let mut scratch = RegionScratch::default();
    let mut regions: Vec<Cube> = Vec::new();
    (0..cover.num_vars()).all(|var| {
        regions.clear();
        overlapping_regions_indexed(cover, &index, var, &mut scratch, &mut regions);
        regions.is_empty()
    })
}

/// Produce a hazard-free cover for `f` by including **all** prime implicants
/// ("adding consensus gates", Unger 1969).
///
/// The result implements `f` and is free of static-1 hazards for single-input
/// changes within the specified (non-don't-care) part of the space.
pub fn hazard_free_cover(f: &Function) -> Cover {
    all_primes_cover(f)
}

/// Augment an existing cover with the missing prime implicants needed to make
/// it hazard-free, keeping the original (typically minimal) cubes first.
///
/// For every 1→1 adjacency not covered by a single product term, the pair's
/// region is expanded against the off-set into a prime implicant and added to
/// the cover (the classical "consensus gate").
pub fn add_consensus_terms(f: &Function, base: &Cover) -> Cover {
    let n = f.num_vars();
    // Off-set as packed minterm cubes: each widening test below becomes a
    // word-parallel containment check.
    let off = Cover::from_cubes(
        n,
        f.off_minterms()
            .map(|m| Cube::from_minterm(n, m).expect("within range"))
            .collect(),
    );
    add_consensus_terms_cover(&off, base)
}

/// Cover-based variant of [`add_consensus_terms`]: the off-set is given as a
/// cube cover, so the augmentation runs entirely on cube operations and
/// scales to spaces far beyond the dense representation.
///
/// Hazard regions whose pairs touch the off-set are left alone — such a pair
/// has an end the cover (legally) implements as 1 only because the point is a
/// don't-care of the original function, so it is unconstrained. Every region
/// of pairs that lie inside `on ∪ dc` is widened against `off` into a prime
/// implicant and appended.
pub fn add_consensus_terms_cover(off: &Cover, base: &Cover) -> Cover {
    add_consensus_terms_cover_with(off, base, &mut ConsensusScratch::default())
}

/// [`add_consensus_terms_cover`] with caller-provided scratch buffers, for
/// workers that run many augmentations and want to amortize the allocations.
pub fn add_consensus_terms_cover_with(
    off: &Cover,
    base: &Cover,
    scratch: &mut ConsensusScratch,
) -> Cover {
    let n = base.num_vars();
    let mut cover = IndexedCover::build(base);
    let off_index = CoverIndex::build(off);
    let off_sizes: Vec<usize> = off.cubes().iter().map(Cube::literal_count).collect();
    let ConsensusScratch {
        region: region_scratch,
        regions,
        cand,
        ids,
        pieces: safe,
        next,
        ..
    } = scratch;
    loop {
        let mut progress = false;
        for var in 0..n {
            // Raw overlapping regions of the *current* cover: a pair
            // appearing in two regions is fixed by the first added prime and
            // skipped by the indexed coverage check on the second.
            regions.clear();
            overlapping_regions_indexed(cover.cover(), cover.index(), var, region_scratch, regions);
            for region in regions.drain(..) {
                // Remove every pair that intersects the off-set: a pair binds
                // all variables except `var`, so it meets an off cube `d` iff
                // it lies inside `d` freed in `var`. Those subtrahends are
                // var-free, so the safe pieces keep `var` free — and since
                // the region is already var-free, the off cubes whose freed
                // forms can hit it are exactly the ones the index reports as
                // intersecting the region itself.
                safe.clear();
                safe.push(region);
                if off_index.intersecting_ids(&safe[0], cand, ids) {
                    ids.sort_by_key(|&i| off_sizes[i]); // largest first: likely hits early
                    for &i in ids.iter() {
                        let freed = off.cubes()[i].with_literal(var, Literal::DontCare);
                        if !sharp_pieces(safe, next, &freed) {
                            break;
                        }
                    }
                }
                for piece in safe.drain(..) {
                    debug_assert_eq!(piece.literal(var), Literal::DontCare);
                    if cover.index().covering_candidates(&piece, cand) {
                        continue; // already fixed by a previously added prime
                    }
                    // Expand the region into a prime implicant of on ∪ dc.
                    let grown = expand_against_off(piece, n, &off_index, cand);
                    cover.push(grown);
                    progress = true;
                }
            }
        }
        if !progress {
            return cover.into_cover();
        }
    }
}

/// Expand `piece` into a prime implicant of `on ∪ dc` by freeing every bound
/// variable whose widened cube still avoids the off-set — each test a
/// word-parallel indexed intersection query through the `cand` scratch.
fn expand_against_off(piece: Cube, n: usize, off_index: &CoverIndex, cand: &mut Vec<u64>) -> Cube {
    let mut grown = piece;
    for v in 0..n {
        if grown.literal(v) == Literal::DontCare {
            continue;
        }
        let widened = grown.with_literal(v, Literal::DontCare);
        if !off_index.intersecting_candidates(&widened, cand) {
            grown = widened;
        }
    }
    grown
}

/// Augment `base` with the consensus primes needed so that no **on-set**
/// single-input-change adjacency is hazardous: for every pair of on-set
/// points differing in one variable, some single cube of the result covers
/// the pair.
///
/// This is the targeted variant the sparse synthesis pipeline uses: an
/// asynchronous machine only ever occupies *specified* total states, so the
/// 1→1 transitions it can actually exercise are exactly the on/on
/// adjacencies — don't-care points the implementation happens to cover are
/// unreachable. The regions come from on-cube pairs, independent of how large
/// the implementation cover or the space grows, where
/// [`add_consensus_terms_cover`] closes over every covered adjacency and can
/// enumerate a prime set exponentially larger.
///
/// Cost: one distance pass over the `m(m+1)/2` unordered pairs of the
/// `m`-cube on-cover finds every pair that can straddle a variable —
/// freeing one variable removes at most one conflict, so only pairs at
/// distance 0 or 1 qualify, and a distance-1 pair serves just its
/// conflicting variable. Each variable then walks only its own pairs, in the
/// order of a nested (lower, upper) loop, so the result does not depend on
/// how the pairs were found. A region is first tested against the cube that
/// last covered a region of either of its on-cubes, then against the index.
///
/// A single pass suffices: the result only ever grows, so an on/on pair
/// fixed once stays fixed.
///
/// The cover's [`CoverIndex`] is maintained incrementally as primes are
/// pushed, so the `var`-free subtrahend set each pair region is sharped
/// against always includes the primes added earlier in the same pass —
/// there is no snapshot, and no full-cover rescan per piece: coverage is
/// decided by the exact word-parallel index query.
pub fn add_consensus_terms_on_pairs(on: &Cover, off: &Cover, base: &Cover) -> Cover {
    add_consensus_terms_on_pairs_with(on, off, base, &mut ConsensusScratch::default())
}

/// [`add_consensus_terms_on_pairs`] with caller-provided scratch buffers.
///
/// The hot loops of the augmentation allocate nothing once the scratch has
/// warmed up, so a worker that synthesizes a stream of machines can reuse one
/// [`ConsensusScratch`] across every call and drop the per-call allocation
/// cost entirely.
pub fn add_consensus_terms_on_pairs_with(
    on: &Cover,
    off: &Cover,
    base: &Cover,
    scratch: &mut ConsensusScratch,
) -> Cover {
    let n = base.num_vars();
    let mut cover = IndexedCover::build(base);
    let off_index = CoverIndex::build(off);
    let ConsensusScratch {
        cand,
        ids,
        pieces,
        next,
        survivors,
        seen,
        pairs,
        hints,
        ..
    } = scratch;
    let on = on.cubes();
    assert!(u32::try_from(on.len()).is_ok(), "on-cube ids fit pair keys");
    on_pairs_by_var(on, n, pairs);
    hints.clear();
    hints.resize(on.len(), None);
    for (var, keys) in pairs.iter().enumerate().take(n) {
        seen.clear();
        for &key in keys {
            let (lower, upper) = ((key >> 32) as usize, key as u32 as usize);
            // The pair's region: both cubes freed in `var` and intersected.
            let q = on[lower].meet_freed(&on[upper], var);
            // Regions of one on-cube tend to share a covering cube, so the
            // last one found for either end is tried before the index. The
            // cover only grows, so a region skipped here unrecorded in `seen`
            // would be found covered again on any later visit.
            let hinted = [hints[lower], hints[upper]];
            if hinted
                .into_iter()
                .flatten()
                .any(|h| cover.cubes()[h].covers(&q))
            {
                continue;
            }
            if !seen.insert(q.clone()) {
                continue; // distinct on-pairs often share their region
            }
            if cover.index().covering_candidates(&q, cand) {
                let found = BitIds::new(cand).next();
                (hints[lower], hints[upper]) = (found, found);
                continue; // a var-free cube already covers every pair
            }
            // Drop the pairs a single var-free cube already covers —
            // including the primes pushed earlier in this very pass,
            // which the incremental index tracks.
            pieces.clear();
            pieces.push(q);
            if cover
                .index()
                .free_intersecting_ids(var, &pieces[0], cand, ids)
            {
                ids.sort_by_key(|&i| cover.cubes()[i].literal_count());
                for &i in ids.iter() {
                    if !sharp_pieces(pieces, next, &cover.cubes()[i]) {
                        break;
                    }
                }
            }
            std::mem::swap(pieces, survivors);
            for piece in survivors.drain(..) {
                if cover.index().covering_candidates(&piece, cand) {
                    continue; // fixed by a prime grown from an earlier piece of q
                }
                // Both ends of every pair in the piece are on-set points,
                // so the piece avoids the off-set; expand it to a prime.
                let grown = expand_against_off(piece, n, &off_index, cand);
                cover.push(grown);
            }
        }
    }
    cover.into_cover()
}

/// Bucket the on-cube pairs of `on` under the variables whose transitions
/// they straddle: `pairs[var]` receives the key `lower << 32 | upper` of
/// every (lower, upper) pair of on-cube indices whose cubes, freed in `var`,
/// intersect — the lower cube admitting `var = 0`, the upper `var = 1` — in
/// increasing key order, the order of a nested walk over lower then upper
/// cubes.
///
/// One distance pass over the unordered pairs (a cube paired with itself
/// included) finds them all: freeing one variable removes at most one
/// conflict, so a pair at distance 1 serves only its conflicting variable,
/// oriented from its 0 side to its 1 side, a pair at distance 0 serves each
/// variable its phases straddle, in either orientation, and a pair at
/// distance 2 or more serves none.
fn on_pairs_by_var(on: &[Cube], n: usize, pairs: &mut Vec<Vec<u64>>) {
    if pairs.len() < n {
        pairs.resize_with(n, Vec::new);
    }
    for keys in pairs.iter_mut() {
        keys.clear();
    }
    let key = |lower: usize, upper: usize| (lower as u64) << 32 | upper as u64;
    for (i, a) in on.iter().enumerate() {
        for (j, b) in on.iter().enumerate().skip(i) {
            match a.meet(b) {
                Meet::Far => {}
                Meet::Adjacent(v) if a.literal(v) == Literal::Zero => pairs[v].push(key(i, j)),
                Meet::Adjacent(v) => pairs[v].push(key(j, i)),
                Meet::Overlap => {
                    a.for_each_straddle(b, |v| pairs[v].push(key(i, j)));
                    if i != j {
                        b.for_each_straddle(a, |v| pairs[v].push(key(j, i)));
                    }
                }
            }
        }
    }
    for keys in &mut pairs[..n] {
        keys.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize_function;

    #[test]
    fn classic_mux_hazard_detected_and_fixed() {
        // f = a·b + a'·c (2:1 mux select a).
        let cover = Cover::parse(3, "11- 0-1").unwrap();
        let hz = static_hazards(&cover);
        assert_eq!(hz.len(), 1);
        assert_eq!((hz[0].from, hz[0].to), (0b011, 0b111));

        let f = Function::from_cover(&cover, None).unwrap();
        let fixed = hazard_free_cover(&f);
        assert!(is_static_hazard_free(&fixed));
        assert!(fixed.equivalent_to(&f));
        // The consensus term b·c must appear.
        assert!(fixed.cubes().iter().any(|c| c.to_string() == "-11"));
    }

    /// Reference implementation: the dense `2^n · n` adjacency walk the
    /// region algorithm replaced.
    fn dense_static_hazards(cover: &Cover) -> Vec<StaticHazard> {
        let n = cover.num_vars();
        let mut hazards = Vec::new();
        let space = 1u64 << n;
        let full_mask: u64 = space - 1;
        for m in 0..space {
            for var in 0..n {
                let bit = 1u64 << (n - 1 - var);
                if m & bit != 0 {
                    continue;
                }
                let other = m | bit;
                if !cover.covers_minterm(m) || !cover.covers_minterm(other) {
                    continue;
                }
                let pair = Cube::from_mask_value(n, full_mask & !bit, m);
                if !cover.single_cube_covers(&pair) {
                    hazards.push(StaticHazard {
                        from: m,
                        to: other,
                        variable: var,
                    });
                }
            }
        }
        hazards.sort_by_key(|h| (h.from, h.variable));
        hazards
    }

    #[test]
    fn region_detection_matches_dense_scan() {
        for text in [
            "11- 0-1",
            "1-- -11",
            "1--- -11- --01 0-0-",
            "11--- --11- ---11 0---0",
            "10-1 01-1 1-00",
        ] {
            let n = text.split_whitespace().next().unwrap().len();
            let cover = Cover::parse(n, text).unwrap();
            assert_eq!(
                static_hazards(&cover),
                dense_static_hazards(&cover),
                "cover {text}"
            );
        }
    }

    #[test]
    fn regions_are_disjoint_per_variable() {
        let cover = Cover::parse(4, "11-- --11 1--1 0-1-").unwrap();
        let regions = static_hazard_regions(&cover);
        for (i, a) in regions.iter().enumerate() {
            assert_eq!(a.region.literal(a.variable), Literal::DontCare);
            for b in &regions[i + 1..] {
                if a.variable == b.variable {
                    assert!(a.region.intersect(&b.region).is_none());
                }
            }
        }
        let pairs: u64 = regions.iter().map(HazardRegion::pair_count).sum();
        assert_eq!(pairs as usize, static_hazards(&cover).len());
    }

    #[test]
    fn all_primes_cover_is_always_hazard_free() {
        for (on, dc) in [
            (vec![1u64, 3, 5, 7, 9, 11], vec![]),
            (vec![0, 2, 4, 6, 10, 14], vec![8u64, 12]),
            (vec![0, 1, 2, 3, 4, 5, 6, 7], vec![]),
        ] {
            let f = Function::from_on_dc(4, &on, &dc).unwrap();
            let cover = hazard_free_cover(&f);
            assert!(is_static_hazard_free(&cover), "on={on:?} dc={dc:?}");
            assert!(cover.equivalent_to(&f));
        }
    }

    #[test]
    fn minimal_cover_may_have_hazard_but_consensus_fixes_it() {
        let f = Function::from_on_set(3, &[3, 7, 4, 5]).unwrap();
        let min = minimize_function(&f);
        let fixed = add_consensus_terms(&f, &min);
        assert!(is_static_hazard_free(&fixed));
        assert!(fixed.equivalent_to(&f));
        // The original minimal cubes are still present.
        for c in min.cubes() {
            assert!(fixed.cubes().contains(c));
        }
    }

    #[test]
    fn consensus_terms_from_off_cover_match_dense_path() {
        let f = Function::from_on_dc(4, &[3, 7, 11, 12, 13], &[5, 15]).unwrap();
        let min = minimize_function(&f);
        let dense = add_consensus_terms(&f, &min);
        let off = Cover::from_cubes(
            4,
            f.off_minterms()
                .map(|m| Cube::from_minterm(4, m).unwrap())
                .collect(),
        );
        let sparse = add_consensus_terms_cover(&off, &min);
        assert_eq!(dense.cubes(), sparse.cubes());
        // All on/on adjacencies are hazard-free.
        for h in static_hazards(&sparse) {
            assert!(!(f.is_on(h.from) && f.is_on(h.to)));
        }
    }

    #[test]
    fn on_pair_consensus_fixes_every_on_adjacency() {
        use crate::CoverFunction;
        for (on, dc) in [
            (vec![3u64, 7, 4, 5], vec![]),
            (vec![0, 3, 5, 9, 11, 12], vec![1u64, 8]),
            (vec![2, 6, 7, 13, 15], vec![5u64, 14]),
        ] {
            let f = Function::from_on_dc(4, &on, &dc).unwrap();
            let cf = CoverFunction::from_function(&f);
            let base = minimize_function(&f);
            let fixed = add_consensus_terms_on_pairs(cf.on_cover(), cf.off_cover(), &base);
            assert!(fixed.equivalent_to(&f), "on={on:?}");
            for h in static_hazards(&fixed) {
                assert!(
                    !(f.is_on(h.from) && f.is_on(h.to)),
                    "on={on:?}: unfixed on/on hazard {h:?}"
                );
            }
            for c in base.cubes() {
                assert!(fixed.cubes().contains(c));
            }
        }
    }

    #[test]
    fn hazard_free_cover_of_constant_zero_is_empty() {
        let f = Function::constant_false(3).unwrap();
        assert!(hazard_free_cover(&f).is_empty());
        assert!(is_static_hazard_free(&Cover::empty(3)));
    }

    #[test]
    fn single_cube_cover_has_no_hazards() {
        let cover = Cover::parse(4, "1-0-").unwrap();
        assert!(is_static_hazard_free(&cover));
    }
}
