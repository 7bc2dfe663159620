//! Minimum-cover selection over a set of prime implicants.
//!
//! After prime generation ([`crate::quine`]), SEANCE reduces each function to
//! an *essential* sum-of-products: the essential primes plus a small selection
//! of additional primes covering the remaining on-set minterms. Exact
//! selection uses Petrick's method (product-of-sums expansion); for large
//! residual tables a greedy set-cover heuristic is used instead so that the
//! synthesis pipeline stays fast on every benchmark.
//!
//! Two kernels do nearly all the work at scale, and both are pure
//! reorganisations of the straightforward set-based algorithms — they return
//! the same selection on every input, only faster:
//!
//! * [`petrick_exact`] — the one Petrick expansion behind both the dense
//!   [`minimum_cover`] and the fragment table of [`minimum_cover_sparse`].
//!   Each product (a set of primes) is a flat word bitset over *local*
//!   candidate ids — the sorted, deduplicated primes of the table rows — so
//!   "already hits this row" is one AND across the words, growth copies the
//!   words and sets one bit, and absorption (a stable sort by size, then
//!   dropping every product that is a superset `k & !p == 0` of one already
//!   kept) compares a word or two per pair. The expansion order, the
//!   product-count bailout and the tie-break (the *first* product of fewest
//!   primes, then fewest literals) are those of the set-based expansion.
//!   Products that already hit a row are carried unchanged instead of being
//!   re-grown by each of its primes: every re-grown set is a duplicate or a
//!   superset of the carried one, so absorption removes it either way and the
//!   absorbed lists agree element for element. Because the products before a
//!   row form an antichain, absorption never compares a carried product, and
//!   compares a product grown by row prime `b` only with the kept products
//!   containing `b` (see `Products::absorb_into`).
//! * [`greedy_sharp_cover`] — the fallback when fragmentation passes
//!   `FRAGMENT_LIMIT` rows. The remaining on-set is held as its set of
//!   maximal cubes in a push-only [`CoverIndex`] with an alive mask; each
//!   cube records the primes it intersects and the primes covering it, and
//!   per-prime `part` / `full` scores change by delta. Picking a prime
//!   retires only the live cubes it intersects, in favour of their
//!   [`Cube::sharp`] pieces, largest first; a piece is kept unless a live
//!   cube (or an earlier piece) covers it. The maximal cubes of a cover,
//!   deduplicated, do not depend on the order they are found in — a cube
//!   the pick leaves alone stays maximal, since a piece covering it would
//!   put it inside its retired parent — so the scores equal a full rescan of
//!   the single-cube-containment-compacted remainder, pick for pick.

use crate::index::{BitIds, CoverIndex};
use crate::{lane, quine, Cover, CoverFunction, Cube, Function};

/// Upper bound on `primes × uncovered-minterms` for which the exact Petrick
/// expansion is attempted before falling back to the greedy heuristic.
const PETRICK_EXACT_LIMIT: usize = 2_000;

/// Upper bound on covering-table rows produced by fragmenting an on-set cover
/// against the primes ([`minimum_cover_sparse`]); beyond it the sharp-based
/// greedy selection is used instead.
const FRAGMENT_LIMIT: usize = 2_048;

/// Product-count bailout of the dense expansion in [`minimum_cover`].
const DENSE_PRODUCT_LIMIT: usize = 10_000;

/// Product-count bailout of the fragment-table expansion in
/// [`minimum_cover_sparse`]. Tighter than the dense bailout: absorption is
/// quadratic in the product count, and the fragment tables of large sparse
/// functions hit the worst case far more often than small dense residuals do.
const TABLE_PRODUCT_LIMIT: usize = 2_000;

/// Select a minimum (or near-minimum) subset of `primes` covering the on-set
/// of `f`, always including every essential prime implicant.
///
/// The result is the "essential SOP expression" the paper refers to in
/// Steps 4 and 6.
///
/// # Example
///
/// ```
/// use fantom_boolean::{petrick, quine, Function};
///
/// # fn main() -> Result<(), fantom_boolean::BooleanError> {
/// let f = Function::from_on_set(3, &[0, 1, 2, 3, 7])?;
/// let primes = quine::prime_implicants(&f);
/// let cover = petrick::minimum_cover(&f, &primes);
/// assert!(cover.equivalent_to(&f));
/// assert_eq!(cover.cube_count(), 2); // 0-- and -11
/// # Ok(())
/// # }
/// ```
pub fn minimum_cover(f: &Function, primes: &[Cube]) -> Cover {
    let n = f.num_vars();
    if primes.is_empty() {
        return Cover::empty(n);
    }

    let mut selected: Vec<usize> = Vec::new();

    // 1. Essential primes.
    let on: Vec<u64> = f.on_minterms().collect();
    for &m in &on {
        let mut covering = (0..primes.len()).filter(|&i| primes[i].contains_minterm(m));
        if let (Some(i), None) = (covering.next(), covering.next()) {
            if !selected.contains(&i) {
                selected.push(i);
            }
        }
    }

    // 2. Remaining on-set minterms: those no selected prime covers. Checked
    // from the on-set side (word-parallel membership per prime) — never by
    // enumerating a prime's own minterm set, which is exponential in its
    // free variables.
    let remaining: Vec<u64> = on
        .iter()
        .copied()
        .filter(|&m| !selected.iter().any(|&i| primes[i].contains_minterm(m)))
        .collect();
    if remaining.is_empty() {
        return build_cover(n, primes, &selected);
    }

    // Candidate primes that cover at least one remaining minterm.
    let candidates: Vec<usize> = (0..primes.len())
        .filter(|&i| !selected.contains(&i))
        .filter(|&i| remaining.iter().any(|&m| primes[i].contains_minterm(m)))
        .collect();

    let extra = if candidates.len() * remaining.len() <= PETRICK_EXACT_LIMIT {
        let rows: Vec<Vec<usize>> = remaining
            .iter()
            .map(|&m| {
                candidates
                    .iter()
                    .copied()
                    .filter(|&i| primes[i].contains_minterm(m))
                    .collect()
            })
            .collect();
        petrick_exact(primes, &rows, DENSE_PRODUCT_LIMIT)
            .unwrap_or_else(|| greedy_cover(primes, &candidates, &remaining))
    } else {
        greedy_cover(primes, &candidates, &remaining)
    };
    selected.extend(extra);
    build_cover(n, primes, &selected)
}

fn build_cover(num_vars: usize, primes: &[Cube], selected: &[usize]) -> Cover {
    let mut idx: Vec<usize> = selected.to_vec();
    idx.sort_unstable();
    idx.dedup();
    Cover::from_cubes(
        num_vars,
        idx.into_iter().map(|i| primes[i].clone()).collect(),
    )
}

/// Petrick's method over a covering table: each row lists (in the order the
/// expansion visits them) the ids of the primes covering one point. The
/// product of the row sums is expanded into a sum of products with
/// absorption, and the cheapest product — the first of fewest primes, then
/// fewest literals — is returned as ascending prime ids. Empty rows
/// (uncoverable points) are skipped.
///
/// Returns `None` as soon as an absorbed expansion holds more than
/// `max_products` products; the caller then falls back to a greedy cover.
/// See the [module docs](self) for the bitset layout and why the result is
/// exactly that of the set-based expansion.
///
/// # Example
///
/// ```
/// use fantom_boolean::{petrick, Cube};
///
/// # fn main() -> Result<(), fantom_boolean::BooleanError> {
/// let primes = [Cube::parse("0-")?, Cube::parse("-1")?, Cube::parse("11")?];
/// // (p0 + p1)(p1 + p2): p1 alone covers both rows.
/// assert_eq!(petrick::petrick_exact(&primes, &[vec![0, 1], vec![1, 2]], 100), Some(vec![1]));
/// // Capped at one product, the first row's two choices already bail out.
/// assert_eq!(petrick::petrick_exact(&primes, &[vec![0, 1], vec![2]], 1), None);
/// # Ok(())
/// # }
/// ```
pub fn petrick_exact<R: AsRef<[usize]>>(
    primes: &[Cube],
    rows: &[R],
    max_products: usize,
) -> Option<Vec<usize>> {
    // Local ids: ascending prime ids, so ascending bits map back to
    // ascending prime indices.
    let mut ids: Vec<usize> = rows
        .iter()
        .flat_map(|r| r.as_ref().iter().copied())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let stride = ids.len().div_ceil(64).max(1);
    let local = |p: usize| ids.binary_search(&p).expect("row id is a candidate");

    // The expansion starts from the single empty product.
    let mut products = Products::new(stride);
    products.words.resize(stride, 0);
    products.lens.push(0);
    let mut next = Products::new(stride);
    let mut tags: Vec<u32> = Vec::new();
    let mut scratch = AbsorbScratch {
        buckets: vec![Vec::new(); ids.len()],
        ..AbsorbScratch::default()
    };
    let mut row_bits = vec![0u64; stride];
    let mut row_ids: Vec<usize> = Vec::new();
    for row in rows {
        let row = row.as_ref();
        if row.is_empty() {
            continue;
        }
        row_bits.fill(0);
        row_ids.clear();
        for &p in row {
            let b = local(p);
            row_bits[b / 64] |= 1u64 << (b % 64);
            row_ids.push(b);
        }
        next.clear();
        tags.clear();
        for k in 0..products.len() {
            let (bits, len) = (products.bits(k), products.lens[k]);
            if !lane::and_is_zero(bits, &row_bits) {
                next.push(bits, len);
                tags.push(CARRIED);
                continue;
            }
            for &b in &row_ids {
                next.push(bits, len + 1);
                next.set_last(b);
                tags.push(b as u32);
            }
        }
        next.absorb_into(&tags, &row_ids, &mut products, &mut scratch);
        if products.len() > max_products {
            return None;
        }
    }

    let lits: Vec<usize> = ids.iter().map(|&p| primes[p].literal_count()).collect();
    let best = (0..products.len()).min_by_key(|&k| {
        let cost: usize = BitIds::new(products.bits(k)).map(|b| lits[b]).sum();
        (products.lens[k], cost)
    })?;
    Some(BitIds::new(products.bits(best)).map(|b| ids[b]).collect())
}

/// Tag of a product carried unchanged through a row it already hits; grown
/// products are tagged with the local id of the row prime they added.
const CARRIED: u32 = u32::MAX;

/// A list of Petrick products: bitsets over local candidate ids, `stride`
/// words each, stored back to back, with their popcounts.
struct Products {
    stride: usize,
    words: Vec<u64>,
    lens: Vec<u32>,
}

/// Reused buffers of [`Products::absorb_into`].
#[derive(Default)]
struct AbsorbScratch {
    /// Expansion order sorted by size.
    order: Vec<u32>,
    /// Counting-sort bucket starts.
    starts: Vec<usize>,
    /// Per local id: the kept products containing it.
    buckets: Vec<Vec<u32>>,
}

impl Products {
    fn new(stride: usize) -> Self {
        Products {
            stride,
            words: Vec::new(),
            lens: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.lens.len()
    }

    fn clear(&mut self) {
        self.words.clear();
        self.lens.clear();
    }

    fn bits(&self, k: usize) -> &[u64] {
        &self.words[k * self.stride..(k + 1) * self.stride]
    }

    fn push(&mut self, bits: &[u64], len: u32) {
        self.words.extend_from_slice(bits);
        self.lens.push(len);
    }

    /// Set local id `b` in the last product.
    fn set_last(&mut self, b: usize) {
        let start = self.words.len() - self.stride;
        self.words[start + b / 64] |= 1u64 << (b % 64);
    }

    /// Absorption of one expansion step over the row `row_ids`: write into
    /// `kept` the products of `self`, stably sorted by size, that are not a
    /// superset of (or equal to) a product kept before them.
    ///
    /// The previous products form an antichain without duplicates, which
    /// makes two shortcuts exact. A carried product is never absorbed: a
    /// kept subset of it would be, or would contain, another previous
    /// product inside it. A product grown by row prime `b` holds no other
    /// row prime, so any kept subset of it holds `b` too: only the kept
    /// products containing `b` are compared against it.
    fn absorb_into(
        &self,
        tags: &[u32],
        row_ids: &[usize],
        kept: &mut Products,
        scratch: &mut AbsorbScratch,
    ) {
        // Stable counting sort by size (sizes are small).
        let max = self.lens.iter().copied().max().unwrap_or(0) as usize;
        let starts = &mut scratch.starts;
        starts.clear();
        starts.resize(max + 2, 0);
        for &l in &self.lens {
            starts[l as usize + 1] += 1;
        }
        for s in 1..starts.len() {
            starts[s] += starts[s - 1];
        }
        let order = &mut scratch.order;
        order.clear();
        order.resize(self.len(), 0);
        for (k, &l) in self.lens.iter().enumerate() {
            order[starts[l as usize]] = k as u32;
            starts[l as usize] += 1;
        }

        let buckets = &mut scratch.buckets;
        for &b in row_ids {
            buckets[b].clear();
        }
        kept.clear();
        for &k in order.iter() {
            let (p, len) = (self.bits(k as usize), self.lens[k as usize]);
            let id = kept.len() as u32;
            match tags[k as usize] {
                CARRIED => {
                    for &b in row_ids {
                        if p[b / 64] & (1u64 << (b % 64)) != 0 {
                            buckets[b].push(id);
                        }
                    }
                }
                b => {
                    let bucket = &mut buckets[b as usize];
                    if bucket
                        .iter()
                        .any(|&q| lane::andnot_is_zero(kept.bits(q as usize), p))
                    {
                        continue;
                    }
                    bucket.push(id);
                }
            }
            kept.push(p, len);
        }
    }
}

/// Greedy set cover: repeatedly pick the prime covering the most remaining
/// minterms (ties broken by fewer literals). The shrinking uncovered set is a
/// plain vector scanned against the word-parallel `contains_minterm`, keeping
/// every round O(|uncovered|) per candidate — never by enumerating a prime's
/// own minterms (exponential in its free variables) and never by walking a
/// dense 2ⁿ bitset when only a handful of minterms remain.
fn greedy_cover(primes: &[Cube], candidates: &[usize], remaining: &[u64]) -> Vec<usize> {
    let mut uncovered: Vec<u64> = remaining.to_vec();
    let mut chosen = Vec::new();
    while !uncovered.is_empty() {
        let best = candidates
            .iter()
            .copied()
            .filter(|&i| !chosen.contains(&i))
            .max_by_key(|&i| {
                let gain = uncovered
                    .iter()
                    .filter(|&&m| primes[i].contains_minterm(m))
                    .count();
                (gain, usize::MAX - primes[i].literal_count())
            });
        let Some(best) = best else { break };
        let before = uncovered.len();
        uncovered.retain(|&m| !primes[best].contains_minterm(m));
        if uncovered.len() == before {
            break;
        }
        chosen.push(best);
    }
    chosen
}

/// Convenience wrapper: generate primes for `f` and return a minimum cover.
pub fn minimize(f: &Function) -> Cover {
    let primes = quine::prime_implicants(f);
    minimum_cover(f, &primes)
}

/// The fragment covering table of a sparse function (see
/// [`covering_table`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoveringTable {
    /// Essential primes — the sole coverer of some fragment — in the order
    /// the fragments reveal them.
    pub essential: Vec<usize>,
    /// One row per fragment that no essential prime covers: the ids of the
    /// primes covering it, ascending.
    pub rows: Vec<Vec<usize>>,
}

impl CoveringTable {
    /// Whether the residual table is small enough for the exact Petrick
    /// expansion ([`minimum_cover_sparse`] solves larger ones greedily).
    pub fn exact_sized(&self) -> bool {
        let mut candidates: Vec<usize> = self.rows.iter().flatten().copied().collect();
        candidates.sort_unstable();
        candidates.dedup();
        candidates.len() * self.rows.len() <= PETRICK_EXACT_LIMIT
    }
}

/// Build the covering table [`minimum_cover_sparse`] selects from: the
/// on-set cubes of `f` are fragmented against `primes` (splitting a row into
/// its intersection with a prime and the disjoint-sharp remainder) until
/// every fragment is either inside or disjoint from each prime; fragments
/// covered by exactly one prime make that prime essential, and the rest
/// form the residual rows.
///
/// Returns `None` when fragmentation passes the internal `FRAGMENT_LIMIT`
/// rows — the case [`minimum_cover_sparse`] hands to
/// [`greedy_sharp_cover`].
pub fn covering_table(f: &CoverFunction, primes: &[Cube]) -> Option<CoveringTable> {
    let n = f.num_vars();
    let prime_index = CoverIndex::build(&Cover::from_cubes(n, primes.to_vec()));
    let mut cand: Vec<u64> = Vec::new();
    let mut ids: Vec<usize> = Vec::new();

    // 1. Fragment the on-set against the primes, one disjoint on-set cube at
    // a time and only against the primes that intersect it, in prime order.
    // A pass over the primes splits every row in place, so fragmenting each
    // cube on its own yields the rows in pass-by-pass order; and no pass
    // lowers the row count, so the running count passes `FRAGMENT_LIMIT`
    // exactly when the count after some pass would.
    let mut rows: Vec<Cube> = Vec::new();
    let (mut pieces, mut next): (Vec<Cube>, Vec<Cube>) = (Vec::new(), Vec::new());
    for cube in f.on_cover().make_disjoint().cubes() {
        pieces.clear();
        pieces.push(cube.clone());
        prime_index.intersecting_ids(cube, &mut cand, &mut ids);
        for &i in &ids {
            let p = &primes[i];
            next.clear();
            for r in pieces.drain(..) {
                match r.intersect(p) {
                    None => next.push(r),
                    Some(_) if p.covers(&r) => next.push(r),
                    Some(inside) => {
                        next.push(inside);
                        next.extend(r.sharp(p));
                    }
                }
            }
            std::mem::swap(&mut pieces, &mut next);
            if rows.len() + pieces.len() > FRAGMENT_LIMIT {
                return None;
            }
        }
        rows.append(&mut pieces);
        if !primes.is_empty() && rows.len() > FRAGMENT_LIMIT {
            return None;
        }
    }

    // 2. Incidence: which primes cover each fragment entirely — answered by
    // the prime index's exact covering-candidate bitsets instead of a
    // rows × primes containment scan.
    let coverers: Vec<Vec<usize>> = rows
        .iter()
        .map(|r| {
            prime_index.covering_ids(r, &mut cand, &mut ids);
            ids.clone()
        })
        .collect();

    // 3. Essential primes: sole coverer of some fragment.
    let mut essential: Vec<usize> = Vec::new();
    for c in &coverers {
        if let [only] = c.as_slice() {
            if !essential.contains(only) {
                essential.push(*only);
            }
        }
    }

    // 4. Residual rows.
    let rows = coverers
        .into_iter()
        .filter(|c| !c.is_empty() && !c.iter().any(|i| essential.contains(i)))
        .collect();
    Some(CoveringTable { essential, rows })
}

/// Select a minimum (or near-minimum) subset of `primes` covering the on-set
/// of a sparse [`CoverFunction`], without enumerating minterms.
///
/// The covering table is built **cover-based** ([`covering_table`]):
/// fragments play the role the minterms play in the dense
/// [`minimum_cover`]: fragments covered by exactly one prime make that prime
/// essential, the residual table is solved by the exact Petrick expansion
/// ([`petrick_exact`]) when small and greedily otherwise. If fragmentation
/// explodes past the internal `FRAGMENT_LIMIT` rows, the sharp-based greedy
/// selection [`greedy_sharp_cover`] is used instead.
pub fn minimum_cover_sparse(f: &CoverFunction, primes: &[Cube]) -> Cover {
    let n = f.num_vars();
    if primes.is_empty() || f.on_cover().is_empty() {
        return Cover::empty(n);
    }
    let Some(table) = covering_table(f, primes) else {
        return greedy_sharp_cover(f, primes);
    };
    let mut selected = table.essential.clone();
    if !table.rows.is_empty() {
        let extra = if table.exact_sized() {
            petrick_exact(primes, &table.rows, TABLE_PRODUCT_LIMIT)
                .unwrap_or_else(|| greedy_table(&table.rows))
        } else {
            greedy_table(&table.rows)
        };
        selected.extend(extra);
    }
    build_cover(n, primes, &selected)
}

/// Greedy set cover over a fragment covering table: repeatedly pick the prime
/// covering the most uncovered rows.
fn greedy_table(rows: &[Vec<usize>]) -> Vec<usize> {
    let mut uncovered: Vec<usize> = (0..rows.len()).collect();
    let mut chosen: Vec<usize> = Vec::new();
    while !uncovered.is_empty() {
        let best = uncovered
            .iter()
            .flat_map(|&r| rows[r].iter().copied())
            .filter(|i| !chosen.contains(i))
            .max_by_key(|&i| uncovered.iter().filter(|&&r| rows[r].contains(&i)).count());
        let Some(best) = best else { break };
        chosen.push(best);
        uncovered.retain(|&r| !rows[r].contains(&best));
    }
    chosen
}

/// Sharp-based greedy selection, the [`minimum_cover_sparse`] fallback when
/// fragmentation is too expensive: each round picks the unused prime
/// covering the most remaining on-set cubes, then touching the most, then
/// with the fewest literals (the last index wins a tie), and subtracts it
/// from the remaining on-set. Terminates after at most `primes.len()`
/// rounds (each prime is chosen at most once), earlier if no prime touches
/// what remains. See the [module docs](self) for the incremental scoring.
pub fn greedy_sharp_cover(f: &CoverFunction, primes: &[Cube]) -> Cover {
    let n = f.num_vars();
    let prime_index = CoverIndex::build(&Cover::from_cubes(n, primes.to_vec()));
    let lits: Vec<usize> = primes.iter().map(Cube::literal_count).collect();
    let mut remaining = f.on_cover().clone();
    remaining.remove_contained_cubes();
    let mut live = LiveCubes::new(n, primes.len());
    for cube in remaining.cubes() {
        live.insert(cube.clone(), &prime_index);
    }
    let mut used = vec![false; primes.len()];
    let mut chosen: Vec<usize> = Vec::new();
    let mut pieces: Vec<Cube> = Vec::new();
    while live.count > 0 {
        let mut best: Option<(usize, (usize, usize, usize))> = None;
        for i in 0..primes.len() {
            if used[i] || live.part[i] == 0 {
                continue;
            }
            let key = (live.full[i], live.part[i], usize::MAX - lits[i]);
            if best.map_or(true, |(_, k)| key >= k) {
                best = Some((i, key));
            }
        }
        let Some((best, _)) = best else { break };
        used[best] = true;
        chosen.push(best);
        live.subtract(&primes[best], &prime_index, &mut pieces);
    }
    build_cover(n, primes, &chosen)
}

/// The remaining on-set of [`greedy_sharp_cover`] as a set of maximal cubes,
/// with per-prime scores over it: `part[i]` live cubes intersect prime `i`,
/// `full[i]` of them lie inside it.
struct LiveCubes {
    /// Every cube ever inserted; retired ones stay, masked out of `alive`.
    cubes: Vec<Cube>,
    index: CoverIndex,
    alive: Vec<u64>,
    count: usize,
    /// Per cube: `links[start..mid]` are the primes intersecting it,
    /// `links[mid..end]` the primes covering it.
    spans: Vec<(usize, usize, usize)>,
    links: Vec<usize>,
    part: Vec<usize>,
    full: Vec<usize>,
    cand: Vec<u64>,
    ids: Vec<usize>,
}

impl LiveCubes {
    fn new(num_vars: usize, num_primes: usize) -> Self {
        LiveCubes {
            cubes: Vec::new(),
            index: CoverIndex::new(num_vars),
            alive: Vec::new(),
            count: 0,
            spans: Vec::new(),
            links: Vec::new(),
            part: vec![0; num_primes],
            full: vec![0; num_primes],
            cand: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Add a live cube and score it against the primes.
    fn insert(&mut self, cube: Cube, primes: &CoverIndex) {
        let start = self.links.len();
        primes.intersecting_ids(&cube, &mut self.cand, &mut self.ids);
        for &j in &self.ids {
            self.part[j] += 1;
        }
        self.links.extend_from_slice(&self.ids);
        let mid = self.links.len();
        primes.covering_ids(&cube, &mut self.cand, &mut self.ids);
        for &j in &self.ids {
            self.full[j] += 1;
        }
        self.links.extend_from_slice(&self.ids);
        self.spans.push((start, mid, self.links.len()));

        let id = self.cubes.len();
        self.index.push(&cube);
        self.cubes.push(cube);
        self.alive.resize(self.cubes.len().div_ceil(64), 0);
        self.alive[id / 64] |= 1u64 << (id % 64);
        self.count += 1;
    }

    /// Remove a live cube and its scores.
    fn retire(&mut self, id: usize) {
        self.alive[id / 64] &= !(1u64 << (id % 64));
        self.count -= 1;
        let (start, mid, end) = self.spans[id];
        for &j in &self.links[start..mid] {
            self.part[j] -= 1;
        }
        for &j in &self.links[mid..end] {
            self.full[j] -= 1;
        }
    }

    /// Whether some live cube covers `cube`.
    fn covered(&mut self, cube: &Cube) -> bool {
        self.index.covering_candidates(cube, &mut self.cand)
            && !lane::and_is_zero(&self.cand, &self.alive[..self.cand.len()])
    }

    /// Subtract `prime` from the live set: the cubes it intersects give way
    /// to their sharp pieces, each kept only if no live cube covers it.
    fn subtract(&mut self, prime: &Cube, primes: &CoverIndex, pieces: &mut Vec<Cube>) {
        pieces.clear();
        let mut hit = std::mem::take(&mut self.cand);
        if self.index.intersecting_candidates(prime, &mut hit) {
            let words = hit.len();
            lane::and_into(&mut hit, &self.alive[..words]);
            for id in BitIds::new(&hit) {
                self.retire(id);
                pieces.extend(self.cubes[id].sharp(prime));
            }
        }
        self.cand = hit;
        // Largest pieces first, so a piece is only ever covered by a cube
        // already live when it is reached.
        pieces.sort_by_key(Cube::literal_count);
        for piece in pieces.drain(..) {
            if !self.covered(&piece) {
                self.insert(piece, primes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wikipedia_example_minimum_size() {
        let f = Function::from_on_dc(4, &[4, 8, 10, 11, 12, 15], &[9, 14]).unwrap();
        let cover = minimize(&f);
        assert!(cover.equivalent_to(&f));
        // Known minimum: 3 product terms (e.g. -100 + 10-- + 1-1- or -100 + 1--0 + 1-1-).
        assert_eq!(cover.cube_count(), 3);
    }

    #[test]
    fn essential_primes_always_selected() {
        // f = Σ m(0,1,5,7): minterm 0 forces 00-, minterm 7 forces a prime with x2=1,x3=1...
        let f = Function::from_on_set(3, &[0, 1, 5, 7]).unwrap();
        let primes = quine::prime_implicants(&f);
        let ess = quine::essential_primes(&f, &primes);
        let cover = minimum_cover(&f, &primes);
        for e in &ess {
            assert!(
                cover.cubes().contains(e),
                "essential prime {e} missing from cover"
            );
        }
        assert!(cover.equivalent_to(&f));
    }

    #[test]
    fn constant_functions() {
        let zero = Function::constant_false(3).unwrap();
        assert!(minimize(&zero).is_empty());

        let one = Function::from_on_set(2, &[0, 1, 2, 3]).unwrap();
        let cover = minimize(&one);
        assert_eq!(cover.cube_count(), 1);
        assert!(cover.cubes()[0].is_universe());
    }

    #[test]
    fn dont_cares_reduce_cover_size() {
        // Without DC: f = Σ m(1,3) over 3 vars needs cube 0--1? no wait 3 vars.
        // on = {1,3}: cube 0-1. With DC {5,7}: cube --1 suffices (1 literal).
        let strict = Function::from_on_set(3, &[1, 3]).unwrap();
        let relaxed = Function::from_on_dc(3, &[1, 3], &[5, 7]).unwrap();
        let c1 = minimize(&strict);
        let c2 = minimize(&relaxed);
        assert!(c1.equivalent_to(&strict));
        assert!(c2.equivalent_to(&relaxed));
        assert!(c2.literal_count() < c1.literal_count());
    }

    #[test]
    fn sparse_minimum_cover_matches_dense_quality() {
        // Same Wikipedia example through the cover-based covering table.
        let f = Function::from_on_dc(4, &[4, 8, 10, 11, 12, 15], &[9, 14]).unwrap();
        let cf = CoverFunction::from_function(&f);
        let primes = quine::prime_implicants(&f);
        let cover = minimum_cover_sparse(&cf, &primes);
        assert!(f.implemented_by(&cover));
        assert_eq!(cover.cube_count(), 3);
    }

    #[test]
    fn sparse_minimum_cover_handles_cube_shaped_on_sets() {
        // On-set given as wide cubes rather than minterms, with an off-set
        // cover: the natural shape of flow-table functions.
        let on = Cover::parse(6, "11---- --11-- ----11").unwrap();
        let off = Cover::parse(6, "0000-0").unwrap();
        let cf = CoverFunction::from_on_off(on, off).unwrap();
        let primes = cf.expand_primes();
        let cover = minimum_cover_sparse(&cf, &primes);
        assert!(cf.implemented_by(&cover));
    }

    #[test]
    fn sharp_greedy_cover_is_valid() {
        // The FRAGMENT_LIMIT fallback, called directly: every on-set cube
        // ends up covered, and no prime is picked twice.
        let on = Cover::parse(6, "11---- --11-- ----11 1-1-1- -0-0-1").unwrap();
        let off = Cover::parse(6, "0000-0 010100").unwrap();
        let cf = CoverFunction::from_on_off(on, off).unwrap();
        let primes = cf.expand_primes();
        let cover = greedy_sharp_cover(&cf, &primes);
        assert!(cf.implemented_by(&cover));
        assert!(cover.cube_count() <= primes.len());
    }

    #[test]
    fn covering_table_splits_essential_and_residual() {
        // Cyclic core f = Σ m(0,1,2,5,6,7): no essential prime, six rows of
        // two coverers each, solved exactly with three primes.
        let f = Function::from_on_set(3, &[0, 1, 2, 5, 6, 7]).unwrap();
        let cf = CoverFunction::from_function(&f);
        let primes = quine::prime_implicants(&f);
        let table = covering_table(&cf, &primes).unwrap();
        assert!(table.essential.is_empty());
        assert_eq!(table.rows.len(), 6);
        assert!(table.rows.iter().all(|r| r.len() == 2));
        assert!(table.exact_sized());
        let picked = petrick_exact(&primes, &table.rows, TABLE_PRODUCT_LIMIT).unwrap();
        assert_eq!(picked.len(), 3);
        assert_eq!(minimum_cover_sparse(&cf, &primes).cube_count(), 3);
    }

    #[test]
    fn greedy_fallback_still_valid() {
        // A moderately large random-ish function to exercise the greedy path
        // via the candidate*remaining limit (forced by constructing many primes).
        let on: Vec<u64> = (0..256).filter(|m| m % 3 != 0).collect();
        let f = Function::from_on_set(8, &on).unwrap();
        let cover = minimize(&f);
        assert!(cover.equivalent_to(&f));
    }
}
