//! Naive literal-vector cube reference used by the `cube_kernel` benchmarks.
//!
//! This module re-implements the cube operations exactly as the pre-packed
//! `Vec<Literal>` representation did — one enum comparison per variable —
//! so the benches and the `bench_json` emitter can measure the word-parallel
//! kernel against its honest predecessor without keeping the old type alive
//! in the library.

use fantom_boolean::{Cover, CoverFunction, Cube, Literal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A product term stored as one literal per variable (the representation the
/// packed kernel replaced).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveCube(pub Vec<Literal>);

impl NaiveCube {
    /// Parse from the positional text format.
    ///
    /// # Panics
    ///
    /// Panics on malformed text — bench corpora are generated, never hostile.
    pub fn parse(s: &str) -> Self {
        NaiveCube(
            s.chars()
                .map(|c| Literal::from_char(c).expect("valid cube char"))
                .collect(),
        )
    }

    /// Containment: every non-don't-care position must match.
    pub fn covers(&self, other: &NaiveCube) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| match a {
            Literal::DontCare => true,
            _ => a == b,
        })
    }

    /// Intersection, `None` on a 0/1 conflict.
    pub fn intersect(&self, other: &NaiveCube) -> Option<NaiveCube> {
        let mut lits = Vec::with_capacity(self.0.len());
        for (a, b) in self.0.iter().zip(&other.0) {
            let lit = match (a, b) {
                (Literal::DontCare, x) => *x,
                (x, Literal::DontCare) => *x,
                (x, y) if x == y => *x,
                _ => return None,
            };
            lits.push(lit);
        }
        Some(NaiveCube(lits))
    }

    /// Quine–McCluskey adjacency merge.
    pub fn combine_adjacent(&self, other: &NaiveCube) -> Option<NaiveCube> {
        let mut diff_at = None;
        for (i, (a, b)) in self.0.iter().zip(&other.0).enumerate() {
            if a == b {
                continue;
            }
            if *a == Literal::DontCare || *b == Literal::DontCare {
                return None;
            }
            if diff_at.is_some() {
                return None;
            }
            diff_at = Some(i);
        }
        diff_at.map(|i| {
            let mut lits = self.0.clone();
            lits[i] = Literal::DontCare;
            NaiveCube(lits)
        })
    }

    /// Minterm membership by per-literal matching.
    pub fn contains_minterm(&self, m: u64) -> bool {
        let n = self.0.len();
        self.0
            .iter()
            .enumerate()
            .all(|(i, lit)| lit.matches((m >> (n - 1 - i)) & 1 == 1))
    }
}

/// Deterministic seeded stream for generating bench corpora (thin wrapper
/// over the workspace `rand` generator so the algorithm lives in one place).
#[derive(Debug, Clone)]
pub struct CorpusRng(StdRng);

impl CorpusRng {
    /// Seeded construction; the same seed yields the same corpus.
    pub fn new(seed: u64) -> Self {
        CorpusRng(StdRng::seed_from_u64(seed))
    }

    /// Uniform value below `bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.0.gen_range(0..bound)
    }
}

/// Generate `count` random positional-cube strings over `num_vars` variables.
/// Roughly half the positions are don't-cares, mirroring two-level
/// minimization workloads where merged cubes grow steadily freer.
pub fn random_cube_strings(seed: u64, num_vars: usize, count: usize) -> Vec<String> {
    let mut rng = CorpusRng::new(seed);
    (0..count)
        .map(|_| {
            (0..num_vars)
                .map(|_| match rng.below(4) {
                    0 => '0',
                    1 => '1',
                    _ => '-',
                })
                .collect()
        })
        .collect()
}

/// Generate containment-check pairs `(a, b)` mirroring the access pattern of
/// `remove_contained_cubes` / `single_cube_covers`: the cubes of one function
/// are correlated, so `a.covers(b)` either holds (b is a specialization of a)
/// or fails at a uniformly random position — not at position 0 as it would
/// for independent random cubes.
pub fn containment_pair_strings(seed: u64, num_vars: usize, pairs: usize) -> Vec<(String, String)> {
    let mut rng = CorpusRng::new(seed ^ 0x00C0_B375);
    (0..pairs)
        .map(|_| {
            let a: Vec<char> = (0..num_vars)
                .map(|_| match rng.below(2) {
                    0 => '-',
                    _ => {
                        if rng.below(2) == 0 {
                            '0'
                        } else {
                            '1'
                        }
                    }
                })
                .collect();
            // b: specialize every don't-care of a with probability 1/2.
            let mut b = a.clone();
            for c in b.iter_mut() {
                if *c == '-' && rng.below(2) == 0 {
                    *c = if rng.below(2) == 0 { '0' } else { '1' };
                }
            }
            // Half the pairs get one injected mismatch at a random bound
            // position, so the scan fails at uniform depth.
            if rng.below(2) == 0 {
                let bound: Vec<usize> = a
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c != '-')
                    .map(|(i, _)| i)
                    .collect();
                if let Some(&v) = bound.get(rng.below(bound.len().max(1) as u64) as usize) {
                    b[v] = if a[v] == '1' { '0' } else { '1' };
                }
            }
            (a.into_iter().collect(), b.into_iter().collect())
        })
        .collect()
}

/// Per-cube minterm membership queries mirroring Petrick gain counting: half
/// the queried minterms lie inside the cube (full-scan cost for a naive
/// representation), half miss at a uniformly random bound position.
pub fn membership_queries(seed: u64, cubes: &[String]) -> Vec<u64> {
    let mut rng = CorpusRng::new(seed ^ 0x4D45_4D42);
    cubes
        .iter()
        .map(|text| {
            let n = text.len();
            let mut m = 0u64;
            for (i, c) in text.chars().enumerate() {
                let bit = match c {
                    '1' => 1,
                    '0' => 0,
                    _ => rng.below(2),
                };
                m |= bit << (n - 1 - i);
            }
            if rng.below(2) == 0 {
                // Miss: flip one bound position.
                let bound: Vec<usize> = text
                    .chars()
                    .enumerate()
                    .filter(|(_, c)| *c != '-')
                    .map(|(i, _)| i)
                    .collect();
                if let Some(&v) = bound.get(rng.below(bound.len().max(1) as u64) as usize) {
                    m ^= 1 << (n - 1 - v);
                }
            }
            m
        })
        .collect()
}

/// Generate adjacent-pair-rich cube strings mirroring the tabulation's merge
/// pass: candidate pairs always share their don't-care structure (the
/// tabulation only compares cubes with identical masks), differing in 0–2
/// **bound** positions. Deciding "exactly one difference" therefore requires
/// scanning the whole cube, which is the cost the packed XOR collapses.
pub fn adjacent_pair_strings(seed: u64, num_vars: usize, pairs: usize) -> Vec<(String, String)> {
    let mut rng = CorpusRng::new(seed ^ 0xD1F7);
    (0..pairs)
        .map(|_| {
            let a: Vec<char> = (0..num_vars)
                .map(|_| match rng.below(3) {
                    0 => '0',
                    1 => '1',
                    _ => '-',
                })
                .collect();
            let bound: Vec<usize> = a
                .iter()
                .enumerate()
                .filter(|(_, c)| **c != '-')
                .map(|(i, _)| i)
                .collect();
            let mut b = a.clone();
            if !bound.is_empty() {
                for _ in 0..rng.below(3) {
                    let v = bound[rng.below(bound.len() as u64) as usize];
                    b[v] = if b[v] == '1' { '0' } else { '1' };
                }
            }
            (a.into_iter().collect(), b.into_iter().collect())
        })
        .collect()
}

/// A random cover of `count` cubes, each binding about `bound` positions —
/// the "union of product terms" shape prime-generation benchmarks use.
pub fn random_cover(seed: u64, num_vars: usize, count: usize, bound: usize) -> Cover {
    let mut rng = CorpusRng::new(seed ^ 0x5EED_C0DE);
    let cubes: Vec<Cube> = (0..count)
        .map(|_| {
            let mut lits = vec![Literal::DontCare; num_vars];
            let mut placed = 0usize;
            while placed < bound {
                let v = rng.below(num_vars as u64) as usize;
                if lits[v] == Literal::DontCare {
                    lits[v] = if rng.below(2) == 1 {
                        Literal::One
                    } else {
                        Literal::Zero
                    };
                    placed += 1;
                }
            }
            Cube::new(lits)
        })
        .collect();
    Cover::from_cubes(num_vars, cubes)
}

/// A deterministic don't-care-heavy incompletely specified function shaped
/// like flow-table synthesis products: `points` on-set minterms, `off_cubes`
/// off-set cubes binding `off_bound` positions each, everything else an
/// implicit don't-care.
pub fn synthetic_cover_function(
    seed: u64,
    num_vars: usize,
    points: usize,
    off_cubes: usize,
    off_bound: usize,
) -> CoverFunction {
    let off = random_cover(seed, num_vars, off_cubes, off_bound);
    let mut rng = CorpusRng::new(seed ^ 0x0FF5_E7F0);
    let space = 1u64 << num_vars;
    let mut on_points: Vec<Cube> = Vec::with_capacity(points);
    while on_points.len() < points {
        let m = rng.below(space);
        if !off.covers_minterm(m) {
            on_points.push(Cube::from_minterm(num_vars, m).expect("in range"));
        }
    }
    let on = Cover::from_cubes(num_vars, on_points);
    CoverFunction::from_on_off(on, off).expect("on points avoid the off cover")
}

/// Mask of every low ("can-be-0") field bit of a packed cube word (the
/// layout constant of `fantom_boolean`, re-derived here for the reference).
const LO_BITS: u64 = 0x5555_5555_5555_5555;

/// Rebuild the espresso-style packed words of a positional-cube string —
/// two bits per variable, fields allocated from the MSB of each word down,
/// padding fields canonically `11` — exactly the `fantom_boolean` layout, so
/// the scalar word loops below and the `fantom_boolean::lane` kernels run
/// over byte-identical inputs.
///
/// # Panics
///
/// Panics on malformed text — bench corpora are generated, never hostile.
pub fn packed_words(s: &str) -> Vec<u64> {
    let n = s.chars().count();
    let mut out = vec![!0u64; n.div_ceil(32).max(1)];
    for (v, c) in s.chars().enumerate() {
        let field: u64 = match c {
            '0' => 0b01,
            '1' => 0b10,
            '-' => 0b11,
            other => panic!("invalid cube char {other:?}"),
        };
        let shift = 62 - 2 * (v % 32);
        out[v / 32] = (out[v / 32] & !(0b11u64 << shift)) | (field << shift);
    }
    out
}

/// Pre-lane scalar containment loop (`b & !a == 0` word by word with early
/// exit) — the exact traversal `Cube::covers` used before the lane kernels.
#[inline]
pub fn scalar_cube_covers(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| y & !x == 0)
}

/// Pre-lane scalar conflict scan — the word loop `Cube::intersect` used to
/// detect an empty (`00`) field before the lane kernels.
#[inline]
pub fn scalar_cube_has_conflict(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&x, &y)| {
        let t = x & y;
        !(t | (t >> 1)) & LO_BITS != 0
    })
}

/// Pre-lane scalar bucket-AND (`cand &= dc`, any-accumulated) — the
/// free-variable constraint loop of `CoverIndex::constrain` before the lane
/// kernels.
#[inline]
pub fn scalar_and_into_any(dst: &mut [u64], src: &[u64]) -> u64 {
    let mut any = 0u64;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d &= s;
        any |= *d;
    }
    any
}

/// Pre-lane scalar bound-variable bucket-AND (`cand &= same | dc`,
/// any-accumulated) — the other arm of `CoverIndex::constrain`.
#[inline]
pub fn scalar_and_or2_into_any(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
    let mut any = 0u64;
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d &= x | y;
        any |= *d;
    }
    any
}

/// The dense `2^n · n` static-hazard adjacency walk the cube-pair-wise
/// region algorithm replaced, kept here as the benchmark oracle. Returns the
/// hazardous pair count.
pub fn naive_static_hazard_count(cover: &Cover) -> usize {
    let n = cover.num_vars();
    let space = 1u64 << n;
    let full_mask: u64 = space - 1;
    let mut count = 0usize;
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
                count += 1;
            }
        }
    }
    count
}

/// The pre-index candidate-growth loop of the Step-3 assignment engine,
/// retained verbatim as the differential oracle and micro-benchmark
/// reference: per seed, two full wrap-around `try_absorb` passes over the
/// dichotomy list, a full separation rescan to compute the candidate's
/// coverage set, and the old rotation seed orderings (variants ≥ 2 rotate by
/// a prime offset — provably duplicates of variant 0, which is exactly the
/// waste the indexed engine's stride orderings fixed). Returns the
/// deduplicated `(merged dichotomy, covers)` pool in generation order.
pub fn scalar_candidate_growth(
    dichotomies: &[fantom_assign::Dichotomy],
    seed_orderings: usize,
    max_candidates: usize,
) -> Vec<(fantom_assign::Dichotomy, fantom_boolean::MintermSet)> {
    use fantom_boolean::MintermSet;

    fn seed_order(num: usize, variant: usize) -> Vec<usize> {
        match variant {
            0 => (0..num).collect(),
            1 => (0..num).rev().collect(),
            v => {
                let offset = (v * 7919) % num.max(1);
                (0..num).map(|i| (i + offset) % num).collect()
            }
        }
    }

    let mut seen: fantom_boolean::collections::HashSet<fantom_assign::Dichotomy> =
        Default::default();
    let mut candidates = Vec::new();
    'orderings: for variant in 0..seed_orderings.max(1) {
        let order = seed_order(dichotomies.len(), variant);
        for (pos, &seed) in order.iter().enumerate() {
            if candidates.len() >= max_candidates {
                break 'orderings;
            }
            let mut merged = dichotomies[seed].clone();
            for _ in 0..2 {
                for &j in order[pos..].iter().chain(&order[..pos]) {
                    if j != seed {
                        merged.try_absorb(&dichotomies[j]);
                    }
                }
            }
            if seen.insert(merged.clone()) {
                let ones = merged.right();
                let covers = MintermSet::from_minterms(
                    dichotomies.len() as u64,
                    dichotomies
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| d.separated_by(ones))
                        .map(|(i, _)| i as u64),
                );
                candidates.push((merged, covers));
            }
        }
    }
    candidates
}

/// The rescan-per-pick greedy set cover the lazy-max heap replaced, retained
/// verbatim: every selection scans all candidate coverage sets against the
/// uncovered dichotomies (ties to the earlier index).
pub fn scalar_greedy_cover(covers: &[fantom_boolean::MintermSet], num: usize) -> Vec<usize> {
    let mut uncovered = fantom_boolean::MintermSet::from_minterms(num as u64, 0..num as u64);
    let mut chosen: Vec<usize> = Vec::new();
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
        chosen.push(pick);
    }
    chosen
}

/// The covering kernels of `fantom_boolean::petrick` as they stood before
/// the bitset Petrick expansion and the incremental sharp-greedy scoring,
/// retained verbatim as the differential oracle and micro-benchmark
/// reference: `BTreeSet` products cloned and subset-tested with a quadratic
/// absorption pass, and a sharp greedy that rescans every prime against
/// every remaining cube and re-compacts the whole remainder each round.
/// The production kernels must return the same [`Cover`] on every input.
pub mod petrick {
    use std::collections::BTreeSet;

    use fantom_boolean::{Cover, CoverFunction, CoverIndex, Cube, Function};

    /// Upper bound on `primes × uncovered-minterms` for which the exact Petrick
    /// expansion is attempted before falling back to the greedy heuristic.
    pub const PETRICK_EXACT_LIMIT: usize = 2_000;

    /// Upper bound on covering-table rows produced by fragmenting an on-set cover
    /// against the primes ([`minimum_cover_sparse`]); beyond it the sharp-based
    /// greedy selection is used instead.
    pub const FRAGMENT_LIMIT: usize = 2_048;

    /// Select a minimum (or near-minimum) subset of `primes` covering the on-set
    /// of `f`, always including every essential prime implicant.
    ///
    /// The result is the "essential SOP expression" the paper refers to in
    /// Steps 4 and 6.
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
            petrick_exact(primes, &candidates, &remaining)
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

    /// Petrick's method: expand the product of sums of covering primes into a sum
    /// of products (sets of prime indices), keeping only minimal sets, and return
    /// the cheapest one (fewest primes, then fewest literals).
    pub fn petrick_exact(primes: &[Cube], candidates: &[usize], remaining: &[u64]) -> Vec<usize> {
        // Each element of `products` is one conjunction: a set of selected primes.
        let mut products: Vec<BTreeSet<usize>> = vec![BTreeSet::new()];
        for &m in remaining {
            let covering: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| primes[i].contains_minterm(m))
                .collect();
            if covering.is_empty() {
                // Minterm not coverable by the candidates (should not happen when
                // primes were generated for the same function); skip it.
                continue;
            }
            let mut next: Vec<BTreeSet<usize>> = Vec::new();
            for product in &products {
                for &p in &covering {
                    let mut grown = product.clone();
                    grown.insert(p);
                    next.push(grown);
                }
            }
            absorb(&mut next);
            // Keep the expansion bounded even in adversarial cases.
            if next.len() > 10_000 {
                return greedy_cover(primes, candidates, remaining);
            }
            products = next;
        }

        products
            .into_iter()
            .min_by_key(|set| {
                let lits: usize = set.iter().map(|&i| primes[i].literal_count()).sum();
                (set.len(), lits)
            })
            .map(|set| set.into_iter().collect())
            .unwrap_or_default()
    }

    /// Remove any product term that is a superset of another (absorption law).
    pub fn absorb(products: &mut Vec<BTreeSet<usize>>) {
        products.sort_by_key(BTreeSet::len);
        let mut kept: Vec<BTreeSet<usize>> = Vec::with_capacity(products.len());
        'outer: for p in products.drain(..) {
            for k in &kept {
                if k.is_subset(&p) {
                    continue 'outer;
                }
            }
            kept.push(p);
        }
        *products = kept;
    }

    /// Greedy set cover: repeatedly pick the prime covering the most remaining
    /// minterms (ties broken by fewer literals). The shrinking uncovered set is a
    /// plain vector scanned against the word-parallel `contains_minterm`, keeping
    /// every round O(|uncovered|) per candidate — never by enumerating a prime's
    /// own minterms (exponential in its free variables) and never by walking a
    /// dense 2ⁿ bitset when only a handful of minterms remain.
    pub fn greedy_cover(primes: &[Cube], candidates: &[usize], remaining: &[u64]) -> Vec<usize> {
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

    /// Select a minimum (or near-minimum) subset of `primes` covering the on-set
    /// of a sparse [`CoverFunction`], without enumerating minterms.
    ///
    /// The covering table is built **cover-based**: the on-set cubes are
    /// fragmented against the primes (splitting a row into its intersection with
    /// a prime and the disjoint-sharp remainder) until every fragment is either
    /// inside or disjoint from each prime. Fragments then play the role the
    /// minterms play in the dense [`minimum_cover`]: fragments covered by exactly
    /// one prime make that prime essential, the residual table is solved by the
    /// exact Petrick expansion when small and greedily otherwise. If
    /// fragmentation explodes past the internal `FRAGMENT_LIMIT` rows, a sharp-based greedy
    /// selection (repeatedly subtracting the best prime from the uncovered cover)
    /// is used instead.
    pub fn minimum_cover_sparse(f: &CoverFunction, primes: &[Cube]) -> Cover {
        let n = f.num_vars();
        if primes.is_empty() || f.on_cover().is_empty() {
            return Cover::empty(n);
        }

        // 1. Fragment the on-set against the primes.
        let mut rows: Vec<Cube> = f.on_cover().make_disjoint().cubes().to_vec();
        let mut next: Vec<Cube> = Vec::with_capacity(rows.len());
        for p in primes {
            next.clear();
            for r in rows.drain(..) {
                match r.intersect(p) {
                    None => next.push(r),
                    Some(_) if p.covers(&r) => next.push(r),
                    Some(inside) => {
                        next.push(inside);
                        next.extend(r.sharp(p));
                    }
                }
            }
            std::mem::swap(&mut rows, &mut next);
            if rows.len() > FRAGMENT_LIMIT {
                return greedy_sharp_cover(f, primes);
            }
        }

        // 2. Incidence: which primes cover each fragment entirely — answered by
        // the prime index's exact covering-candidate bitsets instead of a
        // rows × primes containment scan.
        let prime_index = CoverIndex::build(&Cover::from_cubes(n, primes.to_vec()));
        let mut cand: Vec<u64> = Vec::new();
        let mut ids: Vec<usize> = Vec::new();
        let coverers: Vec<Vec<usize>> = rows
            .iter()
            .map(|r| {
                prime_index.covering_ids(r, &mut cand, &mut ids);
                ids.clone()
            })
            .collect();

        // 3. Essential primes: sole coverer of some fragment.
        let mut selected: Vec<usize> = Vec::new();
        for c in &coverers {
            if let [only] = c.as_slice() {
                if !selected.contains(only) {
                    selected.push(*only);
                }
            }
        }

        // 4. Residual rows and candidates.
        let residual: Vec<&Vec<usize>> = coverers
            .iter()
            .filter(|c| !c.is_empty() && !c.iter().any(|i| selected.contains(i)))
            .collect();
        if residual.is_empty() {
            return build_cover(n, primes, &selected);
        }
        let mut candidates: Vec<usize> = residual.iter().flat_map(|c| c.iter().copied()).collect();
        candidates.sort_unstable();
        candidates.dedup();

        let extra = if candidates.len() * residual.len() <= PETRICK_EXACT_LIMIT {
            petrick_exact_table(primes, &residual)
        } else {
            greedy_table(&residual)
        };
        selected.extend(extra);
        build_cover(n, primes, &selected)
    }

    /// Exact Petrick expansion over a fragment covering table: each row
    /// contributes the sum of its covering primes; products are expanded with
    /// absorption and the cheapest product (fewest primes, then fewest literals)
    /// is returned.
    pub fn petrick_exact_table(primes: &[Cube], rows: &[&Vec<usize>]) -> Vec<usize> {
        let mut products: Vec<BTreeSet<usize>> = vec![BTreeSet::new()];
        for covering in rows {
            let mut next: Vec<BTreeSet<usize>> = Vec::new();
            for product in &products {
                if product.iter().any(|i| covering.contains(i)) {
                    next.push(product.clone());
                    continue;
                }
                for &p in covering.iter() {
                    let mut grown = product.clone();
                    grown.insert(p);
                    next.push(grown);
                }
            }
            absorb(&mut next);
            // Tighter than the dense bailout: absorb is quadratic in the product
            // count, and the fragment tables of large sparse functions hit the
            // worst case far more often than small dense residuals do.
            if next.len() > 2_000 {
                return greedy_table(rows);
            }
            products = next;
        }
        products
            .into_iter()
            .min_by_key(|set| {
                let lits: usize = set.iter().map(|&i| primes[i].literal_count()).sum();
                (set.len(), lits)
            })
            .map(|set| set.into_iter().collect())
            .unwrap_or_default()
    }

    /// Greedy set cover over a fragment covering table: repeatedly pick the prime
    /// covering the most uncovered rows.
    pub fn greedy_table(rows: &[&Vec<usize>]) -> Vec<usize> {
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

    /// Sharp-based greedy selection used when fragmentation is too expensive:
    /// subtract the chosen prime from the remaining on-set cover each round.
    /// Terminates after at most `primes.len()` rounds (each prime is chosen at
    /// most once, and expansion primes jointly cover the on-set).
    pub fn greedy_sharp_cover(f: &CoverFunction, primes: &[Cube]) -> Cover {
        let n = f.num_vars();
        let mut remaining: Cover = f.on_cover().clone();
        remaining.remove_contained_cubes();
        let mut used = vec![false; primes.len()];
        let mut chosen: Vec<usize> = Vec::new();
        while !remaining.is_empty() {
            let best = (0..primes.len())
                .filter(|&i| !used[i])
                .map(|i| {
                    let full = remaining
                        .cubes()
                        .iter()
                        .filter(|c| primes[i].covers(c))
                        .count();
                    let part = remaining
                        .cubes()
                        .iter()
                        .filter(|c| primes[i].intersect(c).is_some())
                        .count();
                    (part, full, i)
                })
                .filter(|&(part, _, _)| part > 0)
                .max_by_key(|&(part, full, i)| {
                    (full, part, usize::MAX - primes[i].literal_count())
                });
            let Some((_, _, best)) = best else { break };
            used[best] = true;
            chosen.push(best);
            remaining = remaining.sharp_cube(&primes[best]);
            remaining.remove_contained_cubes();
        }
        build_cover(n, primes, &chosen)
    }
}
