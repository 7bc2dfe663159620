//! Word-parallel cube index over a [`Cover`] — the query engine behind the
//! Step 5/7 hazard & consensus hot paths.
//!
//! A [`CoverIndex`] maintains, for every variable, three **phase buckets**:
//! bitsets over cube *indices* recording which cubes bind the variable to 0,
//! bind it to 1, or leave it free. On top of the buckets sits a
//! *signature supercube* (the supercube of every indexed cube) used as a
//! constant-time pre-filter. Together they answer the two queries the
//! consensus engine asks millions of times —
//!
//! * [`single_cube_covers`](CoverIndex::single_cube_covers): is some single
//!   cube of the cover a superset of `q`?
//! * [`intersects_cube`](CoverIndex::intersects_cube): does any cube of the
//!   cover share a minterm with `q`?
//!
//! — **exactly** (no verification scan) by intersecting bucket bitsets:
//! a cube `c` covers `q` iff at every position `q`'s field bits are a subset
//! of `c`'s, so the covering candidates are the AND over `q`'s free
//! variables of the don't-care buckets and over `q`'s bound variables of
//! (same-phase ∪ don't-care) buckets; `c` intersects `q` iff no position
//! binds the opposite phase, so the intersecting candidates are the AND over
//! `q`'s bound variables of (same-phase ∪ don't-care). The cost is
//! `O(num_vars · cubes / 64)` words with early exit on an empty candidate
//! set, instead of `O(cubes · num_vars / 32)` for the cube-by-cube scan —
//! and, crucially, the candidate *sets* drive the hazard engine's region
//! subtraction: only the cubes that can actually hit a region are sharped
//! against it.
//!
//! The index is **incrementally maintained**: [`push`](CoverIndex::push)
//! appends one cube in `O(num_vars)` time, which is what keeps it valid
//! while the consensus augmentation pushes primes mid-analysis.
//!
//! The index stores cube *indices*, not cubes; callers keep it in sync with
//! the cover they query against (see [`IndexedCover`] for a bundled pair).

use crate::{lane, Cover, Cube, Literal};

/// Number of phase buckets per variable (`Zero`, `One`, `DontCare`).
const PHASES: usize = 3;

/// Bucket offset of a literal phase.
#[inline]
fn phase_of(lit: Literal) -> usize {
    match lit {
        Literal::Zero => 0,
        Literal::One => 1,
        Literal::DontCare => 2,
    }
}

/// An incrementally-maintained, word-parallel index over the cubes of a
/// [`Cover`] (see the [module docs](self) for the query algebra).
///
/// # Example
///
/// ```
/// use fantom_boolean::{Cover, CoverIndex, Cube};
///
/// # fn main() -> Result<(), fantom_boolean::BooleanError> {
/// let cover = Cover::parse(3, "1-- -11")?;
/// let mut index = CoverIndex::build(&cover);
/// assert!(index.single_cube_covers(&Cube::parse("11-")?));
/// assert!(!index.single_cube_covers(&Cube::parse("--1")?));
/// assert!(index.intersects_cube(&Cube::parse("--1")?));
/// // Incremental: push keeps the index valid as the cover grows.
/// index.push(&Cube::parse("0-0")?);
/// assert!(index.single_cube_covers(&Cube::parse("010")?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CoverIndex {
    num_vars: usize,
    /// Number of cubes indexed.
    len: usize,
    /// Allocated words per bucket (the layout stride). Grown geometrically,
    /// so N incremental pushes cost O(N) amortized word moves; queries only
    /// ever scan the `ceil(len / 64)` used words.
    words: usize,
    /// Phase buckets, `buckets[var * 3 + phase]`, each `words` long, laid out
    /// contiguously so growth is a single in-place restride.
    buckets: Vec<u64>,
    /// Supercube of every indexed cube (`None` while empty) — the
    /// constant-time signature pre-filter.
    signature: Option<Cube>,
}

impl CoverIndex {
    /// An empty index over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        CoverIndex {
            num_vars,
            len: 0,
            words: 0,
            buckets: Vec::new(),
            signature: None,
        }
    }

    /// Build the index of `cover`.
    pub fn build(cover: &Cover) -> Self {
        let mut index = CoverIndex::new(cover.num_vars());
        index.buckets = vec![0u64; cover.cube_count().div_ceil(64) * cover.num_vars() * PHASES];
        index.words = cover.cube_count().div_ceil(64);
        for cube in cover.cubes() {
            index.push(cube);
        }
        index
    }

    /// Number of cubes indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no cube has been indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The supercube of every indexed cube, or `None` while empty. A query
    /// cube disjoint from the signature is disjoint from every indexed cube.
    pub fn signature(&self) -> Option<&Cube> {
        self.signature.as_ref()
    }

    /// Words actually holding cube bits (`ceil(len / 64)`); the remaining
    /// `words - used_words` per bucket are zeroed growth headroom.
    #[inline]
    fn used_words(&self) -> usize {
        self.len.div_ceil(64)
    }

    /// Bucket slice for `(var, phase)`, trimmed to the used words.
    #[inline]
    fn bucket(&self, var: usize, phase: usize) -> &[u64] {
        let start = (var * PHASES + phase) * self.words;
        &self.buckets[start..start + self.used_words()]
    }

    /// Append `cube` (index `self.len()`) to the index in `O(num_vars)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the cube width does not match.
    pub fn push(&mut self, cube: &Cube) {
        debug_assert_eq!(cube.num_vars(), self.num_vars);
        let id = self.len;
        if id / 64 == self.words && self.num_vars > 0 {
            // Out of headroom: double the per-bucket capacity and restride in
            // place back-to-front (amortized O(1) words moved per push).
            let old = self.words;
            let new = (old * 2).max(1);
            self.buckets.resize(self.num_vars * PHASES * new, 0);
            for b in (1..self.num_vars * PHASES).rev() {
                for w in (0..old).rev() {
                    self.buckets[b * new + w] = self.buckets[b * old + w];
                }
                for w in old..new {
                    self.buckets[b * new + w] = 0;
                }
            }
            // Bucket 0 stays at offset 0; only its new tail needs zeroing,
            // which `resize` cannot have done for the moved buckets above.
            for w in old..new {
                self.buckets[w] = 0;
            }
            self.words = new;
        }
        let (word, bit) = (id / 64, id % 64);
        for var in 0..self.num_vars {
            let phase = phase_of(cube.literal(var));
            let start = (var * PHASES + phase) * self.words;
            self.buckets[start + word] |= 1u64 << bit;
        }
        self.signature = Some(match self.signature.take() {
            None => cube.clone(),
            Some(sig) => sig.supercube(cube),
        });
        self.len += 1;
    }

    /// Iterate the indices of cubes whose literal at `var` is `phase`, in
    /// increasing order — the per-variable candidate enumeration the hazard
    /// engine builds its lower/upper/free lists from.
    pub fn phase_ids(&self, var: usize, phase: Literal) -> impl Iterator<Item = usize> + '_ {
        BitIds::new(self.bucket(var, phase_of(phase)))
    }

    /// Number of cubes whose literal at `var` is `phase`.
    pub fn phase_count(&self, var: usize, phase: Literal) -> usize {
        lane::popcount(self.bucket(var, phase_of(phase)))
    }

    /// AND the constraint bitset of `(var, allow_dc ∪ phase-of-q)` into
    /// `cand`; returns `false` when `cand` became all-zero (early exit).
    /// This is the bucket-enumeration inner loop — it runs once per variable
    /// per query, over `ceil(len / 64)` words, so it rides the [`lane`]
    /// kernels (256 bits per step, any-accumulation folded per lane).
    #[inline]
    fn constrain(&self, cand: &mut [u64], var: usize, lit: Literal) -> bool {
        let dc = self.bucket(var, phase_of(Literal::DontCare));
        let any = match lit {
            Literal::DontCare => lane::and_into_any(cand, dc),
            bound => lane::and_or2_into_any(cand, self.bucket(var, phase_of(bound)), dc),
        };
        any != 0
    }

    /// Compute the covering-candidate bitset of `q` into `cand` (resized and
    /// seeded internally); returns `false` if it is empty. A set bit `i`
    /// means cube `i` covers `q` — the bucket algebra is exact, so no
    /// verification pass over the cubes is needed.
    pub(crate) fn covering_candidates(&self, q: &Cube, cand: &mut Vec<u64>) -> bool {
        debug_assert_eq!(q.num_vars(), self.num_vars);
        if self.len == 0 {
            return false;
        }
        if self.num_vars == 0 {
            cand.clear();
            cand.push(1);
            return true; // the zero-variable universe cube covers itself
        }
        // Signature reject: any cube covering q is itself covered by the
        // signature supercube, so the signature must cover q too.
        if let Some(sig) = &self.signature {
            if !sig.covers(q) {
                return false;
            }
        }
        cand.clear();
        cand.resize(self.used_words(), !0u64);
        mask_tail(cand, self.len);
        // Free variables first: a cube covering q must be don't-care wherever
        // q is, and don't-care buckets are typically the sparsest — they
        // prune hardest and exit earliest.
        for var in 0..self.num_vars {
            if q.literal(var) == Literal::DontCare && !self.constrain(cand, var, Literal::DontCare)
            {
                return false;
            }
        }
        for var in 0..self.num_vars {
            let lit = q.literal(var);
            if lit != Literal::DontCare && !self.constrain(cand, var, lit) {
                return false;
            }
        }
        true
    }

    /// Whether some *single* indexed cube covers the whole of `q` — the
    /// indexed counterpart of [`Cover::single_cube_covers`].
    pub fn single_cube_covers(&self, q: &Cube) -> bool {
        let mut cand = Vec::new();
        self.covering_candidates(q, &mut cand)
    }

    /// Compute the intersecting-candidate bitset of `q` into `cand`; returns
    /// `false` if it is empty. A set bit `i` means cube `i` shares a minterm
    /// with `q` (exact — free positions of `q` constrain nothing).
    pub(crate) fn intersecting_candidates(&self, q: &Cube, cand: &mut Vec<u64>) -> bool {
        debug_assert_eq!(q.num_vars(), self.num_vars);
        if self.len == 0 {
            return false;
        }
        if self.num_vars == 0 {
            cand.clear();
            cand.push(1);
            return true; // zero-variable cubes are all the universe point
        }
        if let Some(sig) = &self.signature {
            if sig.intersect(q).is_none() {
                return false;
            }
        }
        cand.clear();
        cand.resize(self.used_words(), !0u64);
        mask_tail(cand, self.len);
        for var in 0..self.num_vars {
            let lit = q.literal(var);
            if lit != Literal::DontCare && !self.constrain(cand, var, lit) {
                return false;
            }
        }
        true
    }

    /// Whether any indexed cube shares a minterm with `q` — the indexed
    /// counterpart of [`Cover::intersects_cube`].
    pub fn intersects_cube(&self, q: &Cube) -> bool {
        let mut cand = Vec::new();
        self.intersecting_candidates(q, &mut cand)
    }

    /// Collect into `out` the indices of cubes that cover the whole of `q`,
    /// in increasing order. Returns `true` if any were found.
    pub fn covering_ids(&self, q: &Cube, cand: &mut Vec<u64>, out: &mut Vec<usize>) -> bool {
        out.clear();
        if !self.covering_candidates(q, cand) {
            return false;
        }
        out.extend(BitIds::new(cand));
        true
    }

    /// Collect into `out` the indices of cubes that intersect `q`, in
    /// increasing order. Returns `true` if any were found.
    pub fn intersecting_ids(&self, q: &Cube, cand: &mut Vec<u64>, out: &mut Vec<usize>) -> bool {
        out.clear();
        if !self.intersecting_candidates(q, cand) {
            return false;
        }
        out.extend(BitIds::new(cand));
        true
    }

    /// Collect into `out` the indices of cubes that both intersect `q` and
    /// leave `var` free, in increasing order — exactly the cubes that can
    /// subtract from (or cover part of) a `var`-free hazard region. Returns
    /// `true` if any were found.
    pub fn free_intersecting_ids(
        &self,
        var: usize,
        q: &Cube,
        cand: &mut Vec<u64>,
        out: &mut Vec<usize>,
    ) -> bool {
        out.clear();
        if !self.intersecting_candidates(q, cand) {
            return false;
        }
        let dc = self.bucket(var, phase_of(Literal::DontCare));
        if lane::and_into_any(cand, dc) == 0 {
            return false;
        }
        out.extend(BitIds::new(cand));
        true
    }
}

/// Zero the bits at positions `len..` of a candidate bitset.
#[inline]
fn mask_tail(cand: &mut [u64], len: usize) {
    let tail = len % 64;
    if tail != 0 {
        if let Some(last) = cand.last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
}

/// Iterator over the set-bit positions of a word slice, ascending.
pub(crate) struct BitIds<'a> {
    words: &'a [u64],
    word_idx: usize,
    bits: u64,
}

impl<'a> BitIds<'a> {
    pub(crate) fn new(words: &'a [u64]) -> Self {
        BitIds {
            words,
            word_idx: 0,
            bits: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for BitIds<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.bits = self.words[self.word_idx];
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.word_idx * 64 + bit)
    }
}

/// A [`Cover`] bundled with its [`CoverIndex`], kept in sync on every push —
/// the working representation of the consensus engine's growing cover.
#[derive(Debug, Clone)]
pub struct IndexedCover {
    cover: Cover,
    index: CoverIndex,
}

impl IndexedCover {
    /// Index an existing cover (the cover is cloned into the bundle).
    pub fn build(cover: &Cover) -> Self {
        IndexedCover {
            cover: cover.clone(),
            index: CoverIndex::build(cover),
        }
    }

    /// The underlying cover.
    pub fn cover(&self) -> &Cover {
        &self.cover
    }

    /// The index.
    pub fn index(&self) -> &CoverIndex {
        &self.index
    }

    /// The cubes of the cover, in insertion order.
    pub fn cubes(&self) -> &[Cube] {
        self.cover.cubes()
    }

    /// Append a cube to both the cover and its index.
    pub fn push(&mut self, cube: Cube) {
        self.index.push(&cube);
        self.cover.push(cube);
    }

    /// Take the cover out of the bundle, dropping the index.
    pub fn into_cover(self) -> Cover {
        self.cover
    }

    /// See [`CoverIndex::single_cube_covers`].
    pub fn single_cube_covers(&self, q: &Cube) -> bool {
        self.index.single_cube_covers(q)
    }

    /// See [`CoverIndex::intersects_cube`].
    pub fn intersects_cube(&self, q: &Cube) -> bool {
        self.index.intersects_cube(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every 3^4 cube over 4 variables, for exhaustive query checks.
    fn all_cubes() -> impl Iterator<Item = Cube> {
        (0..81).map(|i| {
            let lits: String = (0..4)
                .map(|v| ['0', '1', '-'][(i / 3usize.pow(v)) % 3])
                .collect();
            Cube::parse(&lits).unwrap()
        })
    }

    #[test]
    fn queries_match_scans_exhaustively() {
        let covers = [
            Cover::parse(4, "1--- -11- --01").unwrap(),
            Cover::parse(4, "00-- 11--").unwrap(),
            Cover::parse(4, "1-0- -11- 0--1 --10 ---- 0000").unwrap(),
            Cover::empty(4),
        ];
        for cover in &covers {
            let index = CoverIndex::build(cover);
            assert_eq!(index.len(), cover.cube_count());
            for q in all_cubes() {
                assert_eq!(
                    index.single_cube_covers(&q),
                    cover.single_cube_covers(&q),
                    "covers: {cover} vs {q}"
                );
                assert_eq!(
                    index.intersects_cube(&q),
                    cover.intersects_cube(&q),
                    "intersects: {cover} vs {q}"
                );
            }
        }
    }

    #[test]
    fn incremental_push_matches_rebuild() {
        let cubes = ["1---", "-11-", "--01", "0-0-", "11-1", "----"];
        let mut cover = Cover::empty(4);
        let mut index = CoverIndex::new(4);
        for text in cubes {
            let cube = Cube::parse(text).unwrap();
            index.push(&cube);
            cover.push(cube);
            let rebuilt = CoverIndex::build(&cover);
            for q in all_cubes() {
                assert_eq!(
                    index.single_cube_covers(&q),
                    rebuilt.single_cube_covers(&q),
                    "after {text}: {q}"
                );
                assert_eq!(
                    index.intersects_cube(&q),
                    rebuilt.intersects_cube(&q),
                    "after {text}: {q}"
                );
            }
            assert_eq!(index.signature(), rebuilt.signature());
        }
    }

    #[test]
    fn growth_across_the_64_cube_boundary() {
        // 70 distinct minterm cubes over 7 variables: ids spill into a second
        // bucket word at id 64.
        let n = 7;
        let mut cover = Cover::empty(n);
        let mut index = CoverIndex::new(n);
        for m in 0..70u64 {
            let cube = Cube::from_minterm(n, m).unwrap();
            index.push(&cube);
            cover.push(cube);
        }
        assert_eq!(index.len(), 70);
        for m in 0..80u64 {
            let q = Cube::from_minterm(n, m).unwrap();
            assert_eq!(index.single_cube_covers(&q), m < 70, "minterm {m}");
            assert_eq!(index.intersects_cube(&q), m < 70, "minterm {m}");
        }
        // A wide query covering all of them.
        let top = Cube::parse("0------").unwrap();
        assert!(index.intersects_cube(&top));
        assert!(!index.single_cube_covers(&top));
    }

    #[test]
    fn phase_ids_enumerate_buckets() {
        let cover = Cover::parse(3, "1-- 0-1 -10 --- 10-").unwrap();
        let index = CoverIndex::build(&cover);
        let ids = |var, phase| index.phase_ids(var, phase).collect::<Vec<_>>();
        assert_eq!(ids(0, Literal::One), vec![0, 4]);
        assert_eq!(ids(0, Literal::Zero), vec![1]);
        assert_eq!(ids(0, Literal::DontCare), vec![2, 3]);
        assert_eq!(ids(2, Literal::One), vec![1]);
        assert_eq!(index.phase_count(1, Literal::DontCare), 3);
    }

    #[test]
    fn free_intersecting_ids_filter_by_phase_and_overlap() {
        let cover = Cover::parse(3, "1-- 0-1 -10 1-1").unwrap();
        let index = CoverIndex::build(&cover);
        let q = Cube::parse("1--").unwrap();
        let (mut cand, mut out) = (Vec::new(), Vec::new());
        // Cubes free in var 1 that intersect q: ids 0 ("1--") and 3 ("1-1");
        // id 1 is free in var 1 but disjoint from q.
        assert!(index.free_intersecting_ids(1, &q, &mut cand, &mut out));
        assert_eq!(out, vec![0, 3]);
        // All intersecting cubes: 0, 2, 3.
        assert!(index.intersecting_ids(&q, &mut cand, &mut out));
        assert_eq!(out, vec![0, 2, 3]);
    }

    #[test]
    fn indexed_cover_stays_in_sync() {
        let mut ic = IndexedCover::build(&Cover::parse(3, "11-").unwrap());
        assert!(!ic.single_cube_covers(&Cube::parse("0-0").unwrap()));
        ic.push(Cube::parse("0--").unwrap());
        assert!(ic.single_cube_covers(&Cube::parse("0-0").unwrap()));
        assert_eq!(ic.cover().cube_count(), 2);
        assert_eq!(ic.index().len(), 2);
    }

    #[test]
    fn wide_cubes_index_across_cube_word_boundary() {
        // 33-variable cubes: the cube itself spills to two packed words; the
        // index must keep var 32's buckets straight.
        let a: String = "1".repeat(32) + "-";
        let b: String = "-".repeat(32) + "0";
        let cover = Cover::parse(33, &format!("{a} {b}")).unwrap();
        let index = CoverIndex::build(&cover);
        let q = Cube::parse(&("1".repeat(32) + "0")).unwrap();
        assert!(index.single_cube_covers(&q));
        assert!(index.intersects_cube(&q));
        let miss = Cube::parse(&("0".repeat(32) + "1")).unwrap();
        assert!(!index.single_cube_covers(&miss));
        assert!(!index.intersects_cube(&miss));
        assert_eq!(index.phase_ids(32, Literal::Zero).collect::<Vec<_>>(), [1]);
    }
}
