//! Irredundant sum-of-products computation (Minato–Morreale algorithm).
//!
//! Given a completely-specified function (or an interval `[on, on ∪ dc]`
//! of an incompletely-specified function), [`isop`] computes an
//! irredundant prime cover used by refactoring and by the SOP-balancing
//! and factoring engines.
//!
//! The recursion runs on raw `u64` words and allocates nothing per level.
//! A table of at most 6 variables is stretched across one word by
//! replication, so a cofactor is one mask and shift and "all ones" is
//! `u64::MAX`.  Wider tables recurse over blocks of words: a cofactor on a
//! variable `v ≥ 6` is the low or high half of the current block, and a
//! level only keeps the `2^(v+1-6)` words its functions can depend on, so
//! the higher variables are don't-cares by construction.  The block levels
//! take their temporaries from one scratch buffer per call.

use crate::operations::{depends_on, word_depends_on};
use crate::table::VAR_MASKS;
use crate::{Cube, Sop, TruthTable};

/// Computes an irredundant sum-of-products cover of `tt`.
///
/// The returned [`Sop`] covers exactly the on-set of `tt`.
///
/// # Panics
///
/// Panics if `tt` has more than 32 variables (cubes are limited to 32
/// literals).
///
/// # Example
///
/// ```
/// use glsx_truth::{isop, TruthTable};
///
/// let maj = TruthTable::from_hex(3, "e8")?;
/// let cover = isop(&maj);
/// assert_eq!(cover.num_cubes(), 3);
/// assert_eq!(cover.to_truth_table(), maj);
/// # Ok::<(), glsx_truth::ParseTruthTableError>(())
/// ```
pub fn isop(tt: &TruthTable) -> Sop {
    assert!(tt.num_vars() <= 32, "isop supports at most 32 variables");
    isop_interval(tt, tt)
}

/// Computes an irredundant cover of any function `f` with
/// `on ⊆ f ⊆ on ∪ dc` (incompletely-specified ISOP).
///
/// # Panics
///
/// Panics if `on` is not contained in `upper` or the tables have different
/// variable counts.
pub fn isop_with_dont_cares(on: &TruthTable, upper: &TruthTable) -> Sop {
    assert_eq!(on.num_vars(), upper.num_vars());
    assert!(
        on.implies(upper),
        "on-set must be contained in the upper bound"
    );
    isop_interval(on, upper)
}

/// Returns the number of cubes an irredundant cover of `tt` would have
/// without materialising the cover.
pub fn isop_cover_size(tt: &TruthTable) -> usize {
    isop(tt).num_cubes()
}

/// Covers the interval `[lower, upper]` (same variable count,
/// `lower ⊆ upper`).
fn isop_interval(lower: &TruthTable, upper: &TruthTable) -> Sop {
    let num_vars = lower.num_vars();
    let mut cubes = Vec::new();
    if num_vars <= 6 {
        isop_word(stretch(lower), stretch(upper), num_vars, &mut cubes);
    } else {
        // the root cover, then three blocks per level; every level's block
        // is at most half its parent's, so the levels fit in twice the
        // largest one
        let words = lower.words().len();
        let mut buffer = vec![0u64; 4 * words];
        let (cover, scratch) = buffer.split_at_mut(words);
        isop_block(
            lower.words(),
            upper.words(),
            num_vars,
            cover,
            scratch,
            &mut cubes,
        );
    }
    Sop::from_cubes(num_vars, cubes)
}

/// Replicates a table of at most 6 variables across one word, so the
/// variables it lacks are don't-cares and "all ones" is `u64::MAX`.
fn stretch(tt: &TruthTable) -> u64 {
    let mut word = tt.words()[0];
    for v in tt.num_vars()..6 {
        word |= word << (1 << v);
    }
    word
}

/// Adds the literal `x_var` (or `¬x_var`) to every cube of `cubes`.
fn stamp(cubes: &mut [Cube], var: usize, positive: bool) {
    for cube in cubes {
        *cube = cube.with_literal(var, positive);
    }
}

/// One-word recursion.  `lower` is the set of minterms that still must be
/// covered, `upper` the set that may be covered, both stretched words;
/// splitting is restricted to variables `< limit ≤ 6`.  New cubes are
/// appended to `cubes`; the return value is the function they realise.
fn isop_word(lower: u64, upper: u64, limit: usize, cubes: &mut Vec<Cube>) -> u64 {
    if lower == 0 {
        return 0;
    }
    if upper == u64::MAX {
        cubes.push(Cube::tautology());
        return u64::MAX;
    }
    // the highest variable below `limit` on which lower or upper depends
    let Some(var) = (0..limit)
        .rev()
        .find(|&v| word_depends_on(lower, v) || word_depends_on(upper, v))
    else {
        // lower is non-zero and constant w.r.t. the remaining variables
        cubes.push(Cube::tautology());
        return u64::MAX;
    };
    let shift = 1 << var;
    let high = VAR_MASKS[var];
    let cofactor0 = |w: u64| (w & !high) | ((w & !high) << shift);
    let cofactor1 = |w: u64| (w & high) | ((w & high) >> shift);
    let (l0, l1) = (cofactor0(lower), cofactor1(lower));
    let (u0, u1) = (cofactor0(upper), cofactor1(upper));

    // cubes that must contain literal ¬x_var
    let start = cubes.len();
    let g0 = isop_word(l0 & !u1, u0, var, cubes);
    stamp(&mut cubes[start..], var, false);
    // cubes that must contain literal x_var
    let start = cubes.len();
    let g1 = isop_word(l1 & !u0, u1, var, cubes);
    stamp(&mut cubes[start..], var, true);
    // remaining minterms, coverable without a literal on var
    let g_star = isop_word((l0 & !g0) | (l1 & !g1), u0 & u1, var, cubes);
    (!high & g0) | (high & g1) | g_star
}

/// Block recursion over `2^(limit-6)` words (`lower`, `upper` and `cover`
/// all have that length); for `limit ≤ 6` the block is one word and the
/// one-word recursion takes over.  Writes the function the new cubes
/// realise to `cover`.  `scratch` holds at least three words per block
/// word for the levels below.
fn isop_block(
    lower: &[u64],
    upper: &[u64],
    limit: usize,
    cover: &mut [u64],
    scratch: &mut [u64],
    cubes: &mut Vec<Cube>,
) {
    if limit <= 6 {
        cover[0] = isop_word(lower[0], upper[0], limit, cubes);
        return;
    }
    if lower.iter().all(|&w| w == 0) {
        cover.fill(0);
        return;
    }
    if upper.iter().all(|&w| w == u64::MAX) {
        cubes.push(Cube::tautology());
        cover.fill(u64::MAX);
        return;
    }
    // scanning down from the top, every variable above the candidate is
    // already known to be a don't-care, so the prefix holding one copy of
    // the candidate's two halves decides the dependence
    let Some(var) = (6..limit).rev().find(|&v| {
        let len = 2 << (v - 6);
        depends_on(&lower[..len], v) || depends_on(&upper[..len], v)
    }) else {
        // every word is the same function of the first 6 variables
        let word = isop_word(lower[0], upper[0], 6, cubes);
        cover.fill(word);
        return;
    };
    let half = 1 << (var - 6);
    let (l0, l1) = lower[..2 * half].split_at(half);
    let (u0, u1) = upper[..2 * half].split_at(half);
    let (next_lower, rest) = scratch.split_at_mut(half);
    let (next_upper, rest) = rest.split_at_mut(half);
    let (g_star, rest) = rest.split_at_mut(half);
    let (g0, g1) = cover[..2 * half].split_at_mut(half);

    // cubes that must contain literal ¬x_var
    for (n, (l, u)) in next_lower.iter_mut().zip(l0.iter().zip(u1)) {
        *n = l & !u;
    }
    let start = cubes.len();
    isop_block(next_lower, u0, var, g0, rest, cubes);
    stamp(&mut cubes[start..], var, false);
    // cubes that must contain literal x_var
    for (n, (l, u)) in next_lower.iter_mut().zip(l1.iter().zip(u0)) {
        *n = l & !u;
    }
    let start = cubes.len();
    isop_block(next_lower, u1, var, g1, rest, cubes);
    stamp(&mut cubes[start..], var, true);
    // remaining minterms, coverable without a literal on var
    for i in 0..half {
        next_lower[i] = (l0[i] & !g0[i]) | (l1[i] & !g1[i]);
        next_upper[i] = u0[i] & u1[i];
    }
    isop_block(next_lower, next_upper, var, g_star, rest, cubes);
    for i in 0..half {
        g0[i] |= g_star[i];
        g1[i] |= g_star[i];
    }
    // the cover does not depend on the variables above var
    let mut filled = 2 * half;
    while filled < cover.len() {
        cover.copy_within(..filled, filled);
        filled *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table-level Minato–Morreale recursion the word kernel replaced,
    /// kept as its oracle: it allocates a fresh [`TruthTable`] for every
    /// cofactor and operation, and the kernel must reproduce its cubes in
    /// order.
    ///
    /// `lower` is the set of minterms that still must be covered, `upper`
    /// the set of minterms that may be covered.  `var_limit` restricts
    /// splitting to variables `< var_limit`.  New cubes are appended to
    /// `cubes`; the return value is the function realised by those cubes
    /// together with the index range of cubes added (so callers can add
    /// literals to them).
    fn isop_rec(
        lower: &TruthTable,
        upper: &TruthTable,
        var_limit: usize,
        cubes: &mut Vec<Cube>,
    ) -> (TruthTable, std::ops::Range<usize>) {
        let start = cubes.len();
        if lower.is_zero() {
            return (TruthTable::zero(lower.num_vars()), start..start);
        }
        if *upper == TruthTable::one(upper.num_vars()) {
            cubes.push(Cube::tautology());
            return (TruthTable::one(lower.num_vars()), start..cubes.len());
        }

        // choose the highest variable below var_limit on which lower or
        // upper depends (by the cofactor definition, not the word test the
        // kernel shares with `has_var`)
        let depends = |tt: &TruthTable, v: usize| tt.cofactor0(v) != tt.cofactor1(v);
        let mut var = None;
        for v in (0..var_limit).rev() {
            if depends(lower, v) || depends(upper, v) {
                var = Some(v);
                break;
            }
        }
        let var = match var {
            Some(v) => v,
            None => {
                // lower is non-zero and constant w.r.t. remaining vars =>
                // cover it with a tautology
                cubes.push(Cube::tautology());
                return (TruthTable::one(lower.num_vars()), start..cubes.len());
            }
        };

        let l0 = lower.cofactor0(var);
        let l1 = lower.cofactor1(var);
        let u0 = upper.cofactor0(var);
        let u1 = upper.cofactor1(var);

        // cubes that must contain literal !x_var
        let (g0, range0) = isop_rec(&(&l0 & &!&u1), &u0, var, cubes);
        for cube in &mut cubes[range0.clone()] {
            *cube = cube.with_literal(var, false);
        }
        // cubes that must contain literal x_var
        let (g1, range1) = isop_rec(&(&l1 & &!&u0), &u1, var, cubes);
        for cube in &mut cubes[range1.clone()] {
            *cube = cube.with_literal(var, true);
        }

        // remaining minterms, coverable without a literal on var
        let new_lower = (&l0 & &!&g0) | (&l1 & &!&g1);
        let (g_star, _range2) = isop_rec(&new_lower, &(&u0 & &u1), var, cubes);

        let var_tt = TruthTable::nth_var(lower.num_vars(), var);
        let cover = (&!&var_tt & &g0) | (&var_tt & &g1) | g_star;
        debug_assert!(lower.implies(&cover));
        debug_assert!(cover.implies(upper));
        (cover, start..cubes.len())
    }

    fn reference_cubes(lower: &TruthTable, upper: &TruthTable) -> Vec<Cube> {
        let mut cubes = Vec::new();
        isop_rec(lower, upper, lower.num_vars(), &mut cubes);
        cubes
    }

    /// Asserts that the kernel covers `f` and `¬f` with exactly the
    /// oracle's cubes, in the oracle's order.
    fn assert_matches_reference(f: &TruthTable) {
        for g in [f.clone(), !f] {
            let cover = isop(&g);
            assert_eq!(
                cover.cubes(),
                reference_cubes(&g, &g).as_slice(),
                "cube lists differ for {g:?}"
            );
            assert_eq!(cover.num_vars(), g.num_vars());
        }
    }

    /// Deterministic 64-bit generator (SplitMix64).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn table(&mut self, num_vars: usize) -> TruthTable {
            let words = (0..TruthTable::word_count(num_vars))
                .map(|_| self.next())
                .collect();
            TruthTable::from_words(num_vars, words)
        }

        /// A function with structure: a random table with some variables
        /// cofactored away, or a short random cube cover, so covers are
        /// small and whole variables (and word blocks) are missing.
        fn structured(&mut self, num_vars: usize) -> TruthTable {
            if self.next() & 1 == 0 {
                let mut tt = self.table(num_vars);
                for v in 0..num_vars {
                    if self.next().is_multiple_of(3) {
                        tt = tt.cofactor1(v);
                    }
                }
                tt
            } else {
                let all = (1u64 << num_vars) - 1;
                let cubes = (0..1 + self.next() % 6)
                    .map(|_| {
                        let mask = self.next() & self.next() & all;
                        Cube::new(self.next() as u32, mask as u32)
                    })
                    .collect();
                Sop::from_cubes(num_vars, cubes).to_truth_table()
            }
        }
    }

    #[test]
    fn isop_constants() {
        assert_eq!(isop(&TruthTable::zero(4)).num_cubes(), 0);
        let one_cover = isop(&TruthTable::one(4));
        assert_eq!(one_cover.num_cubes(), 1);
        assert_eq!(one_cover.cubes()[0], Cube::tautology());
        for n in [0, 6, 7, 9] {
            assert_eq!(isop(&TruthTable::zero(n)).num_cubes(), 0);
            assert_eq!(isop(&TruthTable::one(n)).cubes(), &[Cube::tautology()]);
        }
    }

    #[test]
    fn isop_majority() {
        let maj = TruthTable::from_hex(3, "e8").unwrap();
        let cover = isop(&maj);
        assert_eq!(cover.num_cubes(), 3);
        assert_eq!(cover.to_truth_table(), maj);
    }

    #[test]
    fn isop_xor_needs_all_minterm_cubes() {
        let a = TruthTable::nth_var(3, 0);
        let b = TruthTable::nth_var(3, 1);
        let c = TruthTable::nth_var(3, 2);
        let xor3 = &(&a ^ &b) ^ &c;
        let cover = isop(&xor3);
        assert_eq!(cover.num_cubes(), 4);
        assert_eq!(cover.to_truth_table(), xor3);
    }

    #[test]
    fn isop_covers_random_functions() {
        // deterministic pseudo-random functions
        let mut state = 0x1234_5678_9abc_def0u64;
        for n in 1..=6 {
            for _ in 0..20 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let tt = TruthTable::from_words(n, vec![state]);
                let cover = isop(&tt);
                assert_eq!(cover.to_truth_table(), tt, "n={n} tt={tt}");
            }
        }
    }

    #[test]
    fn isop_large_variable_count() {
        let mut tt = TruthTable::nth_var(8, 7) & TruthTable::nth_var(8, 0);
        tt = tt | (TruthTable::nth_var(8, 3) & !TruthTable::nth_var(8, 5));
        let cover = isop(&tt);
        assert_eq!(cover.to_truth_table(), tt);
        assert!(cover.num_cubes() <= 4);
    }

    #[test]
    fn isop_with_dont_cares_interval() {
        // on = a&b, dc adds a&!b; a is a valid single-literal cover
        let a = TruthTable::nth_var(2, 0);
        let b = TruthTable::nth_var(2, 1);
        let on = &a & &b;
        let upper = a.clone();
        let cover = isop_with_dont_cares(&on, &upper);
        let f = cover.to_truth_table();
        assert!(on.implies(&f));
        assert!(f.implies(&upper));
        assert_eq!(cover.num_cubes(), 1);
    }

    #[test]
    fn cover_size_helper() {
        let maj = TruthTable::from_hex(3, "e8").unwrap();
        assert_eq!(isop_cover_size(&maj), 3);
    }

    #[test]
    #[should_panic]
    fn isop_with_dont_cares_rejects_non_interval() {
        let a = TruthTable::nth_var(2, 0);
        let b = TruthTable::nth_var(2, 1);
        let _ = isop_with_dont_cares(&a, &b);
    }

    #[test]
    fn kernel_matches_reference_on_every_function_of_up_to_3_inputs() {
        for n in 0..=3 {
            for bits in 0..1u64 << (1 << n) {
                assert_matches_reference(&TruthTable::from_bits(n, bits));
            }
        }
    }

    #[test]
    fn kernel_matches_reference_on_sampled_4_input_functions() {
        let mut rng = Rng(0x4150_0001);
        for _ in 0..4096 {
            assert_matches_reference(&TruthTable::from_bits(4, rng.next()));
        }
    }

    #[test]
    fn kernel_matches_reference_on_sampled_5_to_12_input_functions() {
        // (inputs, random tables, structured functions): the oracle's cost
        // grows about 2.5× per input on random tables
        let plan = [
            (5, 1000, 1000),
            (6, 500, 500),
            (7, 200, 300),
            (8, 100, 200),
            (9, 40, 120),
            (10, 16, 80),
            (11, 6, 40),
            (12, 3, 24),
        ];
        let mut rng = Rng(0x4150_0005);
        for (n, random, structured) in plan {
            for _ in 0..random {
                assert_matches_reference(&rng.table(n));
            }
            for _ in 0..structured {
                assert_matches_reference(&rng.structured(n));
            }
        }
    }

    #[test]
    fn kernel_matches_reference_on_dont_care_intervals() {
        let mut rng = Rng(0x4150_00dc);
        for n in 0..=10 {
            let samples = if n <= 6 { 300 } else { 100 };
            for i in 0..samples {
                let f = if i % 2 == 0 {
                    rng.table(n)
                } else {
                    rng.structured(n)
                };
                let dc = if i % 3 == 0 {
                    rng.structured(n)
                } else {
                    rng.table(n)
                };
                let (on, upper) = (&f & &!&dc, &f | &dc);
                let cover = isop_with_dont_cares(&on, &upper);
                assert_eq!(
                    cover.cubes(),
                    reference_cubes(&on, &upper).as_slice(),
                    "cube lists differ for [{on:?}, {upper:?}]"
                );
                let g = cover.to_truth_table();
                assert!(on.implies(&g) && g.implies(&upper));
            }
        }
    }

    #[test]
    fn kernel_covers_every_4_input_function() {
        for bits in 0..1u64 << 16 {
            let f = TruthTable::from_bits(4, bits);
            assert_eq!(isop(&f).to_truth_table(), f, "{f:?}");
        }
    }
}
