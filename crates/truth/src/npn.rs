//! NPN canonisation (negation–permutation–negation equivalence classes).
//!
//! Rewriting matches cut functions against a database of precomputed
//! optimal structures keyed by the NPN representative of the function.
//! [`npn_canonize`] returns the representative together with the
//! [`NpnTransform`] that maps the original function to it, so that a
//! database structure synthesised for the representative can be
//! instantiated on the original cut leaves.

use crate::table::VAR_MASKS;
use crate::TruthTable;

/// The transformation relating a function to its NPN representative.
///
/// The representative `c` satisfies
///
/// ```text
/// c(y_0, …, y_{n-1}) = out ^ f(in_0 ^ y_{perm[0]}, …, in_{n-1} ^ y_{perm[n-1]})
/// ```
///
/// where `in_i` is the input-negation flag of variable `i`, `out` the
/// output-negation flag and `perm` the permutation applied to the inputs
/// (input `i` of `f` is re-labelled to input `perm[i]` of `c`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NpnTransform {
    /// Input negation flags (bit `i` set means input `i` of the original
    /// function is complemented).
    pub input_negations: u32,
    /// Output negation flag.
    pub output_negation: bool,
    /// Input permutation: input `i` of the original function becomes input
    /// `perm[i]` of the representative.
    pub perm: Vec<usize>,
}

impl NpnTransform {
    /// The identity transform over `num_vars` variables.
    pub fn identity(num_vars: usize) -> Self {
        Self {
            input_negations: 0,
            output_negation: false,
            perm: (0..num_vars).collect(),
        }
    }

    /// Returns `true` if input `i` is negated by the transform.
    #[inline]
    pub fn input_negated(&self, i: usize) -> bool {
        (self.input_negations >> i) & 1 == 1
    }

    /// Applies the transform to `f`, producing the representative.
    pub fn apply(&self, f: &TruthTable) -> TruthTable {
        let mut t = f.clone();
        for i in 0..f.num_vars() {
            if self.input_negated(i) {
                t = t.flip(i);
            }
        }
        t = t.permute(&self.perm);
        if self.output_negation {
            t = !t;
        }
        t
    }

    /// Applies the inverse transform, recovering the original function from
    /// the representative.
    pub fn apply_inverse(&self, c: &TruthTable) -> TruthTable {
        let mut t = c.clone();
        if self.output_negation {
            t = !t;
        }
        // invert the permutation
        let mut inv = vec![0usize; self.perm.len()];
        for (i, &p) in self.perm.iter().enumerate() {
            inv[p] = i;
        }
        t = t.permute(&inv);
        for i in 0..t.num_vars() {
            if self.input_negated(i) {
                t = t.flip(i);
            }
        }
        t
    }
}

/// Complements variable `var` of a one-word truth table.
#[inline]
fn flip_var(word: u64, var: usize) -> u64 {
    let shift = 1 << var;
    ((word & VAR_MASKS[var]) >> shift) | ((word & !VAR_MASKS[var]) << shift)
}

/// Exchanges variables `a` and `b` of a one-word truth table (a delta
/// swap: every minterm with `x_a = 1, x_b = 0` trades places with its
/// partner that has `x_a = 0, x_b = 1`).
#[inline]
fn swap_vars(word: u64, a: usize, b: usize) -> u64 {
    let (a, b) = (a.min(b), a.max(b));
    let shift = (1 << b) - (1 << a);
    let delta = ((word >> shift) ^ word) & VAR_MASKS[a] & !VAR_MASKS[b];
    word ^ delta ^ (delta << shift)
}

/// State of the exhaustive search of [`npn_canonize_exact`], kept in
/// registers and one stack array: no transform or table is allocated
/// until the winner is known.
struct ExactSearch {
    num_vars: usize,
    /// The `2^num_vars` valid bits of a table.
    mask: u64,
    /// The current permutation and `permute(f, perm)` under it.
    perm: [usize; 6],
    permuted: u64,
    /// `negated[neg]` is the permuted table with the inputs in `neg`
    /// complemented, filled in ascending `neg` order.
    negated: [u64; 64],
    best: u64,
    best_perm: [usize; 6],
    best_negations: u32,
    best_output_negation: bool,
}

impl ExactSearch {
    /// Walks the permutations in the order of Heap's algorithm (as the
    /// recursive variant that swaps after every sub-walk, including the
    /// last), updating `permuted` with one variable swap per position swap.
    fn walk(&mut self, k: usize) {
        if k <= 1 {
            self.visit();
            return;
        }
        for i in 0..k {
            self.walk(k - 1);
            let j = if k.is_multiple_of(2) { i } else { 0 };
            if j != k - 1 {
                self.permuted = swap_vars(self.permuted, self.perm[j], self.perm[k - 1]);
                self.perm.swap(j, k - 1);
            }
        }
    }

    /// Tries every input negation (ascending) and both output polarities
    /// of the current permutation.  Flipping input `i` before permuting
    /// equals flipping variable `perm[i]` after it, so each negation set
    /// is one flip away from the set without its lowest input.
    fn visit(&mut self) {
        for neg in 0..1usize << self.num_vars {
            let word = if neg == 0 {
                self.permuted
            } else {
                let lowest = neg.trailing_zeros() as usize;
                flip_var(self.negated[neg & (neg - 1)], self.perm[lowest])
            };
            self.negated[neg] = word;
            for (output_negation, candidate) in [(false, word), (true, !word & self.mask)] {
                if candidate < self.best {
                    self.best = candidate;
                    self.best_perm = self.perm;
                    self.best_negations = neg as u32;
                    self.best_output_negation = output_negation;
                }
            }
        }
    }
}

/// Exact NPN canonisation by exhaustive enumeration of all input
/// permutations, input negations and output negation.
///
/// The representative is the lexicographically smallest truth table in the
/// NPN class.  Transforms are tried permutation by permutation (in the
/// order of Heap's algorithm), then by ascending input-negation mask, then
/// output polarity (plain first), and a candidate replaces the best only
/// when it is strictly smaller, so the returned transform is the first one
/// in that order reaching the minimum.  The search works on one masked
/// `u64` word without allocating: each permutation is derived from the
/// previous one by variable swaps and each negation set by a single
/// mask-and-shift, so a 4-input function costs 768 word comparisons.
///
/// # Panics
///
/// Panics if `tt` has more than 6 variables.
pub fn npn_canonize_exact(tt: &TruthTable) -> (TruthTable, NpnTransform) {
    let n = tt.num_vars();
    assert!(
        n <= 6,
        "exact NPN canonisation supports at most 6 variables"
    );
    let word = tt.words()[0];
    let identity = [0, 1, 2, 3, 4, 5];
    let mut search = ExactSearch {
        num_vars: n,
        mask: u64::MAX >> (64 - (1 << n)),
        perm: identity,
        permuted: word,
        negated: [0; 64],
        best: word,
        best_perm: identity,
        best_negations: 0,
        best_output_negation: false,
    };
    search.walk(n);
    (
        TruthTable::from_bits(n, search.best),
        NpnTransform {
            input_negations: search.best_negations,
            output_negation: search.best_output_negation,
            perm: search.best_perm[..n].to_vec(),
        },
    )
}

/// Heuristic NPN canonisation by greedy sifting: repeatedly applies single
/// input/output negations and adjacent swaps as long as they reduce the
/// table lexicographically.  The result is a class member, not necessarily
/// the class minimum, but is deterministic and consistent for hashing.
pub fn npn_canonize_sift(tt: &TruthTable) -> (TruthTable, NpnTransform) {
    let n = tt.num_vars();
    let mut current = tt.clone();
    let mut transform = NpnTransform::identity(n);
    let mut improved = true;
    while improved {
        improved = false;
        // output negation
        let candidate = !&current;
        if candidate < current {
            current = candidate;
            transform.output_negation = !transform.output_negation;
            improved = true;
        }
        // input negations
        for i in 0..n {
            let candidate = current.flip(i);
            if candidate < current {
                current = candidate;
                // flipping representative input i corresponds to toggling the
                // negation of the original input mapped to i
                for (orig, &p) in transform.perm.iter().enumerate() {
                    if p == i {
                        transform.input_negations ^= 1 << orig;
                    }
                }
                improved = true;
            }
        }
        // adjacent swaps
        for i in 0..n.saturating_sub(1) {
            let candidate = current.swap_adjacent(i);
            if candidate < current {
                current = candidate;
                for p in &mut transform.perm {
                    if *p == i {
                        *p = i + 1;
                    } else if *p == i + 1 {
                        *p = i;
                    }
                }
                improved = true;
            }
        }
    }
    (current, transform)
}

/// NPN canonisation: exact for functions of up to six variables, greedy
/// sifting otherwise.
///
/// Returns the representative and the transform such that
/// `transform.apply(tt)` equals the representative.
///
/// # Example
///
/// ```
/// use glsx_truth::{npn_canonize, TruthTable};
///
/// let f = TruthTable::from_hex(3, "d4")?; // some 3-input function
/// let (canon, transform) = npn_canonize(&f);
/// assert_eq!(transform.apply(&f), canon);
/// assert_eq!(transform.apply_inverse(&canon), f);
/// # Ok::<(), glsx_truth::ParseTruthTableError>(())
/// ```
pub fn npn_canonize(tt: &TruthTable) -> (TruthTable, NpnTransform) {
    if tt.num_vars() <= 6 {
        npn_canonize_exact(tt)
    } else {
        npn_canonize_sift(tt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_functions(num_vars: usize) -> impl Iterator<Item = TruthTable> {
        let bits = 1usize << num_vars;
        (0u64..(1u64 << bits)).map(move |v| TruthTable::from_bits(num_vars, v))
    }

    /// The exhaustive enumeration that [`npn_canonize_exact`] replaced,
    /// kept as its oracle: every transform is materialised as an
    /// [`NpnTransform`] and applied to a fresh table, in the kernel's
    /// order and with its strict tie-break.
    fn reference_canonize(tt: &TruthTable) -> (TruthTable, NpnTransform) {
        let n = tt.num_vars();
        let mut best = tt.clone();
        let mut best_transform = NpnTransform::identity(n);
        for perm in permutations(n) {
            for neg in 0u32..(1 << n) {
                for out in [false, true] {
                    let transform = NpnTransform {
                        input_negations: neg,
                        output_negation: out,
                        perm: perm.clone(),
                    };
                    let candidate = transform.apply(tt);
                    if candidate < best {
                        best = candidate;
                        best_transform = transform;
                    }
                }
            }
        }
        (best, best_transform)
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        let mut result = Vec::new();
        let mut items: Vec<usize> = (0..n).collect();
        heap_permute(&mut items, n, &mut result);
        result
    }

    fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap_permute(items, k - 1, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }

    /// SplitMix64, so the sampled oracle comparisons are reproducible.
    fn next_random(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The totally symmetric function whose value on an input of weight
    /// `w` is bit `w` of `spectrum`: the functions with the most
    /// transforms tying for the minimum, which exercise the tie-break.
    fn symmetric(num_vars: usize, spectrum: u64) -> TruthTable {
        let mut bits = 0u64;
        for m in 0..1u64 << num_vars {
            bits |= ((spectrum >> m.count_ones()) & 1) << m;
        }
        TruthTable::from_bits(num_vars, bits)
    }

    /// `count` seeded random functions plus every totally symmetric one
    /// whose spectrum index is a multiple of `symmetric_stride`.
    fn sample(num_vars: usize, count: usize, symmetric_stride: u64, seed: u64) -> Vec<TruthTable> {
        let mut state = seed;
        let mut functions: Vec<TruthTable> = (0..count)
            .map(|_| TruthTable::from_bits(num_vars, next_random(&mut state)))
            .collect();
        functions.extend(
            (0..1u64 << (num_vars + 1))
                .step_by(symmetric_stride as usize)
                .map(|spectrum| symmetric(num_vars, spectrum)),
        );
        functions
    }

    fn assert_matches_reference(functions: impl IntoIterator<Item = TruthTable>) {
        for f in functions {
            assert_eq!(npn_canonize_exact(&f), reference_canonize(&f), "{f:?}");
        }
    }

    #[test]
    fn heap_order_visits_every_permutation_once() {
        let mut factorial = 1;
        for n in 0..=6 {
            factorial *= n.max(1);
            let perms = permutations(n);
            let distinct: std::collections::HashSet<_> = perms.iter().collect();
            assert_eq!((perms.len(), distinct.len()), (factorial, factorial));
        }
    }

    #[test]
    fn kernel_matches_reference_on_every_function_of_up_to_3_inputs() {
        for n in 0..=3 {
            assert_matches_reference(all_functions(n));
        }
    }

    #[test]
    fn kernel_matches_reference_on_sampled_4_input_functions() {
        assert_matches_reference(sample(4, 4096, 1, 0x4e50_4e04));
    }

    #[test]
    fn kernel_matches_reference_on_sampled_5_and_6_input_functions() {
        assert_matches_reference(sample(5, 160, 4, 0x4e50_4e05));
        assert_matches_reference(sample(6, 6, 32, 0x4e50_4e06));
    }

    #[test]
    fn all_4_input_functions_fall_into_222_classes() {
        let mut classes = std::collections::HashSet::new();
        for f in all_functions(4) {
            let (canon, t) = npn_canonize_exact(&f);
            assert_eq!(t.apply(&f), canon);
            assert_eq!(t.apply_inverse(&canon), f);
            classes.insert(canon);
        }
        assert_eq!(classes.len(), 222);
    }

    #[test]
    fn transform_roundtrip() {
        let f = TruthTable::from_hex(4, "cafe").unwrap();
        let (canon, t) = npn_canonize(&f);
        assert_eq!(t.apply(&f), canon);
        assert_eq!(t.apply_inverse(&canon), f);
    }

    #[test]
    fn canon_is_invariant_over_class_members_3vars() {
        // All members of an NPN class must canonise to the same representative.
        let f = TruthTable::from_hex(3, "e8").unwrap();
        let (canon, _) = npn_canonize(&f);
        for neg in 0u32..8 {
            for out in [false, true] {
                let t = NpnTransform {
                    input_negations: neg,
                    output_negation: out,
                    perm: vec![1, 2, 0],
                };
                let member = t.apply(&f);
                let (canon2, t2) = npn_canonize(&member);
                assert_eq!(canon, canon2);
                assert_eq!(t2.apply_inverse(&canon2), member);
            }
        }
    }

    #[test]
    fn two_var_class_count() {
        // There are exactly 4 NPN classes of 2-variable functions.
        let mut classes = std::collections::HashSet::new();
        for f in all_functions(2) {
            let (canon, t) = npn_canonize(&f);
            assert_eq!(t.apply(&f), canon);
            classes.insert(canon);
        }
        assert_eq!(classes.len(), 4);
    }

    #[test]
    fn three_var_class_count() {
        // There are 14 NPN classes of 3-variable functions.
        let mut classes = std::collections::HashSet::new();
        for f in all_functions(3) {
            let (canon, _) = npn_canonize(&f);
            classes.insert(canon);
        }
        assert_eq!(classes.len(), 14);
    }

    #[test]
    fn sift_produces_class_member() {
        let f = TruthTable::from_hex(4, "1ee1").unwrap().extend_to(7);
        let (canon, t) = npn_canonize_sift(&f);
        assert_eq!(t.apply(&f), canon);
        assert_eq!(t.apply_inverse(&canon), f);
    }

    #[test]
    fn identity_transform_is_noop() {
        let f = TruthTable::from_hex(4, "8241").unwrap();
        let id = NpnTransform::identity(4);
        assert_eq!(id.apply(&f), f);
        assert_eq!(id.apply_inverse(&f), f);
    }
}
