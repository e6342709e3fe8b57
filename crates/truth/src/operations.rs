//! Boolean operations, cofactors and variable manipulations on
//! [`TruthTable`]s.

use crate::table::{TruthTable, VAR_MASKS};
use std::ops::{BitAnd, BitOr, BitXor, Not};

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: &TruthTable) -> TruthTable {
                assert_eq!(
                    self.num_vars, rhs.num_vars,
                    "truth tables must have the same number of variables"
                );
                let words = self
                    .words
                    .iter()
                    .zip(rhs.words.iter())
                    .map(|(a, b)| a $op b)
                    .collect();
                let mut tt = TruthTable { num_vars: self.num_vars, words };
                tt.mask_off_excess();
                tt
            }
        }

        impl $trait for TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: TruthTable) -> TruthTable {
                (&self).$method(&rhs)
            }
        }

        impl $trait<&TruthTable> for TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: &TruthTable) -> TruthTable {
                (&self).$method(rhs)
            }
        }

        impl $trait<TruthTable> for &TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: TruthTable) -> TruthTable {
                self.$method(&rhs)
            }
        }
    };
}

impl_binop!(BitAnd, bitand, &);
impl_binop!(BitOr, bitor, |);
impl_binop!(BitXor, bitxor, ^);

impl Not for &TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        let words = self.words.iter().map(|w| !w).collect();
        let mut tt = TruthTable {
            num_vars: self.num_vars,
            words,
        };
        tt.mask_off_excess();
        tt
    }
}

impl Not for TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        !&self
    }
}

/// Returns `true` if the one-word function `word` depends on variable
/// `var < 6`: its bits with `x_var = 1`, shifted onto the positions with
/// `x_var = 0`, differ from those.  Correct on masked tables of fewer than
/// 6 variables as well as on replicated ones.
#[inline]
pub(crate) fn word_depends_on(word: u64, var: usize) -> bool {
    let low = !VAR_MASKS[var];
    (word >> (1 << var)) & low != word & low
}

/// Returns `true` if the function stored in `words` depends on variable
/// `var`: within one word for `var < 6`, otherwise by comparing the low
/// and high halves of every block of `2^(var+1-6)` words.
#[inline]
pub(crate) fn depends_on(words: &[u64], var: usize) -> bool {
    if var < 6 {
        words.iter().any(|&w| word_depends_on(w, var))
    } else {
        let half = 1 << (var - 6);
        words
            .chunks_exact(2 * half)
            .any(|block| block[..half] != block[half..])
    }
}

impl TruthTable {
    /// Returns the negative cofactor of the function with respect to
    /// variable `var` (`f` with `x_var = 0`), as a function over the same
    /// variable count (the cofactored variable becomes a don't-care input).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn cofactor0(&self, var: usize) -> TruthTable {
        assert!(var < self.num_vars);
        let mut result = self.clone();
        if var < 6 {
            let shift = 1usize << var;
            for w in &mut result.words {
                let low = *w & !VAR_MASKS[var];
                *w = low | (low << shift);
            }
        } else {
            let period = 1usize << (var - 6);
            let n = result.words.len();
            for i in 0..n {
                if (i / period) & 1 == 1 {
                    result.words[i] = result.words[i - period];
                }
            }
        }
        result.mask_off_excess();
        result
    }

    /// Returns the positive cofactor of the function with respect to
    /// variable `var` (`f` with `x_var = 1`).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn cofactor1(&self, var: usize) -> TruthTable {
        assert!(var < self.num_vars);
        let mut result = self.clone();
        if var < 6 {
            let shift = 1usize << var;
            for w in &mut result.words {
                let high = *w & VAR_MASKS[var];
                *w = high | (high >> shift);
            }
        } else {
            let period = 1usize << (var - 6);
            let n = result.words.len();
            for i in 0..n {
                if (i / period) & 1 == 0 {
                    result.words[i] = result.words[i + period];
                }
            }
        }
        result.mask_off_excess();
        result
    }

    /// Returns `true` if the function functionally depends on variable
    /// `var` (i.e. the two cofactors differ).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn has_var(&self, var: usize) -> bool {
        assert!(var < self.num_vars);
        depends_on(&self.words, var)
    }

    /// Returns the set of variables the function depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.num_vars).filter(|&v| self.has_var(v)).collect()
    }

    /// Returns the number of variables in the functional support.
    pub fn support_size(&self) -> usize {
        (0..self.num_vars).filter(|&v| self.has_var(v)).count()
    }

    /// Complements (flips) input variable `var`, i.e. returns
    /// `f(x_0, …, ¬x_var, …)`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn flip(&self, var: usize) -> TruthTable {
        assert!(var < self.num_vars);
        let mut result = self.clone();
        if var < 6 {
            let shift = 1usize << var;
            for w in &mut result.words {
                let high = *w & VAR_MASKS[var];
                let low = *w & !VAR_MASKS[var];
                *w = (high >> shift) | (low << shift);
            }
        } else {
            let period = 1usize << (var - 6);
            let n = result.words.len();
            let mut i = 0;
            while i < n {
                for j in 0..period {
                    result.words.swap(i + j, i + j + period);
                }
                i += 2 * period;
            }
        }
        result
    }

    /// Swaps the roles of two adjacent variables `var` and `var + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `var + 1 >= num_vars`.
    pub fn swap_adjacent(&self, var: usize) -> TruthTable {
        assert!(var + 1 < self.num_vars);
        self.swap(var, var + 1)
    }

    /// Swaps the roles of variables `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn swap(&self, a: usize, b: usize) -> TruthTable {
        assert!(a < self.num_vars && b < self.num_vars);
        if a == b {
            return self.clone();
        }
        let mut result = TruthTable::zero(self.num_vars);
        for m in 0..self.num_bits() {
            if self.bit(m) {
                let bit_a = (m >> a) & 1;
                let bit_b = (m >> b) & 1;
                let mut m2 = m & !(1 << a) & !(1 << b);
                m2 |= bit_a << b;
                m2 |= bit_b << a;
                result.set_bit(m2, true);
            }
        }
        result
    }

    /// Permutes the input variables: the result `g` satisfies
    /// `g(x_{perm[0]}, …, x_{perm[n-1]}) = f(x_0, …, x_{n-1})`; concretely,
    /// input `i` of `f` is re-labelled to input `perm[i]` of the result.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_vars`.
    pub fn permute(&self, perm: &[usize]) -> TruthTable {
        assert_eq!(perm.len(), self.num_vars);
        let mut seen = vec![false; self.num_vars];
        for &p in perm {
            assert!(p < self.num_vars && !seen[p], "perm must be a permutation");
            seen[p] = true;
        }
        let mut result = TruthTable::zero(self.num_vars);
        for m in 0..self.num_bits() {
            if self.bit(m) {
                let mut m2 = 0usize;
                for (i, &p) in perm.iter().enumerate() {
                    if (m >> i) & 1 == 1 {
                        m2 |= 1 << p;
                    }
                }
                result.set_bit(m2, true);
            }
        }
        result
    }

    /// Extends the function to a larger variable count; the new variables
    /// are don't-cares.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars < self.num_vars()`.
    pub fn extend_to(&self, num_vars: usize) -> TruthTable {
        assert!(num_vars >= self.num_vars);
        if num_vars == self.num_vars {
            return self.clone();
        }
        let mut result = TruthTable::zero(num_vars);
        let bits = self.num_bits();
        for m in 0..result.num_bits() {
            if self.bit(m % bits) {
                result.set_bit(m, true);
            }
        }
        result
    }

    /// Shrinks the function to a smaller variable count, keeping the
    /// projection onto the first `num_vars` variables.  The function must
    /// not depend on any removed variable.
    ///
    /// # Panics
    ///
    /// Panics if the function depends on a removed variable.
    pub fn shrink_to(&self, num_vars: usize) -> TruthTable {
        assert!(num_vars <= self.num_vars);
        for v in num_vars..self.num_vars {
            assert!(!self.has_var(v), "function depends on removed variable {v}");
        }
        let mut result = TruthTable::zero(num_vars);
        for m in 0..result.num_bits() {
            if self.bit(m) {
                result.set_bit(m, true);
            }
        }
        result
    }

    /// Returns `true` if `self` implies `other` (i.e. `self & !other == 0`).
    pub fn implies(&self, other: &TruthTable) -> bool {
        assert_eq!(self.num_vars, other.num_vars);
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if the two functions are equal up to output
    /// complementation.
    pub fn equal_up_to_complement(&self, other: &TruthTable) -> bool {
        self == other || *self == !other
    }

    /// Computes the ternary if-then-else `cond ? then_tt : else_tt`.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different variable counts.
    pub fn ite(cond: &TruthTable, then_tt: &TruthTable, else_tt: &TruthTable) -> TruthTable {
        (cond & then_tt) | (&!cond & else_tt)
    }

    /// Computes the majority of three functions.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different variable counts.
    pub fn maj(a: &TruthTable, b: &TruthTable, c: &TruthTable) -> TruthTable {
        (a & b) | (b & c) | (a & c)
    }

    /// Returns `true` if the function is positive unate in `var`
    /// (cofactor0 implies cofactor1).
    pub fn is_positive_unate(&self, var: usize) -> bool {
        self.cofactor0(var).implies(&self.cofactor1(var))
    }

    /// Returns `true` if the function is negative unate in `var`
    /// (cofactor1 implies cofactor0).
    pub fn is_negative_unate(&self, var: usize) -> bool {
        self.cofactor1(var).implies(&self.cofactor0(var))
    }

    /// Returns `true` if the function is binate (not unate) in `var`.
    pub fn is_binate(&self, var: usize) -> bool {
        !self.is_positive_unate(var) && !self.is_negative_unate(var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn maj3() -> TruthTable {
        TruthTable::from_hex(3, "e8").unwrap()
    }

    #[test]
    fn binary_operations() {
        let a = TruthTable::nth_var(3, 0);
        let b = TruthTable::nth_var(3, 1);
        let c = TruthTable::nth_var(3, 2);
        assert_eq!(TruthTable::maj(&a, &b, &c), maj3());
        assert_eq!((&a ^ &a), TruthTable::zero(3));
        assert_eq!((&a | &!&a), TruthTable::one(3));
        assert_eq!((&a & &!&a), TruthTable::zero(3));
    }

    #[test]
    fn cofactors_of_majority() {
        let m = maj3();
        // maj(0, b, c) = b & c; maj(1, b, c) = b | c
        let b = TruthTable::nth_var(3, 1);
        let c = TruthTable::nth_var(3, 2);
        assert_eq!(m.cofactor0(0), &b & &c);
        assert_eq!(m.cofactor1(0), &b | &c);
    }

    #[test]
    fn cofactors_high_vars() {
        let tt = TruthTable::nth_var(8, 7);
        assert!(tt.cofactor0(7).is_zero());
        assert!(tt.cofactor1(7).is_one());
        let other = TruthTable::nth_var(8, 2);
        assert_eq!(other.cofactor0(7), other);
        assert_eq!(other.cofactor1(7), other);
    }

    #[test]
    fn has_var_matches_the_cofactor_definition() {
        let mut state = 0x6a09_e667_f3bc_c908u64;
        for n in 0..=9 {
            for sample in 0..40 {
                let words = (0..TruthTable::word_count(n))
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state
                    })
                    .collect();
                let mut tt = TruthTable::from_words(n, words);
                // erase some variables so both answers occur at every index
                for v in 0..n {
                    if (sample >> (v % 5)) & 1 == 1 {
                        tt = tt.cofactor0(v);
                    }
                }
                // and confine the function to the top half, so a dependence
                // shows in the high words (or bits) only
                let confined = if n > 0 && sample % 2 == 1 {
                    &tt & &TruthTable::nth_var(n, n - 1)
                } else {
                    tt
                };
                for v in 0..n {
                    assert_eq!(
                        confined.has_var(v),
                        confined.cofactor0(v) != confined.cofactor1(v),
                        "n={n} v={v} tt={confined:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn support_detection() {
        let m = maj3();
        assert_eq!(m.support(), vec![0, 1, 2]);
        assert_eq!(m.support_size(), 3);
        let x1 = TruthTable::nth_var(4, 1);
        assert_eq!(x1.support(), vec![1]);
        assert!(TruthTable::zero(5).support().is_empty());
    }

    #[test]
    fn flip_involution() {
        let m = maj3();
        for v in 0..3 {
            assert_eq!(m.flip(v).flip(v), m);
        }
        // Majority is self-dual: flipping all inputs complements it.
        assert_eq!(m.flip(0).flip(1).flip(2), !&m);
    }

    #[test]
    fn flip_high_vars() {
        let tt = TruthTable::nth_var(7, 6);
        assert_eq!(tt.flip(6), !&tt);
        assert_eq!(tt.flip(6).flip(6), tt);
    }

    #[test]
    fn swap_symmetry() {
        let m = maj3();
        // majority is totally symmetric
        assert_eq!(m.swap(0, 1), m);
        assert_eq!(m.swap(0, 2), m);
        let a = TruthTable::nth_var(3, 0);
        assert_eq!(a.swap(0, 2), TruthTable::nth_var(3, 2));
        assert_eq!(a.swap_adjacent(0), TruthTable::nth_var(3, 1));
    }

    #[test]
    fn permute_identity_and_rotation() {
        let m = maj3();
        assert_eq!(m.permute(&[0, 1, 2]), m);
        let a = TruthTable::nth_var(3, 0);
        let rotated = a.permute(&[1, 2, 0]);
        assert_eq!(rotated, TruthTable::nth_var(3, 1));
    }

    #[test]
    fn extend_and_shrink() {
        let m = maj3();
        let ext = m.extend_to(6);
        assert_eq!(ext.support_size(), 3);
        assert_eq!(ext.shrink_to(3), m);
        assert!(!ext.has_var(5));
    }

    #[test]
    #[should_panic]
    fn shrink_depends_on_removed_var() {
        let tt = TruthTable::nth_var(4, 3);
        let _ = tt.shrink_to(3);
    }

    #[test]
    fn unateness() {
        let m = maj3();
        for v in 0..3 {
            assert!(m.is_positive_unate(v));
            assert!(!m.is_negative_unate(v));
            assert!(!m.is_binate(v));
        }
        let xor = TruthTable::nth_var(2, 0) ^ TruthTable::nth_var(2, 1);
        assert!(xor.is_binate(0));
        assert!(xor.is_binate(1));
    }

    #[test]
    fn ite_matches_definition() {
        let a = TruthTable::nth_var(3, 0);
        let b = TruthTable::nth_var(3, 1);
        let c = TruthTable::nth_var(3, 2);
        let ite = TruthTable::ite(&a, &b, &c);
        for m in 0..8 {
            let expected = if a.bit(m) { b.bit(m) } else { c.bit(m) };
            assert_eq!(ite.bit(m), expected);
        }
    }

    #[test]
    fn implies_relation() {
        let a = TruthTable::nth_var(2, 0);
        let b = TruthTable::nth_var(2, 1);
        let and = &a & &b;
        let or = &a | &b;
        assert!(and.implies(&or));
        assert!(!or.implies(&and));
        assert!(and.implies(&and));
    }
}
