//! The [`TruthTable`] data structure.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Bit patterns of the first six projection variables within a single
/// 64-bit word.  Variable `i` toggles with period `2^i`.
pub(crate) const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A complete truth table of a Boolean function over `num_vars` variables.
///
/// The table stores `2^num_vars` bits packed into 64-bit words; bit `m` of
/// the table is the function value under the input assignment whose binary
/// encoding is `m` (variable 0 is the least-significant input).
///
/// Truth tables are value types: they implement [`Clone`], [`PartialEq`],
/// [`Hash`] and the bitwise operators `&`, `|`, `^` and `!` (on references
/// and by value).
///
/// # Example
///
/// ```
/// use glsx_truth::TruthTable;
///
/// let x0 = TruthTable::nth_var(2, 0);
/// let x1 = TruthTable::nth_var(2, 1);
/// let and = &x0 & &x1;
/// assert_eq!(and.count_ones(), 1);
/// assert!(and.bit(3));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable {
    pub(crate) num_vars: usize,
    pub(crate) words: Vec<u64>,
}

/// Error returned when parsing a truth table from a hexadecimal or binary
/// string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTruthTableError {
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseErrorKind {
    InvalidCharacter(char),
    InvalidLength(usize),
}

impl fmt::Display for ParseTruthTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseErrorKind::InvalidCharacter(c) => {
                write!(f, "invalid character `{c}` in truth table literal")
            }
            ParseErrorKind::InvalidLength(len) => {
                write!(f, "truth table literal length {len} is not a power of two")
            }
        }
    }
}

impl Error for ParseTruthTableError {}

impl TruthTable {
    /// Number of 64-bit words needed for a table over `num_vars` variables.
    #[inline]
    pub(crate) fn word_count(num_vars: usize) -> usize {
        if num_vars <= 6 {
            1
        } else {
            1 << (num_vars - 6)
        }
    }

    /// Creates the constant-zero function over `num_vars` variables.
    pub fn zero(num_vars: usize) -> Self {
        Self {
            num_vars,
            words: vec![0; Self::word_count(num_vars)],
        }
    }

    /// Creates the constant-one function over `num_vars` variables.
    pub fn one(num_vars: usize) -> Self {
        let mut tt = Self::zero(num_vars);
        for w in &mut tt.words {
            *w = u64::MAX;
        }
        tt.mask_off_excess();
        tt
    }

    /// Creates the projection function of variable `var` over `num_vars`
    /// variables (`f(x) = x_var`).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn nth_var(num_vars: usize, var: usize) -> Self {
        assert!(
            var < num_vars,
            "variable index {var} out of range for {num_vars} variables"
        );
        let mut tt = Self::zero(num_vars);
        if var < 6 {
            for w in &mut tt.words {
                *w = VAR_MASKS[var];
            }
        } else {
            let period = 1usize << (var - 6);
            for (i, w) in tt.words.iter_mut().enumerate() {
                if (i / period) & 1 == 1 {
                    *w = u64::MAX;
                }
            }
        }
        tt.mask_off_excess();
        tt
    }

    /// Creates a truth table from raw words.  Excess bits beyond
    /// `2^num_vars` are masked off.
    pub fn from_words(num_vars: usize, words: Vec<u64>) -> Self {
        let mut words = words;
        words.resize(Self::word_count(num_vars), 0);
        let mut tt = Self { num_vars, words };
        tt.mask_off_excess();
        tt
    }

    /// Overwrites this table in place with a function over `num_vars`
    /// variables whose bits are given as raw words, reusing the existing
    /// word buffer — the allocation-free counterpart of
    /// [`TruthTable::from_words`] for hot paths that re-fill one table per
    /// candidate.  Excess bits beyond `2^num_vars` are masked off; missing
    /// words read as zero.
    pub fn assign_words(&mut self, num_vars: usize, words: &[u64]) {
        let count = Self::word_count(num_vars);
        self.num_vars = num_vars;
        self.words.clear();
        self.words
            .extend_from_slice(&words[..count.min(words.len())]);
        self.words.resize(count, 0);
        self.mask_off_excess();
    }

    /// Creates a truth table over at most 6 variables from the low
    /// `2^num_vars` bits of `bits`.
    pub fn from_bits(num_vars: usize, bits: u64) -> Self {
        assert!(num_vars <= 6, "from_bits supports at most 6 variables");
        let mut tt = Self::zero(num_vars);
        tt.words[0] = bits;
        tt.mask_off_excess();
        tt
    }

    /// Parses a truth table from a hexadecimal string (most-significant
    /// nibble first), e.g. `"e8"` for the 3-input majority function.
    ///
    /// # Errors
    ///
    /// Returns an error if the string contains non-hexadecimal characters
    /// or its length is not `max(1, 2^(n-2))` for some `n`.
    pub fn from_hex(num_vars: usize, hex: &str) -> Result<Self, ParseTruthTableError> {
        let expected = if num_vars < 2 {
            1
        } else {
            1usize << (num_vars - 2)
        };
        if hex.len() != expected {
            return Err(ParseTruthTableError {
                kind: ParseErrorKind::InvalidLength(hex.len()),
            });
        }
        let mut tt = Self::zero(num_vars);
        for (i, c) in hex.chars().rev().enumerate() {
            let v = c.to_digit(16).ok_or(ParseTruthTableError {
                kind: ParseErrorKind::InvalidCharacter(c),
            })? as u64;
            let word = (i * 4) / 64;
            let off = (i * 4) % 64;
            tt.words[word] |= v << off;
        }
        tt.mask_off_excess();
        Ok(tt)
    }

    /// Parses a truth table from a binary string (most-significant bit
    /// first), e.g. `"11101000"` for the 3-input majority function.
    ///
    /// # Errors
    ///
    /// Returns an error if the string contains characters other than `0`
    /// and `1` or its length is not `2^num_vars`.
    pub fn from_binary(num_vars: usize, bin: &str) -> Result<Self, ParseTruthTableError> {
        if bin.len() != 1usize << num_vars {
            return Err(ParseTruthTableError {
                kind: ParseErrorKind::InvalidLength(bin.len()),
            });
        }
        let mut tt = Self::zero(num_vars);
        for (i, c) in bin.chars().rev().enumerate() {
            match c {
                '0' => {}
                '1' => tt.words[i / 64] |= 1u64 << (i % 64),
                other => {
                    return Err(ParseTruthTableError {
                        kind: ParseErrorKind::InvalidCharacter(other),
                    })
                }
            }
        }
        Ok(tt)
    }

    /// Returns the number of variables of the function.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Returns the number of bits (`2^num_vars`) of the table.
    #[inline]
    pub fn num_bits(&self) -> usize {
        1usize << self.num_vars
    }

    /// Returns the backing words of the table.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns mutable access to the backing words.  Excess bits must be
    /// kept zero by the caller; use [`TruthTable::normalize`] afterwards if
    /// unsure.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Clears any bits beyond `2^num_vars` (useful after manipulating the
    /// raw words).
    pub fn normalize(&mut self) {
        self.mask_off_excess();
    }

    /// Returns the value of bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^num_vars`.
    #[inline]
    pub fn bit(&self, index: usize) -> bool {
        assert!(index < self.num_bits());
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets the value of bit `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^num_vars`.
    #[inline]
    pub fn set_bit(&mut self, index: usize, value: bool) {
        assert!(index < self.num_bits());
        if value {
            self.words[index / 64] |= 1u64 << (index % 64);
        } else {
            self.words[index / 64] &= !(1u64 << (index % 64));
        }
    }

    /// Returns the number of one-bits (the size of the on-set).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns the number of zero-bits (the size of the off-set).
    pub fn count_zeros(&self) -> usize {
        self.num_bits() - self.count_ones()
    }

    /// Returns `true` if the function is constant zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns `true` if the function is constant one.
    pub fn is_one(&self) -> bool {
        let full = Self::word_mask(self.num_vars);
        self.words.iter().all(|&w| w == full)
    }

    /// Returns `true` if the function is constant (zero or one).
    pub fn is_const(&self) -> bool {
        self.is_zero() || self.is_one()
    }

    /// Formats the table as a lower-case hexadecimal string,
    /// most-significant nibble first.
    pub fn to_hex(&self) -> String {
        let nibbles = if self.num_vars < 2 {
            1
        } else {
            1usize << (self.num_vars - 2)
        };
        let mut s = String::with_capacity(nibbles);
        for i in (0..nibbles).rev() {
            let word = (i * 4) / 64;
            let off = (i * 4) % 64;
            let v = (self.words[word] >> off) & 0xF;
            let v = if self.num_vars == 0 {
                v & 0x1
            } else if self.num_vars == 1 {
                v & 0x3
            } else {
                v
            };
            s.push(char::from_digit(v as u32, 16).expect("nibble in range"));
        }
        s
    }

    /// Formats the table as a binary string, most-significant bit first.
    pub fn to_binary(&self) -> String {
        let mut s = String::with_capacity(self.num_bits());
        for i in (0..self.num_bits()).rev() {
            s.push(if self.bit(i) { '1' } else { '0' });
        }
        s
    }

    /// The bits a table over `num_vars` variables uses in each word: all
    /// 64 from 6 variables on, the low `2^num_vars` below.
    #[inline]
    fn word_mask(num_vars: usize) -> u64 {
        if num_vars < 6 {
            (1u64 << (1 << num_vars)) - 1
        } else {
            u64::MAX
        }
    }

    #[inline]
    pub(crate) fn mask_off_excess(&mut self) {
        self.words[0] &= Self::word_mask(self.num_vars);
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars, 0x{})", self.num_vars, self.to_hex())
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl FromStr for TruthTable {
    type Err = ParseTruthTableError;

    /// Parses a hexadecimal truth-table literal; the number of variables is
    /// inferred from the string length (`len = 2^(n-2)`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let len = s.len();
        if !len.is_power_of_two() && len != 1 {
            return Err(ParseTruthTableError {
                kind: ParseErrorKind::InvalidLength(len),
            });
        }
        let num_vars = if len == 1 {
            2
        } else {
            len.trailing_zeros() as usize + 2
        };
        Self::from_hex(num_vars, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        for n in 0..10 {
            let z = TruthTable::zero(n);
            let o = TruthTable::one(n);
            assert!(z.is_zero());
            assert!(o.is_one());
            assert!(z.is_const());
            assert!(o.is_const());
            assert_eq!(z.count_ones(), 0);
            assert_eq!(o.count_ones(), 1 << n);
            assert_eq!(z.num_vars(), n);
            assert_eq!(z.num_bits(), 1 << n);
        }
    }

    #[test]
    fn nth_var_balanced() {
        for n in 1..10 {
            for v in 0..n {
                let tt = TruthTable::nth_var(n, v);
                assert_eq!(tt.count_ones(), 1 << (n - 1));
                // bit m is set iff bit v of m is set
                for m in 0..tt.num_bits() {
                    assert_eq!(tt.bit(m), (m >> v) & 1 == 1, "n={n} v={v} m={m}");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn nth_var_out_of_range() {
        let _ = TruthTable::nth_var(3, 3);
    }

    #[test]
    fn hex_roundtrip() {
        let maj = TruthTable::from_hex(3, "e8").unwrap();
        assert_eq!(maj.to_hex(), "e8");
        assert_eq!(maj.count_ones(), 4);
        let big = TruthTable::nth_var(8, 7);
        let hex = big.to_hex();
        let back = TruthTable::from_hex(8, &hex).unwrap();
        assert_eq!(big, back);
    }

    #[test]
    fn binary_roundtrip() {
        let maj = TruthTable::from_binary(3, "11101000").unwrap();
        assert_eq!(maj.to_hex(), "e8");
        assert_eq!(maj.to_binary(), "11101000");
    }

    #[test]
    fn parse_errors() {
        assert!(TruthTable::from_hex(3, "g8").is_err());
        assert!(TruthTable::from_hex(3, "e80").is_err());
        assert!(TruthTable::from_binary(2, "10x1").is_err());
        assert!(TruthTable::from_binary(2, "101").is_err());
    }

    #[test]
    fn from_str_infers_size() {
        let tt: TruthTable = "e8".parse().unwrap();
        assert_eq!(tt.num_vars(), 3);
        let tt: TruthTable = "cafecafe".parse().unwrap();
        assert_eq!(tt.num_vars(), 5);
    }

    #[test]
    fn set_and_get_bits() {
        let mut tt = TruthTable::zero(7);
        tt.set_bit(0, true);
        tt.set_bit(100, true);
        assert!(tt.bit(0));
        assert!(tt.bit(100));
        assert!(!tt.bit(50));
        assert_eq!(tt.count_ones(), 2);
        tt.set_bit(100, false);
        assert_eq!(tt.count_ones(), 1);
    }

    #[test]
    fn small_tables_mask_excess() {
        let one = TruthTable::one(2);
        assert_eq!(one.words()[0], 0xF);
        let one = TruthTable::one(0);
        assert_eq!(one.words()[0], 0x1);
    }
}
