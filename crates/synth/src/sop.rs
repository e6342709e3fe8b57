//! SOP-based resynthesis: irredundant cover computation followed by
//! algebraic factoring.
//!
//! This is the workhorse used by refactoring (Algorithm 4 of the paper) and
//! as the fallback structure generator of the rewriting database: it works
//! for *any* network providing the [`GateBuilder`] interface because the
//! factored form only needs AND/OR/NOT, which every representation can
//! express.

use glsx_network::{GateBuilder, Signal};
use glsx_truth::{isop, Cube, TruthTable};

/// Synthesises `function` over the given `leaves` into `ntk` using an
/// irredundant sum-of-products cover and algebraic factoring, and returns
/// the root signal.
///
/// Both the function and its complement are covered; the cheaper cover (by
/// literal count) is factored and, if the complement was chosen, the result
/// is inverted — inverters are free in all graph representations of this
/// workspace.
///
/// # Panics
///
/// Panics if `leaves.len() != function.num_vars()`.
///
/// # Example
///
/// ```
/// use glsx_network::{Aig, GateBuilder, Network};
/// use glsx_network::simulation::simulate;
/// use glsx_synth::sop_resynthesize;
/// use glsx_truth::TruthTable;
///
/// let mut aig = Aig::new();
/// let leaves: Vec<_> = (0..3).map(|_| aig.create_pi()).collect();
/// let maj = TruthTable::from_hex(3, "e8")?;
/// let root = sop_resynthesize(&mut aig, &maj, &leaves);
/// aig.create_po(root);
/// assert_eq!(simulate(&aig)[0], maj);
/// # Ok::<(), glsx_truth::ParseTruthTableError>(())
/// ```
pub fn sop_resynthesize<N: GateBuilder>(
    ntk: &mut N,
    function: &TruthTable,
    leaves: &[Signal],
) -> Signal {
    assert_eq!(
        leaves.len(),
        function.num_vars(),
        "one leaf signal per function input"
    );
    if function.is_zero() {
        return ntk.get_constant(false);
    }
    if function.is_one() {
        return ntk.get_constant(true);
    }
    let positive = isop(function);
    let negative = isop(&!function);
    let pos_cost = positive.num_literals() + positive.num_cubes();
    let neg_cost = negative.num_literals() + negative.num_cubes();
    if pos_cost <= neg_cost {
        factor_cubes(ntk, positive.cubes(), leaves, most_frequent_literal)
    } else {
        !factor_cubes(ntk, negative.cubes(), leaves, most_frequent_literal)
    }
}

/// A divisor picker: the literal `(var, polarity, count)` to divide a
/// cover over `num_vars` variables by, or `None` when no literal repeats.
type LiteralPicker = fn(&[Cube], usize) -> Option<(usize, bool, usize)>;

/// Builds a factored form of a cube cover (algebraic "quick factoring"):
/// the literal `pick` returns is divided out recursively; covers without a
/// repeated literal become a disjunction of cube conjunctions.  Synthesis
/// picks with [`most_frequent_literal`]; the tests substitute the
/// per-literal scan it replaced to check that both build the identical
/// structure.
fn factor_cubes<N: GateBuilder>(
    ntk: &mut N,
    cubes: &[Cube],
    leaves: &[Signal],
    pick: LiteralPicker,
) -> Signal {
    if cubes.is_empty() {
        return ntk.get_constant(false);
    }
    // a tautological cube makes the whole cover constant one
    if cubes.iter().any(|c| c.num_literals() == 0) {
        return ntk.get_constant(true);
    }
    if cubes.len() == 1 {
        return build_cube(ntk, &cubes[0], leaves);
    }
    match pick(cubes, leaves.len()) {
        None => {
            // no sharing opportunity: OR together the individual cubes
            let terms: Vec<Signal> = cubes.iter().map(|c| build_cube(ntk, c, leaves)).collect();
            ntk.create_nary_or(&terms)
        }
        Some((var, polarity, _)) => {
            let literal = leaves[var].complement_if(!polarity);
            let quotient: Vec<Cube> = cubes
                .iter()
                .filter(|c| c.has_literal(var) && c.polarity(var) == polarity)
                .map(|c| c.without_literal(var))
                .collect();
            let remainder: Vec<Cube> = cubes
                .iter()
                .filter(|c| !(c.has_literal(var) && c.polarity(var) == polarity))
                .copied()
                .collect();
            let q = factor_cubes(ntk, &quotient, leaves, pick);
            let divided = ntk.create_and(literal, q);
            if remainder.is_empty() {
                divided
            } else {
                let r = factor_cubes(ntk, &remainder, leaves, pick);
                ntk.create_or(divided, r)
            }
        }
    }
}

/// The literal occurring in the largest number of cubes (at least two),
/// as `(var, polarity, count)`.  One pass over the cubes' `mask`/`bits`
/// counts every literal; the pick then walks the variables in order,
/// negative literal before positive, and keeps the first strict maximum.
fn most_frequent_literal(cubes: &[Cube], num_vars: usize) -> Option<(usize, bool, usize)> {
    // counts[var][polarity]; a cube holds at most 32 variables
    let mut counts = [[0u32; 2]; 32];
    for cube in cubes {
        let positive = cube.bits();
        for (polarity, mut lits) in [(0, cube.mask() & !positive), (1, positive)] {
            while lits != 0 {
                counts[lits.trailing_zeros() as usize][polarity] += 1;
                lits &= lits - 1;
            }
        }
    }
    let mut best: Option<(usize, bool, usize)> = None;
    for (var, var_counts) in counts.iter().enumerate().take(num_vars) {
        for polarity in [false, true] {
            let count = var_counts[usize::from(polarity)] as usize;
            if count > 1 && best.is_none_or(|(_, _, c)| count > c) {
                best = Some((var, polarity, count));
            }
        }
    }
    best
}

/// The per-literal scan [`most_frequent_literal`] replaced, kept as its
/// test oracle: one pass over the cubes per (variable, polarity) pair.
#[cfg(test)]
fn most_frequent_literal_scan(cubes: &[Cube], num_vars: usize) -> Option<(usize, bool, usize)> {
    let mut best: Option<(usize, bool, usize)> = None;
    for var in 0..num_vars {
        for polarity in [false, true] {
            let count = cubes
                .iter()
                .filter(|c| c.has_literal(var) && c.polarity(var) == polarity)
                .count();
            if count > 1 && best.is_none_or(|(_, _, c)| count > c) {
                best = Some((var, polarity, count));
            }
        }
    }
    best
}

/// Builds the conjunction of the literals of a single cube.
fn build_cube<N: GateBuilder>(ntk: &mut N, cube: &Cube, leaves: &[Signal]) -> Signal {
    let literals: Vec<Signal> = (0..leaves.len())
        .filter(|&v| cube.has_literal(v))
        .map(|v| leaves[v].complement_if(!cube.polarity(v)))
        .collect();
    ntk.create_nary_and(&literals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsx_network::simulation::simulate;
    use glsx_network::{Aig, Mig, Network, Xag};

    fn check_all_representations(tt: &TruthTable) {
        macro_rules! check {
            ($ty:ty) => {{
                let mut ntk = <$ty>::new();
                let leaves: Vec<Signal> = (0..tt.num_vars()).map(|_| ntk.create_pi()).collect();
                let root = sop_resynthesize(&mut ntk, tt, &leaves);
                ntk.create_po(root);
                assert_eq!(&simulate(&ntk)[0], tt, "{} failed for {tt}", <$ty>::NAME);
            }};
        }
        check!(Aig);
        check!(Xag);
        check!(Mig);
    }

    #[test]
    fn constants_and_single_cubes() {
        check_all_representations(&TruthTable::zero(3));
        check_all_representations(&TruthTable::one(3));
        let a = TruthTable::nth_var(3, 0);
        let c = TruthTable::nth_var(3, 2);
        check_all_representations(&(&a & &!&c));
    }

    #[test]
    fn majority_and_parity() {
        check_all_representations(&TruthTable::from_hex(3, "e8").unwrap());
        let a = TruthTable::nth_var(3, 0);
        let b = TruthTable::nth_var(3, 1);
        let c = TruthTable::nth_var(3, 2);
        check_all_representations(&(&(&a ^ &b) ^ &c));
    }

    #[test]
    fn random_four_input_functions() {
        let mut state = 0xc0ff_ee11_u64;
        for _ in 0..15 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let tt = TruthTable::from_bits(4, state);
            check_all_representations(&tt);
        }
    }

    /// Seeded covers over 4–16 variables: random cubes of every density,
    /// plus the irredundant covers of random functions of up to 8 inputs.
    fn seeded_covers() -> Vec<(usize, Vec<Cube>)> {
        let mut state = 0x5eed_c0de_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 32) as u32
        };
        let mut covers = Vec::new();
        for num_vars in 4..=16 {
            let vars = (1u32 << num_vars) - 1;
            for round in 0..12 {
                let num_cubes = 2 + next() as usize % (3 * num_vars);
                // denser masks in later rounds: more shared literals, more ties
                let cubes = (0..num_cubes)
                    .map(|_| {
                        let mut mask = next() & vars;
                        for _ in 0..round % 3 {
                            mask |= next() & vars;
                        }
                        Cube::new(next(), mask.max(1))
                    })
                    .collect();
                covers.push((num_vars, cubes));
            }
            if num_vars <= 8 {
                let words = 1usize << num_vars.saturating_sub(6);
                for _ in 0..6 {
                    let bits: Vec<u64> = (0..words)
                        .map(|_| (u64::from(next()) << 32) | u64::from(next()))
                        .collect();
                    let function = TruthTable::from_words(num_vars, bits);
                    covers.push((num_vars, isop(&function).cubes().to_vec()));
                }
            }
        }
        covers
    }

    /// Every gate's fanins, in id order, plus the root.
    fn structure(aig: &Aig, root: Signal) -> (Vec<Vec<Signal>>, Signal) {
        let fanins = (0..aig.size() as u32).map(|id| aig.fanins(id)).collect();
        (fanins, root)
    }

    /// The one-pass literal count picks the per-literal scan's literal on
    /// every seeded cover, and factoring with either builds the identical
    /// structure (the picks of every sub-cover agree too).
    #[test]
    fn one_pass_literal_count_matches_the_scan() {
        let mut ties = 0;
        for (num_vars, cubes) in seeded_covers() {
            let pick = most_frequent_literal(&cubes, num_vars);
            assert_eq!(
                pick,
                most_frequent_literal_scan(&cubes, num_vars),
                "{cubes:?}"
            );
            if let Some((_, _, count)) = pick {
                let occurrences = |var: usize, polarity: bool| {
                    cubes
                        .iter()
                        .filter(|c| c.has_literal(var) && c.polarity(var) == polarity)
                        .count()
                };
                let tied = (0..num_vars)
                    .flat_map(|var| [false, true].map(|polarity| occurrences(var, polarity)))
                    .filter(|&n| n == count)
                    .count();
                ties += usize::from(tied > 1);
            }
            let build = |pick: LiteralPicker| {
                let mut aig = Aig::new();
                let leaves: Vec<Signal> = (0..num_vars).map(|_| aig.create_pi()).collect();
                let root = factor_cubes(&mut aig, &cubes, &leaves, pick);
                structure(&aig, root)
            };
            assert_eq!(
                build(most_frequent_literal),
                build(most_frequent_literal_scan),
                "{num_vars} variables: {cubes:?}"
            );
        }
        assert!(ties > 0, "no cover had a tied most frequent literal");
    }

    #[test]
    fn factoring_shares_common_literals() {
        // f = a&b | a&c | a&d should factor as a & (b | c | d): 4 gates in an AIG
        let a = TruthTable::nth_var(4, 0);
        let b = TruthTable::nth_var(4, 1);
        let c = TruthTable::nth_var(4, 2);
        let d = TruthTable::nth_var(4, 3);
        let f = (&a & &b) | (&a & &c) | (&a & &d);
        let mut aig = Aig::new();
        let leaves: Vec<Signal> = (0..4).map(|_| aig.create_pi()).collect();
        let root = sop_resynthesize(&mut aig, &f, &leaves);
        aig.create_po(root);
        assert_eq!(simulate(&aig)[0], f);
        assert!(
            aig.num_gates() <= 4,
            "factored form should share the literal a"
        );
    }
}
