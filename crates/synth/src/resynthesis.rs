//! The resynthesis interface and the NPN rewriting database.
//!
//! Rewriting and refactoring do not care *how* a replacement structure for
//! a cut function is obtained; they only need a [`Resynthesis`] engine that
//! turns a truth table plus leaf signals into new nodes of the target
//! network.  This module provides the trait, engines based on SOP
//! factoring and Shannon decomposition, and [`NpnDatabase`] — a cache of
//! per-NPN-class chains (computed by SAT-based exact synthesis with a
//! heuristic fallback) that can be replayed into any representation.

use crate::chain::{Chain, ChainOperand, ChainStep};
use crate::exact::{exact_chain_synthesis, ExactSynthesisParams};
use crate::shannon::shannon_resynthesize;
use crate::sop::sop_resynthesize;
use glsx_network::{GateBuilder, MetricsSource, Network, NodeId, Signal, Xag};
use glsx_truth::{npn_canonize, NpnTransform, TruthTable};
use std::collections::HashMap;

/// A resynthesis engine: creates nodes in `ntk` computing `function` over
/// the `leaves` and returns the root signal, or `None` if the engine cannot
/// realise the function.
pub trait Resynthesis<N: GateBuilder> {
    /// Synthesises `function` over `leaves` into `ntk`.
    fn resynthesize(
        &mut self,
        ntk: &mut N,
        function: &TruthTable,
        leaves: &[Signal],
    ) -> Option<Signal>;
}

/// Resynthesis by irredundant SOP computation and algebraic factoring
/// (works for every representation).
#[derive(Clone, Copy, Debug, Default)]
pub struct SopResynthesis;

impl<N: GateBuilder> Resynthesis<N> for SopResynthesis {
    fn resynthesize(
        &mut self,
        ntk: &mut N,
        function: &TruthTable,
        leaves: &[Signal],
    ) -> Option<Signal> {
        Some(sop_resynthesize(ntk, function, leaves))
    }
}

/// Resynthesis by recursive Shannon decomposition (works for every
/// representation).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShannonResynthesis;

impl<N: GateBuilder> Resynthesis<N> for ShannonResynthesis {
    fn resynthesize(
        &mut self,
        ntk: &mut N,
        function: &TruthTable,
        leaves: &[Signal],
    ) -> Option<Signal> {
        Some(shannon_resynthesize(ntk, function, leaves))
    }
}

/// Records the logic of `root` (over the primary inputs of `ntk`) as a
/// representation-independent [`Chain`].
///
/// The primary inputs of `ntk` become the chain inputs in order; only the
/// transitive fanin of `root` is recorded.
pub fn record_chain<N: Network>(ntk: &N, root: Signal) -> Chain {
    let mut chain = Chain::new(ntk.num_pis());
    let mut map: HashMap<NodeId, ChainOperand> = HashMap::new();
    map.insert(0, ChainOperand::new(usize::MAX, false));
    for (i, pi) in ntk.pi_nodes().iter().enumerate() {
        map.insert(*pi, ChainOperand::new(i, false));
    }
    for node in ntk.gate_nodes() {
        let operands: Vec<ChainOperand> = ntk
            .fanins(node)
            .iter()
            .map(|f| {
                let base = map[&f.node()];
                ChainOperand::new(base.index, base.complemented ^ f.is_complemented())
            })
            .collect();
        // constant fanins cannot be expressed in a chain operand; they are
        // not produced by the resynthesis engines used to record chains
        debug_assert!(operands.iter().all(|op| op.index != usize::MAX));
        let index = chain.push_step(ChainStep {
            kind: ntk.gate_kind(node),
            operands,
        });
        map.insert(node, ChainOperand::new(index, false));
    }
    let base = map[&root.node()];
    chain.set_output(ChainOperand::new(
        base.index,
        base.complemented ^ root.is_complemented(),
    ));
    chain
}

/// Configuration of the [`NpnDatabase`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NpnDatabaseParams {
    /// Use SAT-based exact synthesis when populating a class (otherwise
    /// only the heuristic structure generator is used).
    pub use_exact_synthesis: bool,
    /// Parameters of the exact synthesis calls.
    pub exact: ExactSynthesisParams,
}

/// Work counters of an [`NpnDatabase`]: how often its canonisation memo
/// was consulted and what it had to compute.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NpnDatabaseStats {
    /// Non-constant functions canonised (canonisation-memo misses).
    pub canonisations: u64,
    /// Non-constant functions served from the canonisation memo.
    pub cache_hits: u64,
    /// Replacement chains built, one per NPN class met.
    pub chains_built: u64,
}

impl MetricsSource for NpnDatabaseStats {
    fn visit_metrics(&self, visit: &mut dyn FnMut(&str, u64)) {
        visit("canonisations", self.canonisations);
        visit("cache_hits", self.cache_hits);
        visit("chains_built", self.chains_built);
    }
}

/// A lazily computed database of replacement structures indexed by NPN
/// class.
///
/// For each canonical representative encountered, a [`Chain`] is computed
/// once (by exact synthesis if enabled and successful, otherwise by SOP
/// factoring recorded into a scratch XAG) and cached.  Because chains are
/// representation-independent, the same database instance can serve
/// rewriting on AIGs, XAGs, MIGs and XMGs, with the replay step mapping
/// chain gates onto the native primitives of the target network.
#[derive(Debug, Default)]
pub struct NpnDatabase {
    params: NpnDatabaseParams,
    /// One chain per NPN class met, in discovery order.
    chains: Vec<Chain>,
    /// Index into `chains` by class representative.
    classes: HashMap<TruthTable, usize>,
    /// Memoised canonisation results keyed by the *original* function:
    /// the transform to the representative and the class's index into
    /// `chains`.  Cut functions repeat massively across the candidates of
    /// one pass, so a repeat costs one probe and no table clone.  Bounded
    /// by the number of distinct cut functions (≤ 2^16 for 4-input cuts).
    canon_cache: HashMap<TruthTable, (NpnTransform, usize)>,
    /// Leaf buffer of the chain replay, reused across calls.
    mapped: Vec<Signal>,
    /// Non-constant functions served from `canon_cache`.
    cache_hits: u64,
}

impl NpnDatabase {
    /// Creates an empty database with default parameters (heuristic
    /// structures only).
    pub fn new() -> Self {
        Self::with_params(NpnDatabaseParams::default())
    }

    /// Creates an empty database with the given parameters.
    pub fn with_params(params: NpnDatabaseParams) -> Self {
        Self {
            params,
            ..Self::default()
        }
    }

    /// Creates a database that uses SAT-based exact synthesis to populate
    /// classes.
    pub fn with_exact_synthesis(exact: ExactSynthesisParams) -> Self {
        Self::with_params(NpnDatabaseParams {
            use_exact_synthesis: true,
            exact,
        })
    }

    /// Number of NPN classes cached so far.
    pub fn num_classes(&self) -> usize {
        self.chains.len()
    }

    /// The database's work counters since it was created.  Every memo
    /// miss adds one `canon_cache` entry and every class one chain, so
    /// only the hits are counted separately.
    pub fn stats(&self) -> NpnDatabaseStats {
        NpnDatabaseStats {
            canonisations: self.canon_cache.len() as u64,
            cache_hits: self.cache_hits,
            chains_built: self.chains.len() as u64,
        }
    }

    /// Returns the chain stored for the NPN representative of `function`,
    /// computing and caching it if necessary.
    pub fn chain_for(&mut self, canonical: &TruthTable) -> &Chain {
        let class = self.class_of(canonical);
        &self.chains[class]
    }

    /// The index into `chains` of the class represented by `canonical`,
    /// building its chain on first sight.
    fn class_of(&mut self, canonical: &TruthTable) -> usize {
        if let Some(&class) = self.classes.get(canonical) {
            return class;
        }
        let chain = compute_chain(&self.params, canonical);
        debug_assert_eq!(chain.simulate(), *canonical);
        self.chains.push(chain);
        self.classes
            .insert(canonical.clone(), self.chains.len() - 1);
        self.chains.len() - 1
    }
}

fn compute_chain(params: &NpnDatabaseParams, canonical: &TruthTable) -> Chain {
    if params.use_exact_synthesis {
        if let Some(chain) = exact_chain_synthesis(canonical, &params.exact) {
            return chain;
        }
    }
    heuristic_chain(canonical)
}

fn heuristic_chain(canonical: &TruthTable) -> Chain {
    let mut scratch = Xag::new();
    let leaves: Vec<Signal> = (0..canonical.num_vars())
        .map(|_| scratch.create_pi())
        .collect();
    let root = sop_resynthesize(&mut scratch, canonical, &leaves);
    record_chain(&scratch, root)
}

impl<N: GateBuilder, R: Resynthesis<N>> Resynthesis<N> for &mut R {
    fn resynthesize(
        &mut self,
        ntk: &mut N,
        function: &TruthTable,
        leaves: &[Signal],
    ) -> Option<Signal> {
        (**self).resynthesize(ntk, function, leaves)
    }
}

impl<N: GateBuilder> Resynthesis<N> for NpnDatabase {
    fn resynthesize(
        &mut self,
        ntk: &mut N,
        function: &TruthTable,
        leaves: &[Signal],
    ) -> Option<Signal> {
        if function.is_const() {
            return Some(ntk.get_constant(function.is_one()));
        }
        let (transform, class) = match self.canon_cache.get(function) {
            Some(hit) => {
                self.cache_hits += 1;
                hit
            }
            None => {
                let (canonical, transform) = npn_canonize(function);
                let class = self.class_of(&canonical);
                &*self
                    .canon_cache
                    .entry(function.clone())
                    .or_insert((transform, class))
            }
        };
        // chain input j is canonical variable y_j; original input i maps to
        // y_{perm[i]} with the recorded input negation
        self.mapped.clear();
        self.mapped
            .resize(function.num_vars(), Signal::constant(false));
        for (i, &leaf) in leaves.iter().enumerate() {
            self.mapped[transform.perm[i]] = leaf.complement_if(transform.input_negated(i));
        }
        let out = self.chains[*class].replay(ntk, &self.mapped);
        Some(out.complement_if(transform.output_negation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsx_network::simulation::simulate;
    use glsx_network::{Aig, Mig, Network};

    fn check_resynthesis<N, R>(mut engine: R, tt: &TruthTable)
    where
        N: GateBuilder,
        R: Resynthesis<N>,
    {
        let mut ntk = N::new();
        let leaves: Vec<Signal> = (0..tt.num_vars()).map(|_| ntk.create_pi()).collect();
        let root = engine
            .resynthesize(&mut ntk, tt, &leaves)
            .expect("engines in this test always succeed");
        ntk.create_po(root);
        assert_eq!(&simulate(&ntk)[0], tt);
    }

    #[test]
    fn record_chain_roundtrip() {
        let mut xag = Xag::new();
        let a = xag.create_pi();
        let b = xag.create_pi();
        let c = xag.create_pi();
        let t = xag.create_and(a, !b);
        let root = xag.create_xor(t, c);
        let chain = record_chain(&xag, !root);
        let expected = !simulate(&{
            let mut tmp = xag.clone();
            tmp.create_po(root);
            tmp
        })[0]
            .clone();
        assert_eq!(chain.simulate(), expected);
    }

    #[test]
    fn npn_database_serves_multiple_representations() {
        let mut db = NpnDatabase::new();
        let functions = [
            TruthTable::from_hex(3, "e8").unwrap(),
            TruthTable::from_hex(3, "96").unwrap(),
            TruthTable::from_hex(4, "cafe").unwrap(),
            TruthTable::from_hex(4, "1ee1").unwrap(),
        ];
        for tt in &functions {
            // resynthesize into an AIG and an MIG from the same database
            let mut aig = Aig::new();
            let leaves: Vec<Signal> = (0..tt.num_vars()).map(|_| aig.create_pi()).collect();
            let root = Resynthesis::<Aig>::resynthesize(&mut db, &mut aig, tt, &leaves).unwrap();
            aig.create_po(root);
            assert_eq!(&simulate(&aig)[0], tt);

            let mut mig = Mig::new();
            let leaves: Vec<Signal> = (0..tt.num_vars()).map(|_| mig.create_pi()).collect();
            let root = Resynthesis::<Mig>::resynthesize(&mut db, &mut mig, tt, &leaves).unwrap();
            mig.create_po(root);
            assert_eq!(&simulate(&mig)[0], tt);
        }
        // all NPN-equivalent functions share one cache entry
        let before = db.num_classes();
        let flipped = TruthTable::from_hex(3, "e8").unwrap().flip(0);
        check_resynthesis::<Aig, _>(&mut db as &mut NpnDatabase, &flipped);
        assert_eq!(db.num_classes(), before);
    }

    #[test]
    fn npn_database_with_exact_synthesis_uses_optimal_structures() {
        let mut db = NpnDatabase::with_exact_synthesis(ExactSynthesisParams {
            max_steps: 5,
            ..ExactSynthesisParams::default()
        });
        let maj = TruthTable::from_hex(3, "e8").unwrap();
        let chain = db.chain_for(&npn_canonize(&maj).0).clone();
        assert!(chain.num_steps() <= 4);
        assert_eq!(db.num_classes(), 1);
    }

    #[test]
    fn sop_and_shannon_engines_are_resynthesis_impls() {
        let tt = TruthTable::from_hex(4, "8241").unwrap();
        check_resynthesis::<Aig, _>(SopResynthesis, &tt);
        check_resynthesis::<Aig, _>(ShannonResynthesis, &tt);
        check_resynthesis::<Mig, _>(SopResynthesis, &tt);
        check_resynthesis::<Mig, _>(ShannonResynthesis, &tt);
    }

    #[test]
    fn npn_database_counts_its_memo_work() {
        // majority and its complement share a class, as do the two
        // parities and AND/OR; two functions repeat and two are constant
        let functions: Vec<TruthTable> =
            ["e8", "17", "96", "69", "e8", "80", "00", "fe", "96", "ff"]
                .iter()
                .map(|hex| TruthTable::from_hex(3, hex).unwrap())
                .collect();
        let mut db = NpnDatabase::new();
        let mut aig = Aig::new();
        let leaves: Vec<Signal> = (0..3).map(|_| aig.create_pi()).collect();
        for tt in &functions {
            Resynthesis::<Aig>::resynthesize(&mut db, &mut aig, tt, &leaves).unwrap();
        }
        let non_constant: Vec<&TruthTable> = functions.iter().filter(|f| !f.is_const()).collect();
        let distinct: std::collections::HashSet<&TruthTable> =
            non_constant.iter().copied().collect();
        let stats = db.stats();
        assert_eq!(
            stats.canonisations + stats.cache_hits,
            non_constant.len() as u64
        );
        assert_eq!(stats.canonisations, distinct.len() as u64);
        assert_eq!(stats.chains_built, 3);
        assert_eq!(db.num_classes(), 3);
    }

    #[test]
    fn constants_resynthesize_to_constants() {
        let mut db = NpnDatabase::new();
        let mut aig = Aig::new();
        let leaves: Vec<Signal> = (0..3).map(|_| aig.create_pi()).collect();
        let zero =
            Resynthesis::<Aig>::resynthesize(&mut db, &mut aig, &TruthTable::zero(3), &leaves)
                .unwrap();
        assert_eq!(zero, aig.get_constant(false));
        let one = Resynthesis::<Aig>::resynthesize(&mut db, &mut aig, &TruthTable::one(3), &leaves)
            .unwrap();
        assert_eq!(one, aig.get_constant(true));
        assert_eq!(aig.num_gates(), 0);
    }
}
