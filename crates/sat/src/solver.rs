//! CDCL solver implementation.

use std::fmt;

/// A propositional variable, identified by a dense index.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Var(u32);

impl Var {
    /// Creates a variable from its index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Var(index as u32)
    }

    /// Returns the dense index of the variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable together with a polarity.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Lit(u32);

impl Lit {
    /// Creates the positive literal of `var`.
    #[inline]
    pub fn positive(var: Var) -> Self {
        Lit(var.0 << 1)
    }

    /// Creates the negative literal of `var`.
    #[inline]
    pub fn negative(var: Var) -> Self {
        Lit((var.0 << 1) | 1)
    }

    /// Creates a literal from a variable and a polarity flag
    /// (`true` = positive).
    #[inline]
    pub fn new(var: Var, positive: bool) -> Self {
        if positive {
            Self::positive(var)
        } else {
            Self::negative(var)
        }
    }

    /// Returns the variable of the literal.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` if the literal is positive.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Returns the dense code of the literal (usable as an array index).
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Creates a literal from its dense code.
    #[inline]
    pub fn from_code(code: usize) -> Self {
        Lit(code as u32)
    }

    /// Returns the complement of the literal.
    #[inline]
    pub fn negate(self) -> Self {
        Lit(self.0 ^ 1)
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        self.negate()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

/// Result of a satisfiability query.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// The formula is satisfiable; a model is available via
    /// [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The solver gave up because a resource limit (conflicts or
    /// propagations) was reached; see [`Solver::last_limit`] for which.
    Unknown,
}

/// Which resource limit ended a solve call with [`SatResult::Unknown`].
///
/// Callers use this to distinguish "the budget ran out" from a genuine
/// solver failure: in this solver `Unknown` is *only* ever produced by a
/// limit, so an `Unknown` with [`Solver::last_limit`] `== None` cannot
/// happen — the distinction matters to consumers (e.g. equivalence
/// checking) that fold solver and non-solver failure modes into one
/// result type.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SolverLimit {
    /// The per-call conflict limit ([`Solver::set_conflict_limit`]).
    Conflicts,
    /// The per-call propagation limit
    /// ([`Solver::set_propagation_limit`]) — the knob effort budgets
    /// drive, since propagation counts are deterministic.
    Propagations,
}

/// Aggregate statistics of a solver instance.
#[derive(Copy, Clone, Default, Debug, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently stored.
    pub learnt_clauses: u64,
}

/// Field-wise sum: the statistics of several solvers (or solves) as one.
impl std::ops::AddAssign for SolverStats {
    fn add_assign(&mut self, other: Self) {
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learnt_clauses += other.learnt_clauses;
    }
}

impl glsx_network::MetricsSource for SolverStats {
    fn visit_metrics(&self, visit: &mut dyn FnMut(&str, u64)) {
        visit("conflicts", self.conflicts);
        visit("decisions", self.decisions);
        visit("propagations", self.propagations);
        visit("restarts", self.restarts);
        visit("learnt_clauses", self.learnt_clauses);
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum LBool {
    True,
    False,
    Undef,
}

struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
}

const INVALID_REASON: usize = usize::MAX;

/// A CDCL SAT solver.
///
/// See the crate-level documentation for an example.
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<usize>>,
    assigns: Vec<LBool>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<usize>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    propagate_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    seen: Vec<bool>,
    /// Reusable per-clause mark buffer for learnt-clause reduction
    /// (bit 0: locked as a reason, bit 1: selected for removal) —
    /// deterministic and allocation-free, unlike a per-call hash set.
    reduce_marks: Vec<u8>,
    /// Reusable buffer [`Solver::add_clause`] sorts, deduplicates and
    /// filters a clause in; only the stored clause is allocated.
    add_buf: Vec<Lit>,
    ok: bool,
    stats: SolverStats,
    conflict_limit: Option<u64>,
    propagation_limit: Option<u64>,
    /// Which limit (if any) ended the most recent solve call with
    /// [`SatResult::Unknown`].
    last_limit: Option<SolverLimit>,
    model: Vec<LBool>,
    /// Telemetry handle (disabled by default): per-solve spans in full
    /// trace mode; never consulted for decisions.
    tracer: glsx_network::Tracer,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver with no variables and no clauses.
    pub fn new() -> Self {
        Self {
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            propagate_head: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            seen: Vec::new(),
            reduce_marks: Vec::new(),
            add_buf: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            conflict_limit: None,
            propagation_limit: None,
            last_limit: None,
            model: Vec::new(),
            tracer: glsx_network::Tracer::off(),
        }
    }

    /// Attaches a telemetry handle: in full trace mode every solve call
    /// records a `sat_solve` span.  Observational only — attaching a
    /// tracer never changes solver behaviour.
    pub fn set_tracer(&mut self, tracer: glsx_network::Tracer) {
        self.tracer = tracer;
    }

    /// Returns the number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Returns the number of original (problem) clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.learnt).count()
    }

    /// Returns solver statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Limits the number of conflicts per [`Solver::solve`] call; `None`
    /// removes the limit.  When the limit is hit the solve call returns
    /// [`SatResult::Unknown`].
    pub fn set_conflict_limit(&mut self, limit: Option<u64>) {
        self.conflict_limit = limit;
    }

    /// Limits the number of literal propagations per [`Solver::solve`]
    /// call; `None` removes the limit.  When the limit is hit the solve
    /// call returns [`SatResult::Unknown`].  Propagation counts are
    /// deterministic for a fixed formula, which makes this the limit of
    /// choice for reproducible effort budgets.
    pub fn set_propagation_limit(&mut self, limit: Option<u64>) {
        self.propagation_limit = limit;
    }

    /// Which resource limit ended the most recent solve call with
    /// [`SatResult::Unknown`]; `None` if the last call returned a
    /// definite result (or no call was made).
    pub fn last_limit(&self) -> Option<SolverLimit> {
        self.last_limit
    }

    /// Creates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(INVALID_REASON);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Adds a clause (a disjunction of literals) to the formula.
    ///
    /// Duplicate literals are removed; clauses containing a literal and its
    /// complement are ignored (they are tautologies).  Adding the empty
    /// clause makes the formula unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        if !self.ok {
            return;
        }
        // Clauses may only be added at decision level 0.
        debug_assert!(self.trail_lim.is_empty());
        self.add_buf.clear();
        self.add_buf.extend_from_slice(lits);
        self.add_buf.sort_unstable();
        self.add_buf.dedup();
        // tautology check and removal of falsified literals at level 0,
        // compacting the kept literals to the front of the buffer
        let mut kept = 0;
        for i in 0..self.add_buf.len() {
            let l = self.add_buf[i];
            if self.add_buf.get(i + 1) == Some(&l.negate()) {
                return; // tautology
            }
            match self.lit_value(l) {
                LBool::True => return, // already satisfied at level 0
                LBool::False => {}     // drop falsified literal
                LBool::Undef => {
                    self.add_buf[kept] = l;
                    kept += 1;
                }
            }
        }
        match kept {
            0 => {
                self.ok = false;
            }
            1 => {
                if !self.enqueue(self.add_buf[0], INVALID_REASON) || self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                let lits = self.add_buf[..kept].to_vec();
                let cref = self.clauses.len();
                self.watches[lits[0].negate().code()].push(cref);
                self.watches[lits[1].negate().code()].push(cref);
                self.clauses.push(Clause {
                    lits,
                    learnt: false,
                    activity: 0.0,
                });
            }
        }
    }

    /// Returns the value of `var` in the most recent model, or `None` if the
    /// last solve call did not return [`SatResult::Sat`] or the variable was
    /// created afterwards.
    pub fn value(&self, var: Var) -> Option<bool> {
        match self.model.get(var.index()) {
            Some(LBool::True) => Some(true),
            Some(LBool::False) => Some(false),
            _ => None,
        }
    }

    /// Returns the value of a literal in the most recent model.
    pub fn lit_model_value(&self, lit: Lit) -> Option<bool> {
        self.value(lit.var()).map(|v| v == lit.is_positive())
    }

    /// Solves the formula without assumptions.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves the formula under the given assumptions.  Assumptions are
    /// temporary unit constraints that do not persist across calls.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        // per-solve spans are batch-granularity detail: full mode only
        let tracer = self.tracer.clone();
        let _span = tracer.batches_enabled().then(|| tracer.span("sat_solve"));
        self.model.clear();
        self.cancel_until(0);
        self.last_limit = None;
        let start_conflicts = self.stats.conflicts;
        let start_propagations = self.stats.propagations;
        let mut restart_limit = 100u64;
        let mut learnt_limit = (self.clauses.len() as u64 / 3).max(100);

        loop {
            let conflict = self.propagate();
            // checked once per propagation batch, not per literal
            if let Some(limit) = self.propagation_limit {
                if self.stats.propagations - start_propagations >= limit {
                    self.cancel_until(0);
                    self.last_limit = Some(SolverLimit::Propagations);
                    return SatResult::Unknown;
                }
            }
            if let Some(cref) = conflict {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.cancel_until(0);
                    return SatResult::Unsat;
                }
                if let Some(limit) = self.conflict_limit {
                    if self.stats.conflicts - start_conflicts >= limit {
                        self.cancel_until(0);
                        self.last_limit = Some(SolverLimit::Conflicts);
                        return SatResult::Unknown;
                    }
                }
                let (learnt, backtrack_level) = self.analyze(cref);
                // If the conflict does not depend on any decision beyond the
                // assumptions, and backtracking would undo an assumption, the
                // formula is unsatisfiable under the assumptions.
                if (backtrack_level as usize) < assumptions.len()
                    && self.decision_level() as usize <= assumptions.len()
                {
                    self.cancel_until(0);
                    return SatResult::Unsat;
                }
                self.cancel_until(backtrack_level);
                self.record_learnt(learnt);
                self.decay_activities();
            } else {
                // restart handling
                if self.stats.conflicts - start_conflicts >= restart_limit {
                    restart_limit = restart_limit * 3 / 2;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
                if self.num_learnts() as u64 > learnt_limit {
                    learnt_limit = learnt_limit * 11 / 10;
                    self.reduce_learnts();
                }
                // place assumptions as pseudo-decisions
                if (self.decision_level() as usize) < assumptions.len() {
                    let assumption = assumptions[self.decision_level() as usize];
                    match self.lit_value(assumption) {
                        LBool::True => {
                            // already satisfied: open an empty decision level
                            self.trail_lim.push(self.trail.len());
                            continue;
                        }
                        LBool::False => {
                            self.cancel_until(0);
                            return SatResult::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(assumption, INVALID_REASON);
                            continue;
                        }
                    }
                }
                // pick a branching variable
                match self.pick_branch_var() {
                    None => {
                        // all variables assigned: model found
                        self.model = self.assigns.clone();
                        self.cancel_until(0);
                        return SatResult::Sat;
                    }
                    Some(var) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = Lit::new(var, self.phase[var.index()]);
                        self.enqueue(lit, INVALID_REASON);
                    }
                }
            }
        }
    }

    // -- internal machinery ------------------------------------------------

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    #[inline]
    fn lit_value(&self, lit: Lit) -> LBool {
        match self.assigns[lit.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if lit.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
            LBool::False => {
                if lit.is_positive() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: usize) -> bool {
        match self.lit_value(lit) {
            LBool::False => false,
            LBool::True => true,
            LBool::Undef => {
                let v = lit.var().index();
                self.assigns[v] = if lit.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                };
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.phase[v] = lit.is_positive();
                self.trail.push(lit);
                true
            }
        }
    }

    fn propagate(&mut self) -> Option<usize> {
        while self.propagate_head < self.trail.len() {
            let lit = self.trail[self.propagate_head];
            self.propagate_head += 1;
            self.stats.propagations += 1;
            // clauses watching !lit must be checked
            let mut watch_list = std::mem::take(&mut self.watches[lit.code()]);
            let mut i = 0;
            while i < watch_list.len() {
                let cref = watch_list[i];
                let false_lit = lit.negate();
                // ensure the false literal is at position 1
                {
                    let clause = &mut self.clauses[cref];
                    if clause.lits[0] == false_lit {
                        clause.lits.swap(0, 1);
                    }
                }
                let first = self.clauses[cref].lits[0];
                if self.lit_value(first) == LBool::True {
                    i += 1;
                    continue;
                }
                // look for a new literal to watch
                let mut found = false;
                for k in 2..self.clauses[cref].lits.len() {
                    let candidate = self.clauses[cref].lits[k];
                    if self.lit_value(candidate) != LBool::False {
                        self.clauses[cref].lits.swap(1, k);
                        self.watches[candidate.negate().code()].push(cref);
                        watch_list.swap_remove(i);
                        found = true;
                        break;
                    }
                }
                if found {
                    continue;
                }
                // clause is unit or conflicting
                if self.lit_value(first) == LBool::False {
                    // conflict: restore remaining watches and return
                    self.watches[lit.code()] = watch_list;
                    self.propagate_head = self.trail.len();
                    return Some(cref);
                }
                self.enqueue(first, cref);
                i += 1;
            }
            self.watches[lit.code()] = watch_list;
        }
        None
    }

    fn analyze(&mut self, mut conflict: usize) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot for the asserting literal
        let mut counter = 0usize;
        let mut trail_index = self.trail.len();
        let mut asserting: Option<Lit> = None;

        loop {
            self.bump_clause_activity(conflict);
            let lits: Vec<Lit> = self.clauses[conflict].lits.clone();
            for &q in &lits {
                // Skip the literal implied by this reason clause (if any).
                if let Some(p) = asserting {
                    if q.var() == p.var() {
                        continue;
                    }
                }
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var_activity(q.var());
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // find next literal on the trail to resolve on
            loop {
                trail_index -= 1;
                let lit = self.trail[trail_index];
                if self.seen[lit.var().index()] {
                    asserting = Some(lit);
                    break;
                }
            }
            let p = asserting.expect("asserting literal exists");
            counter -= 1;
            self.seen[p.var().index()] = false;
            if counter == 0 {
                learnt[0] = p.negate();
                break;
            }
            conflict = self.reason[p.var().index()];
            debug_assert_ne!(conflict, INVALID_REASON);
        }

        // clear seen flags for the learnt clause literals
        for &l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }

        // compute backtrack level: second-highest level in the learnt clause
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, backtrack_level)
    }

    fn record_learnt(&mut self, learnt: Vec<Lit>) {
        if learnt.len() == 1 {
            self.enqueue(learnt[0], INVALID_REASON);
            return;
        }
        let cref = self.clauses.len();
        self.watches[learnt[0].negate().code()].push(cref);
        self.watches[learnt[1].negate().code()].push(cref);
        let asserting = learnt[0];
        self.clauses.push(Clause {
            lits: learnt,
            learnt: true,
            activity: self.cla_inc,
        });
        self.stats.learnt_clauses += 1;
        self.enqueue(asserting, cref);
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        while self.trail.len() > bound {
            let lit = self.trail.pop().expect("trail not empty");
            let v = lit.var().index();
            self.assigns[v] = LBool::Undef;
            self.reason[v] = INVALID_REASON;
        }
        self.trail_lim.truncate(level as usize);
        self.propagate_head = self.trail.len();
    }

    fn pick_branch_var(&self) -> Option<Var> {
        let mut best: Option<(usize, f64)> = None;
        for (v, &assign) in self.assigns.iter().enumerate() {
            if assign == LBool::Undef {
                let act = self.activity[v];
                match best {
                    Some((_, best_act)) if best_act >= act => {}
                    _ => best = Some((v, act)),
                }
            }
        }
        best.map(|(v, _)| Var(v as u32))
    }

    fn bump_var_activity(&mut self, var: Var) {
        let a = &mut self.activity[var.index()];
        *a += self.var_inc;
        if *a > 1e100 {
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    fn bump_clause_activity(&mut self, cref: usize) {
        let clause = &mut self.clauses[cref];
        if clause.learnt {
            clause.activity += self.cla_inc;
            if clause.activity > 1e20 {
                for c in self.clauses.iter_mut().filter(|c| c.learnt) {
                    c.activity *= 1e-20;
                }
                self.cla_inc *= 1e-20;
            }
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    /// Learnt clauses currently stored: the counter `record_learnt` and
    /// `reduce_learnts` keep, O(1) instead of a scan of the clause
    /// database on every search iteration.
    fn num_learnts(&self) -> usize {
        debug_assert_eq!(
            self.stats.learnt_clauses as usize,
            self.clauses.iter().filter(|c| c.learnt).count(),
            "learnt-clause counter out of step with the clause database"
        );
        self.stats.learnt_clauses as usize
    }

    /// Removes roughly half of the learnt clauses with the lowest activity.
    /// Clauses that are reasons for current assignments are kept.
    fn reduce_learnts(&mut self) {
        let mut learnt_refs: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| self.clauses[i].learnt)
            .collect();
        if learnt_refs.len() < 32 {
            return;
        }
        learnt_refs.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        const LOCKED: u8 = 1;
        const REMOVE: u8 = 2;
        self.reduce_marks.clear();
        self.reduce_marks.resize(self.clauses.len(), 0);
        for &r in &self.reason {
            if r != INVALID_REASON {
                self.reduce_marks[r] |= LOCKED;
            }
        }
        let mut removed = 0usize;
        for &i in learnt_refs.iter().take(learnt_refs.len() / 2) {
            if self.reduce_marks[i] & LOCKED == 0 {
                self.reduce_marks[i] |= REMOVE;
                removed += 1;
            }
        }
        if removed == 0 {
            return;
        }
        // rebuild clause database and remap references
        let mut remap = vec![INVALID_REASON; self.clauses.len()];
        let mut new_clauses = Vec::with_capacity(self.clauses.len() - removed);
        for (i, clause) in std::mem::take(&mut self.clauses).into_iter().enumerate() {
            if self.reduce_marks[i] & REMOVE != 0 {
                continue;
            }
            remap[i] = new_clauses.len();
            new_clauses.push(clause);
        }
        self.clauses = new_clauses;
        for r in &mut self.reason {
            if *r != INVALID_REASON {
                *r = remap[*r];
                debug_assert_ne!(*r, INVALID_REASON);
            }
        }
        // rebuild watches
        for w in &mut self.watches {
            w.clear();
        }
        for (i, clause) in self.clauses.iter().enumerate() {
            self.watches[clause.lits[0].negate().code()].push(i);
            self.watches[clause.lits[1].negate().code()].push(i);
        }
        self.stats.learnt_clauses -= removed as u64;
    }
}

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("num_vars", &self.num_vars())
            .field("num_clauses", &self.clauses.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let v = Var::from_index(5);
        let p = Lit::positive(v);
        let n = Lit::negative(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(p.code(), 10);
        assert_eq!(n.code(), 11);
        assert_eq!(Lit::from_code(10), p);
        assert_eq!(Lit::new(v, true), p);
        assert_eq!(Lit::new(v, false), n);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        // tautology is ignored
        s.add_clause(&[Lit::positive(a), Lit::negative(a)]);
        assert_eq!(s.num_clauses(), 0);
        // duplicates collapse to a unit clause
        s.add_clause(&[Lit::positive(b), Lit::positive(b)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..20).map(|_| s.new_var()).collect();
        // implication chain v0 -> v1 -> ... -> v19
        for w in vars.windows(2) {
            s.add_clause(&[Lit::negative(w[0]), Lit::positive(w[1])]);
        }
        s.add_clause(&[Lit::positive(vars[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        for &v in &vars {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn display_formats() {
        let v = Var::from_index(3);
        assert_eq!(v.to_string(), "v3");
        assert_eq!(Lit::positive(v).to_string(), "v3");
        assert_eq!(Lit::negative(v).to_string(), "!v3");
    }
}
