//! The flow-script mini language (`bz; rs -c 6; rw; fraig; rfz; …`).

use std::error::Error;
use std::fmt;

/// A single optimisation step of a flow script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowStep {
    /// Tree balancing (`b`/`bz`).
    Balance,
    /// DAG-aware rewriting (`rw`, or `rwz` for zero-gain).
    Rewrite {
        /// Accept zero-gain replacements.
        zero_gain: bool,
        /// Inert: the parser always sets `false`, and the runners and
        /// `Display` ignore it.  It stays only because the benchmark's
        /// replay (`flowbench/src/replay.rs`) matches `parallel: false`;
        /// drop it together with that pattern.
        parallel: bool,
    },
    /// Refactoring (`rf`, or `rfz` for zero-gain).
    Refactor {
        /// Accept zero-gain replacements.
        zero_gain: bool,
    },
    /// Boolean resubstitution (`rs -c <cut> [-d <depth>]`).
    Resubstitute {
        /// Maximum cut size (`-c`).
        cut_size: usize,
        /// Maximum number of inserted gates (`-d`, default 1).
        depth: usize,
    },
    /// SAT sweeping / fraiging (`fraig [-c <conflicts>] [-choices]`):
    /// merge proven-equivalent nodes, optionally overriding the per-pair
    /// conflict budget of the flow options.
    Fraig {
        /// Per-pair conflict budget (`-c`); `None` uses the flow options'
        /// [`SweepParams::conflict_limit`](glsx_core::sweeping::SweepParams).
        conflict_limit: Option<u64>,
        /// Keep proven cones as structural choices (`-choices`) instead of
        /// deleting them (see
        /// [`SweepParams::record_choices`](glsx_core::sweeping::SweepParams)).
        record_choices: bool,
    },
    /// Terminal LUT mapping (`lut_map [-k <lut size>] [-choices]`).
    ///
    /// Mapping changes the representation (any graph network → k-LUTs), so
    /// this step is consumed by
    /// [`run_script_and_map`](crate::run_script_and_map) as the script's
    /// final step; the in-place [`run_script`](crate::run_script) skips it
    /// (documented there).
    LutMap {
        /// Number of LUT inputs (`-k`, default 6).
        lut_size: usize,
        /// Map over the enlarged, choice-aware cut sets (`-choices`; see
        /// [`LutMapParams::use_choices`](glsx_core::lut_mapping::LutMapParams)).
        use_choices: bool,
    },
}

/// Error returned when a flow script cannot be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseFlowScriptError {
    message: String,
}

impl fmt::Display for ParseFlowScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid flow script: {}", self.message)
    }
}

impl Error for ParseFlowScriptError {}

/// A parsed flow script: an ordered list of [`FlowStep`]s.
///
/// # Example
///
/// ```
/// use glsx_flow::{FlowScript, FlowStep};
///
/// let script = FlowScript::parse("bz; rs -c 6; rwz")?;
/// assert_eq!(script.steps().len(), 3);
/// assert_eq!(script.steps()[1], FlowStep::Resubstitute { cut_size: 6, depth: 1 });
/// # Ok::<(), glsx_flow::ParseFlowScriptError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FlowScript {
    steps: Vec<FlowStep>,
    /// Per-step effort budgets (`-budget <n>[K|M|G]`, node-visit ticks;
    /// see [`glsx_network::Budget`]), parallel to `steps`.  `None` means
    /// unlimited — the executor may still impose its own default.
    budgets: Vec<Option<u64>>,
    /// Per-step `-trace` marks, parallel to `steps`.  A script that marks
    /// *any* step narrows span recording to exactly the marked steps (see
    /// [`FlowScript::is_traced`]); a script with no marks traces every
    /// step at whatever the tracer's mode records.
    traced: Vec<bool>,
}

impl FlowScript {
    /// Creates a script from explicit steps (all budgets unlimited, no
    /// `-trace` marks).
    pub fn from_steps(steps: Vec<FlowStep>) -> Self {
        let budgets = vec![None; steps.len()];
        let traced = vec![false; steps.len()];
        Self {
            steps,
            budgets,
            traced,
        }
    }

    /// Returns the steps of the script.
    pub fn steps(&self) -> &[FlowStep] {
        &self.steps
    }

    /// The effort budget of step `index` in ticks (`-budget`), or `None`
    /// when the script leaves the step unlimited.
    pub fn budget_of(&self, index: usize) -> Option<u64> {
        self.budgets.get(index).copied().flatten()
    }

    /// Sets the effort budget of step `index` (`None` removes it).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set_budget(&mut self, index: usize, budget: Option<u64>) {
        self.budgets[index] = budget;
    }

    /// Whether step `index` carries the `-trace` mark.  Only meaningful
    /// when [`FlowScript::has_traced_steps`] — the traced runners then
    /// force span recording on marked steps and suppress it on the rest.
    pub fn is_traced(&self, index: usize) -> bool {
        self.traced.get(index).copied().unwrap_or(false)
    }

    /// Sets or clears the `-trace` mark of step `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set_traced(&mut self, index: usize, traced: bool) {
        self.traced[index] = traced;
    }

    /// `true` when any step carries a `-trace` mark, i.e. the script asks
    /// for selective (per-step) span recording.
    pub fn has_traced_steps(&self) -> bool {
        self.traced.iter().any(|&t| t)
    }

    /// Parses a script in the paper's notation: commands separated by `;`,
    /// where `b`/`bz` is balancing, `rw`/`rwz` rewriting, `rf`/`rfz`
    /// refactoring, `rs -c <n> [-d <k>]` resubstitution and
    /// `fraig [-c <conflicts>]` SAT sweeping with an optional per-pair
    /// conflict budget.
    ///
    /// Every command additionally accepts `-budget <ticks>` — an effort
    /// budget in node-visit ticks with an optional `K`/`M`/`G` suffix
    /// (e.g. `rw -budget 2M`), retrievable per step via
    /// [`FlowScript::budget_of`] and honoured by the budget-aware runners
    /// — and `-trace`, marking the step for selective span recording
    /// ([`FlowScript::is_traced`]).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown commands or malformed options.
    pub fn parse(text: &str) -> Result<Self, ParseFlowScriptError> {
        let mut steps = Vec::new();
        let mut budgets = Vec::new();
        let mut traced = Vec::new();
        for command in text.split(';') {
            let command = command.trim();
            if command.is_empty() {
                continue;
            }
            let mut tokens: Vec<&str> = command.split_whitespace().collect();
            let head = tokens.remove(0);
            // `-budget <n>` and `-trace` are command-independent: extract
            // them before the command-specific option loops
            let mut budget = None;
            let mut trace = false;
            let mut t = 0;
            while t < tokens.len() {
                if tokens[t] == "-budget" {
                    let value = tokens.get(t + 1).ok_or_else(|| ParseFlowScriptError {
                        message: format!("missing value after -budget in `{command}`"),
                    })?;
                    budget = Some(parse_tick_count(value).ok_or_else(|| ParseFlowScriptError {
                        message: format!("invalid budget `{value}` in `{command}`"),
                    })?);
                    tokens.drain(t..t + 2);
                } else if tokens[t] == "-trace" {
                    trace = true;
                    tokens.remove(t);
                } else {
                    t += 1;
                }
            }
            let step = match head {
                "b" | "bz" => FlowStep::Balance,
                "rw" | "rwz" => FlowStep::Rewrite {
                    zero_gain: head == "rwz",
                    parallel: false,
                },
                "rf" => FlowStep::Refactor { zero_gain: false },
                "rfz" => FlowStep::Refactor { zero_gain: true },
                "fraig" => {
                    let mut conflict_limit = None;
                    let mut record_choices = false;
                    let rest = std::mem::take(&mut tokens);
                    let mut i = 0;
                    while i < rest.len() {
                        match rest[i] {
                            "-c" => {
                                let value =
                                    rest.get(i + 1).ok_or_else(|| ParseFlowScriptError {
                                        message: format!("missing value after -c in `{command}`"),
                                    })?;
                                let parsed: u64 =
                                    value.parse().map_err(|_| ParseFlowScriptError {
                                        message: format!("invalid number `{value}` in `{command}`"),
                                    })?;
                                conflict_limit = Some(parsed);
                                i += 2;
                            }
                            "-choices" => {
                                record_choices = true;
                                i += 1;
                            }
                            other => {
                                return Err(ParseFlowScriptError {
                                    message: format!("unknown option `{other}` in `{command}`"),
                                })
                            }
                        }
                    }
                    FlowStep::Fraig {
                        conflict_limit,
                        record_choices,
                    }
                }
                "lut_map" => {
                    let mut lut_size = 6usize;
                    let mut use_choices = false;
                    let rest = std::mem::take(&mut tokens);
                    let mut i = 0;
                    while i < rest.len() {
                        match rest[i] {
                            "-k" => {
                                let value =
                                    rest.get(i + 1).ok_or_else(|| ParseFlowScriptError {
                                        message: format!("missing value after -k in `{command}`"),
                                    })?;
                                lut_size = value.parse().map_err(|_| ParseFlowScriptError {
                                    message: format!("invalid number `{value}` in `{command}`"),
                                })?;
                                i += 2;
                            }
                            "-choices" => {
                                use_choices = true;
                                i += 1;
                            }
                            other => {
                                return Err(ParseFlowScriptError {
                                    message: format!("unknown option `{other}` in `{command}`"),
                                })
                            }
                        }
                    }
                    FlowStep::LutMap {
                        lut_size,
                        use_choices,
                    }
                }
                "rs" => {
                    let mut cut_size = 8usize;
                    let mut depth = 1usize;
                    let rest = std::mem::take(&mut tokens);
                    let mut i = 0;
                    while i < rest.len() {
                        match rest[i] {
                            "-c" | "-d" => {
                                let value =
                                    rest.get(i + 1).ok_or_else(|| ParseFlowScriptError {
                                        message: format!(
                                            "missing value after {} in `{command}`",
                                            rest[i]
                                        ),
                                    })?;
                                let parsed: usize =
                                    value.parse().map_err(|_| ParseFlowScriptError {
                                        message: format!("invalid number `{value}` in `{command}`"),
                                    })?;
                                if rest[i] == "-c" {
                                    cut_size = parsed;
                                } else {
                                    depth = parsed;
                                }
                                i += 2;
                            }
                            other => {
                                return Err(ParseFlowScriptError {
                                    message: format!("unknown option `{other}` in `{command}`"),
                                })
                            }
                        }
                    }
                    FlowStep::Resubstitute { cut_size, depth }
                }
                other => {
                    return Err(ParseFlowScriptError {
                        message: format!("unknown command `{other}`"),
                    })
                }
            };
            if !tokens.is_empty() {
                return Err(ParseFlowScriptError {
                    message: format!("unexpected arguments in `{command}`"),
                });
            }
            steps.push(step);
            budgets.push(budget);
            traced.push(trace);
        }
        Ok(Self {
            steps,
            budgets,
            traced,
        })
    }
}

/// Parses a tick count with an optional `K`/`M`/`G` (×10³/10⁶/10⁹)
/// suffix, e.g. `2M` → 2 000 000.  Returns `None` on malformed input or
/// overflow.
fn parse_tick_count(text: &str) -> Option<u64> {
    let (digits, multiplier) = match text.as_bytes().last()? {
        b'K' | b'k' => (&text[..text.len() - 1], 1_000u64),
        b'M' | b'm' => (&text[..text.len() - 1], 1_000_000),
        b'G' | b'g' => (&text[..text.len() - 1], 1_000_000_000),
        _ => (text, 1),
    };
    let value: u64 = digits.parse().ok()?;
    value.checked_mul(multiplier)
}

/// Formats a tick count back into the `-budget` notation, folding exact
/// multiples into the `K`/`M`/`G` suffixes ([`parse_tick_count`]'s
/// inverse on its own output).
fn format_tick_count(ticks: u64) -> String {
    match ticks {
        t if t >= 1_000_000_000 && t % 1_000_000_000 == 0 => format!("{}G", t / 1_000_000_000),
        t if t >= 1_000_000 && t % 1_000_000 == 0 => format!("{}M", t / 1_000_000),
        t if t >= 1_000 && t % 1_000 == 0 => format!("{}K", t / 1_000),
        t => t.to_string(),
    }
}

impl fmt::Display for FlowScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered: Vec<String> = self
            .steps
            .iter()
            .zip(self.budgets.iter().zip(&self.traced))
            .map(|(step, (budget, traced))| {
                let mut text = match step {
                    FlowStep::Balance => "bz".to_string(),
                    FlowStep::Rewrite { zero_gain, .. } => {
                        if *zero_gain { "rwz" } else { "rw" }.to_string()
                    }
                    FlowStep::Refactor { zero_gain: false } => "rf".to_string(),
                    FlowStep::Refactor { zero_gain: true } => "rfz".to_string(),
                    FlowStep::Resubstitute { cut_size, depth } => {
                        if *depth == 1 {
                            format!("rs -c {cut_size}")
                        } else {
                            format!("rs -c {cut_size} -d {depth}")
                        }
                    }
                    FlowStep::Fraig {
                        conflict_limit,
                        record_choices,
                    } => {
                        let mut s = "fraig".to_string();
                        if let Some(limit) = conflict_limit {
                            s.push_str(&format!(" -c {limit}"));
                        }
                        if *record_choices {
                            s.push_str(" -choices");
                        }
                        s
                    }
                    FlowStep::LutMap {
                        lut_size,
                        use_choices,
                    } => {
                        let mut s = "lut_map".to_string();
                        if *lut_size != 6 {
                            s.push_str(&format!(" -k {lut_size}"));
                        }
                        if *use_choices {
                            s.push_str(" -choices");
                        }
                        s
                    }
                };
                if let Some(ticks) = budget {
                    text.push_str(&format!(" -budget {}", format_tick_count(*ticks)));
                }
                if *traced {
                    text.push_str(" -trace");
                }
                text
            })
            .collect();
        write!(f, "{}", rendered.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_script() {
        let script = FlowScript::parse(
            "bz; rs -c 6; rw; rs -c 6 -d 2; rf; rs -c 8; bz; rs -c 8 -d 2; rw; \
             rs -c 10; rwz; rs -c 10 -d 2; bz; rs -c 12; rfz; rs -c 12 -d 2; rwz; bz",
        )
        .unwrap();
        assert_eq!(script.steps().len(), 18);
        assert_eq!(script.steps()[0], FlowStep::Balance);
        assert_eq!(
            script.steps()[1],
            FlowStep::Resubstitute {
                cut_size: 6,
                depth: 1
            }
        );
        assert_eq!(
            script.steps()[3],
            FlowStep::Resubstitute {
                cut_size: 6,
                depth: 2
            }
        );
        assert_eq!(
            script.steps()[10],
            FlowStep::Rewrite {
                zero_gain: true,
                parallel: false
            }
        );
        assert_eq!(script.steps()[14], FlowStep::Refactor { zero_gain: true });
    }

    #[test]
    fn roundtrips_through_display() {
        let text = "bz; rs -c 6; rw; fraig; rs -c 6 -d 2; rfz";
        let script = FlowScript::parse(text).unwrap();
        assert_eq!(script.to_string(), text);
        assert_eq!(FlowScript::parse(&script.to_string()).unwrap(), script);
    }

    #[test]
    fn parses_fraig_steps() {
        let script = FlowScript::parse("fraig; rw; fraig -c 250").unwrap();
        assert_eq!(
            script.steps()[0],
            FlowStep::Fraig {
                conflict_limit: None,
                record_choices: false,
            }
        );
        assert_eq!(
            script.steps()[2],
            FlowStep::Fraig {
                conflict_limit: Some(250),
                record_choices: false,
            }
        );
        assert_eq!(script.to_string(), "fraig; rw; fraig -c 250");
        assert!(FlowScript::parse("fraig extra").is_err());
        assert!(FlowScript::parse("fraig -c").is_err());
        assert!(FlowScript::parse("fraig -c x").is_err());
    }

    #[test]
    fn parses_choice_steps() {
        let script =
            FlowScript::parse("fraig -choices; fraig -c 9 -choices; lut_map -choices").unwrap();
        assert_eq!(
            script.steps()[0],
            FlowStep::Fraig {
                conflict_limit: None,
                record_choices: true,
            }
        );
        assert_eq!(
            script.steps()[1],
            FlowStep::Fraig {
                conflict_limit: Some(9),
                record_choices: true,
            }
        );
        assert_eq!(
            script.steps()[2],
            FlowStep::LutMap {
                lut_size: 6,
                use_choices: true,
            }
        );
        assert_eq!(
            script.to_string(),
            "fraig -choices; fraig -c 9 -choices; lut_map -choices"
        );
        let script = FlowScript::parse("lut_map -k 4").unwrap();
        assert_eq!(
            script.steps()[0],
            FlowStep::LutMap {
                lut_size: 4,
                use_choices: false,
            }
        );
        assert_eq!(script.to_string(), "lut_map -k 4");
        assert!(FlowScript::parse("lut_map -k").is_err());
        assert!(FlowScript::parse("lut_map -k x").is_err());
        assert!(FlowScript::parse("fraig -choices extra").is_err());
    }

    #[test]
    fn parses_step_budgets() {
        let script =
            FlowScript::parse("rw -budget 2M; rs -c 6 -budget 500; fraig -c 9 -budget 1K; bz")
                .unwrap();
        assert_eq!(script.steps().len(), 4);
        assert_eq!(script.budget_of(0), Some(2_000_000));
        assert_eq!(script.budget_of(1), Some(500));
        assert_eq!(
            script.steps()[1],
            FlowStep::Resubstitute {
                cut_size: 6,
                depth: 1
            }
        );
        assert_eq!(script.budget_of(2), Some(1_000));
        assert_eq!(
            script.steps()[2],
            FlowStep::Fraig {
                conflict_limit: Some(9),
                record_choices: false,
            }
        );
        assert_eq!(script.budget_of(3), None);
        assert_eq!(script.budget_of(99), None);
        // the flag may appear before command-specific options
        let script = FlowScript::parse("rs -budget 3G -c 8 -d 2").unwrap();
        assert_eq!(script.budget_of(0), Some(3_000_000_000));
        assert_eq!(
            script.steps()[0],
            FlowStep::Resubstitute {
                cut_size: 8,
                depth: 2
            }
        );
        assert!(FlowScript::parse("rw -budget").is_err());
        assert!(FlowScript::parse("rw -budget x").is_err());
        assert!(FlowScript::parse("rw -budget 1T").is_err());
    }

    #[test]
    fn parses_trace_marks() {
        let script = FlowScript::parse("bz; rw -trace; rs -c 6 -trace -d 2; fraig").unwrap();
        assert!(!script.is_traced(0));
        assert!(script.is_traced(1));
        assert!(script.is_traced(2));
        assert_eq!(
            script.steps()[2],
            FlowStep::Resubstitute {
                cut_size: 6,
                depth: 2
            }
        );
        assert!(!script.is_traced(3));
        assert!(!script.is_traced(99));
        assert!(script.has_traced_steps());
        assert!(!FlowScript::parse("bz; rw").unwrap().has_traced_steps());
        // composes with -budget in either order
        let script = FlowScript::parse("rw -trace -budget 2M; rf -budget 1K -trace").unwrap();
        assert!(script.is_traced(0) && script.is_traced(1));
        assert_eq!(script.budget_of(0), Some(2_000_000));
        assert_eq!(script.budget_of(1), Some(1_000));
    }

    #[test]
    fn trace_marks_roundtrip_through_display() {
        let text = "bz; rw -trace; rs -c 6 -d 2 -trace; fraig -c 9 -budget 1K -trace";
        let script = FlowScript::parse(text).unwrap();
        assert_eq!(script.to_string(), text);
        assert_eq!(FlowScript::parse(&script.to_string()).unwrap(), script);
    }

    #[test]
    fn budgets_roundtrip_through_display() {
        let text = "rw -budget 2M; rs -c 6; fraig -c 9 -budget 1K; bz -budget 12345";
        let script = FlowScript::parse(text).unwrap();
        assert_eq!(script.to_string(), text);
        assert_eq!(FlowScript::parse(&script.to_string()).unwrap(), script);
    }

    #[test]
    fn rejects_malformed_scripts() {
        assert!(FlowScript::parse("frobnicate").is_err());
        assert!(FlowScript::parse("rs -c").is_err());
        assert!(FlowScript::parse("rs -c x").is_err());
        assert!(FlowScript::parse("rs --cut 6").is_err());
        assert!(FlowScript::parse("rw extra").is_err());
        assert!(FlowScript::parse("rw -par").is_err());
        assert!(FlowScript::parse("rwz -par").is_err());
    }

    #[test]
    fn empty_script_is_valid() {
        assert!(FlowScript::parse("").unwrap().steps().is_empty());
        assert!(FlowScript::parse(" ; ; ").unwrap().steps().is_empty());
    }
}
