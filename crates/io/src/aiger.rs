//! AIGER interchange for And-inverter graphs: the ASCII (`aag`) and
//! binary (`aig`) variants of the format the EPFL benchmark suites are
//! distributed in.
//!
//! Both readers go through the robust [`BuilderSink`]-style path
//! (`create_and` per gate) rather than the bulk loader: external files
//! are untrusted, may carry structurally duplicate or constant-foldable
//! ANDs, and binary AIGER's rhs ordering (`rhs0 ≥ rhs1`) differs from
//! this workspace's normalisation, so every gate is re-normalised and
//! re-hashed on ingest.
//!
//! # Accepted grammar (ASCII)
//!
//! [`read_aiger`] accepts a superset of the strict format:
//!
//! * header `aag M I L O A` (`L` must be 0 — the library is
//!   combinational; latch declarations are rejected),
//! * exactly `I` input literals, `O` output literals and `A` AND
//!   definitions of three literals each, as whitespace-separated decimal
//!   tokens — *any* whitespace (spaces, tabs, `\r`, blank lines, several
//!   numbers per line) separates tokens, not just the strict
//!   one-line-per-record layout,
//! * AND definitions in **any order**, as long as every fanin is
//!   eventually defined (the strict format requires fanins to precede
//!   uses; this reader builds each AND after its fanins in one depth-first
//!   pass over the definitions, so a file in strict order builds its ANDs
//!   in file order, and rejects only genuinely cyclic or undefined ones),
//! * each literal defined at most once, all literals ≤ `2·M + 1`,
//! * an optional symbol/comment section after the last AND definition,
//!   which is ignored.
//!
//! # Untrusted headers
//!
//! An `aag` body holds at most one record per two bytes, so a header
//! declaring more `I + O + 3·A` records is rejected before any table is
//! sized.  `M` only bounds literals: the reader stores the defined
//! variables by index, so a sparse numbering costs nothing extra.  A
//! binary `aig` file's outputs (a line of at least two bytes each) and
//! ANDs (two varints of at least one byte each) are bounded the same
//! way, and its literals must fit 32 bits.  Binary inputs are implicit
//! and cost no bytes, so any input count in that range is valid; the
//! reader reserves their tables fallibly, so a count the allocator
//! refuses is a parse error, not an abort.

use glsx_network::{Aig, GateBuilder, Network, NodeId, Signal};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error returned when parsing an AIGER file fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAigerError {
    message: String,
}

impl ParseAigerError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid AIGER input: {}", self.message)
    }
}

impl Error for ParseAigerError {}

/// Dense literal assignment shared by both writers: inputs first, then
/// the live gates in topological order.
fn dense_literals(aig: &Aig) -> (HashMap<NodeId, u32>, Vec<NodeId>) {
    let mut literal: HashMap<NodeId, u32> = HashMap::new();
    literal.insert(0, 0);
    let mut next_index = 1u32;
    for pi in aig.pi_nodes() {
        literal.insert(pi, 2 * next_index);
        next_index += 1;
    }
    let gates = aig.gate_nodes();
    for &gate in &gates {
        literal.insert(gate, 2 * next_index);
        next_index += 1;
    }
    (literal, gates)
}

fn lit_of(literal: &HashMap<NodeId, u32>, s: Signal) -> u32 {
    literal[&s.node()] + s.is_complemented() as u32
}

/// Serialises an AIG in the ASCII AIGER format (`aag` header).
///
/// Node indices are re-numbered densely: inputs first, then gates in
/// topological order, matching the format's requirements.
pub fn write_aiger(aig: &Aig) -> String {
    let (literal, gates) = dense_literals(aig);
    let max_index = aig.num_pis() + gates.len();
    let mut out = format!(
        "aag {} {} 0 {} {}\n",
        max_index,
        aig.num_pis(),
        aig.num_pos(),
        gates.len()
    );
    for pi in aig.pi_nodes() {
        out.push_str(&format!("{}\n", literal[&pi]));
    }
    for po in aig.po_signals() {
        out.push_str(&format!("{}\n", lit_of(&literal, po)));
    }
    for &gate in &gates {
        let fanins = aig.fanins(gate);
        out.push_str(&format!(
            "{} {} {}\n",
            literal[&gate],
            lit_of(&literal, fanins[0]),
            lit_of(&literal, fanins[1])
        ));
    }
    out
}

fn push_varint(out: &mut Vec<u8>, mut value: u32) {
    while value >= 0x80 {
        out.push((value & 0x7F) as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Serialises an AIG in the binary AIGER format (`aig` header): inputs
/// are implicit, each AND stores two LEB128 varint deltas
/// (`lhs − rhs0`, `rhs0 − rhs1` with `rhs0 ≥ rhs1`), typically ~3 bytes
/// per gate instead of ~15 in ASCII.
pub fn write_aiger_binary(aig: &Aig) -> Vec<u8> {
    let (literal, gates) = dense_literals(aig);
    let num_inputs = aig.num_pis();
    let max_index = num_inputs + gates.len();
    let mut out = format!(
        "aig {} {} 0 {} {}\n",
        max_index,
        num_inputs,
        aig.num_pos(),
        gates.len()
    )
    .into_bytes();
    for po in aig.po_signals() {
        out.extend_from_slice(format!("{}\n", lit_of(&literal, po)).as_bytes());
    }
    for &gate in &gates {
        let lhs = literal[&gate];
        let fanins = aig.fanins(gate);
        let (lit0, lit1) = (lit_of(&literal, fanins[0]), lit_of(&literal, fanins[1]));
        let (rhs0, rhs1) = (lit0.max(lit1), lit0.min(lit1));
        debug_assert!(lhs > rhs0, "dense topological order guarantees lhs > rhs0");
        push_varint(&mut out, lhs - rhs0);
        push_varint(&mut out, rhs0 - rhs1);
    }
    out
}

/// Parses an AIGER file — ASCII (`aag`) or binary (`aig`), sniffed from
/// the header — into an [`Aig`].
///
/// Latches are not supported (the library handles combinational logic
/// only); symbol and comment sections are ignored.  The ASCII variant is
/// whitespace- and order-tolerant; see the
/// [module docs](self) for the exact accepted grammar.
///
/// # Errors
///
/// Returns an error on malformed headers, out-of-range or duplicate
/// literals, latch declarations, truncated binary data or undefined
/// fanins.
pub fn read_aiger(input: impl AsRef<[u8]>) -> Result<Aig, ParseAigerError> {
    let bytes = input.as_ref();
    if bytes.starts_with(b"aig ") || bytes.starts_with(b"aig\t") {
        read_aiger_binary(bytes)
    } else {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| ParseAigerError::new("ASCII AIGER input is not valid UTF-8"))?;
        read_aiger_ascii(text)
    }
}

struct Header {
    max_index: usize,
    num_inputs: usize,
    num_outputs: usize,
    num_ands: usize,
}

fn parse_number(s: &str) -> Result<usize, ParseAigerError> {
    s.parse()
        .map_err(|_| ParseAigerError::new(format!("invalid number `{s}`")))
}

fn parse_header<'a>(
    tag: &str,
    mut fields: impl Iterator<Item = &'a str>,
) -> Result<Header, ParseAigerError> {
    let mut next = |what: &str| {
        fields
            .next()
            .ok_or_else(|| ParseAigerError::new(format!("header is missing the {what} count")))
    };
    if next("format")? != tag {
        return Err(ParseAigerError::new(format!("expected an `{tag}` header")));
    }
    let max_index = parse_number(next("maximum index")?)?;
    let num_inputs = parse_number(next("input")?)?;
    let num_latches = parse_number(next("latch")?)?;
    let num_outputs = parse_number(next("output")?)?;
    let num_ands = parse_number(next("AND")?)?;
    if num_latches != 0 {
        return Err(ParseAigerError::new("latches are not supported"));
    }
    if num_inputs
        .checked_add(num_ands)
        .is_none_or(|defined| max_index < defined)
    {
        return Err(ParseAigerError::new(format!(
            "maximum index {max_index} is below inputs + ANDs ({num_inputs} + {num_ands})"
        )));
    }
    Ok(Header {
        max_index,
        num_inputs,
        num_outputs,
        num_ands,
    })
}

/// The ASCII reader's state of one defined variable.
#[derive(Clone, Copy)]
enum Var {
    /// An input, or an AND already built.
    Built(Signal),
    /// The AND with this index in the definition list, not built yet.
    Pending(usize),
    /// An AND whose fanins are being built: reaching it again closes a
    /// cycle.
    Building,
}

/// The ASCII reader's defined variables by index.  Indices up to the
/// number of definitions, every index of a densely numbered file, sit in
/// a table; the larger ones a sparse numbering may use, in a map.  Neither
/// is sized by the header's maximum index.
struct Variables {
    dense: Vec<Option<Var>>,
    sparse: HashMap<usize, Var>,
}

impl Variables {
    fn new(num_defined: usize) -> Self {
        Self {
            dense: vec![None; num_defined + 1],
            sparse: HashMap::new(),
        }
    }

    /// Sets the state of `var` and returns whether it was undefined
    /// before.
    fn define(&mut self, var: usize, state: Var) -> bool {
        match self.dense.get_mut(var) {
            Some(slot) => slot.replace(state).is_none(),
            None => self.sparse.insert(var, state).is_none(),
        }
    }

    fn get(&self, var: usize) -> Option<Var> {
        match self.dense.get(var) {
            Some(slot) => *slot,
            None => self.sparse.get(&var).copied(),
        }
    }

    /// The signal of literal `lit`, once its variable is built.
    fn signal(&self, lit: usize) -> Option<Signal> {
        match self.get(lit / 2) {
            Some(Var::Built(s)) => Some(s.complement_if(lit % 2 == 1)),
            _ => None,
        }
    }
}

fn read_aiger_ascii(text: &str) -> Result<Aig, ParseAigerError> {
    // records are plain whitespace-separated decimal tokens: consuming a
    // token stream (instead of exact lines) tolerates blank lines, `\r`,
    // extra spaces and several records per line for free.  The symbol/
    // comment section begins at the first non-numeric token after the
    // last AND definition and is never reached below.
    let text = text.trim_start();
    let (header_line, rest) = text.split_once('\n').unwrap_or((text, ""));
    let header = parse_header("aag", header_line.split_whitespace())?;
    // the header is untrusted and sizes the tables below, so its record
    // counts are first bounded by the body: each record is a decimal token
    // plus a separator (the last may end the input).  The maximum index
    // sizes nothing (see `Variables`).
    let records = header.num_ands.checked_mul(3).and_then(|ands| {
        ands.checked_add(header.num_inputs)?
            .checked_add(header.num_outputs)
    });
    if records.is_none_or(|records| records > rest.len().div_ceil(2)) {
        return Err(ParseAigerError::new(format!(
            "header declares {} inputs, {} outputs and {} ANDs, more than the {}-byte body holds",
            header.num_inputs,
            header.num_outputs,
            header.num_ands,
            rest.len()
        )));
    }
    let mut tokens = rest.split_whitespace();
    let mut next_literal = |what: &str| -> Result<usize, ParseAigerError> {
        let token = tokens
            .next()
            .ok_or_else(|| ParseAigerError::new(format!("missing {what}")))?;
        let lit = parse_number(token)?;
        if lit / 2 > header.max_index {
            return Err(ParseAigerError::new(format!(
                "literal {lit} exceeds maximum index {}",
                header.max_index
            )));
        }
        Ok(lit)
    };

    let mut aig = Aig::new();
    let mut signals = Variables::new(header.num_inputs + header.num_ands);
    signals.define(0, Var::Built(aig.get_constant(false)));
    let duplicate =
        |lit: usize| ParseAigerError::new(format!("literal {lit} defined more than once"));
    for _ in 0..header.num_inputs {
        let lit = next_literal("input literal")?;
        if lit % 2 != 0 {
            return Err(ParseAigerError::new(format!("invalid input literal {lit}")));
        }
        if !signals.define(lit / 2, Var::Built(aig.create_pi())) {
            return Err(duplicate(lit));
        }
    }
    let mut output_literals = Vec::with_capacity(header.num_outputs);
    for _ in 0..header.num_outputs {
        output_literals.push(next_literal("output literal")?);
    }
    let mut and_definitions = Vec::with_capacity(header.num_ands);
    for _ in 0..header.num_ands {
        let lhs = next_literal("AND definition")?;
        let rhs0 = next_literal("AND fanin")?;
        let rhs1 = next_literal("AND fanin")?;
        if lhs % 2 != 0 {
            return Err(ParseAigerError::new(format!(
                "AND defines complemented literal {lhs}"
            )));
        }
        if !signals.define(lhs / 2, Var::Pending(and_definitions.len())) {
            return Err(duplicate(lhs));
        }
        and_definitions.push([lhs, rhs0, rhs1]);
    }
    // ANDs may be listed in any order in which every fanin is eventually
    // defined.  One depth-first pass in file order builds each AND after
    // its fanins, so a file in strict order builds its ANDs in file order.
    let mut stack = Vec::new();
    for root in 0..and_definitions.len() {
        if matches!(
            signals.get(and_definitions[root][0] / 2),
            Some(Var::Built(_))
        ) {
            continue;
        }
        signals.define(and_definitions[root][0] / 2, Var::Building);
        stack.push(root);
        while let Some(&index) = stack.last() {
            let [lhs, rhs0, rhs1] = and_definitions[index];
            let mut ready = true;
            for rhs in [rhs0, rhs1] {
                match signals.get(rhs / 2) {
                    Some(Var::Built(_)) => {}
                    Some(Var::Pending(fanin)) => {
                        signals.define(rhs / 2, Var::Building);
                        stack.push(fanin);
                        ready = false;
                        break;
                    }
                    Some(Var::Building) => {
                        return Err(ParseAigerError::new(format!(
                            "cyclic AND definitions through literal {lhs}"
                        )))
                    }
                    None => {
                        return Err(ParseAigerError::new(format!(
                            "AND {lhs} uses undefined literal {rhs}"
                        )))
                    }
                }
            }
            if ready {
                let fanin = |lit| signals.signal(lit).expect("fanins are built");
                let gate = aig.create_and(fanin(rhs0), fanin(rhs1));
                signals.define(lhs / 2, Var::Built(gate));
                stack.pop();
            }
        }
    }
    for lit in output_literals {
        let signal = signals
            .signal(lit)
            .ok_or_else(|| ParseAigerError::new(format!("undefined output literal {lit}")))?;
        aig.create_po(signal);
    }
    Ok(aig)
}

fn read_aiger_binary(bytes: &[u8]) -> Result<Aig, ParseAigerError> {
    // the header and the output literals are ASCII lines; everything
    // after them is the varint-packed AND section
    let mut pos = 0usize;
    let mut next_line = |what: &str| -> Result<&str, ParseAigerError> {
        let start = pos;
        let end = bytes[start..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| start + i)
            .ok_or_else(|| ParseAigerError::new(format!("truncated before {what}")))?;
        pos = end + 1;
        std::str::from_utf8(&bytes[start..end])
            .map_err(|_| ParseAigerError::new(format!("{what} is not valid ASCII")))
    };
    let header = parse_header("aig", next_line("header")?.split_whitespace())?;
    if header.max_index != header.num_inputs + header.num_ands {
        return Err(ParseAigerError::new(format!(
            "binary AIGER requires M = I + A (got M={}, I={}, A={})",
            header.max_index, header.num_inputs, header.num_ands
        )));
    }
    // the header is untrusted.  Literals must fit the `u32` varint
    // arithmetic, and the outputs and ANDs, which size tables and loops,
    // are bounded by the file length: each output line takes at least two
    // bytes and each AND two varints of at least one byte.  Inputs are
    // implicit and cost no bytes, so any count within the literal range
    // is valid; their tables are reserved fallibly below instead.
    if header.max_index > (u32::MAX / 2) as usize {
        return Err(ParseAigerError::new(format!(
            "maximum index {} exceeds the 32-bit literal range",
            header.max_index
        )));
    }
    let len = bytes.len();
    if header.num_outputs > len / 2 || header.num_ands > len / 2 {
        return Err(ParseAigerError::new(format!(
            "header declares {} outputs and {} ANDs, more than the {len}-byte file holds",
            header.num_outputs, header.num_ands
        )));
    }
    let mut output_literals = Vec::with_capacity(header.num_outputs);
    for _ in 0..header.num_outputs {
        let line = next_line("output literal")?;
        let lit = parse_number(line.trim())?;
        if lit / 2 > header.max_index {
            return Err(ParseAigerError::new(format!(
                "literal {lit} exceeds maximum index {}",
                header.max_index
            )));
        }
        output_literals.push(lit);
    }

    let mut aig = Aig::new();
    let mut signals: Vec<Signal> = Vec::new();
    let refused = |_| {
        ParseAigerError::new(format!(
            "cannot allocate the {} declared inputs",
            header.num_inputs
        ))
    };
    signals
        .try_reserve_exact(header.max_index + 1)
        .map_err(refused)?;
    aig.try_reserve_pis(header.num_inputs).map_err(refused)?;
    signals.push(aig.get_constant(false));
    for _ in 0..header.num_inputs {
        let pi = aig.create_pi();
        signals.push(pi);
    }
    let mut read_varint = |what: u32| -> Result<u32, ParseAigerError> {
        let mut value = 0u32;
        let mut shift = 0u32;
        loop {
            let byte = *bytes
                .get(pos)
                .ok_or_else(|| ParseAigerError::new(format!("truncated in AND {what}")))?;
            pos += 1;
            if shift >= 32 || (shift == 28 && byte & 0x7F > 0x0F) {
                return Err(ParseAigerError::new(format!(
                    "varint overflow in AND {what}"
                )));
            }
            value |= u32::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    };
    for i in 0..header.num_ands {
        // the definition order and lhs literals are implicit in binary
        // AIGER: gate i defines literal 2·(I + 1 + i)
        let lhs = 2 * (header.num_inputs as u32 + 1 + i as u32);
        let delta0 = read_varint(lhs)?;
        if delta0 == 0 || delta0 > lhs {
            return Err(ParseAigerError::new(format!(
                "AND {lhs}: delta {delta0} out of range"
            )));
        }
        let rhs0 = lhs - delta0;
        let delta1 = read_varint(lhs)?;
        if delta1 > rhs0 {
            return Err(ParseAigerError::new(format!(
                "AND {lhs}: delta {delta1} out of range"
            )));
        }
        let rhs1 = rhs0 - delta1;
        let resolve =
            |lit: u32| -> Signal { signals[(lit / 2) as usize].complement_if(lit % 2 == 1) };
        let gate = aig.create_and(resolve(rhs0), resolve(rhs1));
        signals.push(gate);
    }
    for lit in output_literals {
        let signal = signals
            .get(lit / 2)
            .copied()
            .ok_or_else(|| ParseAigerError::new(format!("undefined output literal {lit}")))?;
        aig.create_po(signal.complement_if(lit % 2 == 1));
    }
    Ok(aig)
}
