//! GBC — the workspace's packed streaming binary circuit format.
//!
//! GBC is block-structured so million-gate circuits can be streamed,
//! skipped through, and later parallel-decoded without touching the whole
//! file.  All integers are little-endian.
//!
//! ```text
//! header (24 bytes)
//!   magic      4 bytes  "GBC1"
//!   kind       u8       CircuitKind code (0 aig, 1 xag, 2 mig, 3 xmg)
//!   flags      u8       reserved, 0
//!   k          u16      gate arity of the representation (2 or 3)
//!   num_pis    u32
//!   num_gates  u32      patched at finish time
//!   num_pos    u32      patched at finish time
//!   num_blocks u32      patched at finish time
//! num_blocks × block
//!   gate_count u32      ≤ 65536 (BLOCK_GATES)
//!   first_id   u32      stream id of the block's first gate
//!   max_level  u32      deepest gate level in the block (index record)
//!   width      u8       bytes per fanin delta in this block (1..=4)
//!   body_len   u32      bytes of body that follow
//!   body
//!     kind bits         ⌈gate_count/8⌉ bytes, only for two-kind
//!                       representations (xag, xmg); bit i set = gate i is
//!                       the alternate kind (xor/xor3), clear = default
//!                       (and/maj); LSB-first within each byte
//!     deltas            gate_count × k × width bytes
//! num_pos × u32         primary-output literals
//! ```
//!
//! Gate records use the dense stream id space of
//! [`crate::stream`]: id 0 is the constant, ids `1..=num_pis` the inputs,
//! gates consecutive after that.  Each fanin is stored as the *delta*
//! `2·id − fanin_literal`, where `id` is the gate's own stream id and
//! `fanin_literal` is the fanin's complemented-edge literal
//! ([`Signal::literal`]).  Because streams are topologically sorted the
//! delta is always ≥ 1, stays small for the local wiring that dominates
//! real circuits, and each block stores all its deltas at the narrowest
//! fixed width that fits — fixed-width-per-block decodes in a tight loop
//! (no per-byte branch as with varints) while staying within ~1 byte per
//! fanin on typical circuits.
//!
//! The per-block `first_id`/`max_level` index records let
//! [`read_gbc_info`] summarise a file (and a future parallel decoder split
//! it) by reading 17-byte block headers and seeking past bodies.
//!
//! # Untrusted headers
//!
//! Every stream id must fit a 32-bit literal, so a header declaring more
//! than `2^31` nodes is rejected.  Gates and outputs occupy bytes: where
//! the input length is known ([`read_gbc`]) counts the rest of the input
//! cannot hold are rejected before anything is sized, and the streaming
//! [`GbcReader`] reserves nothing from them.  Inputs are implicit and
//! cost no bytes, so their tables are reserved fallibly: a count the
//! allocator refuses is an [`IoError`], not an abort.

use crate::stream::{refused_inputs, CircuitHeader, CircuitSink, CircuitSource, IoError, Record};
use crate::NetworkSource;
use glsx_network::views::DepthView;
use glsx_network::{
    BulkError, BulkTarget, CircuitKind, FaninArray, GateKind, NetworkBuilder, Signal,
};
use std::io::{Cursor, Read, Seek, SeekFrom, Write};

/// Magic bytes opening every GBC file.
pub const GBC_MAGIC: [u8; 4] = *b"GBC1";

/// Gates per block (the block is the unit of streaming and skipping).
pub const BLOCK_GATES: usize = 64 * 1024;

const HEADER_LEN: u64 = 24;

fn write_u32(out: &mut impl Write, value: u32) -> Result<(), IoError> {
    out.write_all(&value.to_le_bytes())?;
    Ok(())
}

/// Validates a GBC file header, returning the stream header and the block
/// count.
fn parse_header(header_bytes: &[u8; HEADER_LEN as usize]) -> Result<(CircuitHeader, u32), IoError> {
    if header_bytes[..4] != GBC_MAGIC {
        return Err(IoError::format("bad magic (not a GBC file)"));
    }
    let kind = CircuitKind::from_code(header_bytes[4])
        .ok_or_else(|| IoError::format(format!("unknown kind code {}", header_bytes[4])))?;
    let k = u16::from_le_bytes([header_bytes[6], header_bytes[7]]) as usize;
    if k != kind.max_arity() {
        return Err(IoError::format(format!(
            "arity {k} does not match representation {kind}"
        )));
    }
    let field = |i: usize| u32::from_le_bytes(header_bytes[i..i + 4].try_into().expect("4 bytes"));
    let header = CircuitHeader {
        kind,
        num_pis: field(8),
        num_gates: field(12),
        num_pos: field(16),
    };
    // a stream id is half a 32-bit fanin or output literal
    if 1 + u64::from(header.num_pis) + u64::from(header.num_gates) > 1 << 31 {
        return Err(IoError::format(format!(
            "header declares {} inputs and {} gates, more nodes than 32-bit literals address",
            header.num_pis, header.num_gates
        )));
    }
    Ok((header, field(20)))
}

/// Slices `len` bytes at `*at`, advancing the offset; truncation surfaces
/// as the same unexpected-EOF error `read_exact` would produce.
fn take<'a>(bytes: &'a [u8], at: &mut usize, len: usize) -> Result<&'a [u8], IoError> {
    let end = at
        .checked_add(len)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| IoError::Io(std::io::ErrorKind::UnexpectedEof.into()))?;
    let slice = &bytes[*at..end];
    *at = end;
    Ok(slice)
}

/// Streaming GBC writer (a [`CircuitSink`] over any `Write + Seek`
/// destination — seeking is needed once, to patch the true counts into
/// the header at finish time).
pub struct GbcWriter<W: Write + Seek> {
    out: W,
    header_pos: u64,
    kind: CircuitKind,
    arity: usize,
    has_kind_bits: bool,
    /// Stream level per stream id (the writer levelises so each block's
    /// index record can carry its max level).
    levels: Vec<u32>,
    /// Buffered records of the current block.
    block: Vec<(GateKind, FaninArray)>,
    block_first_id: u32,
    num_gates: u32,
    num_blocks: u32,
    pos: Vec<u32>,
    started: bool,
}

impl<W: Write + Seek> GbcWriter<W> {
    /// Wraps a destination; the stream starts at the current position.
    pub fn new(out: W) -> Self {
        Self {
            out,
            header_pos: 0,
            kind: CircuitKind::Aig,
            arity: 2,
            has_kind_bits: false,
            levels: Vec::new(),
            block: Vec::new(),
            block_first_id: 0,
            num_gates: 0,
            num_blocks: 0,
            pos: Vec::new(),
            started: false,
        }
    }

    fn next_id(&self) -> u32 {
        self.levels.len() as u32
    }

    fn flush_block(&mut self) -> Result<(), IoError> {
        if self.block.is_empty() {
            return Ok(());
        }
        let gate_count = self.block.len();
        // compute the deltas and the narrowest width that fits them all
        let mut deltas = Vec::with_capacity(gate_count * self.arity);
        let mut max_delta = 0u32;
        let mut max_level = 0u32;
        for (i, (_, fanins)) in self.block.iter().enumerate() {
            let id = self.block_first_id + i as u32;
            max_level = max_level.max(self.levels[id as usize]);
            for f in fanins.iter() {
                let delta = 2 * id - f.literal();
                max_delta = max_delta.max(delta);
                deltas.push(delta);
            }
        }
        let width = match max_delta {
            0..=0xFF => 1u8,
            0x100..=0xFFFF => 2,
            0x1_0000..=0xFF_FFFF => 3,
            _ => 4,
        };
        let kind_bits_len = if self.has_kind_bits {
            gate_count.div_ceil(8)
        } else {
            0
        };
        let body_len = kind_bits_len + deltas.len() * width as usize;
        write_u32(&mut self.out, gate_count as u32)?;
        write_u32(&mut self.out, self.block_first_id)?;
        write_u32(&mut self.out, max_level)?;
        self.out.write_all(&[width])?;
        write_u32(&mut self.out, body_len as u32)?;
        if self.has_kind_bits {
            let mut bits = vec![0u8; kind_bits_len];
            for (i, (kind, _)) in self.block.iter().enumerate() {
                if Some(*kind) == self.kind.alternate_gate() {
                    bits[i / 8] |= 1 << (i % 8);
                }
            }
            self.out.write_all(&bits)?;
        }
        let mut body = Vec::with_capacity(deltas.len() * width as usize);
        for delta in deltas {
            body.extend_from_slice(&delta.to_le_bytes()[..width as usize]);
        }
        self.out.write_all(&body)?;
        self.block_first_id += gate_count as u32;
        self.num_blocks += 1;
        self.block.clear();
        Ok(())
    }
}

impl<W: Write + Seek> CircuitSink for GbcWriter<W> {
    type Output = W;

    fn begin(&mut self, header: &CircuitHeader) -> Result<(), IoError> {
        self.kind = header.kind;
        self.arity = header.kind.max_arity();
        self.has_kind_bits = header.kind.alternate_gate().is_some();
        self.header_pos = self.out.stream_position()?;
        self.out.write_all(&GBC_MAGIC)?;
        self.out.write_all(&[header.kind.code(), 0])?;
        self.out.write_all(&(self.arity as u16).to_le_bytes())?;
        write_u32(&mut self.out, header.num_pis)?;
        write_u32(&mut self.out, 0)?; // num_gates, patched at finish
        write_u32(&mut self.out, 0)?; // num_pos, patched at finish
        write_u32(&mut self.out, 0)?; // num_blocks, patched at finish
        self.levels = vec![0u32; 1 + header.num_pis as usize];
        self.levels.reserve(header.num_gates as usize);
        self.block_first_id = self.next_id();
        self.started = true;
        Ok(())
    }

    fn gate(&mut self, kind: GateKind, fanins: &[Signal]) -> Result<(), IoError> {
        self.gate_owned(kind, FaninArray::from_slice(fanins))
    }

    fn gate_owned(&mut self, kind: GateKind, fanins: FaninArray) -> Result<(), IoError> {
        if !self.started {
            return Err(IoError::format("gate record before stream header"));
        }
        if !self.kind.accepts(kind) {
            return Err(IoError::format(format!(
                "{} streams cannot carry {kind} gates",
                self.kind
            )));
        }
        if fanins.len() != self.arity {
            return Err(IoError::format(format!(
                "{kind} record has {} fanins, {} requires {}",
                fanins.len(),
                self.kind,
                self.arity
            )));
        }
        let id = self.next_id();
        let mut level = 0u32;
        for f in fanins.iter() {
            if f.node() >= id {
                return Err(IoError::format(format!(
                    "gate {id} references node {} before its definition",
                    f.node()
                )));
            }
            level = level.max(self.levels[f.node() as usize]);
        }
        self.levels.push(level + 1);
        self.block.push((kind, fanins));
        self.num_gates += 1;
        if self.block.len() == BLOCK_GATES {
            self.flush_block()?;
        }
        Ok(())
    }

    fn output(&mut self, signal: Signal) -> Result<(), IoError> {
        if signal.node() >= self.next_id() {
            return Err(IoError::format(format!(
                "output references undefined node {}",
                signal.node()
            )));
        }
        self.pos.push(signal.literal());
        Ok(())
    }

    fn finish(mut self) -> Result<W, IoError> {
        if !self.started {
            return Err(IoError::format("stream finished before its header"));
        }
        self.flush_block()?;
        for lit in &self.pos {
            write_u32(&mut self.out, *lit)?;
        }
        let end = self.out.stream_position()?;
        self.out.seek(SeekFrom::Start(self.header_pos + 12))?;
        write_u32(&mut self.out, self.num_gates)?;
        write_u32(&mut self.out, self.pos.len() as u32)?;
        write_u32(&mut self.out, self.num_blocks)?;
        self.out.seek(SeekFrom::Start(end))?;
        Ok(self.out)
    }
}

/// Streaming GBC reader (a [`CircuitSource`] over any `Read`): decodes one
/// block at a time, levelising and validating as records are produced.
pub struct GbcReader<R: Read> {
    input: R,
    header: CircuitHeader,
    kind: CircuitKind,
    arity: usize,
    /// Stream id of the first gate; the constant and the inputs below it
    /// are at level 0 and take no slot.
    first_gate: usize,
    /// Stream level per gate, indexed from `first_gate` (recomputed for
    /// index-record validation; also what makes this a *levelizing*
    /// reader).
    levels: Vec<u32>,
    blocks_left: u32,
    /// Decoded records of the current block, consumed front to back.
    pending: std::vec::IntoIter<Record>,
    pos_left: u32,
    gates_seen: u32,
}

impl<R: Read> GbcReader<R> {
    /// Parses the file header and positions the reader before the first
    /// block.
    ///
    /// # Errors
    ///
    /// Fails on a bad magic, unknown representation code, inconsistent
    /// arity or node counts beyond the 32-bit literal range.
    pub fn new(mut input: R) -> Result<Self, IoError> {
        let mut header_bytes = [0u8; HEADER_LEN as usize];
        input.read_exact(&mut header_bytes)?;
        let (header, blocks_left) = parse_header(&header_bytes)?;
        let kind = header.kind;
        let k = kind.max_arity();
        // the header is untrusted and the stream's length unknown, so the
        // gate levels grow block by block instead of being reserved from
        // the declared count
        Ok(Self {
            input,
            header,
            kind,
            arity: k,
            first_gate: 1 + header.num_pis as usize,
            levels: Vec::new(),
            blocks_left,
            pending: Vec::new().into_iter(),
            pos_left: header.num_pos,
            gates_seen: 0,
        })
    }

    fn read_u32(&mut self) -> Result<u32, IoError> {
        let mut buf = [0u8; 4];
        self.input.read_exact(&mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Stream id the next gate record gets.
    fn next_id(&self) -> usize {
        self.first_gate + self.levels.len()
    }

    /// Level of an already-defined stream id.
    fn level(&self, id: usize) -> u32 {
        id.checked_sub(self.first_gate)
            .map_or(0, |gate| self.levels[gate])
    }

    /// Decodes the next block into `pending`.
    fn decode_block(&mut self) -> Result<(), IoError> {
        let gate_count = self.read_u32()? as usize;
        let first_id = self.read_u32()?;
        let declared_max_level = self.read_u32()?;
        let mut small = [0u8; 1];
        self.input.read_exact(&mut small)?;
        let width = small[0] as usize;
        let body_len = self.read_u32()? as usize;
        if gate_count == 0 || gate_count > BLOCK_GATES {
            return Err(IoError::format(format!(
                "bad block gate count {gate_count}"
            )));
        }
        if !(1..=4).contains(&width) {
            return Err(IoError::format(format!("bad delta width {width}")));
        }
        if first_id as usize != self.next_id() {
            return Err(IoError::format(format!(
                "block first id {first_id} does not continue the stream (expected {})",
                self.next_id()
            )));
        }
        let has_kind_bits = self.kind.alternate_gate().is_some();
        let kind_bits_len = if has_kind_bits {
            gate_count.div_ceil(8)
        } else {
            0
        };
        if body_len != kind_bits_len + gate_count * self.arity * width {
            return Err(IoError::format(format!("bad block body length {body_len}")));
        }
        let mut body = vec![0u8; body_len];
        self.input.read_exact(&mut body)?;
        let (kind_bits, deltas) = body.split_at(kind_bits_len);
        let mut records = Vec::with_capacity(gate_count);
        let mut max_level = 0u32;
        for i in 0..gate_count {
            let id = first_id + i as u32;
            let kind = if has_kind_bits && kind_bits[i / 8] & (1 << (i % 8)) != 0 {
                self.kind
                    .alternate_gate()
                    .expect("kind bits imply an alternate gate")
            } else {
                self.kind.default_gate()
            };
            let mut fanins = FaninArray::new();
            let mut level = 0u32;
            for j in 0..self.arity {
                let at = (i * self.arity + j) * width;
                let mut raw = [0u8; 4];
                raw[..width].copy_from_slice(&deltas[at..at + width]);
                let delta = u32::from_le_bytes(raw);
                if delta == 0 || delta > 2 * id {
                    return Err(IoError::format(format!(
                        "gate {id}: delta {delta} out of range"
                    )));
                }
                let literal = 2 * id - delta;
                let fanin = Signal::from_literal(literal);
                level = level.max(self.level(fanin.node() as usize));
                fanins.push(fanin);
            }
            self.levels.push(level + 1);
            max_level = max_level.max(level + 1);
            records.push(Record::Gate { kind, fanins });
        }
        if max_level != declared_max_level {
            return Err(IoError::format(format!(
                "block index declares max level {declared_max_level}, records reach {max_level}"
            )));
        }
        self.gates_seen += gate_count as u32;
        self.blocks_left -= 1;
        self.pending = records.into_iter();
        Ok(())
    }
}

impl<R: Read> CircuitSource for GbcReader<R> {
    fn header(&self) -> &CircuitHeader {
        &self.header
    }

    fn next_record(&mut self) -> Result<Option<Record>, IoError> {
        loop {
            if let Some(record) = self.pending.next() {
                return Ok(Some(record));
            }
            if self.blocks_left > 0 {
                self.decode_block()?;
                continue;
            }
            if self.gates_seen != self.header.num_gates {
                return Err(IoError::format(format!(
                    "header promises {} gates, blocks carry {}",
                    self.header.num_gates, self.gates_seen
                )));
            }
            if self.pos_left > 0 {
                self.pos_left -= 1;
                let literal = self.read_u32()?;
                let signal = Signal::from_literal(literal);
                if signal.node() as usize >= self.next_id() {
                    return Err(IoError::format(format!(
                        "output references undefined node {}",
                        signal.node()
                    )));
                }
                return Ok(Some(Record::Output(signal)));
            }
            return Ok(None);
        }
    }
}

/// Summary of a GBC file, gathered from the header and the per-block
/// index records alone (block bodies are seeked past, not decoded).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GbcInfo {
    /// Representation of the stored circuit.
    pub kind: CircuitKind,
    /// Primary inputs.
    pub num_pis: u32,
    /// Gate records.
    pub num_gates: u32,
    /// Primary outputs.
    pub num_pos: u32,
    /// Blocks in the file.
    pub num_blocks: u32,
    /// Deepest gate level (max over the block index records).
    pub max_level: u32,
    /// Total encoded size in bytes, header to last output literal.
    pub bytes: u64,
}

/// Reads a [`GbcInfo`] summary without decoding any gate records.
///
/// # Errors
///
/// Fails on malformed headers or truncated block structure.
pub fn read_gbc_info<R: Read + Seek>(mut input: R) -> Result<GbcInfo, IoError> {
    let start = input.stream_position()?;
    let reader = GbcReader::new(&mut input)?;
    let header = *reader.header();
    let num_blocks = reader.blocks_left;
    drop(reader);
    input.seek(SeekFrom::Start(start + HEADER_LEN))?;
    let mut max_level = 0u32;
    for _ in 0..num_blocks {
        let mut block_header = [0u8; 17];
        input.read_exact(&mut block_header)?;
        let field =
            |i: usize| u32::from_le_bytes(block_header[i..i + 4].try_into().expect("4 bytes"));
        max_level = max_level.max(field(8));
        let body_len = field(13);
        input.seek(SeekFrom::Current(body_len as i64))?;
    }
    input.seek(SeekFrom::Current(4 * header.num_pos as i64))?;
    let bytes = input.stream_position()? - start;
    Ok(GbcInfo {
        kind: header.kind,
        num_pis: header.num_pis,
        num_gates: header.num_gates,
        num_pos: header.num_pos,
        num_blocks,
        max_level,
        bytes,
    })
}

/// Serialises a network to GBC bytes (streams it through [`GbcWriter`]).
///
/// # Errors
///
/// Fails only on record-contract violations (in-memory writes cannot
/// fail).
pub fn write_gbc<N: BulkTarget>(ntk: &N) -> Result<Vec<u8>, IoError> {
    let mut source = NetworkSource::new(ntk);
    let cursor = crate::stream::transfer(&mut source, GbcWriter::new(Cursor::new(Vec::new())))?;
    Ok(cursor.into_inner())
}

/// Deserialises GBC bytes through the strash-free bulk loader, yielding
/// the network and its free [`DepthView`].
///
/// This is the fused fast path: blocks decode straight into the
/// [`NetworkBuilder`], skipping the [`Record`] queue and the
/// [`CircuitSource`]/[`CircuitSink`] plumbing of the generic
/// [`GbcReader`] (which remains the way to pump GBC bytes into *other*
/// sinks).  Validation is identical — same checks, same messages.
///
/// # Errors
///
/// Fails on malformed bytes or representation mismatch with `N`.
/// Decodes one block's gate records straight into `builder`, returning
/// the maximum gate level the block reached.
///
/// Monomorphised over the representation arity and the block's delta
/// width so the hot loop has constant offsets, a constant mask and a
/// fixed-size fanin array; [`read_gbc`] dispatches on the runtime pair.
fn decode_block_gates<const ARITY: usize, const WIDTH: usize>(
    builder: &mut NetworkBuilder,
    deltas: &[u8],
    kind_bits: &[u8],
    default_gate: GateKind,
    alternate_gate: Option<GateKind>,
    first_id: u32,
    gate_count: usize,
) -> Result<u32, IoError> {
    let mask = if WIDTH == 4 {
        u32::MAX
    } else {
        (1u32 << (8 * WIDTH)) - 1
    };
    let mut max_level = 0u32;
    for i in 0..gate_count {
        let id = first_id + i as u32;
        let kind = match alternate_gate {
            Some(alt) if kind_bits[i / 8] & (1 << (i % 8)) != 0 => alt,
            _ => default_gate,
        };
        let mut lits = [Signal::from_literal(0); ARITY];
        for (j, lit) in lits.iter_mut().enumerate() {
            let off = (i * ARITY + j) * WIDTH;
            // fixed-width little-endian decode: a full 4-byte load masked
            // to `WIDTH` bytes everywhere it fits, the padded copy only at
            // the very end of the block body
            let delta = if off + 4 <= deltas.len() {
                u32::from_le_bytes(deltas[off..off + 4].try_into().expect("4 bytes")) & mask
            } else {
                let mut raw = [0u8; 4];
                raw[..WIDTH].copy_from_slice(&deltas[off..off + WIDTH]);
                u32::from_le_bytes(raw)
            };
            if delta == 0 || delta > 2 * id {
                return Err(IoError::format(format!(
                    "gate {id}: delta {delta} out of range"
                )));
            }
            *lit = Signal::from_literal(2 * id - delta);
        }
        let signal = builder.add_gate_fixed(kind, lits)?;
        max_level = max_level.max(builder.level(signal.node()));
    }
    Ok(max_level)
}

pub fn read_gbc<N: BulkTarget>(bytes: &[u8]) -> Result<(N, DepthView), IoError> {
    let mut at = 0usize;
    let header_bytes: [u8; HEADER_LEN as usize] = take(bytes, &mut at, HEADER_LEN as usize)?
        .try_into()
        .expect("sized slice");
    let (header, num_blocks) = parse_header(&header_bytes)?;
    if header.kind != N::KIND {
        return Err(IoError::Bulk(BulkError::RepresentationMismatch {
            builder: header.kind,
            target: N::KIND,
        }));
    }
    let arity = header.kind.max_arity();
    let default_gate = header.kind.default_gate();
    let alternate_gate = header.kind.alternate_gate();
    // the header is untrusted.  Every gate takes at least one byte per
    // fanin and every output four, so counts the rest of the input cannot
    // hold are rejected before anything is sized.  Inputs are implicit and
    // take no bytes, so their tables are reserved fallibly instead.
    let rest = (bytes.len() - at) as u64;
    if u64::from(header.num_gates) * arity as u64 + 4 * u64::from(header.num_pos) > rest {
        return Err(IoError::format(format!(
            "header declares {} gates and {} outputs, more than the {rest}-byte body holds",
            header.num_gates, header.num_pos
        )));
    }
    let mut builder = NetworkBuilder::try_with_capacity(
        N::KIND,
        header.num_pis as usize,
        header.num_gates as usize,
    )
    .map_err(|_| refused_inputs(&header))?;
    for _ in 0..header.num_pis {
        builder.add_pi();
    }
    let first_gate = 1 + header.num_pis;
    let mut gates_seen = 0u32;
    for _ in 0..num_blocks {
        let block_header = take(bytes, &mut at, 17)?;
        let field =
            |i: usize| u32::from_le_bytes(block_header[i..i + 4].try_into().expect("4 bytes"));
        let gate_count = field(0) as usize;
        let first_id = field(4);
        let declared_max_level = field(8);
        let width = block_header[12] as usize;
        let body_len = field(13) as usize;
        if gate_count == 0 || gate_count > BLOCK_GATES {
            return Err(IoError::format(format!(
                "bad block gate count {gate_count}"
            )));
        }
        if !(1..=4).contains(&width) {
            return Err(IoError::format(format!("bad delta width {width}")));
        }
        if first_id != builder.num_nodes() as u32 {
            return Err(IoError::format(format!(
                "block first id {first_id} does not continue the stream (expected {})",
                builder.num_nodes()
            )));
        }
        let kind_bits_len = if alternate_gate.is_some() {
            gate_count.div_ceil(8)
        } else {
            0
        };
        if body_len != kind_bits_len + gate_count * arity * width {
            return Err(IoError::format(format!("bad block body length {body_len}")));
        }
        let body = take(bytes, &mut at, body_len)?;
        let (kind_bits, deltas) = body.split_at(kind_bits_len);
        // dispatch into a decode loop monomorphised over (arity, width):
        // the offset arithmetic constant-folds, the mask is a constant and
        // the fanin array is built from a fixed-size stack array, which is
        // worth ~25% of the decode phase on a million-gate ingest
        let max_level = match (arity, width) {
            (2, 1) => decode_block_gates::<2, 1>(
                &mut builder,
                deltas,
                kind_bits,
                default_gate,
                alternate_gate,
                first_id,
                gate_count,
            ),
            (2, 2) => decode_block_gates::<2, 2>(
                &mut builder,
                deltas,
                kind_bits,
                default_gate,
                alternate_gate,
                first_id,
                gate_count,
            ),
            (2, 3) => decode_block_gates::<2, 3>(
                &mut builder,
                deltas,
                kind_bits,
                default_gate,
                alternate_gate,
                first_id,
                gate_count,
            ),
            (2, 4) => decode_block_gates::<2, 4>(
                &mut builder,
                deltas,
                kind_bits,
                default_gate,
                alternate_gate,
                first_id,
                gate_count,
            ),
            (3, 1) => decode_block_gates::<3, 1>(
                &mut builder,
                deltas,
                kind_bits,
                default_gate,
                alternate_gate,
                first_id,
                gate_count,
            ),
            (3, 2) => decode_block_gates::<3, 2>(
                &mut builder,
                deltas,
                kind_bits,
                default_gate,
                alternate_gate,
                first_id,
                gate_count,
            ),
            (3, 3) => decode_block_gates::<3, 3>(
                &mut builder,
                deltas,
                kind_bits,
                default_gate,
                alternate_gate,
                first_id,
                gate_count,
            ),
            (3, 4) => decode_block_gates::<3, 4>(
                &mut builder,
                deltas,
                kind_bits,
                default_gate,
                alternate_gate,
                first_id,
                gate_count,
            ),
            _ => {
                return Err(IoError::format(format!(
                    "unsupported arity {arity} / delta width {width} combination"
                )))
            }
        }?;
        if max_level != declared_max_level {
            return Err(IoError::format(format!(
                "block index declares max level {declared_max_level}, records reach {max_level}"
            )));
        }
        gates_seen += gate_count as u32;
    }
    if gates_seen != header.num_gates {
        return Err(IoError::format(format!(
            "header promises {} gates, blocks carry {}",
            header.num_gates, gates_seen
        )));
    }
    for _ in 0..header.num_pos {
        let literal = u32::from_le_bytes(take(bytes, &mut at, 4)?.try_into().expect("4 bytes"));
        let signal = Signal::from_literal(literal);
        if signal.node() as usize >= builder.num_nodes() {
            return Err(IoError::format(format!(
                "output references undefined node {}",
                signal.node()
            )));
        }
        builder.add_po(signal)?;
    }
    let (ntk, levels) = builder.finish_with_levels::<N>()?;
    let view = DepthView::from_levels_dense(&ntk, levels, first_gate);
    Ok((ntk, view))
}
