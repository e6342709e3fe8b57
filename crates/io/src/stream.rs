//! The streaming record layer: every circuit format and every network
//! representation meets in one producer/consumer trait pair, so any
//! source (a file reader, a generator, an existing network) can feed any
//! sink (a file writer, the strash-free bulk loader, the robust
//! [`GateBuilder`] path) without an intermediate in-memory copy.
//!
//! # Stream id space
//!
//! Records name nodes in a dense *stream id* space: id `0` is the
//! constant, ids `1..=num_pis` are the primary inputs in declaration
//! order, and gates take consecutive ids in record order.  Fanins are
//! [`Signal`]s over stream ids (complemented-edge literals), and every
//! gate's fanins must precede it — streams are topologically sorted by
//! construction.
//!
//! # Sinks
//!
//! * [`NetworkSink`] — the fast path: feeds
//!   [`NetworkBuilder`](glsx_network::NetworkBuilder), which appends
//!   records without structural-hash probes or fanout churn and levelises
//!   on ingest, so the finished network arrives topologically sorted with
//!   a free [`DepthView`].  Requires normalised, duplicate-free streams
//!   (see [`glsx_network::bulk`]); every writer in this crate emits such
//!   streams.
//! * [`BuilderSink`] — the robust path: replays records through
//!   [`GateBuilder::create_gate`], which re-normalises, re-hashes and
//!   constant-folds every record.  Use it for untrusted input
//!   (the AIGER readers do).
//!
//! [`NetworkSource`] streams an existing network back out (dense
//! renumbering, gates in topological order), and [`transfer`] pumps any
//! source into any sink.

use glsx_network::views::DepthView;
use glsx_network::{
    BulkError, BulkTarget, CircuitKind, FaninArray, GateBuilder, GateKind, Network, NetworkBuilder,
    NodeId, Signal,
};
use std::error::Error;
use std::fmt;

/// Error type shared by all streaming circuit I/O in this crate.
#[derive(Debug)]
pub enum IoError {
    /// An underlying read or write failed.
    Io(std::io::Error),
    /// The byte stream or record stream violates the format.
    Format(String),
    /// The record stream violates the bulk-load contract.
    Bulk(BulkError),
}

impl IoError {
    pub(crate) fn format(message: impl Into<String>) -> Self {
        IoError::Format(message.into())
    }
}

/// Most gate records a sink reserves from a stream header up front; a
/// header's count is only a claim, so larger streams grow as their
/// records arrive.
const UPFRONT_GATES: usize = 1 << 20;

/// The error for a header whose inputs the allocator refused.
pub(crate) fn refused_inputs(header: &CircuitHeader) -> IoError {
    IoError::format(format!(
        "cannot allocate the {} declared inputs",
        header.num_pis
    ))
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Format(m) => write!(f, "malformed circuit stream: {m}"),
            IoError::Bulk(e) => write!(f, "invalid record stream: {e}"),
        }
    }
}

impl Error for IoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Format(_) => None,
            IoError::Bulk(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<BulkError> for IoError {
    fn from(e: BulkError) -> Self {
        IoError::Bulk(e)
    }
}

/// Header announcing a record stream.
///
/// `num_pis` is exact (sinks create that many inputs up front);
/// `num_gates` and `num_pos` are capacity hints — sources should make
/// them exact when they can, and file writers patch the true counts into
/// their headers at finish time.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CircuitHeader {
    /// Target representation of the stream's gate records.
    pub kind: CircuitKind,
    /// Exact number of primary inputs.
    pub num_pis: u32,
    /// Expected number of gate records (capacity hint).
    pub num_gates: u32,
    /// Expected number of output records (capacity hint).
    pub num_pos: u32,
}

/// One record of a circuit stream (see the
/// [module docs](self) for the stream id space).
#[derive(Clone, Debug)]
pub enum Record {
    /// A gate over already-defined fanins; defines the next dense id.
    Gate {
        /// Gate function.
        kind: GateKind,
        /// Fanins as stream-id signals.
        fanins: FaninArray,
    },
    /// A primary output driven by an already-defined stream signal.
    Output(Signal),
}

/// Consumer side of a record stream.
pub trait CircuitSink {
    /// What the sink yields when the stream completes.
    type Output;

    /// Announces the stream; called exactly once, first.
    ///
    /// # Errors
    ///
    /// Implementations fail when the header is unacceptable (wrong
    /// representation, unwritable destination…).
    fn begin(&mut self, header: &CircuitHeader) -> Result<(), IoError>;

    /// Consumes one gate record.
    ///
    /// # Errors
    ///
    /// Implementations fail on contract violations or write errors.
    fn gate(&mut self, kind: GateKind, fanins: &[Signal]) -> Result<(), IoError>;

    /// [`CircuitSink::gate`] taking ownership of the fanin array.
    ///
    /// Producers that already hold a [`FaninArray`] (every [`Record`])
    /// should call this; sinks that store records (the bulk loader, the
    /// format writers) override it to move the array instead of copying a
    /// slice.  The default delegates to [`CircuitSink::gate`].
    ///
    /// # Errors
    ///
    /// Same contract as [`CircuitSink::gate`].
    fn gate_owned(&mut self, kind: GateKind, fanins: FaninArray) -> Result<(), IoError> {
        self.gate(kind, fanins.as_slice())
    }

    /// Consumes one primary-output record.
    ///
    /// # Errors
    ///
    /// Implementations fail on undefined drivers or write errors.
    fn output(&mut self, signal: Signal) -> Result<(), IoError>;

    /// Completes the stream and yields the sink's product.
    ///
    /// # Errors
    ///
    /// Implementations fail on final validation or flush errors.
    fn finish(self) -> Result<Self::Output, IoError>;
}

/// Producer side of a record stream.
pub trait CircuitSource {
    /// The stream's header (available before any records).
    fn header(&self) -> &CircuitHeader;

    /// Produces the next record, or `None` when the stream is complete.
    ///
    /// # Errors
    ///
    /// Fails when the underlying bytes are malformed or unreadable.
    fn next_record(&mut self) -> Result<Option<Record>, IoError>;

    /// Pumps every remaining record into `sink` (without finishing it).
    ///
    /// The default loops over [`CircuitSource::next_record`]; sources with
    /// an internal representation cheaper than the [`Record`] enum (an
    /// in-memory network, say) override it with a direct loop — at a
    /// million gates per file the per-record wrapping is measurable.
    ///
    /// # Errors
    ///
    /// Propagates the first source or sink error.
    fn drain<S: CircuitSink>(&mut self, sink: &mut S) -> Result<(), IoError> {
        while let Some(record) = self.next_record()? {
            match record {
                Record::Gate { kind, fanins } => sink.gate_owned(kind, fanins)?,
                Record::Output(signal) => sink.output(signal)?,
            }
        }
        Ok(())
    }
}

/// Pumps every record of `source` into `sink` and finishes it.
///
/// # Errors
///
/// Propagates the first source or sink error.
pub fn transfer<S: CircuitSink>(
    source: &mut impl CircuitSource,
    mut sink: S,
) -> Result<S::Output, IoError> {
    sink.begin(source.header())?;
    source.drain(&mut sink)?;
    sink.finish()
}

/// Streams an existing network as records: inputs implicitly, then the
/// live gates in topological order under a dense renumbering, then the
/// primary outputs.
pub struct NetworkSource<'a, N: BulkTarget> {
    ntk: &'a N,
    header: CircuitHeader,
    /// Stream id per network node id (dense renumbering).
    stream_id: Vec<u32>,
    gates: Vec<NodeId>,
    cursor: usize,
    po_cursor: usize,
}

impl<'a, N: BulkTarget> NetworkSource<'a, N> {
    /// Prepares the stream (computes the topological gate order and the
    /// dense renumbering).
    pub fn new(ntk: &'a N) -> Self {
        let mut stream_id = vec![u32::MAX; ntk.size()];
        stream_id[0] = 0;
        let mut next = 1u32;
        for pi in ntk.pi_nodes() {
            stream_id[pi as usize] = next;
            next += 1;
        }
        // A network that never substituted or removed a node is already
        // topologically sorted by creation id (a gate can only reference
        // nodes that existed when it was made), so one validating sweep
        // replaces the DFS; any violation falls back to the traversal.
        let gates = Self::creation_order(ntk).unwrap_or_else(|| ntk.gate_nodes());
        for &gate in &gates {
            stream_id[gate as usize] = next;
            next += 1;
        }
        let header = CircuitHeader {
            kind: N::KIND,
            num_pis: ntk.num_pis() as u32,
            num_gates: gates.len() as u32,
            num_pos: ntk.num_pos() as u32,
        };
        Self {
            ntk,
            header,
            stream_id,
            gates,
            cursor: 0,
            po_cursor: 0,
        }
    }

    /// Ascending creation order, validated to be a topological schedule of
    /// all live gates; `None` when any node is dead or any gate references
    /// a later id (possible after substitutions), in which case the caller
    /// runs the DFS instead.
    fn creation_order(ntk: &N) -> Option<Vec<NodeId>> {
        let mut gates = Vec::with_capacity(ntk.num_gates());
        for id in 0..ntk.size() as NodeId {
            if ntk.is_dead(id) {
                return None;
            }
            if !ntk.is_gate(id) {
                continue;
            }
            for index in 0..ntk.fanin_size(id) {
                if ntk.fanin(id, index).node() >= id {
                    return None;
                }
            }
            gates.push(id);
        }
        Some(gates)
    }

    fn map(&self, signal: Signal) -> Signal {
        Signal::new(
            self.stream_id[signal.node() as usize],
            signal.is_complemented(),
        )
    }
}

impl<N: BulkTarget> CircuitSource for NetworkSource<'_, N> {
    fn header(&self) -> &CircuitHeader {
        &self.header
    }

    fn next_record(&mut self) -> Result<Option<Record>, IoError> {
        if self.cursor < self.gates.len() {
            let gate = self.gates[self.cursor];
            self.cursor += 1;
            let mut fanins = FaninArray::new();
            self.ntk.foreach_fanin(gate, |f| fanins.push(self.map(f)));
            return Ok(Some(Record::Gate {
                kind: self.ntk.gate_kind(gate),
                fanins,
            }));
        }
        if self.po_cursor < self.ntk.num_pos() {
            let po = self.ntk.po_at(self.po_cursor);
            self.po_cursor += 1;
            return Ok(Some(Record::Output(self.map(po))));
        }
        Ok(None)
    }

    fn drain<S: CircuitSink>(&mut self, sink: &mut S) -> Result<(), IoError> {
        // direct loop: clone each gate's inline fanin array and remap it in
        // place, skipping the per-record `Option<Record>` wrapping of the
        // generic path
        while self.cursor < self.gates.len() {
            let gate = self.gates[self.cursor];
            self.cursor += 1;
            let mut fanins = self.ntk.fanins_inline(gate);
            for f in fanins.as_mut_slice() {
                *f = self.map(*f);
            }
            sink.gate_owned(self.ntk.gate_kind(gate), fanins)?;
        }
        while self.po_cursor < self.ntk.num_pos() {
            let po = self.ntk.po_at(self.po_cursor);
            self.po_cursor += 1;
            sink.output(self.map(po))?;
        }
        Ok(())
    }
}

/// The fast sink: bulk-loads the stream through
/// [`NetworkBuilder`] — no per-record structural-hash probe, no fanout
/// churn, levels computed on ingest.  Yields the finished network
/// together with its free [`DepthView`].
///
/// The stream must satisfy the bulk-load contract
/// ([`glsx_network::bulk`]): normalised records, no structural
/// duplicates.  For untrusted input use [`BuilderSink`].
pub struct NetworkSink<N: BulkTarget> {
    builder: Option<NetworkBuilder>,
    _marker: std::marker::PhantomData<N>,
}

impl<N: BulkTarget> NetworkSink<N> {
    /// Creates an empty sink; the builder is allocated at [`begin`]
    /// (capacity comes from the header).
    ///
    /// [`begin`]: CircuitSink::begin
    pub fn new() -> Self {
        Self {
            builder: None,
            _marker: std::marker::PhantomData,
        }
    }

    fn builder_mut(&mut self) -> Result<&mut NetworkBuilder, IoError> {
        self.builder
            .as_mut()
            .ok_or_else(|| IoError::format("record before stream header"))
    }
}

impl<N: BulkTarget> Default for NetworkSink<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: BulkTarget> CircuitSink for NetworkSink<N> {
    type Output = (N, DepthView);

    fn begin(&mut self, header: &CircuitHeader) -> Result<(), IoError> {
        if header.kind != N::KIND {
            return Err(IoError::Bulk(BulkError::RepresentationMismatch {
                builder: header.kind,
                target: N::KIND,
            }));
        }
        // a file's header is untrusted and a stream's length unknown:
        // inputs take no bytes, so they are reserved fallibly, and gates
        // are reserved up to a bound and grow as records arrive
        let mut builder = NetworkBuilder::try_with_capacity(
            N::KIND,
            header.num_pis as usize,
            (header.num_gates as usize).min(UPFRONT_GATES),
        )
        .map_err(|_| refused_inputs(header))?;
        for _ in 0..header.num_pis {
            builder.add_pi();
        }
        self.builder = Some(builder);
        Ok(())
    }

    fn gate(&mut self, kind: GateKind, fanins: &[Signal]) -> Result<(), IoError> {
        self.builder_mut()?.add_gate(kind, fanins)?;
        Ok(())
    }

    fn gate_owned(&mut self, kind: GateKind, fanins: FaninArray) -> Result<(), IoError> {
        self.builder_mut()?.add_gate_array(kind, fanins)?;
        Ok(())
    }

    fn output(&mut self, signal: Signal) -> Result<(), IoError> {
        self.builder_mut()?.add_po(signal)?;
        Ok(())
    }

    fn finish(self) -> Result<Self::Output, IoError> {
        let builder = self
            .builder
            .ok_or_else(|| IoError::format("stream finished before its header"))?;
        // the sink declared every input at `begin`, so gates occupy
        // exactly the ids after the inputs — the dense depth-view
        // constructor applies
        let first_gate = 1 + builder.num_pis() as NodeId;
        let (ntk, levels) = builder.finish_with_levels::<N>()?;
        let view = DepthView::from_levels_dense(&ntk, levels, first_gate);
        Ok((ntk, view))
    }
}

/// The robust sink: replays every record through
/// [`GateBuilder::create_gate`], re-normalising, re-hashing and
/// constant-folding as it goes.  Slower than [`NetworkSink`], but accepts
/// de-normalised and duplicate-carrying streams (untrusted files).
///
/// Because gate creation may fold records away (constant propagation,
/// structural hashing), stream ids are remapped through a translation
/// table rather than assumed dense in the result.
pub struct BuilderSink<N: Network + GateBuilder> {
    ntk: N,
    /// Network signal per stream id.
    map: Vec<Signal>,
    started: bool,
}

impl<N: Network + GateBuilder> BuilderSink<N> {
    /// Creates the sink around a fresh network.
    pub fn new() -> Self {
        Self {
            ntk: N::new(),
            map: Vec::new(),
            started: false,
        }
    }

    fn resolve(&self, signal: Signal) -> Result<Signal, IoError> {
        let mapped = self
            .map
            .get(signal.node() as usize)
            .copied()
            .ok_or_else(|| {
                IoError::format(format!(
                    "record references undefined stream id {}",
                    signal.node()
                ))
            })?;
        Ok(mapped.complement_if(signal.is_complemented()))
    }
}

impl<N: Network + GateBuilder> Default for BuilderSink<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: Network + GateBuilder> CircuitSink for BuilderSink<N> {
    type Output = N;

    fn begin(&mut self, header: &CircuitHeader) -> Result<(), IoError> {
        // untrusted counts, as in `NetworkSink::begin`
        let gates = (header.num_gates as usize).min(UPFRONT_GATES);
        self.map
            .try_reserve(1 + header.num_pis as usize + gates)
            .map_err(|_| refused_inputs(header))?;
        self.map.push(self.ntk.get_constant(false));
        for _ in 0..header.num_pis {
            let pi = self.ntk.create_pi();
            self.map.push(pi);
        }
        self.started = true;
        Ok(())
    }

    fn gate(&mut self, kind: GateKind, fanins: &[Signal]) -> Result<(), IoError> {
        if !self.started {
            return Err(IoError::format("record before stream header"));
        }
        let mut resolved = FaninArray::new();
        for f in fanins {
            resolved.push(self.resolve(*f)?);
        }
        let signal = self.ntk.create_gate(kind, resolved.as_slice());
        self.map.push(signal);
        Ok(())
    }

    fn output(&mut self, signal: Signal) -> Result<(), IoError> {
        let resolved = self.resolve(signal)?;
        self.ntk.create_po(resolved);
        Ok(())
    }

    fn finish(self) -> Result<Self::Output, IoError> {
        if !self.started {
            return Err(IoError::format("stream finished before its header"));
        }
        Ok(self.ntk)
    }
}
