//! # glsx-io
//!
//! Interchange formats and the streaming ingest layer for the logic
//! networks of this workspace:
//!
//! * **Streaming record layer** ([`stream`]): the [`CircuitSink`]/
//!   [`CircuitSource`] trait pair every format and every network
//!   representation meets in, so files, generators and networks compose
//!   without intermediate in-memory copies.  [`NetworkSink`] feeds the
//!   strash-free bulk loader ([`glsx_network::bulk`]) and levelises on
//!   ingest; [`BuilderSink`] is the robust per-gate path for untrusted
//!   input.
//! * **GBC** ([`gbc`]): the workspace's block-structured packed binary
//!   circuit format — per-block index records (offset, id range, max
//!   level) make million-gate files streamable and skippable
//!   ([`write_gbc`], [`read_gbc`], [`read_gbc_info`]).
//! * **AIGER** ([`aiger`]): ASCII (`aag`) and binary (`aig`) variants of
//!   the format the EPFL benchmark suites are distributed in
//!   ([`write_aiger`], [`write_aiger_binary`], [`read_aiger`] — the
//!   reader sniffs the variant and tolerates whitespace and definition
//!   order beyond the strict grammar).
//! * **Netlists** ([`netlist`]): BLIF ([`write_blif`]) for any network
//!   (gates are emitted as truth-table covers) and structural Verilog
//!   ([`write_verilog`]) for quick inspection and downstream synthesis
//!   tools.
//!
//! # Example
//!
//! ```
//! use glsx_io::{read_aiger, read_gbc, write_aiger, write_gbc};
//! use glsx_network::{Aig, GateBuilder, Network};
//! use glsx_network::simulation::equivalent_by_simulation;
//!
//! let mut aig = Aig::new();
//! let a = aig.create_pi();
//! let b = aig.create_pi();
//! let f = aig.create_and(a, !b);
//! aig.create_po(!f);
//!
//! // ASCII AIGER (robust path, re-normalises on read)
//! let text = write_aiger(&aig);
//! let back = read_aiger(&text)?;
//! assert!(equivalent_by_simulation(&aig, &back));
//!
//! // GBC (bulk path: strash-free ingest, free depth view)
//! let bytes = write_gbc(&aig).unwrap();
//! let (back, depth) = read_gbc::<Aig>(&bytes).unwrap();
//! assert!(equivalent_by_simulation(&aig, &back));
//! assert_eq!(depth.depth(), 1);
//! # Ok::<(), glsx_io::ParseAigerError>(())
//! ```

pub mod aiger;
pub mod gbc;
pub mod netlist;
pub mod stream;

pub use aiger::{read_aiger, write_aiger, write_aiger_binary, ParseAigerError};
pub use gbc::{read_gbc, read_gbc_info, write_gbc, GbcInfo, GbcReader, GbcWriter};
pub use glsx_network::CircuitKind;
pub use netlist::{write_blif, write_verilog};
pub use stream::{
    transfer, BuilderSink, CircuitHeader, CircuitSink, CircuitSource, IoError, NetworkSink,
    NetworkSource, Record,
};

#[cfg(test)]
mod tests {
    use super::*;
    use glsx_benchmarks::arithmetic::adder;
    use glsx_benchmarks::SplitMix64;
    use glsx_core::lut_mapping::{lut_map, LutMapParams};
    use glsx_network::simulation::{equivalent_by_random_simulation, equivalent_by_simulation};
    use glsx_network::views::DepthView;
    use glsx_network::{Aig, GateBuilder, Mig, Network, Signal, Xag};

    #[test]
    fn aiger_roundtrip_preserves_function() {
        let aig: Aig = adder(4);
        let text = write_aiger(&aig);
        assert!(text.starts_with("aag "));
        let back = read_aiger(&text).unwrap();
        assert_eq!(back.num_pis(), aig.num_pis());
        assert_eq!(back.num_pos(), aig.num_pos());
        assert!(equivalent_by_simulation(&aig, &back));
    }

    #[test]
    fn binary_aiger_roundtrip_matches_ascii() {
        let aig: Aig = adder(4);
        let bytes = write_aiger_binary(&aig);
        assert!(bytes.starts_with(b"aig "));
        // binary is denser than ASCII on the same circuit
        assert!(bytes.len() < write_aiger(&aig).len());
        let from_binary = read_aiger(&bytes).unwrap();
        let from_ascii = read_aiger(write_aiger(&aig)).unwrap();
        assert_eq!(from_binary.num_pis(), from_ascii.num_pis());
        assert_eq!(from_binary.num_gates(), from_ascii.num_gates());
        assert!(equivalent_by_simulation(&aig, &from_binary));
        assert!(equivalent_by_simulation(&from_ascii, &from_binary));
    }

    #[test]
    fn ascii_aiger_tolerates_whitespace_and_order() {
        // f = (a & b) & !c, ANDs listed out of order, sloppy whitespace
        let text = "aag 5 3 0 1 2\r\n2\n4\n6\n\n10\n10 9 6\n   8 2 4\n";
        let aig = read_aiger(text).unwrap();
        assert_eq!(aig.num_pis(), 3);
        assert_eq!(aig.num_gates(), 2);
        // same circuit in strict order and layout
        let strict = read_aiger("aag 5 3 0 1 2\n2\n4\n6\n10\n8 2 4\n10 9 6\n").unwrap();
        assert!(equivalent_by_simulation(&aig, &strict));
        // several records per line
        let packed = read_aiger("aag 5 3 0 1 2\n2 4 6 10 8 2 4 10 9 6").unwrap();
        assert!(equivalent_by_simulation(&aig, &packed));
    }

    #[test]
    fn aiger_parser_rejects_malformed_input() {
        assert!(read_aiger("").is_err());
        assert!(read_aiger("aag 1 0 1 0 0").is_err()); // latches unsupported
        assert!(read_aiger("aag x 0 0 0 0").is_err());
        assert!(read_aiger("aag 1 2 0 0 0\n2\n4\n").is_err()); // M too small
        assert!(read_aiger("aag 3 1 0 1 2\n2\n6\n4 2 2\n4 2 3\n").is_err()); // duplicate lhs
        assert!(read_aiger("aag 2 1 0 1 1\n2\n4\n4 6 2\n").is_err()); // out-of-range fanin
        assert!(read_aiger("aag 3 1 0 1 2\n2\n4\n4 6 2\n6 4 2\n").is_err()); // cyclic
        assert!(read_aiger(b"aig 1 1 1 0 0\n".as_slice()).is_err()); // binary latches
        assert!(read_aiger(b"aig 2 1 0 1 1\n4\n".as_slice()).is_err()); // truncated varints
    }

    #[test]
    fn aiger_header_counts_cannot_drive_allocations() {
        // each header claims more records than its body holds, or
        // literals beyond the binary format's 32-bit range; sizing tables
        // from these counts would abort the process on allocation
        let ascii = [
            "aag 3000000000 1 0 1 0",
            "aag 3000000000 3000000000 0 1 0\n2\n2\n",
            "aag 1 1 0 3000000000 0\n2\n2\n",
            "aag 3000000001 1 0 1 3000000000\n2\n2\n",
            "aag 18446744073709551615 1 0 1 18446744073709551615\n2\n2\n",
        ];
        for text in ascii {
            assert!(read_aiger(text).is_err(), "{text:?}");
        }
        let binary: [&[u8]; 4] = [
            b"aig 1 1 0 2000000000 0\n2\n",
            b"aig 2000000001 1 0 1 2000000000\n2\n",
            b"aig 3000000000 3000000000 0 1 0\n2\n",
            b"aig 18446744073709551615 18446744073709551615 0 1 0\n2\n",
        ];
        for bytes in binary {
            assert!(
                read_aiger(bytes).is_err(),
                "{:?}",
                String::from_utf8_lossy(bytes)
            );
        }
        // the maximum index sizes nothing, so a huge one with few
        // definitions is fine, as are gaps in the numbering
        let sparse = read_aiger("aag 3000000000 1 0 1 0\n2\n2\n").unwrap();
        assert_eq!((sparse.num_pis(), sparse.num_pos()), (1, 1));
        let gappy = read_aiger("aag 10 1 0 1 0\n20\n20\n").unwrap();
        assert_eq!((gappy.num_pis(), gappy.num_pos()), (1, 1));
        let gappy_and = read_aiger("aag 40 2 0 1 1\n20\n6\n81\n80 21 6\n").unwrap();
        assert_eq!(gappy_and.num_gates(), 1);
        assert_eq!(
            read_aiger(b"aig 1 1 0 1 0\n3\n".as_slice())
                .unwrap()
                .num_pos(),
            1
        );
    }

    #[test]
    fn aiger_roundtrips_inputs_the_body_does_not_mention() {
        // binary inputs are implicit, so a network with many inputs and
        // little logic writes fewer bytes than it has inputs
        for (num_pis, output) in [(32, Some(0)), (1000, Some(999)), (1000, None)] {
            let mut aig = Aig::new();
            let pis: Vec<Signal> = (0..num_pis).map(|_| aig.create_pi()).collect();
            aig.create_po(output.map_or(aig.get_constant(true), |i| pis[i]));
            let binary = write_aiger_binary(&aig);
            assert!(binary.len() < num_pis, "{} bytes", binary.len());
            for back in [
                read_aiger(&binary).unwrap(),
                read_aiger(write_aiger(&aig)).unwrap(),
            ] {
                assert_eq!(back.num_pis(), num_pis);
                let expected = output.map_or(back.get_constant(true), |i| {
                    Signal::new(back.pi_nodes()[i], false)
                });
                assert_eq!(back.po_signals(), [expected]);
            }
        }
    }

    #[test]
    fn gbc_roundtrip_is_bit_identical() {
        let aig: Aig = adder(4);
        let bytes = write_gbc(&aig).unwrap();
        let (back, depth) = read_gbc::<Aig>(&bytes).unwrap();
        assert!(equivalent_by_simulation(&aig, &back));
        // writing the loaded network again reproduces the bytes exactly
        assert_eq!(write_gbc(&back).unwrap(), bytes);
        // the free depth view equals a freshly computed one
        let twin = DepthView::new(&back);
        assert_eq!(depth.depth(), twin.depth());
        for node in back.node_ids() {
            assert_eq!(depth.level(node), twin.level(node));
        }
    }

    #[test]
    fn gbc_carries_xag_and_mig_gate_kinds() {
        let mut xag = Xag::new();
        let a = xag.create_pi();
        let b = xag.create_pi();
        let g = xag.create_and(a, b);
        let x = xag.create_xor(g, b);
        xag.create_po(x);
        let bytes = write_gbc(&xag).unwrap();
        let (back, _) = read_gbc::<Xag>(&bytes).unwrap();
        assert!(equivalent_by_simulation(&xag, &back));
        assert_eq!(back.num_gates(), xag.num_gates());

        let mut mig = Mig::new();
        let a = mig.create_pi();
        let b = mig.create_pi();
        let c = mig.create_pi();
        let m = mig.create_maj(a, b, c);
        mig.create_po(!m);
        let bytes = write_gbc(&mig).unwrap();
        let (back, _) = read_gbc::<Mig>(&bytes).unwrap();
        assert!(equivalent_by_simulation(&mig, &back));
        // reading into the wrong representation is refused
        assert!(read_gbc::<Aig>(&bytes).is_err());
    }

    #[test]
    fn gbc_info_summarises_without_decoding() {
        let aig: Aig = adder(8);
        let bytes = write_gbc(&aig).unwrap();
        let info = read_gbc_info(std::io::Cursor::new(&bytes)).unwrap();
        assert_eq!(info.kind, CircuitKind::Aig);
        assert_eq!(info.num_pis as usize, aig.num_pis());
        assert_eq!(info.num_gates as usize, aig.num_gates());
        assert_eq!(info.num_pos as usize, aig.num_pos());
        assert_eq!(info.num_blocks, 1);
        assert_eq!(info.bytes, bytes.len() as u64);
        assert_eq!(info.max_level, DepthView::new(&aig).depth());
    }

    #[test]
    fn gbc_reader_rejects_corrupt_bytes() {
        let aig: Aig = adder(2);
        let bytes = write_gbc(&aig).unwrap();
        assert!(read_gbc::<Aig>(&bytes[..10]).is_err()); // truncated
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(read_gbc::<Aig>(&bad_magic).is_err());
        let mut bad_kind = bytes.clone();
        bad_kind[4] = 9;
        assert!(read_gbc::<Aig>(&bad_kind).is_err());
        let mut bad_level = bytes.clone();
        bad_level[24 + 8] ^= 1; // block max_level index record
        assert!(read_gbc::<Aig>(&bad_level).is_err());
    }

    /// A 24-byte AIG GBC header declaring `num_pis` inputs, `num_gates`
    /// gates, `num_pos` outputs and no blocks.
    fn gbc_header(num_pis: u32, num_gates: u32, num_pos: u32) -> Vec<u8> {
        let mut bytes = b"GBC1".to_vec();
        bytes.extend_from_slice(&[0, 0, 2, 0]);
        for field in [num_pis, num_gates, num_pos, 0] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn gbc_header_counts_cannot_drive_allocations() {
        // more nodes than 32-bit literals address: sizing tables from
        // these counts would abort the process on allocation
        let hostile = gbc_header(0xFFFF_FFF0, 0xFFFF_FFF0, 1);
        assert_eq!(hostile.len(), 24);
        assert!(read_gbc::<Aig>(&hostile).is_err());
        assert!(read_gbc_info(std::io::Cursor::new(&hostile)).is_err());
        assert!(GbcReader::new(hostile.as_slice()).is_err());
        assert!(
            transfer_gbc(&gbc_header(0x8000_0000, 0, 0)).is_err(),
            "ids beyond the literal range"
        );
        // gates and outputs occupy bytes, so counts the body cannot hold
        // are refused before anything is sized
        for (num_gates, num_pos) in [(0x7000_0000, 0), (0, 0x4000_0000), (1, 1)] {
            let bytes = gbc_header(1, num_gates, num_pos);
            assert!(read_gbc::<Aig>(&bytes).is_err(), "{num_gates} / {num_pos}");
        }
        // a stream's length is unknown, so the reader reserves nothing
        // from the claim and fails once the blocks run out
        let claim = gbc_header(1, 0x7000_0000, 0);
        let mut reader = GbcReader::new(claim.as_slice()).unwrap();
        assert!(reader.next_record().is_err());
        // inputs are implicit and cost no bytes, so many are fine
        let mut many = gbc_header(1000, 0, 1);
        many.extend_from_slice(&2000u32.to_le_bytes());
        let (aig, _) = read_gbc::<Aig>(&many).unwrap();
        assert_eq!((aig.num_pis(), aig.num_gates()), (1000, 0));
        assert_eq!(aig.po_signals(), [Signal::new(aig.pi_nodes()[999], false)]);
        let (streamed, _) = transfer_gbc(&many).unwrap();
        assert_eq!(streamed.po_signals(), aig.po_signals());
    }

    /// Streams GBC bytes through the generic reader into the bulk sink.
    fn transfer_gbc(bytes: &[u8]) -> Result<(Aig, DepthView), IoError> {
        let mut reader = GbcReader::new(bytes)?;
        transfer(&mut reader, NetworkSink::<Aig>::new())
    }

    /// ASCII AIGER text of a chain of `num_ands` ANDs over 16 inputs, each
    /// AND taking the complement of the previous one and an input of
    /// alternating polarity; every 1000th AND is an output.  With
    /// `reverse`, the definitions are listed last to first.
    fn and_chain_text(num_ands: usize, reverse: bool) -> String {
        let num_inputs = 16;
        let outputs: Vec<usize> = (0..num_ands).step_by(1000).collect();
        let mut text = format!(
            "aag {} {num_inputs} 0 {} {num_ands}\n",
            num_inputs + num_ands,
            outputs.len()
        );
        for i in 1..=num_inputs {
            text.push_str(&format!("{}\n", 2 * i));
        }
        let lhs = |i: usize| 2 * (num_inputs + 1 + i);
        for &i in &outputs {
            text.push_str(&format!("{}\n", lhs(i)));
        }
        let mut ands: Vec<String> = (0..num_ands)
            .map(|i| {
                let previous = if i == 0 {
                    2 * num_inputs
                } else {
                    lhs(i - 1) + 1
                };
                let input = 2 * (1 + i % num_inputs) + i % 2;
                format!("{} {previous} {input}\n", lhs(i))
            })
            .collect();
        if reverse {
            ands.reverse();
        }
        text.extend(ands);
        text
    }

    #[test]
    fn ascii_aiger_resolves_reverse_listed_chains_in_one_pass() {
        // a reader resolving one AND per pass over the remaining
        // definitions would take minutes on the reversed file
        let forward = read_aiger(and_chain_text(100_000, false)).unwrap();
        let backward = read_aiger(and_chain_text(100_000, true)).unwrap();
        assert_eq!(forward.num_gates(), 100_000);
        assert_eq!(backward.num_gates(), forward.num_gates());
        assert!(equivalent_by_random_simulation(
            &forward, &backward, 8, 0xa16e
        ));
    }

    #[test]
    fn ascii_aiger_builds_in_order_files_in_file_order() {
        let text = write_aiger(&adder(8));
        let aig = read_aiger(&text).unwrap();
        // the constant, then the inputs, then one node per AND in file
        // order: every variable's node id is its index
        let header: Vec<usize> = text
            .lines()
            .next()
            .unwrap()
            .split_whitespace()
            .skip(1)
            .map(|t| t.parse().unwrap())
            .collect();
        let (num_inputs, num_outputs, num_ands) = (header[1], header[3], header[4]);
        assert_eq!(aig.size(), 1 + num_inputs + num_ands);
        for line in text.lines().skip(1 + num_inputs + num_outputs) {
            let lits: Vec<u32> = line
                .split_whitespace()
                .map(|t| t.parse().unwrap())
                .collect();
            let mut fanins: Vec<u32> = aig
                .fanins(lits[0] / 2)
                .iter()
                .map(|f| f.literal())
                .collect();
            fanins.sort_unstable();
            let mut expected = [lits[1], lits[2]];
            expected.sort_unstable();
            assert_eq!(fanins, expected, "{line}");
        }
        assert_eq!(write_aiger(&aig), text);

        // the same definitions shuffled build an equivalent network
        let (head, ands) = text.split_at(
            text.match_indices('\n')
                .nth(num_inputs + num_outputs)
                .unwrap()
                .0
                + 1,
        );
        let mut lines: Vec<&str> = ands.lines().collect();
        let mut rng = SplitMix64::seed_from_u64(0xa16e);
        for i in (1..lines.len()).rev() {
            lines.swap(i, rng.gen_range(i + 1));
        }
        let shuffled = read_aiger(format!("{head}{}\n", lines.join("\n"))).unwrap();
        assert_eq!(shuffled.num_gates(), aig.num_gates());
        assert!(equivalent_by_simulation(&aig, &shuffled));
    }

    #[test]
    fn network_sink_matches_builder_sink() {
        let aig: Aig = adder(4);
        // the same record stream through the bulk path and the robust path
        let mut source = NetworkSource::new(&aig);
        let (bulk, _) = transfer(&mut source, NetworkSink::<Aig>::new()).unwrap();
        let mut source = NetworkSource::new(&aig);
        let robust: Aig = transfer(&mut source, BuilderSink::new()).unwrap();
        assert_eq!(bulk.size(), robust.size());
        assert_eq!(bulk.num_gates(), robust.num_gates());
        assert_eq!(bulk.po_signals(), robust.po_signals());
        for node in bulk.node_ids() {
            assert_eq!(bulk.gate_kind(node), robust.gate_kind(node));
            assert_eq!(bulk.fanins(node), robust.fanins(node));
        }
        assert!(equivalent_by_simulation(&aig, &bulk));
    }

    #[test]
    fn blif_and_verilog_writers_emit_all_gates() {
        let aig: Aig = adder(2);
        let blif = write_blif(&aig, "adder2");
        assert!(blif.contains(".model adder2"));
        assert_eq!(
            blif.matches(".names").count() - 1,
            aig.num_gates() + aig.num_pos()
        );
        let verilog = write_verilog(&aig, "adder2");
        assert!(verilog.contains("module adder2"));
        assert_eq!(verilog.matches("wire n").count(), aig.num_gates() + 1);

        // LUT networks are emitted as covers
        let klut = lut_map(&aig, &LutMapParams::with_lut_size(4));
        let blif_lut = write_blif(&klut, "adder2_lut");
        assert!(blif_lut.contains(".names"));
        let verilog_lut = write_verilog(&klut, "adder2_lut");
        assert!(verilog_lut.contains("endmodule"));
    }
}
