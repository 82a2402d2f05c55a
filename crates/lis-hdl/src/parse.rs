//! A parser for the canonical structural Verilog emitted by
//! [`crate::emit_verilog`], used to prove the emission round-trips.
//!
//! The grammar is exactly the emitter's line-oriented subset — this is
//! not a general Verilog front end, it is the consistency check that the
//! text we hand to a synthesis tool denotes the netlist we synthesized.

use lis_netlist::{Cell, CellKind, Module, Net, NetId, Port, Rom};
use std::collections::HashMap;
use std::fmt;

/// A parse failure, with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verilog parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Default)]
struct DffInProgress {
    reg: String,
    init: bool,
    rst: Option<String>,
    en: Option<String>,
    d: Option<String>,
}

/// Parses canonical structural Verilog back into a [`Module`].
///
/// # Errors
///
/// Returns a [`ParseError`] for any line outside the canonical subset.
pub fn parse_verilog(text: &str) -> Result<Module, ParseError> {
    let mut module = Module::new("parsed");
    let mut net_ids: HashMap<String, NetId> = HashMap::new();
    let mut input_ports: Vec<(String, usize)> = Vec::new();
    let mut output_ports: Vec<(String, usize)> = Vec::new();
    let mut out_bits: HashMap<String, Vec<Option<NetId>>> = HashMap::new();
    let mut in_bits: HashMap<String, Vec<Option<NetId>>> = HashMap::new();
    let mut dffs: HashMap<String, DffInProgress> = HashMap::new();
    let mut dff_order: Vec<String> = Vec::new();
    let mut roms: HashMap<String, Rom> = HashMap::new();
    let mut rom_order: Vec<String> = Vec::new();
    let mut current_dff: Option<String> = None;
    // Every port bit, ROM data bit and ROM word is bound by a line of its
    // own, so no valid width or index reaches the line count; checking
    // against it bounds every allocation below by the input size.
    let max_len = text.lines().count();

    let err = |line: usize, message: &str| ParseError {
        line,
        message: message.to_owned(),
    };

    let lookup =
        |net_ids: &HashMap<String, NetId>, name: &str, line: usize| -> Result<NetId, ParseError> {
            net_ids
                .get(name)
                .copied()
                .ok_or_else(|| err(line, &format!("unknown net {name}")))
        };

    for (lineno, raw) in text.lines().enumerate() {
        let line_no = lineno + 1;
        let line = raw.trim().trim_end_matches(',');
        if line.is_empty()
            || line.starts_with("//")
            || line.starts_with("module ")
            || line == ");"
            || line == "endmodule"
            || line.starts_with("initial begin")
            || line == "end"
            || line.starts_with("always @")
        {
            continue;
        }

        if let Some(rest) = line.strip_prefix("input wire ") {
            if rest == crate::verilog::CLOCK_PORT {
                continue;
            }
            let (width, name) = parse_ranged_name(rest)
                .filter(|&(width, _)| width <= max_len)
                .ok_or_else(|| err(line_no, "bad input declaration"))?;
            in_bits.insert(name.clone(), vec![None; width]);
            input_ports.push((name, width));
            continue;
        }
        if let Some(rest) = line.strip_prefix("output wire ") {
            let (width, name) = parse_ranged_name(rest)
                .filter(|&(width, _)| width <= max_len)
                .ok_or_else(|| err(line_no, "bad output declaration"))?;
            out_bits.insert(name.clone(), vec![None; width]);
            output_ports.push((name, width));
            continue;
        }

        if let Some(rest) = line.strip_prefix("wire ") {
            // Either "wire nN;" or ROM helper wires.
            let rest = rest.trim_end_matches(';');
            if let Some(name) = rest.strip_suffix(';') {
                let _ = name;
            }
            if rest.starts_with('[') {
                // ROM address/data helper wires.
                if let Some((lhs, rhs)) = rest.split_once('=') {
                    let lhs_name = lhs.rsplit(' ').find(|s| !s.is_empty()).unwrap_or("").trim();
                    if let Some(rom_name) = lhs_name.strip_suffix("_addr") {
                        // {nMSB, ..., nLSB}
                        let inner = rhs
                            .trim()
                            .trim_start_matches('{')
                            .trim_end_matches('}')
                            .trim();
                        let mut addr: Vec<NetId> = Vec::new();
                        for part in inner.split(',') {
                            addr.push(lookup(&net_ids, part.trim(), line_no)?);
                        }
                        addr.reverse(); // back to LSB-first
                        let rom = roms
                            .get_mut(rom_name)
                            .ok_or_else(|| err(line_no, "addr for unknown rom"))?;
                        rom.addr = addr;
                    }
                    // The _data mux wire carries no structural info.
                    continue;
                }
                return Err(err(line_no, "unrecognized wide wire"));
            }
            let name = rest.trim_end_matches(';');
            let id = NetId::from_index(module.nets.len());
            module.nets.push(Net {
                name: Some(name.to_owned()),
            });
            net_ids.insert(name.to_owned(), id);
            continue;
        }

        if let Some(rest) = line.strip_prefix("reg ") {
            let rest = rest.trim_end_matches(';');
            if rest.starts_with('[') {
                // reg [W-1:0] romK [0:D-1]
                let mut parts = rest.split_whitespace();
                let range = parts.next().ok_or_else(|| err(line_no, "bad rom reg"))?;
                let name = parts.next().ok_or_else(|| err(line_no, "bad rom reg"))?;
                let width =
                    parse_range_width(range).ok_or_else(|| err(line_no, "bad rom width"))?;
                if roms.contains_key(name) {
                    return Err(err(line_no, "duplicate rom"));
                }
                roms.insert(
                    name.to_owned(),
                    Rom {
                        name: name.to_owned(),
                        addr: Vec::new(),
                        data: Vec::new(),
                        contents: Vec::new(),
                    },
                );
                rom_order.push(name.to_owned());
                // Data nets are attached later; remember width via contents
                // capacity (width recovered from data assigns).
                let _ = width;
                continue;
            }
            // reg rC = 1'b0;
            let (name, init) = rest
                .split_once(" = 1'b")
                .ok_or_else(|| err(line_no, "bad reg declaration"))?;
            let dff = DffInProgress {
                reg: name.trim().to_owned(),
                init: init.trim() == "1",
                ..DffInProgress::default()
            };
            dff_order.push(dff.reg.clone());
            current_dff = Some(dff.reg.clone());
            dffs.insert(dff.reg.clone(), dff);
            continue;
        }

        if let Some(rest) = line.strip_prefix("if (") {
            // if (nR) rC <= 1'bX;
            let reg = current_dff
                .clone()
                .ok_or_else(|| err(line_no, "if outside dff block"))?;
            let (cond, _) = rest.split_once(')').ok_or_else(|| err(line_no, "bad if"))?;
            let d = dffs.get_mut(&reg).expect("registered");
            d.rst = Some(cond.trim().to_owned());
            continue;
        }
        if let Some(rest) = line.strip_prefix("else if (") {
            let reg = current_dff
                .clone()
                .ok_or_else(|| err(line_no, "else outside dff block"))?;
            let (cond, tail) = rest
                .split_once(')')
                .ok_or_else(|| err(line_no, "bad else-if"))?;
            let dname = tail
                .trim()
                .strip_prefix(&format!("{reg} <= "))
                .ok_or_else(|| err(line_no, "bad dff data"))?
                .trim_end_matches(';');
            let d = dffs.get_mut(&reg).expect("registered");
            d.en = Some(cond.trim().to_owned());
            d.d = Some(dname.to_owned());
            continue;
        }

        if let Some((lhs, rhs)) = line
            .strip_prefix("assign ")
            .and_then(|r| r.trim_end_matches(';').split_once(" = "))
        {
            let lhs = lhs.trim();
            let rhs = rhs.trim();
            // Output port bit: assign y[0] = n42;
            if let Some((pname, bit)) = parse_indexed(lhs) {
                if let Some(slots) = out_bits.get_mut(pname) {
                    let slot = slots
                        .get_mut(bit)
                        .ok_or_else(|| err(line_no, "output bit past the port width"))?;
                    *slot = Some(lookup(&net_ids, rhs, line_no)?);
                    continue;
                }
                return Err(err(line_no, "assign to unknown port"));
            }
            let out = lookup(&net_ids, lhs, line_no)?;
            // Input port bit: assign n3 = ne[0];
            if let Some((pname, bit)) = parse_indexed(rhs) {
                if let Some(slots) = in_bits.get_mut(pname) {
                    let slot = slots
                        .get_mut(bit)
                        .ok_or_else(|| err(line_no, "input bit past the port width"))?;
                    *slot = Some(out);
                    continue;
                }
                if let Some(rom_name) = pname.strip_suffix("_data") {
                    let rom = roms
                        .get_mut(rom_name)
                        .ok_or_else(|| err(line_no, "data for unknown rom"))?;
                    if bit >= max_len {
                        return Err(err(line_no, "rom data bit out of range"));
                    }
                    if rom.data.len() <= bit {
                        rom.data.resize(bit + 1, out);
                    }
                    rom.data[bit] = out;
                    continue;
                }
                return Err(err(line_no, "read of unknown port"));
            }
            // DFF output: assign n12 = r5;
            if dffs.contains_key(rhs) {
                let d = dffs.get_mut(rhs).expect("checked");
                // Build the cell now that all pins are known.
                let (Some(rst), Some(en), Some(data)) = (d.rst.clone(), d.en.clone(), d.d.clone())
                else {
                    return Err(err(line_no, "incomplete dff"));
                };
                let init = d.init;
                let rst = lookup(&net_ids, &rst, line_no)?;
                let en = lookup(&net_ids, &en, line_no)?;
                let data = lookup(&net_ids, &data, line_no)?;
                module.cells.push(Cell::new(
                    CellKind::Dff { reset_value: init },
                    vec![data, en, rst],
                    out,
                ));
                continue;
            }
            // Gate expressions.
            let kind_cell = parse_expr(rhs, &net_ids, line_no)?;
            match kind_cell {
                Expr::Const(v) => {
                    module
                        .cells
                        .push(Cell::new(CellKind::Const(v), vec![], out));
                }
                Expr::Unary(kind, a) => {
                    module.cells.push(Cell::new(kind, vec![a], out));
                }
                Expr::Binary(kind, a, b) => {
                    module.cells.push(Cell::new(kind, vec![a, b], out));
                }
                Expr::Mux(s, a, b) => {
                    module
                        .cells
                        .push(Cell::new(CellKind::Mux, vec![s, a, b], out));
                }
            }
            continue;
        }

        // ROM contents: romK[i] = 13'd123;
        if let Some((lhs, rhs)) = line.trim_end_matches(';').split_once(" = ") {
            if let Some((name, idx)) = parse_indexed(lhs.trim()) {
                if let Some(rom) = roms.get_mut(name) {
                    let value = rhs
                        .split_once("'d")
                        .and_then(|(_, v)| v.parse::<u64>().ok())
                        .ok_or_else(|| err(line_no, "bad rom word"))?;
                    if idx >= max_len {
                        return Err(err(line_no, "rom word index out of range"));
                    }
                    if rom.contents.len() <= idx {
                        rom.contents.resize(idx + 1, 0);
                    }
                    rom.contents[idx] = value;
                    continue;
                }
            }
        }

        return Err(err(line_no, &format!("unrecognized line: {line}")));
    }

    // Assemble ports.
    // A port declared twice keeps the slots of its last declaration;
    // `get` turns an earlier, wider declaration into an unbound-bit
    // error rather than an index panic.
    for (name, width) in input_ports {
        let slots = &in_bits[&name];
        let bits = (0..width)
            .map(|b| {
                slots
                    .get(b)
                    .copied()
                    .flatten()
                    .ok_or_else(|| err(0, &format!("input {name}[{b}] unbound")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        module.inputs.push(Port { name, bits });
    }
    for (name, width) in output_ports {
        let slots = &out_bits[&name];
        let bits = (0..width)
            .map(|b| {
                slots
                    .get(b)
                    .copied()
                    .flatten()
                    .ok_or_else(|| err(0, &format!("output {name}[{b}] unbound")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        module.outputs.push(Port { name, bits });
    }
    for name in rom_order {
        module.roms.push(roms.remove(&name).expect("collected"));
    }

    lis_netlist::validate(&module).map_err(|e| err(0, &format!("invalid netlist: {e}")))?;
    Ok(module)
}

enum Expr {
    Const(bool),
    Unary(CellKind, NetId),
    Binary(CellKind, NetId, NetId),
    Mux(NetId, NetId, NetId),
}

fn parse_expr(rhs: &str, nets: &HashMap<String, NetId>, line: usize) -> Result<Expr, ParseError> {
    let err = |message: String| ParseError { line, message };
    let net = |name: &str| {
        nets.get(name.trim())
            .copied()
            .ok_or_else(|| err(format!("unknown net {name}")))
    };
    if let Some(v) = rhs.strip_prefix("1'b") {
        return Ok(Expr::Const(v == "1"));
    }
    if let Some(inner) = rhs.strip_prefix("~(").and_then(|r| r.strip_suffix(')')) {
        for (op, kind) in [
            (" & ", CellKind::Nand),
            (" | ", CellKind::Nor),
            (" ^ ", CellKind::Xnor),
        ] {
            if let Some((a, b)) = inner.split_once(op) {
                return Ok(Expr::Binary(kind, net(a)?, net(b)?));
            }
        }
        return Err(err(format!("bad inverted expression: {rhs}")));
    }
    if let Some(a) = rhs.strip_prefix('~') {
        return Ok(Expr::Unary(CellKind::Not, net(a)?));
    }
    if let Some((cond, arms)) = rhs.split_once(" ? ") {
        let (then_v, else_v) = arms
            .split_once(" : ")
            .ok_or_else(|| err(format!("bad mux: {rhs}")))?;
        // Emitted as: sel ? input2 : input1 — pin order [sel, a, b].
        return Ok(Expr::Mux(net(cond)?, net(else_v)?, net(then_v)?));
    }
    for (op, kind) in [
        (" & ", CellKind::And),
        (" | ", CellKind::Or),
        (" ^ ", CellKind::Xor),
    ] {
        if let Some((a, b)) = rhs.split_once(op) {
            return Ok(Expr::Binary(kind, net(a)?, net(b)?));
        }
    }
    // Bare net: buffer.
    Ok(Expr::Unary(CellKind::Buf, net(rhs)?))
}

/// "name[3]" → ("name", 3).
fn parse_indexed(s: &str) -> Option<(&str, usize)> {
    let (name, rest) = s.split_once('[')?;
    let (idx, _) = rest.split_once(']')?;
    Some((name, idx.parse().ok()?))
}

/// "[W-1:0] name" → (W, name).
fn parse_ranged_name(s: &str) -> Option<(usize, String)> {
    let (width, rest) = parse_range(s.trim())?;
    Some((width, rest.trim().trim_end_matches(';').to_owned()))
}

/// "[W-1:0]" → W.
fn parse_range_width(s: &str) -> Option<usize> {
    parse_range(s).map(|(width, _)| width)
}

/// "[W-1:0]rest" → (W, rest).
fn parse_range(s: &str) -> Option<(usize, &str)> {
    let (range, rest) = s.strip_prefix('[')?.split_once(']')?;
    let hi: usize = range.split(':').next()?.parse().ok()?;
    Some((hi.checked_add(1)?, rest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verilog::emit_verilog;
    use lis_netlist::{ModuleBuilder, NetlistStats};
    use proptest::prelude::*;

    /// Wraps `body` in a module with a 2-bit input `x` and a 2-bit output
    /// `y`; `body` starts on line 5.
    fn with_ports(body: &str) -> String {
        format!("module m (\n  input wire [1:0] x,\n  output wire [1:0] y\n);\n{body}endmodule\n")
    }

    fn error_line(text: &str) -> usize {
        parse_verilog(text).expect_err("malformed input").line
    }

    /// A gate-level module with ROMs and flip-flops, emitted: the seed
    /// text of the mutation property.
    fn emitted_wrapper() -> String {
        let mut b = ModuleBuilder::new("seed");
        let a = b.input("a", 3);
        let x = b.and(a.bit(0), a.bit(1));
        let t = b.constant(true);
        let q = b.dff(x, t, a.bit(2), false);
        let addr = lis_netlist::Bus::from_nets(vec![q, a.bit(1)]);
        let data = b.rom("lut", &addr, 3, vec![5, 2, 7]);
        b.output("d", &data);
        b.output_bit("q", q);
        emit_verilog(&b.finish().unwrap())
    }

    #[test]
    fn round_trips_a_gate_module() {
        let mut b = ModuleBuilder::new("gates");
        let a = b.input("a", 3);
        let x = b.and(a.bit(0), a.bit(1));
        let y = b.xor(x, a.bit(2));
        let z = b.mux(y, x, a.bit(0));
        let w = b.nor(z, y);
        b.output_bit("out", w);
        let m = b.finish().unwrap();
        let text = emit_verilog(&m);
        let parsed = parse_verilog(&text).expect("parse");
        assert_eq!(NetlistStats::of(&parsed), NetlistStats::of(&m));
    }

    #[test]
    fn parse_rejects_garbage() {
        let e = parse_verilog("  frobnicate the bits;").unwrap_err();
        assert!(e.to_string().contains("unrecognized line"));
    }

    #[test]
    fn parse_error_reports_line_numbers() {
        let text = "// comment\n  wire n0;\n  bogus;\n";
        let e = parse_verilog(text).unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn output_bit_past_the_port_width_is_an_error() {
        let text = with_ports("  wire n1;\n  assign y[5] = n1;\n");
        assert_eq!(error_line(&text), 6);
    }

    #[test]
    fn input_bit_past_the_port_width_is_an_error() {
        let text = with_ports("  wire n1;\n  assign n1 = x[5];\n");
        assert_eq!(error_line(&text), 6);
    }

    #[test]
    fn reversed_brackets_in_an_index_are_an_error() {
        let text = with_ports("  wire n1;\n  assign ]a[ = n1;\n");
        assert_eq!(error_line(&text), 6);
    }

    #[test]
    fn reversed_brackets_in_a_declaration_are_an_error() {
        let text = "module m (\n  input wire ]x\n);\nendmodule\n";
        assert_eq!(error_line(text), 2);
    }

    #[test]
    fn overflowing_port_width_is_an_error() {
        let text = "module m (\n  input wire [18446744073709551615:0] x\n);\nendmodule\n";
        assert_eq!(error_line(text), 2);
        // One below the overflow is a width no source text can bind.
        let text = "module m (\n  output wire [18446744073709551614:0] y\n);\nendmodule\n";
        assert_eq!(error_line(text), 2);
    }

    #[test]
    fn redeclared_narrower_port_is_an_error() {
        let text = "module m (\n  input wire [3:0] x,\n  input wire [0:0] x\n);\nendmodule\n";
        assert!(parse_verilog(text).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes never panic the parser.
        #[test]
        fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            let _ = parse_verilog(&String::from_utf8_lossy(&bytes));
        }

        /// Nor do near-miss texts: an emitted module with random lines
        /// dropped, duplicated, or with one byte overwritten by a
        /// character the grammar cares about.
        #[test]
        fn mutated_emissions_never_panic(
            edits in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..6),
        ) {
            const PUNCT: &[u8] = b"[]:;=?~&|^(){}' 019n_x";
            let seed = emitted_wrapper();
            let mut lines: Vec<String> = seed.lines().map(str::to_owned).collect();
            for (kind, at, by) in edits {
                let i = usize::from(at) % lines.len();
                match kind % 3 {
                    0 if lines.len() > 1 => {
                        lines.remove(i);
                    }
                    1 => {
                        let dup = lines[i].clone();
                        lines.insert(i, dup);
                    }
                    _ => {
                        let mut bytes = lines[i].clone().into_bytes();
                        if !bytes.is_empty() {
                            let j = usize::from(by) % bytes.len();
                            bytes[j] = PUNCT[usize::from(by >> 8) % PUNCT.len()];
                        }
                        lines[i] = String::from_utf8_lossy(&bytes).into_owned();
                    }
                }
            }
            let _ = parse_verilog(&lines.join("\n"));
        }
    }
}
