//! AIGER reader and writer (ascii `.aag` and binary `.aig`).
//!
//! AIGER is the exchange format of the hardware model-checking community
//! (HWMCC); this module maps it onto the crate's [`Netlist`]/[`Property`]
//! model with zero external dependencies:
//!
//! * AIGER *latches* become [`Netlist`] registers; latch reset values map to
//!   register init values (`0` → `Some(false)`, `1` → `Some(true)`, the
//!   latch's own literal → `None`, i.e. an unconstrained reset).
//! * AIGER *and* gates become [`GateOp::And`] gates; complemented literals
//!   materialize shared [`GateOp::Not`] gates.
//! * AIGER 1.9 *bad state* literals (`B` section) become safety
//!   [`Property`]s. Files without a `B` header field use the pre-1.9 HWMCC
//!   convention: every *output* is treated as a bad-state property (and kept
//!   as an output).
//! * Invariant constraints, justice and fairness sections (`C`/`J`/`F`) are
//!   rejected — the verifier handles plain safety only.
//!
//! The writer lowers arbitrary [`GateOp`]s (XOR, MUX, …) to and-inverter
//! form with structural hashing and constant folding, so any validated
//! netlist round-trips through `.aag`/`.aig`. Gate *names* are not
//! representable in AIGER symbol tables (only inputs, latches, outputs and
//! bad literals carry symbols), so a round-trip preserves structure and
//! I/O names, not internal net names.
//!
//! Parse failures report a 1-based line number and a 0-based byte offset
//! through [`ParseError`] (binary sections report the line of the byte
//! stream's start).

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::netlist::NetKind;
use crate::property::Property;
use crate::signal::{GateOp, SignalId};
use crate::{Netlist, NetlistError};

/// A parse error with source location, shared by the AIGER and DIMACS
/// readers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending input (0 when unknown).
    pub line: usize,
    /// 0-based byte offset into the input.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl ParseError {
    /// Creates a parse error at the given location.
    pub fn new(line: usize, offset: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "byte {}: {}", self.offset, self.message)
        } else {
            write!(
                f,
                "line {}, byte {}: {}",
                self.line, self.offset, self.message
            )
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed AIGER design: the netlist plus its safety properties.
#[derive(Clone, Debug)]
pub struct AigerDesign {
    /// The and-inverter netlist.
    pub netlist: Netlist,
    /// Safety properties: AIGER 1.9 bad-state literals, or (for pre-1.9
    /// files without a `B` header field) the outputs.
    pub properties: Vec<Property>,
    /// Whether the input was the binary (`aig`) format.
    pub binary: bool,
}

/// Latch reset value as written in the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LatchInit {
    Zero,
    One,
    /// Reset to the latch's own literal: unconstrained.
    Unknown,
}

struct Latch {
    lit: u64,
    next: u64,
    init: LatchInit,
}

/// Intermediate representation of a fully scanned AIGER file.
#[derive(Default)]
struct AigerFile {
    inputs: Vec<u64>,
    latches: Vec<Latch>,
    outputs: Vec<u64>,
    bads: Vec<u64>,
    /// Whether the header carried a `B` field (even if zero): controls the
    /// outputs-as-bad fallback.
    has_bad_section: bool,
    ands: Vec<(u64, u64, u64)>,
    input_names: HashMap<usize, String>,
    latch_names: HashMap<usize, String>,
    output_names: HashMap<usize, String>,
    bad_names: HashMap<usize, String>,
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor {
            bytes,
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.line, self.pos, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    /// Consumes one space character.
    fn expect_space(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Some(b' ') => {
                self.bump();
                Ok(())
            }
            _ => Err(self.err("expected a space")),
        }
    }

    /// Consumes a newline (LF or CRLF).
    fn expect_newline(&mut self) -> Result<(), ParseError> {
        if self.peek() == Some(b'\r') {
            self.bump();
        }
        match self.peek() {
            Some(b'\n') => {
                self.bump();
                Ok(())
            }
            None => Err(self.err("unexpected end of file, expected a newline")),
            Some(_) => Err(self.err("expected end of line")),
        }
    }

    /// Reads an unsigned decimal integer.
    fn read_uint(&mut self) -> Result<u64, ParseError> {
        let mut value: u64 = 0;
        let mut any = false;
        while let Some(b) = self.peek() {
            if !b.is_ascii_digit() {
                break;
            }
            self.bump();
            any = true;
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(b - b'0')))
                .ok_or_else(|| self.err("number too large"))?;
        }
        if !any {
            return Err(self.err("expected an unsigned integer"));
        }
        Ok(value)
    }

    /// Reads the rest of the current line (without the newline) as UTF-8,
    /// consuming the newline if present.
    fn read_rest_of_line(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let mut end = self.pos;
        if end > start && self.bytes[end - 1] == b'\r' {
            end -= 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| self.err("symbol name is not valid UTF-8"))?
            .to_owned();
        if self.peek() == Some(b'\n') {
            self.bump();
        }
        Ok(text)
    }

    /// Reads one byte of the binary delta encoding.
    fn read_varint(&mut self) -> Result<u64, ParseError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self
                .bump()
                .ok_or_else(|| self.err("unexpected end of file in binary and-gate section"))?;
            if shift >= 63 && b & !1 != 0 {
                return Err(self.err("binary delta encoding overflows 64 bits"));
            }
            value |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }
}

/// Parses an AIGER file (ascii `aag` or binary `aig` format, auto-detected
/// from the header) into a netlist plus safety properties.
///
/// `name` becomes the netlist's design name.
///
/// # Errors
///
/// Returns a [`ParseError`] carrying the line and byte offset of the first
/// malformed construct. Files using AIGER 1.9 invariant-constraint, justice
/// or fairness sections are rejected as unsupported.
pub fn parse_aiger(bytes: &[u8], name: &str) -> Result<AigerDesign, ParseError> {
    let mut cur = Cursor::new(bytes);
    // Header: `aag M I L O A [B [C [J [F]]]]` (ascii) or `aig …` (binary).
    let magic = [cur.bump(), cur.bump(), cur.bump()];
    let binary = match magic {
        [Some(b'a'), Some(b'a'), Some(b'g')] => false,
        [Some(b'a'), Some(b'i'), Some(b'g')] => true,
        _ => {
            return Err(ParseError::new(
                1,
                0,
                "not an AIGER file: header must start with `aag` or `aig`",
            ))
        }
    };
    let mut header = Vec::new();
    while cur.peek() == Some(b' ') {
        cur.expect_space()?;
        header.push(cur.read_uint()?);
    }
    if header.len() < 5 || header.len() > 9 {
        return Err(cur.err(format!(
            "AIGER header needs 5 to 9 fields (M I L O A [B C J F]), got {}",
            header.len()
        )));
    }
    let (m, i, l, o, a) = (header[0], header[1], header[2], header[3], header[4]);
    let b = header.get(5).copied().unwrap_or(0);
    let c = header.get(6).copied().unwrap_or(0);
    let j = header.get(7).copied().unwrap_or(0);
    let f_cnt = header.get(8).copied().unwrap_or(0);
    if c > 0 {
        return Err(cur.err("AIGER invariant constraints (C section) are not supported"));
    }
    if j > 0 || f_cnt > 0 {
        return Err(cur.err("AIGER justice/fairness sections (J/F) are not supported"));
    }
    if m < i + l + a {
        return Err(cur.err(format!(
            "inconsistent header: M = {m} is less than I + L + A = {}",
            i + l + a
        )));
    }
    if binary && m != i + l + a {
        return Err(cur.err(format!(
            "binary AIGER requires M = I + L + A, got M = {m}, I + L + A = {}",
            i + l + a
        )));
    }
    if m > u64::from(u32::MAX / 2) {
        return Err(cur.err(format!("design too large: {m} variables")));
    }
    cur.expect_newline()?;

    let mut file = AigerFile {
        has_bad_section: header.len() >= 6,
        ..AigerFile::default()
    };
    // Variables the file defines. A set, not a table indexed up to M: the
    // header's M may be far larger than the definitions that follow it.
    let mut defined: HashSet<u64> = HashSet::new();
    let mut define = |cur: &Cursor<'_>, lit: u64| -> Result<(), ParseError> {
        if lit & 1 != 0 {
            return Err(cur.err(format!("literal {lit} must not be complemented here")));
        }
        if lit == 0 || lit > 2 * m {
            return Err(cur.err(format!("literal {lit} out of range for M = {m}")));
        }
        if !defined.insert(lit >> 1) {
            return Err(cur.err(format!("variable {} defined twice", lit >> 1)));
        }
        Ok(())
    };
    let check_lit = |cur: &Cursor<'_>, lit: u64| -> Result<u64, ParseError> {
        if lit > 2 * m + 1 {
            return Err(cur.err(format!("literal {lit} out of range for M = {m}")));
        }
        Ok(lit)
    };

    // Inputs.
    for k in 0..i {
        let lit = if binary {
            2 * (k + 1)
        } else {
            let lit = cur.read_uint()?;
            cur.expect_newline()?;
            lit
        };
        define(&cur, lit)?;
        file.inputs.push(lit);
    }
    // Latches: `lhs next [init]` (ascii) or `next [init]` (binary).
    for k in 0..l {
        let lit = if binary {
            2 * (i + k + 1)
        } else {
            let lit = cur.read_uint()?;
            cur.expect_space()?;
            lit
        };
        define(&cur, lit)?;
        let next = cur.read_uint()?;
        let next = check_lit(&cur, next)?;
        let init = if cur.peek() == Some(b' ') {
            cur.expect_space()?;
            let r = cur.read_uint()?;
            match r {
                0 => LatchInit::Zero,
                1 => LatchInit::One,
                r if r == lit => LatchInit::Unknown,
                _ => {
                    return Err(cur.err(format!(
                        "latch reset must be 0, 1 or the latch literal {lit}, got {r}"
                    )))
                }
            }
        } else {
            LatchInit::Zero
        };
        cur.expect_newline()?;
        file.latches.push(Latch { lit, next, init });
    }
    // Outputs and bad-state literals.
    for _ in 0..o {
        let lit = cur.read_uint()?;
        let lit = check_lit(&cur, lit)?;
        cur.expect_newline()?;
        file.outputs.push(lit);
    }
    for _ in 0..b {
        let lit = cur.read_uint()?;
        let lit = check_lit(&cur, lit)?;
        cur.expect_newline()?;
        file.bads.push(lit);
    }
    // And gates.
    if binary {
        for k in 0..a {
            let lhs = 2 * (i + l + k + 1);
            let delta0 = cur.read_varint()?;
            if delta0 == 0 || delta0 > lhs {
                return Err(cur.err(format!(
                    "invalid binary delta {delta0} for and-gate literal {lhs}"
                )));
            }
            let rhs0 = lhs - delta0;
            let delta1 = cur.read_varint()?;
            if delta1 > rhs0 {
                return Err(cur.err(format!(
                    "invalid binary delta {delta1} for and-gate literal {lhs}"
                )));
            }
            let rhs1 = rhs0 - delta1;
            file.ands.push((lhs, rhs0, rhs1));
        }
    } else {
        for _ in 0..a {
            let lhs = cur.read_uint()?;
            define(&cur, lhs)?;
            cur.expect_space()?;
            let rhs0 = cur.read_uint()?;
            let rhs0 = check_lit(&cur, rhs0)?;
            cur.expect_space()?;
            let rhs1 = cur.read_uint()?;
            let rhs1 = check_lit(&cur, rhs1)?;
            cur.expect_newline()?;
            file.ands.push((lhs, rhs0, rhs1));
        }
    }
    // Symbol table and comment section.
    loop {
        match cur.peek() {
            None => break,
            Some(b'c') => {
                // Comment section: `c` on its own line, rest of file ignored.
                cur.bump();
                match cur.peek() {
                    None | Some(b'\n') | Some(b'\r') => break,
                    Some(_) => return Err(cur.err("invalid symbol table entry")),
                }
            }
            Some(kind @ (b'i' | b'l' | b'o' | b'b')) => {
                cur.bump();
                let pos = cur.read_uint()? as usize;
                cur.expect_space()?;
                let name = cur.read_rest_of_line()?;
                let (table, count, what) = match kind {
                    b'i' => (&mut file.input_names, i as usize, "input"),
                    b'l' => (&mut file.latch_names, l as usize, "latch"),
                    b'o' => (&mut file.output_names, o as usize, "output"),
                    _ => (&mut file.bad_names, b as usize, "bad literal"),
                };
                if pos >= count {
                    return Err(cur.err(format!(
                        "symbol for {what} {pos} out of range ({count} declared)"
                    )));
                }
                table.insert(pos, name);
            }
            Some(_) => return Err(cur.err("invalid symbol table entry")),
        }
    }

    build_netlist(file, name, binary)
}

/// Second pass: materialize the scanned file as a `Netlist` + properties.
fn build_netlist(file: AigerFile, name: &str, binary: bool) -> Result<AigerDesign, ParseError> {
    let dangling = |lit: u64| {
        ParseError::new(
            0,
            0,
            format!("literal {lit} references undefined variable {}", lit >> 1),
        )
    };
    let mut n = Netlist::new(name);
    let mut var_sig: HashMap<u64, SignalId> =
        HashMap::with_capacity(file.inputs.len() + file.latches.len() + file.ands.len());
    // Definition order: inputs, latches, then and placeholders, so every
    // variable exists before literals are resolved (AIGER allows forward
    // references in the ascii format).
    for (k, &lit) in file.inputs.iter().enumerate() {
        let nm = file.input_names.get(&k).cloned().unwrap_or_default();
        var_sig.insert(lit >> 1, n.add_input(&nm));
    }
    for (k, latch) in file.latches.iter().enumerate() {
        let nm = file.latch_names.get(&k).cloned().unwrap_or_default();
        let init = match latch.init {
            LatchInit::Zero => Some(false),
            LatchInit::One => Some(true),
            LatchInit::Unknown => None,
        };
        var_sig.insert(latch.lit >> 1, n.add_register(&nm, init));
    }
    for &(lhs, _, _) in &file.ands {
        var_sig.insert(lhs >> 1, n.add_gate("", GateOp::And, &[]));
    }

    // Literal resolution: constants and complement edges are materialized
    // lazily and shared.
    let mut const_sig: [Option<SignalId>; 2] = [None, None];
    let mut not_cache: HashMap<SignalId, SignalId> = HashMap::new();
    let mut lit_sig = |n: &mut Netlist, lit: u64| -> Result<SignalId, ParseError> {
        if lit >> 1 == 0 {
            let v = (lit & 1) == 1;
            return Ok(*const_sig[v as usize].get_or_insert_with(|| n.add_const("", v)));
        }
        let base = *var_sig.get(&(lit >> 1)).ok_or_else(|| dangling(lit))?;
        if lit & 1 == 0 {
            Ok(base)
        } else {
            Ok(*not_cache
                .entry(base)
                .or_insert_with(|| n.add_gate("", GateOp::Not, &[base])))
        }
    };

    for &(lhs, rhs0, rhs1) in &file.ands {
        let fanins = vec![lit_sig(&mut n, rhs0)?, lit_sig(&mut n, rhs1)?];
        let sig = var_sig[&(lhs >> 1)];
        n.replace_gate_fanins(sig, GateOp::And, fanins);
    }
    for latch in &file.latches {
        let next = lit_sig(&mut n, latch.next)?;
        let reg = var_sig[&(latch.lit >> 1)];
        n.set_register_next(reg, next)
            .map_err(|e| ParseError::new(0, 0, format!("invalid AIGER netlist: {e}")))?;
    }
    let mut output_sigs = Vec::new();
    for (k, &lit) in file.outputs.iter().enumerate() {
        let sig = lit_sig(&mut n, lit)?;
        let nm = file
            .output_names
            .get(&k)
            .cloned()
            .unwrap_or_else(|| format!("o{k}"));
        n.add_output(nm.clone(), sig);
        output_sigs.push((nm, sig));
    }
    let mut properties = Vec::new();
    if file.has_bad_section {
        for (k, &lit) in file.bads.iter().enumerate() {
            let sig = lit_sig(&mut n, lit)?;
            let nm = file
                .bad_names
                .get(&k)
                .cloned()
                .unwrap_or_else(|| format!("b{k}"));
            properties.push(Property::never_value(nm, sig, true));
        }
    } else {
        // Pre-1.9 HWMCC convention: outputs are the bad-state properties.
        for (nm, sig) in output_sigs {
            properties.push(Property::never_value(nm, sig, true));
        }
    }
    n.validate()
        .map_err(|e| ParseError::new(0, 0, format!("invalid AIGER netlist: {e}")))?;
    Ok(AigerDesign {
        netlist: n,
        properties,
        binary,
    })
}

/// And-inverter lowering state for the writer: assigns AIGER variables to
/// netlist signals with structural hashing and constant folding.
struct AigBuilder {
    /// Positive literal of each lowered netlist signal, by signal index.
    lit: Vec<u64>,
    /// `(rhs0, rhs1)` per and gate, `rhs0 >= rhs1`; the k-th entry defines
    /// variable `base + k + 1`.
    ands: Vec<(u64, u64)>,
    strash: HashMap<(u64, u64), u64>,
    /// Number of input + latch variables: and variables start above this.
    base: u64,
}

impl AigBuilder {
    fn and2(&mut self, x: u64, y: u64) -> u64 {
        let (a, b) = (x.max(y), x.min(y));
        if b == 0 || a == b ^ 1 {
            return 0;
        }
        if b == 1 || a == b {
            return a;
        }
        if let Some(&lit) = self.strash.get(&(a, b)) {
            return lit;
        }
        self.ands.push((a, b));
        let lit = 2 * (self.base + self.ands.len() as u64);
        self.strash.insert((a, b), lit);
        lit
    }

    fn and_fold(&mut self, lits: &[u64]) -> u64 {
        lits.iter().copied().fold(1, |acc, l| self.and2(acc, l))
    }

    fn or_fold(&mut self, lits: &[u64]) -> u64 {
        let neg: Vec<u64> = lits.iter().map(|l| l ^ 1).collect();
        self.and_fold(&neg) ^ 1
    }

    fn xor2(&mut self, a: u64, b: u64) -> u64 {
        let p = self.and2(a, b ^ 1);
        let q = self.and2(a ^ 1, b);
        self.and2(p ^ 1, q ^ 1) ^ 1
    }

    fn lower(&mut self, op: GateOp, lits: &[u64]) -> u64 {
        match op {
            GateOp::Buf => lits[0],
            GateOp::Not => lits[0] ^ 1,
            GateOp::And => self.and_fold(lits),
            GateOp::Nand => self.and_fold(lits) ^ 1,
            GateOp::Or => self.or_fold(lits),
            GateOp::Nor => self.or_fold(lits) ^ 1,
            GateOp::Xor => lits[1..].iter().fold(lits[0], |acc, &l| self.xor2(acc, l)),
            GateOp::Xnor => lits[1..].iter().fold(lits[0], |acc, &l| self.xor2(acc, l)) ^ 1,
            // Mux fanins are [sel, d0, d1]: sel ? d1 : d0.
            GateOp::Mux => {
                let (s, d0, d1) = (lits[0], lits[1], lits[2]);
                let t = self.and2(s, d1);
                let e = self.and2(s ^ 1, d0);
                self.and2(t ^ 1, e ^ 1) ^ 1
            }
        }
    }
}

/// Writes the netlist and its properties in the ascii AIGER (`aag`) format.
///
/// Properties become AIGER 1.9 bad-state literals (`B` section); netlist
/// outputs are written as outputs. See [`write_aiger`].
///
/// # Errors
///
/// Fails if the netlist does not [`Netlist::validate`] or a property watches
/// a signal outside the netlist.
pub fn write_aiger_ascii(
    netlist: &Netlist,
    properties: &[Property],
) -> Result<Vec<u8>, NetlistError> {
    write_aiger(netlist, properties, false)
}

/// Writes the netlist and its properties in the binary AIGER (`aig`) format.
///
/// See [`write_aiger_ascii`]; the lowered and-inverter graph is identical,
/// only the serialization differs.
///
/// # Errors
///
/// Fails if the netlist does not [`Netlist::validate`] or a property watches
/// a signal outside the netlist.
pub fn write_aiger_binary(
    netlist: &Netlist,
    properties: &[Property],
) -> Result<Vec<u8>, NetlistError> {
    write_aiger(netlist, properties, true)
}

/// Writes the netlist in ascii (`binary = false`) or binary AIGER format.
///
/// All [`GateOp`]s are lowered on the fly to two-input and gates with
/// complement edges, structural hashing and constant folding. Input, latch,
/// output and property names are emitted as symbol-table entries.
pub fn write_aiger(
    netlist: &Netlist,
    properties: &[Property],
    binary: bool,
) -> Result<Vec<u8>, NetlistError> {
    netlist.validate()?;
    let num_signals = netlist.num_signals();
    for p in properties {
        if p.signal.index() >= num_signals {
            return Err(NetlistError::UnknownSignal(p.signal));
        }
    }
    let ni = netlist.inputs().len() as u64;
    let nl = netlist.registers().len() as u64;
    let mut b = AigBuilder {
        lit: vec![u64::MAX; num_signals],
        ands: Vec::new(),
        strash: HashMap::new(),
        base: ni + nl,
    };
    for (k, &s) in netlist.inputs().iter().enumerate() {
        b.lit[s.index()] = 2 * (k as u64 + 1);
    }
    for (k, &s) in netlist.registers().iter().enumerate() {
        b.lit[s.index()] = 2 * (ni + k as u64 + 1);
    }
    for s in netlist.signals() {
        if let NetKind::Const(v) = netlist.kind(s) {
            b.lit[s.index()] = u64::from(*v);
        }
    }
    // topo_order yields gates only; inputs, registers and constants were
    // assigned above.
    for s in netlist.topo_order()? {
        if let NetKind::Gate { op, fanins } = netlist.kind(s) {
            let lits: Vec<u64> = fanins.iter().map(|f| b.lit[f.index()]).collect();
            let lit = b.lower(*op, &lits);
            b.lit[s.index()] = lit;
        }
    }
    let latch_lines: Vec<(u64, u64, Option<bool>)> = netlist
        .registers()
        .iter()
        .map(|&r| {
            (
                b.lit[r.index()],
                b.lit[netlist.register_next(r).index()],
                netlist.register_init(r),
            )
        })
        .collect();
    let out_lits: Vec<u64> = netlist
        .outputs()
        .iter()
        .map(|(_, s)| b.lit[s.index()])
        .collect();
    let bad_lits: Vec<u64> = properties
        .iter()
        .map(|p| b.lit[p.signal.index()] ^ u64::from(!p.value))
        .collect();

    let m = ni + nl + b.ands.len() as u64;
    let mut out = Vec::new();
    let magic = if binary { "aig" } else { "aag" };
    let mut header = format!("{magic} {m} {ni} {nl} {} {}", out_lits.len(), b.ands.len());
    if !bad_lits.is_empty() {
        header.push_str(&format!(" {}", bad_lits.len()));
    }
    header.push('\n');
    out.extend_from_slice(header.as_bytes());
    if !binary {
        for k in 0..ni {
            out.extend_from_slice(format!("{}\n", 2 * (k + 1)).as_bytes());
        }
    }
    for (lhs, next, init) in &latch_lines {
        let mut line = String::new();
        if !binary {
            line.push_str(&format!("{lhs} "));
        }
        line.push_str(&format!("{next}"));
        match init {
            Some(false) => {}
            Some(true) => line.push_str(" 1"),
            None => line.push_str(&format!(" {lhs}")),
        }
        line.push('\n');
        out.extend_from_slice(line.as_bytes());
    }
    for lit in &out_lits {
        out.extend_from_slice(format!("{lit}\n").as_bytes());
    }
    for lit in &bad_lits {
        out.extend_from_slice(format!("{lit}\n").as_bytes());
    }
    for (k, (rhs0, rhs1)) in b.ands.iter().enumerate() {
        let lhs = 2 * (ni + nl + k as u64 + 1);
        if binary {
            push_varint(&mut out, lhs - rhs0);
            push_varint(&mut out, rhs0 - rhs1);
        } else {
            out.extend_from_slice(format!("{lhs} {rhs0} {rhs1}\n").as_bytes());
        }
    }
    // Symbol table: named inputs/latches/outputs, and every property.
    for (k, &s) in netlist.inputs().iter().enumerate() {
        let nm = netlist.signal_name(s);
        if !nm.is_empty() {
            out.extend_from_slice(format!("i{k} {nm}\n").as_bytes());
        }
    }
    for (k, &s) in netlist.registers().iter().enumerate() {
        let nm = netlist.signal_name(s);
        if !nm.is_empty() {
            out.extend_from_slice(format!("l{k} {nm}\n").as_bytes());
        }
    }
    for (k, (nm, _)) in netlist.outputs().iter().enumerate() {
        if !nm.is_empty() {
            out.extend_from_slice(format!("o{k} {nm}\n").as_bytes());
        }
    }
    for (k, p) in properties.iter().enumerate() {
        if !p.name.is_empty() {
            out.extend_from_slice(format!("b{k} {}\n", p.name).as_bytes());
        }
    }
    Ok(out)
}

fn push_varint(out: &mut Vec<u8>, mut x: u64) {
    while x & !0x7f != 0 {
        out.push((x & 0x7f) as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toggle_aag() -> &'static str {
        // One latch toggling forever, bad when high: falsified at depth 1.
        "aag 1 0 1 0 0 1\n2 3\n2\nl0 t\nb0 high\n"
    }

    #[test]
    fn parses_ascii_toggle() {
        let d = parse_aiger(toggle_aag().as_bytes(), "toggle").unwrap();
        assert_eq!(d.netlist.registers().len(), 1);
        assert_eq!(d.properties.len(), 1);
        assert_eq!(d.properties[0].name, "high");
        assert!(!d.binary);
        let r = d.netlist.registers()[0];
        assert_eq!(d.netlist.signal_name(r), "t");
        assert_eq!(d.netlist.register_init(r), Some(false));
    }

    #[test]
    fn outputs_become_properties_without_bad_section() {
        let src = "aag 1 0 1 1 0\n2 3\n2\no0 stuck\n";
        let d = parse_aiger(src.as_bytes(), "t").unwrap();
        assert_eq!(d.properties.len(), 1);
        assert_eq!(d.properties[0].name, "stuck");
        assert_eq!(d.netlist.outputs().len(), 1);
    }

    #[test]
    fn explicit_empty_bad_section_keeps_outputs_plain() {
        let src = "aag 1 0 1 1 0 0\n2 3\n2\n";
        let d = parse_aiger(src.as_bytes(), "t").unwrap();
        assert!(d.properties.is_empty());
        assert_eq!(d.netlist.outputs().len(), 1);
    }

    #[test]
    fn latch_resets_map_to_init_values() {
        let src = "aag 3 0 3 0 0 1\n2 2 1\n4 4 4\n6 6\n2\n";
        let d = parse_aiger(src.as_bytes(), "t").unwrap();
        let regs = d.netlist.registers();
        assert_eq!(d.netlist.register_init(regs[0]), Some(true));
        assert_eq!(d.netlist.register_init(regs[1]), None);
        assert_eq!(d.netlist.register_init(regs[2]), Some(false));
    }

    #[test]
    fn rejects_constraints_and_justice() {
        let src = "aag 0 0 0 0 0 0 1\n";
        let e = parse_aiger(src.as_bytes(), "t").unwrap_err();
        assert!(e.message.contains("not supported"), "{e}");
        let src = "aag 0 0 0 0 0 0 0 1\n";
        assert!(parse_aiger(src.as_bytes(), "t").is_err());
    }

    #[test]
    fn reports_line_and_offset() {
        let src = "aag 1 1 0 0 0\nxyz\n";
        let e = parse_aiger(src.as_bytes(), "t").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.offset, 14);
    }

    #[test]
    fn rejects_duplicate_definition() {
        let src = "aag 2 2 0 0 0\n2\n2\n";
        let e = parse_aiger(src.as_bytes(), "t").unwrap_err();
        assert!(e.message.contains("defined twice"), "{e}");
    }

    #[test]
    fn rejects_dangling_reference() {
        let src = "aag 2 1 0 1 0\n2\n4\n";
        let e = parse_aiger(src.as_bytes(), "t").unwrap_err();
        assert!(e.message.contains("undefined variable"), "{e}");
    }

    /// M only bounds the variable indices: at the cap, a one-input design
    /// parses in memory proportional to its two definitions, even when it
    /// uses the highest variable.
    #[test]
    fn header_m_at_the_cap_sizes_nothing() {
        let m = u64::from(u32::MAX / 2);
        for lit in [2, 2 * m] {
            let src = format!("aag {m} 1 0 1 0\n{lit}\n{lit}\n");
            let d = parse_aiger(src.as_bytes(), "t").unwrap();
            assert_eq!(d.netlist.inputs().len(), 1);
            assert_eq!(d.properties.len(), 1);
        }
        let src = format!("aag {} 1 0 1 0\n2\n2\n", m + 1);
        let e = parse_aiger(src.as_bytes(), "t").unwrap_err();
        assert!(e.message.contains("too large"), "{e}");
    }

    #[test]
    fn ascii_roundtrip_is_stable() {
        let d = parse_aiger(toggle_aag().as_bytes(), "toggle").unwrap();
        let once = write_aiger_ascii(&d.netlist, &d.properties).unwrap();
        let d2 = parse_aiger(&once, "toggle").unwrap();
        let twice = write_aiger_ascii(&d2.netlist, &d2.properties).unwrap();
        assert_eq!(once, twice);
        assert_eq!(
            d.netlist.structural_hash(),
            d2.netlist.structural_hash(),
            "toggle AIG is already in and-inverter form, so parse∘write is identity"
        );
    }

    #[test]
    fn binary_and_ascii_agree() {
        let d = parse_aiger(toggle_aag().as_bytes(), "toggle").unwrap();
        let asc = write_aiger_ascii(&d.netlist, &d.properties).unwrap();
        let bin = write_aiger_binary(&d.netlist, &d.properties).unwrap();
        let da = parse_aiger(&asc, "toggle").unwrap();
        let db = parse_aiger(&bin, "toggle").unwrap();
        assert!(db.binary);
        assert_eq!(da.netlist.structural_hash(), db.netlist.structural_hash());
    }

    #[test]
    fn writer_lowers_rich_gates() {
        let mut n = Netlist::new("rich");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let s = n.add_input("s");
        let x = n.add_gate("x", GateOp::Xor, &[a, b]);
        let mx = n.add_gate("mx", GateOp::Mux, &[s, a, x]);
        let no = n.add_gate("no", GateOp::Nor, &[mx, b]);
        n.add_output("no", no);
        n.validate().unwrap();
        let bytes = write_aiger_ascii(&n, &[]).unwrap();
        let d = parse_aiger(&bytes, "rich").unwrap();
        assert_eq!(d.netlist.inputs().len(), 3);
        assert_eq!(d.netlist.outputs().len(), 1);
        // Exhaustive equivalence over the 8 input assignments.
        for bits in 0..8u32 {
            let (va, vb, vs) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let expect = !((if vs { va ^ vb } else { va }) | vb);
            let got = eval_output(&d.netlist, &[va, vb, vs]);
            assert_eq!(got, expect, "inputs {va} {vb} {vs}");
        }
    }

    /// Evaluates the sole output of a combinational netlist.
    fn eval_output(n: &Netlist, inputs: &[bool]) -> bool {
        let mut vals = vec![false; n.num_signals()];
        for (k, &s) in n.inputs().iter().enumerate() {
            vals[s.index()] = inputs[k];
        }
        for s in n.signals() {
            if let NetKind::Const(v) = n.kind(s) {
                vals[s.index()] = *v;
            }
        }
        for s in n.topo_order().unwrap() {
            if let NetKind::Gate { op, fanins } = n.kind(s) {
                let f: Vec<bool> = fanins.iter().map(|x| vals[x.index()]).collect();
                vals[s.index()] = op.eval(&f);
            }
        }
        vals[n.outputs()[0].1.index()]
    }
}
