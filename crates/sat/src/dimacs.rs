//! DIMACS CNF reader feeding the SAT lane and the netlist frontends.
//!
//! The reader accepts the classic `p cnf <vars> <clauses>` format: `c`
//! comment lines, clauses as whitespace-separated signed literals
//! terminated by `0` (clauses may span lines), and the SATLIB-style `%`
//! trailer. Parse failures report line and byte offsets through
//! [`rfn_netlist::ParseError`].
//!
//! A parsed formula can be used two ways:
//!
//! * [`Dimacs::load_into`] feeds the clauses straight into a [`Solver`] —
//!   the direct SAT lane.
//! * [`Dimacs::to_netlist`] builds a combinational netlist whose single
//!   property asserts the formula is never satisfied, so CNF inputs flow
//!   through the same engine portfolio as sequential designs: `Proved`
//!   means UNSAT, `Falsified` (at depth 0) means SAT.

use rfn_netlist::{GateOp, Netlist, ParseError, Property, SignalId};

use crate::{Lit, Solver, Var};

/// A parsed DIMACS CNF formula.
#[derive(Clone, Debug, Default)]
pub struct Dimacs {
    /// Declared variable count (variables are 1-based in the file). It is
    /// an upper bound, not an allocation request: only variables up to the
    /// largest one a clause mentions become solver variables or netlist
    /// inputs.
    pub num_vars: usize,
    /// Clauses as `(variable index, negated)` pairs; variable indices are
    /// 0-based.
    pub clauses: Vec<Vec<(usize, bool)>>,
}

/// Parses a DIMACS CNF file.
///
/// # Errors
///
/// Returns a [`ParseError`] with the line and byte offset of the first
/// malformed token: a missing or malformed `p cnf` header, literals out of
/// the declared variable range, an unterminated final clause, or a clause
/// count that disagrees with the header.
pub fn parse_dimacs(text: &str) -> Result<Dimacs, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let mut line = 1usize;
    let err = |line: usize, pos: usize, msg: String| ParseError::new(line, pos, msg);

    // Tokenizer: skips whitespace and `c`/`%` lines, yields (token, line, pos).
    let next_token = |pos: &mut usize, line: &mut usize| -> Option<(String, usize, usize)> {
        loop {
            while *pos < bytes.len() {
                let b = bytes[*pos];
                if b == b'\n' {
                    *line += 1;
                    *pos += 1;
                } else if b.is_ascii_whitespace() {
                    *pos += 1;
                } else {
                    break;
                }
            }
            if *pos >= bytes.len() {
                return None;
            }
            let b = bytes[*pos];
            let line_start = *pos == 0 || bytes[*pos - 1] == b'\n';
            if b == b'%' && line_start {
                // SATLIB trailer: ends the formula, rest of file ignored.
                *pos = bytes.len();
                return None;
            }
            if b == b'c' && line_start {
                // Comment: skip to end of line.
                while *pos < bytes.len() && bytes[*pos] != b'\n' {
                    *pos += 1;
                }
                continue;
            }
            let (tline, tpos) = (*line, *pos);
            let start = *pos;
            while *pos < bytes.len() && !bytes[*pos].is_ascii_whitespace() {
                *pos += 1;
            }
            let tok = std::str::from_utf8(&bytes[start..*pos])
                .expect("token boundaries are ascii")
                .to_owned();
            return Some((tok, tline, tpos));
        }
    };

    // Header.
    let (tok, tline, tpos) = next_token(&mut pos, &mut line)
        .ok_or_else(|| err(line, pos, "empty file: expected a `p cnf` header".into()))?;
    if tok != "p" {
        return Err(err(
            tline,
            tpos,
            format!("expected `p cnf` header, got `{tok}`"),
        ));
    }
    match next_token(&mut pos, &mut line) {
        Some((t, _, _)) if t == "cnf" => {}
        Some((t, l, p)) => return Err(err(l, p, format!("expected `cnf` after `p`, got `{t}`"))),
        None => return Err(err(line, pos, "truncated `p cnf` header".into())),
    }
    let read_count = |what: &str, pos: &mut usize, line: &mut usize| match next_token(pos, line) {
        Some((t, l, p)) => t
            .parse::<usize>()
            .map_err(|_| err(l, p, format!("invalid {what} count `{t}`"))),
        None => Err(err(*line, *pos, format!("missing {what} count in header"))),
    };
    let num_vars = read_count("variable", &mut pos, &mut line)?;
    let num_clauses = read_count("clause", &mut pos, &mut line)?;

    // Clauses.
    let mut clauses = Vec::with_capacity(num_clauses.min(1 << 20));
    let mut current: Vec<(usize, bool)> = Vec::new();
    let mut open = false;
    while let Some((tok, tline, tpos)) = next_token(&mut pos, &mut line) {
        let lit: i64 = tok
            .parse()
            .map_err(|_| err(tline, tpos, format!("invalid literal `{tok}`")))?;
        if lit == 0 {
            clauses.push(std::mem::take(&mut current));
            open = false;
            continue;
        }
        let var = lit.unsigned_abs() as usize;
        if var > num_vars {
            return Err(err(
                tline,
                tpos,
                format!("literal {lit} exceeds declared variable count {num_vars}"),
            ));
        }
        current.push((var - 1, lit < 0));
        open = true;
    }
    if open {
        return Err(err(line, pos, "final clause is not terminated by 0".into()));
    }
    if clauses.len() != num_clauses {
        return Err(err(
            line,
            pos,
            format!(
                "header declares {num_clauses} clauses but the file has {}",
                clauses.len()
            ),
        ));
    }
    Ok(Dimacs { num_vars, clauses })
}

impl Dimacs {
    /// The largest variable any clause mentions (0 for none). Declared
    /// variables above it are unconstrained, so leaving them out changes no
    /// verdict.
    fn used_vars(&self) -> usize {
        self.clauses
            .iter()
            .flatten()
            .map(|&(v, _)| v + 1)
            .max()
            .unwrap_or(0)
    }

    /// Loads the formula into a [`Solver`], returning the solver variable
    /// for each DIMACS variable up to the largest one a clause mentions
    /// (index 0 is DIMACS variable 1).
    pub fn load_into(&self, solver: &mut Solver) -> Vec<Var> {
        let vars: Vec<Var> = (0..self.used_vars()).map(|_| solver.new_var()).collect();
        for clause in &self.clauses {
            let lits: Vec<Lit> = clause.iter().map(|&(v, neg)| vars[v].lit(!neg)).collect();
            solver.add_clause(lits);
        }
        vars
    }

    /// Builds a combinational netlist encoding the formula, plus the safety
    /// property "the formula is never satisfied".
    ///
    /// Each DIMACS variable up to the largest one a clause mentions becomes
    /// a primary input `x1..xN`, each clause an OR gate, and the conjunction
    /// drives an output named `sat`. The
    /// returned property is `Proved` exactly when the formula is UNSAT and
    /// `Falsified` at depth 0 when it is SAT, so CNF problems run through
    /// the same portfolio as sequential designs.
    pub fn to_netlist(&self, name: &str) -> (Netlist, Property) {
        let mut n = Netlist::new(name);
        let inputs: Vec<SignalId> = (1..=self.used_vars())
            .map(|k| n.add_input(&format!("x{k}")))
            .collect();
        let mut clause_sigs = Vec::with_capacity(self.clauses.len());
        for (k, clause) in self.clauses.iter().enumerate() {
            if clause.is_empty() {
                clause_sigs.push(n.add_const("", false));
                continue;
            }
            let lits: Vec<SignalId> = clause
                .iter()
                .map(|&(v, neg)| {
                    if neg {
                        n.add_gate("", GateOp::Not, &[inputs[v]])
                    } else {
                        inputs[v]
                    }
                })
                .collect();
            clause_sigs.push(n.add_gate(&format!("c{k}"), GateOp::Or, &lits));
        }
        let sat = if clause_sigs.is_empty() {
            n.add_const("sat", true)
        } else {
            n.add_gate("sat", GateOp::And, &clause_sigs)
        };
        n.add_output("sat", sat);
        (n, Property::never_value("sat", sat, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveResult;

    #[test]
    fn parses_and_solves_sat() {
        let d = parse_dimacs("c tiny\np cnf 2 2\n1 -2 0\n2 0\n").unwrap();
        assert_eq!(d.num_vars, 2);
        assert_eq!(d.clauses.len(), 2);
        let mut s = Solver::new();
        let vars = d.load_into(&mut s);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(vars[1]), Some(true));
    }

    #[test]
    fn parses_and_solves_unsat() {
        let d = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        let mut s = Solver::new();
        d.load_into(&mut s);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn clauses_may_span_lines() {
        let d = parse_dimacs("p cnf 3 1\n1\n-2\n3 0\n").unwrap();
        assert_eq!(d.clauses[0].len(), 3);
        assert_eq!(d.clauses[0][1], (1, true));
    }

    #[test]
    fn tolerates_satlib_trailer() {
        let d = parse_dimacs("p cnf 1 1\n1 0\n%\n0\n").unwrap();
        assert_eq!(d.clauses.len(), 1);
    }

    #[test]
    fn rejects_out_of_range_literal() {
        let e = parse_dimacs("p cnf 1 1\n2 0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("exceeds"), "{e}");
    }

    #[test]
    fn rejects_unterminated_clause() {
        let e = parse_dimacs("p cnf 1 1\n1\n").unwrap_err();
        assert!(e.message.contains("not terminated"), "{e}");
    }

    #[test]
    fn rejects_clause_count_mismatch() {
        let e = parse_dimacs("p cnf 1 2\n1 0\n").unwrap_err();
        assert!(e.message.contains("declares 2 clauses"), "{e}");
    }

    /// The header's variable count is only a bound: a huge one must not
    /// allocate a variable per declared index.
    #[test]
    fn huge_declared_variable_count_allocates_only_used_variables() {
        let d = parse_dimacs("p cnf 25681798172 2\n1 -2 0\n2 0\n").unwrap();
        assert_eq!(d.num_vars, 25_681_798_172);
        let mut s = Solver::new();
        let vars = d.load_into(&mut s);
        assert_eq!(vars.len(), 2);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let (n, _) = d.to_netlist("cnf");
        n.validate().unwrap();
        assert_eq!(n.inputs().len(), 2);
    }

    #[test]
    fn netlist_encoding_matches_solver() {
        for (src, sat) in [
            ("p cnf 2 2\n1 -2 0\n2 0\n", true),
            ("p cnf 1 2\n1 0\n-1 0\n", false),
            ("p cnf 0 0\n", true),
            ("p cnf 1 1\n0\n", false),
        ] {
            let d = parse_dimacs(src).unwrap();
            let mut s = Solver::new();
            d.load_into(&mut s);
            let solver_sat = s.solve(&[]) == SolveResult::Sat;
            assert_eq!(solver_sat, sat, "{src:?}");
            let (n, p) = d.to_netlist("cnf");
            n.validate().unwrap();
            assert!(p.value);
            // Exhaustive check over all assignments (tiny formulas).
            let mut any = false;
            for bits in 0..1u32 << d.num_vars {
                let assign: Vec<bool> = (0..d.num_vars).map(|i| bits >> i & 1 == 1).collect();
                any |= eval_sat(&n, &assign);
            }
            assert_eq!(any, sat, "netlist encoding disagrees for {src:?}");
        }
    }

    fn eval_sat(n: &Netlist, inputs: &[bool]) -> bool {
        use rfn_netlist::NetKind;
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
