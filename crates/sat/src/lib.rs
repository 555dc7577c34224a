//! SAT engine for the RFN verification tool: a small CDCL solver plus a
//! time-frame CNF unroller for bounded model checking.
//!
//! The DAC 2001 flow this repository reproduces races formal, simulation
//! and hybrid engines; its formal lane was BDD-bound, which caps
//! falsification depth exactly where 2001-era BDDs did. This crate supplies
//! the third engine class: SAT-based bounded model checking in the
//! single-instance incremental formulation of proof- and
//! counterexample-based abstraction (Een, Mishchenko & Amla,
//! arXiv:1008.2021).
//!
//! Two layers:
//!
//! * [`Solver`] — a CDCL solver with two-watched-literal propagation,
//!   VSIDS-lite branching, first-UIP learning, Luby restarts, incremental
//!   clause addition, per-call assumptions and UNSAT-core extraction over
//!   the assumption literals. It polls a shared
//!   [`Budget`](rfn_govern::Budget) at propagation and restart boundaries
//!   so a portfolio controller can cancel it cooperatively.
//! * [`Unroller`] — Tseitin time-frame unrolling of an
//!   `rfn-netlist` design with cone-of-influence restriction, constant
//!   folding and structural simplification, plus per-register activation
//!   literals so an abstraction (a register subset) can be selected per
//!   solver call purely through assumptions.
//!
//! The crate is zero-dependency beyond the workspace's `rfn-govern` and
//! `rfn-netlist`; the `Bmc` engine in `rfn-core` builds on both layers.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod dimacs;
mod lit;
mod solver;
mod unroll;

pub use dimacs::{parse_dimacs, Dimacs};
pub use lit::{Lit, Var};
pub use solver::{SolveResult, Solver, SolverStats};
pub use unroll::{Term, Unroller};

#[cfg(test)]
mod tests {
    use super::*;
    use rfn_govern::{Budget, Exhaustion};
    use rfn_netlist::{GateOp, Netlist};

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([a.positive()]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(a), Some(true));
        s.add_clause([a.negative()]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(!s.is_ok());
        // Once unconditionally UNSAT, the solver stays UNSAT.
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.core().is_empty());
    }

    #[test]
    fn unit_propagation_chains() {
        let mut s = Solver::new();
        let vs: Vec<_> = (0..10).map(|_| s.new_var()).collect();
        for w in vs.windows(2) {
            s.add_clause([w[0].negative(), w[1].positive()]);
        }
        s.add_clause([vs[0].positive()]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for v in &vs {
            assert_eq!(s.value(*v), Some(true));
        }
        assert_eq!(
            s.stats().decisions,
            0,
            "pure propagation needs no decisions"
        );
    }

    /// Pigeonhole PHP(4 pigeons, 3 holes): UNSAT, requires real conflict
    /// analysis rather than luck.
    #[test]
    fn pigeonhole_is_unsat() {
        let mut s = Solver::new();
        let (pigeons, holes) = (4, 3);
        let mut x = vec![vec![]; pigeons];
        for p in x.iter_mut() {
            for _ in 0..holes {
                p.push(s.new_var());
            }
        }
        for p in &x {
            s.add_clause(p.iter().map(|v| v.positive()));
        }
        #[allow(clippy::needless_range_loop)]
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    s.add_clause([x[p1][h].negative(), x[p2][h].negative()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_are_per_call_and_yield_cores() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause([a.negative(), b.positive()]); // a -> b
        s.add_clause([b.negative(), c.positive()]); // b -> c
        assert_eq!(s.solve(&[a.positive(), c.negative()]), SolveResult::Unsat);
        let core = s.core().to_vec();
        assert!(core.contains(&a.positive()) && core.contains(&c.negative()));
        // An irrelevant assumption stays out of the core.
        let d = s.new_var();
        assert_eq!(
            s.solve(&[d.positive(), a.positive(), c.negative()]),
            SolveResult::Unsat
        );
        assert!(!s.core().contains(&d.positive()));
        // Without the assumptions the instance is satisfiable again.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn cancelled_budget_reports_unknown() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([a.positive()]);
        let budget = Budget::unlimited();
        budget.cancel();
        s.set_budget(budget);
        assert_eq!(s.solve(&[]), SolveResult::Unknown(Exhaustion::Cancelled));
    }

    fn brute_force_sat(num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> bool {
        (0u32..1 << num_vars).any(|m| {
            clauses.iter().all(|c| {
                c.iter()
                    .any(|&(v, positive)| ((m >> v) & 1 == 1) == positive)
            })
        })
    }

    /// A deterministic splitmix64 stream.
    fn splitmix64(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// `len` random literals over `num_vars` variables, as (variable,
    /// polarity) pairs.
    fn random_lits(
        next: &mut impl FnMut() -> u64,
        num_vars: usize,
        len: usize,
    ) -> Vec<(usize, bool)> {
        (0..len)
            .map(|_| ((next() as usize) % num_vars, next() & 1 == 1))
            .collect()
    }

    #[test]
    fn random_cnf_agrees_with_brute_force() {
        // Random 3-CNF instances, each solved once without assumptions.
        let mut next = splitmix64(0x9e37_79b9_7f4a_7c15);
        for round in 0..200 {
            let num_vars = 3 + (next() % 6) as usize; // 3..=8
            let num_clauses = (next() % 28) as usize;
            let clauses: Vec<Vec<(usize, bool)>> = (0..num_clauses)
                .map(|_| {
                    let len = 1 + (next() % 3) as usize;
                    random_lits(&mut next, num_vars, len)
                })
                .collect();
            let mut s = Solver::new();
            let vars: Vec<_> = (0..num_vars).map(|_| s.new_var()).collect();
            for c in &clauses {
                s.add_clause(c.iter().map(|&(v, positive)| vars[v].lit(positive)));
            }
            let expected = brute_force_sat(num_vars, &clauses);
            let got = s.solve(&[]);
            match (expected, got) {
                (true, SolveResult::Sat) => {
                    // The model must actually satisfy every clause.
                    for c in &clauses {
                        assert!(
                            c.iter()
                                .any(|&(v, positive)| s.value(vars[v]) == Some(positive)),
                            "round {round}: model violates clause {c:?}"
                        );
                    }
                }
                (false, SolveResult::Unsat) => {}
                other => panic!("round {round}: brute force vs solver disagree: {other:?}"),
            }
        }
    }

    /// One solver per random instance answers several calls under random
    /// assumptions, with clauses added between calls, so learnt clauses
    /// and their reasons carry over. Every SAT model satisfies the clauses
    /// and the assumptions; every UNSAT core is a subset of the
    /// assumptions that the clauses alone refute.
    #[test]
    fn incremental_solves_agree_with_brute_force() {
        let mut next = splitmix64(0x2545_f491_4f6c_dd1d);
        let (mut sat, mut unsat_with_core) = (0, 0);
        let mut conflicts = 0;
        for round in 0..200 {
            // Random 3-CNF grown past the satisfiability threshold, so
            // the later calls need real search and learnt clauses.
            let num_vars = 8 + (next() % 7) as usize; // 8..=14
            let mut s = Solver::new();
            let vars: Vec<_> = (0..num_vars).map(|_| s.new_var()).collect();
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for call in 0..6 {
                for _ in 0..next() % 24 {
                    let c = random_lits(&mut next, num_vars, 3);
                    s.add_clause(c.iter().map(|&(v, positive)| vars[v].lit(positive)));
                    clauses.push(c);
                }
                let num_assumed = (next() % 5) as usize;
                let assumed = random_lits(&mut next, num_vars, num_assumed);
                let assumptions: Vec<Lit> = assumed
                    .iter()
                    .map(|&(v, positive)| vars[v].lit(positive))
                    .collect();
                let with_units = |units: &[(usize, bool)]| {
                    let mut all = clauses.clone();
                    all.extend(units.iter().map(|&u| vec![u]));
                    all
                };
                let expected = brute_force_sat(num_vars, &with_units(&assumed));
                let at = format!("round {round}, call {call}");
                match s.solve(&assumptions) {
                    SolveResult::Sat => {
                        assert!(expected, "{at}: solver says SAT, brute force UNSAT");
                        for c in with_units(&assumed) {
                            assert!(
                                c.iter()
                                    .any(|&(v, positive)| s.value(vars[v]) == Some(positive)),
                                "{at}: model violates {c:?}"
                            );
                        }
                        sat += 1;
                    }
                    SolveResult::Unsat => {
                        assert!(!expected, "{at}: solver says UNSAT, brute force SAT");
                        let core: Vec<(usize, bool)> = s
                            .core()
                            .iter()
                            .map(|l| (l.var().index(), l.is_positive()))
                            .collect();
                        assert!(
                            core.iter().all(|l| assumed.contains(l)),
                            "{at}: core {core:?} is not within {assumed:?}"
                        );
                        assert!(
                            !brute_force_sat(num_vars, &with_units(&core)),
                            "{at}: core {core:?} is satisfiable with the clauses"
                        );
                        unsat_with_core += usize::from(!core.is_empty());
                    }
                    SolveResult::Unknown(e) => panic!("{at}: unlimited budget ran out: {e:?}"),
                }
            }
            conflicts += s.stats().conflicts;
        }
        // The stream exercises both answers and real conflict analysis.
        assert!(sat > 0 && unsat_with_core > 0 && conflicts > 0);
    }

    /// A 3-bit counter counting 0,1,2,… with a watchdog gate at value 5.
    fn counter3(target: u8) -> (Netlist, Vec<rfn_netlist::SignalId>, rfn_netlist::SignalId) {
        let mut n = Netlist::new("counter3");
        let b0 = n.add_register("b0", Some(false));
        let b1 = n.add_register("b1", Some(false));
        let b2 = n.add_register("b2", Some(false));
        let n0 = n.add_gate("n0", GateOp::Not, &[b0]);
        let n1 = n.add_gate("n1", GateOp::Xor, &[b1, b0]);
        let c01 = n.add_gate("c01", GateOp::And, &[b0, b1]);
        let n2 = n.add_gate("n2", GateOp::Xor, &[b2, c01]);
        n.set_register_next(b0, n0).unwrap();
        n.set_register_next(b1, n1).unwrap();
        n.set_register_next(b2, n2).unwrap();
        let bits = [b0, b1, b2];
        let fanins: Vec<_> = (0..3)
            .map(|i| {
                if target >> i & 1 == 1 {
                    bits[i]
                } else {
                    n.add_gate(&format!("inv{i}"), GateOp::Not, &[bits[i]])
                }
            })
            .collect();
        let bad = n.add_gate("bad", GateOp::And, &fanins);
        n.validate().unwrap();
        (n, bits.to_vec(), bad)
    }

    #[test]
    fn unrolled_counter_hits_target_at_exact_depth() {
        let (n, _, bad) = counter3(5);
        let mut solver = Solver::new();
        let mut unroller = Unroller::new(&n, &mut solver, [bad]).unwrap();
        let acts: Vec<Lit> = {
            unroller.ensure_frame(&mut solver, 0);
            unroller.activations().collect()
        };
        for t in 0..5 {
            unroller.ensure_frame(&mut solver, t);
            let mut assumptions = acts.clone();
            assumptions.push(unroller.term(t, bad).lit().expect("bad is not constant"));
            assert_eq!(solver.solve(&assumptions), SolveResult::Unsat, "depth {t}");
        }
        unroller.ensure_frame(&mut solver, 5);
        let mut assumptions = acts.clone();
        assumptions.push(unroller.term(5, bad).lit().unwrap());
        assert_eq!(solver.solve(&assumptions), SolveResult::Sat);
    }

    #[test]
    fn deactivated_registers_are_free_cut_points() {
        let (n, _, bad) = counter3(5);
        let mut solver = Solver::new();
        let mut unroller = Unroller::new(&n, &mut solver, [bad]).unwrap();
        unroller.ensure_frame(&mut solver, 0);
        // Abstract model (no activations assumed): registers are free, so
        // the target is hit at frame 0 already.
        let bad0 = unroller.term(0, bad).lit().unwrap();
        assert_eq!(solver.solve(&[bad0]), SolveResult::Sat);
        // The UNSAT core under all activations pins the culprit registers.
        let mut assumptions: Vec<Lit> = unroller.activations().collect();
        assumptions.push(bad0);
        assert_eq!(solver.solve(&assumptions), SolveResult::Unsat);
        assert!(!s_core_only_acts(&solver, bad0).is_empty());
    }

    fn s_core_only_acts(s: &Solver, bad: Lit) -> Vec<Lit> {
        s.core().iter().copied().filter(|&l| l != bad).collect()
    }

    #[test]
    fn constant_folding_collapses_constant_cones() {
        let mut n = Netlist::new("consts");
        let zero = n.add_const("zero", false);
        let i = n.add_input("i");
        let g = n.add_gate("g", GateOp::And, &[zero, i]);
        let r = n.add_register("r", Some(false));
        n.set_register_next(r, g).unwrap();
        let bad = n.add_gate("bad", GateOp::Or, &[r, g]);
        n.validate().unwrap();
        let mut solver = Solver::new();
        let mut unroller = Unroller::new(&n, &mut solver, [bad]).unwrap();
        unroller.ensure_frame(&mut solver, 1);
        // g is constant false; bad reduces to r alone.
        assert_eq!(unroller.term(0, g), Term::Const(false));
        assert_eq!(unroller.term(0, bad), unroller.term(0, r));
        // With the register activated, bad stays unreachable at both frames.
        let mut assumptions: Vec<Lit> = unroller.activations().collect();
        assumptions.push(unroller.term(1, bad).lit().unwrap());
        assert_eq!(solver.solve(&assumptions), SolveResult::Unsat);
    }
}
