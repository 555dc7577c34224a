//! Property tests: the BDD package against brute-force truth tables.

use proptest::prelude::*;
use rfn_bdd::{Bdd, BddManager, VarId};

/// A small random boolean expression over `nvars` variables.
#[derive(Clone, Debug)]
enum Expr {
    Var(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

fn arb_expr(nvars: usize) -> impl Strategy<Value = Expr> {
    let leaf = (0..nvars).prop_map(Expr::Var);
    leaf.prop_recursive(5, 48, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::Ite(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

impl Expr {
    fn eval(&self, asg: &[bool]) -> bool {
        match self {
            Expr::Var(i) => asg[*i],
            Expr::Not(a) => !a.eval(asg),
            Expr::And(a, b) => a.eval(asg) && b.eval(asg),
            Expr::Or(a, b) => a.eval(asg) || b.eval(asg),
            Expr::Xor(a, b) => a.eval(asg) ^ b.eval(asg),
            Expr::Ite(a, b, c) => {
                if a.eval(asg) {
                    b.eval(asg)
                } else {
                    c.eval(asg)
                }
            }
        }
    }

    fn build(&self, m: &mut BddManager, vars: &[VarId]) -> Bdd {
        match self {
            Expr::Var(i) => m.var(vars[*i]),
            Expr::Not(a) => {
                let fa = a.build(m, vars);
                m.not(fa).unwrap()
            }
            Expr::And(a, b) => {
                let fa = a.build(m, vars);
                let fb = b.build(m, vars);
                m.and(fa, fb).unwrap()
            }
            Expr::Or(a, b) => {
                let fa = a.build(m, vars);
                let fb = b.build(m, vars);
                m.or(fa, fb).unwrap()
            }
            Expr::Xor(a, b) => {
                let fa = a.build(m, vars);
                let fb = b.build(m, vars);
                m.xor(fa, fb).unwrap()
            }
            Expr::Ite(a, b, c) => {
                let fa = a.build(m, vars);
                let fb = b.build(m, vars);
                let fc = c.build(m, vars);
                m.ite(fa, fb, fc).unwrap()
            }
        }
    }
}

const NVARS: usize = 5;

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..1u32 << NVARS).map(|bits| (0..NVARS).map(|i| bits & (1 << i) != 0).collect())
}

/// Number of internal nodes reachable from `roots`.
fn reachable(m: &BddManager, roots: &[Bdd]) -> usize {
    let mut seen = std::collections::HashSet::new();
    let mut stack = roots.to_vec();
    while let Some(n) = stack.pop() {
        if let Some((_, lo, hi)) = m.node_info(n) {
            if seen.insert(n) {
                stack.extend([lo, hi]);
            }
        }
    }
    seen.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// BDD construction agrees with direct expression evaluation.
    #[test]
    fn bdd_matches_truth_table(e in arb_expr(NVARS)) {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..NVARS).map(|_| m.new_var()).collect();
        let f = e.build(&mut m, &vars);
        for asg in assignments() {
            prop_assert_eq!(m.eval(f, &asg), e.eval(&asg));
        }
    }

    /// Semantic equality implies handle equality (canonicity).
    #[test]
    fn canonical_forms(e in arb_expr(NVARS)) {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..NVARS).map(|_| m.new_var()).collect();
        let f = e.build(&mut m, &vars);
        // Rebuild through double negation; must be the identical node.
        let nf = m.not(f).unwrap();
        let nnf = m.not(nf).unwrap();
        prop_assert_eq!(f, nnf);
        // f xor f == 0, f xnor f == 1.
        prop_assert_eq!(m.xor(f, f).unwrap(), m.zero());
        prop_assert_eq!(m.xnor(f, f).unwrap(), m.one());
    }

    /// ∃x.f computed by the package equals f[x:=0] ∨ f[x:=1].
    #[test]
    fn exists_matches_shannon(e in arb_expr(NVARS), vi in 0..NVARS) {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..NVARS).map(|_| m.new_var()).collect();
        let f = e.build(&mut m, &vars);
        let quant = m.exists_one(f, vars[vi]).unwrap();
        let f0 = m.restrict(f, &[(vars[vi], false)]).unwrap();
        let f1 = m.restrict(f, &[(vars[vi], true)]).unwrap();
        let shannon = m.or(f0, f1).unwrap();
        prop_assert_eq!(quant, shannon);
    }

    /// and_exists(f, g, cube) == exists(and(f, g), cube) for random cubes.
    #[test]
    fn and_exists_is_fused_relational_product(
        e1 in arb_expr(NVARS),
        e2 in arb_expr(NVARS),
        mask in 0u32..(1 << NVARS),
    ) {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..NVARS).map(|_| m.new_var()).collect();
        let f = e1.build(&mut m, &vars);
        let g = e2.build(&mut m, &vars);
        let qvars: Vec<_> = (0..NVARS).filter(|i| mask & (1 << i) != 0).map(|i| vars[i]).collect();
        let cube = m.var_cube(qvars);
        let fused = m.and_exists(f, g, cube).unwrap();
        let conj = m.and(f, g).unwrap();
        let two_step = m.exists(conj, cube).unwrap();
        prop_assert_eq!(fused, two_step);
    }

    /// Sifting preserves semantics and the function survives gc + reorder.
    #[test]
    fn reordering_preserves_semantics(e in arb_expr(NVARS)) {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..NVARS).map(|_| m.new_var()).collect();
        let f = e.build(&mut m, &vars);
        let before: Vec<bool> = assignments().map(|a| m.eval(f, &a)).collect();
        m.sift_with_roots(&[f], 2.0);
        let after: Vec<bool> = assignments().map(|a| m.eval(f, &a)).collect();
        prop_assert_eq!(before, after);
    }

    /// A sift pass over random roots (one passed, one protected) and random
    /// garbage keeps every root's truth table, leaves a consistent manager
    /// and no garbage: the store holds exactly the nodes reachable from the
    /// roots and the protected set.
    #[test]
    fn sifting_keeps_roots_and_leaves_no_garbage(
        e1 in arb_expr(NVARS),
        e2 in arb_expr(NVARS),
        e3 in arb_expr(NVARS),
        growth_pct in 100u32..250,
    ) {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..NVARS).map(|_| m.new_var()).collect();
        let f = e1.build(&mut m, &vars);
        let g = e2.build(&mut m, &vars);
        let junk = e3.build(&mut m, &vars);
        let _ = m.xor(junk, f).unwrap();
        m.protect(g);
        let truth = |m: &BddManager, h: Bdd| -> Vec<bool> { assignments().map(|a| m.eval(h, &a)).collect() };
        let (before_f, before_g) = (truth(&m, f), truth(&m, g));
        m.sift_with_roots(&[f], f64::from(growth_pct) / 100.0);
        prop_assert_eq!(truth(&m, f), before_f);
        prop_assert_eq!(truth(&m, g), before_g);
        prop_assert_eq!(m.check_consistency(), Ok(()));
        prop_assert_eq!(m.num_nodes(), reachable(&m, &[f, g]));
    }

    /// set_order to an arbitrary permutation preserves semantics.
    #[test]
    fn arbitrary_order_preserves_semantics(e in arb_expr(NVARS), seed in any::<u64>()) {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..NVARS).map(|_| m.new_var()).collect();
        let f = e.build(&mut m, &vars);
        let before: Vec<bool> = assignments().map(|a| m.eval(f, &a)).collect();
        // Deterministic pseudo-random permutation from the seed.
        let mut perm: Vec<VarId> = vars.clone();
        let mut s = seed | 1;
        for i in (1..perm.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        m.set_order(&perm);
        prop_assert_eq!(m.current_order(), perm);
        let after: Vec<bool> = assignments().map(|a| m.eval(f, &a)).collect();
        prop_assert_eq!(before, after);
    }

    /// The shortest cube is an implicant of f and is minimal among all BDD
    /// path cubes (the semantics of CUDD's Cudd_ShortestPath, which the
    /// paper's prototype used for its "fattest cube" selection).
    #[test]
    fn shortest_cube_minimal_path_implicant(e in arb_expr(NVARS)) {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..NVARS).map(|_| m.new_var()).collect();
        let f = e.build(&mut m, &vars);
        match m.shortest_cube(f) {
            None => {
                prop_assert_eq!(f, m.zero());
            }
            Some(cube) => {
                // Implicant: every completion satisfies f.
                for asg in assignments() {
                    let consistent = cube.iter().all(|&(v, val)| asg[v.index()] == val);
                    if consistent {
                        prop_assert!(m.eval(f, &asg));
                    }
                }
                // Path minimality: no enumerated path cube is shorter.
                let min_path = m.cubes(f, usize::MAX).into_iter()
                    .map(|c| c.len())
                    .min()
                    .expect("f is satisfiable");
                prop_assert_eq!(cube.len(), min_path);
            }
        }
    }

    /// Losing operation-cache entries can never change results: the same
    /// expression built under the default cache, a tiny (maximally
    /// colliding) 64-slot cache and a fully disabled cache produces
    /// identical truth tables.
    #[test]
    fn lossy_caches_do_not_change_results(e in arb_expr(NVARS)) {
        let mut tables: Vec<Vec<bool>> = Vec::new();
        for capacity in [usize::MAX, 64, 0] {
            let mut m = BddManager::new();
            if capacity != usize::MAX {
                m.set_cache_capacity(capacity);
            }
            let vars: Vec<_> = (0..NVARS).map(|_| m.new_var()).collect();
            let f = e.build(&mut m, &vars);
            tables.push(assignments().map(|a| m.eval(f, &a)).collect());
        }
        prop_assert_eq!(&tables[0], &tables[1]);
        prop_assert_eq!(&tables[0], &tables[2]);
    }

    /// Quantification (plain and fused) under a tiny lossy cache agrees with
    /// the memo-free evaluation of the same operations.
    #[test]
    fn lossy_caches_do_not_change_quantification(
        e1 in arb_expr(NVARS),
        e2 in arb_expr(NVARS),
        mask in 0u32..(1 << NVARS),
    ) {
        let mut tables: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
        for capacity in [64usize, 0] {
            let mut m = BddManager::new();
            m.set_cache_capacity(capacity);
            let vars: Vec<_> = (0..NVARS).map(|_| m.new_var()).collect();
            let f = e1.build(&mut m, &vars);
            let g = e2.build(&mut m, &vars);
            let qvars: Vec<_> = (0..NVARS)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| vars[i])
                .collect();
            let cube = m.var_cube(qvars);
            let ex = m.exists(f, cube).unwrap();
            let andex = m.and_exists(f, g, cube).unwrap();
            tables.push((
                assignments().map(|a| m.eval(ex, &a)).collect(),
                assignments().map(|a| m.eval(andex, &a)).collect(),
            ));
        }
        prop_assert_eq!(&tables[0].0, &tables[1].0);
        prop_assert_eq!(&tables[0].1, &tables[1].1);
    }

    /// Coudert–Madre laws: both care-set operators agree with `f` on the
    /// care set (`f∧c == op(f,c)∧c`), are the identity on `c = 1`, and the
    /// sibling-substitution restrict never grows the support beyond `f`'s.
    #[test]
    fn constrain_and_restrict_laws(e1 in arb_expr(NVARS), e2 in arb_expr(NVARS)) {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..NVARS).map(|_| m.new_var()).collect();
        let f = e1.build(&mut m, &vars);
        let c = e2.build(&mut m, &vars);
        let fc = m.and(f, c).unwrap();

        let con = m.constrain(f, c).unwrap();
        let con_c = m.and(con, c).unwrap();
        prop_assert_eq!(con_c, fc, "f∧c != constrain(f,c)∧c");

        let res = m.gc_restrict(f, c).unwrap();
        let res_c = m.and(res, c).unwrap();
        prop_assert_eq!(res_c, fc, "f∧c != gc_restrict(f,c)∧c");

        // Support containment: restrict never mentions variables f doesn't.
        let fsup = m.support(f);
        for v in m.support(res) {
            prop_assert!(fsup.contains(&v), "gc_restrict gained variable {}", v);
        }

        // Identity on the trivial care set.
        let one = m.one();
        prop_assert_eq!(m.constrain(f, one).unwrap(), f);
        prop_assert_eq!(m.gc_restrict(f, one).unwrap(), f);
    }

    /// The care-set operators survive a tiny lossy cache unchanged: results
    /// are canonical nodes, so cache evictions can only cost time.
    #[test]
    fn care_ops_survive_lossy_caches(e1 in arb_expr(NVARS), e2 in arb_expr(NVARS)) {
        let mut tables: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
        for capacity in [64usize, 0] {
            let mut m = BddManager::new();
            m.set_cache_capacity(capacity);
            let vars: Vec<_> = (0..NVARS).map(|_| m.new_var()).collect();
            let f = e1.build(&mut m, &vars);
            let c = e2.build(&mut m, &vars);
            let con = m.constrain(f, c).unwrap();
            let res = m.gc_restrict(f, c).unwrap();
            tables.push((
                assignments().map(|a| m.eval(con, &a)).collect(),
                assignments().map(|a| m.eval(res, &a)).collect(),
            ));
        }
        prop_assert_eq!(&tables[0].0, &tables[1].0);
        prop_assert_eq!(&tables[0].1, &tables[1].1);
    }

    /// sat_count equals brute-force model counting.
    #[test]
    fn sat_count_matches_enumeration(e in arb_expr(NVARS)) {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..NVARS).map(|_| m.new_var()).collect();
        let f = e.build(&mut m, &vars);
        let expected = assignments().filter(|a| m.eval(f, a)).count() as f64;
        prop_assert_eq!(m.sat_count(f, NVARS), expected);
    }

    /// Every cube from `cubes` satisfies f, and together they cover f exactly.
    #[test]
    fn cube_enumeration_partitions_f(e in arb_expr(NVARS)) {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..NVARS).map(|_| m.new_var()).collect();
        let f = e.build(&mut m, &vars);
        let cubes = m.cubes(f, usize::MAX);
        for asg in assignments() {
            let covered = cubes.iter().any(|c| c.iter().all(|&(v, val)| asg[v.index()] == val));
            prop_assert_eq!(covered, m.eval(f, &asg));
        }
    }
}
