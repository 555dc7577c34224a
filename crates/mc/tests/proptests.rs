//! Property tests: symbolic reachability against explicit-state enumeration.

use std::collections::HashSet;

use proptest::prelude::*;
use rfn_mc::{
    forward_reach, forward_reach_multi, ModelOptions, ModelSpec, ReachOptions, ReachVerdict,
    SymbolicModel,
};
use rfn_netlist::{Abstraction, Cube, GateOp, Netlist, SignalId};
use rfn_sim::Simulator;

fn arb_netlist(n_inputs: usize, n_regs: usize, n_gates: usize) -> impl Strategy<Value = Netlist> {
    let ops = prop::sample::select(vec![
        GateOp::And,
        GateOp::Or,
        GateOp::Xor,
        GateOp::Nand,
        GateOp::Nor,
        GateOp::Not,
    ]);
    let gates = prop::collection::vec((ops, any::<u32>(), any::<u32>()), n_gates);
    let nexts = prop::collection::vec(any::<u32>(), n_regs);
    (gates, nexts).prop_map(move |(gates, nexts)| {
        let mut n = Netlist::new("arb");
        let mut pool: Vec<SignalId> = Vec::new();
        for k in 0..n_inputs {
            pool.push(n.add_input(&format!("i{k}")));
        }
        let mut regs = Vec::new();
        for k in 0..n_regs {
            let r = n.add_register(&format!("r{k}"), Some(k % 2 == 0));
            pool.push(r);
            regs.push(r);
        }
        for (k, (op, a, b)) in gates.into_iter().enumerate() {
            let fa = pool[a as usize % pool.len()];
            let fb = pool[b as usize % pool.len()];
            let fanins: Vec<SignalId> = if matches!(op, GateOp::Not) {
                vec![fa]
            } else {
                vec![fa, fb]
            };
            pool.push(n.add_gate(&format!("g{k}"), op, &fanins));
        }
        for (k, nx) in nexts.into_iter().enumerate() {
            n.set_register_next(regs[k], pool[nx as usize % pool.len()])
                .unwrap();
        }
        n
    })
}

/// Explicit-state BFS over (register valuation) states using the simulator.
fn explicit_reachable(n: &Netlist) -> HashSet<u32> {
    let regs = n.registers().to_vec();
    let inputs = n.inputs().to_vec();
    let encode = |sim: &Simulator| -> u32 {
        regs.iter().enumerate().fold(0u32, |acc, (k, &r)| {
            acc | (u32::from(sim.value(r).to_bool().expect("binary")) << k)
        })
    };
    let decode_into = |sim: &mut Simulator, bits: u32| {
        for (k, &r) in regs.iter().enumerate() {
            sim.set(r, rfn_sim::Tv::from(bits & (1 << k) != 0));
        }
    };
    let mut sim = Simulator::new(n).unwrap();
    sim.reset();
    let start = encode(&sim);
    let mut seen: HashSet<u32> = [start].into_iter().collect();
    let mut frontier = vec![start];
    while let Some(state) = frontier.pop() {
        for ibits in 0..1u32 << inputs.len() {
            decode_into(&mut sim, state);
            let cube: Cube = inputs
                .iter()
                .enumerate()
                .map(|(k, &i)| (i, ibits & (1 << k) != 0))
                .collect();
            sim.step(&cube);
            let next = encode(&sim);
            if seen.insert(next) {
                frontier.push(next);
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The symbolic fixpoint's reached set equals explicit-state BFS.
    #[test]
    fn symbolic_equals_explicit(n in arb_netlist(2, 4, 12)) {
        let view = Abstraction::from_registers(n.registers().to_vec())
            .view(&n, [])
            .unwrap();
        let mut model = SymbolicModel::new(&n, ModelSpec::from_view(&view)).unwrap();
        let zero = model.manager_ref().zero();
        let result = forward_reach(&mut model, zero, &ReachOptions::default()).unwrap();
        prop_assert_eq!(result.verdict, ReachVerdict::FixpointProved);
        let explicit = explicit_reachable(&n);
        // Compare per concrete state.
        let regs = n.registers().to_vec();
        for bits in 0..1u32 << regs.len() {
            let cube: Cube = regs
                .iter()
                .enumerate()
                .map(|(k, &r)| (r, bits & (1 << k) != 0))
                .collect();
            let cb = model.cube_to_bdd(&cube).unwrap();
            let inter = model.manager().and(cb, result.reached).unwrap();
            let symbolic_in = inter != model.manager_ref().zero();
            prop_assert_eq!(symbolic_in, explicit.contains(&bits), "state {:04b}", bits);
        }
    }

    /// Target-hit depth from the symbolic engine matches explicit BFS depth.
    #[test]
    fn hit_depth_matches_bfs(n in arb_netlist(2, 3, 10), pick in any::<u32>()) {
        let explicit = explicit_reachable(&n);
        // Pick a reachable state as target.
        let all: Vec<u32> = {
            let mut v: Vec<u32> = explicit.iter().copied().collect();
            v.sort_unstable();
            v
        };
        let target_bits = all[pick as usize % all.len()];
        let regs = n.registers().to_vec();
        let cube: Cube = regs
            .iter()
            .enumerate()
            .map(|(k, &r)| (r, target_bits & (1 << k) != 0))
            .collect();

        // Explicit BFS depth.
        let inputs = n.inputs().to_vec();
        let mut sim = Simulator::new(&n).unwrap();
        sim.reset();
        let encode = |sim: &Simulator| -> u32 {
            regs.iter().enumerate().fold(0u32, |acc, (k, &r)| {
                acc | (u32::from(sim.value(r).to_bool().unwrap()) << k)
            })
        };
        let start = encode(&sim);
        let mut depth_of = std::collections::HashMap::new();
        depth_of.insert(start, 0usize);
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(s) = queue.pop_front() {
            let d = depth_of[&s];
            for ibits in 0..1u32 << inputs.len() {
                for (k, &r) in regs.iter().enumerate() {
                    sim.set(r, rfn_sim::Tv::from(s & (1 << k) != 0));
                }
                let icube: Cube = inputs
                    .iter()
                    .enumerate()
                    .map(|(k, &i)| (i, ibits & (1 << k) != 0))
                    .collect();
                sim.step(&icube);
                let nxt = encode(&sim);
                depth_of.entry(nxt).or_insert_with(|| {
                    queue.push_back(nxt);
                    d + 1
                });
            }
        }
        let expected_depth = depth_of[&target_bits];

        let view = Abstraction::from_registers(regs.clone()).view(&n, []).unwrap();
        let mut model = SymbolicModel::new(&n, ModelSpec::from_view(&view)).unwrap();
        let tb = model.cube_to_bdd(&cube).unwrap();
        let result = forward_reach(&mut model, tb, &ReachOptions::default()).unwrap();
        prop_assert_eq!(result.verdict, ReachVerdict::TargetHit { step: expected_depth });

        // One run over every register valuation at once: each is hit at its
        // explicit BFS depth, or proved if explicit BFS never reaches it.
        let mut model = SymbolicModel::new(&n, ModelSpec::from_view(&view)).unwrap();
        let targets: Vec<_> = (0..1u32 << regs.len())
            .map(|bits| {
                let cube: Cube = regs
                    .iter()
                    .enumerate()
                    .map(|(k, &r)| (r, bits & (1 << k) != 0))
                    .collect();
                model.cube_to_bdd(&cube).unwrap()
            })
            .collect();
        let multi = forward_reach_multi(&mut model, &targets, &ReachOptions::default()).unwrap();
        for (bits, &verdict) in (0u32..).zip(&multi.verdicts) {
            let expected = match depth_of.get(&bits) {
                Some(&step) => ReachVerdict::TargetHit { step },
                None => ReachVerdict::FixpointProved,
            };
            prop_assert_eq!(verdict, expected, "valuation {:#b}", bits);
        }
    }

    /// Clustered and linear relational products — with frontier minimization
    /// on and off — must produce identical reached sets and verdicts on
    /// random designs. Exercises the full cross-product of the new knobs.
    #[test]
    fn clustered_and_linear_reach_agree(n in arb_netlist(2, 4, 12)) {
        let view = Abstraction::from_registers(n.registers().to_vec())
            .view(&n, [])
            .unwrap();
        let spec = ModelSpec::from_view(&view);
        let configs = [
            (0usize, false),       // seed behavior: linear, no minimization
            (0, true),             // linear + frontier minimization
            (usize::MAX, false),   // one monolithic cluster
            (2500, true),          // defaults
        ];
        let mut baseline: Option<(ReachVerdict, Vec<f64>)> = None;
        for (limit, simplify) in configs {
            let mut model = SymbolicModel::with_options(
                &n,
                spec.clone(),
                rfn_bdd::BddManager::new(),
                ModelOptions {
                    cluster_limit: limit,
                    ..ModelOptions::default()
                },
            )
            .unwrap();
            let zero = model.manager_ref().zero();
            let opts = ReachOptions::default()
                .with_cluster_limit(limit)
                .with_frontier_simplify(simplify);
            let result = forward_reach(&mut model, zero, &opts).unwrap();
            let nv = model.manager_ref().num_vars();
            let mut counts = vec![model.manager().sat_count(result.reached, nv)];
            for &ring in &result.rings {
                counts.push(model.manager().sat_count(ring, nv));
            }
            match &baseline {
                None => baseline = Some((result.verdict, counts)),
                Some((v, c)) => {
                    prop_assert_eq!(&result.verdict, v, "limit={} simplify={}", limit, simplify);
                    prop_assert_eq!(&counts, c, "limit={} simplify={}", limit, simplify);
                }
            }
        }
    }

    /// The FORCE static pre-order is a pure performance knob: on random
    /// designs the seed order and the FORCE order must reach the identical
    /// verdict (including the hit step) and the identical reached-set and
    /// per-ring cardinalities. Node counts may differ — state sets may not.
    #[test]
    fn seed_and_force_orders_agree(n in arb_netlist(2, 4, 12), pick in any::<u32>()) {
        let view = Abstraction::from_registers(n.registers().to_vec())
            .view(&n, [])
            .unwrap();
        let spec = ModelSpec::from_view(&view);
        let regs = n.registers().to_vec();
        let target_sig = regs[pick as usize % regs.len()];
        let mut baseline: Option<(ReachVerdict, Vec<f64>)> = None;
        for order in [rfn_mc::StaticOrder::Seed, rfn_mc::StaticOrder::Force] {
            let mut model = SymbolicModel::with_options(
                &n,
                spec.clone(),
                rfn_bdd::BddManager::new(),
                ModelOptions {
                    static_order: order,
                    ..ModelOptions::default()
                },
            )
            .unwrap();
            let target = model.signal_bdd(target_sig).unwrap();
            let opts = ReachOptions::default().with_static_order(order);
            let result = forward_reach(&mut model, target, &opts).unwrap();
            let nv = model.manager_ref().num_vars();
            let mut counts = vec![model.manager().sat_count(result.reached, nv)];
            for &ring in &result.rings {
                counts.push(model.manager().sat_count(ring, nv));
            }
            match &baseline {
                None => baseline = Some((result.verdict, counts)),
                Some((v, c)) => {
                    prop_assert_eq!(&result.verdict, v, "order={:?}", order);
                    prop_assert_eq!(&counts, c, "order={:?}", order);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Cancelling the shared budget mid-fixpoint must leave the manager
    /// consistent: the protect log unwinds completely, garbage collection
    /// still works, and the *same* model re-runs the fixpoint to the correct
    /// verdict once the budget is lifted.
    #[test]
    fn cancellation_leaves_manager_consistent(n in arb_netlist(2, 4, 12)) {
        let view = Abstraction::from_registers(n.registers().to_vec())
            .view(&n, [])
            .unwrap();
        let mut model = SymbolicModel::new(&n, ModelSpec::from_view(&view)).unwrap();
        let zero = model.manager_ref().zero();
        let protected_before = model.manager_ref().num_protected();

        let budget = rfn_govern::Budget::unlimited();
        budget.cancel();
        let cancelled = ReachOptions::default().with_budget(budget);
        let result = forward_reach(&mut model, zero, &cancelled).unwrap();
        prop_assert_eq!(result.verdict, ReachVerdict::Aborted);
        prop_assert_eq!(result.abort, Some(rfn_mc::AbortReason::Cancelled));
        // Every protect the aborted run took was released again.
        prop_assert_eq!(model.manager_ref().num_protected(), protected_before);

        // The manager survives a collection (keeping the model's roots, as
        // any later operation would) and a fresh ungoverned fixpoint on the
        // same model succeeds.
        model.manager().clear_budget();
        let roots = model.persistent_roots();
        model.manager().gc(&roots);
        let rerun = forward_reach(&mut model, zero, &ReachOptions::default()).unwrap();
        prop_assert_eq!(rerun.verdict, ReachVerdict::FixpointProved);
    }
}
