//! Symbolic models: BDD encodings of abstract models and min-cut designs.

use std::collections::{BTreeSet, HashMap, HashSet};

use rfn_bdd::{Bdd, BddManager, BddResult, VarId};
use rfn_netlist::{force_order, AbstractView, Cube, MinCut, NetKind, Netlist, SignalId};

use crate::McError;

/// What a BDD variable stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarKind {
    /// Current-state value of a register.
    Current,
    /// Next-state value of a register.
    Next,
    /// A free input (true primary input, pseudo-input or min-cut signal).
    Input,
}

/// The circuit a [`SymbolicModel`] or [`TransitionRelation`] encodes:
/// registers keep their update logic expressed over the listed gates, and
/// `inputs` are unconstrained.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelSpec {
    /// State elements.
    pub registers: Vec<SignalId>,
    /// Free inputs of the model (everything the gates read that is neither a
    /// register, a gate of the model, nor a constant).
    pub inputs: Vec<SignalId>,
    /// Gates in topological order.
    pub gates: Vec<SignalId>,
}

impl ModelSpec {
    /// The specification of an abstract model `N`: its registers, its true
    /// and pseudo-inputs, and its gate cone.
    pub fn from_view(view: &AbstractView) -> Self {
        ModelSpec {
            registers: view.registers().to_vec(),
            inputs: view.free_inputs().collect(),
            gates: view.gates().to_vec(),
        }
    }

    /// The specification of a min-cut design `MC`: the same registers as the
    /// abstract model, with the cut signals as free inputs and only the gates
    /// on the free-cut side of the cut.
    pub fn from_min_cut(view: &AbstractView, mc: &MinCut) -> Self {
        ModelSpec {
            registers: view.registers().to_vec(),
            inputs: mc.cut_signals.clone(),
            gates: mc.gates.clone(),
        }
    }
}

/// Default node-count threshold for clustering transition partitions
/// (IWLS95-style partitioned transition relations).
pub const DEFAULT_CLUSTER_LIMIT: usize = 2500;

/// How a [`SymbolicModel`] chooses its initial BDD variable order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StaticOrder {
    /// Allocation order follows the specification: register `(current,
    /// next)` pairs in spec order, then free inputs as the gate evaluation
    /// encounters them. This reproduces the historical layout exactly.
    #[default]
    Seed,
    /// FORCE / center-of-gravity pre-ordering
    /// ([`rfn_netlist::force_order`]): registers and inputs are arranged by
    /// hypergraph span minimization over the next-state cone supports before
    /// any BDD node exists, so interacting variables start adjacent. Pairs
    /// stay interleaved; inputs are woven between them per the arrangement.
    Force,
}

impl StaticOrder {
    /// Parses a CLI spelling: `seed` or `force`.
    pub fn parse(s: &str) -> Result<StaticOrder, String> {
        match s {
            "seed" => Ok(StaticOrder::Seed),
            "force" => Ok(StaticOrder::Force),
            other => Err(format!(
                "unknown static order '{other}' (expected seed|force)"
            )),
        }
    }

    /// Canonical CLI spelling.
    pub fn describe(&self) -> &'static str {
        match self {
            StaticOrder::Seed => "seed",
            StaticOrder::Force => "force",
        }
    }
}

/// Construction-time tuning of a [`SymbolicModel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelOptions {
    /// Node-count threshold for clustering transition partitions: adjacent
    /// per-register partitions are conjoined while the conjunction stays at
    /// or below this many nodes. `0` keeps one partition per register (the
    /// linear schedule of the seed implementation).
    pub cluster_limit: usize,
    /// Initial variable-order strategy.
    pub static_order: StaticOrder,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            cluster_limit: DEFAULT_CLUSTER_LIMIT,
            static_order: StaticOrder::default(),
        }
    }
}

/// One step of a precomputed image schedule: conjoin `rel` into the
/// accumulated product (fused `and_exists`), quantifying `cube` — the
/// variables no later step mentions — immediately.
#[derive(Clone, Copy, Debug)]
struct ImageStep {
    rel: Bdd,
    cube: Bdd,
}

/// A precomputed early-quantification schedule over the clusters of a
/// [`TransitionRelation`], specific to one quantification set (post-images
/// quantify current-state and input variables, pre-images next-state
/// variables).
#[derive(Clone, Debug, Default)]
struct ImageSchedule {
    /// Clusters in IWLS95 benefit order with their quantification cubes.
    steps: Vec<ImageStep>,
    /// Cube of quantified variables mentioned by no cluster at all,
    /// quantified after the last conjunction; `None` when empty.
    residual: Option<Bdd>,
}

impl ImageSchedule {
    fn roots(&self) -> impl Iterator<Item = Bdd> + '_ {
        self.steps
            .iter()
            .flat_map(|s| [s.rel, s.cube])
            .chain(self.residual)
    }
}

/// A transition relation over a [`SymbolicModel`]'s variable space:
/// per-register partitions `next_r ↔ f_r`, their clustered form, and the
/// precomputed quantification schedules for early-quantified image
/// computation. Everything order-dependent is computed once at construction
/// — image calls only replay the schedule.
#[derive(Clone, Debug)]
pub struct TransitionRelation {
    parts: Vec<Bdd>,
    /// Input variables this relation's functions mention.
    input_vars: Vec<VarId>,
    /// Clustered partitions (conjunctions of `parts` up to the model's
    /// cluster limit), in original register order.
    clusters: Vec<Bdd>,
    /// Post-image schedule (∃ current-state ∪ input variables).
    post: ImageSchedule,
    /// Pre-image schedule (∃ next-state variables).
    pre: ImageSchedule,
    /// Cube of all input variables, for the plain pre-image.
    input_cube: Bdd,
}

impl TransitionRelation {
    /// The per-register partitions (one `next ↔ f` BDD per register).
    pub fn parts(&self) -> &[Bdd] {
        &self.parts
    }

    /// The clustered partitions the image schedules conjoin, in original
    /// register order (equal to [`TransitionRelation::parts`] when
    /// clustering is disabled).
    pub fn clusters(&self) -> &[Bdd] {
        &self.clusters
    }

    /// Number of clusters in the image schedules.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Input variables this relation's functions mention.
    pub fn input_vars(&self) -> &[VarId] {
        &self.input_vars
    }

    /// Roots to keep alive across garbage collection: partitions, clusters,
    /// and every precomputed quantification cube.
    pub fn roots(&self) -> impl Iterator<Item = Bdd> + '_ {
        self.parts
            .iter()
            .chain(self.clusters.iter())
            .copied()
            .chain(self.post.roots())
            .chain(self.pre.roots())
            .chain(std::iter::once(self.input_cube))
    }
}

/// A cube of a symbolic state set, translated back to netlist signals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StateCube {
    /// Literals over register outputs (current-state variables).
    pub state: Cube,
    /// Literals over free-input signals.
    pub inputs: Cube,
    /// Literals over next-state variables, as register outputs.
    pub next_state: Cube,
}

/// A BDD encoding of a [`ModelSpec`] plus the machinery for image
/// computation. Additional transition relations (e.g. a min-cut design's) can
/// be built in the same variable space with
/// [`SymbolicModel::build_transition`].
///
/// Variable layout: each register gets a `(current, next)` pair registered as
/// a sifting group so renaming stays valid under dynamic reordering; free
/// inputs get singleton variables on demand.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct SymbolicModel<'n> {
    netlist: &'n Netlist,
    spec: ModelSpec,
    mgr: BddManager,
    cur: HashMap<SignalId, VarId>,
    nxt: HashMap<SignalId, VarId>,
    inp: HashMap<SignalId, VarId>,
    signal_of_var: Vec<(SignalId, VarKind)>,
    trans: TransitionRelation,
    /// Cache of main-spec signal functions (over current-state + input vars).
    signal_cache: HashMap<SignalId, Bdd>,
    /// Cluster node threshold applied when building transition relations.
    cluster_limit: usize,
}

impl<'n> SymbolicModel<'n> {
    /// Builds the symbolic model of a specification.
    ///
    /// # Errors
    ///
    /// Fails if a gate of the spec reads a signal the spec does not define
    /// ([`McError::UnboundSignal`]) or if BDD construction exceeds the node
    /// limit.
    pub fn new(netlist: &'n Netlist, spec: ModelSpec) -> Result<Self, McError> {
        Self::with_manager(netlist, spec, BddManager::new())
    }

    /// Like [`SymbolicModel::new`] with a caller-configured manager (node
    /// limits, pre-seeded options).
    pub fn with_manager(
        netlist: &'n Netlist,
        spec: ModelSpec,
        mgr: BddManager,
    ) -> Result<Self, McError> {
        Self::with_options(netlist, spec, mgr, ModelOptions::default())
    }

    /// Like [`SymbolicModel::with_manager`] with explicit model options.
    pub fn with_options(
        netlist: &'n Netlist,
        spec: ModelSpec,
        mut mgr: BddManager,
        options: ModelOptions,
    ) -> Result<Self, McError> {
        let mut cur = HashMap::new();
        let mut nxt = HashMap::new();
        let mut inp = HashMap::new();
        let mut signal_of_var: Vec<(SignalId, VarKind)> = Vec::new();
        match options.static_order {
            StaticOrder::Seed => {
                for &r in &spec.registers {
                    let pair = mgr.new_var_group(2);
                    cur.insert(r, pair[0]);
                    nxt.insert(r, pair[1]);
                    signal_of_var.push((r, VarKind::Current));
                    signal_of_var.push((r, VarKind::Next));
                }
            }
            StaticOrder::Force => {
                // Allocate every element — register pairs and inputs alike —
                // in FORCE arrangement order, so the initial level order is
                // the computed linear arrangement. `eval_spec_gates` then
                // finds every input pre-allocated.
                let arranged = force_order(netlist, &spec.registers, &spec.inputs, &[]);
                let regs: HashSet<SignalId> = spec.registers.iter().copied().collect();
                for &s in &arranged {
                    if regs.contains(&s) {
                        let pair = mgr.new_var_group(2);
                        cur.insert(s, pair[0]);
                        nxt.insert(s, pair[1]);
                        signal_of_var.push((s, VarKind::Current));
                        signal_of_var.push((s, VarKind::Next));
                    } else {
                        let v = mgr.new_var();
                        inp.insert(s, v);
                        signal_of_var.push((s, VarKind::Input));
                    }
                }
            }
        }
        let one = mgr.one();
        let mut model = SymbolicModel {
            netlist,
            spec: spec.clone(),
            mgr,
            cur,
            nxt,
            inp,
            signal_of_var,
            trans: TransitionRelation {
                parts: Vec::new(),
                input_vars: Vec::new(),
                clusters: Vec::new(),
                post: ImageSchedule::default(),
                pre: ImageSchedule::default(),
                input_cube: one,
            },
            signal_cache: HashMap::new(),
            cluster_limit: options.cluster_limit,
        };
        // One gate evaluation serves both the transition relation and the
        // signal cache used for target construction.
        let cache = model.eval_spec_gates(&spec)?;
        model.trans = model.transition_from_cache(&spec, &cache)?;
        model.signal_cache = cache;
        Ok(model)
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// The model's specification.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The BDD manager (exposed for reordering, gc and cube analysis).
    pub fn manager(&mut self) -> &mut BddManager {
        &mut self.mgr
    }

    /// Immutable manager access.
    pub fn manager_ref(&self) -> &BddManager {
        &self.mgr
    }

    /// The main transition relation built from the model's spec.
    pub fn transition(&self) -> &TransitionRelation {
        &self.trans
    }

    /// The current-state variable of a register.
    pub fn current_var(&self, reg: SignalId) -> Option<VarId> {
        self.cur.get(&reg).copied()
    }

    /// The signal and role behind a variable.
    pub fn var_signal(&self, v: VarId) -> (SignalId, VarKind) {
        self.signal_of_var[v.index()]
    }

    /// The next-state variable of a register.
    pub fn next_var(&self, reg: SignalId) -> Option<VarId> {
        self.nxt.get(&reg).copied()
    }

    /// The variable of a free-input signal, if one has been allocated.
    pub fn try_input_var(&self, s: SignalId) -> Option<VarId> {
        self.inp.get(&s).copied()
    }

    /// The variable of a free-input signal, allocated on demand.
    pub fn input_var(&mut self, s: SignalId) -> VarId {
        if let Some(&v) = self.inp.get(&s) {
            return v;
        }
        let v = self.mgr.new_var();
        self.inp.insert(s, v);
        debug_assert_eq!(v.index(), self.signal_of_var.len());
        self.signal_of_var.push((s, VarKind::Input));
        v
    }

    /// Evaluates every gate of a spec into BDDs over current-state and input
    /// variables. Returns the cache keyed by signal.
    fn eval_spec_gates(&mut self, spec: &ModelSpec) -> Result<HashMap<SignalId, Bdd>, McError> {
        let mut cache: HashMap<SignalId, Bdd> = HashMap::new();
        for &r in &spec.registers {
            let v = self.cur[&r];
            cache.insert(r, self.mgr.var(v));
        }
        for &i in &spec.inputs {
            let v = self.input_var(i);
            cache.insert(i, self.mgr.var(v));
        }
        for &g in &spec.gates {
            let NetKind::Gate { op, fanins } = self.netlist.kind(g) else {
                return Err(McError::UnboundSignal(g));
            };
            let mut fanin_bdds = Vec::with_capacity(fanins.len());
            for &f in fanins {
                let b = match cache.get(&f) {
                    Some(&b) => b,
                    None => match self.netlist.kind(f) {
                        NetKind::Const(v) => {
                            if *v {
                                self.mgr.one()
                            } else {
                                self.mgr.zero()
                            }
                        }
                        _ => return Err(McError::UnboundSignal(f)),
                    },
                };
                fanin_bdds.push(b);
            }
            let b = self.apply_gate(*op, &fanin_bdds)?;
            cache.insert(g, b);
        }
        Ok(cache)
    }

    fn apply_gate(&mut self, op: rfn_netlist::GateOp, fanins: &[Bdd]) -> BddResult {
        use rfn_netlist::GateOp::*;
        let m = &mut self.mgr;
        match op {
            Buf => Ok(fanins[0]),
            Not => m.not(fanins[0]),
            And => m.and_many(fanins.iter().copied()),
            Nand => {
                let a = m.and_many(fanins.iter().copied())?;
                m.not(a)
            }
            Or => m.or_many(fanins.iter().copied()),
            Nor => {
                let a = m.or_many(fanins.iter().copied())?;
                m.not(a)
            }
            Xor => {
                let mut acc = m.zero();
                for &f in fanins {
                    acc = m.xor(acc, f)?;
                }
                Ok(acc)
            }
            Xnor => {
                let mut acc = m.zero();
                for &f in fanins {
                    acc = m.xor(acc, f)?;
                }
                m.not(acc)
            }
            Mux => m.ite(fanins[0], fanins[2], fanins[1]),
        }
    }

    /// Builds a transition relation for an alternative spec (e.g. a min-cut
    /// design) sharing this model's registers and variable space.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`SymbolicModel::new`]; additionally the spec
    /// must have exactly the same registers as the model.
    pub fn build_transition(&mut self, spec: &ModelSpec) -> Result<TransitionRelation, McError> {
        let cache = self.eval_spec_gates(spec)?;
        self.transition_from_cache(spec, &cache)
    }

    fn transition_from_cache(
        &mut self,
        spec: &ModelSpec,
        cache: &HashMap<SignalId, Bdd>,
    ) -> Result<TransitionRelation, McError> {
        let mut parts = Vec::with_capacity(spec.registers.len());
        for &r in &spec.registers {
            let next_sig = self.netlist.register_next(r);
            let f = match cache.get(&next_sig) {
                Some(&f) => f,
                None => match self.netlist.kind(next_sig) {
                    NetKind::Const(v) => {
                        if *v {
                            self.mgr.one()
                        } else {
                            self.mgr.zero()
                        }
                    }
                    _ => return Err(McError::UnboundSignal(next_sig)),
                },
            };
            let nv = *self.nxt.get(&r).ok_or(McError::UnboundSignal(r))?;
            let nvb = self.mgr.var(nv);
            let part = self.mgr.xnor(nvb, f)?;
            parts.push(part);
        }
        let input_vars: Vec<VarId> = spec.inputs.iter().map(|s| self.inp[s]).collect();
        self.finish_transition(parts, input_vars)
    }

    /// Clusters the partitions, precomputes both image schedules and the
    /// input cube, and assembles the finished relation.
    fn finish_transition(
        &mut self,
        parts: Vec<Bdd>,
        input_vars: Vec<VarId>,
    ) -> Result<TransitionRelation, McError> {
        let clusters = self.cluster_parts(&parts, self.cluster_limit)?;
        let mut post_quant: BTreeSet<VarId> = self.cur.values().copied().collect();
        post_quant.extend(input_vars.iter().copied());
        let pre_quant: BTreeSet<VarId> = self.nxt.values().copied().collect();
        let post = self.schedule(&clusters, &post_quant);
        let pre = self.schedule(&clusters, &pre_quant);
        let input_cube = self.mgr.var_cube(input_vars.iter().copied());
        Ok(TransitionRelation {
            parts,
            input_vars,
            clusters,
            post,
            pre,
            input_cube,
        })
    }

    /// Greedily conjoins adjacent per-register partitions while the
    /// conjunction stays at or below `limit` nodes (IWLS95-style
    /// clustering). `limit == 0` disables clustering.
    fn cluster_parts(&mut self, parts: &[Bdd], limit: usize) -> Result<Vec<Bdd>, McError> {
        if limit == 0 || parts.len() <= 1 {
            return Ok(parts.to_vec());
        }
        // Finished clusters and the unconsumed partition tail are held
        // across `and` calls where they are not operands; protect them from
        // the automatic collector.
        for &p in parts {
            self.mgr.protect(p);
        }
        let mut clusters: Vec<Bdd> = Vec::new();
        let result = (|| -> BddResult {
            let mut acc = parts[0];
            for &p in &parts[1..] {
                let joined = self.mgr.and(acc, p)?;
                if self.mgr.size(joined) <= limit {
                    acc = joined;
                } else {
                    self.mgr.protect(acc);
                    clusters.push(acc);
                    acc = p;
                }
            }
            self.mgr.protect(acc);
            clusters.push(acc);
            Ok(acc)
        })();
        for &p in parts {
            self.mgr.unprotect(p);
        }
        for &c in &clusters {
            self.mgr.unprotect(c);
        }
        result?;
        Ok(clusters)
    }

    /// Orders clusters by the IWLS95 benefit heuristic — a cluster scores by
    /// how many quantifiable variables it would release right now (it is
    /// their last unscheduled mention), tie-broken toward smaller supports —
    /// and precomputes the per-step quantification cubes.
    fn schedule(&mut self, clusters: &[Bdd], quant: &BTreeSet<VarId>) -> ImageSchedule {
        let supports: Vec<BTreeSet<VarId>> = clusters
            .iter()
            .map(|&c| self.mgr.support(c).into_iter().collect())
            .collect();
        // How many unscheduled clusters still mention each quantifiable var.
        let mut uses: HashMap<VarId, usize> = HashMap::new();
        for s in &supports {
            for &v in s {
                if quant.contains(&v) {
                    *uses.entry(v).or_insert(0) += 1;
                }
            }
        }
        let mut remaining: Vec<usize> = (0..clusters.len()).collect();
        let mut unquantified: BTreeSet<VarId> = quant.clone();
        let mut steps = Vec::with_capacity(clusters.len());
        while !remaining.is_empty() {
            let mut best_k = 0;
            let mut best_key = (isize::MIN, isize::MIN, std::cmp::Reverse(usize::MAX));
            for (k, &i) in remaining.iter().enumerate() {
                let released = supports[i]
                    .iter()
                    .filter(|v| uses.get(v) == Some(&1))
                    .count() as isize;
                let key = (
                    released,
                    -(supports[i].len() as isize),
                    std::cmp::Reverse(i),
                );
                if key > best_key {
                    best_key = key;
                    best_k = k;
                }
            }
            let i = remaining.remove(best_k);
            for v in &supports[i] {
                if let Some(n) = uses.get_mut(v) {
                    *n -= 1;
                }
            }
            // Quantify everything whose last mention was just scheduled —
            // plus, on the first step, variables no cluster mentions at all.
            let now: Vec<VarId> = unquantified
                .iter()
                .copied()
                .filter(|v| uses.get(v).is_none_or(|&n| n == 0))
                .collect();
            for v in &now {
                unquantified.remove(v);
            }
            let cube = self.mgr.var_cube(now);
            steps.push(ImageStep {
                rel: clusters[i],
                cube,
            });
        }
        let residual = if unquantified.is_empty() {
            None
        } else {
            Some(self.mgr.var_cube(unquantified))
        };
        ImageSchedule { steps, residual }
    }

    /// The function of a main-spec signal over current-state and input
    /// variables.
    ///
    /// # Errors
    ///
    /// Fails with [`McError::UnboundSignal`] if the signal is not part of the
    /// model. Constants are always available — they appear in no spec
    /// section (gate evaluation folds them into fanins), but a property may
    /// watch one directly.
    pub fn signal_bdd(&mut self, s: SignalId) -> Result<Bdd, McError> {
        if let Some(&b) = self.signal_cache.get(&s) {
            return Ok(b);
        }
        if let NetKind::Const(v) = self.netlist.kind(s) {
            let b = if *v { self.mgr.one() } else { self.mgr.zero() };
            self.signal_cache.insert(s, b);
            return Ok(b);
        }
        Err(McError::UnboundSignal(s))
    }

    /// The set of initial states: every register with a known reset value is
    /// constrained to it; unknown resets are free.
    pub fn init_states(&mut self) -> BddResult {
        let lits: Vec<(VarId, bool)> = self
            .spec
            .registers
            .iter()
            .filter_map(|&r| self.netlist.register_init(r).map(|v| (self.cur[&r], v)))
            .collect();
        Ok(self.mgr.cube(lits))
    }

    /// Converts a signal-level cube (over registers and inputs of the model)
    /// to a BDD over the corresponding variables.
    ///
    /// # Errors
    ///
    /// Fails with [`McError::UnboundSignal`] for signals with no variable.
    pub fn cube_to_bdd(&mut self, cube: &Cube) -> Result<Bdd, McError> {
        let mut lits = Vec::with_capacity(cube.len());
        for (s, v) in cube.iter() {
            let var = if let Some(&var) = self.cur.get(&s) {
                var
            } else if let Some(&var) = self.inp.get(&s) {
                var
            } else {
                return Err(McError::UnboundSignal(s));
            };
            lits.push((var, v));
        }
        Ok(self.mgr.cube(lits))
    }

    /// Translates a variable-level cube (from `pick_cube`/`shortest_cube`)
    /// back to netlist signals, partitioned by variable kind.
    pub fn cube_to_signals(&self, lits: &[(VarId, bool)]) -> StateCube {
        let mut out = StateCube::default();
        for &(v, val) in lits {
            let (s, kind) = self.signal_of_var[v.index()];
            let cube = match kind {
                VarKind::Current => &mut out.state,
                VarKind::Input => &mut out.inputs,
                VarKind::Next => &mut out.next_state,
            };
            cube.insert(s, val)
                .expect("variable cubes have unique variables");
        }
        out
    }

    /// Renames next-state variables to current-state variables.
    pub fn nxt_to_cur(&mut self, f: Bdd) -> BddResult {
        let map: Vec<(VarId, VarId)> = self
            .spec
            .registers
            .iter()
            .map(|r| (self.nxt[r], self.cur[r]))
            .collect();
        self.mgr.permute(f, &map)
    }

    /// Renames current-state variables to next-state variables.
    pub fn cur_to_nxt(&mut self, f: Bdd) -> BddResult {
        let map: Vec<(VarId, VarId)> = self
            .spec
            .registers
            .iter()
            .map(|r| (self.cur[r], self.nxt[r]))
            .collect();
        self.mgr.permute(f, &map)
    }

    /// Post-image under the model's main transition relation: the states
    /// reachable in one step from `q`. Replays the precomputed post
    /// schedule — no per-call cloning or support analysis.
    pub fn post_image(&mut self, q: Bdd) -> BddResult {
        let sched = std::mem::take(&mut self.trans.post);
        let img = self.image(&sched, q);
        self.trans.post = sched;
        self.nxt_to_cur(img?)
    }

    /// Post-image under an explicit transition relation.
    pub fn post_image_with(&mut self, trans: &TransitionRelation, q: Bdd) -> BddResult {
        let img = self.image(&trans.post, q)?;
        self.nxt_to_cur(img)
    }

    /// Pre-image under the model's main transition relation: the states that
    /// reach `q` in one step. Input variables are quantified away.
    pub fn pre_image(&mut self, q: Bdd) -> BddResult {
        let sched = std::mem::take(&mut self.trans.pre);
        let q_next = self.cur_to_nxt(q);
        let with_inputs = q_next.and_then(|qn| self.image(&sched, qn));
        self.trans.pre = sched;
        let input_cube = self.trans.input_cube;
        self.mgr.exists(with_inputs?, input_cube)
    }

    /// Pre-image that *keeps input variables alive*: the result ranges over
    /// current-state variables and the relation's input variables. The
    /// hybrid engine uses this on the min-cut design — the cut-signal
    /// literals of the result's cubes are exactly the paper's min-cut-cube
    /// content (Figure 1).
    pub fn pre_image_with_inputs(&mut self, trans: &TransitionRelation, q: Bdd) -> BddResult {
        let q_next = self.cur_to_nxt(q)?;
        self.image(&trans.pre, q_next)
    }

    /// Replays a precomputed early-quantification schedule: conjoin each
    /// cluster in benefit order with the fused `and_exists`, quantifying its
    /// cube immediately, then quantify the residual variables no cluster
    /// mentions.
    fn image(&mut self, sched: &ImageSchedule, q: Bdd) -> BddResult {
        // Pending clusters and cubes are held across earlier `and_exists`
        // calls where they are not operands; protect them from the automatic
        // collector. (The accumulator is always an operand of the next call.)
        for root in sched.roots() {
            self.mgr.protect(root);
        }
        let result = (|| -> BddResult {
            let mut acc = q;
            for s in &sched.steps {
                acc = self.mgr.and_exists(acc, s.rel, s.cube)?;
            }
            match sched.residual {
                Some(cube) => self.mgr.exists(acc, cube),
                None => Ok(acc),
            }
        })();
        for root in sched.roots() {
            self.mgr.unprotect(root);
        }
        result
    }

    /// Projects a state set onto the given register signals: every other
    /// variable in the support is quantified away.
    ///
    /// # Errors
    ///
    /// Fails with [`McError::UnboundSignal`] if a projection signal has no
    /// current-state variable.
    pub fn project_to(&mut self, f: Bdd, signals: &[SignalId]) -> Result<Bdd, McError> {
        let mut keep = BTreeSet::new();
        for &s in signals {
            let v = self.cur.get(&s).copied().ok_or(McError::UnboundSignal(s))?;
            keep.insert(v);
        }
        let drop: Vec<VarId> = self
            .mgr
            .support(f)
            .into_iter()
            .filter(|v| !keep.contains(v))
            .collect();
        let cube = self.mgr.var_cube(drop);
        Ok(self.mgr.exists(f, cube)?)
    }

    /// Roots that must survive garbage collection for the model to remain
    /// usable: transition partitions, clusters, precomputed quantification
    /// cubes, and cached signal functions.
    pub fn persistent_roots(&self) -> Vec<Bdd> {
        let mut roots: Vec<Bdd> = self.trans.roots().collect();
        roots.extend(self.signal_cache.values().copied());
        roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfn_netlist::{Abstraction, GateOp};

    /// 2-bit counter with carry.
    fn counter() -> (Netlist, SignalId, SignalId, SignalId) {
        let mut n = Netlist::new("c");
        let b0 = n.add_register("b0", Some(false));
        let b1 = n.add_register("b1", Some(false));
        let n0 = n.add_gate("n0", GateOp::Not, &[b0]);
        let n1 = n.add_gate("n1", GateOp::Xor, &[b0, b1]);
        let carry = n.add_gate("carry", GateOp::And, &[b0, b1]);
        n.set_register_next(b0, n0).unwrap();
        n.set_register_next(b1, n1).unwrap();
        n.validate().unwrap();
        (n, b0, b1, carry)
    }

    fn model_of<'n>(n: &'n Netlist, roots: &[SignalId]) -> SymbolicModel<'n> {
        let regs: Vec<SignalId> = n.registers().to_vec();
        let view = Abstraction::from_registers(regs)
            .view(n, roots.iter().copied())
            .unwrap();
        SymbolicModel::new(n, ModelSpec::from_view(&view)).unwrap()
    }

    #[test]
    fn init_states_follow_resets() {
        let (n, b0, _, carry) = counter();
        let mut m = model_of(&n, &[carry]);
        let init = m.init_states().unwrap();
        // Exactly one state over the two current-state vars (the manager
        // also holds the two next-state vars, which are free in `init`).
        let nv = m.manager_ref().num_vars();
        assert_eq!(m.manager().sat_count(init, nv), 4.0);
        let cube: Cube = [(b0, false)].into_iter().collect();
        let b = m.cube_to_bdd(&cube).unwrap();
        let conj = m.manager().and(init, b).unwrap();
        assert_eq!(conj, init);
    }

    #[test]
    fn post_image_steps_the_counter() {
        let (n, b0, b1, carry) = counter();
        let mut m = model_of(&n, &[carry]);
        let init = m.init_states().unwrap();
        let s1 = m.post_image(init).unwrap();
        // One successor: 01.
        let expect: Cube = [(b0, true), (b1, false)].into_iter().collect();
        let eb = m.cube_to_bdd(&expect).unwrap();
        assert_eq!(s1, eb);
        let s2 = m.post_image(s1).unwrap();
        let expect2: Cube = [(b0, false), (b1, true)].into_iter().collect();
        let eb2 = m.cube_to_bdd(&expect2).unwrap();
        assert_eq!(s2, eb2);
    }

    #[test]
    fn pre_image_inverts_post() {
        let (n, b0, b1, carry) = counter();
        let mut m = model_of(&n, &[carry]);
        // For the counter, the predecessor of 3 (b1=1,b0=1) is 2 (b1=1,b0=0):
        // b0' = ¬b0 forces b0=0, and b1' = b0⊕b1 with b0=0 forces b1=1.
        let c11: Cube = [(b0, true), (b1, true)].into_iter().collect();
        let b11 = m.cube_to_bdd(&c11).unwrap();
        let pre = m.pre_image(b11).unwrap();
        let expect: Cube = [(b0, false), (b1, true)].into_iter().collect();
        let be = m.cube_to_bdd(&expect).unwrap();
        assert_eq!(pre, be);
    }

    #[test]
    fn adjointness_of_images() {
        // post(Q) ∩ B ≠ ∅  ⇔  Q ∩ pre(B) ≠ ∅ on the counter for cube sets.
        let (n, b0, b1, carry) = counter();
        let mut m = model_of(&n, &[carry]);
        for qbits in 0..4u32 {
            for bbits in 0..4u32 {
                let q: Cube = [(b0, qbits & 1 == 1), (b1, qbits & 2 == 2)]
                    .into_iter()
                    .collect();
                let b: Cube = [(b0, bbits & 1 == 1), (b1, bbits & 2 == 2)]
                    .into_iter()
                    .collect();
                let qb = m.cube_to_bdd(&q).unwrap();
                let bb = m.cube_to_bdd(&b).unwrap();
                let post_q = m.post_image(qb).unwrap();
                let pre_b = m.pre_image(bb).unwrap();
                let lhs = m.manager().and(post_q, bb).unwrap() != m.manager_ref().zero();
                let rhs = m.manager().and(qb, pre_b).unwrap() != m.manager_ref().zero();
                assert_eq!(lhs, rhs, "q={qbits:02b} b={bbits:02b}");
            }
        }
    }

    #[test]
    fn signal_bdd_of_gate() {
        let (n, b0, b1, carry) = counter();
        let mut m = model_of(&n, &[carry]);
        let cb = m.signal_bdd(carry).unwrap();
        // carry == b0 ∧ b1.
        let c: Cube = [(b0, true), (b1, true)].into_iter().collect();
        let expect = m.cube_to_bdd(&c).unwrap();
        assert_eq!(cb, expect);
    }

    #[test]
    fn pre_image_with_inputs_keeps_input_literals() {
        // r' = r | i : pre(r=1) with inputs alive distinguishes i.
        let mut n = Netlist::new("d");
        let i = n.add_input("i");
        let r = n.add_register("r", Some(false));
        let g = n.add_gate("g", GateOp::Or, &[r, i]);
        n.set_register_next(r, g).unwrap();
        n.validate().unwrap();
        let mut m = model_of(&n, &[]);
        let target: Cube = [(r, true)].into_iter().collect();
        let tb = m.cube_to_bdd(&target).unwrap();
        let trans = m.transition().clone();
        let pre = m.pre_image_with_inputs(&trans, tb).unwrap();
        // pre = r=1 ∨ i=1 (over cur var of r and input var of i).
        let iv = m.input_var(i);
        let rv = m.current_var(r).unwrap();
        let ib = m.manager().var(iv);
        let rb = m.manager().var(rv);
        let expect = m.manager().or(ib, rb).unwrap();
        assert_eq!(pre, expect);
        // Quantifying inputs gives the plain pre-image: all states.
        let plain = m.pre_image(tb).unwrap();
        assert_eq!(plain, m.manager_ref().one());
    }

    #[test]
    fn project_to_drops_other_registers() {
        let (n, b0, b1, carry) = counter();
        let mut m = model_of(&n, &[carry]);
        let c: Cube = [(b0, true), (b1, false)].into_iter().collect();
        let f = m.cube_to_bdd(&c).unwrap();
        let p = m.project_to(f, &[b0]).unwrap();
        let expect_cube: Cube = [(b0, true)].into_iter().collect();
        let expect = m.cube_to_bdd(&expect_cube).unwrap();
        assert_eq!(p, expect);
    }

    #[test]
    fn cube_round_trip_through_signals() {
        let (n, b0, b1, carry) = counter();
        let mut m = model_of(&n, &[carry]);
        let c: Cube = [(b0, true), (b1, false)].into_iter().collect();
        let f = m.cube_to_bdd(&c).unwrap();
        let lits = m.manager_ref().pick_cube(f).unwrap();
        let sc = m.cube_to_signals(&lits);
        assert_eq!(sc.state, c);
        assert!(sc.inputs.is_empty());
        assert!(sc.next_state.is_empty());
    }

    #[test]
    fn mincut_transition_shares_register_vars() {
        // Funnel design: min-cut relation over the same state space.
        let mut n = Netlist::new("f");
        let inputs: Vec<_> = (0..4).map(|k| n.add_input(&format!("i{k}"))).collect();
        let funnel = n.add_gate("funnel", GateOp::Xor, &inputs);
        let r = n.add_register("r", Some(false));
        let upd = n.add_gate("upd", GateOp::Xor, &[r, funnel]);
        n.set_register_next(r, upd).unwrap();
        n.validate().unwrap();
        let view = Abstraction::from_registers([r]).view(&n, []).unwrap();
        let mcut = rfn_netlist::compute_min_cut(&n, &view);
        assert_eq!(mcut.cut_signals.len(), 1);
        let mut m = SymbolicModel::new(&n, ModelSpec::from_view(&view)).unwrap();
        let mc_spec = ModelSpec::from_min_cut(&view, &mcut);
        let mc_trans = m.build_transition(&mc_spec).unwrap();
        // Pre-image of r=1 on the min-cut design: r ⊕ cut = 1.
        let target: Cube = [(r, true)].into_iter().collect();
        let tb = m.cube_to_bdd(&target).unwrap();
        let pre = m.pre_image_with_inputs(&mc_trans, tb).unwrap();
        let cut_var = m.input_var(mcut.cut_signals[0]);
        let rv = m.current_var(r).unwrap();
        let cb = m.manager().var(cut_var);
        let rb = m.manager().var(rv);
        let expect = m.manager().xor(rb, cb).unwrap();
        assert_eq!(pre, expect);
    }

    #[test]
    fn clustered_and_linear_images_agree() {
        let (n, _, _, carry) = counter();
        let regs: Vec<SignalId> = n.registers().to_vec();
        let view = Abstraction::from_registers(regs).view(&n, [carry]).unwrap();
        let spec = ModelSpec::from_view(&view);
        let mut lin = SymbolicModel::with_options(
            &n,
            spec.clone(),
            rfn_bdd::BddManager::new(),
            ModelOptions {
                cluster_limit: 0,
                ..ModelOptions::default()
            },
        )
        .unwrap();
        let mut clu = SymbolicModel::new(&n, spec).unwrap();
        assert_eq!(lin.transition().num_clusters(), 2);
        assert_eq!(clu.transition().num_clusters(), 1);
        // Both models allocate variables in the same order, so sat counts
        // over the full variable space are directly comparable.
        let nv = lin.manager_ref().num_vars();
        let mut fl = lin.init_states().unwrap();
        let mut fc = clu.init_states().unwrap();
        for _ in 0..4 {
            fl = lin.post_image(fl).unwrap();
            fc = clu.post_image(fc).unwrap();
            assert_eq!(
                lin.manager().sat_count(fl, nv),
                clu.manager().sat_count(fc, nv)
            );
            let pl = lin.pre_image(fl).unwrap();
            let pc = clu.pre_image(fc).unwrap();
            assert_eq!(
                lin.manager().sat_count(pl, nv),
                clu.manager().sat_count(pc, nv)
            );
        }
    }
}
