//! Whole-cache dataflow analysis (rule family `F..`).
//!
//! The other four passes prove each fragment correct *in isolation*. This
//! pass reasons about fragment **seams**: an abstract interpretation over
//! each fragment's instruction stream produces a def/use/liveness summary
//! ([`FragmentSummary`]), a chain graph reconstructed from the installed
//! cache ([`ChainGraph`]) connects the summaries, and a worklist solver
//! ([`solve_liveness`]) propagates GPR liveness backwards across resolved
//! chain edges. On top of those artifacts sit six rules:
//!
//! * **F01** — dead cross-fragment global communication: every source
//!   value the dataflow analysis classified as *global* must reach its
//!   architected register somewhere in the fragment (copy-to-GPR in the
//!   basic form, destination specifier in the modified form).
//! * **F02** — illegitimate copy-in: every `copy-from-GPR` must read a
//!   register the source program actually supplies at that point — a
//!   superblock live-in or a register some earlier source value defines.
//! * **F03** — accumulator live range crossing a seam: accumulators are
//!   fragment-local (the paper's strands never span superblocks), so no
//!   instruction may read its accumulator before a write to it inside the
//!   same fragment.
//! * **F04** — exit-arm integrity: statically, every patchable exit must
//!   name a legitimate continuation V-address of the source superblock
//!   and every exit arm must be reachable from the fragment entry; over
//!   the installed cache, every resolved branch must land on the fragment
//!   translated from the V-address recorded for that exit at install time
//!   ([`ildp_core::Fragment::exit_varms`]) — which catches links patched
//!   to a *wrong but valid* fragment entry, invisible to the `C..` rules.
//! * **F05** — dual-RAS seam discipline: RAS pushes appear only under the
//!   dual-RAS chaining policy, and a resolved push's I-side return
//!   address must be the entry of the fragment translated from its V-side
//!   return address (pure push-edge cycles are *not* flagged: two calls
//!   inside one loop legitimately produce a cycle of return-continuation
//!   fragments, see DESIGN.md §10).
//! * **F06** — summary/dynamic-trace mismatch: facts observed from a
//!   retired-instruction trace (operand names, accumulator usage, seam
//!   classification, runtime accumulator live ranges) must agree with the
//!   static summary of the installed code.
//! * **F07** — region backedge discipline: a merged *region* fragment
//!   ([`ildp_core::Fragment::is_region`]) closes its loop only at its
//!   final block's end, so an **unconditional** resolved or patchable
//!   branch back to the region's own entry may only be the fragment's
//!   last exit arm. An interior unconditional arm targeting the head is
//!   a malformed merge: the region would re-enter its own entry
//!   mid-body, double-counting iterations and skipping the tail blocks.
//!
//! The liveness solution itself never produces violations — at every exit
//! the solver cannot see past (dispatch, indirect jumps, unresolved
//! exits) it assumes **all registers live**, so its only outputs are the
//! conservative per-seam *optimization opportunity* counts in
//! [`FlowReport`]: provably dead copy-outs and redundant copy-out/copy-in
//! pairs across resolved seams, the facts region re-formation (ROADMAP
//! item 5) will consume.

use std::collections::HashMap;
use std::fmt;

use crate::Violation;
use alpha_isa::Reg;
use ildp_core::{
    ChainPolicy, CollectedFlow, Fragment, FragmentId, SbEnd, Superblock, TranslatedCode,
    TranslationCache, DISPATCH_IADDR,
};
use ildp_isa::{Acc, IInst, ITarget};
use ildp_uarch::DynInst;

/// A set of general-purpose registers, as a 32-bit mask (the Alpha has 32
/// integer registers; `r31` reads as zero and is excluded from liveness
/// reasoning by the rule implementations, not by the set itself).
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct RegSet(pub u32);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);
    /// Every register — the conservative "anything may be live" value
    /// used past analysis boundaries.
    pub const ALL: RegSet = RegSet(u32::MAX);

    /// Inserts a register.
    pub fn insert(&mut self, r: Reg) {
        self.0 |= 1 << r.number();
    }

    /// Removes a register.
    pub fn remove(&mut self, r: Reg) {
        self.0 &= !(1 << r.number());
    }

    /// Whether the set contains `r`.
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1 << r.number()) != 0
    }

    /// Set union.
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: RegSet) -> RegSet {
        RegSet(self.0 & other.0)
    }

    /// Members of `self` not in `other`.
    pub fn minus(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }

    /// Number of registers in the set.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates the members in register order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        (0..32u8)
            .filter(move |&n| self.0 & (1 << n) != 0)
            .map(Reg::new)
    }
}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// How one exit arm of a fragment transfers control.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExitKind {
    /// Unconditional transfer (patched or patchable).
    Branch,
    /// Conditional side exit (patched or patchable).
    CondBranch,
    /// A dual-RAS push naming the return continuation.
    RasPush,
    /// A transfer the static analysis cannot see past: dispatch, an
    /// indirect jump, or the machine halting.
    Boundary,
}

/// One control-flow exit of a fragment.
#[derive(Clone, Copy, Debug)]
pub struct ExitArm {
    /// Index of the exit instruction within the fragment.
    pub index: u32,
    /// Transfer kind.
    pub kind: ExitKind,
    /// The V-address this exit was emitted for, when known (embedded in
    /// patchable exits; preserved for patched ones by
    /// [`ildp_core::Fragment::exit_varms`]).
    pub vtarget: Option<u64>,
    /// The resolved I-address target, for patched exits. The dispatch
    /// address is represented as `None` (it is a [`ExitKind::Boundary`]).
    pub itarget: Option<u64>,
}

/// Per-fragment def/use/liveness summary — the abstract-interpretation
/// artifact every `F..` rule and the seam report are computed from.
#[derive(Clone, Debug)]
pub struct FragmentSummary {
    /// Entry V-address of the summarized fragment.
    pub vstart: u64,
    /// GPRs read before any local definition (the fragment's live-ins).
    pub uses: RegSet,
    /// GPRs the fragment defines.
    pub defs: RegSet,
    /// `copy-from-GPR` sites: `(instruction index, source register)`.
    pub copy_ins: Vec<(u32, Reg)>,
    /// `copy-to-GPR` sites: `(instruction index, destination register)`.
    pub copy_outs: Vec<(u32, Reg)>,
    /// Accumulator reads not preceded by a write to the same accumulator
    /// within the fragment (each is an F03 witness).
    pub acc_read_before_write: Vec<(u32, Acc)>,
    /// Every control-flow exit, in instruction order.
    pub exits: Vec<ExitArm>,
}

impl FragmentSummary {
    /// Source registers of copy-ins that read fragment live-in state (the
    /// candidates a predecessor's copy-out could feed directly).
    pub fn seam_copy_in_regs(&self) -> RegSet {
        let mut out = RegSet::EMPTY;
        for &(_, r) in &self.copy_ins {
            if self.uses.contains(r) {
                out.insert(r);
            }
        }
        out
    }
}

/// Summarizes one instruction stream by linear abstract interpretation.
///
/// `exit_varms`, when given (installed fragments), supplies the recorded
/// V-targets of patched exits; for freshly-emitted code the embedded
/// targets in the instructions themselves are used.
pub fn summarize(
    vstart: u64,
    insts: &[IInst],
    exit_varms: Option<&[Option<u64>]>,
) -> FragmentSummary {
    let mut s = FragmentSummary {
        vstart,
        uses: RegSet::EMPTY,
        defs: RegSet::EMPTY,
        copy_ins: Vec::new(),
        copy_outs: Vec::new(),
        acc_read_before_write: Vec::new(),
        exits: Vec::new(),
    };
    let mut acc_written = [false; Acc::MAX_ACCUMULATORS];
    for (k, inst) in insts.iter().enumerate() {
        let idx = k as u32;
        for r in inst.gpr_reads().into_iter().flatten() {
            if !s.defs.contains(r) {
                s.uses.insert(r);
            }
        }
        if let Some(w) = inst.gpr_write() {
            s.defs.insert(w);
        }
        match *inst {
            IInst::CopyFromGpr { src, .. } => s.copy_ins.push((idx, src)),
            IInst::CopyToGpr { dst, .. } => s.copy_outs.push((idx, dst)),
            _ => {}
        }
        if inst.reads_acc() {
            if let Some(a) = inst.acc() {
                if !acc_written[a.index()] {
                    s.acc_read_before_write.push((idx, a));
                }
            }
        }
        if inst.writes_acc() {
            if let Some(a) = inst.acc() {
                acc_written[a.index()] = true;
            }
        }
        let recorded_v = exit_varms.and_then(|m| m.get(k).copied().flatten());
        let arm = match *inst {
            IInst::CallTranslator { vtarget } => Some(ExitArm {
                index: idx,
                kind: ExitKind::Branch,
                vtarget: Some(vtarget),
                itarget: None,
            }),
            IInst::CallTranslatorIfCond { vtarget, .. } => Some(ExitArm {
                index: idx,
                kind: ExitKind::CondBranch,
                vtarget: Some(vtarget),
                itarget: None,
            }),
            IInst::Branch { target } | IInst::CondBranch { target, .. } => {
                let kind = if matches!(inst, IInst::Branch { .. }) {
                    ExitKind::Branch
                } else {
                    ExitKind::CondBranch
                };
                match target {
                    // Local targets are internal control flow, not seams.
                    ITarget::Local(_) => None,
                    ITarget::Addr(a) if a == DISPATCH_IADDR => Some(ExitArm {
                        index: idx,
                        kind: ExitKind::Boundary,
                        vtarget: recorded_v,
                        itarget: None,
                    }),
                    ITarget::Addr(a) => Some(ExitArm {
                        index: idx,
                        kind,
                        vtarget: recorded_v,
                        itarget: Some(a),
                    }),
                }
            }
            IInst::PushDualRas { vret, iret } => Some(ExitArm {
                index: idx,
                kind: ExitKind::RasPush,
                vtarget: Some(vret),
                itarget: match iret {
                    ITarget::Addr(a) if a != DISPATCH_IADDR => Some(a),
                    _ => None,
                },
            }),
            IInst::IndirectJump { .. } | IInst::Dispatch { .. } | IInst::Halt => Some(ExitArm {
                index: idx,
                kind: ExitKind::Boundary,
                vtarget: None,
                itarget: None,
            }),
            _ => None,
        };
        s.exits.extend(arm);
    }
    s
}

/// Summarizes an installed fragment (recorded exit V-targets included).
pub fn summarize_fragment(frag: &Fragment) -> FragmentSummary {
    summarize(frag.vstart, &frag.insts, Some(&frag.exit_varms))
}

/// The cross-fragment chain graph reconstructed from an installed cache:
/// one node per live fragment, one edge per resolved branch or dual-RAS
/// push landing on another fragment's entry.
#[derive(Clone, Debug, Default)]
pub struct ChainGraph {
    /// Successors of each fragment (resolved edges only, deduplicated).
    pub succs: HashMap<FragmentId, Vec<FragmentId>>,
    /// Fragments with at least one exit the analysis cannot see past
    /// (dispatch, indirect jump, halt, or an unresolved patchable exit).
    pub boundary: HashMap<FragmentId, bool>,
    /// Total resolved seam edges.
    pub resolved_edges: usize,
    /// Total boundary/unresolved exits.
    pub boundary_exits: usize,
}

impl ChainGraph {
    /// Builds the graph from fragment summaries against the cache's
    /// entry-point map.
    pub fn from_cache(
        cache: &TranslationCache,
        summaries: &HashMap<FragmentId, FragmentSummary>,
    ) -> ChainGraph {
        let mut g = ChainGraph::default();
        for (&id, summary) in summaries {
            let succs: &mut Vec<FragmentId> = g.succs.entry(id).or_default();
            let mut boundary = false;
            for arm in &summary.exits {
                match arm.itarget.and_then(|a| cache.lookup_iaddr(a)) {
                    Some(target) => {
                        if !succs.contains(&target) {
                            succs.push(target);
                        }
                        g.resolved_edges += 1;
                    }
                    None => {
                        boundary = true;
                        g.boundary_exits += 1;
                    }
                }
            }
            g.boundary.insert(id, boundary);
        }
        g
    }
}

/// Worklist solver: backward GPR liveness over the chain graph.
///
/// `live_in(F) = uses(F) ∪ (live_out(F) \ defs(F))` with
/// `live_out(F) = ALL` for any fragment with a boundary exit, else the
/// union of its successors' live-ins. Returns each fragment's live-in
/// set; the transfer function is monotone over a finite lattice, so the
/// iteration reaches a fixpoint.
pub fn solve_liveness(
    summaries: &HashMap<FragmentId, FragmentSummary>,
    graph: &ChainGraph,
) -> HashMap<FragmentId, RegSet> {
    let mut live_in: HashMap<FragmentId, RegSet> =
        summaries.iter().map(|(&id, s)| (id, s.uses)).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (&id, summary) in summaries {
            let out = live_out_of(id, graph, &live_in);
            let new = summary.uses.union(out.minus(summary.defs));
            let cur = live_in.get_mut(&id).expect("seeded above");
            if new != *cur {
                *cur = new;
                changed = true;
            }
        }
    }
    live_in
}

/// A fragment's live-out set under the current live-in solution.
fn live_out_of(
    id: FragmentId,
    graph: &ChainGraph,
    live_in: &HashMap<FragmentId, RegSet>,
) -> RegSet {
    if graph.boundary.get(&id).copied().unwrap_or(true) {
        return RegSet::ALL;
    }
    let mut out = RegSet::EMPTY;
    for succ in graph.succs.get(&id).into_iter().flatten() {
        out = out.union(live_in.get(succ).copied().unwrap_or(RegSet::ALL));
    }
    out
}

/// Machine-readable per-seam optimization-opportunity report — the facts
/// a region re-formation tier would consume (ROADMAP item 5). All counts
/// are conservative under-approximations: a copy is only called dead when
/// every path from it stays inside the resolved chain graph and redefines
/// the register before any use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowReport {
    /// Live fragments analyzed.
    pub fragments: u64,
    /// Resolved seam edges in the chain graph.
    pub resolved_edges: u64,
    /// Exits the analysis treated as all-live boundaries.
    pub boundary_exits: u64,
    /// Static `copy-from-GPR` instructions across the cache.
    pub copy_ins: u64,
    /// Static `copy-to-GPR` instructions across the cache.
    pub copy_outs: u64,
    /// Copy-outs whose destination register is provably dead at the copy.
    pub dead_copy_outs: u64,
    /// `(predecessor copy-out, successor copy-in)` pairs of the same
    /// register across a resolved branch seam — communication region
    /// re-formation could keep in an accumulator.
    pub redundant_seam_pairs: u64,
    /// Installed merged-region fragments
    /// ([`ildp_core::Fragment::is_region`]) in the analyzed cache.
    pub region_fragments: u64,
}

impl FlowReport {
    /// Adds every count of `other` into `self`.
    pub fn merge(&mut self, other: &FlowReport) {
        self.fragments += other.fragments;
        self.resolved_edges += other.resolved_edges;
        self.boundary_exits += other.boundary_exits;
        self.copy_ins += other.copy_ins;
        self.copy_outs += other.copy_outs;
        self.dead_copy_outs += other.dead_copy_outs;
        self.redundant_seam_pairs += other.redundant_seam_pairs;
        self.region_fragments += other.region_fragments;
    }

    /// Renders the counts as a JSON object fragment (no surrounding
    /// braces), for embedding in the lint/perfstat reports.
    pub fn json_fields(&self) -> String {
        format!(
            "\"fragments\":{},\"resolved_edges\":{},\"boundary_exits\":{},\
             \"copy_ins\":{},\"copy_outs\":{},\"dead_copy_outs\":{},\
             \"redundant_seam_pairs\":{},\"region_fragments\":{}",
            self.fragments,
            self.resolved_edges,
            self.boundary_exits,
            self.copy_ins,
            self.copy_outs,
            self.dead_copy_outs,
            self.redundant_seam_pairs,
            self.region_fragments,
        )
    }
}

fn zero_reg(r: Reg) -> bool {
    r.number() == 31
}

/// Pre-install flow checks (rules F01–F04) over one freshly-emitted
/// translation, against the source superblock and the translator's
/// recorded dataflow analysis.
pub fn check_translation(
    sb: &Superblock,
    code: &TranslatedCode,
    out: &mut Vec<Violation>,
) -> FragmentSummary {
    let summary = summarize(code.vstart, &code.insts, None);

    // F01: every global value must reach its architected register.
    for v in &code.trace.df.values {
        if !v.category.is_global() {
            continue;
        }
        let Some(r) = v.reg else { continue };
        if zero_reg(r) {
            continue;
        }
        if !summary.defs.contains(r) {
            out.push(Violation::new(
                "F01",
                code.vstart,
                None,
                format!(
                    "global {:?} value to be communicated through {r}",
                    v.category
                ),
                format!("no instruction in the fragment defines {r}"),
            ));
        }
    }

    // F02: copy-ins must read registers the source program supplies:
    // superblock live-ins or registers earlier source values define.
    let mut supplied = RegSet::EMPTY;
    for &r in &code.trace.df.live_ins {
        supplied.insert(r);
    }
    for v in &code.trace.df.values {
        if let Some(r) = v.reg {
            supplied.insert(r);
        }
    }
    for &(idx, src) in &summary.copy_ins {
        if zero_reg(src) {
            continue;
        }
        if !supplied.contains(src) {
            out.push(Violation::new(
                "F02",
                code.vstart,
                Some(idx as usize),
                "copy-from-GPR of a register the source program supplies",
                format!("{src} is neither live-in nor defined by any source value"),
            ));
        }
    }

    // F03: accumulator live ranges must not cross the fragment entry.
    check_acc_seams(&summary, out);

    // F04 (static): exit arms target legitimate continuations and are
    // reachable from the fragment entry.
    let legit = legitimate_continuations(sb);
    for arm in &summary.exits {
        if let Some(vt) = arm.vtarget {
            if !legit.contains(&vt) {
                out.push(Violation::new(
                    "F04",
                    code.vstart,
                    Some(arm.index as usize),
                    "an exit arm targeting a continuation V-address of the superblock",
                    format!("exit targets {vt:#x}, not a collected continuation"),
                ));
            }
        }
    }
    for idx in unreachable_exit_arms(&code.insts, &summary) {
        out.push(Violation::new(
            "F04",
            code.vstart,
            Some(idx as usize),
            "every exit arm reachable from the fragment entry",
            "exit arm is unreachable (follows a terminal transfer)",
        ));
    }
    summary
}

/// F03 check shared by the static and whole-cache passes.
fn check_acc_seams(summary: &FragmentSummary, out: &mut Vec<Violation>) {
    for &(idx, a) in &summary.acc_read_before_write {
        out.push(Violation::new(
            "F03",
            summary.vstart,
            Some(idx as usize),
            format!("{a} written inside the fragment before any read"),
            format!("{a} read at inst {idx} would observe a value from across a seam"),
        ));
    }
}

/// The V-addresses at which a translation of `sb` may legitimately
/// continue: collected branch targets and fall-throughs, call-return
/// continuations (the instruction after any source instruction), the
/// block's ending continuations, and the entry itself (self-loops).
fn legitimate_continuations(sb: &Superblock) -> std::collections::HashSet<u64> {
    let mut legit = std::collections::HashSet::new();
    legit.insert(sb.start);
    for si in &sb.insts {
        legit.insert(si.vaddr + 4);
        match si.flow {
            CollectedFlow::CondNotTaken { taken_target } => {
                legit.insert(taken_target);
            }
            CollectedFlow::CondTaken {
                taken_target,
                fallthrough,
            } => {
                legit.insert(taken_target);
                legit.insert(fallthrough);
            }
            CollectedFlow::Direct { target, .. } => {
                legit.insert(target);
            }
            CollectedFlow::Indirect { target, .. } => {
                legit.insert(target);
            }
            CollectedFlow::Sequential => {}
        }
    }
    match sb.end {
        SbEnd::BackwardTakenBranch {
            target,
            fallthrough,
        } => {
            legit.insert(target);
            legit.insert(fallthrough);
        }
        SbEnd::Cycle { next } | SbEnd::MaxSize { next } => {
            legit.insert(next);
        }
        SbEnd::IndirectJump | SbEnd::Halt => {}
    }
    legit
}

/// Exit arms not reachable from instruction 0 by fall-through and local
/// branches.
fn unreachable_exit_arms(insts: &[IInst], summary: &FragmentSummary) -> Vec<u32> {
    let n = insts.len();
    let mut reachable = vec![false; n];
    let mut work = vec![0usize];
    while let Some(k) = work.pop() {
        if k >= n || reachable[k] {
            continue;
        }
        reachable[k] = true;
        let inst = &insts[k];
        if !inst.is_terminal() {
            work.push(k + 1);
        }
        if let Some(ITarget::Local(t)) = inst.branch_itarget() {
            work.push(t as usize);
        }
    }
    summary
        .exits
        .iter()
        .filter(|arm| !reachable[arm.index as usize])
        .map(|arm| arm.index)
        .collect()
}

/// Whole-cache flow audit: re-summarizes every installed fragment, checks
/// the install-time rules that survive patching (F03), the resolved-link
/// V/I agreement rules (F04, F05), runs the worklist liveness solver, and
/// computes the seam opportunity report.
///
/// `policy` enables the policy-dependent half of F05 (pushes only under
/// dual-RAS chaining); pass `None` when the cache mixes policies or the
/// caller does not know it.
pub fn check_cache(
    cache: &TranslationCache,
    policy: Option<ChainPolicy>,
) -> (Vec<Violation>, FlowReport) {
    let mut out = Vec::new();
    let summaries: HashMap<FragmentId, FragmentSummary> = cache
        .fragments()
        .map(|f| (f.id, summarize_fragment(f)))
        .collect();

    for (&id, summary) in &summaries {
        check_acc_seams(summary, &mut out);
        let frag = cache.fragment(id);
        if frag.is_region {
            check_region_backedge(frag.vstart, summary, &mut out);
        }
        for arm in &summary.exits {
            let target = arm.itarget.and_then(|a| cache.lookup_iaddr(a));
            match arm.kind {
                ExitKind::Branch | ExitKind::CondBranch => {
                    // F04 (installed): a resolved branch must land on the
                    // fragment translated from the recorded exit V-target.
                    if let (Some(vt), Some(tid)) = (arm.vtarget, target) {
                        let tv = cache.fragment(tid).vstart;
                        if tv != vt {
                            out.push(Violation::new(
                                "F04",
                                frag.vstart,
                                Some(arm.index as usize),
                                format!("link to the fragment translated from {vt:#x}"),
                                format!("branch lands on the fragment for {tv:#x}"),
                            ));
                        }
                    }
                }
                ExitKind::RasPush => {
                    if let Some(p) = policy {
                        if !p.uses_dual_ras() {
                            out.push(Violation::new(
                                "F05",
                                frag.vstart,
                                Some(arm.index as usize),
                                format!("no dual-RAS pushes under {}", p.label()),
                                "fragment pushes a dual-RAS pair",
                            ));
                        }
                    }
                    if let (Some(vret), Some(tid)) = (arm.vtarget, target) {
                        let tv = cache.fragment(tid).vstart;
                        if tv != vret {
                            out.push(Violation::new(
                                "F05",
                                frag.vstart,
                                Some(arm.index as usize),
                                format!("I-side return address of the fragment for {vret:#x}"),
                                format!("push resolves to the fragment for {tv:#x}"),
                            ));
                        }
                    }
                }
                ExitKind::Boundary => {}
            }
        }
    }

    let graph = ChainGraph::from_cache(cache, &summaries);
    let live_in = solve_liveness(&summaries, &graph);
    let report = seam_report(cache, &summaries, &graph, &live_in);
    (out, report)
}

/// F07: an unconditional branch back to a region's own entry may only be
/// the fragment's final exit arm (the merged loop closes at the last
/// block's end; see the module docs).
fn check_region_backedge(vstart: u64, summary: &FragmentSummary, out: &mut Vec<Violation>) {
    let Some(last) = summary.exits.last().map(|a| a.index) else {
        return;
    };
    for arm in &summary.exits {
        if arm.kind == ExitKind::Branch && arm.vtarget == Some(vstart) && arm.index < last {
            out.push(Violation::new(
                "F07",
                vstart,
                Some(arm.index as usize),
                "region backedge to the entry only as the final exit arm",
                format!(
                    "interior unconditional arm at inst {} re-enters the region head",
                    arm.index
                ),
            ));
        }
    }
}

/// One region the flow analysis recommends for re-formation: a maximal
/// chain of distinct non-region fragments connected by resolved seam
/// edges, following the hottest successor at every step (profile-guided
/// selection on the verifier side, mirroring the VM's superblock walk).
#[derive(Clone, Debug)]
pub struct RegionCandidate {
    /// Entry V-address of the chain head.
    pub head: u64,
    /// Member entry V-addresses, head first, in walk order.
    pub members: Vec<u64>,
    /// Whether the last member's hottest edge returns to the head.
    pub closes_loop: bool,
    /// Redundant copy-out/copy-in pairs across the chain's interior
    /// seams — the copy traffic a merge would erase.
    pub seam_pairs: u64,
}

/// Flow-driven region selection over an installed cache: from each
/// fragment (hottest heads first) walks resolved chain edges picking the
/// highest-entry-count successor, stopping at boundaries, revisits,
/// already-claimed fragments, installed regions, or `max_blocks`.
/// Returns only multi-fragment candidates. Deterministic: ties break
/// toward the lower entry V-address.
pub fn select_regions(cache: &TranslationCache, max_blocks: usize) -> Vec<RegionCandidate> {
    let summaries: HashMap<FragmentId, FragmentSummary> = cache
        .fragments()
        .filter(|f| !f.is_region)
        .map(|f| (f.id, summarize_fragment(f)))
        .collect();
    let mut heads: Vec<FragmentId> = summaries.keys().copied().collect();
    heads.sort_by_key(|&id| {
        let f = cache.fragment(id);
        (std::cmp::Reverse(f.entries), f.vstart)
    });
    let mut claimed: std::collections::HashSet<FragmentId> = std::collections::HashSet::new();
    let mut out = Vec::new();
    for head in heads {
        if claimed.contains(&head) {
            continue;
        }
        let head_v = cache.fragment(head).vstart;
        let mut members = vec![head];
        let mut closes_loop = false;
        let mut cur = head;
        while members.len() < max_blocks {
            let next = hottest_successor(cache, &summaries, cur);
            match next {
                Some(n) if n == head => {
                    closes_loop = true;
                    break;
                }
                Some(n) if !members.contains(&n) && !claimed.contains(&n) => {
                    members.push(n);
                    cur = n;
                }
                _ => break,
            }
        }
        if members.len() < 2 {
            continue;
        }
        let mut seam_pairs = 0u64;
        for pair in members.windows(2) {
            let (a, b) = (&summaries[&pair[0]], &summaries[&pair[1]]);
            let mut outs = RegSet::EMPTY;
            for &(_, r) in &a.copy_outs {
                outs.insert(r);
            }
            seam_pairs += outs.intersect(b.seam_copy_in_regs()).len() as u64;
        }
        claimed.extend(members.iter().copied());
        out.push(RegionCandidate {
            head: head_v,
            members: members
                .iter()
                .map(|&id| cache.fragment(id).vstart)
                .collect(),
            closes_loop,
            seam_pairs,
        });
    }
    out
}

/// The resolved successor of `id` with the highest entry count (ties
/// toward the lower V-address); `None` when no exit arm resolves.
fn hottest_successor(
    cache: &TranslationCache,
    summaries: &HashMap<FragmentId, FragmentSummary>,
    id: FragmentId,
) -> Option<FragmentId> {
    let summary = summaries.get(&id)?;
    let mut best: Option<FragmentId> = None;
    for arm in &summary.exits {
        let Some(tid) = arm.itarget.and_then(|a| cache.lookup_iaddr(a)) else {
            continue;
        };
        if !summaries.contains_key(&tid) {
            continue; // installed region: not a re-formation member
        }
        let better = match best {
            None => true,
            Some(b) => {
                let (bf, tf) = (cache.fragment(b), cache.fragment(tid));
                (tf.entries, std::cmp::Reverse(tf.vstart))
                    > (bf.entries, std::cmp::Reverse(bf.vstart))
            }
        };
        if better {
            best = Some(tid);
        }
    }
    best
}

/// Computes the per-seam opportunity counts from the liveness solution.
fn seam_report(
    cache: &TranslationCache,
    summaries: &HashMap<FragmentId, FragmentSummary>,
    graph: &ChainGraph,
    live_in: &HashMap<FragmentId, RegSet>,
) -> FlowReport {
    let mut report = FlowReport {
        fragments: summaries.len() as u64,
        resolved_edges: graph.resolved_edges as u64,
        boundary_exits: graph.boundary_exits as u64,
        ..FlowReport::default()
    };
    for (&id, summary) in summaries {
        if cache.fragment(id).is_region {
            report.region_fragments += 1;
        }
        report.copy_ins += summary.copy_ins.len() as u64;
        report.copy_outs += summary.copy_outs.len() as u64;
        report.dead_copy_outs += dead_copy_outs(cache, id, summary, live_in);
        // Redundant seam pairs: this fragment's copy-outs feeding a
        // successor's live-in copy-ins across a resolved branch edge.
        let mut copy_out_regs = RegSet::EMPTY;
        for &(_, r) in &summary.copy_outs {
            copy_out_regs.insert(r);
        }
        if copy_out_regs.is_empty() {
            continue;
        }
        for arm in &summary.exits {
            if !matches!(arm.kind, ExitKind::Branch | ExitKind::CondBranch) {
                continue;
            }
            let Some(tid) = arm.itarget.and_then(|a| cache.lookup_iaddr(a)) else {
                continue;
            };
            if let Some(succ) = summaries.get(&tid) {
                report.redundant_seam_pairs +=
                    copy_out_regs.intersect(succ.seam_copy_in_regs()).len() as u64;
            }
        }
    }
    report
}

/// Counts copy-outs in one fragment whose destination is dead at the copy
/// — a precise backward scan from the fragment's exits, merging each side
/// exit's target liveness at the exit instruction.
fn dead_copy_outs(
    cache: &TranslationCache,
    id: FragmentId,
    summary: &FragmentSummary,
    live_in: &HashMap<FragmentId, RegSet>,
) -> u64 {
    if summary.copy_outs.is_empty() {
        return 0;
    }
    let frag = cache.fragment(id);
    let mut exit_live: HashMap<u32, RegSet> = HashMap::new();
    for arm in &summary.exits {
        let live = match arm.itarget.and_then(|a| cache.lookup_iaddr(a)) {
            Some(tid) => live_in.get(&tid).copied().unwrap_or(RegSet::ALL),
            None => RegSet::ALL,
        };
        exit_live
            .entry(arm.index)
            .and_modify(|l| *l = l.union(live))
            .or_insert(live);
    }
    let mut dead = 0u64;
    let mut live = RegSet::EMPTY;
    for (k, inst) in frag.insts.iter().enumerate().rev() {
        if let Some(extra) = exit_live.get(&(k as u32)) {
            live = live.union(*extra);
        }
        if let IInst::CopyToGpr { dst, .. } = *inst {
            if !live.contains(dst) {
                dead += 1;
            }
        }
        if let Some(w) = inst.gpr_write() {
            live.remove(w);
        }
        for r in inst.gpr_reads().into_iter().flatten() {
            live.insert(r);
        }
    }
    dead
}

/// F06: checks a retired-instruction trace against the static summaries
/// of the installed code.
///
/// Every retired record whose PC maps into a live fragment must agree
/// with the instruction installed there on operand names, accumulator
/// usage, and seam classification; and at runtime no instruction may read
/// an accumulator that has not been written since the current fragment
/// was entered (the dynamic form of F03). Reports at most one violation
/// per (fragment, instruction) pair so a hot loop cannot flood the
/// report.
pub fn check_dynamic(cache: &TranslationCache, trace: &[DynInst]) -> Vec<Violation> {
    let mut out = Vec::new();
    // PC → (fragment, instruction index) over the live cache.
    let mut by_pc: HashMap<u64, (FragmentId, u32)> = HashMap::new();
    for f in cache.fragments() {
        for (k, &pc) in f.iaddrs.iter().enumerate() {
            by_pc.insert(pc, (f.id, k as u32));
        }
    }
    let mut reported: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    let mut acc_written = [false; Acc::MAX_ACCUMULATORS];
    let mut current: Option<FragmentId> = None;
    for d in trace {
        let Some(&(fid, k)) = by_pc.get(&d.pc) else {
            // Outside the live cache: dispatch, interpreter, or an
            // invalidated fragment. Any seam resets the accumulator
            // tracking conservatively.
            current = None;
            continue;
        };
        let frag = cache.fragment(fid);
        if current != Some(fid) || d.pc == frag.istart {
            // Fragment entry: accumulators are dead across seams.
            acc_written = [false; Acc::MAX_ACCUMULATORS];
            current = Some(fid);
        }
        let inst = &frag.insts[k as usize];
        if let Some(msg) = record_mismatch(d, inst, frag.meta[k as usize].is_chain) {
            if reported.insert((fid.0, k)) {
                out.push(Violation::new(
                    "F06",
                    frag.vstart,
                    Some(k as usize),
                    "retired record agreeing with the installed instruction's summary",
                    msg,
                ));
            }
        }
        if d.acc_read {
            if let Some(a) = d.acc {
                if !acc_written[a as usize] && reported.insert((fid.0, k | 0x8000_0000)) {
                    out.push(Violation::new(
                        "F06",
                        frag.vstart,
                        Some(k as usize),
                        format!("A{a} written since fragment entry before this read"),
                        "runtime accumulator read crossed a fragment seam",
                    ));
                }
            }
        }
        if d.acc_write {
            if let Some(a) = d.acc {
                acc_written[a as usize] = true;
            }
        }
    }
    out
}

/// Compares one retired record against the static facts of the installed
/// instruction. Returns a description of the first disagreement.
fn record_mismatch(d: &DynInst, inst: &IInst, is_chain: bool) -> Option<String> {
    let static_reads: Vec<u8> = inst
        .gpr_reads()
        .into_iter()
        .flatten()
        .map(|r| r.number())
        .collect();
    let dyn_reads: Vec<u8> = d.srcs.iter().flatten().copied().collect();
    if static_reads != dyn_reads {
        return Some(format!(
            "retired sources {dyn_reads:?} vs installed sources {static_reads:?}"
        ));
    }
    let static_dst = inst.gpr_write().map(|r| r.number());
    if d.dst != static_dst {
        return Some(format!(
            "retired destination {:?} vs installed destination {static_dst:?}",
            d.dst
        ));
    }
    let uses_acc = inst.reads_acc() || inst.writes_acc();
    let static_acc = if uses_acc {
        inst.acc().map(|a| a.number())
    } else {
        None
    };
    if d.acc != static_acc {
        return Some(format!(
            "retired accumulator {:?} vs installed accumulator {static_acc:?}",
            d.acc
        ));
    }
    if d.acc_read != inst.reads_acc() || d.acc_write != inst.writes_acc() {
        return Some(format!(
            "retired acc r/w {}/{} vs installed {}/{}",
            d.acc_read,
            d.acc_write,
            inst.reads_acc(),
            inst.writes_acc()
        ));
    }
    if d.is_chain != is_chain {
        return Some(format!(
            "retired seam classification {} vs installed {is_chain}",
            d.is_chain
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ildp_core::IMeta;
    use ildp_isa::{ASrc, IsaForm, MemWidth};
    use std::collections::HashMap as Map;

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    fn a(n: u8) -> Acc {
        Acc::new(n)
    }

    fn meta_for(insts: &[IInst], vaddr: u64) -> Vec<IMeta> {
        insts.iter().map(|_| IMeta::chain(vaddr)).collect()
    }

    #[test]
    fn summary_defs_uses_and_copies() {
        let insts = vec![
            IInst::SetVpcBase { vaddr: 0x1000 },
            IInst::CopyFromGpr {
                acc: a(0),
                src: r(2),
            },
            IInst::Op {
                op: alpha_isa::OperateOp::Addq,
                acc: a(0),
                lhs: ASrc::Acc,
                rhs: ASrc::Imm(1),
                dst: None,
            },
            IInst::CopyToGpr {
                acc: a(0),
                dst: r(3),
            },
            IInst::CallTranslator { vtarget: 0x2000 },
        ];
        let s = summarize(0x1000, &insts, None);
        assert!(s.uses.contains(r(2)));
        assert!(s.defs.contains(r(3)));
        assert_eq!(s.copy_ins, vec![(1, r(2))]);
        assert_eq!(s.copy_outs, vec![(3, r(3))]);
        assert!(s.acc_read_before_write.is_empty());
        assert_eq!(s.exits.len(), 1);
        assert_eq!(s.exits[0].vtarget, Some(0x2000));
    }

    #[test]
    fn acc_read_before_write_is_witnessed() {
        let insts = vec![IInst::CopyToGpr {
            acc: a(1),
            dst: r(4),
        }];
        let s = summarize(0x1000, &insts, None);
        assert_eq!(s.acc_read_before_write, vec![(0, a(1))]);
        let mut out = Vec::new();
        check_acc_seams(&s, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "F03");
    }

    #[test]
    fn liveness_propagates_across_resolved_seams() {
        // A: defines r3, branches to B. B: uses r3, halts (boundary).
        let mut cache = TranslationCache::new();
        let a_insts = vec![
            IInst::SetVpcBase { vaddr: 0x1000 },
            IInst::Op {
                op: alpha_isa::OperateOp::Addq,
                acc: a(0),
                lhs: ASrc::Imm(1),
                rhs: ASrc::Imm(1),
                dst: None,
            },
            IInst::CopyToGpr {
                acc: a(0),
                dst: r(3),
            },
            IInst::CallTranslator { vtarget: 0x2000 },
        ];
        let b_insts = vec![
            IInst::SetVpcBase { vaddr: 0x2000 },
            IInst::CopyFromGpr {
                acc: a(0),
                src: r(3),
            },
            IInst::Halt,
        ];
        let am = meta_for(&a_insts, 0x1000);
        let bm = meta_for(&b_insts, 0x2000);
        let aid = cache.install(0x1000, IsaForm::Basic, a_insts, am, 1, Map::new());
        let bid = cache.install(0x2000, IsaForm::Basic, b_insts, bm, 1, Map::new());
        let summaries: HashMap<FragmentId, FragmentSummary> = cache
            .fragments()
            .map(|f| (f.id, summarize_fragment(f)))
            .collect();
        let graph = ChainGraph::from_cache(&cache, &summaries);
        assert_eq!(graph.succs[&aid], vec![bid]);
        let live = solve_liveness(&summaries, &graph);
        // B halts: boundary, so everything is live into B and r3 is
        // genuinely consumed.
        assert!(live[&bid].contains(r(3)));
        // F03 is clean on both; the A->B copy-out is NOT dead.
        let (violations, report) = check_cache(&cache, None);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(report.fragments, 2);
        assert_eq!(report.resolved_edges, 1);
        assert_eq!(report.dead_copy_outs, 0);
        assert_eq!(report.redundant_seam_pairs, 1);
    }

    #[test]
    fn dead_copy_out_is_counted_not_flagged() {
        // A copies to r5; its only successor B immediately overwrites r5
        // without reading it and halts... but B halting is a boundary, so
        // the copy stays live. Use a B that loops to itself forever
        // instead: B redefines r5, reads nothing, branches to B.
        let mut cache = TranslationCache::new();
        let a_insts = vec![
            IInst::SetVpcBase { vaddr: 0x1000 },
            IInst::Op {
                op: alpha_isa::OperateOp::Addq,
                acc: a(0),
                lhs: ASrc::Imm(1),
                rhs: ASrc::Imm(1),
                dst: None,
            },
            IInst::CopyToGpr {
                acc: a(0),
                dst: r(5),
            },
            IInst::CallTranslator { vtarget: 0x2000 },
        ];
        let b_insts = vec![
            IInst::SetVpcBase { vaddr: 0x2000 },
            IInst::Op {
                op: alpha_isa::OperateOp::Addq,
                acc: a(0),
                lhs: ASrc::Imm(1),
                rhs: ASrc::Imm(1),
                dst: Some(r(5)),
            },
            IInst::CallTranslator { vtarget: 0x2000 },
        ];
        let am = meta_for(&a_insts, 0x1000);
        let bm = meta_for(&b_insts, 0x2000);
        cache.install(0x1000, IsaForm::Modified, a_insts, am, 1, Map::new());
        cache.install(0x2000, IsaForm::Modified, b_insts, bm, 1, Map::new());
        let (violations, report) = check_cache(&cache, None);
        assert!(violations.is_empty(), "{violations:?}");
        // B's self-loop is fully resolved: r5 is provably dead at A's
        // copy-out.
        assert_eq!(report.dead_copy_outs, 1);
    }

    #[test]
    fn f04_catches_link_to_wrong_but_valid_entry() {
        let mut cache = TranslationCache::new();
        let a_insts = vec![
            IInst::SetVpcBase { vaddr: 0x1000 },
            IInst::CallTranslator { vtarget: 0x2000 },
        ];
        let mk_leaf = |v: u64| vec![IInst::SetVpcBase { vaddr: v }, IInst::Halt];
        let am = meta_for(&a_insts, 0x1000);
        let aid = cache.install(0x1000, IsaForm::Modified, a_insts, am, 1, Map::new());
        let b = mk_leaf(0x2000);
        let bm = meta_for(&b, 0x2000);
        cache.install(0x2000, IsaForm::Modified, b, bm, 1, Map::new());
        let c = mk_leaf(0x3000);
        let cm = meta_for(&c, 0x3000);
        let cid = cache.install(0x3000, IsaForm::Modified, c, cm, 1, Map::new());
        let (violations, _) = check_cache(&cache, None);
        assert!(violations.is_empty(), "{violations:?}");
        // Redirect A's patched branch to C's entry — a *valid* fragment
        // entry, so the C-rules' lockstep audit cannot object once the
        // link table is refreshed to match. Only F04 sees the V-side
        // disagreement with the recorded exit target.
        let c_start = cache.fragment(cid).istart;
        cache.edit_fragment(aid, |fa| {
            fa.insts[1] = IInst::Branch {
                target: ITarget::Addr(c_start),
            };
            fa.links[1] = Some(cid);
        });
        let (violations, _) = check_cache(&cache, None);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "F04");
    }

    #[test]
    fn f05_catches_push_to_wrong_fragment_and_policy_misuse() {
        let mut cache = TranslationCache::new();
        let a_insts = vec![
            IInst::PushDualRas {
                vret: 0x2000,
                iret: ITarget::Addr(DISPATCH_IADDR),
            },
            IInst::Halt,
        ];
        let am = meta_for(&a_insts, 0x1000);
        let aid = cache.install(0x1000, IsaForm::Modified, a_insts, am, 1, Map::new());
        let b = vec![IInst::SetVpcBase { vaddr: 0x2000 }, IInst::Halt];
        let bm = meta_for(&b, 0x2000);
        cache.install(0x2000, IsaForm::Modified, b, bm, 1, Map::new());
        let c = vec![IInst::SetVpcBase { vaddr: 0x3000 }, IInst::Halt];
        let cm = meta_for(&c, 0x3000);
        let cid = cache.install(0x3000, IsaForm::Modified, c, cm, 1, Map::new());
        let (violations, _) = check_cache(&cache, Some(ChainPolicy::SwPredDualRas));
        assert!(violations.is_empty(), "{violations:?}");
        // Poison the resolved push to another legitimate entry.
        let c_start = cache.fragment(cid).istart;
        cache.edit_fragment(aid, |fa| {
            if let IInst::PushDualRas { iret, .. } = &mut fa.insts[0] {
                *iret = ITarget::Addr(c_start);
            }
        });
        let (violations, _) = check_cache(&cache, Some(ChainPolicy::SwPredDualRas));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "F05");
        // And the policy rule: pushes are illegal without the dual RAS.
        let (violations, _) = check_cache(&cache, Some(ChainPolicy::SwPred));
        assert!(violations
            .iter()
            .any(|v| v.rule == "F05" && v.expected.contains("no dual-RAS")));
    }

    #[test]
    fn f06_dynamic_mismatch_and_seam_read_detected() {
        let mut cache = TranslationCache::new();
        let insts = vec![
            IInst::SetVpcBase { vaddr: 0x1000 },
            IInst::Load {
                width: MemWidth::U64,
                acc: a(0),
                addr: ASrc::Gpr(r(2)),
                disp: 0,
                dst: None,
            },
            IInst::CopyToGpr {
                acc: a(0),
                dst: r(3),
            },
            IInst::Halt,
        ];
        let m = meta_for(&insts, 0x1000);
        let fid = cache.install(0x1000, IsaForm::Basic, insts, m, 1, Map::new());
        let trace: Vec<DynInst> = cache.fragment(fid).trace_templates();
        assert!(check_dynamic(&cache, &trace).is_empty());
        // (a) Tamper the installed load's source register: the recorded
        // trace no longer matches the cache contents.
        cache.edit_fragment(fid, |f| {
            if let IInst::Load { addr, .. } = &mut f.insts[1] {
                *addr = ASrc::Gpr(r(7));
            }
        });
        let vs = check_dynamic(&cache, &trace);
        assert!(vs.iter().any(|v| v.rule == "F06"), "{vs:?}");
        // (b) A trace whose copy-out retires without the accumulator
        // having been written since entry (skipping the load).
        cache.edit_fragment(fid, |f| {
            if let IInst::Load { addr, .. } = &mut f.insts[1] {
                *addr = ASrc::Gpr(r(2));
            }
        });
        let seam_read = vec![trace[0], trace[2]];
        let vs = check_dynamic(&cache, &seam_read);
        assert!(
            vs.iter()
                .any(|v| v.rule == "F06" && v.actual.contains("seam")),
            "{vs:?}"
        );
    }

    #[test]
    fn select_regions_walks_hottest_chain_and_skips_regions() {
        let mut cache = TranslationCache::new();
        let mk = |v: u64, t: u64| {
            vec![
                IInst::SetVpcBase { vaddr: v },
                IInst::CallTranslator { vtarget: t },
            ]
        };
        let a = mk(0x1000, 0x2000);
        let am = meta_for(&a, 0x1000);
        let aid = cache.install(0x1000, IsaForm::Modified, a, am, 1, Map::new());
        let b = mk(0x2000, 0x1000);
        let bm = meta_for(&b, 0x2000);
        let bid = cache.install(0x2000, IsaForm::Modified, b, bm, 1, Map::new());
        cache.edit_fragment(aid, |f| f.entries = 10);
        cache.edit_fragment(bid, |f| f.entries = 5);
        let regions = select_regions(&cache, 8);
        assert_eq!(regions.len(), 1, "{regions:?}");
        assert_eq!(regions[0].head, 0x1000);
        assert_eq!(regions[0].members, vec![0x1000, 0x2000]);
        assert!(regions[0].closes_loop);
        // Once a member is an installed region, the chain is closed to
        // re-formation.
        cache.mark_region(bid);
        assert!(select_regions(&cache, 8).is_empty());
    }

    #[test]
    fn f07_flags_interior_backedge_in_region() {
        let mut cache = TranslationCache::new();
        let insts = vec![
            IInst::SetVpcBase { vaddr: 0x1000 },
            IInst::CallTranslator { vtarget: 0x1000 },
            IInst::Halt,
        ];
        let m = meta_for(&insts, 0x1000);
        let fid = cache.install(0x1000, IsaForm::Modified, insts, m, 1, Map::new());
        // A plain fragment may branch to its own entry anywhere.
        let (violations, report) = check_cache(&cache, None);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(report.region_fragments, 0);
        // The same shape inside a merged region is a malformed merge:
        // the loop may close only at the final exit arm.
        cache.mark_region(fid);
        let (violations, report) = check_cache(&cache, None);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "F07");
        assert_eq!(report.region_fragments, 1);
    }

    #[test]
    fn f04_static_flags_offblock_target_and_unreachable_arm() {
        use ildp_core::{SbInst, Translator};
        let sb = Superblock {
            start: 0x1000,
            insts: vec![SbInst {
                vaddr: 0x1000,
                inst: alpha_isa::Inst::Operate {
                    op: alpha_isa::OperateOp::Addq,
                    ra: r(1),
                    rb: alpha_isa::Operand::Lit(1),
                    rc: r(1),
                },
                flow: CollectedFlow::Sequential,
            }],
            end: SbEnd::Cycle { next: 0x1004 },
        };
        let tr = Translator::default();
        let mut code = tr.translate(&sb);
        let mut out = Vec::new();
        check_translation(&sb, &code, &mut out);
        assert!(out.is_empty(), "{out:?}");
        // Retarget the continuation exit far outside the superblock.
        for inst in &mut code.insts {
            if let IInst::CallTranslator { vtarget } = inst {
                *vtarget += 0x9990;
            }
        }
        let mut out = Vec::new();
        check_translation(&sb, &code, &mut out);
        assert!(out.iter().any(|v| v.rule == "F04"), "{out:?}");
        // Append an exit arm after the terminal exit: unreachable.
        code.insts.push(IInst::CallTranslator { vtarget: 0x1004 });
        code.meta.push(IMeta::chain(0x1000));
        let mut out = Vec::new();
        check_translation(&sb, &code, &mut out);
        assert!(
            out.iter()
                .any(|v| v.rule == "F04" && v.actual.contains("unreachable")),
            "{out:?}"
        );
    }
}
