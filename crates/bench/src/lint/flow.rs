//! `lint flow`: whole-cache dataflow, in two phases.
//!
//! 1. **Clean matrix**: every matrix cell runs with the collecting flow
//!    validator installed (rules F01–F04 on each fresh translation);
//!    after the run the installed cache is audited as a whole
//!    (`flow::check_cache`: F03/F04/F05 over patched fragments + the
//!    worklist liveness solver) and a bounded sample of the
//!    retired-instruction trace is cross-checked against the static
//!    summaries (`flow::check_dynamic`: F06). Must be violation-free;
//!    prints the per-cell seam opportunity report.
//! 2. **Seeded detection**: every F01–F06 seeded miscompile from
//!    [`crate::miscompile`] must be detected by the rule that owns it.

use super::{check_seeds, collecting_config, LintArgs, LintReport};
use crate::miscompile::{flow_cache_seeds, flow_translation_seeds};
use ildp_core::{ChainPolicy, TraceSink, Vm, VmExit};
use ildp_isa::IsaForm;
use ildp_uarch::DynInst;
use ildp_verifier::{flow, take_report, FlowReport, Violation};
use spec_workloads::Workload;

/// Records the first `cap` retired instructions for the F06 cross-check.
struct SampleSink {
    buf: Vec<DynInst>,
    cap: usize,
}

impl TraceSink for SampleSink {
    fn retire(&mut self, inst: &DynInst) {
        if self.buf.len() < self.cap {
            self.buf.push(*inst);
        }
    }
}

/// Retired-trace sample size per cell for the dynamic cross-check.
const TRACE_SAMPLE: usize = 200_000;

/// Runs one matrix cell; returns (violations, seam report).
fn run_cell(
    workload: &Workload,
    form: IsaForm,
    chain: ChainPolicy,
) -> (Vec<Violation>, FlowReport) {
    let config = collecting_config(form, chain, ildp_verifier::collecting_flow_validator);
    let mut vm = Vm::new(config, &workload.program);
    let mut sink = SampleSink {
        buf: Vec::new(),
        cap: TRACE_SAMPLE,
    };
    let exit = vm.run(workload.budget * 2, &mut sink);
    if let VmExit::Trapped { vaddr, trap, .. } = exit {
        panic!("{}: unexpected trap at {vaddr:#x}: {trap}", workload.name);
    }
    let mut violations = take_report();
    let cache = vm.cache();
    let (cache_violations, seam) = flow::check_cache(cache, Some(chain));
    violations.extend(cache_violations);
    violations.extend(flow::check_dynamic(cache, &sink.buf));
    (violations, seam)
}

pub(super) fn run(args: &LintArgs) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    let mut total = FlowReport::default();
    for (w, form, chain, spec) in args.matrix()? {
        let (violations, seam) = run_cell(&w, form, chain);
        total.merge(&seam);
        println!(
            "{spec:<40} {:>4} fragments {:>4} edges  dead {:>3} redundant {:>3}  {:>3} violations",
            seam.fragments,
            seam.resolved_edges,
            seam.dead_copy_outs,
            seam.redundant_seam_pairs,
            violations.len(),
        );
        for v in &violations {
            println!("    {v}");
        }
        if !violations.is_empty() {
            report.fail(spec, violations.iter().map(|v| v.to_string()).collect());
        }
    }

    let (mut seeds, mut undetected) = (0, 0);
    if args.repro.is_none() {
        let translation = flow_translation_seeds().into_iter().map(|seed| {
            let (sb, code, _tr) = seed.build();
            let mut vs = Vec::new();
            flow::check_translation(&sb, &code, &mut vs);
            (seed.name, seed.rule, vs)
        });
        let cache = flow_cache_seeds()
            .into_iter()
            .map(|seed| (seed.name, seed.rule, (seed.run)()));
        (seeds, undetected) = check_seeds(&mut report, translation.chain(cache));
    }

    println!(
        "\nflow: {} fragments, {} resolved edges, {} boundary exits; \
         {} copy-ins, {} copy-outs, {} dead copy-outs, {} redundant seam pairs; \
         {seeds} seeds, {undetected} undetected",
        total.fragments,
        total.resolved_edges,
        total.boundary_exits,
        total.copy_ins,
        total.copy_outs,
        total.dead_copy_outs,
        total.redundant_seam_pairs,
    );
    report
        .extra("fragments", total.fragments)
        .extra("resolved_edges", total.resolved_edges)
        .extra("dead_copy_outs", total.dead_copy_outs)
        .extra("redundant_seam_pairs", total.redundant_seam_pairs)
        .extra("seeds", seeds)
        .extra("undetected", undetected);
    Ok(report)
}
