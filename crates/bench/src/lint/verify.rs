//! `lint verify`: every translation and the whole installed cache pass
//! the verifier, in two phases.
//!
//! 1. **Clean matrix**: every matrix cell runs once with the full
//!    install gate ([`ildp_verifier::full_validator`]: the four static
//!    passes plus flow rules F01–F04) recording its findings on the VM.
//!    After the run the installed (patched, linked) fragments are
//!    audited again against the cache (`verify_installed`), the cache is
//!    audited as a whole (`flow::check_cache`: F03/F04/F05 plus the
//!    worklist liveness solver), and a bounded sample of the
//!    retired-instruction trace is cross-checked against the static
//!    summaries (`flow::check_dynamic`: F06). Any violation fails the
//!    cell; each cell prints its seam opportunity report.
//! 2. **Seeded detection**: every F01–F06 seeded miscompile from
//!    [`crate::miscompile`] must be detected by the rule that owns it.

use super::{check_seeds, recording_config, LintArgs, LintReport};
use crate::miscompile::{flow_cache_seeds, flow_translation_seeds};
use ildp_core::{ChainPolicy, TraceSink, Vm, VmExit};
use ildp_isa::IsaForm;
use ildp_uarch::DynInst;
use ildp_verifier::{flow, full_validator, verify_installed, FlowReport};
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

/// What one cell found.
struct CellResult {
    /// Install-time validator passes (fragments and regions).
    verified: u64,
    violations: Vec<String>,
    seam: FlowReport,
}

fn run_cell(workload: &Workload, form: IsaForm, chain: ChainPolicy) -> CellResult {
    let config = recording_config(form, chain, full_validator);
    let mut vm = Vm::new(config, &workload.program);
    let mut sink = SampleSink {
        buf: Vec::new(),
        cap: TRACE_SAMPLE,
    };
    let exit = vm.run(workload.budget * 2, &mut sink);
    if let VmExit::Trapped { vaddr, trap, .. } = exit {
        panic!("{}: unexpected trap at {vaddr:#x}: {trap}", workload.name);
    }
    let mut violations: Vec<String> = vm.violations().iter().map(|(_, m)| m.clone()).collect();
    let cache = vm.cache();
    let (cache_violations, seam) = flow::check_cache(cache, Some(chain));
    let installed = cache.fragments().flat_map(|f| verify_installed(cache, f));
    violations.extend(
        installed
            .chain(cache_violations)
            .chain(flow::check_dynamic(cache, &sink.buf))
            .map(|v| v.to_string()),
    );
    CellResult {
        verified: vm.stats().fragments_verified,
        violations,
        seam,
    }
}

pub(super) fn run(args: &LintArgs) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    let mut verified = 0u64;
    let mut violations = 0usize;
    let mut total = FlowReport::default();
    for (w, form, chain, spec) in args.matrix()? {
        let cell = run_cell(&w, form, chain);
        verified += cell.verified;
        violations += cell.violations.len();
        total.merge(&cell.seam);
        println!(
            "{spec:<40} {:>4} verified {:>4} fragments {:>4} edges  \
             dead {:>3} redundant {:>3}  {:>3} violations",
            cell.verified,
            cell.seam.fragments,
            cell.seam.resolved_edges,
            cell.seam.dead_copy_outs,
            cell.seam.redundant_seam_pairs,
            cell.violations.len(),
        );
        for v in &cell.violations {
            println!("    {v}");
        }
        if !cell.violations.is_empty() {
            report.fail(spec, cell.violations);
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
        "\nverify: {verified} fragment translations checked, {violations} violations; \
         {} fragments, {} resolved edges, {} boundary exits; \
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
        .extra("fragments_verified", verified)
        .extra("fragments", total.fragments)
        .extra("resolved_edges", total.resolved_edges)
        .extra("dead_copy_outs", total.dead_copy_outs)
        .extra("redundant_seam_pairs", total.redundant_seam_pairs)
        .extra("seeds", seeds)
        .extra("undetected", undetected);
    Ok(report)
}
