//! `lint verify`: every matrix cell runs with the collecting validator,
//! so every translated fragment is checked by all four static verifier
//! passes at install time; after the run the installed (patched, linked)
//! fragments are audited again against the cache. Any violation fails
//! the cell.

use super::{collecting_config, LintArgs, LintReport};
use ildp_core::{ChainPolicy, NullSink, Vm, VmExit};
use ildp_isa::IsaForm;
use ildp_verifier::{take_report, verify_installed, Violation};
use spec_workloads::Workload;

/// Runs one cell and returns (fragments verified, violations).
fn run_cell(workload: &Workload, form: IsaForm, chain: ChainPolicy) -> (u64, Vec<Violation>) {
    let config = collecting_config(form, chain, ildp_verifier::collecting_validator);
    let mut vm = Vm::new(config, &workload.program);
    let exit = vm.run(workload.budget * 2, &mut NullSink);
    if let VmExit::Trapped { vaddr, trap, .. } = exit {
        panic!("{}: unexpected trap at {vaddr:#x}: {trap}", workload.name);
    }
    let mut violations: Vec<Violation> = take_report();
    let cache = vm.cache();
    for frag in cache.fragments() {
        violations.extend(verify_installed(cache, frag));
    }
    (vm.stats().fragments_verified, violations)
}

pub(super) fn run(args: &LintArgs) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    let mut total_fragments = 0u64;
    let mut total_violations = 0usize;
    for (w, form, chain, spec) in args.matrix()? {
        let (fragments, violations) = run_cell(&w, form, chain);
        total_fragments += fragments;
        total_violations += violations.len();
        println!(
            "{:<10} {:>8} {:<14} {:>4} fragments  {:>3} violations",
            w.name,
            format!("{form:?}").to_lowercase(),
            chain.label(),
            fragments,
            violations.len(),
        );
        for v in &violations {
            println!("    {v}");
        }
        if !violations.is_empty() {
            report.fail(spec, violations.iter().map(|v| v.to_string()).collect());
        }
    }
    println!(
        "\nverify: {total_fragments} fragment translations checked, \
         {total_violations} violations"
    );
    report.extra("fragments_verified", total_fragments);
    Ok(report)
}
