//! Figure 7: output register value usage ("globalness") statistics over
//! dynamic instructions in superblocks, for the basic and modified ISA
//! forms.
//!
//! Paper shape: for the modified ISA about 25% of dynamic values are
//! global (live-out + communication); adding the basic ISA's forced
//! copies (`local→global`, `no user→global`) raises the share needing GPR
//! writes to about 40%.

use ildp_bench::{harness_scale, run_dbt_functional, Table};
use ildp_core::{analyze_oracle, decompose_with, CategoryCounts, InstallReview, UsageCat};
use ildp_isa::IsaForm;
use spec_workloads::suite;
use std::sync::Mutex;

/// Oracle-boundary category counts of the translations reviewed since
/// they were last taken.
static ORACLE: Mutex<CategoryCounts> = Mutex::new(CategoryCounts([0; UsageCat::COUNT]));

/// Always-accepting install validator: classifies each installed
/// superblock's values under **oracle boundaries** (no saves at side
/// exits) and adds them to [`ORACLE`]. The translator itself never runs
/// this classification; it is a statistic only.
fn tally_oracle(review: &InstallReview<'_>) -> Result<(), String> {
    let nodes = decompose_with(review.sb, review.translator.fuse_memory);
    let counts = analyze_oracle(&nodes).category_counts();
    ORACLE.lock().expect("no tally panicked").merge(&counts);
    Ok(())
}

fn pct(stats: &ildp_core::VmStats, cats: &[UsageCat]) -> f64 {
    let total = stats.engine.categories_total();
    if total == 0 {
        return 0.0;
    }
    let n: u64 = cats.iter().map(|c| stats.engine.category(*c)).sum();
    n as f64 * 100.0 / total as f64
}

/// Static global share under oracle boundaries (no saves at side exits),
/// the paper's [28] comparison point.
fn oracle_global_pct(counts: &CategoryCounts) -> f64 {
    let global: u64 = counts
        .iter()
        .filter(|(c, _)| c.is_global())
        .map(|(_, n)| n)
        .sum();
    global as f64 * 100.0 / counts.total().max(1) as f64
}

fn main() {
    let scale = harness_scale();
    let columns = [
        "no user", "local", "temp", "global", "local>g", "nouser>g", "spill",
    ];
    for form in [IsaForm::Basic, IsaForm::Modified] {
        let mut table = Table::new(
            format!("Figure 7 — output register usage, {form:?} ISA (% of values)"),
            &columns,
        )
        .precision(1);
        let mut global_with_copies = Vec::new();
        let mut oracle = Vec::new();
        for w in suite(scale) {
            let s = run_dbt_functional(&w, form, Some(tally_oracle));
            oracle.push(oracle_global_pct(&std::mem::take(
                &mut *ORACLE.lock().expect("no tally panicked"),
            )));
            let row = [
                pct(&s, &[UsageCat::NoUser]),
                pct(&s, &[UsageCat::Local]),
                pct(&s, &[UsageCat::Temp]),
                pct(&s, &[UsageCat::LiveOut, UsageCat::Communication]),
                pct(&s, &[UsageCat::LocalToGlobal]),
                pct(&s, &[UsageCat::NoUserToGlobal]),
                pct(&s, &[UsageCat::Spill]),
            ];
            global_with_copies.push(row[3] + row[4] + row[5] + row[6]);
            table.row(w.name, &row);
        }
        print!("{}", table.render());
        let avg: f64 = global_with_copies.iter().sum::<f64>() / global_with_copies.len() as f64;
        let oracle_avg: f64 = oracle.iter().sum::<f64>() / oracle.len() as f64;
        println!(
            "total needing GPR availability: {avg:.1}% \
             (paper: ≈40% basic incl. copies, ≈25% modified); \
             oracle boundaries: {oracle_avg:.1}% static (paper [28]: ≈20%)\n"
        );
    }
}
