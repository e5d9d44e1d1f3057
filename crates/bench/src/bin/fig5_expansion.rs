//! Figure 5: relative dynamic instruction count of straightened + chained
//! code versus the original Alpha program.
//!
//! Paper shape: benchmarks with frequent indirect jumps (`perlbmk`,
//! `gcc`-like) expand noticeably even with software prediction and the
//! dual-address RAS; call-by-`BSR` benchmarks barely expand.

use ildp_bench::{harness_scale, run_straightened, Table};
use ildp_core::ChainPolicy;
use spec_workloads::suite;

fn main() {
    let scale = harness_scale();
    let mut table = Table::new(
        "Figure 5 — relative instruction count (straightened / original)",
        &["no_pred", "sw_pred.no_ras", "sw_pred.ras"],
    );
    for w in suite(scale) {
        let rows: Vec<f64> = [
            ChainPolicy::NoPred,
            ChainPolicy::SwPred,
            ChainPolicy::SwPredDualRas,
        ]
        .iter()
        .map(|&chain| {
            run_straightened(&w, chain)
                .vm
                .expect("straightened stats")
                .dynamic_expansion()
        })
        .collect();
        table.row(w.name, &rows);
    }
    print!("{}", table.render());
}
