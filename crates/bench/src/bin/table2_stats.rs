//! Table 2: translated-instruction statistics per benchmark for both
//! I-ISA forms — relative dynamic instruction count, percentage of copy
//! instructions, relative static instruction bytes — plus the §4.2
//! translation overhead (Alpha instructions of DBT work per translated
//! Alpha instruction).
//!
//! Paper averages: dynamic B 1.60 / M 1.36; copies B 17.7% / M 3.1%;
//! static bytes B 1.17 / M 1.07; overhead ≈ 1,125.

use ildp_bench::{harness_scale, run_dbt_functional, Table};
use ildp_isa::IsaForm;
use spec_workloads::suite;

fn main() {
    let scale = harness_scale();
    let mut table = Table::new(
        "Table 2 — translated instruction statistics",
        &[
            "dyn B", "dyn M", "copy% B", "copy% M", "bytes B", "bytes M", "DBT inst",
        ],
    );
    for w in suite(scale) {
        let basic = run_dbt_functional(&w, IsaForm::Basic, None);
        let modified = run_dbt_functional(&w, IsaForm::Modified, None);
        table.row(
            w.name,
            &[
                basic.dynamic_expansion(),
                modified.dynamic_expansion(),
                basic.copy_pct(),
                modified.copy_pct(),
                basic.static_code_ratio(),
                modified.static_code_ratio(),
                basic.overhead_per_translated_inst(),
            ],
        );
    }
    print!("{}", table.render());
    let avg = table.averages();
    println!(
        "\npaper averages: dyn B 1.60 / M 1.36; copy% B 17.7 / M 3.1; \
         bytes B 1.17 / M 1.07; DBT ≈1125"
    );
    println!(
        "measured:       dyn B {:.2} / M {:.2}; copy% B {:.1} / M {:.1}; \
         bytes B {:.2} / M {:.2}; DBT ≈{:.0}",
        avg[0], avg[1], avg[2], avg[3], avg[4], avg[5], avg[6]
    );
}
