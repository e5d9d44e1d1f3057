//! Ablation: superblock-formation parameters.
//!
//! The paper reports that a maximum superblock size of 50 "is not large
//! enough to provide performance benefits from code straightening" and
//! settles on 200 with a hot threshold of 50. This sweep regenerates that
//! observation: ILDP V-ISA IPC (modified form) across maximum superblock
//! sizes and thresholds.

use ildp_bench::{harness_scale, run_ildp_with, Table};
use ildp_core::{ProfileConfig, Translator, VmConfig};
use ildp_isa::IsaForm;
use ildp_uarch::IldpConfig;
use spec_workloads::{suite, Workload};

fn run(w: &Workload, max_superblock: usize, threshold: u32) -> f64 {
    let config = VmConfig {
        translator: Translator {
            form: IsaForm::Modified,
            ..Translator::default()
        },
        profile: ProfileConfig {
            threshold,
            max_superblock,
            ..ProfileConfig::default()
        },
        ..VmConfig::default()
    };
    run_ildp_with(w, config, IldpConfig::default())
        .timing
        .v_ipc()
}

fn main() {
    let scale = harness_scale();
    let mut size_table = Table::new(
        "Ablation — maximum superblock size (threshold 50)",
        &["max 25", "max 50", "max 100", "max 200 (paper)", "max 400"],
    )
    .precision(3);
    for w in suite(scale) {
        let row: Vec<f64> = [25usize, 50, 100, 200, 400]
            .iter()
            .map(|&m| run(&w, m, 50))
            .collect();
        size_table.row(w.name, &row);
    }
    print!("{}", size_table.render());

    let mut thr_table = Table::new(
        "Ablation — hot threshold (max superblock 200)",
        &["thr 5", "thr 20", "thr 50 (paper)", "thr 200"],
    )
    .precision(3);
    for w in suite(scale) {
        let row: Vec<f64> = [5u32, 20, 50, 200]
            .iter()
            .map(|&t| run(&w, 200, t))
            .collect();
        thr_table.row(w.name, &row);
    }
    print!("{}", thr_table.render());
}
