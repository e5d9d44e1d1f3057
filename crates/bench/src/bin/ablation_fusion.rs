//! Ablation: the fused-memory extension (paper §4.5).
//!
//! The paper points at the memory-op decomposition as the largest
//! contributor to instruction-count expansion and suggests not splitting
//! loads as a future optimization ("this puts more pressure on decoding
//! hardware but nonetheless reduces pressure on fetch and reorder buffer
//! mechanisms"). This ablation measures exactly that trade: dynamic
//! expansion and ILDP V-ISA IPC with and without fusion, both forms.

use ildp_bench::{harness_scale, run_ildp_with, Table};
use ildp_core::{ChainPolicy, Translator, VmConfig};
use ildp_isa::IsaForm;
use ildp_uarch::IldpConfig;
use spec_workloads::{suite, Workload};

fn run(w: &Workload, form: IsaForm, fuse: bool) -> (f64, f64) {
    let config = VmConfig {
        translator: Translator {
            form,
            chain: ChainPolicy::SwPredDualRas,
            acc_count: 4,
            fuse_memory: fuse,
        },
        ..VmConfig::default()
    };
    let r = run_ildp_with(w, config, IldpConfig::default());
    let vm = r.vm.expect("a VM run has VM statistics");
    (vm.dynamic_expansion(), r.timing.v_ipc())
}

fn main() {
    let scale = harness_scale();
    let mut table = Table::new(
        "Ablation — fused displaced memory ops (paper §4.5)",
        &[
            "exp M split",
            "exp M fused",
            "ipc M split",
            "ipc M fused",
            "ipc B split",
            "ipc B fused",
        ],
    );
    for w in suite(scale) {
        let (m_exp_s, m_ipc_s) = run(&w, IsaForm::Modified, false);
        let (m_exp_f, m_ipc_f) = run(&w, IsaForm::Modified, true);
        let (_, b_ipc_s) = run(&w, IsaForm::Basic, false);
        let (_, b_ipc_f) = run(&w, IsaForm::Basic, true);
        table.row(
            w.name,
            &[m_exp_s, m_exp_f, m_ipc_s, m_ipc_f, b_ipc_s, b_ipc_f],
        );
    }
    print!("{}", table.render());
    let avg = table.averages();
    println!(
        "\nfusion cuts modified-form expansion {:.2} -> {:.2} and changes V-IPC {:+.1}%",
        avg[0],
        avg[1],
        (avg[3] / avg[2] - 1.0) * 100.0
    );
}
