//! Experiment runners: one function per simulated configuration.

use ildp_core::{
    trace_original, ChainPolicy, EngineConfig, InstallValidator, Translator, Vm, VmConfig, VmExit,
    VmStats,
};
use ildp_isa::IsaForm;
use ildp_uarch::{
    CacheConfig, IldpConfig, IldpModel, PredictorConfig, SuperscalarConfig, SuperscalarModel,
    TimingModel, TimingStats,
};
use spec_workloads::Workload;

/// Result of one (workload × configuration) cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Timing statistics from the processor model.
    pub timing: TimingStats,
    /// DBT statistics (absent for original-program runs).
    pub vm: Option<VmStats>,
}

fn expect_clean(name: &str, exit: &VmExit) {
    match exit {
        VmExit::Halted | VmExit::Budget => {}
        VmExit::Trapped { vaddr, trap, .. } => {
            panic!("{name}: unexpected trap at {vaddr:#x}: {trap}")
        }
        VmExit::Fault { error } => {
            panic!("{name}: runtime fault: {error}")
        }
    }
}

/// Runs the **original** Alpha program on the conventional superscalar
/// (the paper's "original" simulator). `use_ras` toggles the hardware
/// return-address stack (Figure 6's with/without-RAS bars).
pub fn run_original(w: &Workload, use_ras: bool) -> CellResult {
    let config = SuperscalarConfig {
        predictors: PredictorConfig {
            use_ras,
            ..PredictorConfig::default()
        },
        ..SuperscalarConfig::default()
    };
    let mut model = SuperscalarModel::new(config);
    let (exit, _count) = trace_original(&w.program, w.budget * 2, &mut model);
    expect_clean(w.name, &exit);
    CellResult {
        timing: model.finish(),
        vm: None,
    }
}

/// The **code-straightening-only** configuration (paper §4.1): the VM
/// translating to the straightened form with `chain`, synchronously, and
/// without region promotion — the paper's straightened system chains
/// superblocks only.
pub fn straightened_vm(chain: ChainPolicy) -> VmConfig {
    VmConfig {
        translator: Translator {
            form: IsaForm::Straightened,
            chain,
            ..Translator::default()
        },
        engine: EngineConfig {
            region_trigger: None,
            ..EngineConfig::default()
        },
        async_translate: false,
        ..VmConfig::default()
    }
}

/// The conventional superscalar the straightened configuration runs on.
/// Returns exist in its trace only under the dual-RAS policy; the other
/// policies lower returns to compare-and-branch/dispatch.
pub fn straightened_machine(chain: ChainPolicy) -> SuperscalarConfig {
    SuperscalarConfig {
        predictors: PredictorConfig {
            dual_ras: chain.uses_dual_ras(),
            use_ras: chain.uses_dual_ras(),
            ..PredictorConfig::default()
        },
        ..SuperscalarConfig::default()
    }
}

/// Runs the code-straightening-only configuration on its superscalar
/// (Figures 4, 5, 6).
pub fn run_straightened(w: &Workload, chain: ChainPolicy) -> CellResult {
    let model = SuperscalarModel::new(straightened_machine(chain));
    run_vm(w, straightened_vm(chain), model)
}

/// ILDP machine parameters for one Figure 8/9 configuration.
#[derive(Clone, Copy, Debug)]
pub struct IldpParams {
    /// Logical accumulators (4 or 8).
    pub acc_count: usize,
    /// Processing elements (4, 6 or 8).
    pub pe_count: usize,
    /// Replicated L1 D-cache: `true` = 32 KB 4-way, `false` = 8 KB 2-way.
    pub big_dcache: bool,
    /// Global communication latency in cycles (0 or 2).
    pub comm_latency: u64,
}

impl Default for IldpParams {
    /// The Figure 8 configuration: 8 PEs, 32 KB L1D, 0-cycle global
    /// communication, four logical accumulators.
    fn default() -> IldpParams {
        IldpParams {
            acc_count: 4,
            pe_count: 8,
            big_dcache: true,
            comm_latency: 0,
        }
    }
}

/// Runs the full co-designed VM (DBT + ILDP timing model).
pub fn run_ildp(w: &Workload, form: IsaForm, params: IldpParams) -> CellResult {
    let uarch = IldpConfig {
        pe_count: params.pe_count,
        comm_latency: params.comm_latency,
        dcache: if params.big_dcache {
            CacheConfig::dcache_32k()
        } else {
            CacheConfig::dcache_8k()
        },
        ..IldpConfig::default()
    };
    let translator = Translator {
        form,
        chain: ChainPolicy::SwPredDualRas,
        acc_count: params.acc_count,
        fuse_memory: false,
    };
    run_ildp_with(
        w,
        VmConfig {
            translator,
            ..VmConfig::default()
        },
        uarch,
    )
}

/// Runs the co-designed VM under `config` on the ILDP machine `uarch`.
pub fn run_ildp_with(w: &Workload, config: VmConfig, uarch: IldpConfig) -> CellResult {
    run_vm(w, config, IldpModel::new(uarch))
}

/// Runs the VM under `config` on the timing `model`. Translation is
/// forced synchronous: the paper's figures model it as an in-line
/// pipeline stage, and synchronous mode keeps the reported statistics
/// exactly reproducible run-to-run.
fn run_vm<M: TimingModel>(w: &Workload, config: VmConfig, mut model: M) -> CellResult {
    let vm_config = VmConfig {
        async_translate: false,
        ..config
    };
    let mut vm = Vm::new(vm_config, &w.program);
    let exit = vm.run(w.budget * 2, &mut model);
    expect_clean(w.name, &exit);
    CellResult {
        timing: model.finish(),
        vm: Some(vm.stats().clone()),
    }
}

/// Runs the DBT functionally only (no timing model), for Table 2 and
/// Figure 7 statistics. `validator` reviews every installed translation;
/// Figure 7 passes an always-accepting one that tallies statistics.
pub fn run_dbt_functional(
    w: &Workload,
    form: IsaForm,
    validator: Option<InstallValidator>,
) -> VmStats {
    let vm_config = VmConfig {
        translator: Translator {
            form,
            chain: ChainPolicy::SwPredDualRas,
            acc_count: 4,
            fuse_memory: false,
        },
        // Table 2 / Figure 7 statistics must be bit-reproducible.
        async_translate: false,
        validator,
        ..VmConfig::default()
    };
    let mut vm = Vm::new(vm_config, &w.program);
    let exit = vm.run(w.budget * 2, &mut ildp_core::NullSink);
    expect_clean(w.name, &exit);
    vm.stats().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_workloads::by_name;

    #[test]
    fn original_run_produces_timing() {
        let w = by_name("gzip", 1).unwrap();
        let r = run_original(&w, true);
        assert!(r.timing.instructions > 10_000);
        assert!(r.timing.ipc() > 0.2 && r.timing.ipc() <= 4.0);
    }

    #[test]
    fn straightened_run_produces_timing_and_stats() {
        let w = by_name("eon", 1).unwrap();
        let r = run_straightened(&w, ChainPolicy::SwPredDualRas);
        assert!(r.vm.unwrap().fragments > 0);
        assert!(r.timing.v_instructions > 1_000);
    }

    #[test]
    fn ildp_run_produces_v_ipc() {
        let w = by_name("gzip", 1).unwrap();
        let r = run_ildp(&w, IsaForm::Modified, IldpParams::default());
        assert!(r.timing.v_ipc() > 0.2, "v-ipc {}", r.timing.v_ipc());
        assert!(
            r.timing.ipc() >= r.timing.v_ipc(),
            "native I-IPC must be at least V-IPC"
        );
        assert!(r.vm.unwrap().fragments > 0);
    }

    #[test]
    fn functional_dbt_stats_have_expansion() {
        let w = by_name("crafty", 1).unwrap();
        let basic = run_dbt_functional(&w, IsaForm::Basic, None);
        let modified = run_dbt_functional(&w, IsaForm::Modified, None);
        assert!(basic.dynamic_expansion() > modified.dynamic_expansion());
    }
}
