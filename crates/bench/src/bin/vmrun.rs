//! `vmrun` — run a workload through the co-designed VM with configurable
//! translator, chaining, machine parameters and timing model, printing
//! the full statistics block. The exploration tool behind the figures.
//!
//! ```text
//! vmrun gzip --form basic --chain sw_pred --accs 8 --pe 6 --comm 2
//! vmrun perlbmk --form straightened --chain no_pred
//! vmrun mcf --fuse --dump-fragments
//! vmrun --list
//! ```

use ildp_bench::{straightened_machine, straightened_vm};
use ildp_core::{ChainPolicy, FlushPolicy, NullSink, Translator, Vm, VmConfig, VmExit};
use ildp_isa::IsaForm;
use ildp_uarch::{IldpConfig, IldpModel, SuperscalarModel, TimingModel, TimingStats};
use spec_workloads::by_name;

struct Options {
    workload: String,
    form: IsaForm,
    chain: ChainPolicy,
    accs: usize,
    scale: u32,
    fuse: bool,
    flush: bool,
    /// `false` for `--timing none`. A timed run uses the form's machine:
    /// the superscalar for the straightened form, ILDP otherwise.
    timed: bool,
    pe: usize,
    comm: u64,
    dump_fragments: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: vmrun <workload> [--form basic|modified|straightened]\n\
         \u{20}            [--chain no_pred|sw_pred|ras] [--accs N] [--scale N] [--fuse] [--flush]\n\
         \u{20}            [--pe N] [--comm N] [--timing ildp|none] [--dump-fragments]\n\
         \u{20}      vmrun --list\n\
         --form straightened is timed on the superscalar of Figs. 4-6 instead of ILDP"
    );
    std::process::exit(2);
}

fn parse() -> Options {
    let mut opts = Options {
        workload: String::new(),
        form: IsaForm::Modified,
        chain: ChainPolicy::SwPredDualRas,
        accs: 4,
        scale: 10,
        fuse: false,
        flush: false,
        timed: true,
        pe: 8,
        comm: 0,
        dump_fragments: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--list" => {
                for n in spec_workloads::NAMES {
                    println!("{n}");
                }
                std::process::exit(0);
            }
            "--form" => {
                opts.form = match value("--form").as_str() {
                    "basic" => IsaForm::Basic,
                    "modified" => IsaForm::Modified,
                    "straightened" => IsaForm::Straightened,
                    other => {
                        eprintln!("unknown form `{other}`");
                        usage()
                    }
                }
            }
            "--chain" => {
                opts.chain = match value("--chain").as_str() {
                    "no_pred" => ChainPolicy::NoPred,
                    "sw_pred" => ChainPolicy::SwPred,
                    "ras" => ChainPolicy::SwPredDualRas,
                    other => {
                        eprintln!("unknown chain policy `{other}`");
                        usage()
                    }
                }
            }
            "--accs" => opts.accs = value("--accs").parse().unwrap_or_else(|_| usage()),
            "--scale" => opts.scale = value("--scale").parse().unwrap_or_else(|_| usage()),
            "--pe" => opts.pe = value("--pe").parse().unwrap_or_else(|_| usage()),
            "--comm" => opts.comm = value("--comm").parse().unwrap_or_else(|_| usage()),
            "--timing" => {
                opts.timed = match value("--timing").as_str() {
                    "ildp" => true,
                    "none" => false,
                    other => {
                        eprintln!("unknown timing model `{other}`");
                        usage()
                    }
                }
            }
            "--fuse" => opts.fuse = true,
            "--flush" => opts.flush = true,
            "--dump-fragments" => opts.dump_fragments = true,
            w if !w.starts_with('-') && opts.workload.is_empty() => opts.workload = w.to_string(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage()
            }
        }
    }
    if opts.workload.is_empty() {
        usage();
    }
    if opts.accs == 0 || opts.accs > 16 {
        eprintln!("--accs must be between 1 and 16 (paper evaluates 4 and 8)");
        std::process::exit(2);
    }
    if opts.pe == 0 || opts.pe > 64 {
        eprintln!("--pe must be between 1 and 64 (paper evaluates 4, 6 and 8)");
        std::process::exit(2);
    }
    opts
}

fn print_timing(stats: &TimingStats) {
    println!("--- timing ---");
    println!("cycles                : {}", stats.cycles);
    println!("instructions          : {}", stats.instructions);
    println!("V-ISA instructions    : {}", stats.v_instructions);
    println!(
        "IPC (native / V-ISA)  : {:.3} / {:.3}",
        stats.ipc(),
        stats.v_ipc()
    );
    println!(
        "mispredicts/1k V-inst : {:.2} (cond {}, indirect {}, return {})",
        stats.mispredicts_per_kilo_v_inst(),
        stats.cond_mispredicts,
        stats.indirect_mispredicts,
        stats.return_mispredicts
    );
    println!(
        "cache misses          : I {} / D {} / L2 {}",
        stats.icache_misses, stats.dcache_misses, stats.l2_misses
    );
}

fn main() {
    let opts = parse();
    let Some(w) = by_name(&opts.workload, opts.scale) else {
        eprintln!("unknown workload `{}`; try --list", opts.workload);
        std::process::exit(2);
    };

    let config = match opts.form {
        // The Figures 4-6 set-up.
        IsaForm::Straightened => straightened_vm(opts.chain),
        form => VmConfig {
            translator: Translator {
                form,
                chain: opts.chain,
                acc_count: opts.accs,
                fuse_memory: opts.fuse,
            },
            ..VmConfig::default()
        },
    };
    let config = VmConfig {
        flush: opts.flush.then(FlushPolicy::default),
        ..config
    };
    let mut vm = Vm::new(config, &w.program);

    let mut pe_utilization: Option<Vec<u64>> = None;
    let (exit, timing): (VmExit, Option<TimingStats>) = match (opts.timed, opts.form) {
        (false, _) => (vm.run(w.budget * 2, &mut NullSink), None),
        (true, IsaForm::Straightened) => {
            let mut model = SuperscalarModel::new(straightened_machine(opts.chain));
            let exit = vm.run(w.budget * 2, &mut model);
            (exit, Some(model.finish()))
        }
        (true, _) => {
            let mut model = IldpModel::new(IldpConfig {
                pe_count: opts.pe,
                comm_latency: opts.comm,
                ..IldpConfig::default()
            });
            let exit = vm.run(w.budget * 2, &mut model);
            pe_utilization = Some(model.pe_utilization().to_vec());
            (exit, Some(model.finish()))
        }
    };

    println!("workload              : {} (scale {})", w.name, opts.scale);
    println!("exit                  : {exit:?}");
    let s = vm.stats();
    println!("--- DBT ---");
    println!(
        "fragments             : {} ({} flushes)",
        s.fragments, s.cache_flushes
    );
    println!("interpreted           : {}", s.interpreted);
    println!("translated V-insts    : {}", s.engine.v_insts);
    println!(
        "executed I-insts      : {} ({:.2}x expansion)",
        s.engine.executed,
        s.dynamic_expansion()
    );
    println!("copies                : {:.1}%", s.copy_pct());
    println!("chain instructions    : {}", s.engine.chain_executed);
    println!("dispatches            : {}", s.engine.dispatches);
    println!(
        "arch dual-RAS         : {} hits / {} misses",
        s.engine.ras_hits, s.engine.ras_misses
    );
    println!("strands / terminations: {} / {}", s.strands, s.terminations);
    println!("static code ratio     : {:.2}x", s.static_code_ratio());
    println!(
        "DBT overhead          : {:.0} insts per translated inst",
        s.overhead_per_translated_inst()
    );
    if let Some(t) = timing {
        print_timing(&t);
        if let Some(util) = pe_utilization {
            let total: u64 = util.iter().sum::<u64>().max(1);
            let shares: Vec<String> = util
                .iter()
                .map(|&n| format!("{:.0}%", n as f64 * 100.0 / total as f64))
                .collect();
            println!("PE utilization        : [{}]", shares.join(" "));
        }
    }
    if opts.dump_fragments {
        println!("--- fragments ---");
        for f in vm.cache().fragments() {
            println!(
                "  {:>4?} v {:#x} i {:#x}: {} insts, {} entries, {} bytes",
                f.id,
                f.vstart,
                f.istart,
                f.insts.len(),
                f.entries,
                f.size_bytes()
            );
        }
    }
}
