//! Interpreted-tier guard: the scale-1 suite, in the basic and the
//! straightened form under `sw_pred.ras` chaining, runs under four
//! configurations that lean on the interpreter in different ways, and
//! what each run leaves behind hashes to a pinned digest:
//!
//! * `max_demotions: 0`: nothing is ever translated, every instruction
//!   is interpreted;
//! * the default configuration (synchronous translation, so the
//!   interpret/execute split never depends on wall time);
//! * `profile.max_superblock: 7`: superblocks end at `MaxSize` after
//!   seven instructions, so their continuations install fragments at
//!   PCs inside blocks the interpreter has already run;
//! * `cache_budget: Some(1)`: every install evicts, so regions fall
//!   back to the interpreter over and over.
//!
//! Each configuration also runs to the halt paced in budgets of 997
//! retired instructions, so budgets land inside interpreted blocks.
//!
//! Folded per run: the oracle's [`EndState`] and the VM statistics with
//! their wall-clock fields zeroed (`chaos::untimed`), whose `engine`
//! field carries every [`EngineStats`](ildp_core::EngineStats) counter.
//! Every run must also pass the oracle. A change to how the VM
//! interprets that is meant to keep behaviour — where interpreted blocks
//! end, what they count, when candidates heat up and where fragments
//! install — must leave the digest unchanged.

use ildp_bench::chaos::untimed;
use ildp_core::oracle::{reference, End, EndState};
use ildp_core::{wire, ChainPolicy, NullSink, ProfileConfig, Translator, Vm, VmConfig, VmExit};
use ildp_isa::IsaForm;
use spec_workloads::{suite, Workload};

/// Retired-instruction budget of one paced `run` call.
const PACE: u64 = 997;

/// The four interpreter-facing configurations, named.
fn configs(form: IsaForm) -> [(&'static str, VmConfig); 4] {
    let base = VmConfig {
        translator: Translator {
            form,
            chain: ChainPolicy::SwPredDualRas,
            ..Translator::default()
        },
        async_translate: false,
        ..VmConfig::default()
    };
    [
        (
            "interpret-only",
            VmConfig {
                max_demotions: 0,
                ..base
            },
        ),
        ("default", base),
        (
            "max-superblock-7",
            VmConfig {
                profile: ProfileConfig {
                    max_superblock: 7,
                    ..base.profile
                },
                ..base
            },
        ),
        (
            "cache-budget-1",
            VmConfig {
                cache_budget: Some(1),
                ..base
            },
        ),
    ]
}

/// Runs `w` to its halt under `config`, in one `run` call or paced in
/// [`PACE`]-instruction budgets; checks the end against the oracle and
/// returns the folded outcome.
fn run(w: &Workload, config: VmConfig, paced: bool, expected: &EndState, what: &str) -> String {
    let budget = w.budget * 2;
    let mut vm = Vm::new(config, &w.program);
    let exit = if paced {
        loop {
            let next = (vm.v_instructions() + PACE).min(budget);
            let exit = vm.run(next, &mut NullSink);
            if exit != VmExit::Budget || next == budget {
                break exit;
            }
        }
    } else {
        vm.run(budget, &mut NullSink)
    };
    let end = EndState::of(&vm, &exit);
    assert_eq!(end.end, End::Halted, "{what}");
    if let Err(e) = expected.check(&end) {
        panic!("{what}: {e}");
    }
    format!("{what}|{end:?}|{:?}", untimed(vm.stats()))
}

#[test]
fn interpreted_tier_matches_the_pinned_digest() {
    let mut digest = 0u64;
    let mut runs = 0u64;
    for w in suite(1) {
        let expected = reference(&w.program, w.budget * 2).unwrap();
        for form in [IsaForm::Basic, IsaForm::Straightened] {
            for (name, config) in configs(form) {
                for paced in [false, true] {
                    let what = format!("{}/{form:?}/{name}/paced={paced}", w.name);
                    let text = run(&w, config, paced, &expected, &what);
                    let mut bytes = digest.to_le_bytes().to_vec();
                    bytes.extend_from_slice(text.as_bytes());
                    digest = wire::fnv1a(&bytes);
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 12 * 2 * 4 * 2);
    assert_eq!(
        digest, 0xb37b_0b9e_2bbc_c7d4,
        "interpreted tier changed: digest {digest:#018x} over {runs} runs"
    );
}
