//! Translation-identity guards over the suite at scale 1 and all three
//! chaining policies. The I-ISA the translator emits for every fragment
//! in both accumulator forms hashes to one pinned digest; the trace and
//! run counters of the code-straightening-only configuration (Figs. 4–6)
//! hash to another. Three more translator configurations each pin one
//! digest per accumulator form: two accumulators (which forces premature
//! strand terminations, so the planner re-plans), eight accumulators,
//! and the fused-memory extension. A change meant to be a pure speed-up
//! (a faster classifier, planner, emitter or engine) must leave every
//! pin unchanged; a deliberate change to the emitted code or trace
//! updates the pin in the same commit and says why.

use std::sync::Mutex;

use ildp_core::{
    wire, ChainPolicy, EngineConfig, InstallReview, InstallValidator, NullSink, TranslatedCode,
    Translator, Vm, VmConfig, VmExit,
};
use ildp_isa::IsaForm;
use spec_workloads::suite;

/// Running digest and fragment count of every translation reviewed.
static DIGEST: Mutex<(u64, u64)> = Mutex::new((0, 0));

/// Folds `text` into a running `(digest, count)`: FNV-1a (the wire
/// format's checksum) over the previous digest and `text`.
fn fold_text(d: &mut (u64, u64), text: &str) {
    let mut bytes = d.0.to_le_bytes().to_vec();
    bytes.extend_from_slice(text.as_bytes());
    *d = (wire::fnv1a(&bytes), d.1 + 1);
}

/// The emitted code of one translation as digest text: the entry
/// address, the instructions with their metadata, and the recovery table
/// in index order.
fn code_text(code: &TranslatedCode) -> String {
    let mut recovery: Vec<_> = code.recovery.iter().collect();
    recovery.sort_by_key(|(k, _)| **k);
    format!(
        "{:#x}|{:?}|{:?}|{:?}",
        code.vstart, code.insts, code.meta, recovery
    )
}

/// Install validator that folds each translation's code into [`DIGEST`].
fn fold(review: &InstallReview<'_>) -> Result<(), String> {
    fold_text(&mut DIGEST.lock().unwrap(), &code_text(review.code));
    Ok(())
}

/// A translator configuration's digest key: form, accumulator count and
/// fused memory.
type ConfigKey = (IsaForm, usize, bool);

/// A configuration's key, its `(digest, fragment count)` and its
/// premature strand terminations.
type ConfigDigest = (ConfigKey, (u64, u64), u64);

/// Running `(digest, fragment count)` and premature strand terminations of
/// the translator configuration being run.
static CONFIG_DIGEST: Mutex<((u64, u64), u64)> = Mutex::new(((0, 0), 0));

/// Install validator that folds each translation's code and its plan
/// statistics (copies, strands, premature terminations) into
/// [`CONFIG_DIGEST`].
fn fold_with_stats(review: &InstallReview<'_>) -> Result<(), String> {
    let code = review.code;
    let text = format!(
        "{}|{}|{}|{}",
        code_text(code),
        code.stats.copies,
        code.stats.strands,
        code.stats.terminations
    );
    let mut d = CONFIG_DIGEST.lock().unwrap();
    fold_text(&mut d.0, &text);
    d.1 += u64::from(code.stats.terminations);
    Ok(())
}

/// Runs every workload of the scale-1 suite to its halt under each
/// chaining policy, translating with `base` (its chaining policy
/// replaced) and reviewing every translation with `validator`.
fn run_suite(base: Translator, validator: InstallValidator) {
    for chain in [
        ChainPolicy::NoPred,
        ChainPolicy::SwPred,
        ChainPolicy::SwPredDualRas,
    ] {
        for w in suite(1) {
            let config = VmConfig {
                translator: Translator { chain, ..base },
                validator: Some(validator),
                async_translate: false,
                ..VmConfig::default()
            };
            let mut vm = Vm::new(config, &w.program);
            let exit = vm.run(w.budget * 2, &mut NullSink);
            assert_eq!(exit, VmExit::Halted, "{} ({base:?}, {chain:?})", w.name);
        }
    }
}

#[test]
fn suite_translations_match_the_pinned_digest() {
    for form in [IsaForm::Basic, IsaForm::Modified] {
        run_suite(
            Translator {
                form,
                ..Translator::default()
            },
            fold,
        );
    }
    let (digest, fragments) = *DIGEST.lock().unwrap();
    assert_eq!(
        (digest, fragments),
        (0x74f1_ef05_bbf2_5f05, 315),
        "emitted I-ISA changed: digest {digest:#018x} over {fragments} translations"
    );
}

/// Two accumulators (premature terminations and re-planning), eight
/// accumulators, and fused memory: each configuration's translations of
/// the scale-1 suite under every chaining policy, per accumulator form,
/// match the pinned digest, fragment count and termination count. Only
/// two accumulators run out.
#[test]
fn translator_configurations_match_their_pinned_digests() {
    let configs = [
        Translator {
            acc_count: 2,
            ..Translator::default()
        },
        Translator {
            acc_count: 8,
            ..Translator::default()
        },
        Translator {
            fuse_memory: true,
            ..Translator::default()
        },
    ];
    let mut got = Vec::new();
    for base in configs {
        for form in [IsaForm::Basic, IsaForm::Modified] {
            *CONFIG_DIGEST.lock().unwrap() = ((0, 0), 0);
            run_suite(Translator { form, ..base }, fold_with_stats);
            let (digest, terminations) = *CONFIG_DIGEST.lock().unwrap();
            got.push((
                (form, base.acc_count, base.fuse_memory),
                digest,
                terminations,
            ));
        }
    }
    let pinned: [ConfigDigest; 6] = [
        ((IsaForm::Basic, 2, false), (0x9dc1_0a9a_1124_b62f, 156), 30),
        (
            (IsaForm::Modified, 2, false),
            (0x5296_7e5a_336a_ddf5, 159),
            30,
        ),
        ((IsaForm::Basic, 8, false), (0x76b4_fe59_cd76_7f60, 156), 0),
        (
            (IsaForm::Modified, 8, false),
            (0x1dc0_e628_1594_41be, 159),
            0,
        ),
        ((IsaForm::Basic, 4, true), (0x5823_3f83_c696_a4a1, 159), 0),
        (
            (IsaForm::Modified, 4, true),
            (0xa30e_cfc0_ebbb_8ed0, 159),
            0,
        ),
    ];
    assert_eq!(
        got, pinned,
        "emitted I-ISA or plan statistics changed for a translator configuration"
    );
}

/// FNV-1a over a trace: every field of each retired record that the
/// superscalar model and its front end read, then the run counters.
struct TraceDigest(u64);

impl TraceDigest {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn opt(&mut self, v: Option<u64>) {
        self.word(u64::from(v.is_some()));
        self.word(v.unwrap_or(0));
    }
}

impl ildp_core::TraceSink for TraceDigest {
    fn retire(&mut self, d: &ildp_uarch::DynInst) {
        self.word(d.pc);
        self.word(u64::from(d.size));
        self.word(d.class as u64);
        for s in d.srcs {
            self.opt(s.map(u64::from));
        }
        self.opt(d.dst.map(u64::from));
        self.opt(d.mem_addr);
        self.word(d.next_pc);
        self.word(u64::from(d.taken));
        self.word(d.v_target);
        self.opt(d.ras_pair.map(|(v, _)| v));
        self.opt(d.ras_pair.map(|(_, i)| i));
        self.word(u64::from(d.vcount));
    }
}

/// The code-straightening configuration (Figs. 4–6) retires the same
/// trace and counts the same run statistics as when this pin was taken:
/// every workload of the scale-1 suite under each chaining policy.
#[test]
fn straightened_traces_match_the_pinned_digest() {
    let mut digest = TraceDigest(0xcbf2_9ce4_8422_2325);
    for chain in [
        ChainPolicy::NoPred,
        ChainPolicy::SwPred,
        ChainPolicy::SwPredDualRas,
    ] {
        for w in suite(1) {
            let config = VmConfig {
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
            };
            let mut vm = Vm::new(config, &w.program);
            let exit = vm.run(w.budget * 2, &mut digest);
            assert_eq!(exit, VmExit::Halted, "{} ({chain:?})", w.name);
            let s = vm.stats();
            for v in [
                s.fragments,
                s.interpreted,
                s.engine.executed,
                s.engine.chain_executed,
                s.engine.v_insts,
                s.engine.dispatches,
                s.engine.ras_hits,
                s.engine.ras_misses,
            ] {
                digest.word(v);
            }
        }
    }
    assert_eq!(
        digest.0, 0xa9ab_cdcf_3088_d28f,
        "straightened trace changed: digest {:#018x}",
        digest.0
    );
}
