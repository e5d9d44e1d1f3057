//! Translation-identity guards over the suite at scale 1 and all three
//! chaining policies. The I-ISA the translator emits for every fragment
//! in both accumulator forms hashes to one pinned digest; the trace and
//! run counters of the code-straightening-only configuration (Figs. 4–6)
//! hash to another. A change meant to be a pure speed-up (a faster
//! classifier, planner, emitter or engine) must leave both unchanged; a
//! deliberate change to the emitted code or trace updates the pin in the
//! same commit and says why.

use std::sync::Mutex;

use ildp_core::{
    wire, ChainPolicy, EngineConfig, InstallReview, NullSink, Translator, Vm, VmConfig, VmExit,
};
use ildp_isa::IsaForm;
use spec_workloads::suite;

/// Running digest and fragment count of every translation reviewed.
static DIGEST: Mutex<(u64, u64)> = Mutex::new((0, 0));

/// Install validator that folds each translation into [`DIGEST`]:
/// FNV-1a (the wire format's checksum) over the entry address, the
/// instructions with their metadata, and the recovery table in index
/// order.
fn fold(review: &InstallReview<'_>) -> Result<(), String> {
    let code = review.code;
    let mut recovery: Vec<_> = code.recovery.iter().collect();
    recovery.sort_by_key(|(k, _)| **k);
    let text = format!(
        "{:#x}|{:?}|{:?}|{:?}",
        code.vstart, code.insts, code.meta, recovery
    );
    let mut d = DIGEST.lock().unwrap();
    let mut bytes = d.0.to_le_bytes().to_vec();
    bytes.extend_from_slice(text.as_bytes());
    *d = (wire::fnv1a(&bytes), d.1 + 1);
    Ok(())
}

#[test]
fn suite_translations_match_the_pinned_digest() {
    for form in [IsaForm::Basic, IsaForm::Modified] {
        for chain in [
            ChainPolicy::NoPred,
            ChainPolicy::SwPred,
            ChainPolicy::SwPredDualRas,
        ] {
            for w in suite(1) {
                let config = VmConfig {
                    translator: Translator {
                        form,
                        chain,
                        ..Translator::default()
                    },
                    validator: Some(fold),
                    async_translate: false,
                    ..VmConfig::default()
                };
                let mut vm = Vm::new(config, &w.program);
                let exit = vm.run(w.budget * 2, &mut NullSink);
                assert_eq!(exit, VmExit::Halted, "{} ({form:?}, {chain:?})", w.name);
            }
        }
    }
    let (digest, fragments) = *DIGEST.lock().unwrap();
    assert_eq!(
        (digest, fragments),
        (0x74f1_ef05_bbf2_5f05, 315),
        "emitted I-ISA changed: digest {digest:#018x} over {fragments} translations"
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
