//! Translation-identity guard: the I-ISA the translator emits for every
//! fragment of the suite at scale 1 — both ISA forms, all three chaining
//! policies — hashes to a pinned digest. A translator change meant to be
//! a pure speed-up (a faster classifier, planner or emitter) must leave
//! this digest unchanged; a deliberate change to the emitted code updates
//! the pin in the same commit and says why.

use std::sync::Mutex;

use ildp_core::{wire, ChainPolicy, InstallReview, NullSink, Translator, Vm, VmConfig, VmExit};
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
