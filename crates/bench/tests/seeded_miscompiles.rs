//! Clean corpus translations pass all four verifier passes; every seeded
//! miscompile in the shared corpus (`ildp_bench::miscompile`) is caught
//! by the pass that owns the violated invariant. The same corpus drives
//! `lint verify`'s F-rule detection phase, so rule families A–E and F
//! exercise identical injection machinery.

use ildp_bench::miscompile::{corpus, translate, verifier_seeds};
use ildp_core::ChainPolicy;
use ildp_isa::{IInst, IsaForm};
use ildp_verifier::{verify_translation, Violation};

fn rules(vs: &[Violation]) -> Vec<&'static str> {
    vs.iter().map(|v| v.rule).collect()
}

#[test]
fn clean_translations_verify_clean_in_every_configuration() {
    for sb in corpus() {
        for form in [IsaForm::Basic, IsaForm::Modified] {
            for chain in [
                ChainPolicy::NoPred,
                ChainPolicy::SwPred,
                ChainPolicy::SwPredDualRas,
            ] {
                let (code, tr) = translate(&sb, form, chain);
                let vs = verify_translation(&sb, &code, &tr);
                assert!(
                    vs.is_empty(),
                    "{form:?}/{chain:?} translation of {:#x} should verify clean:\n{}",
                    sb.start,
                    vs.iter().map(|v| format!("  {v}\n")).collect::<String>()
                );
            }
        }
    }
}

#[test]
fn every_seeded_miscompile_is_caught_by_its_rule() {
    for seed in verifier_seeds() {
        let (sb, code, tr) = seed.build();
        let vs = verify_translation(&sb, &code, &tr);
        let rs = rules(&vs);
        assert!(
            rs.contains(&seed.rule),
            "{} ({}): expected {} among {rs:?}",
            seed.rule,
            seed.name,
            seed.rule,
        );
        if seed.rule == "E03" {
            // Only the symbolic pass can see a plausible-but-wrong exit
            // target: the structural passes must all stay silent.
            assert!(
                rs.iter().all(|r| r.starts_with('E')),
                "E03 ({}): structural rules fired on a structurally intact \
                 translation: {rs:?}",
                seed.name,
            );
        }
    }
}

#[test]
fn violations_carry_structured_diagnostics() {
    let sb = ildp_bench::miscompile::fig2_superblock();
    let (mut code, tr) = translate(&sb, IsaForm::Modified, ChainPolicy::SwPredDualRas);
    if let IInst::CallTranslator { vtarget } = code.insts.last_mut().unwrap() {
        *vtarget += 4;
    }
    let v = &verify_translation(&sb, &code, &tr)[0];
    assert_eq!(v.vstart, sb.start);
    assert!(!v.expected.is_empty() && !v.actual.is_empty());
    let shown = v.to_string();
    assert!(
        shown.contains("E0") && shown.contains("expected"),
        "{shown}"
    );
}
