//! Wire-format robustness of the persistent fragment store: roundtrip
//! fidelity under arbitrary cells, an exhaustive single-byte-flip sweep
//! over a serialized image, and an exhaustive bit-flip, word-swap and
//! truncation sweep against the word-wise envelope checksum. Every mutation must load equal or be
//! rejected (error or per-entry quarantine) — never panic, never
//! silently install an artifact whose bytes differ from what was saved.

use ildp_core::{
    wire, ChainPolicy, FragmentArtifact, FragmentStore, NullSink, StoreLookup, Translator, Vm,
    VmConfig, VmExit, ARTIFACT_MAGIC, STORE_MAGIC, STORE_VERSION,
};
use ildp_isa::{IInst, IsaForm};
use proptest::prelude::*;
use spec_workloads::{by_name, NAMES};
use std::collections::HashMap;
use std::sync::Arc;

/// Pretranslates one (workload × form × chain) cell into a fresh store.
fn populate(widx: usize, form: IsaForm, chain: ChainPolicy) -> Arc<FragmentStore> {
    let w = by_name(NAMES[widx % NAMES.len()], 1).unwrap();
    let config = VmConfig {
        translator: Translator {
            form,
            chain,
            ..Translator::default()
        },
        async_translate: false,
        ..VmConfig::default()
    };
    let store = Arc::new(FragmentStore::new());
    let mut vm = Vm::new(config, &w.program);
    vm.attach_store(Arc::clone(&store));
    let exit = vm.run(w.budget * 2, &mut NullSink);
    assert!(matches!(exit, VmExit::Halted | VmExit::Budget));
    store
}

/// Checks the only acceptable outcomes of loading `image` whose baseline
/// content is `baseline`: every entry that survives the resilient open
/// plus force-validation is byte-identical to the baseline artifact
/// under the same key.
fn assert_degrades_safely(image: &[u8], baseline: &HashMap<[u64; 2], Vec<u8>>) {
    let (store, _report) = FragmentStore::open_bytes(image);
    store.validate_all();
    for (key, bytes) in store.raw_entries() {
        let k = [key.code_digest, key.config_digest];
        match baseline.get(&k) {
            Some(b) => assert_eq!(
                b.as_slice(),
                bytes.as_slice(),
                "survivor under {k:x?} differs from the saved artifact"
            ),
            None => panic!("survivor under {k:x?} never existed in the baseline"),
        }
    }
}

fn baseline_map(store: &FragmentStore) -> HashMap<[u64; 2], Vec<u8>> {
    store
        .raw_entries()
        .into_iter()
        .map(|(k, b)| ([k.code_digest, k.config_digest], b.as_ref().clone()))
        .collect()
}

#[test]
fn exhaustive_single_byte_flip_sweep() {
    let store = populate(0, IsaForm::Modified, ChainPolicy::SwPredDualRas);
    assert!(store.len() >= 2, "cell translated too few fragments");
    let image = store.to_bytes();
    let baseline = baseline_map(&store);

    for at in 0..image.len() {
        let mut mutated = image.clone();
        mutated[at] ^= 0xff;
        // The strict loader covers every byte with the container seal:
        // any single-byte change must be an error, never a different
        // store.
        assert!(
            FragmentStore::from_bytes(&mutated).is_err(),
            "strict load accepted a flip at byte {at}"
        );
        // The resilient loader may salvage entries the flip missed, but
        // whatever survives must be byte-identical to what was saved.
        assert_degrades_safely(&mutated, &baseline);
    }
}

/// Every single-bit flip, every swap of two distinct aligned 8-byte words
/// and every truncation of `image`, each with a description.
fn seal_attacks(image: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let flips = (0..image.len() * 8).map(move |bit| {
        let mut m = image.to_vec();
        m[bit / 8] ^= 1 << (bit % 8);
        (format!("bit flip {bit}"), m)
    });
    let words = image.len() / 8;
    let swaps = (0..words)
        .flat_map(move |i| (i + 1..words).map(move |j| (i, j)))
        .filter(move |&(i, j)| image[8 * i..8 * i + 8] != image[8 * j..8 * j + 8])
        .map(move |(i, j)| {
            let mut m = image.to_vec();
            for b in 0..8 {
                m.swap(8 * i + b, 8 * j + b);
            }
            (format!("swap of words {i} and {j}"), m)
        });
    let cuts =
        (0..image.len()).map(move |len| (format!("truncation to {len}"), image[..len].to_vec()));
    flips.chain(swaps).chain(cuts)
}

#[test]
fn word_wise_seal_refuses_flips_swaps_and_truncations() {
    let store = populate(0, IsaForm::Modified, ChainPolicy::SwPredDualRas);
    let entries = store.raw_entries();
    assert!(entries.len() >= 2, "cell translated too few fragments");

    // One real artifact: every attack is a decode error, and served from
    // a store it is a quarantined miss.
    let (key, artifact) = &entries[0];
    for (what, bytes) in seal_attacks(artifact) {
        assert!(
            FragmentArtifact::from_bytes(&bytes).is_err(),
            "artifact {what} decoded"
        );
        let mut p = Vec::new();
        wire::put_u32(&mut p, 1);
        wire::put_u64(&mut p, key.code_digest);
        wire::put_u64(&mut p, key.config_digest);
        wire::put_bytes(&mut p, &bytes);
        let (served, _) = FragmentStore::open_bytes(&wire::seal(STORE_MAGIC, STORE_VERSION, &p));
        assert!(
            matches!(served.lookup(key), StoreLookup::Quarantined(_)),
            "artifact {what} was not quarantined"
        );
    }

    // One two-entry store container: every attack fails the strict load,
    // and whatever the resilient open salvages is byte-identical.
    let pair = FragmentStore::new();
    for (key, bytes) in &entries[..2] {
        pair.put(*key, &FragmentArtifact::from_bytes(bytes).unwrap().1);
    }
    let image = pair.to_bytes();
    let baseline = baseline_map(&pair);
    for (what, bytes) in seal_attacks(&image) {
        assert!(
            FragmentStore::from_bytes(&bytes).is_err(),
            "store {what} loaded"
        );
        assert_degrades_safely(&bytes, &baseline);
    }
}

/// The artifact's form byte is strict: a payload resealed with an
/// undefined form value (so its checksum holds) is refused rather than
/// read as some form.
#[test]
fn undefined_form_byte_is_refused() {
    let store = populate(0, IsaForm::Modified, ChainPolicy::SwPredDualRas);
    let (key, bytes) = store.raw_entries().swap_remove(0);
    let (version, payload) = wire::open(ARTIFACT_MAGIC, &bytes).unwrap();
    // The embedded key (16 bytes) and the entry address (8) precede it.
    const FORM_AT: usize = 24;
    let mut payload = payload.to_vec();
    assert_eq!(payload[FORM_AT], 1, "the modified form's byte");
    let reseal = |p: &[u8]| wire::seal(ARTIFACT_MAGIC, version, p);
    assert_eq!(
        FragmentArtifact::from_bytes(&reseal(&payload)).unwrap().0,
        key
    );
    payload[FORM_AT] = 7;
    assert!(FragmentArtifact::from_bytes(&reseal(&payload)).is_err());
}

/// Carried Alpha instructions decode only under the straightened form: a
/// straightened payload resealed as basic or modified is refused.
#[test]
fn alpha_instructions_outside_the_straightened_form_are_refused() {
    let store = populate(0, IsaForm::Straightened, ChainPolicy::SwPredDualRas);
    let (key, bytes) = store
        .raw_entries()
        .into_iter()
        .find(|(_, b)| {
            let art = FragmentArtifact::from_bytes(b).unwrap().1;
            art.insts.iter().any(|i| matches!(i, IInst::Alpha(_)))
        })
        .expect("a straightened fragment carries Alpha instructions");
    let (version, payload) = wire::open(ARTIFACT_MAGIC, &bytes).unwrap();
    const FORM_AT: usize = 24;
    let mut payload = payload.to_vec();
    assert_eq!(payload[FORM_AT], 2, "the straightened form's byte");
    let reseal = |p: &[u8]| wire::seal(ARTIFACT_MAGIC, version, p);
    assert_eq!(
        FragmentArtifact::from_bytes(&reseal(&payload)).unwrap().0,
        key
    );
    for other in [0, 1] {
        payload[FORM_AT] = other;
        assert!(
            FragmentArtifact::from_bytes(&reseal(&payload)).is_err(),
            "Alpha instructions decoded under form byte {other}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn store_roundtrip_is_byte_faithful(
        widx in 0usize..NAMES.len(),
        form_idx in 0usize..3,
        chain_idx in 0usize..3,
    ) {
        let form = [IsaForm::Basic, IsaForm::Modified, IsaForm::Straightened][form_idx];
        let chain =
            [ChainPolicy::NoPred, ChainPolicy::SwPred, ChainPolicy::SwPredDualRas][chain_idx];
        let store = populate(widx, form, chain);
        let image = store.to_bytes();

        let reloaded = FragmentStore::from_bytes(&image).unwrap();
        prop_assert_eq!(reloaded.len(), store.len());
        // Container re-encode is deterministic and byte-identical.
        prop_assert_eq!(reloaded.to_bytes(), image);
        // Every artifact decodes and re-encodes to the exact entry bytes.
        for (key, bytes) in store.raw_entries() {
            let (embedded, art) = FragmentArtifact::from_bytes(&bytes).unwrap();
            prop_assert_eq!(embedded, key);
            prop_assert_eq!(art.to_bytes(key), *bytes);
        }
        let (ok, bad) = reloaded.validate_all();
        prop_assert_eq!((ok, bad), (store.len(), 0));
    }

    #[test]
    fn random_corruption_never_installs_differing_code(
        widx in 0usize..NAMES.len(),
        modified in any::<bool>(),
        chain_idx in 0usize..3,
        seed in any::<u64>(),
        burst in 1usize..6,
        truncate in any::<bool>(),
    ) {
        let form = if modified { IsaForm::Modified } else { IsaForm::Basic };
        let chain =
            [ChainPolicy::NoPred, ChainPolicy::SwPred, ChainPolicy::SwPredDualRas][chain_idx];
        let store = populate(widx, form, chain);
        let image = store.to_bytes();
        let baseline = baseline_map(&store);

        // A deterministic burst of byte corruptions (and optionally a
        // truncation) derived from the seed.
        let mut mutated = image.clone();
        let mut x = seed | 1;
        for _ in 0..burst {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let at = (x % mutated.len() as u64) as usize;
            let mask = (x >> 32) as u8 | 1;
            mutated[at] ^= mask;
        }
        if truncate {
            let keep = (x % image.len() as u64) as usize;
            mutated.truncate(keep);
        }
        if mutated != image {
            prop_assert!(FragmentStore::from_bytes(&mutated).is_err());
        }
        assert_degrades_safely(&mutated, &baseline);
    }
}
