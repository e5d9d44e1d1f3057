//! `lint store`: fault injection into the persistent fragment store.
//!
//! Builds a known-good baseline store by pretranslating the full matrix,
//! saves it, then deterministically poisons the on-disk image: seeded
//! single-bit flips across every file region, truncation at every
//! section boundary, container magic and version corruption (both raw
//! and re-sealed so only the skew itself is wrong), per-entry re-sealed
//! version/magic skew, key↔payload swaps behind an intact container
//! seal, simulated torn saves (stray partial temp files), and
//! concurrent-writer races on one path.
//!
//! Every *corruption* must be detected (broken container seal, framing
//! reject, version-skew fallback, or per-entry quarantine), and every
//! artifact that survives loading must be byte-identical to the baseline
//! entry under the same key: a poisoned store may only ever degrade to a
//! cache miss, never install differing code. Every injection then runs a
//! seeded VM cell against the poisoned store (with the `store_validator`
//! re-verification knob engaged), which must halt interpreter-identical.
//! The *recovery* scenarios (torn saves, writer races) must instead come
//! back complete: nothing lost, nothing quarantined.
//!
//! The schedule is a pure function of the scale, the seed (`--seed`,
//! default 1) and the baseline image; `ILDP_STORE_FAULTS` sets the
//! bit-flip count (default 128), and the sweep must reach 200 injections.
//! Injections are named `index:kind`; `--repro <index>` re-runs one
//! verbosely.

use super::{cell_spec, LintArgs, LintReport, ALL_CHAINS, ALL_FORMS};
use crate::store::{pretranslate_suite, run_cell_against_store, WarmOutcome};
use ildp_core::{
    wire, ArtifactKey, FragmentArtifact, FragmentStore, StoreLoadReport, ARTIFACT_MAGIC,
    ARTIFACT_VERSION, STORE_MAGIC, STORE_VERSION,
};
use spec_workloads::{suite, Workload, XorShift};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Injections below which the sweep's verdict is vacuous.
const INJECTION_FLOOR: u64 = 200;

/// One scheduled fault.
#[derive(Clone, Debug)]
enum Attack {
    /// Flip one bit of the on-disk image.
    BitFlip { byte: usize, bit: u8 },
    /// Cut the file to `len` bytes.
    Truncate { len: usize },
    /// Flip a bit inside the container magic, raw (seal also breaks).
    StoreMagicRaw,
    /// Re-seal the container under a wrong magic (only the magic is bad).
    StoreMagicResealed,
    /// Re-seal the container under a wrong version (only the skew is bad).
    StoreVersion { version: u32 },
    /// Re-seal entry `idx` under a wrong artifact version, container
    /// re-sealed clean — detection must come from quarantine.
    EntryVersion { idx: usize, version: u32 },
    /// Re-seal entry `idx` under a wrong artifact magic, container clean.
    EntryMagic { idx: usize },
    /// Swap the payloads filed under entries `a` and `b`, container
    /// clean — the embedded keys must catch the remap.
    KeySwap { a: usize, b: usize },
    /// Crash-mid-save simulation: clean target plus a stray partial
    /// sibling temp file. Must recover completely.
    TornSave { target_present: bool },
    /// Two stores holding disjoint halves race `save` onto one path.
    /// The result must strictly load as their union.
    WriterRace { round: u64 },
}

impl Attack {
    fn kind(&self) -> &'static str {
        match self {
            Attack::BitFlip { .. } => "bitflip",
            Attack::Truncate { .. } => "truncate",
            Attack::StoreMagicRaw => "store_magic_raw",
            Attack::StoreMagicResealed => "store_magic",
            Attack::StoreVersion { .. } => "store_version",
            Attack::EntryVersion { .. } => "entry_version",
            Attack::EntryMagic { .. } => "entry_magic",
            Attack::KeySwap { .. } => "key_swap",
            Attack::TornSave { .. } => "torn_save",
            Attack::WriterRace { .. } => "writer_race",
        }
    }

    /// Whether this injection is a corruption (must be detected) rather
    /// than a crash/race scenario (must recover completely).
    fn must_detect(&self) -> bool {
        !matches!(self, Attack::TornSave { .. } | Attack::WriterRace { .. })
    }
}

/// The immutable baseline every injection starts from.
struct Baseline {
    bytes: Vec<u8>,
    entries: Vec<(ArtifactKey, Arc<Vec<u8>>)>,
    by_key: HashMap<ArtifactKey, Arc<Vec<u8>>>,
}

/// What one injection observed.
#[derive(Default)]
struct Tally {
    injections: u64,
    detected: u64,
    quarantined: u64,
    load_rejects: u64,
    version_skews: u64,
    salvaged: u64,
}

impl Tally {
    fn merge(&mut self, other: &Tally) {
        self.injections += other.injections;
        self.detected += other.detected;
        self.quarantined += other.quarantined;
        self.load_rejects += other.load_rejects;
        self.version_skews += other.version_skews;
        self.salvaged += other.salvaged;
    }
}

fn mix(seed: u64, index: u64) -> XorShift {
    XorShift::new(
        (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index.wrapping_mul(0xff51_afd7_ed55_8ccd)) | 1,
    )
}

/// Re-frames `entries` (container framing only) under the given
/// container magic/version, with a fresh valid seal.
fn reframe(entries: &[(ArtifactKey, Vec<u8>)], magic: u32, version: u32) -> Vec<u8> {
    let mut p = Vec::new();
    wire::put_u32(&mut p, entries.len() as u32);
    for (key, bytes) in entries {
        wire::put_u64(&mut p, key.code_digest);
        wire::put_u64(&mut p, key.config_digest);
        wire::put_bytes(&mut p, bytes);
    }
    wire::seal(magic, version, &p)
}

/// Re-seals one artifact's payload under the given magic/version, with a
/// fresh valid per-entry seal — so only the skew itself is wrong.
fn reseal_entry(bytes: &[u8], magic: u32, version: u32) -> Vec<u8> {
    let (_, payload, seal_ok) =
        wire::open_lenient(ARTIFACT_MAGIC, bytes).expect("baseline entry envelope");
    assert!(seal_ok, "baseline entry seal must verify");
    wire::seal(magic, version, payload)
}

/// Renders the poisoned file image for a corruption attack.
fn poison(base: &Baseline, attack: &Attack) -> Vec<u8> {
    let owned: Vec<(ArtifactKey, Vec<u8>)> = base
        .entries
        .iter()
        .map(|(k, b)| (*k, b.as_ref().clone()))
        .collect();
    match *attack {
        Attack::BitFlip { byte, bit } => {
            let mut b = base.bytes.clone();
            let at = byte % b.len();
            b[at] ^= 1 << bit;
            b
        }
        Attack::Truncate { len } => base.bytes[..len.min(base.bytes.len())].to_vec(),
        Attack::StoreMagicRaw => {
            let mut b = base.bytes.clone();
            b[0] ^= 0x01;
            b
        }
        Attack::StoreMagicResealed => reframe(&owned, STORE_MAGIC ^ 0x0101_0101, STORE_VERSION),
        Attack::StoreVersion { version } => reframe(&owned, STORE_MAGIC, version),
        Attack::EntryVersion { idx, version } => {
            let mut owned = owned;
            let i = idx % owned.len();
            owned[i].1 = reseal_entry(&owned[i].1, ARTIFACT_MAGIC, version);
            reframe(&owned, STORE_MAGIC, STORE_VERSION)
        }
        Attack::EntryMagic { idx } => {
            let mut owned = owned;
            let i = idx % owned.len();
            owned[i].1 = reseal_entry(&owned[i].1, ARTIFACT_MAGIC ^ 0x0101_0101, ARTIFACT_VERSION);
            reframe(&owned, STORE_MAGIC, STORE_VERSION)
        }
        Attack::KeySwap { a, b } => {
            let mut owned = owned;
            let (a, b) = (a % owned.len(), b % owned.len());
            assert_ne!(a, b, "key swap needs two distinct entries");
            let tmp = owned[a].1.clone();
            owned[a].1 = owned[b].1.clone();
            owned[b].1 = tmp;
            reframe(&owned, STORE_MAGIC, STORE_VERSION)
        }
        Attack::TornSave { .. } | Attack::WriterRace { .. } => {
            unreachable!("scenario attacks do not render a poisoned image")
        }
    }
}

fn describe_report(r: &StoreLoadReport) -> String {
    format!(
        "loaded {} rejected {} seal_intact {} version_skew {} missing {} error {:?}",
        r.loaded, r.rejected, r.seal_intact, r.version_skew, r.missing, r.error
    )
}

/// The seeded VM differential every injection ends with: a warm cell
/// over the (possibly poisoned, possibly quarantining) store must halt
/// interpreter-identical.
fn differential(
    index: u64,
    seed: u64,
    workloads: &[Workload],
    store: &Arc<FragmentStore>,
) -> Result<(String, WarmOutcome), String> {
    let mut r = mix(seed, index);
    let w = &workloads[(r.next_u64() % workloads.len() as u64) as usize];
    let form = ALL_FORMS[(r.next_u64() % ALL_FORMS.len() as u64) as usize];
    let chain = ALL_CHAINS[(r.next_u64() % ALL_CHAINS.len() as u64) as usize];
    let spec = cell_spec(w.name, form, chain);
    let out = run_cell_against_store(w, form, chain, store, true)?;
    Ok((spec, out))
}

/// Runs one corruption injection end to end. Returns the tally, or what
/// went wrong.
fn run_corruption(
    index: u64,
    seed: u64,
    attack: &Attack,
    base: &Baseline,
    workloads: &[Workload],
    dir: &Path,
    verbose: bool,
) -> Result<Tally, String> {
    let image = poison(base, attack);
    let path = dir.join(format!("poison.{index}.bin"));
    std::fs::write(&path, &image).map_err(|e| format!("writing poisoned image: {e}"))?;
    let (store, report) = FragmentStore::open(&path);
    let (ok, bad) = store.validate_all();
    let stats = store.stats();
    if verbose {
        println!(
            "  image: {} bytes (baseline {})",
            image.len(),
            base.bytes.len()
        );
        println!("  open: {}", describe_report(&report));
        println!("  validate_all: {ok} ok, {bad} bad");
    }

    // Safety invariant: whatever survives open+validate must be
    // byte-identical to the baseline artifact under the same key. A
    // survivor with different bytes is corruption the seals missed.
    for (key, bytes) in store.raw_entries() {
        match base.by_key.get(&key) {
            Some(b) if **b == *bytes => {}
            Some(_) => {
                return Err(format!(
                    "survivor under key ({:#x},{:#x}) differs from baseline bytes",
                    key.code_digest, key.config_digest
                ));
            }
            None => {
                return Err(format!(
                    "survivor under key ({:#x},{:#x}) does not exist in the baseline",
                    key.code_digest, key.config_digest
                ));
            }
        }
    }

    let detected = !report.seal_intact
        || report.version_skew
        || report.missing
        || report.error.is_some()
        || report.rejected > 0
        || bad > 0;
    if !detected {
        return Err(format!(
            "undetected: poisoned image opened clean ({})",
            describe_report(&report)
        ));
    }

    let store = Arc::new(store);
    let (spec, out) = differential(index, seed, workloads, &store)?;
    if verbose {
        println!(
            "  differential {spec}: {} hits, {} misses, {} quarantined — interpreter-identical",
            out.warm_hits, out.warm_misses, out.store_quarantined
        );
    }
    let _ = std::fs::remove_file(&path);
    Ok(Tally {
        injections: 1,
        detected: 1,
        quarantined: bad as u64 + out.store_quarantined,
        load_rejects: stats.load_rejects,
        version_skews: report.version_skew as u64,
        salvaged: report.loaded as u64,
    })
}

/// Runs one recovery scenario (torn save or writer race).
fn run_scenario(
    index: u64,
    seed: u64,
    attack: &Attack,
    base: &Baseline,
    workloads: &[Workload],
    dir: &Path,
    verbose: bool,
) -> Result<Tally, String> {
    let path = dir.join(format!("scenario.{index}.bin"));
    let _ = std::fs::remove_file(&path);
    match *attack {
        Attack::TornSave { target_present } => {
            if target_present {
                std::fs::write(&path, &base.bytes).map_err(|e| format!("writing target: {e}"))?;
            }
            // A writer died mid-save: its temp file holds a torn prefix
            // of the image plus garbage. The rename never happened, so
            // readers and later writers must be oblivious to it.
            let torn = dir.join(format!("scenario.{index}.bin.tmp.99999"));
            let mut junk = base.bytes[..base.bytes.len() / 2].to_vec();
            junk.extend_from_slice(b"\xde\xad\xbe\xef torn write");
            std::fs::write(&torn, &junk).map_err(|e| format!("writing torn tmp: {e}"))?;

            let (store, report) = FragmentStore::open(&path);
            if verbose {
                println!("  open: {}", describe_report(&report));
            }
            if target_present {
                if report.loaded != base.entries.len()
                    || !report.seal_intact
                    || report.rejected != 0
                {
                    return Err(format!("torn save lost data: {}", describe_report(&report)));
                }
                let (ok, bad) = store.validate_all();
                if bad != 0 || ok != base.entries.len() {
                    return Err(format!("torn save: {ok} ok, {bad} bad after validate"));
                }
                // A later save must still land cleanly around the litter
                // and strict-load as the same content.
                store
                    .save(&path)
                    .map_err(|e| format!("save over litter: {e}"))?;
                let reloaded =
                    FragmentStore::load(&path).map_err(|e| format!("strict reload: {e}"))?;
                if reloaded.len() != base.entries.len() {
                    return Err(format!(
                        "strict reload holds {} entries, want {}",
                        reloaded.len(),
                        base.entries.len()
                    ));
                }
            } else if !report.missing || !store.is_empty() {
                return Err(format!(
                    "absent target must open empty+missing: {}",
                    describe_report(&report)
                ));
            }
            let store = Arc::new(store);
            let (spec, out) = differential(index, seed, workloads, &store)?;
            if out.store_quarantined != 0 {
                return Err(format!("{spec}: recovery scenario quarantined artifacts"));
            }
            if verbose {
                println!(
                    "  differential {spec}: {} hits, {} misses — interpreter-identical",
                    out.warm_hits, out.warm_misses
                );
            }
            let _ = std::fs::remove_file(&torn);
            let _ = std::fs::remove_file(&path);
            Ok(Tally {
                injections: 1,
                detected: 0,
                salvaged: if target_present {
                    base.entries.len() as u64
                } else {
                    0
                },
                ..Tally::default()
            })
        }
        Attack::WriterRace { round } => {
            let a = FragmentStore::new();
            let b = FragmentStore::new();
            for (i, (key, bytes)) in base.entries.iter().enumerate() {
                let (_, art) =
                    FragmentArtifact::from_bytes(bytes).map_err(|e| format!("baseline: {e}"))?;
                let target = if (i as u64 + round).is_multiple_of(2) {
                    &a
                } else {
                    &b
                };
                target.put(*key, &art);
            }
            let (ra, rb) = std::thread::scope(|s| {
                let ha = s.spawn(|| a.save(&path));
                let hb = s.spawn(|| b.save(&path));
                (ha.join().expect("writer a"), hb.join().expect("writer b"))
            });
            ra.map_err(|e| format!("writer a: {e}"))?;
            rb.map_err(|e| format!("writer b: {e}"))?;
            // The advisory lock serializes the two saves and the second
            // one merges the first one's file, so the result must be the
            // strict-loadable union of both halves.
            let merged = FragmentStore::load(&path).map_err(|e| format!("strict load: {e}"))?;
            if merged.len() != base.entries.len() {
                return Err(format!(
                    "race result holds {} entries, want the union of {}",
                    merged.len(),
                    base.entries.len()
                ));
            }
            let (ok, bad) = merged.validate_all();
            if bad != 0 || ok != base.entries.len() {
                return Err(format!("race result: {ok} ok, {bad} bad after validate"));
            }
            for (key, bytes) in merged.raw_entries() {
                if base.by_key.get(&key).map(|b| **b == *bytes) != Some(true) {
                    return Err(format!(
                        "race result entry ({:#x},{:#x}) differs from baseline",
                        key.code_digest, key.config_digest
                    ));
                }
            }
            let merged = Arc::new(merged);
            let (spec, out) = differential(index, seed, workloads, &merged)?;
            if out.store_quarantined != 0 {
                return Err(format!("{spec}: race scenario quarantined artifacts"));
            }
            if verbose {
                println!(
                    "  race merged {} entries; differential {spec}: {} hits, {} misses",
                    base.entries.len(),
                    out.warm_hits,
                    out.warm_misses
                );
            }
            let _ = std::fs::remove_file(&path);
            Ok(Tally {
                injections: 1,
                detected: 0,
                salvaged: base.entries.len() as u64,
                ..Tally::default()
            })
        }
        _ => unreachable!("corruption attacks run through run_corruption"),
    }
}

fn run_injection(
    index: u64,
    seed: u64,
    attack: &Attack,
    base: &Baseline,
    workloads: &[Workload],
    dir: &Path,
    verbose: bool,
) -> Result<Tally, String> {
    if attack.must_detect() {
        run_corruption(index, seed, attack, base, workloads, dir, verbose)
    } else {
        run_scenario(index, seed, attack, base, workloads, dir, verbose)
    }
}

/// Section boundaries of the container image: header fields, every entry
/// record's key / length / payload edges, and the trailer. Truncating at
/// (or one byte past) each must degrade cleanly.
fn section_boundaries(base: &Baseline) -> Vec<usize> {
    let len = base.bytes.len();
    let mut out = vec![0, 1, 4, 8, 12];
    let mut off = 12usize; // magic + version + entry count
    for (_, bytes) in &base.entries {
        out.push(off + 8); // inside the index key
        out.push(off + 16); // after the key, before the length
        out.push(off + 20); // after the length, payload begins
        off += 20 + bytes.len();
        out.push(off - 1); // final payload byte cut
        out.push(off); // clean record edge, rest of container gone
    }
    out.push(len - 9); // inside the last payload, trailer intact-but-moved
    out.push(len - 8); // trailer gone entirely
    out.push(len - 1); // one byte short
    out.sort_unstable();
    out.dedup();
    out.retain(|&b| b < len);
    // Keep the schedule bounded for big stores: the header and first/last
    // records carry all the distinct shapes.
    if out.len() > 48 {
        let head: Vec<usize> = out.iter().copied().take(24).collect();
        let tail: Vec<usize> = out.iter().copied().rev().take(24).rev().collect();
        let mut capped = head;
        capped.extend(tail);
        capped.dedup();
        return capped;
    }
    out
}

/// Builds the full deterministic injection schedule.
fn schedule(base: &Baseline, seed: u64) -> Vec<Attack> {
    let flips: usize = std::env::var("ILDP_STORE_FAULTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(128);
    let mut out = Vec::new();
    let mut r = mix(seed, 0);
    for _ in 0..flips {
        out.push(Attack::BitFlip {
            byte: (r.next_u64() % base.bytes.len() as u64) as usize,
            bit: (r.next_u64() % 8) as u8,
        });
    }
    for len in section_boundaries(base) {
        out.push(Attack::Truncate { len });
    }
    out.push(Attack::StoreMagicRaw);
    out.push(Attack::StoreMagicResealed);
    for version in [1, STORE_VERSION + 1, 99] {
        out.push(Attack::StoreVersion { version });
    }
    let n = base.entries.len();
    for k in 0..8usize {
        out.push(Attack::EntryVersion {
            idx: (r.next_u64() % n as u64) as usize,
            version: ARTIFACT_VERSION + 1 + (k as u32 % 3),
        });
        out.push(Attack::EntryMagic {
            idx: (r.next_u64() % n as u64) as usize,
        });
    }
    if n >= 2 {
        for _ in 0..16usize {
            let a = (r.next_u64() % n as u64) as usize;
            let mut b = (r.next_u64() % n as u64) as usize;
            if a == b {
                b = (a + 1) % n;
            }
            out.push(Attack::KeySwap { a, b });
        }
    }
    out.push(Attack::TornSave {
        target_present: true,
    });
    out.push(Attack::TornSave {
        target_present: false,
    });
    for round in 0..3 {
        out.push(Attack::WriterRace { round });
    }
    out
}

fn build_baseline(scale: u32) -> Result<Baseline, String> {
    let (store, report) = pretranslate_suite(scale)?;
    if report.entries < 2 {
        return Err(format!(
            "baseline store holds only {} artifacts — nothing to poison",
            report.entries
        ));
    }
    let entries = store.raw_entries();
    let by_key: HashMap<ArtifactKey, Arc<Vec<u8>>> =
        entries.iter().map(|(k, b)| (*k, Arc::clone(b))).collect();
    Ok(Baseline {
        bytes: store.to_bytes(),
        entries,
        by_key,
    })
}

fn work_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lint-store-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

pub(super) fn run(args: &LintArgs) -> Result<LintReport, String> {
    // `--repro` takes a bare index or the `index:kind` name the failure
    // report prints.
    let repro = match &args.repro {
        Some(s) => Some(
            s.split(':')
                .next()
                .and_then(|k| k.parse::<u64>().ok())
                .ok_or_else(|| format!("bad injection {s:?}: want index[:kind]"))?,
        ),
        None => None,
    };
    let seed = args.seed.unwrap_or(1);
    let mut report = LintReport::default();
    let workloads = suite(args.scale);
    println!("store: pretranslating baseline at scale {}...", args.scale);
    let base = match build_baseline(args.scale) {
        Ok(b) => b,
        Err(e) => {
            report.fail_gate("baseline", vec![e]);
            return Ok(report);
        }
    };
    println!(
        "store: baseline {} artifacts, {} bytes on disk",
        base.entries.len(),
        base.bytes.len()
    );
    let plan = schedule(&base, seed);
    let dir = work_dir();

    if let Some(index) = repro {
        let Some(attack) = plan.get(index as usize) else {
            let _ = std::fs::remove_dir_all(&dir);
            return Err(format!(
                "--repro {index} out of range (schedule holds {})",
                plan.len()
            ));
        };
        println!("store: re-running injection {index} ({attack:?})");
        match run_injection(index, seed, attack, &base, &workloads, &dir, true) {
            Ok(t) => println!(
                "injection passed: detected {} quarantined {} salvaged {}",
                t.detected, t.quarantined, t.salvaged
            ),
            Err(e) => report.fail(format!("{index}:{}", attack.kind()), vec![e]),
        }
        let _ = std::fs::remove_dir_all(&dir);
        return Ok(report);
    }

    let mut total = Tally::default();
    let mut by_kind: Vec<(&'static str, Tally)> = Vec::new();
    for (index, attack) in plan.iter().enumerate() {
        let index = index as u64;
        let tally = match run_injection(index, seed, attack, &base, &workloads, &dir, false) {
            Ok(t) => t,
            Err(e) => {
                report.fail(format!("{index}:{}", attack.kind()), vec![e]);
                Tally {
                    injections: 1,
                    ..Tally::default()
                }
            }
        };
        total.merge(&tally);
        match by_kind.iter_mut().find(|(k, _)| *k == attack.kind()) {
            Some((_, t)) => t.merge(&tally),
            None => by_kind.push((attack.kind(), tally)),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    for (kind, t) in &by_kind {
        println!(
            "{kind:<18} {:>4} injected  {:>4} detected  {:>4} quarantined  {:>5} salvaged",
            t.injections, t.detected, t.quarantined, t.salvaged
        );
    }
    let undetected = report.failures.len() as u64;
    println!(
        "\nstore: {} injections, {} detected, {} quarantined, {} load-rejects, \
         {} version-skews, {} entries salvaged, {} undetected/diverged",
        total.injections,
        total.detected,
        total.quarantined,
        total.load_rejects,
        total.version_skews,
        total.salvaged,
        undetected,
    );
    if total.injections < INJECTION_FLOOR {
        report.fail_gate(
            "floor",
            vec![format!(
                "only {} injections (< {INJECTION_FLOOR}); raise ILDP_STORE_FAULTS",
                total.injections
            )],
        );
    }
    report
        .extra("injections", total.injections)
        .extra("undetected", undetected)
        .extra("quarantined", total.quarantined)
        .extra("load_rejects", total.load_rejects);
    Ok(report)
}
