//! Loom model-checking of the two cross-thread surfaces: the
//! [`TranslatePool`] request/reply pipeline (including its supervisor)
//! and the [`FragmentStore`] publish/lookup protocol.
//!
//! Gated behind the `loom` feature so the ordinary test run never pays
//! for it:
//!
//! ```text
//! cargo test -p ildp-core --features loom --test loom_pipeline --release
//! ```
//!
//! The vendored `loom` is a std-backed stress stand-in (the build is
//! offline): `loom::model` re-runs each body many times under real OS
//! scheduling rather than exhaustively enumerating interleavings.
//! Substituting crates-io loom in the workspace manifest upgrades these
//! tests to exhaustive exploration unchanged; a ThreadSanitizer run
//! (documented in the verify skill) is the independent dynamic check.

#![cfg(feature = "loom")]

use alpha_isa::{Inst, Operand, OperateOp, Reg};
use ildp_core::{
    translate_job, ArtifactKey, CollectedFlow, FragmentArtifact, FragmentStore, PoolFaultKind,
    PoolFaults, SbEnd, SbInst, SubmitOutcome, Superblock, TranslatePool, TranslateRequest,
    Translator,
};
use loom::sync::Arc;
use loom::thread;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// A one-instruction region (two live-in GPR sources, so both forms emit
/// real copy traffic) at `base`.
fn tiny_superblock(base: u64) -> Superblock {
    Superblock {
        start: base,
        insts: vec![SbInst {
            vaddr: base,
            inst: Inst::Operate {
                op: OperateOp::Addq,
                ra: Reg::new(1),
                rb: Operand::Reg(Reg::new(2)),
                rc: Reg::new(3),
            },
            flow: CollectedFlow::Sequential,
        }],
        end: SbEnd::Cycle { next: base + 4 },
    }
}

/// Two client threads share one pool, each submitting a batch of
/// requests on its own reply channel. Every client must get exactly its
/// own regions back, and every reply must be byte-identical to the
/// synchronous reference translation — replies may be reordered across
/// workers but never crossed between clients or corrupted.
#[test]
fn pool_keeps_request_reply_pairing_under_contention() {
    loom::model(|| {
        let pool = TranslatePool::new(2);
        let clients: Vec<_> = (0..2u64)
            .map(|c| {
                let pool = std::sync::Arc::clone(&pool);
                thread::spawn(move || {
                    let translator = Translator::default();
                    let (reply, inbox) = channel();
                    let bases: Vec<u64> =
                        (0..4).map(|k| 0x1_0000 + c * 0x1000 + k * 0x100).collect();
                    for &base in &bases {
                        let outcome = pool.submit(TranslateRequest {
                            vstart: base,
                            token: base,
                            sb: tiny_superblock(base),
                            translator,
                            validator: None,
                            reply: reply.clone(),
                        });
                        assert!(
                            matches!(outcome, SubmitOutcome::Queued { .. }),
                            "an unfaulted pool with a deep queue must accept the request"
                        );
                    }
                    let mut seen: Vec<u64> = Vec::new();
                    for _ in &bases {
                        let resp = inbox
                            .recv_timeout(Duration::from_secs(30))
                            .expect("worker reply");
                        assert_eq!(resp.token, resp.vstart, "reply token must echo the request");
                        let out = resp.result.expect("unfaulted worker must translate");
                        assert!(out.verdict.is_ok());
                        let (reference, _) =
                            translate_job(&tiny_superblock(resp.vstart), &translator, None);
                        assert!(reference.verdict.is_ok());
                        assert_eq!(out.code.insts, reference.code.insts);
                        assert_eq!(out.code.meta, reference.code.meta);
                        seen.push(resp.vstart);
                    }
                    seen.sort_unstable();
                    assert_eq!(seen, bases, "client {c} got someone else's regions");
                })
            })
            .collect();
        for h in clients {
            h.join().unwrap();
        }
    });
}

/// A kill-every-job fault plan murders each worker as it picks up a
/// request: no reply ever arrives, but the supervisor must observe the
/// deaths and [`TranslatePool::heal`] must restore the pool to full
/// strength — the model for the respawn half of the failure envelope.
#[test]
fn supervisor_respawns_after_worker_kills() {
    loom::model(|| {
        let pool = TranslatePool::with_options(
            2,
            64,
            Some(PoolFaults {
                seed: 0xDEAD_BEEF,
                rate: 1,
                kinds: vec![PoolFaultKind::Kill],
                delay: Duration::ZERO,
            }),
        );
        let (reply, inbox) = channel();
        let jobs = 4u64;
        for k in 0..jobs {
            let base = 0x3_0000 + k * 0x100;
            let outcome = pool.submit(TranslateRequest {
                vstart: base,
                token: k,
                sb: tiny_superblock(base),
                translator: Translator::default(),
                validator: None,
                reply: reply.clone(),
            });
            assert!(matches!(outcome, SubmitOutcome::Queued { .. }));
        }
        // Killed workers strand queued jobs; keep healing until every
        // job has murdered a worker and the queue is drained.
        let deadline = Instant::now() + Duration::from_secs(20);
        while pool.stats().workers_killed < jobs || pool.queue_depth() > 0 {
            assert!(
                Instant::now() < deadline,
                "kill-storm never drained: {:?}",
                pool.stats()
            );
            pool.heal();
            std::thread::sleep(Duration::from_millis(1));
        }
        // After the storm, healing must restore full strength.
        let deadline = Instant::now() + Duration::from_secs(20);
        while pool.live_workers() < pool.workers() {
            assert!(Instant::now() < deadline, "pool never healed to strength");
            pool.heal();
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = pool.stats();
        assert_eq!(stats.workers_killed, jobs, "every job must kill its worker");
        assert!(
            stats.respawns >= jobs,
            "respawns {} must cover the {} killed workers",
            stats.respawns,
            jobs
        );
        // Kills reply with nothing: the VM side relies on its deadline.
        assert!(
            inbox.try_recv().is_err(),
            "a killed worker must never have replied"
        );
    });
}

/// Worker death must never corrupt the pairing of the replies that do
/// arrive. A rate-2 kill plan murders a deterministic subset of
/// submissions ([`PoolFaults::decide`] is pure, so the test precomputes
/// the victims); every survivor's reply must still carry the right
/// token and the byte-identical reference translation.
#[test]
fn surviving_replies_stay_paired_under_worker_death() {
    loom::model(|| {
        let faults = PoolFaults {
            seed: 0x5EED_CAFE,
            rate: 2,
            kinds: vec![PoolFaultKind::Kill],
            delay: Duration::ZERO,
        };
        let jobs = 6u64;
        // Submission order from one thread is sequence order, so the
        // plan's victims are known up front.
        let killed: Vec<bool> = (0..jobs).map(|seq| faults.decide(seq).is_some()).collect();
        assert!(
            killed.iter().any(|&k| k) && killed.iter().any(|&k| !k),
            "seed must produce both victims and survivors"
        );
        let pool = TranslatePool::with_options(2, 64, Some(faults));
        let translator = Translator::default();
        let (reply, inbox) = channel();
        let bases: Vec<u64> = (0..jobs).map(|k| 0x4_0000 + k * 0x100).collect();
        for (k, &base) in bases.iter().enumerate() {
            let outcome = pool.submit(TranslateRequest {
                vstart: base,
                token: k as u64,
                sb: tiny_superblock(base),
                translator,
                validator: None,
                reply: reply.clone(),
            });
            assert!(matches!(outcome, SubmitOutcome::Queued { .. }));
        }
        let survivors: Vec<u64> = bases
            .iter()
            .zip(&killed)
            .filter(|(_, &dead)| !dead)
            .map(|(&b, _)| b)
            .collect();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut seen: Vec<u64> = Vec::new();
        while seen.len() < survivors.len() {
            assert!(
                Instant::now() < deadline,
                "survivor replies never arrived: got {seen:?}, want {survivors:?}"
            );
            match inbox.recv_timeout(Duration::from_millis(50)) {
                Ok(resp) => {
                    let k = bases
                        .iter()
                        .position(|&b| b == resp.vstart)
                        .expect("reply for an unknown region");
                    assert!(!killed[k], "a killed submission must never reply");
                    assert_eq!(resp.token, k as u64, "reply token crossed submissions");
                    let out = resp.result.expect("survivor must carry a translation");
                    assert!(out.verdict.is_ok());
                    let (reference, _) =
                        translate_job(&tiny_superblock(resp.vstart), &translator, None);
                    assert_eq!(out.code.insts, reference.code.insts);
                    assert_eq!(out.code.meta, reference.code.meta);
                    seen.push(resp.vstart);
                }
                // Dead workers strand queued jobs: revive and retry.
                Err(_) => {
                    pool.heal();
                }
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, survivors, "survivor set mismatch");
        assert!(inbox.try_recv().is_err(), "no extra replies expected");
    });
}

/// Concurrent publishers racing the same key: exactly one `put` wins,
/// racing lookups observe either a miss or the complete artifact (never
/// a torn one), and one coherence `remove` empties the entry again.
#[test]
fn store_publish_lookup_remove_is_atomic() {
    let (out, _) = translate_job(&tiny_superblock(0x2_0000), &Translator::default(), None);
    let artifact = FragmentArtifact::from_translation(&out.code, Translator::default().form);
    loom::model(move || {
        let store = Arc::new(FragmentStore::new());
        let key = ArtifactKey {
            code_digest: 0x1234,
            config_digest: 0x5678,
        };
        let publishers: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::clone(&store);
                let artifact = artifact.clone();
                thread::spawn(move || store.put(key, &artifact))
            })
            .collect();
        let reader = {
            let store = Arc::clone(&store);
            let artifact = artifact.clone();
            thread::spawn(move || {
                // Concurrent with the puts: a miss or the whole artifact.
                if let Some(got) = store.get(&key) {
                    assert_eq!(got, artifact);
                }
            })
        };
        let wins: Vec<bool> = publishers.into_iter().map(|h| h.join().unwrap()).collect();
        reader.join().unwrap();
        assert_eq!(
            wins.iter().filter(|&&w| w).count(),
            1,
            "exactly one racing publisher must win"
        );
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().stores, 1);
        assert_eq!(store.get(&key).as_ref(), Some(&artifact));

        let removers: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::clone(&store);
                thread::spawn(move || store.remove(&key))
            })
            .collect();
        let removed: Vec<bool> = removers.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            removed.iter().filter(|&&r| r).count(),
            1,
            "exactly one racing invalidation must observe the entry"
        );
        assert!(store.is_empty());
        assert_eq!(store.get(&key), None);
        assert_eq!(store.stats().invalidations, 1);
    });
}
