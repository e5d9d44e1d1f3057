//! Deterministic record–replay of the nondeterministic envelope.
//!
//! The VM itself is deterministic: given the same program and the same
//! sequence of external stimuli, every run retires the same instruction
//! stream through the same fragment boundaries. What *varies* between
//! runs is the envelope — the budgets passed to [`Vm::run`](crate::Vm::run)
//! (each pause is an observable boundary where an embedder may mutate the
//! cache), external [`notify_code_write`](crate::Vm::notify_code_write) /
//! flush calls, and the fault-injection schedule of the chaos harness. A
//! [`ReplayLog`] records that envelope so any failing run replays exactly
//! from its seed plus log, with no random generator in the loop.
//!
//! Events are **count-anchored**: a [`ReplayEvent::Run`] records the
//! *requested* budget, and `Vm::run` deterministically stops at the first
//! fragment boundary at or past it, so replaying the same budget sequence
//! reproduces the same boundary sequence. Cache-directed events address
//! fragments by entry V-address (stable across retranslation), not by
//! cache slot id.
//!
//! A [`Sabotage`] is different in kind: it is a *standing* rule modelling
//! a translator bug ("whenever the fragment at `vstart` is installed,
//! corrupt this immediate"), so a miscompile stays reproducible even
//! after a snapshot restore rebuilds the translation cache from cold.

use crate::error::SnapshotError;
use crate::wire::{self, Cursor};

/// Magic number of the replay-log wire format (`"ILPR"`).
pub const REPLAY_MAGIC: u32 = 0x5250_4C49;

/// Current replay-log format version. Logs are produced and consumed by
/// the same build, so any other version is refused. Version 5 seals with
/// the word-wise [`wire::checksum`].
pub const REPLAY_VERSION: u32 = 5;

/// One externally-applied stimulus, in application order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplayEvent {
    /// `Vm::run` was invoked with this budget; the VM paused at the first
    /// fragment boundary at or past it and the events that follow (up to
    /// the next `Run`) were applied at that pause.
    Run {
        /// The requested V-instruction budget.
        budget: u64,
    },
    /// A direct link out of the fragment entered at `fragment_vstart` was
    /// severed (`links[slot] = None`).
    LinkClear {
        /// Entry V-address of the corrupted fragment.
        fragment_vstart: u64,
        /// Instruction slot of the link.
        slot: u32,
    },
    /// A direct link was misdirected to a fragment id that never existed.
    LinkPoison {
        /// Entry V-address of the corrupted fragment.
        fragment_vstart: u64,
        /// Instruction slot of the link.
        slot: u32,
    },
    /// A resolved branch/push target was retargeted off any fragment
    /// entry.
    TargetPoison {
        /// Entry V-address of the corrupted fragment.
        fragment_vstart: u64,
        /// Instruction slot of the transfer.
        slot: u32,
    },
    /// The fragment's entry `SetVpcBase` was made to name the wrong
    /// V-address.
    VpcCorrupt {
        /// Entry V-address of the corrupted fragment.
        fragment_vstart: u64,
    },
    /// The cache epoch was bumped without dropping fragments (stale
    /// dual-RAS links fall back to dispatch).
    EpochFlip,
    /// An external write into guest memory was reported via
    /// `notify_code_write`.
    CodeWrite {
        /// Start of the written range.
        addr: u64,
        /// Length of the written range.
        len: u64,
    },
    /// The C01–C07 installed-fragment audit ran and healed every flagged
    /// fragment by precise invalidation.
    AuditHeal,
    /// A background translation finished and its fragment was installed
    /// at the fragment-boundary safe point where `at_v_insts` retired
    /// instructions had been counted. A replaying VM in scheduled mode
    /// translates synchronously but defers the install to this anchor.
    BgInstall {
        /// Entry V-address of the installed fragment.
        fragment_vstart: u64,
        /// Retired-instruction count at the installing safe point.
        at_v_insts: u64,
    },
    /// A background translation finished but its result was discarded at
    /// the safe point (the region had been demoted, invalidated by SMC,
    /// rejected by the verifier, or superseded).
    BgDrop {
        /// Entry V-address of the dropped fragment.
        fragment_vstart: u64,
        /// Retired-instruction count at the discarding safe point.
        at_v_insts: u64,
    },
    /// A staged (completed-but-not-yet-installed) translation was dropped
    /// by external fault injection before reaching its safe point.
    StagedDrop {
        /// Entry V-address of the dropped staged fragment.
        fragment_vstart: u64,
    },
    /// A re-heated region's in-flight background translation blew the
    /// configured `translate_timeout` deadline and the VM translated it
    /// synchronously instead (the deadline fallback). A replaying VM
    /// performs the same synchronous resolution at this anchor.
    PoolTimeout {
        /// Entry V-address of the timed-out region.
        fragment_vstart: u64,
        /// Retired-instruction count when the deadline expired.
        at_v_insts: u64,
    },
    /// A background translation came back as a contained worker panic
    /// (structured `TranslateError` reply); the region was demoted and
    /// left to re-heat into a leaner tier.
    PoolPanicReply {
        /// Entry V-address of the panicked region.
        fragment_vstart: u64,
        /// Retired-instruction count at the safe point that saw the reply.
        at_v_insts: u64,
    },
    /// The pool's bounded submission queue was saturated and the VM shed
    /// the request to the synchronous translation path (backpressure).
    PoolShed {
        /// Entry V-address of the shed region.
        fragment_vstart: u64,
        /// Retired-instruction count at the shedding point.
        at_v_insts: u64,
    },
    /// A hot fragment chain was re-formed into a merged region installed
    /// at its head. Promotion is derived deterministically from cache
    /// state, so a replaying VM re-derives it at the same anchor; the
    /// recorded event is the witness the replay harness compares against.
    RegionPromote {
        /// Entry V-address of the region head.
        fragment_vstart: u64,
        /// Retired-instruction count when the region installed.
        at_v_insts: u64,
    },
    /// A region re-formation was refused (verifier rejection under
    /// `OnViolation::Reject`); the head was banned from re-promotion and
    /// its constituent fragments were left untouched.
    RegionDrop {
        /// Entry V-address of the refused region head.
        fragment_vstart: u64,
        /// Retired-instruction count at the refusal.
        at_v_insts: u64,
    },
}

/// A standing translator-miscompile rule: whenever a fragment with entry
/// `vstart` is (re)installed, XOR `imm_xor` into the first immediate
/// operand at or after instruction `slot` (wrapping). Modelling the bug
/// as a rule rather than a one-shot edit keeps it active across snapshot
/// restores and cache flushes, which rebuild fragments from cold.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Sabotage {
    /// Entry V-address of the fragment to corrupt.
    pub vstart: u64,
    /// Preferred instruction slot (the applier scans forward from here).
    pub slot: u32,
    /// Bits to XOR into the immediate.
    pub imm_xor: u16,
}

/// A recorded nondeterministic envelope: seed provenance, standing
/// sabotage rules, and the event schedule.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ReplayLog {
    /// Seed of the generator that produced the schedule (provenance only;
    /// replay never consults it).
    pub seed: u64,
    /// Standing miscompile rules, re-applied on every matching install.
    pub sabotage: Vec<Sabotage>,
    /// The stimulus schedule, in application order.
    pub events: Vec<ReplayEvent>,
}

impl ReplayLog {
    /// Serializes into the enveloped wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::new();
        wire::put_u64(&mut p, self.seed);
        wire::put_u32(&mut p, self.sabotage.len() as u32);
        for s in &self.sabotage {
            wire::put_u64(&mut p, s.vstart);
            wire::put_u32(&mut p, s.slot);
            wire::put_u32(&mut p, s.imm_xor as u32);
        }
        wire::put_u32(&mut p, self.events.len() as u32);
        for ev in &self.events {
            put_event(&mut p, ev);
        }
        wire::seal(REPLAY_MAGIC, REPLAY_VERSION, &p)
    }

    /// Deserializes an artifact written by [`to_bytes`](ReplayLog::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<ReplayLog, SnapshotError> {
        let (version, payload) = wire::open(REPLAY_MAGIC, bytes)?;
        if version != REPLAY_VERSION {
            return Err(SnapshotError::BadVersion { version });
        }
        let mut c = Cursor::new(payload);
        let mut log = ReplayLog {
            seed: c.take_u64()?,
            ..ReplayLog::default()
        };
        let n = c.take_u32()? as usize;
        for _ in 0..n {
            let vstart = c.take_u64()?;
            let slot = c.take_u32()?;
            let imm_xor = c.take_u32()? as u16;
            log.sabotage.push(Sabotage {
                vstart,
                slot,
                imm_xor,
            });
        }
        let n = c.take_u32()? as usize;
        for _ in 0..n {
            log.events.push(take_event(&mut c)?);
        }
        Ok(log)
    }

    /// Drops events already reflected in a snapshot taken at `v_insts`
    /// retired instructions, keeping the standing sabotage rules — the
    /// minimization step when building a `.repro` bundle. Pre-entry
    /// cache-directed events would be no-ops against the restored VM's
    /// cold cache anyway; dropping them keeps the bundle small and the
    /// replay obviously aligned.
    pub fn trimmed_to(&self, v_insts: u64) -> ReplayLog {
        let start = self
            .events
            .iter()
            .position(|ev| matches!(*ev, ReplayEvent::Run { budget } if budget > v_insts))
            .unwrap_or(self.events.len());
        // Background install/drop events anchored at or before the
        // checkpoint are already reflected in the restored cache (or in
        // its absence: a restored VM simply re-translates), so only the
        // ones anchored past the checkpoint stay live.
        let events = self.events[start..]
            .iter()
            .filter(|ev| match **ev {
                ReplayEvent::BgInstall { at_v_insts, .. }
                | ReplayEvent::BgDrop { at_v_insts, .. }
                | ReplayEvent::PoolTimeout { at_v_insts, .. }
                | ReplayEvent::PoolPanicReply { at_v_insts, .. }
                | ReplayEvent::PoolShed { at_v_insts, .. }
                | ReplayEvent::RegionPromote { at_v_insts, .. }
                | ReplayEvent::RegionDrop { at_v_insts, .. } => at_v_insts > v_insts,
                _ => true,
            })
            .copied()
            .collect();
        ReplayLog {
            seed: self.seed,
            sabotage: self.sabotage.clone(),
            events,
        }
    }
}

fn put_event(p: &mut Vec<u8>, ev: &ReplayEvent) {
    match *ev {
        ReplayEvent::Run { budget } => {
            wire::put_u8(p, 0);
            wire::put_u64(p, budget);
        }
        ReplayEvent::LinkClear {
            fragment_vstart,
            slot,
        } => {
            wire::put_u8(p, 1);
            wire::put_u64(p, fragment_vstart);
            wire::put_u32(p, slot);
        }
        ReplayEvent::LinkPoison {
            fragment_vstart,
            slot,
        } => {
            wire::put_u8(p, 2);
            wire::put_u64(p, fragment_vstart);
            wire::put_u32(p, slot);
        }
        ReplayEvent::TargetPoison {
            fragment_vstart,
            slot,
        } => {
            wire::put_u8(p, 3);
            wire::put_u64(p, fragment_vstart);
            wire::put_u32(p, slot);
        }
        ReplayEvent::VpcCorrupt { fragment_vstart } => {
            wire::put_u8(p, 4);
            wire::put_u64(p, fragment_vstart);
        }
        ReplayEvent::EpochFlip => wire::put_u8(p, 5),
        ReplayEvent::CodeWrite { addr, len } => {
            wire::put_u8(p, 6);
            wire::put_u64(p, addr);
            wire::put_u64(p, len);
        }
        ReplayEvent::AuditHeal => wire::put_u8(p, 7),
        ReplayEvent::BgInstall {
            fragment_vstart,
            at_v_insts,
        } => {
            wire::put_u8(p, 8);
            wire::put_u64(p, fragment_vstart);
            wire::put_u64(p, at_v_insts);
        }
        ReplayEvent::BgDrop {
            fragment_vstart,
            at_v_insts,
        } => {
            wire::put_u8(p, 9);
            wire::put_u64(p, fragment_vstart);
            wire::put_u64(p, at_v_insts);
        }
        ReplayEvent::StagedDrop { fragment_vstart } => {
            wire::put_u8(p, 10);
            wire::put_u64(p, fragment_vstart);
        }
        ReplayEvent::PoolTimeout {
            fragment_vstart,
            at_v_insts,
        } => {
            wire::put_u8(p, 11);
            wire::put_u64(p, fragment_vstart);
            wire::put_u64(p, at_v_insts);
        }
        ReplayEvent::PoolPanicReply {
            fragment_vstart,
            at_v_insts,
        } => {
            wire::put_u8(p, 12);
            wire::put_u64(p, fragment_vstart);
            wire::put_u64(p, at_v_insts);
        }
        ReplayEvent::PoolShed {
            fragment_vstart,
            at_v_insts,
        } => {
            wire::put_u8(p, 13);
            wire::put_u64(p, fragment_vstart);
            wire::put_u64(p, at_v_insts);
        }
        ReplayEvent::RegionPromote {
            fragment_vstart,
            at_v_insts,
        } => {
            wire::put_u8(p, 14);
            wire::put_u64(p, fragment_vstart);
            wire::put_u64(p, at_v_insts);
        }
        ReplayEvent::RegionDrop {
            fragment_vstart,
            at_v_insts,
        } => {
            wire::put_u8(p, 15);
            wire::put_u64(p, fragment_vstart);
            wire::put_u64(p, at_v_insts);
        }
    }
}

fn take_event(c: &mut Cursor<'_>) -> Result<ReplayEvent, SnapshotError> {
    Ok(match c.take_u8()? {
        0 => ReplayEvent::Run {
            budget: c.take_u64()?,
        },
        1 => ReplayEvent::LinkClear {
            fragment_vstart: c.take_u64()?,
            slot: c.take_u32()?,
        },
        2 => ReplayEvent::LinkPoison {
            fragment_vstart: c.take_u64()?,
            slot: c.take_u32()?,
        },
        3 => ReplayEvent::TargetPoison {
            fragment_vstart: c.take_u64()?,
            slot: c.take_u32()?,
        },
        4 => ReplayEvent::VpcCorrupt {
            fragment_vstart: c.take_u64()?,
        },
        5 => ReplayEvent::EpochFlip,
        6 => ReplayEvent::CodeWrite {
            addr: c.take_u64()?,
            len: c.take_u64()?,
        },
        7 => ReplayEvent::AuditHeal,
        8 => ReplayEvent::BgInstall {
            fragment_vstart: c.take_u64()?,
            at_v_insts: c.take_u64()?,
        },
        9 => ReplayEvent::BgDrop {
            fragment_vstart: c.take_u64()?,
            at_v_insts: c.take_u64()?,
        },
        10 => ReplayEvent::StagedDrop {
            fragment_vstart: c.take_u64()?,
        },
        11 => ReplayEvent::PoolTimeout {
            fragment_vstart: c.take_u64()?,
            at_v_insts: c.take_u64()?,
        },
        12 => ReplayEvent::PoolPanicReply {
            fragment_vstart: c.take_u64()?,
            at_v_insts: c.take_u64()?,
        },
        13 => ReplayEvent::PoolShed {
            fragment_vstart: c.take_u64()?,
            at_v_insts: c.take_u64()?,
        },
        14 => ReplayEvent::RegionPromote {
            fragment_vstart: c.take_u64()?,
            at_v_insts: c.take_u64()?,
        },
        15 => ReplayEvent::RegionDrop {
            fragment_vstart: c.take_u64()?,
            at_v_insts: c.take_u64()?,
        },
        // An unknown tag means the artifact is newer than this build —
        // report it as a version problem, not corruption.
        tag => {
            return Err(SnapshotError::BadVersion {
                version: tag as u32,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReplayLog {
        ReplayLog {
            seed: 0xC0FFEE,
            sabotage: vec![Sabotage {
                vstart: 0x1_0040,
                slot: 3,
                imm_xor: 5,
            }],
            events: vec![
                ReplayEvent::Run { budget: 100 },
                ReplayEvent::LinkClear {
                    fragment_vstart: 0x1_0040,
                    slot: 7,
                },
                ReplayEvent::AuditHeal,
                ReplayEvent::Run { budget: 200 },
                ReplayEvent::EpochFlip,
                ReplayEvent::CodeWrite {
                    addr: 0x1_0000,
                    len: 8,
                },
                ReplayEvent::AuditHeal,
                ReplayEvent::Run { budget: 4_000 },
            ],
        }
    }

    #[test]
    fn wire_roundtrip_is_identity() {
        let log = sample();
        let back = ReplayLog::from_bytes(&log.to_bytes()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            ReplayLog::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn future_version_is_refused() {
        let bytes = sample().to_bytes();
        // Rewrite the version field and re-seal so only the version check
        // can fail: newer and older versions alike are refused.
        for version in [0x7f, 4] {
            let mut bytes = bytes.clone();
            bytes[4] = version;
            let body_len = bytes.len() - 8;
            let checksum = wire::checksum(&bytes[..body_len]);
            bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
            assert_eq!(
                ReplayLog::from_bytes(&bytes),
                Err(SnapshotError::BadVersion {
                    version: u32::from(version)
                })
            );
        }
    }

    #[test]
    fn trim_drops_pre_entry_events_keeps_sabotage() {
        let log = sample();
        let t = log.trimmed_to(150);
        assert_eq!(t.sabotage, log.sabotage);
        assert_eq!(t.events.first(), Some(&ReplayEvent::Run { budget: 200 }));
        assert_eq!(t.events.len(), 5);
        // Trimming past every anchor leaves only the rules.
        assert!(log.trimmed_to(10_000).events.is_empty());
    }

    #[test]
    fn background_events_roundtrip_and_trim_by_anchor() {
        let log = ReplayLog {
            seed: 9,
            sabotage: Vec::new(),
            events: vec![
                ReplayEvent::Run { budget: 100 },
                ReplayEvent::BgInstall {
                    fragment_vstart: 0x1_0040,
                    at_v_insts: 57,
                },
                ReplayEvent::Run { budget: 300 },
                ReplayEvent::BgDrop {
                    fragment_vstart: 0x1_0080,
                    at_v_insts: 150,
                },
                ReplayEvent::BgInstall {
                    fragment_vstart: 0x1_00c0,
                    at_v_insts: 260,
                },
                ReplayEvent::StagedDrop {
                    fragment_vstart: 0x1_0100,
                },
            ],
        };
        let back = ReplayLog::from_bytes(&log.to_bytes()).unwrap();
        assert_eq!(back, log);
        // A checkpoint at 200 keeps the tail Run, drops the background
        // events already reflected in it, and keeps the one still due.
        let t = log.trimmed_to(200);
        assert_eq!(
            t.events,
            vec![
                ReplayEvent::Run { budget: 300 },
                ReplayEvent::BgInstall {
                    fragment_vstart: 0x1_00c0,
                    at_v_insts: 260,
                },
                ReplayEvent::StagedDrop {
                    fragment_vstart: 0x1_0100,
                },
            ]
        );
    }

    #[test]
    fn pool_fault_events_roundtrip_and_trim_by_anchor() {
        let log = ReplayLog {
            seed: 17,
            sabotage: Vec::new(),
            events: vec![
                ReplayEvent::Run { budget: 500 },
                ReplayEvent::PoolShed {
                    fragment_vstart: 0x1_0040,
                    at_v_insts: 80,
                },
                ReplayEvent::PoolPanicReply {
                    fragment_vstart: 0x1_0080,
                    at_v_insts: 150,
                },
                ReplayEvent::PoolTimeout {
                    fragment_vstart: 0x1_00c0,
                    at_v_insts: 320,
                },
            ],
        };
        let back = ReplayLog::from_bytes(&log.to_bytes()).unwrap();
        assert_eq!(back, log);
        // Pool-fault events trim by their count anchor like the other
        // background events.
        let t = log.trimmed_to(200);
        assert_eq!(
            t.events,
            vec![
                ReplayEvent::Run { budget: 500 },
                ReplayEvent::PoolTimeout {
                    fragment_vstart: 0x1_00c0,
                    at_v_insts: 320,
                },
            ]
        );
    }

    #[test]
    fn region_events_roundtrip_and_trim_by_anchor() {
        let log = ReplayLog {
            seed: 23,
            sabotage: Vec::new(),
            events: vec![
                ReplayEvent::Run { budget: 900 },
                ReplayEvent::RegionDrop {
                    fragment_vstart: 0x1_0040,
                    at_v_insts: 120,
                },
                ReplayEvent::RegionPromote {
                    fragment_vstart: 0x1_0080,
                    at_v_insts: 640,
                },
            ],
        };
        let back = ReplayLog::from_bytes(&log.to_bytes()).unwrap();
        assert_eq!(back, log);
        // Region events are count-anchored like the other background
        // events: ones already reflected in a checkpoint trim away.
        let t = log.trimmed_to(300);
        assert_eq!(
            t.events,
            vec![
                ReplayEvent::Run { budget: 900 },
                ReplayEvent::RegionPromote {
                    fragment_vstart: 0x1_0080,
                    at_v_insts: 640,
                },
            ]
        );
    }
}
