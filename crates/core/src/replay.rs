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
/// the same build, so any other version is refused. Version 5 sealed with
/// the word-wise [`wire::checksum`]; version 6 dropped the background
/// install, drop and pool-fault events (tags 8, 9, 11–13), which count
/// anchors made derivable.
pub const REPLAY_VERSION: u32 = 6;

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
    /// A region parked until its count anchor was dropped by external
    /// fault injection before the anchor, whether its code was still on
    /// the pool or already back.
    StagedDrop {
        /// Entry V-address of the dropped region.
        fragment_vstart: u64,
    },
    /// A hot fragment chain was re-formed into a merged region installed
    /// at its head. Promotion is derived deterministically from cache
    /// state, so every run of the same program and configuration
    /// re-derives it at the same anchor; the recorded event is the witness
    /// the replay harness compares against.
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
        // Region events anchored at or before the checkpoint are already
        // reflected in the restored state, so only the ones anchored past
        // the checkpoint stay live.
        let events = self.events[start..]
            .iter()
            .filter(|ev| match **ev {
                ReplayEvent::RegionPromote { at_v_insts, .. }
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
        ReplayEvent::StagedDrop { fragment_vstart } => {
            wire::put_u8(p, 10);
            wire::put_u64(p, fragment_vstart);
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
        10 => ReplayEvent::StagedDrop {
            fragment_vstart: c.take_u64()?,
        },
        14 => ReplayEvent::RegionPromote {
            fragment_vstart: c.take_u64()?,
            at_v_insts: c.take_u64()?,
        },
        15 => ReplayEvent::RegionDrop {
            fragment_vstart: c.take_u64()?,
            at_v_insts: c.take_u64()?,
        },
        // An unknown tag (tags 8, 9 and 11–13 are retired) means the
        // artifact was written by another build — report it as a version
        // problem, not corruption.
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
        // can fail: newer and older versions alike are refused, including
        // version 5, whose retired background-event tags would misread.
        for version in [0x7f, 5] {
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
    fn staged_drops_roundtrip_and_survive_trimming() {
        let log = ReplayLog {
            seed: 9,
            sabotage: Vec::new(),
            events: vec![
                ReplayEvent::Run { budget: 100 },
                ReplayEvent::StagedDrop {
                    fragment_vstart: 0x1_0040,
                },
                ReplayEvent::Run { budget: 300 },
                ReplayEvent::StagedDrop {
                    fragment_vstart: 0x1_0100,
                },
            ],
        };
        let back = ReplayLog::from_bytes(&log.to_bytes()).unwrap();
        assert_eq!(back, log);
        // A checkpoint at 200 keeps the tail Run and the injection the
        // pause ending it applies.
        let t = log.trimmed_to(200);
        assert_eq!(t.events, log.events[2..]);
    }

    #[test]
    fn retired_background_tags_are_refused_as_version_skew() {
        // A version-5 payload carrying a tag-8 install event, re-sealed
        // under the current version: the tag alone must be refused.
        for tag in [8u8, 9, 11, 12, 13] {
            let mut p = Vec::new();
            wire::put_u64(&mut p, 1);
            wire::put_u32(&mut p, 0);
            wire::put_u32(&mut p, 1);
            wire::put_u8(&mut p, tag);
            wire::put_u64(&mut p, 0x1_0040);
            wire::put_u64(&mut p, 57);
            let bytes = wire::seal(REPLAY_MAGIC, REPLAY_VERSION, &p);
            assert_eq!(
                ReplayLog::from_bytes(&bytes),
                Err(SnapshotError::BadVersion {
                    version: u32::from(tag)
                })
            );
        }
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
