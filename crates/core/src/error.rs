//! Structured runtime errors.
//!
//! The engine executes fragments whose invariants are normally guaranteed
//! by the translator and audited by the verifier — but a resilient
//! runtime must not take those guarantees on faith. Conditions a hostile
//! guest or a corrupted cache can reach (a severed direct link, an
//! unresolved dual-RAS push, a dead fragment id, control running off a
//! fragment's end) surface as a [`VmError`] inside
//! [`VmExit::Fault`](crate::VmExit::Fault) instead of a panic, so the
//! embedding process survives and the fault-injection harness can assert
//! clean containment.

use std::fmt;

/// A structural invariant violated at runtime. Every variant names the
/// fragment (by raw id) where execution stopped; the architected state at
/// the fault is the last consistent fragment-boundary state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmError {
    /// A taken control transfer carried a resolved I-address but no live
    /// direct link — the target fragment vanished without the site being
    /// un-patched.
    UnlinkedTransfer {
        /// Raw id of the fragment containing the transfer.
        fragment: u32,
        /// Instruction slot of the transfer.
        index: u32,
    },
    /// A dual-RAS push still carried a local (unresolved) I-side return
    /// target at execution time.
    UnresolvedDualRas {
        /// Raw id of the fragment containing the push.
        fragment: u32,
        /// Instruction slot of the push.
        index: u32,
    },
    /// Control transferred into a fragment id whose slot has been
    /// invalidated.
    DeadFragment {
        /// The raw id of the dead fragment.
        fragment: u32,
    },
    /// Execution ran past the last instruction of a fragment without
    /// reaching a block terminal.
    FragmentOverrun {
        /// Raw id of the overrun fragment.
        fragment: u32,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            VmError::UnlinkedTransfer { fragment, index } => write!(
                f,
                "taken transfer without a live direct link (fragment {fragment}, slot {index})"
            ),
            VmError::UnresolvedDualRas { fragment, index } => write!(
                f,
                "unresolved dual-RAS push reached execution (fragment {fragment}, slot {index})"
            ),
            VmError::DeadFragment { fragment } => {
                write!(f, "control transferred into dead fragment {fragment}")
            }
            VmError::FragmentOverrun { fragment } => {
                write!(f, "execution ran off the end of fragment {fragment}")
            }
        }
    }
}

impl std::error::Error for VmError {}

/// Why a background translation request produced no usable translation.
///
/// Carried in [`TranslateResponse::result`](crate::TranslateResponse) so
/// a worker fault travels back to the submitting VM as structured data
/// instead of a lost reply or a propagated panic. The VM's response to
/// every variant is the same degradation ladder the verifier uses:
/// demote the region and let it re-heat into a leaner tier (or fall back
/// to interpretation) — never install, never wedge, never panic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TranslateError {
    /// The worker's translate/verify job panicked. The panic was caught
    /// at the worker's `catch_unwind` boundary; `message` is the panic
    /// payload (when it was a string).
    Panicked {
        /// The panic payload, best-effort stringified.
        message: String,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::Panicked { message } => {
                write!(f, "translation worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// Why a serialized snapshot or bundle could not be loaded or applied.
/// Every wire format in the workspace (snapshots, stores, `.repro`
/// bundles) shares the same envelope — magic, version, payload,
/// word-wise checksum trailer — and surfaces its failures through this type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotError {
    /// The stream does not begin with the expected magic number (wrong
    /// artifact kind, or not an artifact at all).
    BadMagic {
        /// The magic the reader expected.
        expected: u32,
        /// What the stream actually started with.
        actual: u32,
    },
    /// The format version is newer than this build understands.
    BadVersion {
        /// The version found in the stream.
        version: u32,
    },
    /// The stream ended before the structure was complete.
    Truncated,
    /// The payload does not match its checksum trailer (bit rot or a
    /// truncated write).
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        expected: u64,
        /// Checksum recomputed over the payload.
        actual: u64,
    },
    /// A store entry's embedded artifact key does not match the index key
    /// it was filed under (payloads swapped or remapped on disk — the
    /// artifact is internally consistent but is not the translation this
    /// key names, and installing it would execute the wrong code).
    KeyMismatch {
        /// `(code_digest, config_digest)` of the index key.
        index: [u64; 2],
        /// `(code_digest, config_digest)` embedded in the sealed payload.
        embedded: [u64; 2],
    },
    /// The snapshot belongs to a different guest program than the one it
    /// is being restored onto.
    ProgramMismatch {
        /// Digest of the program being restored onto.
        expected: u64,
        /// Digest recorded in the snapshot.
        actual: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SnapshotError::BadMagic { expected, actual } => {
                write!(f, "bad magic {actual:#010x} (expected {expected:#010x})")
            }
            SnapshotError::BadVersion { version } => {
                write!(f, "unsupported format version {version}")
            }
            SnapshotError::Truncated => write!(f, "stream truncated"),
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: trailer {expected:#018x}, payload {actual:#018x}"
            ),
            SnapshotError::KeyMismatch { index, embedded } => write!(
                f,
                "store entry filed under key ({:#018x}, {:#018x}) embeds key ({:#018x}, {:#018x})",
                index[0], index[1], embedded[0], embedded[1]
            ),
            SnapshotError::ProgramMismatch { expected, actual } => write!(
                f,
                "snapshot belongs to program {actual:#018x}, not {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}
