//! # ildp-core — the dynamic binary translator and co-designed VM
//!
//! The primary contribution of Kim & Smith, *Dynamic Binary Translation
//! for Accumulator-Oriented Architectures* (CGO 2003): a low-overhead DBT
//! system that translates Alpha (the V-ISA) to the accumulator-oriented
//! I-ISA, identifying inter-instruction dependence chains (strands) and
//! encoding them as accumulator assignments **without re-scheduling the
//! code** — the distributed superscalar hardware handles scheduling.
//!
//! Pipeline (paper Section 3):
//!
//! 1. interpret and profile ([`interp_block`]) with MRET hot-path detection;
//! 2. collect a superblock along the interpreted path
//!    ([`Superblock`], [`decompose`]);
//! 3. classify value usage ([`analyze`]), form strands and assign
//!    accumulators ([`plan`]);
//! 4. emit basic- or modified-form I-ISA code ([`Translator`]) with
//!    chaining per [`ChainPolicy`], install it in the [`TranslationCache`]
//!    and patch earlier exits;
//! 5. execute translated fragments ([`Engine`]) — streaming retired
//!    instructions into a timing model — with precise-trap recovery;
//! 6. the [`Vm`] orchestrates mode switching and collects the paper's
//!    statistics (Table 2, Figures 4–9).
//!
//! The same pipeline runs the paper's *code-straightening-only*
//! configuration, used to isolate chaining effects on a conventional
//! superscalar (Figures 4–6): [`Translator`] with
//! [`IsaForm::Straightened`](ildp_isa::IsaForm::Straightened) carries the
//! non-control Alpha instructions 1:1 between the same chaining code. The
//! crate also holds the [`oracle`] every tier is judged by: a reference
//! interpreter and one end-state check.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod artifact;
mod classify;
mod cost;
mod engine;
mod error;
mod fragment;
pub mod oracle;
mod pipeline;
mod profile;
mod replay;
mod snapshot;
mod strands;
mod superblock;
mod translate;
mod vm;
pub mod wire;

pub use artifact::{
    artifact_key, superblock_digest, translator_digest, ArtifactKey, FragmentArtifact,
    FragmentStore, StoreLoadReport, StoreLookup, StoreStats, ARTIFACT_MAGIC, ARTIFACT_VERSION,
    STORE_MAGIC, STORE_VERSION,
};
pub use classify::{
    analyze, analyze_oracle, CategoryCounts, Dataflow, Reaching, UsageCat, ValueId, ValueInfo,
};
pub use cost::CostModel;
pub use engine::{Engine, EngineConfig, EngineStats, FragExit, NullSink, TraceSink};
pub use error::{SnapshotError, TranslateError, VmError};
pub use fragment::{
    Fragment, FragmentId, IMeta, RecoveryEntry, TranslationCache, CODE_CACHE_BASE,
    DISPATCH_COST_INSTS, DISPATCH_IADDR, SMC_PAGE_SHIFT,
};
pub use pipeline::{
    parse_pool_faults, parse_workers, silence_injected_panics, translate_job, PoolFaultKind,
    PoolFaults, PoolStats, SubmitOutcome, TranslateOutput, TranslatePool, TranslateRequest,
    TranslateResponse, INJECTED_PANIC_MARKER,
};
pub use profile::{
    collect_superblock, collect_superblock_with_output, interp_block, Candidates, CollectionTrap,
    InterpEvent, ProfileConfig,
};
pub use replay::{ReplayEvent, ReplayLog, Sabotage, REPLAY_MAGIC, REPLAY_VERSION};
pub use snapshot::{program_digest, Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use strands::{plan, Role, TranslationPlan};
pub use superblock::{
    decompose, decompose_with, merge_region, CollectedFlow, Node, NodeInput, NodeOp, SbEnd, SbInst,
    Superblock,
};
pub use translate::{ChainPolicy, TranslateStats, TranslatedCode, TranslationTrace, Translator};
pub use vm::{
    trace_original, FlushPolicy, InstallReview, InstallValidator, OnViolation, Vm, VmConfig,
    VmExit, VmStats, POOL_INSTALL_DELAY,
};
