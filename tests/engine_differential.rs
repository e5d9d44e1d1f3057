//! Differential tests for the engine's run loop.
//!
//! * A traced run (a recording sink with `TRACING = true`) and an
//!   untraced run ([`NullSink`], which compiles the record-construction
//!   path out) must be observationally identical — each passes the
//!   oracle against the interpreter, and they agree on [`EngineStats`]
//!   to the last counter. Tracing is a pure observer.
//! * Trace templates are built lazily, on a fragment's first traced
//!   entry: a VM that runs untraced and then continues traced must emit
//!   exactly the records a VM traced from the start emits over the same
//!   stretch.
//! * Every engine counter and the final registers of the scale-1 suite,
//!   over both ISA forms, all three chaining policies and 4 or 8
//!   accumulators, hash to a pinned digest. An engine change meant as a
//!   pure speed-up must leave it unchanged.

use ildp_core::oracle::{reference, End, EndState};
use ildp_core::{
    wire, ChainPolicy, EngineStats, NullSink, TraceSink, Translator, Vm, VmConfig, VmExit,
};
use ildp_isa::IsaForm;
use ildp_uarch::DynInst;
use spec_workloads::suite;

/// A tracing sink that counts records and folds every field into an FNV
/// hash, so divergence anywhere in the stream is caught without holding
/// the whole trace in memory.
#[derive(Default)]
struct HashingSink {
    records: u64,
    fnv: u64,
}

impl HashingSink {
    fn mix(&mut self, v: u64) {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        self.fnv = (self.fnv ^ v).wrapping_mul(FNV_PRIME);
    }
}

impl TraceSink for HashingSink {
    fn retire(&mut self, d: &DynInst) {
        self.records += 1;
        self.mix(d.pc);
        self.mix(d.next_pc);
        self.mix(wire::fnv1a(format!("{d:?}").as_bytes()));
    }
}

fn config(form: IsaForm, chain: ChainPolicy, acc_count: usize) -> VmConfig {
    VmConfig {
        translator: Translator {
            form,
            chain,
            acc_count,
            fuse_memory: false,
        },
        // Separate runs must agree counter-for-counter; asynchronous
        // install timing would make the interpret/execute split depend
        // on wall clock. (Async equivalence: async_determinism.)
        async_translate: false,
        ..VmConfig::default()
    }
}

/// What one run leaves behind: its end state and the engine's counters.
type Outcome = (EndState, EngineStats);

fn outcome(vm: &Vm, exit: VmExit) -> Outcome {
    (EndState::of(vm, &exit), vm.stats().engine.clone())
}

/// Panics unless both outcomes pass the oracle against the interpreter
/// and carry the same engine counters.
fn assert_identical(w: &spec_workloads::Workload, a: &Outcome, b: &Outcome, what: &str) {
    let expected = reference(&w.program, w.budget * 2).unwrap();
    for (end, _) in [a, b] {
        if let Err(e) = expected.check(end) {
            panic!("{what}: {e}");
        }
    }
    assert_eq!(a.1, b.1, "{what}: engine counters diverged");
}

fn run_with<S: TraceSink>(w: &spec_workloads::Workload, config: VmConfig, sink: &mut S) -> Outcome {
    let mut vm = Vm::new(config, &w.program);
    let exit = vm.run(w.budget * 2, sink);
    outcome(&vm, exit)
}

#[test]
fn traced_and_untraced_runs_are_observationally_identical() {
    for form in [IsaForm::Basic, IsaForm::Modified] {
        for w in suite(3) {
            let config = config(form, ChainPolicy::SwPredDualRas, 4);
            let mut sink = HashingSink::default();
            let traced = run_with(&w, config, &mut sink);
            let untraced = run_with(&w, config, &mut NullSink);
            assert!(
                sink.records > 0,
                "{}: traced run retired no records",
                w.name
            );
            assert_identical(&w, &traced, &untraced, &format!("{}/{form:?}", w.name));
            // The traced run must retire at least one record per executed
            // engine instruction (dispatch expansion adds more).
            assert!(
                sink.records >= traced.1.executed,
                "{}/{form:?}: {} records < {} executed",
                w.name,
                sink.records,
                traced.1.executed
            );
        }
    }
}

#[test]
fn tracing_is_deterministic() {
    let w = spec_workloads::by_name("gzip", 3).unwrap();
    let mut hashes = Vec::new();
    for _ in 0..2 {
        let mut sink = HashingSink::default();
        run_with(
            &w,
            config(IsaForm::Modified, ChainPolicy::SwPredDualRas, 4),
            &mut sink,
        );
        hashes.push((sink.records, sink.fnv));
    }
    assert_eq!(
        hashes[0], hashes[1],
        "trace stream varied across identical runs"
    );
}

/// Runs `w` to `mid` V-instructions with `first`, then to completion
/// traced; returns the second stretch's trace and the outcome.
fn split_run<S: TraceSink>(
    w: &spec_workloads::Workload,
    config: VmConfig,
    mid: u64,
    first: &mut S,
) -> ((u64, u64), Outcome) {
    let mut vm = Vm::new(config, &w.program);
    assert_eq!(
        vm.run(mid, first),
        VmExit::Budget,
        "{}: halted early",
        w.name
    );
    let mut second = HashingSink::default();
    let exit = vm.run(w.budget * 2, &mut second);
    ((second.records, second.fnv), outcome(&vm, exit))
}

#[test]
fn traced_continuation_of_an_untraced_run_matches_a_traced_run() {
    for form in [IsaForm::Basic, IsaForm::Modified] {
        for chain in [ChainPolicy::NoPred, ChainPolicy::SwPredDualRas] {
            for w in suite(1) {
                let config = config(form, chain, 4);
                let mut whole = Vm::new(config, &w.program);
                assert_eq!(whole.run(w.budget * 2, &mut NullSink), VmExit::Halted);
                let mid = whole.v_instructions() / 2;
                let (lazy, lazy_out) = split_run(&w, config, mid, &mut NullSink);
                let (eager, eager_out) = split_run(&w, config, mid, &mut HashingSink::default());
                assert!(lazy.0 > 0, "{}: continuation retired no records", w.name);
                assert_eq!(
                    lazy, eager,
                    "{}/{form:?}/{chain:?}: continuation trace diverged",
                    w.name
                );
                let what = format!("{}/{form:?}/{chain:?}", w.name);
                assert_identical(&w, &lazy_out, &eager_out, &what);
            }
        }
    }
}

#[test]
fn engine_counters_match_the_pinned_digest() {
    let mut digest = 0u64;
    let mut runs = 0u64;
    for form in [IsaForm::Basic, IsaForm::Modified] {
        for chain in [
            ChainPolicy::NoPred,
            ChainPolicy::SwPred,
            ChainPolicy::SwPredDualRas,
        ] {
            for acc_count in [4, 8] {
                for w in suite(1) {
                    let (end, stats) = run_with(&w, config(form, chain, acc_count), &mut NullSink);
                    assert_eq!(end.end, End::Halted, "{} ({form:?}, {chain:?})", w.name);
                    let (regs, out) = (end.regs, end.output);
                    let text = format!("{}|{regs:?}|{out:?}|{stats:?}", w.name);
                    let mut bytes = digest.to_le_bytes().to_vec();
                    bytes.extend_from_slice(text.as_bytes());
                    digest = wire::fnv1a(&bytes);
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(
        (digest, runs),
        (0x0f3c_29f7_12d3_b257, 144),
        "engine counters changed: digest {digest:#018x} over {runs} runs"
    );
}
