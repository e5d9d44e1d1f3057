//! Deterministic fault injection against the supervised translation
//! pool.
//!
//! Where `crate::chaos` corrupts *installed* translations, this harness
//! attacks the machinery that produces them: seeded worker panics,
//! worker kills, dropped replies, unbounded-latency delays, poisoned
//! queue locks, and queue saturation, injected by the pool's own
//! [`PoolFaults`] plan while a real workload runs. The VM's failure
//! envelope must hold under every mix:
//!
//! - the run halts with the architected state of a pure interpreter —
//!   every fault falls back to inline translation for the same count
//!   anchor, never to wrong code;
//! - no single VM step blocks beyond [`VmConfig::translate_timeout`]
//!   (plus scheduling slack) — measured by
//!   [`ildp_core::VmStats::pool_await_max_nanos`];
//! - every injected fault is visible in the pool/VM ledgers: after the
//!   queue drains, `submitted == completed + kills + dropped replies`,
//!   every queue saturation appears as a VM-side shed, and a poisoned
//!   lock is followed by a counted recovery;
//! - the pool heals back to full worker strength on demand;
//! - the faulted run retires exactly what a run without a pool at the
//!   same install delay retires: identical end state and identical
//!   statistics once wall clocks and fault counters are zeroed
//!   ([`unfaulted`]). Faults move counters, never the trajectory.
//!
//! Each cell (workload × form × chain) runs one of three scenarios,
//! rotated by chain policy so the full sweep covers every fault kind:
//! `panic_kill` (every request panics or murders its worker),
//! `drop_delay_poison` (replies vanish, workers stall past the VM
//! deadline, the queue lock is poisoned externally and from workers),
//! and `saturate_mixed` (a one-slot queue on a single worker plus every
//! fault kind at rate 2 — backpressure shedding under fire).
//!
//! A timeout does not change the run, so the deadline and the injected
//! stalls are short: a spurious timeout on a loaded host costs a counter,
//! not a verdict. Which requests time out, and under
//! `saturate_mixed` which ones are shed, is timing by nature; the install
//! trajectory is not.

use crate::chaos::{cell_config, unfaulted};
use crate::lint::cell_spec;
use ildp_core::oracle::{self, EndState};
use ildp_core::{
    silence_injected_panics, ChainPolicy, NullSink, PoolFaultKind, PoolFaults, TranslatePool, Vm,
    VmConfig, POOL_INSTALL_DELAY,
};
use ildp_isa::IsaForm;
use spec_workloads::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The tight translate deadline every `lint pool` cell runs under: long
/// enough that an unfaulted reply usually beats it, short enough that
/// the harness spends little time waiting out kill/drop/delay faults.
pub const POOL_TIMEOUT: Duration = Duration::from_micros(500);

/// Scheduling slack allowed on top of [`POOL_TIMEOUT`] before a blocked
/// await counts as a liveness violation (loaded hosts stall).
pub const AWAIT_SLACK: Duration = Duration::from_millis(100);

/// How long a [`PoolFaultKind::Delay`] injection stalls its worker: well
/// past [`POOL_TIMEOUT`], so the late reply arrives after the VM gave up.
const INJECTED_DELAY: Duration = Duration::from_millis(2);

/// How long a cell may spend draining the queue and healing the pool
/// after its run before the harness calls it wedged.
const SETTLE_DEADLINE: Duration = Duration::from_secs(2);

/// One seeded pool-fault configuration a cell runs under.
pub struct PoolScenario {
    /// Scenario name, for failure messages.
    pub name: &'static str,
    /// Worker threads in the private pool.
    pub workers: usize,
    /// Bounded queue capacity.
    pub queue_cap: usize,
    /// The seeded fault plan.
    pub faults: PoolFaults,
    /// Whether to poison the queue lock externally before the run
    /// ([`TranslatePool::poison_queue_lock`]).
    pub poison_before: bool,
}

/// The scenario a cell runs, rotated by chain policy so the sweep's
/// three chain columns cover every fault kind.
pub fn scenario_for(chain: ChainPolicy, fault_seed: u64) -> PoolScenario {
    match chain {
        ChainPolicy::NoPred => PoolScenario {
            name: "panic_kill",
            workers: 2,
            queue_cap: 64,
            faults: PoolFaults {
                seed: fault_seed,
                rate: 1,
                kinds: vec![PoolFaultKind::Panic, PoolFaultKind::Kill],
                delay: Duration::ZERO,
            },
            poison_before: false,
        },
        ChainPolicy::SwPred => PoolScenario {
            name: "drop_delay_poison",
            workers: 2,
            queue_cap: 64,
            faults: PoolFaults {
                seed: fault_seed,
                rate: 1,
                kinds: vec![
                    PoolFaultKind::DropReply,
                    PoolFaultKind::Delay,
                    PoolFaultKind::PoisonQueue,
                ],
                delay: INJECTED_DELAY,
            },
            poison_before: true,
        },
        ChainPolicy::SwPredDualRas => PoolScenario {
            name: "saturate_mixed",
            workers: 1,
            queue_cap: 1,
            faults: PoolFaults {
                seed: fault_seed,
                rate: 2,
                kinds: vec![
                    PoolFaultKind::Panic,
                    PoolFaultKind::Kill,
                    PoolFaultKind::DropReply,
                    PoolFaultKind::Delay,
                    PoolFaultKind::PoisonQueue,
                ],
                delay: INJECTED_DELAY,
            },
            poison_before: false,
        },
    }
}

/// Tally of one `lint pool` cell.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct PoolReport {
    /// Total faults injected (all pool-side injection counters).
    pub injections: u64,
    /// Worker panics contained at the `catch_unwind` boundary.
    pub panics: u64,
    /// Workers murdered mid-job.
    pub kills: u64,
    /// Completed jobs whose reply was dropped.
    pub reply_drops: u64,
    /// Injected worker stalls.
    pub delays: u64,
    /// Queue-lock poisonings (worker-side and external).
    pub poisons: u64,
    /// Submissions refused by the bounded queue.
    pub saturations: u64,
    /// Workers respawned by the supervisor (including heal calls).
    pub respawns: u64,
    /// VM-side deadline expiries that fell back to sync translation.
    pub timeouts: u64,
    /// VM-side backpressure sheds.
    pub sheds: u64,
    /// Regions resolved by the synchronous degradation path.
    pub sync_fallbacks: u64,
    /// Poisoned-lock acquisitions recovered.
    pub lock_recoveries: u64,
    /// Translations installed at their count anchor — a pure function
    /// of the workload and configuration, faults or not.
    pub installs: u64,
    /// Injected faults that escaped the ledgers: queued jobs
    /// unaccounted for after the drain, poisonings never followed by a
    /// recovery, or saturations the VM did not shed. Any non-zero value
    /// is a containment gap.
    pub undetected: u64,
}

impl PoolReport {
    /// Folds another cell's tally into this one.
    pub fn merge(&mut self, other: &PoolReport) {
        self.injections += other.injections;
        self.panics += other.panics;
        self.kills += other.kills;
        self.reply_drops += other.reply_drops;
        self.delays += other.delays;
        self.poisons += other.poisons;
        self.saturations += other.saturations;
        self.respawns += other.respawns;
        self.timeouts += other.timeouts;
        self.sheds += other.sheds;
        self.sync_fallbacks += other.sync_fallbacks;
        self.lock_recoveries += other.lock_recoveries;
        self.installs += other.installs;
        self.undetected += other.undetected;
    }
}

/// Derives a cell's fault-plan seed from the sweep seed and the cell
/// spec, so every cell draws a distinct, reproducible plan (FNV-1a over
/// the spec string, xored with the sweep seed).
pub fn fault_seed(sweep_seed: u64, spec: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in spec.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ sweep_seed
}

/// Runs one cell: a workload under seeded pool-fault injection, then
/// every envelope gate (architected equality, liveness, ledger
/// accounting, heal, equality with a run without a pool). `Err` carries
/// the first gate
/// violation; `Ok` carries the cell tally (whose `undetected` field the
/// caller must still gate on zero).
pub fn pool_cell(
    w: &Workload,
    form: IsaForm,
    chain: ChainPolicy,
    seed: u64,
) -> Result<PoolReport, String> {
    silence_injected_panics();
    let cell = format!("{}:{seed}", cell_spec(w.name, form, chain));
    let scenario = scenario_for(chain, fault_seed(seed, &cell));
    let config = VmConfig {
        translate_timeout: POOL_TIMEOUT,
        ..cell_config(form, chain)
    };
    let budget = w.budget * 2;
    let reference = oracle::reference(&w.program, budget).map_err(|e| format!("{cell}: {e}"))?;

    let pool = TranslatePool::with_options(
        scenario.workers,
        scenario.queue_cap,
        Some(scenario.faults.clone()),
    );
    let mut vm = Vm::new(config, &w.program);
    vm.attach_pool(Arc::clone(&pool));
    if scenario.poison_before {
        pool.poison_queue_lock();
    }

    let exit = vm.run(budget, &mut NullSink);

    // Gate 1: the oracle — a faulted pipeline may cost time, never
    // correctness.
    reference
        .check(&EndState::of(&vm, &exit))
        .map_err(|e| format!("{cell} [{}]: {e}", scenario.name))?;

    // Gate 2: liveness — no await blocked past the deadline (+ slack).
    let stats = vm.stats().clone();
    let cap = (POOL_TIMEOUT + AWAIT_SLACK).as_nanos() as u64;
    if stats.pool_await_max_nanos > cap {
        return Err(format!(
            "{cell} [{}]: a VM step blocked {}ns, deadline+slack is {}ns",
            scenario.name, stats.pool_await_max_nanos, cap
        ));
    }

    // Gate 3: ledger accounting. Heal stranded queue entries (dead
    // workers leave jobs behind) and wait for the drain, then require
    // every queued job to be accounted: completed, killed with it, or
    // its reply dropped.
    let settle = Instant::now() + SETTLE_DEADLINE;
    let ps = loop {
        let ps = pool.stats();
        let drained = pool.queue_depth() == 0
            && ps.submitted == ps.completed + ps.workers_killed + ps.replies_dropped;
        if drained || Instant::now() >= settle {
            break ps;
        }
        pool.heal();
        std::thread::sleep(Duration::from_millis(1));
    };
    let mut undetected = 0u64;
    undetected += ps
        .submitted
        .saturating_sub(ps.completed + ps.workers_killed + ps.replies_dropped);
    // Every refused submission must surface as a VM-side shed (private
    // pool, single VM: the counters must agree exactly).
    if stats.pool_shed != ps.saturations {
        undetected += stats.pool_shed.abs_diff(ps.saturations);
    }
    // A poisoned lock without a counted recovery means some acquisition
    // path bypassed the recovering lock helper.
    if ps.poisons_injected > 0 && ps.lock_recoveries == 0 {
        undetected += 1;
    }

    // Gate 4: the pool heals back to full strength on demand.
    let heal_deadline = Instant::now() + SETTLE_DEADLINE;
    while pool.live_workers() < pool.workers() {
        if Instant::now() >= heal_deadline {
            return Err(format!(
                "{cell} [{}]: pool stuck at {}/{} workers after heal",
                scenario.name,
                pool.live_workers(),
                pool.workers()
            ));
        }
        pool.heal();
        std::thread::sleep(Duration::from_millis(1));
    }
    let ps = pool.stats();

    // Gate 5: faults move counters, never the trajectory — the faulted
    // run equals a run without a pool at the same install delay.
    let mut parked = Vm::new(
        VmConfig {
            install_delay: Some(POOL_INSTALL_DELAY),
            ..config
        },
        &w.program,
    );
    let parked_exit = parked.run(budget, &mut NullSink);
    EndState::of(&parked, &parked_exit)
        .check(&EndState::of(&vm, &exit))
        .map_err(|e| format!("{cell} [{}]: run without a pool: {e}", scenario.name))?;
    if unfaulted(parked.stats()) != unfaulted(&stats) {
        return Err(format!(
            "{cell} [{}]: statistics differ from the run without a pool",
            scenario.name
        ));
    }

    Ok(PoolReport {
        injections: ps.panics_caught
            + ps.workers_killed
            + ps.replies_dropped
            + ps.delays_injected
            + ps.poisons_injected
            + ps.saturations,
        panics: ps.panics_caught,
        kills: ps.workers_killed,
        reply_drops: ps.replies_dropped,
        delays: ps.delays_injected,
        poisons: ps.poisons_injected,
        saturations: ps.saturations,
        respawns: ps.respawns,
        timeouts: stats.pool_timeouts,
        sheds: stats.pool_shed,
        sync_fallbacks: stats.sync_fallbacks,
        lock_recoveries: ps.lock_recoveries,
        installs: stats.async_installs,
        undetected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_workloads::suite;

    #[test]
    fn fault_seed_is_deterministic_and_cell_distinct() {
        let a = fault_seed(7, "gzip:basic:no_pred:1");
        assert_eq!(a, fault_seed(7, "gzip:basic:no_pred:1"));
        assert_ne!(a, fault_seed(7, "gzip:basic:sw_pred.ras:1"));
        assert_ne!(a, fault_seed(8, "gzip:basic:no_pred:1"));
    }

    #[test]
    fn scenarios_cover_every_fault_kind() {
        let mut kinds = std::collections::BTreeSet::new();
        for chain in crate::lint::ALL_CHAINS {
            for k in scenario_for(chain, 1).faults.kinds {
                kinds.insert(format!("{k:?}"));
            }
        }
        assert_eq!(kinds.len(), 5, "the chain rotation must span all kinds");
    }

    #[test]
    fn one_faulted_cell_contains_and_matches_a_run_without_a_pool() {
        let w = &suite(3)[0];
        let report = pool_cell(w, IsaForm::Modified, ChainPolicy::NoPred, 42).expect("cell");
        assert_eq!(report.undetected, 0, "containment gap: {report:?}");
        assert!(
            report.injections > 0,
            "a rate-1 panic/kill plan must inject: {report:?}"
        );
    }
}
