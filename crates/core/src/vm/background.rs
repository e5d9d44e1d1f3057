//! Install points off the inline path: background pool replies, delay
//! anchors and recorded install schedules, all resolved at the
//! fragment-boundary safe point through [`Vm::admit`].

use super::admit::{Finished, Route};
use super::Vm;
use crate::pipeline::TranslateResponse;
use crate::replay::ReplayEvent;
use std::collections::hash_map::Entry;

/// A finished translation parked until its install point.
#[derive(Debug)]
pub(super) struct Staged {
    /// Resolve at the first safe point with `v_instructions() >= anchor`
    /// ([`VmConfig::install_delay`](super::VmConfig::install_delay));
    /// `None` waits for the recorded schedule op naming this region.
    pub(super) anchor: Option<u64>,
    pub(super) job: Finished,
}

impl Staged {
    pub(super) fn vstart(&self) -> u64 {
        self.job.out.code.vstart
    }
}

/// The region and count anchor of a recorded background outcome that an
/// install schedule replays — an install, a drop or a pool fault — and
/// `None` for every other event.
fn scheduled(event: &ReplayEvent) -> Option<(u64, u64)> {
    match *event {
        ReplayEvent::BgInstall {
            fragment_vstart,
            at_v_insts,
        }
        | ReplayEvent::BgDrop {
            fragment_vstart,
            at_v_insts,
        }
        | ReplayEvent::PoolTimeout {
            fragment_vstart,
            at_v_insts,
        }
        | ReplayEvent::PoolPanicReply {
            fragment_vstart,
            at_v_insts,
        }
        | ReplayEvent::PoolShed {
            fragment_vstart,
            at_v_insts,
        } => Some((fragment_vstart, at_v_insts)),
        _ => None,
    }
}

impl Vm<'_> {
    fn handle_response(&mut self, resp: TranslateResponse) {
        // A response whose region is no longer in flight — or whose token
        // names a submission this VM already gave up on (deadline expiry
        // followed by a resubmission) — was superseded: a late worker
        // must never resolve a newer submission's pending state.
        let pending = match self.in_flight.entry(resp.vstart) {
            Entry::Occupied(e) if e.get().token == resp.token => e.remove(),
            _ => return,
        };
        self.stats.translate_wall_nanos += resp.wall_nanos;
        match resp.result {
            Ok(out) => {
                self.admit(
                    Finished { pending, out },
                    Route::SafePoint { forced_drop: false },
                );
            }
            Err(_) => self.panic_reply(resp.vstart),
        }
    }

    /// A contained worker panic: a structured reply with no usable code.
    /// Demotes the region so it re-heats into a leaner tier — the same
    /// ladder a verifier rejection takes.
    fn panic_reply(&mut self, vstart: u64) {
        self.stats.pool_panics += 1;
        self.demote(vstart);
        self.candidates.reset(vstart);
        self.bg_events.push(ReplayEvent::PoolPanicReply {
            fragment_vstart: vstart,
            at_v_insts: self.v_instructions(),
        });
    }

    /// Counts a pool degradation — deadline expiry (`timeout`) or
    /// backpressure shed — and records its event. The caller then
    /// resolves the region through [`Route::Fallback`], so a faulted run
    /// and its scheduled replay decide identically.
    pub(super) fn pool_fault(&mut self, vstart: u64, timeout: bool) {
        let at_v_insts = self.v_instructions();
        self.bg_events.push(if timeout {
            self.stats.pool_timeouts += 1;
            ReplayEvent::PoolTimeout {
                fragment_vstart: vstart,
                at_v_insts,
            }
        } else {
            self.stats.pool_shed += 1;
            ReplayEvent::PoolShed {
                fragment_vstart: vstart,
                at_v_insts,
            }
        });
    }

    /// Blocks until the in-flight translation for `vaddr` resolves (other
    /// regions' replies arriving first resolve too — this is a safe
    /// point), bounded by [`crate::VmConfig::translate_timeout`]. The wait is
    /// the guest-visible stall the pipeline could not hide, accounted in
    /// [`crate::VmStats::translate_stall_nanos`]. Deadline expiry — a dead or
    /// wedged worker, a dropped reply — falls back to synchronous
    /// translation of the already-collected superblock on this thread:
    /// the pool can delay this VM step by at most the deadline, never
    /// wedge it.
    pub(super) fn await_in_flight(&mut self, vaddr: u64) -> bool {
        let t0 = std::time::Instant::now();
        let deadline = t0 + self.config.translate_timeout;
        while self.in_flight.contains_key(&vaddr) {
            let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) else {
                break;
            };
            match self.reply_rx.recv_timeout(left) {
                Ok(resp) => self.handle_response(resp),
                Err(_) => break,
            }
        }
        let waited = t0.elapsed().as_nanos() as u64;
        self.stats.translate_stall_nanos += waited;
        self.stats.pool_await_max_nanos = self.stats.pool_await_max_nanos.max(waited);
        let Some(pending) = self.in_flight.remove(&vaddr) else {
            // The wait resolved the region (install, drop, or panic
            // reply); whatever state that left is the answer.
            return self.cache.lookup(vaddr).is_some();
        };
        // Deadline expired with the request still in flight. Abandon it
        // (a late reply is rejected by its stale token) and translate
        // synchronously from the superblock collected at submit time.
        self.pool_fault(vaddr, true);
        let job = self.translate_here(pending, true);
        self.admit(job, Route::Fallback)
    }

    /// The safe point, serviced at every fragment exit and interpreted
    /// block end: drains finished background translations, and resolves
    /// parked translations whose install point (recorded schedule op, or
    /// delay anchor) has arrived. [`Vm::interp_limit`] ends interpreted
    /// blocks exactly on those install points.
    pub(super) fn service_background(&mut self) {
        let now = self.v_instructions();
        // Replies drain only at the first safe point of each retired
        // count. A zero-progress exit (region-hot) revisits the safe point
        // at the same count, and a scheduled replay applies an event at
        // the *first* safe point reaching its anchor: an install recorded
        // at the second visit would replay at the first, before the
        // promotion that saw the cache without it.
        // With nothing in flight, every queued reply is stale and
        // `handle_response` would discard it: the channel is left alone.
        if self.drained_at != Some(now) {
            self.drained_at = Some(now);
            while !self.in_flight.is_empty() {
                let Ok(resp) = self.reply_rx.try_recv() else {
                    break;
                };
                self.handle_response(resp);
            }
        }
        // Pop-then-apply, with the pop itself deciding readiness: no
        // unwrap on the queue, which an applied op may have replaced.
        let due = |op: &mut ReplayEvent| scheduled(op).is_some_and(|(_, at)| at <= now);
        while let Some(op) = self.schedule.as_mut().and_then(|q| q.pop_front_if(due)) {
            self.apply_scheduled_op(op);
        }
        while let Some(i) = self
            .staged
            .iter()
            .position(|s| s.anchor.is_some_and(|a| a <= now))
        {
            let s = self.staged.remove(i);
            self.admit(s.job, Route::SafePoint { forced_drop: false });
        }
    }

    /// Replays one recorded background-translation outcome at its anchor,
    /// on the translation parked for its region.
    fn apply_scheduled_op(&mut self, op: ReplayEvent) {
        let Some((vstart, _)) = scheduled(&op) else {
            return;
        };
        let staged = self
            .staged
            .iter()
            .position(|s| s.vstart() == vstart)
            .map(|i| self.staged.remove(i));
        match op {
            // The parked translation stands in for the code the panicked
            // worker never produced: it is discarded.
            ReplayEvent::PoolPanicReply { .. } => self.panic_reply(vstart),
            ReplayEvent::PoolTimeout { .. } | ReplayEvent::PoolShed { .. } => {
                self.pool_fault(vstart, matches!(op, ReplayEvent::PoolTimeout { .. }));
                if let Some(s) = staged {
                    self.admit(s.job, Route::Fallback);
                }
            }
            // An install or drop with no parked translation refers to a
            // region a replayed chaos event already disposed of.
            _ => {
                if let Some(s) = staged {
                    let forced_drop = matches!(op, ReplayEvent::BgDrop { .. });
                    self.admit(s.job, Route::SafePoint { forced_drop });
                }
            }
        }
    }

    /// Switches the VM to deterministic scheduled-install mode, replaying
    /// the background install/drop/fault decisions recorded in `events`
    /// ([`ReplayEvent::BgInstall`] / [`ReplayEvent::BgDrop`] /
    /// [`ReplayEvent::PoolTimeout`] / [`ReplayEvent::PoolPanicReply`] /
    /// [`ReplayEvent::PoolShed`], anchored on [`Vm::v_instructions`]).
    /// Translations are performed inline at collection time but resolve
    /// only when their recorded anchor is reached, in recorded order —
    /// reproducing an asynchronous run (including its pool faults)
    /// bit-identically on a synchronous VM.
    pub fn set_install_schedule(&mut self, events: &[ReplayEvent]) {
        self.schedule = Some(
            events
                .iter()
                .filter(|e| scheduled(e).is_some())
                .copied()
                .collect(),
        );
    }

    /// The count-anchored background install/drop events recorded so far
    /// (record side of record/replay).
    pub fn bg_events(&self) -> &[ReplayEvent] {
        &self.bg_events
    }

    /// Drains the recorded background events (see [`Vm::bg_events`]).
    pub fn take_bg_events(&mut self) -> Vec<ReplayEvent> {
        std::mem::take(&mut self.bg_events)
    }

    /// Entry V-addresses of translations parked for a later install point
    /// (fault-injection harnesses pick drop victims from these).
    pub fn staged_vstarts(&self) -> Vec<u64> {
        self.staged.iter().map(Staged::vstart).collect()
    }

    /// Drops a parked translation before it installs (chaos injection:
    /// the translation that never arrives). Returns whether one was
    /// parked for `vstart`. The region's profile counter resets so it can
    /// re-heat.
    pub fn drop_staged(&mut self, vstart: u64) -> bool {
        let Some(i) = self.staged.iter().position(|s| s.vstart() == vstart) else {
            return false;
        };
        self.staged.remove(i);
        self.stats.async_dropped += 1;
        self.candidates.reset(vstart);
        true
    }

    /// The interpreted count at which the next interpreted block must
    /// yield: the run budget, or the next count-anchored install point
    /// (the replay schedule's front, or the earliest delay anchor),
    /// whichever comes first. Short of that count the safe point's only
    /// work is draining asynchronous pool replies, whose arrival is
    /// nondeterministic anyway, so it waits for the block to end.
    pub(super) fn interp_limit(&self, budget: u64) -> u64 {
        let front = self.schedule.as_ref().and_then(|q| q.front());
        let next = front
            .and_then(scheduled)
            .map(|(_, at)| at)
            .into_iter()
            .chain(self.staged.iter().filter_map(|s| s.anchor))
            .fold(budget, u64::min);
        // Translated code retires nothing while the interpreter runs, so
        // the V-instruction anchor converts to an interpreted count.
        next.saturating_sub(self.engine.stats.v_insts)
    }
}
