//! Count-anchored installs. A translation that leaves the inline path —
//! submitted to the background pool, or parked by
//! [`VmConfig::install_delay`](super::VmConfig::install_delay) on a VM
//! without one — installs at its anchor: the first fragment-boundary safe
//! point at or past its submit count plus a fixed latency D, through
//! [`Vm::admit`].
//!
//! At the anchor the VM takes the pool's reply, or blocks for it bounded
//! by [`VmConfig::translate_timeout`](super::VmConfig::translate_timeout).
//! Every pool fault — a timeout, a dropped reply, a dead worker, a shed
//! submission, a contained panic — takes one fallback: the VM translates
//! the collected superblock inline and installs that code at the same
//! anchor. A fault moves only its counter and the stall time, never the
//! retired-count trajectory, so a pool run equals a run without a pool at
//! the same D, and reproduces by running it again.

use super::admit::{Finished, Pending, Route};
use super::Vm;
use crate::pipeline::{SubmitOutcome, TranslateOutput, TranslateRequest, TranslateResponse};
use std::time::Instant;

/// The install latency D, in retired V-ISA instructions, of a VM with a
/// pool and no [`VmConfig::install_delay`](super::VmConfig::install_delay).
///
/// Measured on `cold` with every process thread pinned to one CPU (the
/// benchmark's setting; EXPERIMENTS.md): 99.6% of replies were taken at
/// the submit count itself, because the woken worker preempts the VM and
/// finishes before it reaches another safe point. The anchor sits there.
/// A host with a spare CPU can overlap translation with execution by
/// setting `install_delay` to about one translation's worth of guest
/// instructions (low thousands).
pub const POOL_INSTALL_DELAY: u64 = 0;

/// A collected region parked until its anchor.
#[derive(Debug)]
pub(super) struct Staged {
    /// Resolve at the first safe point with `v_instructions() >= anchor`.
    pub(super) anchor: u64,
    /// The liveness facts and superblock captured at collection. A
    /// non-zero `token` names the pool submission whose reply is due.
    pending: Pending,
    /// The finished code, once in hand: translated inline on a VM without
    /// a pool, or a reply taken while waiting on an earlier anchor.
    out: Option<TranslateOutput>,
}

impl Staged {
    pub(super) fn vstart(&self) -> u64 {
        self.pending.sb.start
    }
}

impl Vm<'_> {
    /// The install latency D of translations that leave the inline path,
    /// or `None` when they install inline.
    pub(super) fn install_latency(&self) -> Option<u64> {
        self.config
            .install_delay
            .or(self.pool.is_some().then_some(POOL_INSTALL_DELAY))
    }

    /// Parks a collected region until `delay` more instructions have
    /// retired: submits it to the pool, or, without one, translates it
    /// now. A shed submission is marked for the inline fallback at the
    /// anchor. The region's counter resets, so it can re-heat, but a
    /// parked region keeps interpreting until its anchor.
    pub(super) fn park(&mut self, mut pending: Pending, delay: u64) {
        let anchor = self.v_instructions() + delay;
        let vstart = pending.sb.start;
        let mut out = None;
        if let Some(pool) = self.pool.clone() {
            self.next_token += 1;
            pending.token = self.next_token;
            let request = TranslateRequest {
                vstart,
                token: pending.token,
                sb: pending.sb.clone(),
                translator: pending.translator,
                validator: self.config.validator,
                reply: self.reply_tx.clone(),
            };
            match pool.submit(request) {
                SubmitOutcome::Queued { respawned } => self.stats.pool_respawns += respawned,
                SubmitOutcome::Saturated { respawned, .. } => {
                    self.stats.pool_respawns += respawned;
                    self.stats.pool_shed += 1;
                    pending.token = 0;
                }
            }
        } else {
            let job = self.translate_here(pending, false);
            (pending, out) = (job.pending, Some(job.out));
        }
        self.candidates.reset(vstart);
        self.staged.push(Staged {
            anchor,
            pending,
            out,
        });
    }

    /// The safe point, serviced at every fragment exit and interpreted
    /// block end: resolves every parked region whose anchor has arrived,
    /// in anchor order. [`Vm::interp_limit`] ends interpreted blocks
    /// exactly on anchors.
    pub(super) fn service_background(&mut self) {
        let now = self.v_instructions();
        while self.staged.first().is_some_and(|s| s.anchor <= now) {
            if self.staged[0].out.is_none() && self.staged[0].pending.token != 0 {
                self.await_reply();
            }
            let Staged { pending, out, .. } = self.staged.remove(0);
            let job = match out {
                Some(out) => Finished { pending, out },
                None => {
                    // The pool faulted: translate the collected
                    // superblock here, for the same anchor.
                    self.stats.sync_fallbacks += 1;
                    self.translate_here(pending, true)
                }
            };
            self.admit(job, Route::Anchored);
        }
    }

    /// Blocks until the pool answers the front parked region, bounded by
    /// [`VmConfig::translate_timeout`](super::VmConfig::translate_timeout).
    /// Replies for later regions that arrive first are kept on their
    /// entries. On expiry the submission is abandoned, and a late reply
    /// finds no parked entry with its token and is discarded. The wait is
    /// guest-visible stall.
    fn await_reply(&mut self) {
        let t0 = Instant::now();
        let deadline = t0 + self.config.translate_timeout;
        while self.staged[0].out.is_none() && self.staged[0].pending.token != 0 {
            let reply = deadline
                .checked_duration_since(Instant::now())
                .and_then(|left| self.reply_rx.recv_timeout(left).ok());
            match reply {
                Some(resp) => self.take_reply(resp),
                None => {
                    self.stats.pool_timeouts += 1;
                    self.staged[0].pending.token = 0;
                }
            }
        }
        let waited = t0.elapsed().as_nanos() as u64;
        self.stats.translate_stall_nanos += waited;
        self.stats.pool_await_max_nanos = self.stats.pool_await_max_nanos.max(waited);
    }

    /// Files a pool reply on the parked region it answers. A contained
    /// worker panic is a host fault, not a property of the translation:
    /// it is counted and leaves the region to the inline fallback.
    fn take_reply(&mut self, resp: TranslateResponse) {
        let Some(s) = self
            .staged
            .iter_mut()
            .find(|s| s.pending.token == resp.token && s.out.is_none())
        else {
            return;
        };
        self.stats.translate_wall_nanos += resp.wall_nanos;
        match resp.result {
            Ok(out) => s.out = Some(out),
            Err(_) => {
                s.pending.token = 0;
                self.stats.pool_panics += 1;
            }
        }
    }

    /// Entry V-addresses of regions parked until their anchor, whether
    /// their code is still on the pool or already back (fault-injection
    /// harnesses pick drop victims from these).
    pub fn staged_vstarts(&self) -> Vec<u64> {
        self.staged.iter().map(Staged::vstart).collect()
    }

    /// Drops a parked region before its anchor (chaos injection: the
    /// translation that never arrives). Returns whether one was parked
    /// for `vstart`. The region's profile counter resets so it can
    /// re-heat; a reply still on the pool is discarded when it arrives.
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
    /// yield: the run budget, or the earliest anchor, whichever comes
    /// first.
    pub(super) fn interp_limit(&self, budget: u64) -> u64 {
        let next = self.staged.first().map_or(budget, |s| s.anchor.min(budget));
        // Translated code retires nothing while the interpreter runs, so
        // the V-instruction anchor converts to an interpreted count.
        next.saturating_sub(self.engine.stats.v_insts)
    }
}
