//! Profile-guided region re-formation (the [`crate::FragExit::RegionHot`]
//! response).
//!
//! [`crate::FragExit::RegionHot`]: crate::FragExit::RegionHot

use super::{InstallReview, Vm};
use crate::pipeline::{translate_job, TranslateOutput};

/// A region re-formation decision, anchored at the retired count it was
/// made at. Promotion is a pure function of deterministic state, so two
/// runs of the same program and configuration record the same sequence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegionEvent {
    /// A hot fragment chain was re-formed into a merged region installed
    /// at its head.
    RegionPromote {
        /// Entry V-address of the region head.
        fragment_vstart: u64,
        /// Retired-instruction count when the region installed.
        at_v_insts: u64,
    },
    /// A region re-formation was refused (verifier rejection under
    /// `OnViolation::Reject`): the head is banned from re-promotion and
    /// its constituent fragments keep running.
    RegionDrop {
        /// Entry V-address of the refused region head.
        fragment_vstart: u64,
        /// Retired-instruction count at the refusal.
        at_v_insts: u64,
    },
}

impl Vm<'_> {
    /// Profile-guided region re-formation, the [`crate::FragExit::RegionHot`]
    /// response: walks the installed chain from the hot head along the
    /// seams its source superblocks followed at collection time, merges
    /// the constituent superblocks into one region superblock
    /// ([`crate::merge_region`]), re-runs the full translate/verify
    /// pipeline — straightening, strand formation, E-family symbolic
    /// equivalence — across the merged region, and, when the verifier
    /// admits it, replaces the constituents with one region fragment
    /// installed at the head. Cross-fragment seams inside the region
    /// disappear: the merged block re-strands across them, so what was
    /// per-iteration fragment-entry bookkeeping and copy-out/copy-in
    /// traffic becomes intra-region accumulator flow. Every failure mode
    /// degrades to the status quo — the constituent fragments keep
    /// running exactly as before — and a verifier refusal bans the head
    /// so a rejected merge is attempted once.
    ///
    /// Promotion is derived purely from deterministic state (the cache,
    /// the retained superblocks, the demotion ladder), so any two runs of
    /// the same program and configuration promote at the same anchors; the
    /// recorded [`RegionEvent`] is the witness the differentials compare.
    pub(super) fn promote_region(&mut self, head: u64) {
        if self.region_banned.contains(&head) || self.demotion.get(&head).copied().unwrap_or(0) != 0
        {
            return;
        }
        let budget = self.config.region_budget as usize;
        let mut blocks: Vec<crate::Superblock> = Vec::new();
        let mut members: Vec<u64> = Vec::new();
        let mut total = 0usize;
        let mut cur = head;
        let mut closed = false;
        // Only plain, live, level-0 fragments with retained source
        // superblocks merge; anything else ends the walk. (A warm
        // store install retains its collection-time superblock too,
        // so warm-started fragments participate.)
        while let Some(id) = self.cache.lookup(cur) {
            if self.cache.fragment(id).is_region
                || members.contains(&cur)
                || self.demotion.get(&cur).copied().unwrap_or(0) != 0
            {
                break;
            }
            let Some(sb) = self.region_src.get(&cur).cloned() else {
                break;
            };
            if !blocks.is_empty() && total + sb.len() > budget {
                break;
            }
            total += sb.len();
            members.push(cur);
            // Follow the seam the collector followed: the taken back-edge
            // of an ending branch, or the recorded continuation. A block
            // with no unique continuation ends the region.
            let next = match sb.end {
                crate::SbEnd::BackwardTakenBranch { target, .. } => Some(target),
                crate::SbEnd::Cycle { next } | crate::SbEnd::MaxSize { next } => Some(next),
                crate::SbEnd::IndirectJump | crate::SbEnd::Halt => None,
            };
            blocks.push(sb);
            match next {
                Some(n) if n != head => cur = n,
                // Closed loop back to the region head: the merged
                // region's final seam resolves to a self-transfer.
                Some(_) => {
                    closed = true;
                    break;
                }
                None => break,
            }
        }
        if closed && total > 0 {
            // The walk closed a loop: unroll the cycle to fill the region
            // budget (capped — past a handful of copies the per-entry
            // overhead is already amortized away and the merged block only
            // bloats translation and verification). Each unrolled seam is
            // an iteration boundary the re-strander flows accumulators
            // across, so even a single self-looping block — the degenerate
            // hot chain — sheds its per-iteration head copy-ins.
            let factor = (budget / total).clamp(1, 2);
            let cycle = blocks.len();
            for k in 0..cycle * (factor - 1) {
                blocks.push(blocks[k % cycle].clone());
            }
        }
        if blocks.len() < 2 {
            // A single block merges nothing (its self-loop is already a
            // direct link); leave it be. The trigger never re-fires.
            return;
        }
        let merged = crate::superblock::merge_region(&blocks);
        let (translator, _) = self.translation_tier(0);
        // Translate WITHOUT the validator first: the profitability gate
        // below only needs the emitted code, and an unprofitable region
        // must not charge the guest for symbolic verification of a body
        // it will never run (on a short-loop workload the wasted verify
        // pass alone is a measurable fraction of the whole run).
        let (TranslateOutput { code, .. }, wall) = translate_job(&merged, &translator, None);
        // Re-formation runs inline on the execution thread: the guest
        // stalls for it, exactly like a synchronous translation.
        self.stats.translate_wall_nanos += wall;
        self.stats.translate_stall_nanos += wall;
        let at_v_insts = self.v_instructions();
        // Profitability gate. Each pass over the region covers
        // `blocks.len() / members.len()` iterations of the constituent
        // cycle (the unroll replication; 1 for an open chain), so the
        // emitted-instruction saving per pass is
        // `replication * orig_sum - region_len`.
        //
        // For a merged chain (replication 1) any positive saving is a
        // win: the constituent bodies already executed back-to-back
        // every iteration, so the merged body adds no footprint.
        //
        // An unrolled self-loop is different: the body *grows* by
        // `region_len - orig_sum` instructions, and a bigger working
        // set carries a real per-iteration locality cost. When the
        // loop's carried values fit the accumulator file, re-stranding
        // erases the seam copy-ins and the saving dwarfs that cost;
        // when they do not (more live globals than accumulators), every
        // unrolled seam re-emits its copies and the saving is a couple
        // of chain instructions against a doubled body — measurably
        // slower. Require the saving to cover the growth at an 8:1
        // margin, which cleanly separates the two shapes. A dropped
        // region leaves the constituents running untouched and records
        // the drop.
        let replication = (blocks.len() / members.len()) as i64;
        let orig_sum: i64 = members
            .iter()
            .filter_map(|&v| self.cache.lookup(v))
            .map(|id| self.cache.fragment(id).insts.len() as i64)
            .sum();
        let region_len = code.insts.len() as i64;
        let saved = replication * orig_sum - region_len;
        let profitable = if replication > 1 {
            saved * 8 >= region_len - orig_sum
        } else {
            saved > 0
        };
        // Profitable: now pay for the full verify gate. A refused merge
        // leaves the constituent fragments running untouched.
        let admitted = profitable
            && match self.config.validator {
                Some(validate) => {
                    let v0 = std::time::Instant::now();
                    let verdict = validate(&InstallReview {
                        sb: &merged,
                        code: &code,
                        translator: &translator,
                    });
                    self.account_verify(v0.elapsed().as_nanos() as u64);
                    self.stats.regions_verified += 1;
                    match verdict {
                        Ok(()) => true,
                        Err(msg) => self.refuse("region", head, msg),
                    }
                }
                None => true,
            };
        if !admitted {
            self.region_banned.insert(head);
            self.region_events.push(RegionEvent::RegionDrop {
                fragment_vstart: head,
                at_v_insts,
            });
            return;
        }
        // Admitted: retire the constituents (precise invalidation keeps
        // incoming links and the engine RAS coherent), then install the
        // merged region at the head. Regions are not published to the
        // shared store — their shape is profile-dependent — and the
        // constituents' published artifacts stay PUT: promotion does not
        // change the guest code, so unlike the SMC path the artifacts
        // remain valid for other VMs warm-starting the same program.
        for &v in &members {
            if let Some(id) = self.cache.lookup(v) {
                self.cache.invalidate(id);
                self.engine.unlink_fragment(id);
                self.candidates.reset(v);
            }
        }
        let id = self.install(code, translator.form, None, true);
        self.cache.mark_region(id);
        self.stats.regions_formed += 1;
        self.stats.seam_pairs_eliminated += blocks.len() as u64 - 1;
        self.region_events.push(RegionEvent::RegionPromote {
            fragment_vstart: head,
            at_v_insts,
        });
    }
}
