//! Background machinery of the controller: periodic flush of dirty deltas
//! to the HDD log, the slot scrub, the similarity scan (paper §4.2),
//! reference promotion, and the three replacement policies of §4.3.

use crate::controller::Icash;
use crate::delta_log::LogEntry;
use crate::placement::zero_block;
use crate::table::{Resident, VbId};
use crate::virtual_block::{decode, DeltaHome, Placement, Role, VirtualBlock};
use icash_delta::signature::BlockSignature;
use icash_storage::block::{BlockBuf, Lba, BLOCK_SIZE};
use icash_storage::cpu::CpuOp;
use icash_storage::hash::AddrMap;
use icash_storage::pipeline::Ticket;
use icash_storage::request::Op;
use icash_storage::system::IoCtx;
use icash_storage::time::Ns;
use icash_storage::trace::{TraceEvent, TraceKind};
use std::cmp::Reverse;

/// Line positions one table trim may walk from the LRU tail.
const TRIM_SPAN: usize = 8_192;

/// Blocks one table trim may evict.
const TRIM_EVICTIONS: usize = 64;

impl Icash {
    /// Per-I/O bookkeeping: counts toward the flush interval and the scan
    /// interval, running either phase when due.
    pub(crate) fn after_io(&mut self, at: Ns, ctx: &mut IoCtx<'_>) {
        // The online rebuild rides the host I/O stream: each I/O funds one
        // rate-limited chunk of slot repopulation (no-op unless rebuilding).
        self.rebuild_tick(at);
        self.volatile.ios_since_flush += 1;
        self.volatile.ios_since_scan += 1;
        if self.volatile.ios_since_flush >= self.cfg.flush_interval
            || self.volatile.dirty_bytes >= self.cfg.flush_dirty_bytes
        {
            self.flush_dirty(at);
        }
        if self.volatile.ios_since_scan >= self.cfg.scan_interval {
            self.volatile.ios_since_scan = 0;
            self.scan(at, ctx);
        }
        if self.durable.fault_plan.scrub_interval > 0 {
            self.volatile.ios_since_scrub += 1;
            if self.volatile.ios_since_scrub >= self.durable.fault_plan.scrub_interval {
                self.volatile.ios_since_scrub = 0;
                self.scrub(at, ctx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Flushing
    // ------------------------------------------------------------------

    /// One flush trigger: [`flush`](Icash::flush), unforced.
    pub(crate) fn flush_dirty(&mut self, now: Ns) -> Ns {
        self.flush(now, false)
    }

    /// A *forced* full drain of the pipeline, whatever the configured
    /// depth. Used by barriers, shutdown, and the replacement policies —
    /// anywhere correctness needs "no delta is RAM-only after this".
    pub(crate) fn flush_all(&mut self, now: Ns) -> Ns {
        self.flush(now, true)
    }

    /// The one flush of the write pipeline: drains the dirty set and
    /// [commits](Icash::commit) it. At `group_commit_depth = 1` the batch
    /// is committed at once. Above 1 it is staged, and every `depth`-th
    /// trigger — or a `forced` one — commits the whole staging buffer in
    /// one sequential multi-entry append: the group commit.
    fn flush(&mut self, now: Ns, forced: bool) -> Ns {
        // The watermark at entry: every write accepted so far either has a
        // dirty delta (drained here) or is already on stable media (the
        // controller never leaves accepted data merely RAM-dirty outside
        // the dirty set), so committing the batch makes them all durable.
        let watermark = self.volatile.staging.progress.reserved();
        self.volatile.ios_since_flush = 0;
        let entries = self.drain_dirty();
        if self.cfg.group_commit_depth <= 1 {
            return self.commit(now, watermark, entries, None);
        }
        self.stage(now, watermark, entries);
        if !forced && self.volatile.staging.batches() < self.cfg.group_commit_depth {
            return now;
        }
        let (staged, bytes) = self.volatile.staging.drain();
        debug_assert!(
            staged.iter().all(|s| s.ticket <= watermark),
            "staged tickets must sit below the commit watermark"
        );
        let entries = staged.into_iter().map(|s| s.entry).collect();
        self.commit(now, watermark, entries, Some(bytes))
    }

    /// Frames every dirty delta as a log entry in address order, moves
    /// each block's delta home to [`Staged`](DeltaHome::Staged) and empties
    /// the dirty set. Each payload moves into its entry, leaving the
    /// resident delta a claim on it.
    ///
    /// Address order is the paper's §3.1 packing: `DeltaLog::append` packs
    /// what it is given, so neighbouring deltas share a log block and one
    /// fetch serves them all (`preload_image` packs the same way). Stamps
    /// follow the same order. Above depth 1 each trigger's batch is sorted
    /// on its own and the staging buffer keeps triggers in ticket order.
    fn drain_dirty(&mut self) -> Vec<LogEntry> {
        // (The set drains in hash order; one address per block makes the
        // sort total, hence deterministic.)
        let table = &self.volatile.table;
        let mut order: Vec<(Lba, VbId)> = (self.volatile.dirty.drain())
            .map(|raw| {
                let id = VbId::from_raw(raw);
                (table.get(id).lba, id)
            })
            .collect();
        order.sort_unstable_by_key(|&(lba, _)| lba);
        self.volatile.dirty_bytes = 0;
        let mut framed = Vec::with_capacity(order.len());
        for (_, id) in order {
            let gen = self.durable.slots.stamp();
            let vb = self.volatile.table.get_mut(id);
            // (`debug_validate`: the dirty set is exactly the blocks whose
            // delta is `Dirty` and resident, and those hold a payload.)
            let Some(delta) = vb.delta.as_mut().and_then(|c| c.payload.take()) else {
                continue;
            };
            // A zero-based or self delta names its own block.
            let reference = vb.placement.reference().unwrap_or(vb.lba);
            if let Some(home) = vb.placement.delta_home_mut() {
                *home = DeltaHome::Staged;
            }
            framed.push(LogEntry::new(vb.lba, reference, gen, delta));
        }
        framed
    }

    /// Files one trigger's `entries` in the staging buffer under `ticket`.
    /// No device I/O happens here; the deltas stay readable through the
    /// buffer (read-your-writes) until the commit.
    fn stage(&mut self, now: Ns, ticket: Ticket, entries: Vec<LogEntry>) {
        if entries.is_empty() {
            return;
        }
        for entry in entries {
            let (lba, bytes) = (entry.lba, entry.payload_len() as u32);
            self.volatile.staging.push(lba, entry, ticket);
            self.stats.staged_entries += 1;
            self.durable.array.tracer().emit(|| TraceEvent {
                at: now,
                kind: TraceKind::StageEnter {
                    lba: lba.raw(),
                    ticket: ticket.as_u64(),
                    bytes,
                },
            });
        }
        self.stats.staging_high_water = self
            .stats
            .staging_high_water
            .max(self.volatile.staging.bytes());
        self.volatile.staging.finish_batch();
    }

    /// Packs `entries` onto the end of the delta log and writes the new
    /// blocks to the HDD in one sequential operation. Returns the write's
    /// completion instant and, per entry, the log block it landed in —
    /// `None` for one [`spill`](Icash::spill) took out of the batch.
    fn append_to_log(&mut self, now: Ns, mut entries: Vec<LogEntry>) -> (Ns, Vec<Option<u32>>) {
        let mut landed = vec![true; entries.len()];
        let mut spilled_at = now;
        // A commit of several staged triggers can outgrow the log's headroom.
        if !self.durable.log.fits(&entries) {
            self.clean_log(now);
            spilled_at = self.spill(&mut entries, &mut landed, now);
        }
        if entries.is_empty() {
            return (spilled_at, vec![None; landed.len()]);
        }
        let n_entries = entries.len() as u32;
        let report = self.durable.log.append(entries);
        // A transient write fault clears on retry; should every retry fail,
        // the packed blocks are still buffered and the drive remaps on the
        // next sequential append, so the flush proceeds either way. With a
        // device queue the append parks in the drive's write-behind cache
        // instead (see [`Icash::hdd_log_append`]).
        let t = self.hdd_log_append(
            now,
            self.cfg.log_start() + report.first_block,
            report.blocks_written,
        );
        self.stats.flushes += 1;
        self.stats.log_blocks_written += report.blocks_written as u64;
        let blocks = report.blocks_written;
        self.durable.array.tracer().emit(|| TraceEvent {
            at: t,
            kind: TraceKind::LogFlush {
                entries: n_entries,
                blocks,
            },
        });
        let mut locs = report.entry_locs.into_iter();
        let locs = landed.iter().map(|&l| if l { locs.next() } else { None });
        (t.max(spilled_at), locs.collect())
    }

    /// A batch the log cannot take even cleaned (DESIGN.md §12): from its
    /// back, entries leave it until the rest fits. One no block points at
    /// any more just goes. One that is its block's current delta goes if
    /// the block can do without it — an associate, a logged independent, a
    /// written reference — and the content it decodes to is written to the
    /// block's home position first; a written reference sends its
    /// associates home before it ([`Icash::unbind_home`]). Marks what left
    /// in `landed` (indexed as `entries` came in). Returns when the writes
    /// it made are done.
    fn spill(&mut self, entries: &mut Vec<LogEntry>, landed: &mut [bool], now: Ns) -> Ns {
        let mut done = now;
        // (Entries leave only at `i`, behind which the indices still match
        // `landed`'s.)
        for i in (0..entries.len()).rev() {
            if self.durable.log.fits(entries) {
                break;
            }
            let lba = entries[i].lba;
            let current = self.volatile.table.lookup(lba).filter(|&id| {
                self.volatile.table.get(id).placement.delta_home() == Some(DeltaHome::Staged)
            });
            if let Some(id) = current {
                if self.volatile.table.get(id).placement.slot().is_some() {
                    match self.unbind_home(lba, entries, now) {
                        Some(t) => done = done.max(t),
                        None => continue,
                    }
                }
                let Some(content) = self.current_content(id, entries) else {
                    continue;
                };
                let vb = self.volatile.table.get(id);
                if vb.placement.slot().is_some() {
                    // No longer a reference: out of the index, and signed
                    // by its content like any other block.
                    let sig = vb.sig;
                    self.volatile.ref_index.remove(lba, &sig);
                    self.volatile.table.get_mut(id).sig = BlockSignature::of(content.as_slice());
                }
                done = done.max(self.write_home_copy(lba, &content, now));
                self.spill_delta(id);
            }
            landed[i] = false;
            entries.remove(i);
        }
        done
    }

    /// What `id`'s current delta decodes to, its delta found wherever it
    /// is — in the log, or in `batch` (a commit's, drained from the dirty
    /// set and the staging buffer) — and its base pinned. `None` if either
    /// is missing: a block whose new delta is still being stored — dirty
    /// inside a commit, moved by [`Icash::store_delta`] before it made
    /// room — has none anywhere yet.
    fn current_content(&self, id: VbId, batch: &[LogEntry]) -> Option<BlockBuf> {
        let vb = self.volatile.table.get(id);
        let base = match vb.placement {
            Placement::Associate { reference, .. } => {
                self.durable.slots.content(self.pinned(reference)?.1)
            }
            Placement::Reference { slot, .. } => self.durable.slots.content(slot),
            Placement::Logged { .. } => zero_block(),
            Placement::Slot { .. } | Placement::Home => return None,
        };
        let delta = match vb.placement.delta_home()? {
            DeltaHome::Log(loc) => self.durable.log.entry(loc, vb.lba)?.delta(),
            DeltaHome::Staged => batch.iter().find(|e| e.lba == vb.lba)?.delta(),
            DeltaHome::Dirty => None,
        }?;
        Some(decode(base, delta))
    }

    /// Sends every associate of reference `lba` home — tracked or evicted,
    /// its delta logged or in `batch` — each written there and tombstoned
    /// as a spilled block is, so the reference has none left and can go
    /// home itself. Nothing moves unless every associate can: `None` if one
    /// has no delta to decode yet. Returns when the home writes are done.
    fn unbind_home(&mut self, lba: Lba, batch: &[LogEntry], now: Ns) -> Option<Ns> {
        let of_lba = |p: &Placement| p.reference() == Some(lba);
        // (Hash order, sorted: which blocks go home, and in what order they
        // are written, follow addresses.)
        let mut evicted: Vec<Lba> = self
            .volatile
            .evicted
            .iter()
            .filter(|(_, p)| of_lba(p))
            .map(|(l, _)| l)
            .collect();
        evicted.sort_unstable_by_key(|l| l.raw());
        for l in evicted {
            // Back in the table, as a log fetch brings an evicted block
            // back (no trim: the commit's callers hold ids).
            if let Some(placement) = self.volatile.evicted.remove(l) {
                let vb = self.rebuild_evicted(l, placement);
                self.volatile.table.insert(vb);
            }
        }
        let mut ids = self.volatile.table.head_ids(usize::MAX);
        ids.retain(|&id| of_lba(&self.volatile.table.get(id).placement));
        let mut homes = Vec::with_capacity(ids.len());
        for &id in &ids {
            homes.push(self.current_content(id, batch)?);
        }
        let mut done = now;
        for (id, content) in ids.into_iter().zip(homes) {
            let vb = self.volatile.table.get_mut(id);
            vb.sig = BlockSignature::of(content.as_slice());
            let l = vb.lba;
            done = done.max(self.write_home_copy(l, &content, now));
            self.spill_delta(id);
        }
        Some(done)
    }

    /// Every write accepted up to `watermark` is on stable media.
    fn commit_landed(&mut self, watermark: Ticket) {
        self.volatile.staging.progress.complete_through(watermark);
        self.reclaim_released_slots();
    }

    /// Commits `entries`, the batch a flush drained: appends them to the
    /// log in one sequential operation, moves each landed block's delta
    /// home from [`Staged`](DeltaHome::Staged) to the log block it landed
    /// in, completes `watermark` and cleans the log when it is nearly full.
    /// `group` is the payload bytes of a staging buffer's worth of entries:
    /// the commit is counted and traced as a group commit. Returns the
    /// write completion instant.
    fn commit(
        &mut self,
        now: Ns,
        watermark: Ticket,
        entries: Vec<LogEntry>,
        group: Option<u64>,
    ) -> Ns {
        if entries.is_empty() {
            // Nothing dirty, or everything staged was superseded: accepted
            // writes are all on stable media already.
            self.commit_landed(watermark);
            return now;
        }
        let n_entries = entries.len() as u32;
        let lbas: Vec<Lba> = entries.iter().map(|e| e.lba).collect();
        let (t, locs) = self.append_to_log(now, entries);
        for (lba, loc) in lbas.into_iter().zip(locs) {
            let Some(loc) = loc else {
                continue; // spilled: its block went home
            };
            // The batch holds every staged block's one live entry — the
            // dirty set was drained into it, `unstage` takes a superseded
            // entry out, and the trim commits before it evicts a block
            // whose delta is not logged — so a landed entry's block is
            // tracked and staged, unless the spill sent it home.
            let id = self.volatile.table.lookup(lba);
            debug_assert!(id.is_some(), "{lba:?}: committed, but untracked");
            let placement = id.map(|id| &mut self.volatile.table.get_mut(id).placement);
            if let Some(home) = placement.and_then(Placement::delta_home_mut) {
                debug_assert_eq!(*home, DeltaHome::Staged, "{lba:?}: committed");
                *home = DeltaHome::Log(loc);
            }
        }
        if let Some(bytes) = group {
            self.stats.group_commits += 1;
            self.stats.group_commit_entries += n_entries as u64;
            self.stats.group_commit_bytes += bytes;
            let bytes = bytes.min(u32::MAX as u64) as u32;
            self.durable.array.tracer().emit(|| TraceEvent {
                at: t,
                kind: TraceKind::GroupCommit {
                    entries: n_entries,
                    bytes,
                },
            });
        }
        self.commit_landed(watermark);
        if self.durable.log.is_nearly_full() {
            self.clean_log(t);
        }
        t
    }

    /// Compacts the delta log, dropping superseded entries, and rewrites
    /// the survivors sequentially from the start of the log region. A block
    /// whose current delta is not in the log yet — staged (in the batch a
    /// commit is about to append), or dirty outside the dirty set (moved by
    /// [`Icash::store_delta`] before it made room for its delta) — keeps
    /// its newest entry until that delta lands, so a crash before it lands
    /// finds the version the delta is to supersede (DESIGN.md §12).
    pub(crate) fn clean_log(&mut self, now: Ns) {
        // The compaction rewrites the log region from the start, so any
        // appends still parked in the drive's write-behind cache must land
        // first — they hold positions the rewrite supersedes. Free without
        // a queue (the cache is always empty).
        let now = now.max(self.durable.array.hdd_mut().flush_cache(now));
        // One LRU walk serves both the liveness census and the remap below:
        // neither `log.clean` nor the HDD write touches the table, so the
        // id set cannot go stale in between.
        let ids = self.volatile.table.head_ids(usize::MAX);
        // An entry is live iff the block's current state points at it.
        let mut expected: AddrMap<Lba, u32> = AddrMap::default();
        // Blocks whose delta is on its way to the log.
        let mut pending: AddrMap<Lba, ()> = AddrMap::default();
        let tracked = ids.iter().map(|&id| {
            let vb = self.volatile.table.get(id);
            (vb.lba, vb.placement)
        });
        // (Hash order: a block is tracked or evicted, never both — which
        // `debug_validate` checks — so each address is inserted once and
        // `expected` ends up the same map.)
        let evicted = self.volatile.evicted.iter().map(|(lba, &p)| (lba, p));
        for (lba, placement) in tracked.chain(evicted) {
            match placement.delta_home() {
                Some(DeltaHome::Log(loc)) => {
                    expected.insert(lba, loc);
                }
                Some(DeltaHome::Dirty | DeltaHome::Staged) => {
                    pending.insert(lba, ());
                }
                None => {}
            }
        }
        // A pending block's newest entry, the one recovery would replay.
        let mut newest: AddrMap<Lba, (u64, u32)> = AddrMap::default();
        if !pending.is_empty() {
            for loc in 0..self.durable.log.len_blocks() as u32 {
                for e in &self.durable.log.fetch(loc).entries {
                    if pending.contains_key(&e.lba) {
                        let kept = newest.entry(e.lba).or_insert((e.generation, loc));
                        if e.generation >= kept.0 {
                            *kept = (e.generation, loc);
                        }
                    }
                }
            }
        }
        let (new_locs, blocks) = self.durable.log.clean(|lba, loc| {
            expected
                .get(&lba)
                .or_else(|| newest.get(&lba).map(|(_, kept)| kept))
                == Some(&loc)
        });
        self.durable.slots.log_cleaned();
        if blocks > 0 {
            let _ = self.hdd_retry(
                Op::Write,
                now,
                self.cfg.log_start(),
                blocks.min(u32::MAX as u64) as u32,
            );
        }
        let relocate = |lba: Lba, placement: &mut Placement| {
            if let (Some(DeltaHome::Log(loc)), Some(&new)) =
                (placement.delta_home_mut(), new_locs.get(&lba))
            {
                *loc = new;
            }
        };
        for id in ids {
            let vb = self.volatile.table.get_mut(id);
            relocate(vb.lba, &mut vb.placement);
        }
        // (Hash order: each record is rewritten from its own address alone.)
        for (lba, placement) in self.volatile.evicted.iter_mut() {
            relocate(lba, placement);
        }
        self.stats.log_cleans += 1;
        self.durable.array.tracer().emit(|| TraceEvent {
            at: now,
            kind: TraceKind::LogClean,
        });
    }

    /// Clean-shutdown flush: staged and dirty deltas go to the log (one
    /// final group commit), and the drive's write-behind cache drains —
    /// cached log appends must reach the media before the flush reports
    /// completion. (Free without a queue: the cache is always empty.) A
    /// returned flush is a barrier: a crash can no longer tear its append.
    pub(crate) fn shutdown_flush(&mut self, now: Ns) -> Ns {
        let t = self.flush_all(now);
        self.durable.log.seal();
        t.max(self.durable.array.hdd_mut().flush_cache(t))
    }

    /// One background scrub pass (triggered every
    /// [`scrub_interval`](icash_storage::fault::FaultPlan::scrub_interval) I/Os): probe every pinned slot and
    /// repair unreadable ones from their HDD home copies before the host
    /// trips over them.
    pub fn scrub(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        self.stats.scrubs += 1;
        let slots = self.durable.slots.pinned_sorted();
        let scanned = slots.len() as u32;
        let (mut repaired, mut failed) = (0u32, 0u32);
        let mut t = now;
        for (lba, slot) in slots {
            if self.slot_unavailable(slot) {
                // Scrubbing a failed device is pointless; the rebuild (or
                // the degraded read path) owns these slots.
                continue;
            }
            match self.ssd_read_op(t, slot) {
                Ok(t2) => t = t2,
                Err(_) => {
                    self.note_retry(t, slot, false);
                    let (t2, res) = self.repair_slot(lba, slot, t, ctx);
                    t = t2;
                    if res.is_ok() {
                        self.stats.scrub_repairs += 1;
                        repaired += 1;
                    } else {
                        self.stats.scrub_failures += 1;
                        failed += 1;
                    }
                }
            }
        }
        self.durable.array.tracer().emit(|| TraceEvent {
            at: t,
            kind: TraceKind::Scrub {
                scanned,
                repaired,
                failed,
            },
        });
        t
    }

    // ------------------------------------------------------------------
    // The similarity scan (paper §4.2)
    // ------------------------------------------------------------------

    /// One scan phase: examine the `scan_window` most recent blocks, pick
    /// the most popular (by Heatmap) as new references, re-bind the rest.
    pub(crate) fn scan(&mut self, now: Ns, ctx: &mut IoCtx<'_>) {
        self.stats.scans += 1;
        let ids = self.volatile.table.head_ids(self.cfg.scan_window);
        self.promote_popular(&ids, now, ctx);

        // Re-bind the rest of the window against the (updated) reference
        // set. Already-bound associates are left alone; attempts are capped
        // so one scan never turns into an encode storm.
        let mut attempts = 0usize;
        for &id in &ids {
            if attempts >= 1024 {
                break;
            }
            let (role, has_data) = {
                let vb = self.volatile.table.get(id);
                (vb.placement.role(), vb.data.is_some())
            };
            // Only unbound blocks with resident data are worth an encode
            // attempt; bound associates are left alone.
            if role != Role::Independent || !has_data {
                continue;
            }
            let (content, sig) = {
                let vb = self.volatile.table.get(id);
                (vb.data.as_ref().expect("checked").block().clone(), vb.sig)
            };
            attempts += 1;
            self.try_bind(id, &content, &sig, now, ctx);
        }

        // Age the Heatmap so popularity tracks the recent access mix.
        self.volatile.heatmap.decay();
    }

    /// Promotes the most popular promotable blocks of the scan window `ids`
    /// — at most its `ref_fraction`, at least one — each block charged one
    /// scan step. Ranked most popular first and lowest address first among
    /// equals: addresses are unique, so the order is total and an unstable
    /// sort on the key gives it.
    ///
    /// Only blocks that can be promoted are ranked. Promoting one changes
    /// that block's own role, data and delta and nothing else a test here
    /// reads, so none becomes or stops being promotable part-way through
    /// the loop, and ranking the whole window only to skip most of it (the
    /// loop as it was, kept as the tests' oracle) promotes the same blocks
    /// in the same order. Blocks of no popularity rank last and promotion
    /// stops at the first of them, so they are not ranked either.
    fn promote_popular(&mut self, ids: &[VbId], now: Ns, ctx: &mut IoCtx<'_>) {
        #[cfg(test)]
        if tests::RANK_ALL.with(std::cell::Cell::get) {
            return self.promote_popular_rank_all(ids, now, ctx);
        }
        let mut ranked: Vec<(u64, Lba, VbId)> = Vec::with_capacity(ids.len());
        for &id in ids {
            ctx.cpu.charge(CpuOp::Scan);
            let vb = self.volatile.table.get(id);
            if !self.promotable(vb) {
                continue;
            }
            let pop = self.volatile.heatmap.popularity(&vb.sig);
            if pop > 0 {
                ranked.push((pop, vb.lba, id));
            }
        }
        ranked.sort_unstable_by_key(|&(pop, lba, _)| (Reverse(pop), lba));
        for &(_, _, id) in ranked.iter().take(self.promotion_target(ids.len())) {
            if self.promote(id, now).is_none() {
                break; // out of SSD slots even after reclamation
            }
        }
    }

    /// How many blocks one scan of `window` blocks may promote.
    fn promotion_target(&self, window: usize) -> usize {
        ((window as f64 * self.cfg.ref_fraction).ceil() as usize).max(1)
    }

    /// Whether the scan may make `vb` a reference: not one already, its
    /// data resident (promotion installs it), and not an associate bound
    /// tightly enough that promotion gains nothing.
    fn promotable(&self, vb: &VirtualBlock) -> bool {
        match vb.placement.role() {
            Role::Reference => false,
            _ if vb.data.is_none() => false,
            Role::Associate => vb
                .delta
                .as_ref()
                .is_none_or(|cd| cd.len as usize > self.cfg.delta_threshold / 4),
            Role::Independent => true,
        }
    }

    /// Makes `id` a reference block, installing its current content into a
    /// fresh SSD slot unless it already holds one. Returns the slot, or
    /// `None` if no slot could be found.
    pub(crate) fn promote(&mut self, id: VbId, now: Ns) -> Option<u64> {
        let vb = self.volatile.table.get(id);
        let (lba, sig) = (vb.lba, vb.sig);
        let slot = match vb.placement.slot() {
            // Direct-written independents are already SSD-resident: adopt
            // the slot without another flash write.
            Some(s) => s,
            None => {
                // No free slot: promotion simply stops. Demote-to-promote
                // churn (each demotion is a mechanical home write) costs
                // far more than the marginal reference is worth.
                let s = self.durable.slots.alloc()?;
                let content = vb
                    .data
                    .as_ref()
                    .expect("promotion needs data")
                    .block()
                    .clone();
                if self.install_slot(lba, s, &content, now).is_err() {
                    // Flash refused the program: skip this promotion.
                    self.durable.slots.unalloc(s);
                    self.stats.degraded_writes += 1;
                    return None;
                }
                s
            }
        };
        self.supersede_delta(id, Placement::Reference { slot, own: None });
        self.volatile.ref_index.insert(lba, &sig);
        self.stats.ref_installs += 1;
        #[cfg(test)]
        tests::PROMOTED.with(|p| p.borrow_mut().push(lba));
        Some(slot)
    }

    // ------------------------------------------------------------------
    // Replacement policies (paper §4.3)
    // ------------------------------------------------------------------

    /// Makes room for one whole data block. Returns false only under
    /// unrelievable pressure (e.g. a pool smaller than one block).
    pub(crate) fn make_room_for_block(&mut self, protect: VbId, at: Ns) -> bool {
        self.make_room(BLOCK_SIZE, protect, at)
    }

    /// Makes room for a delta of `len` bytes.
    pub(crate) fn make_room_for_delta(&mut self, protect: VbId, len: usize, at: Ns) {
        let needed = self.volatile.pool.delta_charge(len);
        let ok = self.make_room(needed, protect, at);
        assert!(
            ok,
            "delta of {len} bytes cannot fit a {}-byte pool",
            self.volatile.pool.capacity()
        );
    }

    /// The replacement ladder (§4.3): (1) drop data blocks from the LRU
    /// tail, (2) drop clean logged deltas, (3) flush dirty deltas and
    /// retry. (The paper's fourth rung, writing dirty independents home,
    /// has nothing to do here: an independent's write is a zero-based log
    /// delta, so cached data is never the only copy.)
    ///
    /// Under sustained pressure each expensive invocation frees a *batch*
    /// (an eighth of the pool) rather than a single block, so its cost
    /// amortises across many subsequent allocations. Passes A1 and A2 ask
    /// the table's residency index for their victims — LRU order, holders
    /// only — so they cost O(victims) plus word skips, not a table walk.
    fn make_room(&mut self, needed: usize, protect: VbId, at: Ns) -> bool {
        if self.volatile.pool.available() >= needed {
            return true;
        }
        let goal = needed.max(self.volatile.pool.capacity() / 8);

        // Pass A1: data blocks first — they are 4 KB each and cheap to
        // reconstruct (reference + resident delta), while a delta costs a
        // mechanical log fetch to get back. Pass A2: only if data alone was
        // not enough, clean logged deltas.
        self.drop_residents(Resident::Data, goal, protect);
        self.drop_residents(Resident::Delta, goal, protect);
        if self.volatile.pool.available() >= needed {
            return true;
        }

        // Pass B: flushing turns dirty deltas into droppable clean ones.
        // Forced full drain: under memory pressure the pipeline must not
        // hold deltas staged past the configured depth. Both classes go in
        // one sweep, so this one walks the LRU itself; it is the rare rung.
        self.flush_all(at);
        let mut next = self.volatile.table.newer(None);
        while let Some(id) = next.filter(|_| self.volatile.pool.available() < goal) {
            next = self.volatile.table.newer(Some(id));
            if id != protect {
                self.drop_clean_delta(id);
                self.drop_data(id);
            }
        }
        self.volatile.pool.available() >= needed
    }

    /// One rung of the ladder: drops what `class` holders can give up, in
    /// LRU order and sparing `protect`, until `goal` bytes are free.
    fn drop_residents(&mut self, class: Resident, goal: usize, protect: VbId) {
        let mut last = None;
        while self.volatile.pool.available() < goal {
            last = self.volatile.table.next_resident(class, last);
            match last {
                None => break,
                Some(id) if id == protect => {}
                Some(id) => match class {
                    Resident::Data => self.drop_data(id),
                    Resident::Delta => self.drop_clean_delta(id),
                },
            }
        }
    }

    /// Drops `id`'s resident delta if the log (or the staging buffer: RAM,
    /// no device op) can give it back.
    fn drop_clean_delta(&mut self, id: VbId) {
        if self.volatile.table.get(id).placement.delta_home() != Some(DeltaHome::Dirty) {
            self.drop_delta(id);
        }
    }

    /// Bounds the virtual-block table: evicts persisted blocks from the LRU
    /// tail once the table exceeds its limit, preserving a rebuild pointer
    /// for content that is not reachable via the home area. At most
    /// [`TRIM_EVICTIONS`] blocks go, from the first [`TRIM_SPAN`] of the
    /// line; the walk steps only through the blocks filed evictable, and
    /// the span still counts every line position — the pinned references it
    /// steps over and the blocks it evicted included.
    pub(crate) fn reserve_table_slot(&mut self, at: Ns) {
        if self.volatile.table.len() < self.volatile.max_virtual_blocks {
            return;
        }
        #[cfg(test)]
        if tests::FULL_TRIM.with(std::cell::Cell::get) {
            return self.reserve_table_slot_full_line(at);
        }
        let Some(tail) = self.volatile.table.newer(None) else {
            return;
        };
        // The block at line position `TRIM_SPAN`, the first the walk may
        // not reach: found by a popcount once a victim's stamp is far
        // enough from the tail's for it to matter, and found on the line as
        // it stands then — less the blocks already evicted, all older.
        // (Found at the top of every call instead, it costs `hit_read` about
        // 5 % of its throughput: most trims end long before it matters.)
        let mut horizon: Option<Option<VbId>> = None;
        let mut evicted = 0;
        let mut flushed = false;
        let mut last = None;
        while evicted < TRIM_EVICTIONS {
            let Some(id) = self.volatile.table.next_evictable(last) else {
                break;
            };
            let table = &self.volatile.table;
            if table.stamp_distance(tail, id) >= TRIM_SPAN {
                let edge = *horizon.get_or_insert_with(|| table.nth_oldest(TRIM_SPAN - evicted));
                if edge.is_some_and(|edge| !table.is_older(id, edge)) {
                    break;
                }
            }
            last = Some(id);
            evicted += usize::from(self.trim(id, &mut flushed, at));
        }
    }

    /// Evicts the evictable block `id` if a rebuild pointer can summarise
    /// it — committing the pipeline first, once a walk (`flushed`), when
    /// RAM may hold its only copy. Returns whether it went. Removes no
    /// other block and moves no stamp, so the walk's cursor stays good.
    fn trim(&mut self, id: VbId, flushed: &mut bool, at: Ns) -> bool {
        // The rebuild pointer the block leaves behind (none: its content
        // is in the home area).
        let record = loop {
            match self.volatile.table.get(id).placement {
                Placement::Home => break None,
                Placement::Slot { slot } | Placement::Reference { slot, own: None } => {
                    break Some(Placement::Slot { slot });
                }
                // A written reference cannot be summarized by a single
                // pointer; keep it resident.
                Placement::Reference { own: Some(_), .. } => return false,
                logged @ (Placement::Associate {
                    delta: DeltaHome::Log(_),
                    ..
                }
                | Placement::Logged {
                    delta: DeltaHome::Log(_),
                }) => break Some(logged),
                // The only copy may be RAM — a dirty delta, or a staged
                // one (its clean resident copy is droppable): commit the
                // pipeline, once, and look again.
                Placement::Associate { .. } | Placement::Logged { .. } if !*flushed => {
                    self.flush_all(at);
                    *flushed = true;
                }
                // The flush did not reach it: no durable home yet.
                Placement::Associate { .. } | Placement::Logged { .. } => return false,
            }
        };
        self.drop_data(id);
        self.drop_delta(id);
        let vb = self.volatile.table.get(id);
        if vb.placement.role() == Role::Reference {
            let (lba, sig) = (vb.lba, vb.sig);
            self.volatile.ref_index.remove(lba, &sig);
        }
        let removed = self.volatile.table.remove(id);
        debug_assert!(removed.delta.is_none() && removed.data.is_none());
        if let Some(record) = record {
            self.volatile.evicted.insert(removed.lba, record);
        }
        true
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::IcashConfig;
    use crate::read::tests::{lockstep, lockstep_bounded, ops_strategy, Family, SysOp};
    use crate::table::BlockTable;
    use icash_delta::signature::BlockSignature;
    use icash_storage::block::BlockBuf;
    use icash_storage::cpu::CpuModel;
    use icash_storage::request::Request;
    use icash_storage::system::{StorageSystem, ZeroSource};
    use proptest::prelude::*;
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// Routes [`Icash::promote_popular`] through the rank-all oracle
        /// (this thread's controllers only).
        pub(super) static RANK_ALL: Cell<bool> = const { Cell::new(false) };
        /// Routes [`Icash::reserve_table_slot`] through the full-line walk
        /// (this thread's controllers only).
        pub(crate) static FULL_TRIM: Cell<bool> = const { Cell::new(false) };
        /// Every block [`Icash::promote`] made a reference, in order.
        pub(crate) static PROMOTED: RefCell<Vec<Lba>> = const { RefCell::new(Vec::new()) };
        /// Scans whose promotion loop ran out of SSD slots mid-loop (the
        /// oracle's count).
        static STARVED: Cell<u32> = const { Cell::new(0) };
    }

    impl Icash {
        /// [`Icash::reserve_table_slot`] as it was: walk every line
        /// position from the LRU tail, testing each block for
        /// evictability. Kept as the oracle.
        pub(super) fn reserve_table_slot_full_line(&mut self, at: Ns) {
            let mut evicted = 0;
            let mut flushed = false;
            let mut next = self.volatile.table.newer(None);
            for _ in 0..TRIM_SPAN {
                let Some(id) = next.filter(|_| evicted < TRIM_EVICTIONS) else {
                    break;
                };
                // (before `id` can leave the table)
                next = self.volatile.table.newer(Some(id));
                if self.volatile.table.get(id).evictable() {
                    evicted += usize::from(self.trim(id, &mut flushed, at));
                }
            }
        }

        /// [`Icash::promote_popular`] as it was: rank every block of the
        /// window with any popularity, then walk the ranking skipping what
        /// cannot be promoted. Kept as the oracle.
        pub(super) fn promote_popular_rank_all(
            &mut self,
            ids: &[VbId],
            now: Ns,
            ctx: &mut IoCtx<'_>,
        ) {
            let mut ranked: Vec<(u64, Lba, VbId)> = Vec::with_capacity(ids.len());
            for &id in ids {
                ctx.cpu.charge(CpuOp::Scan);
                let vb = self.volatile.table.get(id);
                let pop = self.volatile.heatmap.popularity(&vb.sig);
                if pop > 0 {
                    ranked.push((pop, vb.lba, id));
                }
            }
            ranked.sort_unstable_by_key(|&(pop, lba, _)| (Reverse(pop), lba));
            let target = self.promotion_target(ids.len());
            let mut promoted = 0usize;
            for &(_, _, id) in &ranked {
                if promoted >= target {
                    break;
                }
                let vb = self.volatile.table.get(id);
                let role = vb.placement.role();
                if role == Role::Reference || vb.data.is_none() {
                    continue;
                }
                if role == Role::Associate {
                    if let Some(cd) = &vb.delta {
                        if cd.len as usize <= self.cfg.delta_threshold / 4 {
                            continue;
                        }
                    }
                }
                if self.promote(id, now).is_none() {
                    STARVED.with(|s| s.set(s.get() + 1));
                    break;
                }
                promoted += 1;
            }
        }
    }

    /// A small geometry that scans every few I/Os: `slots` SSD slots (few
    /// enough that promotion runs out of them), a 64 KiB pool, a window of
    /// 48 blocks and `ref_fraction` of it promotable per scan.
    fn scanning(slots: u64, ref_fraction: f64) -> IcashConfig {
        IcashConfig::builder(slots * BLOCK_SIZE as u64, 64 << 10, 4 << 20)
            .scan_interval(7)
            .scan_window(48)
            .ref_fraction(ref_fraction)
            .flush_interval(25)
            .log_blocks(1 << 12)
            .build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Ranking only the promotable blocks promotes what ranking all of
        /// them did, in the same order, scan after scan.
        #[test]
        fn ranking_promotable_blocks_matches_the_rank_all_oracle(
            ops in ops_strategy(),
            slots in prop_oneof![Just(6u64), Just(24), Just(256)],
            fraction in prop_oneof![Just(0.0), Just(0.02), Just(0.2), Just(1.0)],
        ) {
            lockstep(&scanning(slots, fraction), &ops, &RANK_ALL);
        }
    }

    /// A history that exhausts the SSD: the oracle's promotion loop stops
    /// on a refused promotion with candidates still ranked, and the
    /// filtered loop stops at the same block.
    #[test]
    fn both_loops_stop_at_the_same_refused_promotion() {
        let mut ops = Vec::new();
        for round in 0..6u8 {
            for lba in 0..40 {
                let family = [Family::Similar, Family::Sparse][usize::from(lba % 3 == 0)];
                ops.push(SysOp::Write {
                    lba,
                    tag: round,
                    family,
                });
                ops.push(SysOp::Read {
                    lba: (lba * 7) % 40,
                });
            }
            ops.push(SysOp::Flush);
        }
        STARVED.with(|s| s.set(0));
        let (stats, ..) = lockstep(&scanning(6, 0.2), &ops, &RANK_ALL);
        assert!(stats.ref_installs > 0, "{stats:?}");
        assert!(STARVED.with(Cell::get) > 0, "no scan ran out of slots");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Walking only the blocks filed evictable evicts what walking every
        /// line position did, block for block, whatever the table's bound.
        #[test]
        fn the_evictable_walk_matches_the_full_line_trim(
            ops in ops_strategy(),
            bound in prop_oneof![Just(4usize), Just(12), Just(24), Just(48)],
            slots in prop_oneof![Just(6u64), Just(256)],
            depth in prop_oneof![Just(1u64), Just(4)],
        ) {
            let mut cfg = scanning(slots, 0.2);
            cfg.group_commit_depth = depth;
            lockstep_bounded(&cfg, &ops, &FULL_TRIM, Some(bound));
        }
    }

    /// One trim of a table whose LRU tail is `head` home blocks, then
    /// `pinned` references with an associate each, then `rest` home blocks
    /// — through the full-line walk (`full`) or the evictable one. Returns
    /// the addresses it evicted (all home blocks: they leave no record).
    fn trim_behind_pinned(head: u64, pinned: u64, rest: u64, full: bool) -> Vec<u64> {
        let mut sys = Icash::new(scanning(6, 0.2));
        let sig = BlockSignature::from_raw([0; 8]);
        let mut table = BlockTable::new();
        for lba in 0..head + pinned + rest {
            let mut vb = VirtualBlock::independent(Lba::new(lba), sig);
            if (head..head + pinned).contains(&lba) {
                vb.placement = Placement::Reference {
                    slot: lba,
                    own: None,
                };
                vb.dependants = 1;
            }
            table.insert(vb);
        }
        sys.volatile.max_virtual_blocks = table.len();
        sys.volatile.table = table;
        FULL_TRIM.with(|f| f.set(full));
        sys.reserve_table_slot(Ns::ZERO);
        FULL_TRIM.with(|f| f.set(false));
        sys.volatile.table.validate();
        (0..head + pinned + rest)
            .filter(|&l| sys.volatile.table.lookup(Lba::new(l)).is_none())
            .collect()
    }

    /// The trim's span counts line positions, not the blocks it may evict:
    /// past 8 192 pinned references at the tail it evicts nothing, and a
    /// home block at position 8 191 — behind ten evicted ones and 8 181
    /// pinned ones — is the last it reaches.
    #[test]
    fn the_trim_span_counts_pinned_references_and_evictions() {
        for (head, pinned, evicted) in [
            (0, 8_200, vec![]),
            (0, 8_191, vec![8_191]),
            (0, 8_192, vec![]),
            (10, 8_181, (0..10).chain([8_191]).collect()),
            (10, 8_182, (0..10).collect()),
        ] {
            for full in [true, false] {
                let got = trim_behind_pinned(head, pinned, 20, full);
                assert_eq!(got, evicted, "{head} + {pinned} pinned, full line {full}");
            }
        }
    }

    /// A few hundred bytes of noise in a zero block: logged as a zero-based
    /// delta small enough that nine share one log block.
    fn sparse(lba: u64) -> BlockBuf {
        let mut bytes = vec![0u8; BLOCK_SIZE];
        let mut state = (lba + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for byte in &mut bytes[..400] {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *byte = state as u8;
        }
        BlockBuf::from_vec(bytes)
    }

    /// Dirty blocks admitted in scrambled address order are packed by
    /// address: each trigger's entries take ascending log blocks, with
    /// ascending addresses inside each block. Above depth 1 each trigger is
    /// sorted on its own and the commit keeps triggers in ticket order, so
    /// triggers written over descending address ranges land range by range.
    #[test]
    fn a_flush_packs_its_deltas_by_address() {
        const BLOCKS: u64 = 48;
        for depth in [1, 4] {
            let cfg = IcashConfig::builder(1 << 20, 4 << 20, 4 << 20)
                .scan_interval(1_000_000)
                .flush_interval(1_000_000)
                .group_commit_depth(depth)
                .build();
            let mut sys = Icash::new(cfg);
            let mut cpu = CpuModel::xeon();
            let backing = ZeroSource;
            let mut ctx = IoCtx::verifying(&backing, &mut cpu);
            let mut expected = Vec::new();
            for trigger in 0..depth {
                let base = (depth - 1 - trigger) * BLOCKS;
                // (23 is prime to BLOCKS: a permutation, scrambled.)
                for i in 0..BLOCKS {
                    let lba = base + (i * 23 + trigger * 7) % BLOCKS;
                    let w = Request::write(Lba::new(lba), Ns::ZERO, sparse(lba));
                    sys.submit(&w, &mut ctx);
                }
                sys.flush_dirty(Ns::ZERO);
                expected.extend((base..base + BLOCKS).map(Lba::new));
            }
            sys.debug_validate();
            let log = &sys.durable.log;
            let mut packed = Vec::new();
            for loc in 0..log.len_blocks() as u32 {
                for entry in &log.fetch(loc).entries {
                    let id = sys.volatile.table.lookup(entry.lba).expect("tracked");
                    let home = sys.volatile.table.get(id).placement.delta_home();
                    assert_eq!(home, Some(DeltaHome::Log(loc)), "depth {depth}");
                    packed.push(entry.lba);
                }
            }
            assert!(
                log.len_blocks() > 2 * depth,
                "depth {depth}: too few blocks"
            );
            assert_eq!(packed, expected, "depth {depth}: log order");
        }
    }

    /// The table trim meets a reference whose own delta is staged for group
    /// commit and no longer resident (what ladder rungs A2/A1 leave behind).
    /// Its flush turns "staged" into "logged"; the block must then still
    /// count as a written reference — slot + self-delta is not something one
    /// eviction pointer can say — and not leave the table as a bare slot.
    #[test]
    fn evicting_a_staged_written_reference_keeps_its_write() {
        let cfg = IcashConfig::builder(1 << 20, 256 << 10, 4 << 20)
            .scan_interval(1_000_000)
            .flush_interval(1_000_000)
            .group_commit_depth(4)
            .build();
        let mut sys = Icash::new(cfg);
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        let read = |sys: &mut Icash, ctx: &mut IoCtx<'_>, lba| {
            let done = sys.submit(&Request::read(Lba::new(lba), Ns::ZERO), ctx);
            assert!(done.errors.is_empty());
            sys.debug_validate();
            done.data[0].clone()
        };
        let first = sparse(0);
        sys.submit(
            &Request::write(Lba::new(0), Ns::ZERO, first.clone()),
            &mut ctx,
        );
        let id = sys.volatile.table.lookup(Lba::new(0)).expect("tracked");
        sys.promote(id, Ns::ZERO).expect("a free slot");
        let mut bytes = first.as_slice().to_vec();
        bytes[100] ^= 0x5A;
        let second = BlockBuf::from_vec(bytes);
        sys.submit(
            &Request::write(Lba::new(0), Ns::ZERO, second.clone()),
            &mut ctx,
        );
        sys.flush_dirty(Ns::ZERO); // staged: one trigger of four
        assert_eq!(sys.volatile.staging.live(), 1);
        sys.drop_clean_delta(id);
        sys.drop_data(id);
        sys.debug_validate();
        for lba in 1..5 {
            read(&mut sys, &mut ctx, lba);
        }
        sys.volatile.max_virtual_blocks = sys.volatile.table.len();
        read(&mut sys, &mut ctx, 100); // trims the table from block 0 up
        assert!(
            read(&mut sys, &mut ctx, 0) == second,
            "the trim dropped an acknowledged write"
        );
    }

    /// Sixty-four blocks rewritten fifty times, a flush per round: the log
    /// holds the payloads of the live entries and at most the last append's
    /// worth more (what it superseded waits for its seal), not fifty rounds
    /// of history — which it does hold when it keeps every payload.
    #[test]
    fn the_log_holds_only_what_a_read_or_a_recovery_can_reach() {
        const BLOCKS: u64 = 64;
        // 400 nonzero bytes over zeroes: one zero-based delta of the same
        // size every round.
        let noisy = |lba: u64, round: u64| {
            let mut bytes = vec![0u8; BLOCK_SIZE];
            let mut state = (lba << 8 | round).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for byte in &mut bytes[..400] {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *byte = state as u8 | 1;
            }
            BlockBuf::from_vec(bytes)
        };
        for depth in [1, 4] {
            let mut held_at_end = [0u64; 2];
            for (keep, held_at_end) in [false, true].into_iter().zip(&mut held_at_end) {
                crate::delta_log::KEEP_PAYLOADS.with(|k| k.set(keep));
                let cfg = IcashConfig::builder(1 << 20, 4 << 20, 4 << 20)
                    .scan_interval(1_000_000)
                    .flush_interval(BLOCKS)
                    .group_commit_depth(depth)
                    .build();
                let mut sys = Icash::new(cfg);
                let mut cpu = CpuModel::xeon();
                let backing = ZeroSource;
                let mut ctx = IoCtx::verifying(&backing, &mut cpu);
                for round in 0..50 {
                    for lba in 0..BLOCKS {
                        let w = Request::write(Lba::new(lba), Ns::ZERO, noisy(lba, round));
                        sys.submit(&w, &mut ctx);
                    }
                    sys.debug_validate();
                    // Live: the entry a block's placement names or, while
                    // its delta is on the way to the log, its newest one.
                    let log = &sys.durable.log;
                    let mut newest: AddrMap<Lba, (u64, u64)> = AddrMap::default();
                    for loc in 0..log.len_blocks() as u32 {
                        for e in &log.fetch(loc).entries {
                            let at = newest.entry(e.lba).or_insert((e.generation, 0));
                            if e.generation >= at.0 {
                                *at = (e.generation, e.payload_len() as u64);
                            }
                        }
                    }
                    let live: u64 = (0..BLOCKS)
                        .filter_map(|l| {
                            let id = sys.volatile.table.lookup(Lba::new(l))?;
                            match sys.volatile.table.get(id).placement.delta_home()? {
                                DeltaHome::Log(loc) => {
                                    log.entry(loc, Lba::new(l)).map(|e| e.payload_len() as u64)
                                }
                                _ => newest.get(&Lba::new(l)).map(|&(_, len)| len),
                            }
                        })
                        .sum();
                    let (first, count) = log.last_append_span();
                    let last: u64 = (first..first + count)
                        .flat_map(|loc| &log.fetch(loc).entries)
                        .map(|e| e.payload_len() as u64)
                        .sum();
                    if !keep {
                        let held = log.held_payload_bytes();
                        assert!(
                            held <= live + last,
                            "depth {depth}, round {round}: {held} bytes held, {live} live, {last} last appended"
                        );
                    }
                }
                *held_at_end = sys.durable.log.held_payload_bytes();
                crate::delta_log::KEEP_PAYLOADS.with(|k| k.set(false));
            }
            let [released, kept] = held_at_end;
            assert!(
                kept > 5 * released,
                "depth {depth}: {kept} kept against {released}"
            );
        }
    }

    /// A commit of written references' own deltas that a cleaned 64-block
    /// log cannot take (DESIGN.md §12): the references with no associates
    /// at its back are written home instead — out of the reference index,
    /// their slots freed behind a tombstone — and every block reads back
    /// its last write, before and after a crash.
    #[test]
    fn a_written_reference_the_log_cannot_take_goes_home() {
        const REFS: u64 = 80;
        let cfg = IcashConfig::builder(1 << 20, 4 << 20, 4 << 20)
            .scan_interval(1_000_000)
            .flush_interval(1_000_000)
            .log_blocks(64)
            .delta_threshold(3_900)
            .build();
        let mut sys = Icash::new(cfg);
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        // Three thousand bytes of noise over the slot's content: an own
        // delta that fills a log block alone.
        let rewrite = |lba: u64| {
            let mut bytes = sparse(lba).as_slice().to_vec();
            let mut state = lba + 1;
            for byte in &mut bytes[400..3_400] {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                *byte = (state >> 56) as u8;
            }
            BlockBuf::from_vec(bytes)
        };
        for lba in 0..REFS {
            let w = Request::write(Lba::new(lba), Ns::ZERO, sparse(lba));
            sys.submit(&w, &mut ctx);
            let id = sys.volatile.table.lookup(Lba::new(lba)).expect("tracked");
            sys.promote(id, Ns::ZERO).expect("a free slot");
        }
        for lba in 0..REFS {
            let w = Request::write(Lba::new(lba), Ns::ZERO, rewrite(lba));
            sys.submit(&w, &mut ctx);
        }
        let t = sys.sync(Ns::ZERO, &mut ctx);
        sys.debug_validate();
        assert!(sys.stats().log_cleans > 0);
        let home = (0..REFS)
            .filter(|&lba| {
                let id = sys.volatile.table.lookup(Lba::new(lba)).expect("tracked");
                sys.volatile.table.get(id).placement == Placement::Home
            })
            .count();
        assert!(home > 0, "no written reference went home");
        let (references, _, _) = sys.volatile.table.role_counts();
        assert_eq!(sys.volatile.ref_index.len() as u64, references);
        assert_eq!(references, REFS - home as u64);
        let check = |sys: &mut Icash, ctx: &mut IoCtx<'_>| {
            for lba in 0..REFS {
                let c = sys.submit(&Request::read(Lba::new(lba), t), ctx);
                assert!(c.data[0] == rewrite(lba), "lba {lba} read back stale");
            }
        };
        check(&mut sys, &mut ctx);
        let mut recovered = sys.crash_and_recover();
        recovered.debug_validate();
        check(&mut recovered, &mut ctx);
    }

    /// Log read-ahead hands siblings a clean delta without touching them.
    /// The ladder must still drop each at its own LRU position — not where
    /// a list ordered by *gain* would put it — and must step over the
    /// protected block without stalling or dropping it.
    #[test]
    fn deltas_gained_without_a_touch_are_dropped_in_lru_order() {
        let cfg = IcashConfig::builder(1 << 20, 64 << 10, 4 << 20)
            .scan_interval(1_000_000)
            .flush_interval(1_000_000)
            .build();
        let mut sys = Icash::new(cfg);
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        let read = |sys: &mut Icash, ctx: &mut IoCtx<'_>, lba| {
            let done = sys.submit(&Request::read(Lba::new(lba), Ns::ZERO), ctx);
            assert!(done.errors.is_empty());
        };
        let span = Request::write_span(Lba::new(0), Ns::ZERO, (0..9).map(sparse).collect());
        sys.submit(&span, &mut ctx);
        sys.flush_all(Ns::ZERO);
        let ids: Vec<VbId> = (0..9)
            .map(|lba| sys.volatile.table.lookup(Lba::new(lba)).expect("tracked"))
            .collect();
        // Recency, oldest first: 0 1 3 4 5 7 8 2 6.
        read(&mut sys, &mut ctx, 2);
        ids.iter().for_each(|&id| sys.drop_delta(id));
        read(&mut sys, &mut ctx, 6);
        assert_eq!(sys.stats.log_prefetched_deltas, 8, "one fetch, nine deltas");

        // Asking for one byte more than is free evicts exactly one victim.
        let holders = |sys: &Icash, data: bool| -> Vec<usize> {
            let holds = |&lba: &usize| {
                let vb = sys.volatile.table.get(ids[lba]);
                if data {
                    vb.data.is_some()
                } else {
                    vb.delta.is_some()
                }
            };
            (0..9).filter(holds).collect()
        };
        let mut victims: Vec<usize> = Vec::new();
        for _ in 0..10 {
            let before = (holders(&sys, true), holders(&sys, false));
            let needed = sys.volatile.pool.available() + 1;
            assert!(sys.make_room(needed, ids[1], Ns::ZERO));
            let after = (holders(&sys, true), holders(&sys, false));
            victims.extend(before.0.iter().filter(|l| !after.0.contains(l)));
            victims.extend(before.1.iter().filter(|l| !after.1.contains(l)));
            sys.debug_validate();
        }
        // Data first (the two blocks that were read), then deltas; block 1
        // is protected and block 2 goes where its last touch put it.
        assert_eq!(victims, [2, 6, 0, 3, 4, 5, 7, 8, 2, 6]);
        assert_eq!(holders(&sys, false), [1], "protect stays resident");
    }
}
