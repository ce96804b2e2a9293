//! Trace collection and reporting on top of [`icash_storage::trace`].
//!
//! The storage crate owns the event vocabulary and the emission machinery
//! (devices and controllers must stay free of metrics dependencies); this
//! module adds the measurement-side pieces:
//!
//! * [`JsonlSink`] — a [`TraceSink`] that renders every event to canonical
//!   JSONL as it arrives, producing the `--trace out.jsonl` artifact.
//! * [`parse_jsonl`] — the inverse: a JSONL document back into events.
//! * [`TraceProfile`] — a per-phase virtual-time breakdown of one event
//!   stream, rendered by the `trace_profile` binary. It is a [`TraceSink`]
//!   too, so the same fold profiles a live run and a parsed file.
//!
//! ```
//! use icash_metrics::trace::{JsonlSink, TraceProfile, parse_jsonl};
//! use icash_storage::time::Ns;
//! use icash_storage::trace::{TraceEvent, TraceKind, TraceSink};
//!
//! let mut sink = JsonlSink::new();
//! sink.record(TraceEvent { at: Ns::from_us(3), kind: TraceKind::RamHit { lba: 9 } });
//! let events = parse_jsonl(sink.text()).expect("round-trip");
//! assert_eq!(events.len(), 1);
//! let profile = TraceProfile::from_events(&events);
//! assert_eq!(profile.stats.ram_hits, 1);
//! ```

use icash_storage::time::Ns;
pub use icash_storage::trace::{
    FaultKind, RingSink, TraceEvent, TraceKind, TraceSink, TraceStats, Tracer,
};

/// A [`TraceSink`] that renders events to canonical JSONL text as they
/// arrive (one [`TraceEvent::to_json`] line per event).
///
/// The text is deterministic: two bit-identical simulated runs produce
/// byte-identical documents, which is exactly what the determinism suite
/// diffs across `ICASH_THREADS` settings.
#[derive(Debug, Default)]
pub struct JsonlSink {
    text: String,
    events: u64,
}

impl JsonlSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        JsonlSink::default()
    }

    /// The JSONL document so far (one line per event, each `\n`-terminated).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Events recorded so far.
    pub fn len(&self) -> u64 {
        self.events
    }

    /// Whether no event has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Takes the document out, leaving the sink empty.
    pub fn take_text(&mut self) -> String {
        self.events = 0;
        std::mem::take(&mut self.text)
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, event: TraceEvent) {
        self.record_sharded(0, event);
    }

    /// Serializes the shard tag as a trailing `"shard"` field. Shard 0
    /// (also the unsharded engine) stays untagged, so a one-shard router's
    /// document is byte-identical to the bare system's — the invariant the
    /// `shards=1` differential tests pin.
    fn record_sharded(&mut self, shard: u32, event: TraceEvent) {
        event.write_json(shard, &mut self.text);
        self.text.push('\n');
        self.events += 1;
    }
}

/// Splits a JSONL trace document into per-shard documents, indexed by
/// shard id (untagged lines are shard 0). Blank lines are dropped; parse
/// errors are reported with their line number, as in [`parse_jsonl`].
pub fn split_by_shard(text: &str) -> Result<Vec<(u32, String)>, String> {
    let mut shards: Vec<(u32, String)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if TraceEvent::from_json(line).is_none() {
            return Err(format!("line {}: unparseable trace event: {line}", i + 1));
        }
        let shard = TraceEvent::shard_of_json(line);
        let doc = match shards.iter_mut().find(|(s, _)| *s == shard) {
            Some((_, doc)) => doc,
            None => {
                shards.push((shard, String::new()));
                &mut shards.last_mut().expect("just pushed").1
            }
        };
        doc.push_str(line);
        doc.push('\n');
    }
    shards.sort_by_key(|&(s, _)| s);
    Ok(shards)
}

/// Parses a JSONL trace document back into events. Blank lines are
/// skipped; any other unparseable line is an error naming its line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match TraceEvent::from_json(line) {
            Some(e) => events.push(e),
            None => return Err(format!("line {}: unparseable trace event: {line}", i + 1)),
        }
    }
    Ok(events)
}

/// A per-phase virtual-time breakdown of one trace: how many events each
/// phase of the stack produced and how much virtual device time they
/// accounted for. Every count — and the summed request spans — is
/// [`TraceStats`]' (each event goes through [`TraceStats::record`], the one
/// counting fold over a stream); the profile adds what only it knows:
/// device time from each op's `queued + service` charge, the recovery
/// events, and the HDD queue's activity (the one count of queue events:
/// no device keeps its own).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TraceProfile {
    /// The stream's event counts and summed request spans.
    pub stats: TraceStats,
    /// Virtual time in SSD reads.
    pub ssd_read_time: Ns,
    /// Virtual time in SSD programs.
    pub ssd_program_time: Ns,
    /// Virtual time in HDD reads.
    pub hdd_read_time: Ns,
    /// Virtual time in HDD writes.
    pub hdd_write_time: Ns,
    /// Recovery events (truncate + replay).
    pub recovery_events: u64,
    /// Command-queue activity on the HDD, the one device with a queue.
    pub hdd_queue: QueueProfile,
}

/// Command-queue activity, accumulated from `QueueAdmit` / `QueueReorder`
/// / `Coalesce` events.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct QueueProfile {
    /// Commands admitted to the queue.
    pub admits: u64,
    /// Summed queue occupancy at admission (mean = `depth_sum / admits`).
    pub depth_sum: u64,
    /// Highest occupancy observed at admission.
    pub depth_max: u64,
    /// Commands dispatched out of arrival order.
    pub reorders: u64,
    /// Coalesced sequential transfers issued.
    pub coalesces: u64,
    /// Commands absorbed into those transfers (beyond the first).
    pub coalesced_commands: u64,
    /// Histogram of coalesced-span sizes: 2, 3–4, 5–8, and 9+ commands.
    pub span_hist: [u64; 4],
}

impl QueueProfile {
    fn admit(&mut self, depth: u32) {
        self.admits += 1;
        self.depth_sum += depth as u64;
        self.depth_max = self.depth_max.max(depth as u64);
    }

    fn coalesce(&mut self, spans: u32) {
        self.coalesces += 1;
        self.coalesced_commands += spans.saturating_sub(1) as u64;
        let bucket = match spans {
            0..=2 => 0,
            3..=4 => 1,
            5..=8 => 2,
            _ => 3,
        };
        self.span_hist[bucket] += 1;
    }

    /// Mean queue occupancy at admission.
    pub fn mean_depth(&self) -> f64 {
        if self.admits == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.admits as f64
        }
    }

    /// Whether any queue event was observed.
    pub fn is_active(&self) -> bool {
        self.admits > 0 || self.reorders > 0 || self.coalesces > 0
    }

    fn render_line(&self, name: &str, out: &mut String) {
        if !self.is_active() {
            return;
        }
        out.push_str(&format!(
            "  {name}: {} admits (mean depth {:.2}, max {}), {} reorders",
            self.admits,
            self.mean_depth(),
            self.depth_max,
            self.reorders
        ));
        if self.coalesces > 0 {
            out.push_str(&format!(
                ", {} coalesced transfers absorbing {} commands (spans 2:{} 3-4:{} 5-8:{} 9+:{})",
                self.coalesces,
                self.coalesced_commands,
                self.span_hist[0],
                self.span_hist[1],
                self.span_hist[2],
                self.span_hist[3]
            ));
        }
        out.push('\n');
    }
}

impl TraceProfile {
    /// Builds a profile from an event stream (in emission order — span
    /// accounting pairs each `RequestEnd` with the latest `RequestStart`).
    /// The same as recording each event into a fresh profile.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Self {
        let mut p = TraceProfile::default();
        for e in events {
            p.record(e.clone());
        }
        p
    }

    /// Renders the breakdown as an ASCII table: one row per phase with its
    /// event count, virtual time, and share of summed request time.
    pub fn render(&self) -> String {
        let s = &self.stats;
        let total = s.request_time;
        let pct = |t: Ns| {
            if total == Ns::ZERO {
                0.0
            } else {
                100.0 * t.as_secs_f64() / total.as_secs_f64()
            }
        };
        let mut out = String::from(
            "| Phase | Events | Virtual time | % of request time |\n|---|---:|---:|---:|\n",
        );
        let ms = |t: Ns| t.as_secs_f64() * 1e3;
        out.push_str(&format!(
            "| Request spans | {} | {:.3} ms | 100.0 |\n",
            s.requests,
            ms(total)
        ));
        let mut row = |phase: &str, events: u64, t: Ns| {
            out.push_str(&format!(
                "| {phase} | {events} | {:.3} ms | {:.1} |\n",
                ms(t),
                pct(t)
            ));
        };
        row("SSD reads", s.ssd_reads, self.ssd_read_time);
        row("SSD programs", s.ssd_programs, self.ssd_program_time);
        row("HDD reads", s.hdd_reads, self.hdd_read_time);
        row("HDD writes", s.hdd_writes, self.hdd_write_time);
        if s.open_loop_arrivals > 0 {
            // Only open-loop runs have arrivals; closed-loop profiles keep
            // their historical row set byte-for-byte.
            row("Open-loop queued", s.open_loop_arrivals, s.open_loop_queued);
        }
        let faults = s.faults_hdd_read
            + s.faults_hdd_write
            + s.faults_ssd_read
            + s.faults_wearout
            + s.faults_remapped
            + s.faults_dead_device;
        let counts: [(&str, u64); 19] = [
            ("SSD erases", s.ssd_erases),
            ("RAM hits", s.ram_hits),
            ("Signature probes", s.sig_probes),
            ("  bound", s.sig_binds),
            ("Delta encodes", s.delta_encodes),
            ("Delta decodes", s.delta_decodes),
            ("Staged deltas", s.stage_enters),
            ("Group commits", s.group_commits),
            ("Barriers", s.barrier_waits + s.barrier_noops),
            ("Log flushes", s.log_flushes),
            ("Log cleans", s.log_cleans),
            ("Injected faults", faults),
            ("Retries/repairs", s.fault_retries + s.slot_repairs),
            ("Scrub passes", s.scrubs),
            ("Health transitions", s.health_transitions),
            ("Rebuild chunks", s.rebuild_chunks),
            ("  slots rebuilt", s.rebuild_slots),
            ("Backpressure rejects", s.backpressure_rejects),
            ("Backoff retries", s.retry_backoffs),
        ];
        for (phase, events) in counts {
            if events > 0 {
                out.push_str(&format!("| {phase} | {events} | - | - |\n"));
            }
        }
        if self.hdd_queue.is_active() {
            out.push_str("\nDevice command queues:\n");
            self.hdd_queue.render_line("HDD", &mut out);
        }
        out
    }
}

impl TraceSink for TraceProfile {
    fn record(&mut self, e: TraceEvent) {
        match e.kind {
            TraceKind::SsdRead {
                queued, service, ..
            } => self.ssd_read_time += queued + service,
            TraceKind::SsdProgram {
                queued, service, ..
            } => self.ssd_program_time += queued + service,
            TraceKind::HddRead {
                queued, service, ..
            } => self.hdd_read_time += queued + service,
            TraceKind::HddWrite {
                queued, service, ..
            } => self.hdd_write_time += queued + service,
            TraceKind::RecoveryTruncate { .. } | TraceKind::RecoveryReplay { .. } => {
                self.recovery_events += 1;
            }
            TraceKind::QueueAdmit { depth, .. } => self.hdd_queue.admit(depth),
            TraceKind::QueueReorder { .. } => self.hdd_queue.reorders += 1,
            TraceKind::Coalesce { spans, .. } => self.hdd_queue.coalesce(spans),
            _ => {}
        }
        self.stats.record(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(at: Ns, kind: TraceKind) -> TraceEvent {
        TraceEvent { at, kind }
    }

    #[test]
    fn jsonl_sink_round_trips() {
        let mut sink = JsonlSink::new();
        assert!(sink.is_empty());
        let events = vec![
            e(
                Ns::from_us(1),
                TraceKind::RequestStart {
                    op: icash_storage::request::Op::Read,
                    lba: 42,
                    blocks: 1,
                },
            ),
            e(
                Ns::from_us(2),
                TraceKind::SsdRead {
                    lpn: 7,
                    queued: Ns::ZERO,
                    service: Ns::from_us(25),
                    ok: true,
                },
            ),
            e(Ns::from_us(30), TraceKind::RequestEnd),
        ];
        for ev in &events {
            sink.record(ev.clone());
        }
        assert_eq!(sink.len(), 3);
        let parsed = parse_jsonl(sink.text()).expect("parses");
        assert_eq!(parsed, events);
    }

    #[test]
    fn parse_reports_bad_lines() {
        let err = parse_jsonl("{\"at\":1,\"kind\":\"nonsense\"}\n").expect_err("must fail");
        assert!(err.contains("line 1"), "got: {err}");
    }

    #[test]
    fn profile_accounts_spans_and_device_time() {
        let events = vec![
            e(
                Ns::ZERO,
                TraceKind::RequestStart {
                    op: icash_storage::request::Op::Write,
                    lba: 1,
                    blocks: 1,
                },
            ),
            e(
                Ns::from_us(5),
                TraceKind::HddWrite {
                    disk: 0,
                    lba: 1,
                    blocks: 1,
                    queued: Ns::from_us(2),
                    service: Ns::from_us(8),
                    ok: true,
                },
            ),
            e(Ns::from_us(10), TraceKind::RequestEnd),
            e(Ns::from_us(10), TraceKind::RamHit { lba: 1 }),
        ];
        let p = TraceProfile::from_events(&events);
        assert_eq!(p.stats.requests, 1);
        assert_eq!(p.stats.request_time, Ns::from_us(10));
        assert_eq!(p.stats.hdd_writes, 1);
        assert_eq!(p.hdd_write_time, Ns::from_us(10));
        assert_eq!(p.stats.ram_hits, 1);
        let table = p.render();
        assert!(table.contains("Request spans"), "table: {table}");
        assert!(table.contains("HDD writes"), "table: {table}");
        assert!(table.contains("RAM hits"), "table: {table}");
    }

    #[test]
    fn sharded_lines_round_trip_and_split() {
        let mut sink = JsonlSink::new();
        let ev = |at| e(at, TraceKind::RamHit { lba: 3 });
        sink.record_sharded(0, ev(Ns::from_us(1)));
        sink.record_sharded(2, ev(Ns::from_us(2)));
        sink.record_sharded(1, ev(Ns::from_us(3)));
        // Shard 0 serializes exactly like an untagged event.
        let untagged = {
            let mut s = JsonlSink::new();
            s.record(ev(Ns::from_us(1)));
            s.take_text()
        };
        assert_eq!(sink.text().lines().next().unwrap(), untagged.trim_end());
        assert!(sink.text().contains("\"shard\":2"));
        // The tag survives the parser (which ignores unknown fields)...
        let parsed = parse_jsonl(sink.text()).expect("parses");
        assert_eq!(parsed.len(), 3);
        // ...and drives the per-shard split.
        let shards = split_by_shard(sink.text()).expect("splits");
        let ids: Vec<u32> = shards.iter().map(|&(s, _)| s).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        for (_, doc) in &shards {
            assert_eq!(parse_jsonl(doc).expect("each splits cleanly").len(), 1);
        }
    }

    #[test]
    fn queue_events_build_the_hdd_section() {
        let admit = |at, depth| {
            e(
                Ns::from_us(at),
                TraceKind::QueueAdmit {
                    dev: 1,
                    lba: 70,
                    blocks: 1,
                    depth,
                },
            )
        };
        let coalesce = |at, spans| {
            e(
                Ns::from_us(at),
                TraceKind::Coalesce {
                    dev: 1,
                    lba: 80,
                    spans,
                    blocks: spans,
                },
            )
        };
        let events = vec![
            admit(2, 2),
            admit(3, 4),
            e(
                Ns::from_us(4),
                TraceKind::QueueReorder {
                    dev: 1,
                    lba: 9,
                    jumped: 2,
                },
            ),
            coalesce(5, 3),
            coalesce(6, 9),
        ];
        let p = TraceProfile::from_events(&events);
        let q = &p.hdd_queue;
        assert_eq!((q.admits, q.depth_max, q.reorders), (2, 4, 1));
        assert!((q.mean_depth() - 3.0).abs() < 1e-9);
        assert_eq!(q.coalesces, 2);
        assert_eq!(q.coalesced_commands, 2 + 8);
        assert_eq!(q.span_hist, [0, 1, 0, 1]);
        let table = p.render();
        assert!(table.contains("Device command queues"), "table: {table}");
        assert!(table.contains("HDD: 2 admits (mean depth 3.00, max 4), 1 reorders"));
        assert!(table.contains("spans 2:0 3-4:1 5-8:0 9+:1"));
    }

    #[test]
    fn queue_free_profile_has_no_queue_section() {
        let p = TraceProfile::from_events(&[e(Ns::ZERO, TraceKind::RamHit { lba: 1 })]);
        assert!(!p.hdd_queue.is_active());
        assert!(!p.render().contains("Device command queues"));
    }

    #[test]
    fn unterminated_span_is_ignored() {
        let events = vec![e(
            Ns::from_us(4),
            TraceKind::RequestStart {
                op: icash_storage::request::Op::Read,
                lba: 0,
                blocks: 1,
            },
        )];
        let p = TraceProfile::from_events(&events);
        assert_eq!(p.stats.requests, 1);
        assert_eq!(p.stats.request_time, Ns::ZERO);
    }

    /// The "Open-loop queued" row appears exactly when the stream carries
    /// an open-loop arrival: a closed-loop profile keeps its row set.
    #[test]
    fn open_loop_row_follows_the_arrivals() {
        let closed = vec![
            e(
                Ns::ZERO,
                TraceKind::RequestStart {
                    op: icash_storage::request::Op::Read,
                    lba: 3,
                    blocks: 1,
                },
            ),
            e(Ns::from_us(40), TraceKind::RequestEnd),
        ];
        let mut open = closed.clone();
        open.insert(
            0,
            e(
                Ns::ZERO,
                TraceKind::OpenLoopArrival {
                    seq: 0,
                    lba: 3,
                    queued: 15_000,
                },
            ),
        );
        let row = "| Open-loop queued | 1 | 0.015 ms |";
        assert!(TraceProfile::from_events(&open).render().contains(row));
        let closed = TraceProfile::from_events(&closed).render();
        assert!(!closed.contains("Open-loop"), "{closed}");
    }
}
