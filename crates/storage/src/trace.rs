//! Deterministic structured tracing for the whole stack.
//!
//! Every interesting step of a simulated request — the host-level span, the
//! flash and mechanical device operations underneath it, fault-injector
//! draws, and (one crate up) the I-CASH controller's codec decisions — can
//! emit a [`TraceEvent`] stamped with **virtual** time. Because the
//! simulation consults no wall clock and no global randomness, a trace is a
//! deterministic artifact: the same seed produces the same byte-for-byte
//! event stream, so traces serve as *oracles* that cross-check the
//! aggregate counters ([`DeviceStats`](crate::stats::DeviceStats),
//! [`FaultStats`](crate::fault::FaultStats), `SystemReport`) event by
//! event.
//!
//! ## Overhead contract
//!
//! Tracing follows the fault layer's zero-cost rule: a disabled [`Tracer`]
//! (the default) is a single `Option` check per site, the event-construction
//! closure is never invoked, and **no simulated outcome may ever depend on
//! whether a tracer is attached** — attaching a sink changes what is
//! *recorded*, never what *happens*. Differential tests hold both halves of
//! the contract.
//!
//! ## Example
//!
//! ```
//! use icash_storage::ssd::{Ssd, SsdConfig};
//! use icash_storage::time::Ns;
//! use icash_storage::trace::{TraceKind, Tracer};
//!
//! let (tracer, sink) = Tracer::ring(64);
//! let mut ssd = Ssd::new(SsdConfig::fusion_io(1 << 20));
//! ssd.set_tracer(tracer);
//! ssd.write(Ns::ZERO, 7)?;
//! let sink = sink.lock().expect("sink");
//! let first = sink.events().front().expect("one event");
//! assert!(matches!(first.kind, TraceKind::SsdProgram { lpn: 7, .. }));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::fault::HealthState;
use crate::request::Op;
use crate::time::Ns;
use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex};

/// The kind of an injected fault, mirroring the counters of
/// [`FaultStats`](crate::fault::FaultStats) one-to-one so a counting sink
/// can be diffed against the injector's own accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// An HDD block read hit a latent sector error.
    HddRead,
    /// An HDD block write failed transiently.
    HddWrite,
    /// An SSD page read was uncorrectable (base rate or trigger).
    SsdRead,
    /// The wear-out term of an uncorrectable SSD read (also counted as
    /// [`FaultKind::SsdRead`] in [`FaultStats`](crate::fault::FaultStats),
    /// so it is emitted as a second event alongside one `SsdRead` event).
    Wearout,
    /// A bad sector/page was cleared by a successful rewrite (drive remap).
    Remap,
    /// An operation was refused because the whole device had died
    /// (a `ssd_dies_at`/`hdd_dies_at` trigger fired).
    DeviceDead,
}

/// How one field type appears on the wire. Every field of every kind is
/// written and parsed through its type's impl, so a number too wide for the
/// field it lands in is malformed, never truncated.
trait Wire: Sized {
    /// Appends the JSON value.
    fn write(&self, out: &mut String);

    /// Parses the raw text after `"key":` (up to the next `,` or `}`).
    fn parse(raw: &str) -> Option<Self>;

    /// The test samples' value for draw `x`: integers truncate to their
    /// width, names and flags take `x % variants`.
    #[cfg(test)]
    fn from_draw(x: u64) -> Self;
}

macro_rules! wire_ints {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn parse(raw: &str) -> Option<Self> {
                raw.parse().ok()
            }

            #[cfg(test)]
            fn from_draw(x: u64) -> Self {
                x as $ty
            }
        }
    )*};
}

wire_ints!(u8, u32, u64);

impl Wire for Ns {
    fn write(&self, out: &mut String) {
        self.as_ns().write(out);
    }

    fn parse(raw: &str) -> Option<Self> {
        u64::parse(raw).map(Ns::from_ns)
    }

    #[cfg(test)]
    fn from_draw(x: u64) -> Self {
        Ns::from_ns(x)
    }
}

impl Wire for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn parse(raw: &str) -> Option<Self> {
        match raw {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }

    #[cfg(test)]
    fn from_draw(x: u64) -> Self {
        x % 2 == 1
    }
}

/// The wire name of each variant of a field-less enum, declared once: the
/// value is written as that name in quotes and parsed back from it.
macro_rules! wire_names {
    ($ty:ty { $($variant:ident = $name:literal),* $(,)? }) => {
        impl Wire for $ty {
            fn write(&self, out: &mut String) {
                out.push('"');
                out.push_str(match self {
                    $(<$ty>::$variant => $name,)*
                });
                out.push('"');
            }

            fn parse(raw: &str) -> Option<Self> {
                match unquote(raw)? {
                    $($name => Some(<$ty>::$variant),)*
                    _ => None,
                }
            }

            #[cfg(test)]
            fn from_draw(x: u64) -> Self {
                let all = [$(<$ty>::$variant),*];
                all[(x % all.len() as u64) as usize]
            }
        }
    };
}

wire_names!(Op {
    Read = "read",
    Write = "write",
});

wire_names!(FaultKind {
    HddRead = "hdd_read",
    HddWrite = "hdd_write",
    SsdRead = "ssd_read",
    Wearout = "wearout",
    Remap = "remap",
    DeviceDead = "device_dead",
});

wire_names!(HealthState {
    Healthy = "healthy",
    Degraded = "degraded",
    Failed = "failed",
    Rebuilding = "rebuilding",
});

/// A field's key on the wire: its own name unless the declaration says
/// `as "other"`.
macro_rules! wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// The one declaration of the event vocabulary. Each kind is written once
/// — variant, wire name, typed fields in wire order — and the enum, the
/// JSON writer, the JSON parser and the tests' sample events are generated
/// from it. (The counting fold, [`TraceStats`], is the only other place a
/// kind is named.)
macro_rules! trace_kinds {
    (
        $(#[$enum_meta:meta])*
        pub enum TraceKind {$(
            $(#[$meta:meta])*
            $variant:ident = $name:literal $({$(
                $(#[$field_meta:meta])*
                $field:ident $(as $key:literal)?: $ty:ty,
            )*})?,
        )*}
    ) => {
        $(#[$enum_meta])*
        pub enum TraceKind {$(
            $(#[$meta])*
            $variant $({$(
                $(#[$field_meta])*
                $field: $ty,
            )*})?,
        )*}

        impl TraceEvent {
            /// Appends the canonical single-line JSON rendering (no
            /// newline), with a `"shard"` tag before the closing brace when
            /// `shard` is not 0 — shard 0 is also the unsharded engine, so
            /// its lines are byte-identical to untagged ones.
            pub fn write_json(&self, shard: u32, out: &mut String) {
                out.push_str("{\"at\":");
                self.at.write(out);
                match &self.kind {$(
                    TraceKind::$variant $({ $($field),* })? => {
                        out.push_str(concat!(",\"kind\":\"", $name, "\""));
                        $($(
                            out.push_str(concat!(",\"", wire_key!($field $($key)?), "\":"));
                            $field.write(out);
                        )*)?
                    }
                )*}
                if shard != 0 {
                    out.push_str(",\"shard\":");
                    shard.write(out);
                }
                out.push('}');
            }

            /// Parses one line produced by [`TraceEvent::to_json`]. Returns
            /// `None` on any malformed input (the round-trip tests require
            /// `from_json(to_json(e)) == Some(e)` for every event shape).
            /// Unknown keys — the shard tag among them — are ignored.
            pub fn from_json(line: &str) -> Option<TraceEvent> {
                let at = field(line, "\"at\":")?;
                let kind = match unquote(field_raw(line, "\"kind\":")?)? {
                    $($name => TraceKind::$variant $({$(
                        $field: field(line, concat!("\"", wire_key!($field $($key)?), "\":"))?,
                    )*})?,)*
                    _ => return None,
                };
                Some(TraceEvent { at, kind })
            }
        }

        /// One kind as the tests see it: variant, wire name, and each
        /// field's wire key and type.
        #[cfg(test)]
        type KindRow = (&'static str, &'static str, &'static [(&'static str, &'static str)]);

        #[cfg(test)]
        impl TraceKind {
            /// Every kind, in declaration order.
            const TABLE: &'static [KindRow] = &[$(
                (
                    stringify!($variant),
                    $name,
                    &[$($((wire_key!($field $($key)?), stringify!($ty)),)*)?],
                ),
            )*];

            /// The `index`-th kind of [`TraceKind::TABLE`], each field
            /// built from the next `draw()` in wire order.
            #[allow(unused_variables)]
            fn sample(index: usize, draw: &mut dyn FnMut() -> u64) -> TraceKind {
                let makers: &[fn(&mut dyn FnMut() -> u64) -> TraceKind] = &[$(
                    |draw| TraceKind::$variant $({$(
                        $field: Wire::from_draw(draw()),
                    )*})?,
                )*];
                makers[index](draw)
            }
        }
    };
}

trace_kinds! {
    /// What happened at one traced point (the payload of a [`TraceEvent`]).
    ///
    /// Device events carry their queueing delay and service time so a profile
    /// can attribute every microsecond of a request's latency to a phase;
    /// controller events carry the decision data (delta size, cache hit, bind
    /// outcome) the paper's aggregate numbers hide.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TraceKind {
        /// A host request entered a storage system (span open).
        RequestStart = "req_start" {
            /// Read or write.
            op: Op,
            /// First logical block of the request.
            lba: u64,
            /// Request length in blocks.
            blocks: u32,
        },
        /// The host request that opened the current span completed; the event's
        /// `at` is the completion instant (span close).
        RequestEnd = "req_end",
        /// One SSD page read (host-level).
        SsdRead = "ssd_read" {
            /// Logical page number.
            lpn: u64,
            /// Time spent waiting for the flash channel.
            queued: Ns,
            /// Flash service time.
            service: Ns,
            /// Whether the read returned data (false: uncorrectable).
            ok: bool,
        },
        /// One SSD page program (host-level), with the garbage-collection work
        /// it triggered.
        SsdProgram = "ssd_program" {
            /// Logical page number.
            lpn: u64,
            /// Time spent waiting for the flash channel.
            queued: Ns,
            /// Flash service time (including any GC ops charged to this write).
            service: Ns,
            /// Pages read by the GC pass this write triggered.
            gc_reads: u32,
            /// Pages programmed by that GC pass.
            gc_programs: u32,
            /// Blocks erased by that GC pass.
            erases: u32,
        },
        /// An SSD page was trimmed (invalidated without a program).
        SsdTrim = "ssd_trim" {
            /// Logical page number.
            lpn: u64,
        },
        /// One HDD read.
        HddRead = "hdd_read" {
            /// Member-disk index within the array.
            disk: u8,
            /// First block address on the disk.
            lba: u64,
            /// Span length in blocks.
            blocks: u32,
            /// Time spent waiting for the head.
            queued: Ns,
            /// Seek + rotation + transfer time.
            service: Ns,
            /// Whether the read succeeded (false: latent sector error).
            ok: bool,
        },
        /// One HDD write.
        HddWrite = "hdd_write" {
            /// Member-disk index within the array.
            disk: u8,
            /// First block address on the disk.
            lba: u64,
            /// Span length in blocks.
            blocks: u32,
            /// Time spent waiting for the head.
            queued: Ns,
            /// Seek + rotation + transfer time.
            service: Ns,
            /// Whether the write succeeded (false: transient write fault).
            ok: bool,
        },
        /// The injector decided a fault (or a remap) at this operation.
        FaultInjected = "fault" {
            /// Which counter this event mirrors.
            kind as "fault": FaultKind,
            /// Block/page address involved.
            addr: u64,
        },
        /// A read was served from the controller's RAM buffer.
        RamHit = "ram_hit" {
            /// Logical block served.
            lba: u64,
        },
        /// A signature probe for a new write: did any reference candidate
        /// accept it as a delta?
        SigProbe = "sig_probe" {
            /// Logical block probed.
            lba: u64,
            /// Reference candidates the index offered.
            candidates: u32,
            /// Whether the block was bound to a reference (signature match).
            bound: bool,
        },
        /// A delta encode completed.
        DeltaEncode = "delta_encode" {
            /// Logical block encoded.
            lba: u64,
            /// Reference block it was encoded against.
            reference: u64,
            /// Encoded delta size in bytes.
            bytes: u32,
        },
        /// A read was served from the SSD fast path — reference + delta, or a
        /// clean slot with no delta pending (the controller's "delta hit").
        DeltaDecode = "delta_decode" {
            /// Logical block decoded.
            lba: u64,
        },
        /// The dirty delta buffer was flushed to the HDD log.
        LogFlush = "log_flush" {
            /// Log entries appended.
            entries: u32,
            /// Log blocks written.
            blocks: u32,
        },
        /// The delta log was compacted (live entries rewritten).
        LogClean = "log_clean",
        /// One background scrub pass over the SSD slots.
        Scrub = "scrub" {
            /// Slots whose checksum was verified.
            scanned: u32,
            /// Slots repaired from a redundant source.
            repaired: u32,
            /// Slots that could not be repaired.
            failed: u32,
        },
        /// One step of the slot-repair ladder (re-derive a slot's content and
        /// reprogram it).
        SlotRepair = "slot_repair" {
            /// SSD slot repaired.
            slot: u64,
            /// Whether the repair succeeded.
            ok: bool,
        },
        /// A faulted device op was retried by the controller.
        FaultRetry = "fault_retry" {
            /// Block address retried.
            lba: u64,
            /// True for a write retry, false for a read retry.
            write: bool,
        },
        /// An encoded delta entered the staging buffer (group commit pending).
        StageEnter = "stage_enter" {
            /// Block address staged.
            lba: u64,
            /// Flush-ticket watermark covering the staged write.
            ticket: u64,
            /// Encoded payload bytes staged.
            bytes: u32,
        },
        /// A group commit drained the staging buffer into one sequential
        /// multi-entry log append.
        GroupCommit = "group_commit" {
            /// Staged entries committed together.
            entries: u32,
            /// Encoded payload bytes committed.
            bytes: u32,
        },
        /// A durability barrier (`await_flush`/`sync`) forced buffered state
        /// to stable media.
        Barrier = "barrier" {
            /// The ticket the barrier waited for.
            ticket: u64,
            /// Whether the barrier had to flush (false: already durable).
            waited: bool,
        },
        /// Crash recovery dropped unverifiable log frames.
        RecoveryTruncate = "recovery_truncate" {
            /// Frames dropped from the tail.
            frames: u64,
        },
        /// Crash recovery finished replaying the surviving log.
        RecoveryReplay = "recovery_replay" {
            /// Blocks rebuilt into the table.
            entries: u64,
            /// Stale frames refused during replay.
            stale: u64,
        },
        /// A device's health state machine took an edge.
        HealthTransition = "health_transition" {
            /// Device index: 0 = SSD, 1+ = HDD spindles.
            device: u8,
            /// State left.
            from: HealthState,
            /// State entered.
            to: HealthState,
        },
        /// One rate-limited chunk of an online rebuild repopulated SSD slots.
        RebuildChunk = "rebuild_chunk" {
            /// Slots repopulated by this chunk.
            slots: u32,
            /// Slots done so far (including this chunk).
            done: u64,
            /// Slots the rebuild set out to restore.
            total: u64,
        },
        /// A write was refused admission because the staging buffer was full.
        Backpressure = "backpressure" {
            /// Block refused.
            lba: u64,
            /// Entries buffered at refusal time.
            queued: u64,
            /// The admission cap.
            cap: u64,
        },
        /// One deterministic exponential-backoff retry of a faulted device op.
        RetryBackoff = "retry_backoff" {
            /// Block address retried.
            lba: u64,
            /// Retry attempt number (1-based).
            attempt: u32,
            /// Backoff delay charged before the retry, in virtual ns.
            delay: u64,
            /// True for a write retry, false for a read retry.
            write: bool,
        },
        /// A command was admitted into the HDD's command queue.
        QueueAdmit = "queue_admit" {
            /// Device index: 1 + spindle index (the SSD, 0, has no queue).
            dev: u8,
            /// First block of the command.
            lba: u64,
            /// Command length in blocks.
            blocks: u32,
            /// Queue occupancy right after admission (the depth sample the
            /// profile's mean/max queue-depth numbers are built from).
            depth: u32,
        },
        /// A queued command was dispatched out of arrival order (an SPTF pick,
        /// or a foreground command overtaking parked write-behind appends).
        QueueReorder = "queue_reorder" {
            /// Device index: 1 + spindle index (the SSD, 0, has no queue).
            dev: u8,
            /// First block of the dispatched command.
            lba: u64,
            /// Earlier-arrived commands it overtook.
            jumped: u32,
        },
        /// LBA-adjacent queued commands were merged into one sequential media
        /// transfer.
        Coalesce = "coalesce" {
            /// Device index: 1 + spindle index (the SSD, 0, has no queue).
            dev: u8,
            /// First block of the merged transfer.
            lba: u64,
            /// Commands merged into the transfer (always ≥ 2).
            spans: u32,
            /// Total blocks of the merged transfer.
            blocks: u32,
        },
        /// An open-loop arrival: the scenario engine's virtual-time event queue
        /// released an operation at its scheduled instant (`at`), independent of
        /// whether the system was ready for it. `queued` is the time the arrival
        /// waited for a free client before service began — the open-loop
        /// queued/service split the closed-loop drivers can never show.
        OpenLoopArrival = "open_loop_arrival" {
            /// Arrival sequence number (the event queue's tie-break id).
            seq: u64,
            /// First block of the arriving operation.
            lba: u64,
            /// Wait between the scheduled arrival and service start, in
            /// virtual ns (zero when a client was already free).
            queued: u64,
        },
    }
}

/// One trace event: a virtual timestamp plus what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub at: Ns,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Canonical single-line JSON rendering. Field order is fixed, integers
    /// are decimal, and nothing depends on host state, so equal event
    /// streams render byte-identically (the JSONL determinism tests compare
    /// these strings across thread counts).
    pub fn to_json(&self) -> String {
        let mut line = String::new();
        self.write_json(0, &mut line);
        line
    }

    /// The shard tag on a serialized event line. Untagged lines (and every
    /// line written before sharding existed) are shard 0.
    pub fn shard_of_json(line: &str) -> u32 {
        field(line, "\"shard\":").unwrap_or(0)
    }
}

/// Extracts the raw text after `needle` (a quoted key and its colon) up to
/// the next `,` or `}`.
fn field_raw<'a>(line: &'a str, needle: &str) -> Option<&'a str> {
    let start = line.find(needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .char_indices()
        .find(|&(i, c)| {
            if rest[..i].starts_with('"') {
                // Inside a string value: stop only at its closing quote.
                c == '"' && i > 0
            } else {
                c == ',' || c == '}'
            }
        })
        .map(|(i, c)| if c == '"' { i + 1 } else { i })?;
    Some(&rest[..end])
}

/// The inside of a quoted raw value.
fn unquote(raw: &str) -> Option<&str> {
    raw.strip_prefix('"')?.strip_suffix('"')
}

/// The value after `needle`, parsed as the type of the field it lands in.
fn field<T: Wire>(line: &str, needle: &str) -> Option<T> {
    T::parse(field_raw(line, needle)?)
}

/// Where emitted events go. Implementations must be cheap and must never
/// feed anything back into the simulation.
pub trait TraceSink {
    /// Accepts one event.
    fn record(&mut self, event: TraceEvent);

    /// Accepts one event tagged with the shard that emitted it.
    ///
    /// Shard 0 is also the unsharded engine, so sinks that serialize the
    /// tag (e.g. the JSONL sink) must emit identical bytes for shard 0 and
    /// an untagged event — that is what keeps a one-shard router
    /// byte-identical to the bare system. The default drops the tag.
    fn record_sharded(&mut self, shard: u32, event: TraceEvent) {
        let _ = shard;
        self.record(event);
    }
}

/// A bounded in-memory ring of the most recent events (flight-recorder
/// style: attach it to a long run and inspect the tail after a failure).
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring keeping at most `cap` events (`cap` is clamped to 1).
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.events
    }

    /// How many events were evicted to honour the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// A counting-only sink: no event storage, just totals. The trace-oracle
/// tests diff the device and host counts against `SystemReport`,
/// `RunSummary` and `IcashStats`; the controller's pipeline and resilience
/// events (staging, group commits, barriers, log cleans, scrubs, repairs,
/// retries, rebuilt slots) are counted here and nowhere else.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Host request spans opened.
    pub requests: u64,
    /// Read request spans.
    pub read_requests: u64,
    /// Write request spans.
    pub write_requests: u64,
    /// Sum of span durations (request arrival to completion).
    pub request_time: Ns,
    /// Host-level SSD page reads.
    pub ssd_reads: u64,
    /// Host-level SSD page programs.
    pub ssd_programs: u64,
    /// Pages read by garbage collection.
    pub ssd_gc_reads: u64,
    /// Pages programmed by garbage collection.
    pub ssd_gc_programs: u64,
    /// Flash blocks erased.
    pub ssd_erases: u64,
    /// Pages trimmed.
    pub ssd_trims: u64,
    /// HDD read operations.
    pub hdd_reads: u64,
    /// HDD write operations.
    pub hdd_writes: u64,
    /// Reads served from the controller's RAM buffer.
    pub ram_hits: u64,
    /// Blocks reconstructed from reference + delta.
    pub delta_decodes: u64,
    /// Delta encodes performed.
    pub delta_encodes: u64,
    /// Total encoded delta bytes.
    pub delta_bytes: u64,
    /// Signature probes for new writes.
    pub sig_probes: u64,
    /// Probes that ended in a reference binding (signature matches).
    pub sig_binds: u64,
    /// Always 0: `benchmark/` still reads it; ROADMAP item 1(g) deletes it.
    #[doc(hidden)]
    pub ref_cache_hits: u64,
    /// Always 0: `benchmark/` still reads it; ROADMAP item 1(g) deletes it.
    #[doc(hidden)]
    pub ref_cache_misses: u64,
    /// Encoded deltas entering the staging buffer.
    pub stage_enters: u64,
    /// Payload bytes entering the staging buffer.
    pub staged_bytes: u64,
    /// Group commits draining the staging buffer.
    pub group_commits: u64,
    /// Staged entries drained by group commits.
    pub group_commit_entries: u64,
    /// Payload bytes drained by group commits.
    pub group_commit_bytes: u64,
    /// Durability barriers that had to flush.
    pub barrier_waits: u64,
    /// Durability barriers satisfied without flushing.
    pub barrier_noops: u64,
    /// Dirty-buffer flushes to the HDD log.
    pub log_flushes: u64,
    /// Log blocks written by those flushes.
    pub log_blocks: u64,
    /// Log compactions.
    pub log_cleans: u64,
    /// Background scrub passes.
    pub scrubs: u64,
    /// Slot-repair attempts.
    pub slot_repairs: u64,
    /// Controller-level fault retries.
    pub fault_retries: u64,
    /// Injected HDD read errors.
    pub faults_hdd_read: u64,
    /// Injected transient HDD write errors.
    pub faults_hdd_write: u64,
    /// Injected uncorrectable SSD reads.
    pub faults_ssd_read: u64,
    /// Wear-out share of the uncorrectable SSD reads.
    pub faults_wearout: u64,
    /// Bad sectors/pages cleared by rewrites.
    pub faults_remapped: u64,
    /// Operations refused by a dead device.
    pub faults_dead_device: u64,
    /// Device health-state transitions.
    pub health_transitions: u64,
    /// Online-rebuild chunks processed.
    pub rebuild_chunks: u64,
    /// SSD slots repopulated by those chunks.
    pub rebuild_slots: u64,
    /// Writes refused admission by staging backpressure.
    pub backpressure_rejects: u64,
    /// Exponential-backoff retries of faulted device ops.
    pub retry_backoffs: u64,
    /// Open-loop arrivals released by the scenario engine's event queue.
    pub open_loop_arrivals: u64,
    /// Total virtual time open-loop arrivals waited for a free client.
    pub open_loop_queued: Ns,
    /// Open-loop arrivals that waited at all.
    pub open_loop_waits: u64,
    open_span: Option<Ns>,
}

impl TraceStats {
    /// Staged entries amortized per group commit (0 when none ran).
    pub fn entries_per_commit(&self) -> f64 {
        if self.group_commits == 0 {
            0.0
        } else {
            self.group_commit_entries as f64 / self.group_commits as f64
        }
    }
}

impl TraceSink for TraceStats {
    fn record(&mut self, event: TraceEvent) {
        match event.kind {
            TraceKind::RequestStart { op, .. } => {
                self.requests += 1;
                match op {
                    Op::Read => self.read_requests += 1,
                    Op::Write => self.write_requests += 1,
                }
                self.open_span = Some(event.at);
            }
            TraceKind::RequestEnd => {
                if let Some(start) = self.open_span.take() {
                    self.request_time += event.at.saturating_sub(start);
                }
            }
            TraceKind::SsdRead { .. } => self.ssd_reads += 1,
            TraceKind::SsdProgram {
                gc_reads,
                gc_programs,
                erases,
                ..
            } => {
                self.ssd_programs += 1;
                self.ssd_gc_reads += gc_reads as u64;
                self.ssd_gc_programs += gc_programs as u64;
                self.ssd_erases += erases as u64;
            }
            TraceKind::SsdTrim { .. } => self.ssd_trims += 1,
            TraceKind::HddRead { .. } => self.hdd_reads += 1,
            TraceKind::HddWrite { .. } => self.hdd_writes += 1,
            TraceKind::FaultInjected { kind, .. } => match kind {
                FaultKind::HddRead => self.faults_hdd_read += 1,
                FaultKind::HddWrite => self.faults_hdd_write += 1,
                FaultKind::SsdRead => self.faults_ssd_read += 1,
                FaultKind::Wearout => self.faults_wearout += 1,
                FaultKind::Remap => self.faults_remapped += 1,
                FaultKind::DeviceDead => self.faults_dead_device += 1,
            },
            TraceKind::RamHit { .. } => self.ram_hits += 1,
            TraceKind::SigProbe { bound, .. } => {
                self.sig_probes += 1;
                if bound {
                    self.sig_binds += 1;
                }
            }
            TraceKind::DeltaEncode { bytes, .. } => {
                self.delta_encodes += 1;
                self.delta_bytes += bytes as u64;
            }
            TraceKind::DeltaDecode { .. } => self.delta_decodes += 1,
            TraceKind::LogFlush { blocks, .. } => {
                self.log_flushes += 1;
                self.log_blocks += blocks as u64;
            }
            TraceKind::StageEnter { bytes, .. } => {
                self.stage_enters += 1;
                self.staged_bytes += bytes as u64;
            }
            TraceKind::GroupCommit { entries, bytes } => {
                self.group_commits += 1;
                self.group_commit_entries += entries as u64;
                self.group_commit_bytes += bytes as u64;
            }
            TraceKind::Barrier { waited, .. } => {
                if waited {
                    self.barrier_waits += 1;
                } else {
                    self.barrier_noops += 1;
                }
            }
            TraceKind::LogClean => self.log_cleans += 1,
            TraceKind::Scrub { .. } => self.scrubs += 1,
            TraceKind::SlotRepair { .. } => self.slot_repairs += 1,
            TraceKind::FaultRetry { .. } => self.fault_retries += 1,
            TraceKind::HealthTransition { .. } => self.health_transitions += 1,
            TraceKind::RebuildChunk { slots, .. } => {
                self.rebuild_chunks += 1;
                self.rebuild_slots += slots as u64;
            }
            TraceKind::Backpressure { .. } => self.backpressure_rejects += 1,
            TraceKind::RetryBackoff { .. } => self.retry_backoffs += 1,
            TraceKind::OpenLoopArrival { queued, .. } => {
                self.open_loop_arrivals += 1;
                self.open_loop_queued += Ns::from_ns(queued);
                if queued > 0 {
                    self.open_loop_waits += 1;
                }
            }
            // The profile's to fold: recovery and per-device queue events.
            TraceKind::RecoveryTruncate { .. }
            | TraceKind::RecoveryReplay { .. }
            | TraceKind::QueueAdmit { .. }
            | TraceKind::QueueReorder { .. }
            | TraceKind::Coalesce { .. } => {}
        }
    }
}

/// A shared handle to a sink, or nothing.
type SharedSink = Arc<Mutex<dyn TraceSink + Send>>;

/// The cheap-clone emission handle every instrumented component holds.
///
/// Disabled (the default) it is one `Option` check: the event-construction
/// closure passed to [`Tracer::emit`] is never called. Enabled, it locks
/// the shared sink and records — within one simulation cell everything is
/// single-threaded, so the lock is never contended; the `Mutex` exists only
/// to keep instrumented systems `Send` for the parallel harness.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<SharedSink>,
    shard: u32,
}

impl Tracer {
    /// The disabled tracer (same as `Tracer::default()`).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer feeding an existing shared sink.
    pub fn to_sink(sink: SharedSink) -> Self {
        Tracer {
            sink: Some(sink),
            shard: 0,
        }
    }

    /// Tags every event this tracer emits with a shard id. The router
    /// hands each shard `tracer.with_shard(i)` over one shared sink, so a
    /// merged stream still says which controller did what. Shard 0 is the
    /// unsharded default.
    pub fn with_shard(mut self, shard: u32) -> Self {
        self.shard = shard;
        self
    }

    /// The shard id stamped on emitted events (0 = unsharded).
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// A tracer over a fresh bounded ring; returns the handle and the ring.
    pub fn ring(cap: usize) -> (Tracer, Arc<Mutex<RingSink>>) {
        let sink = Arc::new(Mutex::new(RingSink::new(cap)));
        (Tracer::to_sink(sink.clone()), sink)
    }

    /// A tracer over a fresh counting sink; returns the handle and the
    /// counters.
    pub fn counting() -> (Tracer, Arc<Mutex<TraceStats>>) {
        let sink = Arc::new(Mutex::new(TraceStats::default()));
        (Tracer::to_sink(sink.clone()), sink)
    }

    /// Whether events will actually be recorded.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits the event built by `make` — which is only invoked when a sink
    /// is attached, so disabled tracing never constructs events.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.lock()
                .expect("trace sink poisoned")
                .record_sharded(self.shard, make());
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The draws every kind is sampled at: 0..=5 reach both `Op`s, every
    /// `FaultKind` and every `HealthState`; `u64::MAX` puts every integer
    /// at its widest.
    const DRAWS: [u64; 7] = [0, 1, 2, 3, 4, 5, u64::MAX];

    fn sample(index: usize, draw: &mut dyn FnMut() -> u64) -> TraceEvent {
        TraceEvent {
            at: Ns::from_draw(draw()),
            kind: TraceKind::sample(index, draw),
        }
    }

    /// One event per kind (by its [`TraceKind::TABLE`] index) and draw, `at`
    /// and every field taken from that draw, in declaration order.
    fn samples() -> impl Iterator<Item = (usize, TraceEvent)> {
        (0..TraceKind::TABLE.len())
            .flat_map(|index| DRAWS.map(|v| (index, sample(index, &mut || v))))
    }

    /// The wire format of every kind, pinned line by line. Regenerate
    /// intentionally with `ICASH_BLESS=1 cargo test -p icash-storage trace`.
    #[test]
    fn every_kind_renders_its_pinned_lines() {
        let text: String = samples().map(|(_, e)| e.to_json() + "\n").collect();
        if std::env::var("ICASH_BLESS").as_deref() == Ok("1") {
            let path = concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/trace_kinds.jsonl"
            );
            std::fs::write(path, &text).expect("bless golden fixture");
            eprintln!("blessed {path}");
            return;
        }
        assert_eq!(
            text,
            include_str!("../tests/golden/trace_kinds.jsonl"),
            "a kind's JSON drifted from tests/golden/trace_kinds.jsonl; if \
             the change is intentional, regenerate with ICASH_BLESS=1"
        );
    }

    /// `line` with the value after `needle` replaced by `value`.
    fn with_field(line: &str, needle: &str, value: &str) -> String {
        let raw = field_raw(line, needle).expect("field present");
        let start = raw.as_ptr() as usize - line.as_ptr() as usize;
        format!("{}{value}{}", &line[..start], &line[start + raw.len()..])
    }

    /// The event survives the wire, and every numeric field (and `at`)
    /// rendered one past its width is refused rather than narrowed.
    fn assert_round_trip_and_width_refusals(index: usize, event: &TraceEvent) {
        let line = event.to_json();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(!line.contains('\n'), "one line per event: {line}");
        assert_eq!(
            TraceEvent::from_json(&line).as_ref(),
            Some(event),
            "round trip of {line}"
        );
        let (_, name, fields) = TraceKind::TABLE[index];
        for (key, ty) in fields.iter().chain(&[("at", "Ns")]) {
            let widest: u128 = match *ty {
                "u8" => u8::MAX.into(),
                "u32" => u32::MAX.into(),
                "u64" | "Ns" => u64::MAX.into(),
                _ => continue,
            };
            let wide = with_field(&line, &format!("\"{key}\":"), &(widest + 1).to_string());
            assert_eq!(TraceEvent::from_json(&wide), None, "{name}.{key}: {wide}");
        }
    }

    #[test]
    fn every_event_round_trips_through_json() {
        samples().for_each(|(index, event)| assert_round_trip_and_width_refusals(index, &event));
    }

    proptest! {
        #[test]
        fn any_field_values_round_trip_and_overflow_is_refused(
            index in 0..TraceKind::TABLE.len(),
            draws in prop::collection::vec(prop_oneof![0u64..8, any::<u64>()], 7..8),
        ) {
            let mut draws = draws.into_iter();
            let event = sample(index, &mut || draws.next().expect("at most six fields"));
            assert_round_trip_and_width_refusals(index, &event);
        }
    }

    /// Doc drift: DESIGN.md §11's table has exactly the declared kinds, in
    /// order, each with its wire name and its fields' wire keys and types.
    #[test]
    fn design_doc_tables_exactly_the_declared_kinds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
        let design = std::fs::read_to_string(path).expect("DESIGN.md");
        let section = design
            .split("\n## ")
            .find(|s| s.starts_with("11. "))
            .expect("DESIGN.md has a section 11");
        let rows: Vec<&str> = section.lines().filter(|l| l.starts_with("| `")).collect();
        assert_eq!(rows.len(), TraceKind::TABLE.len(), "rows vs declared kinds");
        for ((variant, name, fields), row) in TraceKind::TABLE.iter().zip(rows) {
            let fields: Vec<String> = fields
                .iter()
                .map(|(key, ty)| format!("`{key}: {ty}`"))
                .collect();
            let want = format!("| `{variant}` | `{name}` | {} |", fields.join(", "));
            assert!(
                row.starts_with(&want),
                "DESIGN.md §11 needs a row starting: {want}"
            );
        }
    }

    #[test]
    fn malformed_json_is_rejected_not_panicked() {
        for bad in [
            "",
            "{}",
            "{\"at\":5}",
            "{\"at\":5,\"kind\":\"no_such_kind\"}",
            "{\"at\":x,\"kind\":\"req_end\"}",
            "{\"at\":5,\"kind\":\"ssd_read\",\"lpn\":1}",
            "{\"at\":5,\"kind\":\"fault\",\"fault\":\"bogus\",\"addr\":1}",
            "{\"at\":5,\"kind\":\"health_transition\",\"device\":0,\"from\":\"zombie\",\"to\":\"failed\"}",
        ] {
            assert_eq!(TraceEvent::from_json(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        tracer.emit(|| unreachable!("closure must not run while disabled"));
    }

    #[test]
    fn ring_sink_is_bounded_and_keeps_the_tail() {
        let (tracer, ring) = Tracer::ring(3);
        for i in 0..10u64 {
            tracer.emit(|| TraceEvent {
                at: Ns::from_ns(i),
                kind: TraceKind::RamHit { lba: i },
            });
        }
        let ring = ring.lock().expect("ring");
        assert_eq!(ring.events().len(), 3);
        assert_eq!(ring.dropped(), 7);
        assert_eq!(ring.events()[0].at, Ns::from_ns(7), "oldest retained");
        assert_eq!(ring.events()[2].at, Ns::from_ns(9), "newest retained");
    }

    #[test]
    fn counting_sink_classifies_every_kind() {
        // Inside an open span, every kind moves a counter (the recovery
        // pair and the queue trio are the profile's to count).
        let mut open = TraceStats::default();
        open.record(sample(0, &mut || 0));
        for (_, event) in samples() {
            let mut stats = open.clone();
            let counted = !matches!(
                event.kind,
                TraceKind::RecoveryTruncate { .. }
                    | TraceKind::RecoveryReplay { .. }
                    | TraceKind::QueueAdmit { .. }
                    | TraceKind::QueueReorder { .. }
                    | TraceKind::Coalesce { .. }
            );
            stats.record(event.clone());
            assert_eq!(stats != open, counted, "{event:?}");
        }
        // One event per kind at draw 3: a write, a wear-out fault, every
        // flag set, every integer 3.
        let (tracer, stats) = Tracer::counting();
        for index in 0..TraceKind::TABLE.len() {
            tracer.emit(|| sample(index, &mut || 3));
        }
        let want = TraceStats {
            requests: 1,
            write_requests: 1,
            ssd_reads: 1,
            ssd_programs: 1,
            ssd_gc_reads: 3,
            ssd_gc_programs: 3,
            ssd_erases: 3,
            ssd_trims: 1,
            hdd_reads: 1,
            hdd_writes: 1,
            ram_hits: 1,
            delta_decodes: 1,
            delta_encodes: 1,
            delta_bytes: 3,
            sig_probes: 1,
            sig_binds: 1,
            stage_enters: 1,
            staged_bytes: 3,
            group_commits: 1,
            group_commit_entries: 3,
            group_commit_bytes: 3,
            barrier_waits: 1,
            log_flushes: 1,
            log_blocks: 3,
            log_cleans: 1,
            scrubs: 1,
            slot_repairs: 1,
            fault_retries: 1,
            faults_wearout: 1,
            health_transitions: 1,
            rebuild_chunks: 1,
            rebuild_slots: 3,
            backpressure_rejects: 1,
            retry_backoffs: 1,
            open_loop_arrivals: 1,
            open_loop_queued: Ns::from_ns(3),
            open_loop_waits: 1,
            ..TraceStats::default()
        };
        assert_eq!(*stats.lock().expect("stats"), want);
    }

    #[test]
    fn span_time_pairs_start_and_end() {
        let (tracer, stats) = Tracer::counting();
        tracer.emit(|| TraceEvent {
            at: Ns::from_us(10),
            kind: TraceKind::RequestStart {
                op: Op::Read,
                lba: 0,
                blocks: 1,
            },
        });
        tracer.emit(|| TraceEvent {
            at: Ns::from_us(35),
            kind: TraceKind::RequestEnd,
        });
        assert_eq!(stats.lock().expect("stats").request_time, Ns::from_us(25));
    }

    /// A hostile document: the span closes before it opened. Typed outcome
    /// (both lines parse), no panic, span 0.
    #[test]
    fn a_span_that_ends_before_it_starts_counts_zero() {
        let mut stats = TraceStats::default();
        for line in [
            r#"{"at":9,"kind":"req_start","op":"read","lba":0,"blocks":1}"#,
            r#"{"at":4,"kind":"req_end"}"#,
        ] {
            stats.record(TraceEvent::from_json(line).expect("well-formed line"));
        }
        assert_eq!((stats.requests, stats.request_time), (1, Ns::ZERO));
    }

    #[test]
    fn shard_tag_reaches_the_sink_and_defaults_to_zero() {
        /// Records the shard ids seen, proving `emit` routes through
        /// `record_sharded`.
        #[derive(Default)]
        struct ShardLog(Vec<u32>);
        impl TraceSink for ShardLog {
            fn record(&mut self, _event: TraceEvent) {
                self.0.push(u32::MAX); // default path must not be taken
            }
            fn record_sharded(&mut self, shard: u32, _event: TraceEvent) {
                self.0.push(shard);
            }
        }

        let sink = Arc::new(Mutex::new(ShardLog::default()));
        let tracer = Tracer::to_sink(sink.clone());
        assert_eq!(tracer.shard(), 0);
        tracer.emit(|| TraceEvent {
            at: Ns::ZERO,
            kind: TraceKind::RequestEnd,
        });
        let sharded = tracer.clone().with_shard(5);
        assert_eq!(sharded.shard(), 5);
        sharded.emit(|| TraceEvent {
            at: Ns::ZERO,
            kind: TraceKind::RequestEnd,
        });
        assert_eq!(sink.lock().expect("sink").0, vec![0, 5]);
    }

    #[test]
    fn default_record_sharded_drops_the_tag() {
        // Sinks that only implement `record` (ring, counting) still work.
        let (tracer, ring) = Tracer::ring(4);
        tracer.with_shard(3).emit(|| TraceEvent {
            at: Ns::from_us(1),
            kind: TraceKind::RequestEnd,
        });
        assert_eq!(ring.lock().expect("ring").events().len(), 1);
    }

    #[test]
    fn shard_of_json_reads_the_tag() {
        assert_eq!(
            TraceEvent::shard_of_json(r#"{"at":1,"kind":"req_end","shard":7}"#),
            7
        );
        assert_eq!(TraceEvent::shard_of_json(r#"{"at":1,"kind":"req_end"}"#), 0);
    }
}
