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

use crate::request::Op;
use crate::time::Ns;
use std::collections::VecDeque;
use std::fmt;
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
    /// [`FaultKind::SsdRead`] in [`FaultStats`], so it is emitted as a
    /// second event alongside one `SsdRead` event).
    Wearout,
    /// A bad sector/page was cleared by a successful rewrite (drive remap).
    Remap,
    /// An operation was refused because the whole device had died
    /// (a `ssd_dies_at`/`hdd_dies_at` trigger fired).
    DeviceDead,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::HddRead => "hdd_read",
            FaultKind::HddWrite => "hdd_write",
            FaultKind::SsdRead => "ssd_read",
            FaultKind::Wearout => "wearout",
            FaultKind::Remap => "remap",
            FaultKind::DeviceDead => "device_dead",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "hdd_read" => FaultKind::HddRead,
            "hdd_write" => FaultKind::HddWrite,
            "ssd_read" => FaultKind::SsdRead,
            "wearout" => FaultKind::Wearout,
            "remap" => FaultKind::Remap,
            "device_dead" => FaultKind::DeviceDead,
            _ => return None,
        })
    }
}

/// What happened at one traced point (the payload of a [`TraceEvent`]).
///
/// Device events carry their queueing delay and service time so a profile
/// can attribute every microsecond of a request's latency to a phase;
/// controller events carry the decision data (delta size, cache hit, bind
/// outcome) the paper's aggregate numbers hide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A host request entered a storage system (span open).
    RequestStart {
        /// Read or write.
        op: Op,
        /// First logical block of the request.
        lba: u64,
        /// Request length in blocks.
        blocks: u32,
    },
    /// The host request that opened the current span completed; the event's
    /// `at` is the completion instant (span close).
    RequestEnd,
    /// One SSD page read (host-level).
    SsdRead {
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
    SsdProgram {
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
    SsdTrim {
        /// Logical page number.
        lpn: u64,
    },
    /// One HDD read.
    HddRead {
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
    HddWrite {
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
    FaultInjected {
        /// Which counter this event mirrors.
        kind: FaultKind,
        /// Block/page address involved.
        addr: u64,
    },
    /// A read was served from the controller's RAM buffer.
    RamHit {
        /// Logical block served.
        lba: u64,
    },
    /// A signature probe for a new write: did any reference candidate
    /// accept it as a delta?
    SigProbe {
        /// Logical block probed.
        lba: u64,
        /// Reference candidates the index offered.
        candidates: u32,
        /// Whether the block was bound to a reference (signature match).
        bound: bool,
    },
    /// A delta encode completed.
    DeltaEncode {
        /// Logical block encoded.
        lba: u64,
        /// Reference block it was encoded against.
        reference: u64,
        /// Encoded delta size in bytes.
        bytes: u32,
    },
    /// A read was served from the SSD fast path — reference + delta, or a
    /// clean slot with no delta pending (the controller's "delta hit").
    DeltaDecode {
        /// Logical block decoded.
        lba: u64,
    },
    /// The dirty delta buffer was flushed to the HDD log.
    LogFlush {
        /// Log entries appended.
        entries: u32,
        /// Log blocks written.
        blocks: u32,
    },
    /// The delta log was compacted (live entries rewritten).
    LogClean,
    /// One background scrub pass over the SSD slots.
    Scrub {
        /// Slots whose checksum was verified.
        scanned: u32,
        /// Slots repaired from a redundant source.
        repaired: u32,
        /// Slots that could not be repaired.
        failed: u32,
    },
    /// One step of the slot-repair ladder (re-derive a slot's content and
    /// reprogram it).
    SlotRepair {
        /// SSD slot repaired.
        slot: u64,
        /// Whether the repair succeeded.
        ok: bool,
    },
    /// A faulted device op was retried by the controller.
    FaultRetry {
        /// Block address retried.
        lba: u64,
        /// True for a write retry, false for a read retry.
        write: bool,
    },
    /// An encoded delta entered the staging buffer (group commit pending).
    StageEnter {
        /// Block address staged.
        lba: u64,
        /// Flush-ticket watermark covering the staged write.
        ticket: u64,
        /// Encoded payload bytes staged.
        bytes: u32,
    },
    /// A group commit drained the staging buffer into one sequential
    /// multi-entry log append.
    GroupCommit {
        /// Staged entries committed together.
        entries: u32,
        /// Encoded payload bytes committed.
        bytes: u32,
    },
    /// A durability barrier (`await_flush`/`sync`) forced buffered state
    /// to stable media.
    Barrier {
        /// The ticket the barrier waited for.
        ticket: u64,
        /// Whether the barrier had to flush (false: already durable).
        waited: bool,
    },
    /// Crash recovery dropped unverifiable log frames.
    RecoveryTruncate {
        /// Frames dropped from the tail.
        frames: u64,
    },
    /// Crash recovery finished replaying the surviving log.
    RecoveryReplay {
        /// Blocks rebuilt into the table.
        entries: u64,
        /// Stale frames refused during replay.
        stale: u64,
    },
    /// A device's health state machine took an edge.
    HealthTransition {
        /// Device index: 0 = SSD, 1+ = HDD spindles.
        device: u8,
        /// State left.
        from: crate::fault::HealthState,
        /// State entered.
        to: crate::fault::HealthState,
    },
    /// One rate-limited chunk of an online rebuild repopulated SSD slots.
    RebuildChunk {
        /// Slots repopulated by this chunk.
        slots: u32,
        /// Slots done so far (including this chunk).
        done: u64,
        /// Slots the rebuild set out to restore.
        total: u64,
    },
    /// A write was refused admission because the staging buffer was full.
    Backpressure {
        /// Block refused.
        lba: u64,
        /// Entries buffered at refusal time.
        queued: u64,
        /// The admission cap.
        cap: u64,
    },
    /// One deterministic exponential-backoff retry of a faulted device op.
    RetryBackoff {
        /// Block address retried.
        lba: u64,
        /// Retry attempt number (1-based).
        attempt: u32,
        /// Backoff delay charged before the retry, in virtual ns.
        delay: u64,
        /// True for a write retry, false for a read retry.
        write: bool,
    },
    /// A command was admitted into a device command queue.
    QueueAdmit {
        /// Device index: 0 = SSD, 1 + spindle index = HDD.
        dev: u8,
        /// First block (HDD) or erase-block id (SSD) of the command.
        lba: u64,
        /// Command length in blocks.
        blocks: u32,
        /// Queue occupancy right after admission (the depth sample the
        /// profile's mean/max queue-depth numbers are built from).
        depth: u32,
    },
    /// A queued command was dispatched out of arrival order (HDD SPTF pick,
    /// or an SSD read/program overtaking deferred erases on its channel).
    QueueReorder {
        /// Device index: 0 = SSD, 1 + spindle index = HDD.
        dev: u8,
        /// First block of the dispatched command.
        lba: u64,
        /// Earlier-arrived commands it overtook.
        jumped: u32,
    },
    /// LBA-adjacent queued commands were merged into one sequential media
    /// transfer.
    Coalesce {
        /// Device index: 0 = SSD, 1 + spindle index = HDD.
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
    OpenLoopArrival {
        /// Arrival sequence number (the event queue's tie-break id).
        seq: u64,
        /// First block of the arriving operation.
        lba: u64,
        /// Wait between the scheduled arrival and service start, in
        /// virtual ns (zero when a client was already free).
        queued: u64,
    },
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
        let at = self.at.as_ns();
        match &self.kind {
            TraceKind::RequestStart { op, lba, blocks } => {
                let op = match op {
                    Op::Read => "read",
                    Op::Write => "write",
                };
                format!(
                    "{{\"at\":{at},\"kind\":\"req_start\",\"op\":\"{op}\",\
                     \"lba\":{lba},\"blocks\":{blocks}}}"
                )
            }
            TraceKind::RequestEnd => {
                format!("{{\"at\":{at},\"kind\":\"req_end\"}}")
            }
            TraceKind::SsdRead {
                lpn,
                queued,
                service,
                ok,
            } => format!(
                "{{\"at\":{at},\"kind\":\"ssd_read\",\"lpn\":{lpn},\
                 \"queued\":{},\"service\":{},\"ok\":{ok}}}",
                queued.as_ns(),
                service.as_ns()
            ),
            TraceKind::SsdProgram {
                lpn,
                queued,
                service,
                gc_reads,
                gc_programs,
                erases,
            } => format!(
                "{{\"at\":{at},\"kind\":\"ssd_program\",\"lpn\":{lpn},\
                 \"queued\":{},\"service\":{},\"gc_reads\":{gc_reads},\
                 \"gc_programs\":{gc_programs},\"erases\":{erases}}}",
                queued.as_ns(),
                service.as_ns()
            ),
            TraceKind::SsdTrim { lpn } => {
                format!("{{\"at\":{at},\"kind\":\"ssd_trim\",\"lpn\":{lpn}}}")
            }
            TraceKind::HddRead {
                disk,
                lba,
                blocks,
                queued,
                service,
                ok,
            } => format!(
                "{{\"at\":{at},\"kind\":\"hdd_read\",\"disk\":{disk},\
                 \"lba\":{lba},\"blocks\":{blocks},\"queued\":{},\
                 \"service\":{},\"ok\":{ok}}}",
                queued.as_ns(),
                service.as_ns()
            ),
            TraceKind::HddWrite {
                disk,
                lba,
                blocks,
                queued,
                service,
                ok,
            } => format!(
                "{{\"at\":{at},\"kind\":\"hdd_write\",\"disk\":{disk},\
                 \"lba\":{lba},\"blocks\":{blocks},\"queued\":{},\
                 \"service\":{},\"ok\":{ok}}}",
                queued.as_ns(),
                service.as_ns()
            ),
            TraceKind::FaultInjected { kind, addr } => format!(
                "{{\"at\":{at},\"kind\":\"fault\",\"fault\":\"{}\",\"addr\":{addr}}}",
                kind.name()
            ),
            TraceKind::RamHit { lba } => {
                format!("{{\"at\":{at},\"kind\":\"ram_hit\",\"lba\":{lba}}}")
            }
            TraceKind::SigProbe {
                lba,
                candidates,
                bound,
            } => format!(
                "{{\"at\":{at},\"kind\":\"sig_probe\",\"lba\":{lba},\
                 \"candidates\":{candidates},\"bound\":{bound}}}"
            ),
            TraceKind::DeltaEncode {
                lba,
                reference,
                bytes,
            } => format!(
                "{{\"at\":{at},\"kind\":\"delta_encode\",\"lba\":{lba},\
                 \"reference\":{reference},\"bytes\":{bytes}}}"
            ),
            TraceKind::DeltaDecode { lba } => {
                format!("{{\"at\":{at},\"kind\":\"delta_decode\",\"lba\":{lba}}}")
            }
            TraceKind::LogFlush { entries, blocks } => format!(
                "{{\"at\":{at},\"kind\":\"log_flush\",\"entries\":{entries},\
                 \"blocks\":{blocks}}}"
            ),
            TraceKind::LogClean => {
                format!("{{\"at\":{at},\"kind\":\"log_clean\"}}")
            }
            TraceKind::Scrub {
                scanned,
                repaired,
                failed,
            } => format!(
                "{{\"at\":{at},\"kind\":\"scrub\",\"scanned\":{scanned},\
                 \"repaired\":{repaired},\"failed\":{failed}}}"
            ),
            TraceKind::SlotRepair { slot, ok } => {
                format!("{{\"at\":{at},\"kind\":\"slot_repair\",\"slot\":{slot},\"ok\":{ok}}}")
            }
            TraceKind::FaultRetry { lba, write } => {
                format!("{{\"at\":{at},\"kind\":\"fault_retry\",\"lba\":{lba},\"write\":{write}}}")
            }
            TraceKind::StageEnter { lba, ticket, bytes } => format!(
                "{{\"at\":{at},\"kind\":\"stage_enter\",\"lba\":{lba},\
                 \"ticket\":{ticket},\"bytes\":{bytes}}}"
            ),
            TraceKind::GroupCommit { entries, bytes } => format!(
                "{{\"at\":{at},\"kind\":\"group_commit\",\"entries\":{entries},\
                 \"bytes\":{bytes}}}"
            ),
            TraceKind::Barrier { ticket, waited } => format!(
                "{{\"at\":{at},\"kind\":\"barrier\",\"ticket\":{ticket},\
                 \"waited\":{waited}}}"
            ),
            TraceKind::RecoveryTruncate { frames } => {
                format!("{{\"at\":{at},\"kind\":\"recovery_truncate\",\"frames\":{frames}}}")
            }
            TraceKind::RecoveryReplay { entries, stale } => format!(
                "{{\"at\":{at},\"kind\":\"recovery_replay\",\"entries\":{entries},\
                 \"stale\":{stale}}}"
            ),
            TraceKind::HealthTransition { device, from, to } => format!(
                "{{\"at\":{at},\"kind\":\"health_transition\",\"device\":{device},\
                 \"from\":\"{}\",\"to\":\"{}\"}}",
                from.as_str(),
                to.as_str()
            ),
            TraceKind::RebuildChunk { slots, done, total } => format!(
                "{{\"at\":{at},\"kind\":\"rebuild_chunk\",\"slots\":{slots},\
                 \"done\":{done},\"total\":{total}}}"
            ),
            TraceKind::Backpressure { lba, queued, cap } => format!(
                "{{\"at\":{at},\"kind\":\"backpressure\",\"lba\":{lba},\
                 \"queued\":{queued},\"cap\":{cap}}}"
            ),
            TraceKind::RetryBackoff {
                lba,
                attempt,
                delay,
                write,
            } => format!(
                "{{\"at\":{at},\"kind\":\"retry_backoff\",\"lba\":{lba},\
                 \"attempt\":{attempt},\"delay\":{delay},\"write\":{write}}}"
            ),
            TraceKind::QueueAdmit {
                dev,
                lba,
                blocks,
                depth,
            } => format!(
                "{{\"at\":{at},\"kind\":\"queue_admit\",\"dev\":{dev},\
                 \"lba\":{lba},\"blocks\":{blocks},\"depth\":{depth}}}"
            ),
            TraceKind::QueueReorder { dev, lba, jumped } => format!(
                "{{\"at\":{at},\"kind\":\"queue_reorder\",\"dev\":{dev},\
                 \"lba\":{lba},\"jumped\":{jumped}}}"
            ),
            TraceKind::Coalesce {
                dev,
                lba,
                spans,
                blocks,
            } => format!(
                "{{\"at\":{at},\"kind\":\"coalesce\",\"dev\":{dev},\
                 \"lba\":{lba},\"spans\":{spans},\"blocks\":{blocks}}}"
            ),
            TraceKind::OpenLoopArrival { seq, lba, queued } => format!(
                "{{\"at\":{at},\"kind\":\"open_loop_arrival\",\"seq\":{seq},\
                 \"lba\":{lba},\"queued\":{queued}}}"
            ),
        }
    }

    /// Parses one line produced by [`TraceEvent::to_json`]. Returns `None`
    /// on any malformed input (the round-trip tests require
    /// `from_json(to_json(e)) == Some(e)` for every event shape).
    pub fn from_json(line: &str) -> Option<TraceEvent> {
        let at = Ns::from_ns(field_num(line, "at")?);
        let kind = match field_str(line, "kind")? {
            "req_start" => TraceKind::RequestStart {
                op: match field_str(line, "op")? {
                    "read" => Op::Read,
                    "write" => Op::Write,
                    _ => return None,
                },
                lba: field_num(line, "lba")?,
                blocks: field_num(line, "blocks")?,
            },
            "req_end" => TraceKind::RequestEnd,
            "ssd_read" => TraceKind::SsdRead {
                lpn: field_num(line, "lpn")?,
                queued: Ns::from_ns(field_num(line, "queued")?),
                service: Ns::from_ns(field_num(line, "service")?),
                ok: field_bool(line, "ok")?,
            },
            "ssd_program" => TraceKind::SsdProgram {
                lpn: field_num(line, "lpn")?,
                queued: Ns::from_ns(field_num(line, "queued")?),
                service: Ns::from_ns(field_num(line, "service")?),
                gc_reads: field_num(line, "gc_reads")?,
                gc_programs: field_num(line, "gc_programs")?,
                erases: field_num(line, "erases")?,
            },
            "ssd_trim" => TraceKind::SsdTrim {
                lpn: field_num(line, "lpn")?,
            },
            "hdd_read" | "hdd_write" => {
                let disk = field_num(line, "disk")?;
                let lba = field_num(line, "lba")?;
                let blocks = field_num(line, "blocks")?;
                let queued = Ns::from_ns(field_num(line, "queued")?);
                let service = Ns::from_ns(field_num(line, "service")?);
                let ok = field_bool(line, "ok")?;
                if field_str(line, "kind")? == "hdd_read" {
                    TraceKind::HddRead {
                        disk,
                        lba,
                        blocks,
                        queued,
                        service,
                        ok,
                    }
                } else {
                    TraceKind::HddWrite {
                        disk,
                        lba,
                        blocks,
                        queued,
                        service,
                        ok,
                    }
                }
            }
            "fault" => TraceKind::FaultInjected {
                kind: FaultKind::from_name(field_str(line, "fault")?)?,
                addr: field_num(line, "addr")?,
            },
            "ram_hit" => TraceKind::RamHit {
                lba: field_num(line, "lba")?,
            },
            "sig_probe" => TraceKind::SigProbe {
                lba: field_num(line, "lba")?,
                candidates: field_num(line, "candidates")?,
                bound: field_bool(line, "bound")?,
            },
            "delta_encode" => TraceKind::DeltaEncode {
                lba: field_num(line, "lba")?,
                reference: field_num(line, "reference")?,
                bytes: field_num(line, "bytes")?,
            },
            "delta_decode" => TraceKind::DeltaDecode {
                lba: field_num(line, "lba")?,
            },
            "log_flush" => TraceKind::LogFlush {
                entries: field_num(line, "entries")?,
                blocks: field_num(line, "blocks")?,
            },
            "log_clean" => TraceKind::LogClean,
            "scrub" => TraceKind::Scrub {
                scanned: field_num(line, "scanned")?,
                repaired: field_num(line, "repaired")?,
                failed: field_num(line, "failed")?,
            },
            "slot_repair" => TraceKind::SlotRepair {
                slot: field_num(line, "slot")?,
                ok: field_bool(line, "ok")?,
            },
            "fault_retry" => TraceKind::FaultRetry {
                lba: field_num(line, "lba")?,
                write: field_bool(line, "write")?,
            },
            "stage_enter" => TraceKind::StageEnter {
                lba: field_num(line, "lba")?,
                ticket: field_num(line, "ticket")?,
                bytes: field_num(line, "bytes")?,
            },
            "group_commit" => TraceKind::GroupCommit {
                entries: field_num(line, "entries")?,
                bytes: field_num(line, "bytes")?,
            },
            "barrier" => TraceKind::Barrier {
                ticket: field_num(line, "ticket")?,
                waited: field_bool(line, "waited")?,
            },
            "recovery_truncate" => TraceKind::RecoveryTruncate {
                frames: field_num(line, "frames")?,
            },
            "recovery_replay" => TraceKind::RecoveryReplay {
                entries: field_num(line, "entries")?,
                stale: field_num(line, "stale")?,
            },
            "health_transition" => TraceKind::HealthTransition {
                device: field_num(line, "device")?,
                from: crate::fault::HealthState::from_name(field_str(line, "from")?)?,
                to: crate::fault::HealthState::from_name(field_str(line, "to")?)?,
            },
            "rebuild_chunk" => TraceKind::RebuildChunk {
                slots: field_num(line, "slots")?,
                done: field_num(line, "done")?,
                total: field_num(line, "total")?,
            },
            "backpressure" => TraceKind::Backpressure {
                lba: field_num(line, "lba")?,
                queued: field_num(line, "queued")?,
                cap: field_num(line, "cap")?,
            },
            "retry_backoff" => TraceKind::RetryBackoff {
                lba: field_num(line, "lba")?,
                attempt: field_num(line, "attempt")?,
                delay: field_num(line, "delay")?,
                write: field_bool(line, "write")?,
            },
            "queue_admit" => TraceKind::QueueAdmit {
                dev: field_num(line, "dev")?,
                lba: field_num(line, "lba")?,
                blocks: field_num(line, "blocks")?,
                depth: field_num(line, "depth")?,
            },
            "queue_reorder" => TraceKind::QueueReorder {
                dev: field_num(line, "dev")?,
                lba: field_num(line, "lba")?,
                jumped: field_num(line, "jumped")?,
            },
            "coalesce" => TraceKind::Coalesce {
                dev: field_num(line, "dev")?,
                lba: field_num(line, "lba")?,
                spans: field_num(line, "spans")?,
                blocks: field_num(line, "blocks")?,
            },
            "open_loop_arrival" => TraceKind::OpenLoopArrival {
                seq: field_num(line, "seq")?,
                lba: field_num(line, "lba")?,
                queued: field_num(line, "queued")?,
            },
            _ => return None,
        };
        Some(TraceEvent { at, kind })
    }

    /// The shard tag on a serialized event line. Untagged lines (and every
    /// line written before sharding existed) are shard 0.
    pub fn shard_of_json(line: &str) -> u32 {
        field_num(line, "shard").unwrap_or(0)
    }
}

/// Extracts the raw text after `"key":` up to the next `,` or `}`.
fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
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

/// A number parsed at the width of the field it lands in: one too wide for
/// that field is malformed, not truncated.
fn field_num<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    field_raw(line, key)?.parse().ok()
}

fn field_bool(line: &str, key: &str) -> Option<bool> {
    match field_raw(line, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let raw = field_raw(line, key)?;
    raw.strip_prefix('"')?.strip_suffix('"')
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

/// A counting-only sink: no event storage, just the totals the trace-oracle
/// tests diff against `SystemReport`/`RunSummary`/`IcashStats` fields.
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
    /// Commands admitted into device command queues.
    pub queue_admits: u64,
    /// Highest queue occupancy any admission observed.
    pub queue_depth_max: u64,
    /// Commands dispatched out of arrival order.
    pub queue_reorders: u64,
    /// Coalesce events (adjacent-command merges).
    pub coalesces: u64,
    /// Commands absorbed into a neighbor's transfer by those merges
    /// (`spans - 1` per event).
    pub coalesced_commands: u64,
    /// Open-loop arrivals released by the scenario engine's event queue.
    pub open_loop_arrivals: u64,
    /// Total virtual time open-loop arrivals waited for a free client.
    pub open_loop_queued: Ns,
    open_span: Option<Ns>,
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
                    self.request_time += event.at - start;
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
            TraceKind::QueueAdmit { depth, .. } => {
                self.queue_admits += 1;
                self.queue_depth_max = self.queue_depth_max.max(depth as u64);
            }
            TraceKind::QueueReorder { .. } => self.queue_reorders += 1,
            TraceKind::Coalesce { spans, .. } => {
                self.coalesces += 1;
                self.coalesced_commands += spans.saturating_sub(1) as u64;
            }
            TraceKind::OpenLoopArrival { queued, .. } => {
                self.open_loop_arrivals += 1;
                self.open_loop_queued += Ns::from_ns(queued);
            }
            TraceKind::RecoveryTruncate { .. } | TraceKind::RecoveryReplay { .. } => {}
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

    fn every_event_shape() -> Vec<TraceEvent> {
        let e = |kind| TraceEvent {
            at: Ns::from_us(7),
            kind,
        };
        vec![
            e(TraceKind::RequestStart {
                op: Op::Write,
                lba: 42,
                blocks: 8,
            }),
            e(TraceKind::RequestEnd),
            e(TraceKind::SsdRead {
                lpn: 3,
                queued: Ns::from_ns(10),
                service: Ns::from_us(25),
                ok: true,
            }),
            e(TraceKind::SsdProgram {
                lpn: 9,
                queued: Ns::ZERO,
                service: Ns::from_us(200),
                gc_reads: 4,
                gc_programs: 4,
                erases: 1,
            }),
            e(TraceKind::SsdTrim { lpn: 11 }),
            e(TraceKind::HddRead {
                disk: 2,
                lba: 1000,
                blocks: 1,
                queued: Ns::from_ms(1),
                service: Ns::from_ms(4),
                ok: false,
            }),
            e(TraceKind::HddWrite {
                disk: 0,
                lba: 2000,
                blocks: 16,
                queued: Ns::ZERO,
                service: Ns::from_ms(5),
                ok: true,
            }),
            e(TraceKind::FaultInjected {
                kind: FaultKind::Wearout,
                addr: 77,
            }),
            e(TraceKind::RamHit { lba: 5 }),
            e(TraceKind::SigProbe {
                lba: 6,
                candidates: 3,
                bound: true,
            }),
            e(TraceKind::DeltaEncode {
                lba: 6,
                reference: 2,
                bytes: 188,
            }),
            e(TraceKind::DeltaDecode { lba: 6 }),
            e(TraceKind::LogFlush {
                entries: 12,
                blocks: 2,
            }),
            e(TraceKind::LogClean),
            e(TraceKind::Scrub {
                scanned: 64,
                repaired: 1,
                failed: 0,
            }),
            e(TraceKind::SlotRepair { slot: 8, ok: true }),
            e(TraceKind::FaultRetry {
                lba: 30,
                write: false,
            }),
            e(TraceKind::StageEnter {
                lba: 9,
                ticket: 41,
                bytes: 96,
            }),
            e(TraceKind::GroupCommit {
                entries: 12,
                bytes: 1152,
            }),
            e(TraceKind::Barrier {
                ticket: 41,
                waited: true,
            }),
            e(TraceKind::RecoveryTruncate { frames: 3 }),
            e(TraceKind::RecoveryReplay {
                entries: 40,
                stale: 2,
            }),
            e(TraceKind::FaultInjected {
                kind: FaultKind::DeviceDead,
                addr: 12,
            }),
            e(TraceKind::HealthTransition {
                device: 0,
                from: crate::fault::HealthState::Healthy,
                to: crate::fault::HealthState::Degraded,
            }),
            e(TraceKind::RebuildChunk {
                slots: 4,
                done: 12,
                total: 64,
            }),
            e(TraceKind::Backpressure {
                lba: 33,
                queued: 128,
                cap: 128,
            }),
            e(TraceKind::RetryBackoff {
                lba: 21,
                attempt: 2,
                delay: 100_000,
                write: true,
            }),
            e(TraceKind::QueueAdmit {
                dev: 1,
                lba: 900,
                blocks: 1,
                depth: 5,
            }),
            e(TraceKind::QueueReorder {
                dev: 1,
                lba: 900,
                jumped: 3,
            }),
            e(TraceKind::Coalesce {
                dev: 1,
                lba: 900,
                spans: 4,
                blocks: 4,
            }),
            e(TraceKind::OpenLoopArrival {
                seq: 17,
                lba: 640,
                queued: 2_500,
            }),
        ]
    }

    /// One event per kind and draw `v`: `at` and every field take `v` at
    /// the field's own width (enums and flags by `v % variants`), so the
    /// draws 0..=5 and `u64::MAX` reach both `Op`s, every `FaultKind` and
    /// `HealthState`, and every integer's widest value.
    fn golden_samples() -> Vec<TraceEvent> {
        use crate::fault::HealthState;
        const FAULTS: [FaultKind; 6] = [
            FaultKind::HddRead,
            FaultKind::HddWrite,
            FaultKind::SsdRead,
            FaultKind::Wearout,
            FaultKind::Remap,
            FaultKind::DeviceDead,
        ];
        const STATES: [HealthState; 4] = [
            HealthState::Healthy,
            HealthState::Degraded,
            HealthState::Failed,
            HealthState::Rebuilding,
        ];
        let w = |v: u64| v as u32;
        let b = |v: u64| v as u8;
        let flag = |v: u64| v % 2 == 1;
        let ns = Ns::from_ns;
        let kinds: Vec<Box<dyn Fn(u64) -> TraceKind>> = vec![
            Box::new(move |v| TraceKind::RequestStart {
                op: [Op::Read, Op::Write][(v % 2) as usize],
                lba: v,
                blocks: w(v),
            }),
            Box::new(|_| TraceKind::RequestEnd),
            Box::new(move |v| TraceKind::SsdRead {
                lpn: v,
                queued: ns(v),
                service: ns(v),
                ok: flag(v),
            }),
            Box::new(move |v| TraceKind::SsdProgram {
                lpn: v,
                queued: ns(v),
                service: ns(v),
                gc_reads: w(v),
                gc_programs: w(v),
                erases: w(v),
            }),
            Box::new(|v| TraceKind::SsdTrim { lpn: v }),
            Box::new(move |v| TraceKind::HddRead {
                disk: b(v),
                lba: v,
                blocks: w(v),
                queued: ns(v),
                service: ns(v),
                ok: flag(v),
            }),
            Box::new(move |v| TraceKind::HddWrite {
                disk: b(v),
                lba: v,
                blocks: w(v),
                queued: ns(v),
                service: ns(v),
                ok: flag(v),
            }),
            Box::new(|v| TraceKind::FaultInjected {
                kind: FAULTS[(v % 6) as usize],
                addr: v,
            }),
            Box::new(|v| TraceKind::RamHit { lba: v }),
            Box::new(move |v| TraceKind::SigProbe {
                lba: v,
                candidates: w(v),
                bound: flag(v),
            }),
            Box::new(move |v| TraceKind::DeltaEncode {
                lba: v,
                reference: v,
                bytes: w(v),
            }),
            Box::new(|v| TraceKind::DeltaDecode { lba: v }),
            Box::new(move |v| TraceKind::LogFlush {
                entries: w(v),
                blocks: w(v),
            }),
            Box::new(|_| TraceKind::LogClean),
            Box::new(move |v| TraceKind::Scrub {
                scanned: w(v),
                repaired: w(v),
                failed: w(v),
            }),
            Box::new(move |v| TraceKind::SlotRepair {
                slot: v,
                ok: flag(v),
            }),
            Box::new(move |v| TraceKind::FaultRetry {
                lba: v,
                write: flag(v),
            }),
            Box::new(move |v| TraceKind::StageEnter {
                lba: v,
                ticket: v,
                bytes: w(v),
            }),
            Box::new(move |v| TraceKind::GroupCommit {
                entries: w(v),
                bytes: w(v),
            }),
            Box::new(move |v| TraceKind::Barrier {
                ticket: v,
                waited: flag(v),
            }),
            Box::new(|v| TraceKind::RecoveryTruncate { frames: v }),
            Box::new(|v| TraceKind::RecoveryReplay {
                entries: v,
                stale: v,
            }),
            Box::new(move |v| TraceKind::HealthTransition {
                device: b(v),
                from: STATES[(v % 4) as usize],
                to: STATES[(v % 4) as usize],
            }),
            Box::new(move |v| TraceKind::RebuildChunk {
                slots: w(v),
                done: v,
                total: v,
            }),
            Box::new(|v| TraceKind::Backpressure {
                lba: v,
                queued: v,
                cap: v,
            }),
            Box::new(move |v| TraceKind::RetryBackoff {
                lba: v,
                attempt: w(v),
                delay: v,
                write: flag(v),
            }),
            Box::new(move |v| TraceKind::QueueAdmit {
                dev: b(v),
                lba: v,
                blocks: w(v),
                depth: w(v),
            }),
            Box::new(move |v| TraceKind::QueueReorder {
                dev: b(v),
                lba: v,
                jumped: w(v),
            }),
            Box::new(move |v| TraceKind::Coalesce {
                dev: b(v),
                lba: v,
                spans: w(v),
                blocks: w(v),
            }),
            Box::new(|v| TraceKind::OpenLoopArrival {
                seq: v,
                lba: v,
                queued: v,
            }),
        ];
        let mut events = Vec::new();
        for make in &kinds {
            for v in [0, 1, 2, 3, 4, 5, u64::MAX] {
                events.push(TraceEvent {
                    at: ns(v),
                    kind: make(v),
                });
            }
        }
        events
    }

    /// The wire format of every kind, pinned line by line. Regenerate
    /// intentionally with `ICASH_BLESS=1 cargo test -p icash-storage trace`.
    #[test]
    fn every_kind_renders_its_pinned_lines() {
        let text: String = golden_samples()
            .iter()
            .map(|e| e.to_json() + "\n")
            .collect();
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

    #[test]
    fn every_event_round_trips_through_json() {
        for event in every_event_shape() {
            let line = event.to_json();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'), "one line per event: {line}");
            let back = TraceEvent::from_json(&line);
            assert_eq!(back.as_ref(), Some(&event), "round trip of {line}");
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
            // Wider than the field (a u32, a u8): refused, not narrowed.
            "{\"at\":1,\"kind\":\"req_start\",\"op\":\"read\",\"lba\":0,\"blocks\":4294967297}",
            "{\"at\":5,\"kind\":\"queue_reorder\",\"dev\":256,\"lba\":1,\"jumped\":1}",
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
        let (tracer, stats) = Tracer::counting();
        for event in every_event_shape() {
            tracer.emit(|| event.clone());
        }
        let s = stats.lock().expect("stats").clone();
        assert_eq!(s.requests, 1);
        assert_eq!(s.write_requests, 1);
        assert_eq!(s.ssd_reads, 1);
        assert_eq!(s.ssd_programs, 1);
        assert_eq!(s.ssd_gc_reads, 4);
        assert_eq!(s.ssd_erases, 1);
        assert_eq!(s.ssd_trims, 1);
        assert_eq!(s.hdd_reads, 1);
        assert_eq!(s.hdd_writes, 1);
        assert_eq!(s.faults_wearout, 1);
        assert_eq!(s.ram_hits, 1);
        assert_eq!(s.sig_probes, 1);
        assert_eq!(s.sig_binds, 1);
        assert_eq!(s.delta_encodes, 1);
        assert_eq!(s.delta_bytes, 188);
        assert_eq!(s.delta_decodes, 1);
        assert_eq!(s.log_flushes, 1);
        assert_eq!(s.log_blocks, 2);
        assert_eq!(s.stage_enters, 1);
        assert_eq!(s.staged_bytes, 96);
        assert_eq!(s.group_commits, 1);
        assert_eq!(s.group_commit_entries, 12);
        assert_eq!(s.group_commit_bytes, 1152);
        assert_eq!(s.barrier_waits, 1);
        assert_eq!(s.barrier_noops, 0);
        assert_eq!(s.log_cleans, 1);
        assert_eq!(s.scrubs, 1);
        assert_eq!(s.slot_repairs, 1);
        assert_eq!(s.fault_retries, 1);
        assert_eq!(s.faults_dead_device, 1);
        assert_eq!(s.health_transitions, 1);
        assert_eq!(s.rebuild_chunks, 1);
        assert_eq!(s.rebuild_slots, 4);
        assert_eq!(s.backpressure_rejects, 1);
        assert_eq!(s.retry_backoffs, 1);
        assert_eq!(s.queue_admits, 1);
        assert_eq!(s.queue_depth_max, 5);
        assert_eq!(s.queue_reorders, 1);
        assert_eq!(s.coalesces, 1);
        assert_eq!(s.coalesced_commands, 3);
        assert_eq!(s.open_loop_arrivals, 1);
        assert_eq!(s.open_loop_queued, Ns::from_ns(2_500));
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
