//! # icash-storage — simulation substrate for the I-CASH reproduction
//!
//! This crate provides everything below the storage-architecture layer of
//! the I-CASH reproduction (Ren & Yang, HPCA 2011):
//!
//! * [`time`] — deterministic virtual-time clock ([`time::Ns`]).
//! * [`array`] — the [`array::DeviceArray`] service layer owning each
//!   system's devices and their shared accounting.
//! * [`block`] — 4 KB block addressing and content buffers.
//! * [`request`] — host block I/O requests and completions.
//! * [`hdd`] — mechanical disk model (seek + rotation + transfer).
//! * [`ssd`] — NAND flash SSD with page-mapping FTL, garbage collection,
//!   wear tracking and per-op energy.
//! * [`cpu`] — CPU-time model for the computation I-CASH trades for I/O.
//! * [`energy`] — component energy meters (Table 5's power-meter stand-in).
//! * [`stats`] — per-device operation statistics (Table 6's counters).
//! * [`hash`] — the integer hasher behind every address- or id-keyed map
//!   ([`hash::AddrMap`] / [`hash::AddrSet`]), and [`hash::AddrPages`], the
//!   address map filed by pages of neighbouring addresses.
//! * [`histogram`] — log-bucketed latency histograms
//!   ([`histogram::LatencyHistogram`]), embeddable in [`stats::DeviceStats`]
//!   for the per-queue tagged-command latency split.
//! * [`lru`] — the workspace's single LRU implementation ([`lru::StampLine`]
//!   and the keyed [`lru::LruMap`] built on it), shared by the controller,
//!   the baselines and the workload driver.
//! * [`pipeline`] — monotonic flush tickets ([`pipeline::Ticket`] /
//!   [`pipeline::FlushProgress`], write-through bookkeeping in
//!   [`pipeline::WriteThrough`]) that let any architecture expose
//!   group-commit durability watermarks and barriers.
//! * [`queue`] — bounded device command queues ([`queue::CommandQueue`]):
//!   NCQ-style seek-aware scheduling with starvation-bounded aging and
//!   request coalescing for the HDD, depth-bounded per-channel erase
//!   deferral for the SSD, typed [`queue::QueueFull`] backpressure.
//! * [`system`] — the [`system::StorageSystem`] trait every architecture
//!   (I-CASH and the baselines) implements.
//! * [`model`] — the reference model of that trait's read contract
//!   ([`model::VersionModel`]): the one oracle the campaigns and the
//!   property suites check every read against.
//! * [`shard`] — the sharded multi-controller engine:
//!   [`shard::ShardRouter`] stripes the block space across N independent
//!   shards behind one `StorageSystem` facade, with per-shard virtual
//!   clocks merged deterministically ([`shard::merge_streams`]).
//! * [`trace`] — the deterministic, virtual-time-stamped structured event
//!   layer ([`trace::Tracer`] / [`trace::TraceSink`]); zero-cost when
//!   disabled, an oracle for the aggregate counters when enabled.
//!
//! Nothing in this crate consults the wall clock or global randomness:
//! given the same request stream, every model produces bit-identical
//! timings, so experiments are replayable.
//!
//! ## Example: raw device behaviour that motivates I-CASH
//!
//! ```
//! use icash_storage::hdd::{Hdd, HddConfig};
//! use icash_storage::ssd::{Ssd, SsdConfig};
//! use icash_storage::time::Ns;
//!
//! // A random HDD read costs milliseconds...
//! let mut hdd = Hdd::new(HddConfig::seagate_sata(1 << 22));
//! let hdd_done = hdd.read(Ns::ZERO, 2_000_000, 1)?;
//! assert!(hdd_done > Ns::from_ms(2));
//!
//! // ...while an SSD read costs tens of microseconds.
//! let mut ssd = Ssd::new(SsdConfig::fusion_io(1 << 24));
//! let w = ssd.write(Ns::ZERO, 42)?;
//! let ssd_done = ssd.read(w, 42)?;
//! assert!(ssd_done - w < Ns::from_us(100));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod array;
pub mod block;
pub mod cpu;
pub mod energy;
pub mod fault;
pub mod hash;
pub mod hdd;
pub mod histogram;
pub mod lru;
pub mod model;
pub mod pipeline;
pub mod queue;
pub mod request;
pub mod shard;
pub mod ssd;
pub mod stats;
pub mod system;
pub mod time;
pub mod trace;

pub use array::DeviceArray;
pub use block::{BlockBuf, Lba, BLOCK_SIZE};
pub use fault::{FaultPlan, FaultStats, FaultTrigger};
pub use histogram::LatencyHistogram;
pub use pipeline::{FlushProgress, Ticket, WriteThrough};
pub use queue::{CommandQueue, QueueConfig, QueueFull, QueuePolicy};
pub use request::{BlockError, Completion, IoErrorKind, Op, Request};
pub use shard::ShardRouter;
pub use system::{ContentSource, IoCtx, StorageSystem, SystemReport, ZeroSource};
pub use time::{Ns, SimClock};
pub use trace::{TraceEvent, TraceKind, TraceSink, TraceStats, Tracer};
