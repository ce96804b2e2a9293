//! # icash-core — the I-CASH controller (Ren & Yang, HPCA 2011)
//!
//! The paper's primary contribution: a storage element built from one SSD
//! and one HDD *horizontally* coupled by a similarity/delta algorithm. The
//! SSD stores seldom-changed **reference blocks**; the HDD stores the home
//! data area plus a sequential log of packed **deltas** between active
//! blocks and their references. Reads are served by SSD reads plus delta
//! decoding; writes are absorbed as RAM-buffered deltas flushed to the HDD
//! log in batches — trading abundant CPU cycles for scarce mechanical I/O
//! and avoiding the SSD's slow, wearing random writes.
//!
//! * [`controller`] — the [`Icash`] storage element: its state, split into
//!   what a crash keeps and what it loses, and the host-facing surface
//!   (`submit`, barriers, report).
//! * `write`, `read` — the two paths behind `submit`.
//! * `placement` — the transitions that move a block between SSD slot,
//!   reference + delta, log and home; the only code that edits placement.
//! * `slots` — the SSD slot store: pinned content, slot directory,
//!   allocator and the generation stamps recovery orders by.
//! * [`config`] — tunables; defaults follow the paper's prototype.
//! * [`table`], [`virtual_block`] — the virtual-block machinery
//!   (reference / associate / independent roles, §4.3); the recency order
//!   is the workspace-wide [`icash_storage::lru::StampLine`].
//! * [`segment`] — the 64-byte-segment RAM budget.
//! * [`delta_log`] — the packed HDD delta log (§3.1).
//! * `staging` — the group-commit staging buffer: encoded-but-unflushed
//!   deltas keyed by monotonic flush tickets
//!   ([`icash_storage::pipeline::Ticket`]); see
//!   [`Icash::await_flush`](Icash::await_flush) and [`Icash::sync`].
//! * [`ref_index`] — sub-signature index over the reference set.
//! * [`maintenance`] — flush, scrub, similarity scan, promotion, and the
//!   three replacement policies.
//! * [`recovery`] — crash simulation + log-based recovery (§3.3).
//! * [`stats`] — controller counters (role mix, hit classes).
//!
//! ## Quickstart
//!
//! ```
//! use icash_core::{Icash, IcashConfig};
//! use icash_storage::cpu::CpuModel;
//! use icash_storage::{BlockBuf, IoCtx, Lba, Ns, Request, StorageSystem, ZeroSource};
//!
//! // 1 MB SSD, 1 MB RAM, 8 MB data set — toy sizes for the example.
//! let mut icash = Icash::new(IcashConfig::builder(1 << 20, 1 << 20, 8 << 20).build());
//! let mut cpu = CpuModel::xeon();
//! let backing = ZeroSource;
//! let mut ctx = IoCtx::verifying(&backing, &mut cpu);
//!
//! let write = Request::write(Lba::new(42), Ns::ZERO, BlockBuf::filled(7));
//! let done = icash.submit(&write, &mut ctx).finished;
//!
//! let read = Request::read(Lba::new(42), done);
//! let completion = icash.submit(&read, &mut ctx);
//! assert_eq!(completion.data[0], BlockBuf::filled(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod controller;
pub mod delta_log;
pub mod health;
pub mod maintenance;
pub(crate) mod placement;
pub(crate) mod read;
pub mod recovery;
pub mod ref_index;
pub mod segment;
pub(crate) mod slots;
pub(crate) mod staging;
pub mod stats;
pub mod table;
pub mod virtual_block;
pub(crate) mod write;

pub use config::{IcashConfig, IcashConfigBuilder};
pub use controller::Icash;
pub use icash_storage::pipeline::{FlushProgress, Ticket};
pub use stats::IcashStats;
pub use virtual_block::Role;
