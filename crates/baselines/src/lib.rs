//! # icash-baselines — the comparison architectures of the I-CASH evaluation
//!
//! The four baseline storage systems of the paper's §4.4, each implementing
//! [`icash_storage::StorageSystem`] so the benchmark driver can run the same
//! workload across all of them and I-CASH:
//!
//! 1. [`PureSsd`] ("Fusion-io") — the whole data set on flash.
//! 2. [`Raid0`] — four striped SATA disks (Linux MD style).
//! 3. [`DedupCache`] — a content-addressed SSD cache (one copy per
//!    identical block) over one disk.
//! 4. [`LruCache`] — a plain SSD LRU block cache over one disk.
//!
//! Except for the pure-SSD system, the caches use exactly the same flash
//! budget the paper gives I-CASH (~10 % of the data set).
//!
//! ```
//! use icash_baselines::{DedupCache, LruCache, PureSsd, Raid0};
//! use icash_storage::StorageSystem;
//!
//! let data = 64 << 20;
//! let cache = 8 << 20;
//! let systems: Vec<Box<dyn StorageSystem>> = vec![
//!     Box::new(PureSsd::new(data)),
//!     Box::new(Raid0::new(data, 4)),
//!     Box::new(DedupCache::new(cache, data)),
//!     Box::new(LruCache::new(cache, data)),
//! ];
//! assert_eq!(systems.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dedup;
pub mod home;
pub mod lru_cache;
pub mod pure_ssd;
pub mod raid0;

pub use dedup::DedupCache;
pub use home::HomeDisk;
pub use lru_cache::LruCache;
pub use pure_ssd::PureSsd;
pub use raid0::Raid0;
