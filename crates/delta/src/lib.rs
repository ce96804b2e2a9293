//! # icash-delta — similarity detection and delta compression for I-CASH
//!
//! The content machinery of the I-CASH reproduction (Ren & Yang, HPCA 2011):
//!
//! * [`signature`] — the paper's cheap 8×1-byte block sub-signatures
//!   (sampled byte sums, chosen over hashing so *similar* blocks collide).
//! * [`heatmap`] — the popularity Heatmap that turns signature streams into
//!   reference-block choices (Tables 1–2 of the paper are unit tests here).
//! * [`codec`] — the delta compression engine: skip/literal records for
//!   in-place changes, raw fallback.
//! * [`varint`] — LEB128 integers for the wire formats.
//!
//! ## Example: the I-CASH write path in miniature
//!
//! ```
//! use icash_delta::codec::DeltaCodec;
//! use icash_delta::heatmap::Heatmap;
//! use icash_delta::signature::BlockSignature;
//!
//! // A reference block and an incoming write that is 99% the same.
//! let reference = vec![0xABu8; 4096];
//! let mut incoming = reference.clone();
//! incoming[17] = 0x01;
//! incoming[2048] = 0x02;
//!
//! // The Heatmap would have told us `reference` is popular...
//! let mut heatmap = Heatmap::standard();
//! heatmap.record(&BlockSignature::of(&reference));
//!
//! // ...so we store only the delta, a handful of bytes instead of 4 KB.
//! let codec = DeltaCodec::default();
//! let delta = codec.encode(&reference, &incoming);
//! assert!(delta.len() < 32);
//! assert_eq!(codec.decode(&reference, &delta).unwrap(), incoming);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod heatmap;
pub mod signature;
pub mod varint;

pub use codec::{DecodeError, Delta, DeltaCodec, Encoding};
pub use heatmap::Heatmap;
pub use signature::BlockSignature;
