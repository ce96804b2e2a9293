//! Deterministic fault injection for the device models.
//!
//! The paper's reliability story (§3.3) assumes devices fail: HDDs grow
//! latent sector errors, SSD pages become uncorrectable (increasingly so as
//! the flash wears out), and a power cut can tear a multi-sector write in
//! half. This module provides a seeded, replayable source of exactly those
//! faults so the controller's retry/remap/recovery machinery can be
//! exercised under test the same way every time.
//!
//! Everything is derived from a [`FaultPlan`] — a pure description of rates
//! and trigger points — through a splitmix64-style hash of
//! `(seed, device salt, op counter, block address)`. No global randomness,
//! no wall clock: the same plan over the same request stream injects the
//! same faults, so campaigns are bit-replayable.
//!
//! A plan where [`FaultPlan::is_enabled`] is `false` must be *provably
//! zero-cost*: devices skip the injector entirely and behave bit-identically
//! to a build without the fault layer.

use crate::block::{le_word, BlockBuf, Lba, BLOCK_SIZE};
use crate::hash::AddrSet;
use crate::request::{BlockError, IoErrorKind};
use crate::time::Ns;
use crate::trace::{FaultKind, TraceEvent, TraceKind, Tracer};
use serde::{Deserialize, Serialize};

/// CRC32 (IEEE 802.3 polynomial, reflected), used to frame delta-log
/// entries and checksum SSD slot contents.
///
/// # Examples
///
/// ```
/// use icash_storage::fault::crc32;
///
/// // The classic check value for "123456789".
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// assert_ne!(crc32(b"abc"), crc32(b"abd"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

/// Braids [`Crc32::update`] runs side by side.
const BRAIDS: usize = 4;
/// Bytes the braids advance over together: one 8-byte word each.
const BRAID_BLOCK: usize = BRAIDS * 8;

/// The slicing tables. `SLICE[0]` is the classic byte-at-a-time table, and
/// `SLICE[k][b]` is the checksum state byte `b` leaves after `k` further
/// zero bytes — CRC32 is linear over GF(2), so the state a run of bytes
/// leaves is the XOR of what each leaves alone, pushed past the bytes after
/// it. Eight loads from `SLICE` advance one state over an 8-byte word.
///
/// `BRAID[k]` is row `8 * (BRAIDS - 1) + k` of the same family: a word of one
/// braid is followed by the other braids' words before that braid's next,
/// so its bytes are pushed that much further.
static SLICE: [[u32; 256]; 8] = crc32_table_rows(0);
static BRAID: [[u32; 256]; 8] = crc32_table_rows(8 * (BRAIDS - 1));

/// Rows `first..first + 8` of the slicing family.
const fn crc32_table_rows(first: usize) -> [[u32; 256]; 8] {
    let mut classic = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        classic[i] = c;
        i += 1;
    }
    let mut rows = [[0u32; 256]; 8];
    let mut row = classic;
    let mut k = 0;
    while k < first + 8 {
        if k >= first {
            rows[k - first] = row;
        }
        let mut i = 0;
        while i < 256 {
            row[i] = (row[i] >> 8) ^ classic[(row[i] & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    rows
}

/// The state eight bytes leave: `word` is those bytes, little-endian, with
/// the state so far XORed into the low four; `rows` says how far past the
/// word's end each byte is pushed.
#[inline(always)]
fn crc32_word(rows: &[[u32; 256]; 8], word: u64) -> u32 {
    let mut c = 0;
    for (k, byte) in word.to_le_bytes().into_iter().enumerate() {
        c ^= rows[7 - k][byte as usize];
    }
    c
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorbs `bytes` into the running checksum.
    ///
    /// One state is one chain of table loads, a word at a time. From two
    /// braid blocks up, `BRAIDS` states run instead (zlib's braided CRC):
    /// braid `i` takes word `i` of every block, each state pushed past the
    /// other braids' words as it goes, so the chains do not wait on each
    /// other. The last block folds them back into one state in word order.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        let mut rest = bytes;
        if bytes.len() >= 2 * BRAID_BLOCK {
            let whole = bytes.len() - bytes.len() % BRAID_BLOCK;
            let (body, tail) = bytes.split_at(whole);
            let (body, last) = body.split_at(whole - BRAID_BLOCK);
            let mut braids = [0u32; BRAIDS];
            braids[0] = c;
            for block in body.chunks_exact(BRAID_BLOCK) {
                for (braid, word) in braids.iter_mut().zip(block.chunks_exact(8)) {
                    *braid = crc32_word(&BRAID, *braid as u64 ^ le_word(word));
                }
            }
            c = 0;
            for (braid, word) in braids.iter().zip(last.chunks_exact(8)) {
                c = crc32_word(&SLICE, (c ^ braid) as u64 ^ le_word(word));
            }
            rest = tail;
        }
        let mut words = rest.chunks_exact(8);
        for word in &mut words {
            c = crc32_word(&SLICE, c as u64 ^ le_word(word));
        }
        for &b in words.remainder() {
            c = SLICE[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// The checksum of `a` carried past `len` more bytes, for any such bytes
/// `b`: CRC32 is linear over GF(2), so `crc32(a ‖ b) == crc32_shift(crc32(a),
/// b.len()) ^ crc32(b)` (zlib's `crc32_combine`). It costs a table load and
/// one multiply mod the polynomial, not a pass over `len` bytes.
///
/// # Panics
///
/// Panics if `len` exceeds a block ([`BLOCK_SIZE`]): nothing longer is
/// checksummed in pieces.
///
/// # Examples
///
/// ```
/// use icash_storage::fault::{crc32, crc32_shift};
///
/// let whole = crc32(b"123456789");
/// assert_eq!(crc32_shift(crc32(b"1234"), 5) ^ crc32(b"56789"), whole);
/// ```
pub fn crc32_shift(crc: u32, len: usize) -> u32 {
    mul_mod_p(ZERO_BYTES[len], crc)
}

/// `ZERO_BYTES[n]` is x^(8n) mod P, what `n` zero bytes multiply a
/// checksum state by: each is the one before it pushed through a zero byte.
static ZERO_BYTES: [u32; BLOCK_SIZE + 1] = {
    let classic = crc32_table_rows(0)[0];
    let mut table = [0u32; BLOCK_SIZE + 1];
    let mut power = 1u32 << 31; // x^0
    let mut n = 0;
    while n <= BLOCK_SIZE {
        table[n] = power;
        power = classic[(power & 0xFF) as usize] ^ (power >> 8);
        n += 1;
    }
    table
};

/// `a * b` modulo the CRC32 polynomial, both in the reflected bit order the
/// checksum keeps (x^0 is the top bit). Branch-free: the operands are data.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0u32;
    let mut i = 0;
    while i < 32 {
        // `b` is the other operand times x^i; add it where `a` has x^i.
        product ^= b & ((a >> (31 - i)) & 1).wrapping_neg();
        b = (b >> 1) ^ (0xEDB8_8320 & (b & 1).wrapping_neg());
        i += 1;
    }
    product
}

/// A deterministic trigger: fail exactly the `op`-th operation of a kind on
/// a device (counted from zero), regardless of probability rates. Used by
/// tests that need a fault at a precise, named point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTrigger {
    /// Fail the `op`-th HDD read on the device.
    HddRead {
        /// Zero-based read-operation index to fail.
        op: u64,
    },
    /// Fail the `op`-th HDD write on the device (transient: a retry of the
    /// same logical write is a *later* operation and succeeds).
    HddWrite {
        /// Zero-based write-operation index to fail.
        op: u64,
    },
    /// Fail the `op`-th SSD read on the device.
    SsdRead {
        /// Zero-based read-operation index to fail.
        op: u64,
    },
}

/// A seeded description of the faults a run should experience.
///
/// Rates are per-operation probabilities in `0.0..=1.0`; triggers name
/// exact operations. The default plan ([`FaultPlan::none`]) injects
/// nothing and is guaranteed zero-cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every probabilistic draw (same seed → same faults).
    pub seed: u64,
    /// Probability a 4 KB HDD block read hits a latent sector error.
    /// The sector stays bad until the block is rewritten (the drive remaps
    /// on write, as real drives do).
    pub hdd_read_error_rate: f64,
    /// Probability an HDD block write fails transiently (a retry, being a
    /// later operation, re-rolls and will almost surely succeed).
    pub hdd_write_error_rate: f64,
    /// Probability an SSD page read is uncorrectable. The page stays bad
    /// until reprogrammed or trimmed.
    pub ssd_read_error_rate: f64,
    /// Wear fraction (`life_used`) beyond which the extra wear-out read
    /// error rate applies.
    pub wearout_threshold: f64,
    /// Additional SSD read error probability once the device has worn past
    /// [`FaultPlan::wearout_threshold`].
    pub wearout_read_error_rate: f64,
    /// Whether a crash tears the tail of the last log append (a partial
    /// multi-block write, detectable only via entry checksums).
    pub torn_writes: bool,
    /// Host I/Os between background scrub passes (0 = scrub disabled).
    pub scrub_interval: u64,
    /// Exact-operation triggers, applied on top of the rates.
    pub triggers: Vec<FaultTrigger>,
    /// Whole-device SSD death: once the SSD's total operation count
    /// (reads + writes) reaches this index, every subsequent operation
    /// fails until the device is replaced.
    pub ssd_death_op: Option<u64>,
    /// Whole-device HDD death, counted the same way per spindle.
    pub hdd_death_op: Option<u64>,
}

impl FaultPlan {
    /// A plan injecting nothing; guaranteed zero-cost when installed.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            hdd_read_error_rate: 0.0,
            hdd_write_error_rate: 0.0,
            ssd_read_error_rate: 0.0,
            wearout_threshold: 1.0,
            wearout_read_error_rate: 0.0,
            torn_writes: false,
            scrub_interval: 0,
            triggers: Vec::new(),
            ssd_death_op: None,
            hdd_death_op: None,
        }
    }

    /// A plan seeded with `seed` and no faults yet; chain the setters.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Sets the HDD latent-sector read error rate.
    pub fn hdd_read_errors(mut self, rate: f64) -> Self {
        self.hdd_read_error_rate = rate;
        self
    }

    /// Sets the transient HDD write error rate.
    pub fn hdd_write_errors(mut self, rate: f64) -> Self {
        self.hdd_write_error_rate = rate;
        self
    }

    /// Sets the SSD uncorrectable read error rate.
    pub fn ssd_read_errors(mut self, rate: f64) -> Self {
        self.ssd_read_error_rate = rate;
        self
    }

    /// Sets the wear-out model: once `life_used >= threshold`, reads fail
    /// with an extra probability of `rate`.
    pub fn wearout(mut self, threshold: f64, rate: f64) -> Self {
        self.wearout_threshold = threshold;
        self.wearout_read_error_rate = rate;
        self
    }

    /// Enables torn (partial) log writes at crash time.
    pub fn torn_writes(mut self) -> Self {
        self.torn_writes = true;
        self
    }

    /// Enables the background scrub pass every `interval` host I/Os.
    pub fn scrub_every(mut self, interval: u64) -> Self {
        self.scrub_interval = interval;
        self
    }

    /// Adds an exact-operation trigger.
    pub fn trigger(mut self, t: FaultTrigger) -> Self {
        self.triggers.push(t);
        self
    }

    /// Kills the SSD outright at its `op`-th device operation (reads and
    /// writes counted together): that operation and every later one fail
    /// until the device is replaced.
    pub fn ssd_dies_at(mut self, op: u64) -> Self {
        self.ssd_death_op = Some(op);
        self
    }

    /// Kills each HDD outright at its `op`-th device operation.
    pub fn hdd_dies_at(mut self, op: u64) -> Self {
        self.hdd_death_op = Some(op);
        self
    }

    /// A copy of this plan with the SSD death trigger cleared — the plan a
    /// freshly installed replacement SSD lives under.
    pub fn without_ssd_death(&self) -> FaultPlan {
        FaultPlan {
            ssd_death_op: None,
            ..self.clone()
        }
    }

    /// Whether this plan can inject anything at all. Disabled plans are
    /// skipped entirely by the devices (zero-cost guarantee).
    pub fn is_enabled(&self) -> bool {
        self.hdd_read_error_rate > 0.0
            || self.hdd_write_error_rate > 0.0
            || self.ssd_read_error_rate > 0.0
            || self.wearout_read_error_rate > 0.0
            || self.torn_writes
            || self.scrub_interval > 0
            || !self.triggers.is_empty()
            || self.ssd_death_op.is_some()
            || self.hdd_death_op.is_some()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash step.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic 64-bit draw for `(seed, salt, op, addr)`. Public so the
/// recovery path can derive its torn-write tear point from the same stream.
pub fn fault_roll(seed: u64, salt: u64, op: u64, addr: u64) -> u64 {
    mix(seed ^ mix(salt ^ mix(op ^ mix(addr))))
}

/// Maps a 64-bit draw onto the unit interval.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-device fault state: the plan, this device's salt, operation
/// counters, and the set of currently-bad block addresses.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    salt: u64,
    read_ops: u64,
    write_ops: u64,
    bad: AddrSet<u64>,
    tracer: Tracer,
    /// Total-operation index at which the whole device dies, if ever.
    death_op: Option<u64>,
}

impl FaultInjector {
    /// Creates an injector for one device; `salt` distinguishes devices
    /// sharing a plan so they do not fail in lockstep.
    pub fn new(plan: FaultPlan, salt: u64) -> Self {
        FaultInjector {
            plan,
            salt,
            read_ops: 0,
            write_ops: 0,
            bad: AddrSet::default(),
            tracer: Tracer::disabled(),
            death_op: None,
        }
    }

    /// Arms (or clears) the whole-device death trigger: once the device's
    /// total operation count reaches `op`, every operation fails until the
    /// device is replaced. The array installer wires this from
    /// [`FaultPlan::ssd_death_op`] / [`FaultPlan::hdd_death_op`].
    pub fn with_death(mut self, op: Option<u64>) -> Self {
        self.death_op = op;
        self
    }

    /// Whether the device has died (reached its death operation).
    pub fn is_dead(&self) -> bool {
        self.death_op
            .is_some_and(|d| self.read_ops + self.write_ops >= d)
    }

    /// Installs the tracer that receives a
    /// [`TraceKind::FaultInjected`] event for every injected fault and
    /// remap: the one count of them (attach [`Tracer::counting`] to read
    /// totals).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Emits one fault event.
    fn note(&self, at: Ns, kind: FaultKind, addr: u64) {
        self.tracer.emit(|| TraceEvent {
            at,
            kind: TraceKind::FaultInjected { kind, addr },
        });
    }

    fn triggered(&self, kind: u8, op: u64) -> bool {
        self.plan.triggers.iter().any(|t| match (kind, t) {
            (0, FaultTrigger::HddRead { op: o }) => *o == op,
            (1, FaultTrigger::HddWrite { op: o }) => *o == op,
            (2, FaultTrigger::SsdRead { op: o }) => *o == op,
            _ => false,
        })
    }

    /// Checks an HDD read of `blocks` blocks at `lba`. Returns the first
    /// failing block address, if any. A failing sector joins the bad set
    /// and keeps failing until rewritten.
    pub fn hdd_read(&mut self, at: Ns, lba: u64, blocks: u32) -> Option<u64> {
        if self.is_dead() {
            self.read_ops += 1;
            self.note(at, FaultKind::DeviceDead, lba);
            return Some(lba);
        }
        let op = self.read_ops;
        self.read_ops += 1;
        if self.triggered(0, op) {
            self.bad.insert(lba);
            self.note(at, FaultKind::HddRead, lba);
            return Some(lba);
        }
        for i in 0..blocks as u64 {
            let addr = lba + i;
            if self.bad.contains(&addr) {
                self.note(at, FaultKind::HddRead, addr);
                return Some(addr);
            }
            if self.plan.hdd_read_error_rate > 0.0 {
                let roll = unit(fault_roll(self.plan.seed, self.salt, op, addr));
                if roll < self.plan.hdd_read_error_rate {
                    self.bad.insert(addr);
                    self.note(at, FaultKind::HddRead, addr);
                    return Some(addr);
                }
            }
        }
        None
    }

    /// Checks an HDD write of `blocks` blocks at `lba`. Returns the
    /// failing block address for a transient write fault; on success the
    /// written sectors are remapped (cleared from the bad set).
    pub fn hdd_write(&mut self, at: Ns, lba: u64, blocks: u32) -> Option<u64> {
        if self.is_dead() {
            self.write_ops += 1;
            self.note(at, FaultKind::DeviceDead, lba);
            return Some(lba);
        }
        let op = self.write_ops;
        self.write_ops += 1;
        if self.triggered(1, op) {
            self.note(at, FaultKind::HddWrite, lba);
            return Some(lba);
        }
        if self.plan.hdd_write_error_rate > 0.0 {
            // Write faults are whole-operation and transient: the op
            // counter has advanced, so a retry re-rolls.
            let roll = unit(fault_roll(self.plan.seed, self.salt ^ 0x57, op, lba));
            if roll < self.plan.hdd_write_error_rate {
                self.note(at, FaultKind::HddWrite, lba);
                return Some(lba);
            }
        }
        for i in 0..blocks as u64 {
            if self.bad.remove(&(lba + i)) {
                self.note(at, FaultKind::Remap, lba + i);
            }
        }
        None
    }

    /// Checks an SSD page read of `lpn` at wear level `life_used`.
    /// Returns `true` if the read is uncorrectable; the page stays bad
    /// until reprogrammed or trimmed.
    pub fn ssd_read(&mut self, at: Ns, lpn: u64, life_used: f64) -> bool {
        if self.is_dead() {
            self.read_ops += 1;
            self.note(at, FaultKind::DeviceDead, lpn);
            return true;
        }
        let op = self.read_ops;
        self.read_ops += 1;
        if self.triggered(2, op) {
            self.bad.insert(lpn);
            self.note(at, FaultKind::SsdRead, lpn);
            return true;
        }
        if self.bad.contains(&lpn) {
            self.note(at, FaultKind::SsdRead, lpn);
            return true;
        }
        let wearing = life_used >= self.plan.wearout_threshold;
        let rate = self.plan.ssd_read_error_rate
            + if wearing {
                self.plan.wearout_read_error_rate
            } else {
                0.0
            };
        if rate > 0.0 {
            let roll = unit(fault_roll(self.plan.seed, self.salt, op, lpn));
            if roll < rate {
                self.bad.insert(lpn);
                self.note(at, FaultKind::SsdRead, lpn);
                if wearing && roll >= self.plan.ssd_read_error_rate {
                    self.note(at, FaultKind::Wearout, lpn);
                }
                return true;
            }
        }
        false
    }

    /// Notes a successful SSD program/trim of `lpn`, clearing any latent
    /// bad state (new charge, fresh ECC).
    pub fn ssd_write(&mut self, at: Ns, lpn: u64) {
        self.write_ops += 1;
        if self.bad.remove(&lpn) {
            self.note(at, FaultKind::Remap, lpn);
        }
    }

    /// Checks whether a pending SSD program must be refused because the
    /// device has died. Traces the refusal; a live device is
    /// untouched (the later [`FaultInjector::ssd_write`] counts the op).
    pub fn ssd_program_refused(&mut self, at: Ns, lpn: u64) -> bool {
        if !self.is_dead() {
            return false;
        }
        self.write_ops += 1;
        self.note(at, FaultKind::DeviceDead, lpn);
        true
    }
}

// ---------------------------------------------------------------------
// Device health
// ---------------------------------------------------------------------

/// The health of one device, as judged by deterministic error-budget
/// accounting over its observed operation outcomes.
///
/// The machine moves `Healthy → Degraded → Failed → Rebuilding → Healthy`:
/// consecutive failures or a high error-rate EWMA degrade and then fail the
/// device; `Failed` is sticky until the device is physically replaced, at
/// which point the rebuild task owns the `Rebuilding → Healthy` edge.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthState {
    /// Operating normally.
    #[default]
    Healthy,
    /// Error budget partially consumed; service continues with caution.
    Degraded,
    /// The device is considered dead; no further service is attempted.
    Failed,
    /// A replacement device is being repopulated under live traffic.
    Rebuilding,
}

/// Thresholds and budgets of the health subsystem. All accounting is in
/// virtual time and operation counts, so verdicts are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthPolicy {
    /// Consecutive failed operations that degrade a healthy device.
    pub consecutive_degraded: u32,
    /// Consecutive failed operations that fail the device outright.
    pub consecutive_failed: u32,
    /// EWMA smoothing factor for the per-operation error rate.
    pub ewma_alpha: f64,
    /// EWMA error rate at which a healthy device degrades.
    pub ewma_degraded: f64,
    /// EWMA error rate at which a degraded device fails.
    pub ewma_failed: f64,
    /// Consecutive successes (with the EWMA back under the degrade
    /// threshold) that return a degraded device to healthy.
    pub recover_successes: u32,
    /// Retries of a failed device read before the error is reported.
    pub read_retries: u32,
    /// Retries of a failed device write before the error is reported.
    pub write_retries: u32,
    /// Base backoff delay (0 = unpaced); attempt `n` waits `base << n` plus
    /// jitter.
    pub retry_base_ns: u64,
    /// SSD slots repopulated per host I/O while rebuilding (rate limit).
    pub rebuild_rate: u32,
    /// Staging-buffer admission cap in buffered entries (0 = unbounded).
    pub staging_cap: u64,
}

impl HealthPolicy {
    /// The identity: thresholds no run reaches (`u32::MAX` failures in a
    /// row, an error rate above 1), so monitors stay `Healthy`; one read and
    /// three write retries (latent sector errors persist, write faults clear
    /// on a remap), unpaced; no admission cap.
    pub fn inert() -> Self {
        HealthPolicy {
            consecutive_degraded: u32::MAX,
            consecutive_failed: u32::MAX,
            ewma_alpha: 0.125,
            ewma_degraded: f64::INFINITY,
            ewma_failed: f64::INFINITY,
            recover_successes: 16,
            read_retries: 1,
            write_retries: 3,
            retry_base_ns: 0,
            rebuild_rate: 4,
            staging_cap: 0,
        }
    }

    /// The monitored policy: degrade at 3 failures in a row or an error rate
    /// of 1/2, fail at 8 or 7/8; four retries each way, backoff from 50 µs.
    pub fn standard() -> Self {
        HealthPolicy {
            consecutive_degraded: 3,
            consecutive_failed: 8,
            ewma_degraded: 0.5,
            ewma_failed: 0.875,
            read_retries: 4,
            write_retries: 4,
            retry_base_ns: 50_000,
            ..Self::inert()
        }
    }

    /// This policy for one of `shards` controllers: each polices its share
    /// of the total staging cap (floor 1; an unbounded 0 stays 0).
    pub fn shard_share(mut self, shards: u64) -> Self {
        if self.staging_cap > 0 {
            self.staging_cap = (self.staging_cap / shards.max(1)).max(1);
        }
        self
    }

    /// Asserts nonzero streak thresholds and rebuild rate, and an EWMA
    /// factor in `(0, 1]`.
    pub fn validate(&self) {
        assert!(
            self.consecutive_degraded > 0 && self.consecutive_failed > 0,
            "health streak thresholds must be nonzero"
        );
        assert!(
            self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0,
            "health EWMA alpha must be in (0, 1]"
        );
        assert!(self.rebuild_rate > 0, "rebuild rate must be nonzero");
    }
}

/// Error-budget accounting for one device: feed it every operation outcome
/// via [`HealthMonitor::note`] and it walks the [`HealthState`] machine.
///
/// # Examples
///
/// ```
/// use icash_storage::fault::{HealthMonitor, HealthPolicy, HealthState};
///
/// let mut m = HealthMonitor::new(HealthPolicy::standard());
/// assert_eq!(m.state(), HealthState::Healthy);
/// for _ in 0..8 {
///     m.note(false);
/// }
/// assert_eq!(m.state(), HealthState::Failed);
/// let t = m.begin_rebuild().expect("replacement accepted");
/// assert_eq!(t, (HealthState::Failed, HealthState::Rebuilding));
/// ```
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    policy: HealthPolicy,
    state: HealthState,
    consecutive_failures: u32,
    consecutive_successes: u32,
    ewma: f64,
}

impl HealthMonitor {
    /// A healthy monitor under `policy`.
    pub fn new(policy: HealthPolicy) -> Self {
        HealthMonitor {
            policy,
            state: HealthState::Healthy,
            consecutive_failures: 0,
            consecutive_successes: 0,
            ewma: 0.0,
        }
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Whether the device is considered dead (no service attempted).
    pub fn is_failed(&self) -> bool {
        self.state == HealthState::Failed
    }

    /// Feeds one operation outcome; returns the `(from, to)` edge if the
    /// state changed. A `Failed` device ignores further outcomes — only
    /// [`HealthMonitor::begin_rebuild`] (device replacement) revives it.
    pub fn note(&mut self, ok: bool) -> Option<(HealthState, HealthState)> {
        if self.state == HealthState::Failed {
            return None;
        }
        // (Saturating: under an inert policy a monitor sees every outcome
        // of the run and never resets.)
        if ok {
            self.consecutive_failures = 0;
            self.consecutive_successes = self.consecutive_successes.saturating_add(1);
        } else {
            self.consecutive_successes = 0;
            self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        }
        let err = if ok { 0.0 } else { 1.0 };
        self.ewma = self.policy.ewma_alpha * err + (1.0 - self.policy.ewma_alpha) * self.ewma;

        let p = &self.policy;
        let to = match self.state {
            HealthState::Healthy | HealthState::Degraded => {
                if self.consecutive_failures >= p.consecutive_failed || self.ewma >= p.ewma_failed {
                    HealthState::Failed
                } else if self.consecutive_failures >= p.consecutive_degraded
                    || self.ewma >= p.ewma_degraded
                {
                    HealthState::Degraded
                } else if self.state == HealthState::Degraded
                    && self.consecutive_successes >= p.recover_successes
                    && self.ewma < p.ewma_degraded
                {
                    HealthState::Healthy
                } else {
                    self.state
                }
            }
            HealthState::Rebuilding => {
                // A replacement that itself starts failing hard is declared
                // dead again; the rebuild task stops against it.
                if self.consecutive_failures >= p.consecutive_failed {
                    HealthState::Failed
                } else {
                    self.state
                }
            }
            HealthState::Failed => unreachable!("handled above"),
        };
        self.transition(to)
    }

    /// Accepts a replacement device: `Failed → Rebuilding`. Returns the
    /// edge, or `None` if the device had not failed.
    pub fn begin_rebuild(&mut self) -> Option<(HealthState, HealthState)> {
        if self.state != HealthState::Failed {
            return None;
        }
        self.reset_counters();
        self.transition(HealthState::Rebuilding)
    }

    /// Finishes a rebuild: `Rebuilding → Healthy`. Returns the edge, or
    /// `None` if the device was not rebuilding.
    pub fn rebuild_complete(&mut self) -> Option<(HealthState, HealthState)> {
        if self.state != HealthState::Rebuilding {
            return None;
        }
        self.reset_counters();
        self.transition(HealthState::Healthy)
    }

    fn reset_counters(&mut self) {
        self.consecutive_failures = 0;
        self.consecutive_successes = 0;
        self.ewma = 0.0;
    }

    fn transition(&mut self, to: HealthState) -> Option<(HealthState, HealthState)> {
        if to == self.state {
            return None;
        }
        let from = self.state;
        self.state = to;
        Some((from, to))
    }
}

// ---------------------------------------------------------------------
// Shared repair-ladder helpers
// ---------------------------------------------------------------------

/// Retries a failed device read exactly once (the classic baseline ladder:
/// the injector advances its op counter, so the retry re-rolls). Mirrors
/// what `pipeline::WriteThrough` did for tickets: one shared helper instead
/// of per-baseline copies.
pub fn read_with_retry<T, E>(mut op: impl FnMut() -> Result<T, E>) -> Result<T, E> {
    op().or_else(|_| op())
}

/// Retries a failed device write up to three times (four attempts total —
/// write faults are transient, so the ladder almost always clears them).
pub fn write_with_retry<T, E>(mut op: impl FnMut() -> Result<T, E>) -> Result<T, E> {
    let mut last = op();
    for _ in 0..3 {
        if last.is_ok() {
            return last;
        }
        last = op();
    }
    last
}

/// Reports a block the repair ladder could not serve: records the typed
/// error and, when the run materialises data, pushes the placeholder buffer
/// that keeps `Completion::data` index-aligned with the request.
pub fn report_lost(
    errors: &mut Vec<BlockError>,
    data: &mut Vec<BlockBuf>,
    collect_data: bool,
    lba: Lba,
    kind: IoErrorKind,
) {
    errors.push(BlockError { lba, kind });
    if collect_data {
        data.push(BlockBuf::zeroed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceStats;
    use std::sync::{Arc, Mutex};

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Slot checksums as values: `crc32` of four whole 4 KB blocks, recorded
    /// under the slice-by-8 kernel. (The `ContentModel` blocks are pinned
    /// where that model lives: `icash_workloads::content`'s tests.)
    #[test]
    fn crc32_of_whole_blocks_is_pinned() {
        use crate::block::BLOCK_SIZE;
        let mut st = 0x9E37_79B9_7F4A_7C15u64;
        let stream: Vec<u8> = (0..BLOCK_SIZE)
            .map(|_| {
                st ^= st << 13;
                st ^= st >> 7;
                st ^= st << 17;
                st as u8
            })
            .collect();
        let ramp: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i * 131 + 7) as u8).collect();
        assert_eq!(crc32(&[0u8; BLOCK_SIZE]), 0xC71C_0011);
        assert_eq!(crc32(&[0xFFu8; BLOCK_SIZE]), 0xF154_670A);
        assert_eq!(crc32(&ramp), 0xA3F5_519C);
        assert_eq!(crc32(&stream), 0xD243_A366);
    }

    #[test]
    fn crc32_incremental_matches_oneshot() {
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), crc32(b"123456789"));
    }

    /// Byte-at-a-time, bit-at-a-time CRC32: the definition, sharing no
    /// table with the implementation.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    proptest::proptest! {
        /// However a buffer is split across `update` calls, and wherever in
        /// memory it starts — so whatever mix of braided blocks, folded
        /// block, 8-byte words and byte tail the calls take — the result is
        /// the one-shot bit-wise checksum.
        #[test]
        fn crc32_any_split_matches_bytewise_reference(
            bytes in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..9000),
            offset in 0usize..8,
            cuts in proptest::collection::vec(0usize..9000, 0..6),
        ) {
            let bytes = &bytes[offset.min(bytes.len())..];
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for cut in cuts {
                c.update(&bytes[from..cut]);
                from = cut;
            }
            c.update(&bytes[from..]);
            proptest::prop_assert_eq!(c.finish(), crc32_bitwise(bytes));
        }

        /// A checksum carried past a suffix's length (up to a block),
        /// XORed with the suffix's own checksum, is the checksum of the
        /// whole.
        #[test]
        fn crc32_shift_combines_any_split(
            bytes in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..9000),
            cut in 0usize..9000,
        ) {
            let (a, b) = bytes.split_at(cut.min(bytes.len()).max(bytes.len().saturating_sub(BLOCK_SIZE)));
            proptest::prop_assert_eq!(crc32_shift(crc32(a), b.len()) ^ crc32(b), crc32_bitwise(&bytes));
        }
    }

    /// Every suffix length up to 200 bytes, then a stride of lengths up to
    /// a whole block, against a fixed prefix.
    #[test]
    fn crc32_shift_suffix_lengths_up_to_a_block() {
        let bytes: Vec<u8> = (0..4096 + 25u32).map(|i| (i * 131 + 7) as u8).collect();
        let (head, tail) = bytes.split_at(25);
        for len in (0..=200).chain((201..4096).step_by(61)).chain([4096]) {
            let whole = crc32_bitwise(&bytes[..25 + len]);
            assert_eq!(
                crc32_shift(crc32(head), len) ^ crc32(&tail[..len]),
                whole,
                "{len} bytes"
            );
        }
    }

    /// Every length around the seams — byte tail / word loop at 8, word
    /// loop / braids at 64, a second braided block at 96 — from a state
    /// other than the initial one.
    #[test]
    fn crc32_every_short_length_matches_bytewise_reference() {
        let bytes: Vec<u8> = (0..203u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..=200 {
            let mut c = Crc32::new();
            c.update(&bytes[..3]);
            c.update(&bytes[3..3 + len]);
            assert_eq!(c.finish(), crc32_bitwise(&bytes[..3 + len]), "{len} bytes");
        }
    }

    #[test]
    fn rolls_are_deterministic() {
        assert_eq!(fault_roll(1, 2, 3, 4), fault_roll(1, 2, 3, 4));
        assert_ne!(fault_roll(1, 2, 3, 4), fault_roll(2, 2, 3, 4));
        assert_ne!(fault_roll(1, 2, 3, 4), fault_roll(1, 2, 4, 4));
    }

    #[test]
    fn disabled_plan_is_disabled() {
        assert!(!FaultPlan::none().is_enabled());
        assert!(!FaultPlan::seeded(42).is_enabled());
        assert!(FaultPlan::seeded(42).hdd_read_errors(0.01).is_enabled());
        assert!(FaultPlan::seeded(42).torn_writes().is_enabled());
        assert!(FaultPlan::seeded(42)
            .trigger(FaultTrigger::HddRead { op: 0 })
            .is_enabled());
    }

    /// An injector over `plan` and `salt` with a counting sink attached.
    fn counted(plan: FaultPlan, salt: u64) -> (FaultInjector, Arc<Mutex<TraceStats>>) {
        let mut inj = FaultInjector::new(plan, salt);
        let (tracer, counts) = Tracer::counting();
        inj.set_tracer(tracer);
        (inj, counts)
    }

    #[test]
    fn triggers_fire_exactly_once() {
        let plan = FaultPlan::seeded(7).trigger(FaultTrigger::HddRead { op: 1 });
        let (mut inj, counts) = counted(plan, 0);
        assert!(inj.hdd_read(Ns::ZERO, 10, 1).is_none());
        assert_eq!(inj.hdd_read(Ns::ZERO, 20, 1), Some(20), "second read fails");
        // The sector the trigger hit stays bad until rewritten.
        assert_eq!(inj.hdd_read(Ns::ZERO, 20, 1), Some(20));
        assert!(inj.hdd_write(Ns::ZERO, 20, 1).is_none());
        assert!(
            inj.hdd_read(Ns::ZERO, 20, 1).is_none(),
            "rewrite remapped it"
        );
        assert_eq!(counts.lock().unwrap().faults_remapped, 1);
    }

    #[test]
    fn latent_errors_persist_until_rewrite() {
        // A rate of 1.0 fails every fresh read.
        let plan = FaultPlan::seeded(3).hdd_read_errors(1.0);
        let (mut inj, counts) = counted(plan, 0);
        assert_eq!(inj.hdd_read(Ns::ZERO, 5, 1), Some(5));
        assert_eq!(counts.lock().unwrap().faults_hdd_read, 1);
        assert!(inj.hdd_write(Ns::ZERO, 5, 1).is_none());
        assert_eq!(counts.lock().unwrap().faults_remapped, 1);
        // Rate 1.0 re-marks it immediately, but the remap did clear it.
        assert_eq!(inj.hdd_read(Ns::ZERO, 5, 1), Some(5));
    }

    #[test]
    fn write_faults_are_transient() {
        let plan = FaultPlan::seeded(9).hdd_write_errors(0.5);
        let (mut inj, counts) = counted(plan, 4);
        // Across many ops roughly half fail; crucially a failed op's retry
        // is a new op with a fresh roll, so eventually every write lands.
        let mut failures = 0;
        for i in 0..200u64 {
            if inj.hdd_write(Ns::ZERO, i, 1).is_some() {
                failures += 1;
            }
        }
        assert!(failures > 50 && failures < 150, "got {failures}");
        assert_eq!(counts.lock().unwrap().faults_hdd_write, failures);
    }

    #[test]
    fn ssd_wearout_raises_error_rate() {
        let plan = FaultPlan::seeded(11).wearout(0.5, 1.0);
        let mut fresh = FaultInjector::new(plan.clone(), 0);
        assert!(
            !fresh.ssd_read(Ns::ZERO, 1, 0.0),
            "below threshold: no wear term"
        );
        let (mut worn, counts) = counted(plan, 0);
        assert!(
            worn.ssd_read(Ns::ZERO, 1, 0.9),
            "past threshold: wear term fires"
        );
        assert_eq!(counts.lock().unwrap().faults_wearout, 1);
        // A reprogram heals the page; rate still 1.0 so next read refails.
        worn.ssd_write(Ns::ZERO, 1);
        assert_eq!(counts.lock().unwrap().faults_remapped, 1);
    }

    #[test]
    fn same_plan_same_salt_is_replayable() {
        let plan = FaultPlan::seeded(77).hdd_read_errors(0.1);
        let (mut a, a_counts) = counted(plan.clone(), 16);
        let (mut b, b_counts) = counted(plan, 16);
        for i in 0..500u64 {
            assert_eq!(
                a.hdd_read(Ns::ZERO, i % 64, 1),
                b.hdd_read(Ns::ZERO, i % 64, 1)
            );
        }
        assert_eq!(*a_counts.lock().unwrap(), *b_counts.lock().unwrap());
    }

    #[test]
    fn death_trigger_enables_plan_and_kills_every_op() {
        let plan = FaultPlan::seeded(1).hdd_dies_at(2);
        assert!(plan.is_enabled());
        assert!(FaultPlan::seeded(1).ssd_dies_at(0).is_enabled());
        let (inj, counts) = counted(plan.clone(), 16);
        let mut inj = inj.with_death(plan.hdd_death_op);
        assert!(inj.hdd_read(Ns::ZERO, 0, 1).is_none());
        assert!(inj.hdd_write(Ns::ZERO, 1, 1).is_none());
        assert!(inj.is_dead(), "two ops spent: the device is gone");
        assert_eq!(inj.hdd_read(Ns::ZERO, 5, 1), Some(5));
        assert_eq!(inj.hdd_write(Ns::ZERO, 6, 1), Some(6));
        assert_eq!(counts.lock().unwrap().faults_dead_device, 2);
        // A rewrite cannot remap a dead device back to life.
        assert_eq!(inj.hdd_read(Ns::ZERO, 5, 1), Some(5));
    }

    #[test]
    fn dead_ssd_refuses_reads_and_programs() {
        let plan = FaultPlan::seeded(2).ssd_dies_at(0);
        let (inj, counts) = counted(plan.clone(), 1);
        let mut inj = inj.with_death(plan.ssd_death_op);
        assert!(inj.ssd_read(Ns::ZERO, 3, 0.0));
        assert!(inj.ssd_program_refused(Ns::ZERO, 4));
        assert_eq!(counts.lock().unwrap().faults_dead_device, 2);
        // Clearing the trigger (replacement device) restores service.
        let fresh = FaultInjector::new(plan.without_ssd_death(), 1).with_death(None);
        let mut fresh = fresh;
        assert!(!fresh.ssd_read(Ns::ZERO, 3, 0.0));
        assert!(!fresh.ssd_program_refused(Ns::ZERO, 4));
    }

    #[test]
    fn health_monitor_walks_the_machine() {
        let mut m = HealthMonitor::new(HealthPolicy::standard());
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.note(true), None);
        // Three consecutive failures degrade.
        m.note(false);
        m.note(false);
        assert_eq!(
            m.note(false),
            Some((HealthState::Healthy, HealthState::Degraded))
        );
        // Recovery needs a clean streak with the EWMA drained.
        let mut recovered = None;
        for _ in 0..64 {
            if let Some(edge) = m.note(true) {
                recovered = Some(edge);
                break;
            }
        }
        assert_eq!(
            recovered,
            Some((HealthState::Degraded, HealthState::Healthy))
        );
        // Eight consecutive failures kill it outright.
        let mut edges = Vec::new();
        for _ in 0..8 {
            edges.extend(m.note(false));
        }
        assert_eq!(m.state(), HealthState::Failed);
        assert_eq!(edges.last().map(|&(_, to)| to), Some(HealthState::Failed));
        // Failed is sticky: outcomes are ignored until replacement.
        assert_eq!(m.note(true), None);
        assert_eq!(m.rebuild_complete(), None);
        assert_eq!(
            m.begin_rebuild(),
            Some((HealthState::Failed, HealthState::Rebuilding))
        );
        assert_eq!(
            m.rebuild_complete(),
            Some((HealthState::Rebuilding, HealthState::Healthy))
        );
    }

    /// The identity policy validates, never moves its monitor however long
    /// the failure streak, and splits across shards as nothing.
    #[test]
    fn inert_monitors_stay_healthy_through_any_failure_streak() {
        let inert = HealthPolicy::inert();
        inert.validate();
        HealthPolicy::standard().validate();
        let mut m = HealthMonitor::new(inert);
        for _ in 0..100_000 {
            assert_eq!(m.note(false), None);
        }
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(inert.shard_share(8), inert);
        let capped = |cap| HealthPolicy {
            staging_cap: cap,
            ..HealthPolicy::standard()
        };
        assert_eq!(capped(64).shard_share(8), capped(8));
        assert_eq!(capped(3).shard_share(8), capped(1), "floor 1");
    }

    #[test]
    fn rebuilding_replacement_can_fail_again() {
        let mut m = HealthMonitor::new(HealthPolicy::standard());
        for _ in 0..8 {
            m.note(false);
        }
        m.begin_rebuild().expect("failed -> rebuilding");
        for _ in 0..8 {
            m.note(false);
        }
        assert_eq!(m.state(), HealthState::Failed);
    }

    #[test]
    fn retry_helpers_match_the_classic_ladders() {
        // Read ladder: one retry, so the second attempt's success lands.
        let mut calls = 0;
        let r: Result<u32, ()> = read_with_retry(|| {
            calls += 1;
            if calls < 2 {
                Err(())
            } else {
                Ok(7)
            }
        });
        assert_eq!((r, calls), (Ok(7), 2));
        let mut calls = 0;
        let r: Result<u32, ()> = read_with_retry(|| {
            calls += 1;
            Err(())
        });
        assert_eq!((r, calls), (Err(()), 2));
        // Write ladder: four attempts total.
        let mut calls = 0;
        let r: Result<u32, ()> = write_with_retry(|| {
            calls += 1;
            if calls < 4 {
                Err(())
            } else {
                Ok(9)
            }
        });
        assert_eq!((r, calls), (Ok(9), 4));
        let mut calls = 0;
        let r: Result<u32, ()> = write_with_retry(|| {
            calls += 1;
            Err(())
        });
        assert_eq!((r, calls), (Err(()), 4));
    }

    #[test]
    fn report_lost_keeps_data_aligned() {
        let mut errors = Vec::new();
        let mut data = Vec::new();
        report_lost(
            &mut errors,
            &mut data,
            true,
            Lba::new(4),
            IoErrorKind::SsdMedia,
        );
        report_lost(
            &mut errors,
            &mut data,
            false,
            Lba::new(5),
            IoErrorKind::HddMedia,
        );
        assert_eq!(errors.len(), 2);
        assert_eq!(data.len(), 1, "timing-only runs push no placeholder");
    }
}
