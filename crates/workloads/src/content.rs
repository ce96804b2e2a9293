//! Content-locality model: the data the workloads read and write.
//!
//! Evaluating I-CASH "is unique in the sense that I/O address traces are
//! not sufficient because deltas are content dependent" (paper §4.4). This
//! model generates block *content*, deterministically, with the two
//! properties the paper's gains rest on:
//!
//! * **Content locality within blocks**: version v is version 0 with v's one
//!   clustered mutation on it, ≈ 2 × `mutation_bytes` from v − 1 (paper §2.2: 5–20 % of bits).
//! * **Content locality across blocks**: blocks come in *families* sharing
//!   a common base (database pages of one table, blocks of cloned VM
//!   images), so one family member can reference-encode the others.
//!   Families are derived from the VM-stripped block offset, which is
//!   exactly why cloned VM images (same offsets, different VM tags) share
//!   content.
//!
//! A configurable fraction of blocks is *unique* (incompressible), modeling
//! packed/encrypted/multimedia data.

use icash_storage::block::{BlockBuf, Lba, BLOCK_SIZE};
use icash_storage::hash::AddrMap;
use icash_storage::system::ContentSource;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;

/// Static description of a content profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContentProfile {
    /// Blocks per similarity family.
    pub family_blocks: u64,
    /// Per-mille of blocks with unique (incompressible) content.
    pub unique_permille: u32,
    /// Bytes that distinguish one family member from another.
    pub personal_bytes: usize,
    /// Bytes one version's mutation overwrites on version 0.
    pub mutation_bytes: usize,
    /// Clusters the mutated bytes are grouped into.
    pub clusters: usize,
}

impl ContentProfile {
    /// Database-page-like content: tight families, small clustered updates.
    pub fn database() -> Self {
        ContentProfile {
            family_blocks: 64,
            unique_permille: 50,
            personal_bytes: 96,
            mutation_bytes: 300,
            clusters: 4,
        }
    }

    /// File-server content: looser families, bigger rewrites.
    pub fn file_server() -> Self {
        ContentProfile {
            family_blocks: 32,
            unique_permille: 150,
            personal_bytes: 128,
            mutation_bytes: 700,
            clusters: 6,
        }
    }

    /// Web/access-log text (the Hadoop WordCount input): highly repetitive
    /// lines, so blocks across big regions are near-identical.
    pub fn log_text() -> Self {
        ContentProfile {
            family_blocks: 512,
            unique_permille: 40,
            personal_bytes: 120,
            mutation_bytes: 400,
            clusters: 5,
        }
    }

    /// Mail-store content: replicated message bodies give large similarity
    /// families; a quarter of blocks (compressed attachments) stay unique.
    pub fn mail_store() -> Self {
        ContentProfile {
            family_blocks: 64,
            unique_permille: 250,
            personal_bytes: 200,
            mutation_bytes: 600,
            clusters: 6,
        }
    }

    /// Web/e-commerce content: large read-mostly families.
    pub fn web_content() -> Self {
        ContentProfile {
            family_blocks: 128,
            unique_permille: 80,
            personal_bytes: 64,
            mutation_bytes: 250,
            clusters: 3,
        }
    }

    /// Cloned VM images: very large families, tiny per-clone deltas.
    pub fn vm_images() -> Self {
        ContentProfile {
            family_blocks: 256,
            unique_permille: 30,
            personal_bytes: 48,
            mutation_bytes: 200,
            clusters: 3,
        }
    }

    /// Fully unique content (the adversarial case for I-CASH).
    pub fn incompressible() -> Self {
        ContentProfile {
            family_blocks: 1,
            unique_permille: 1_000,
            personal_bytes: 0,
            mutation_bytes: BLOCK_SIZE,
            clusters: 1,
        }
    }
}

/// The generator: one xorshift64 step. Linear over GF(2) — each output bit
/// is an XOR of input bits — which is what [`Jump`] rests on.
#[inline]
const fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Cheap stateless mixer for deriving per-block seeds.
#[inline]
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 31;
    x.wrapping_mul(0x94d0_49bb_1331_11eb) | 1
}

/// Independent chains one generator chain is cut into. A draw is a 6-deep
/// dependency chain, so one chain runs a draw at a time; eight that do not
/// depend on each other run as vectors — provided the lanes are stepped in
/// a loop of their own, apart from what is done with the draws (stepping
/// and storing lane by lane, the compiler keeps them scalar).
const LANES: usize = 8;

/// `steps` steps of [`xorshift`] as one map: the state `steps` draws ahead,
/// without making the draws.
///
/// A step is linear over GF(2), so `steps` of them are too, and a linear
/// map is known from what it does to the 64 one-bit states. Held as one
/// 16-entry table per nibble of the state (2 KB): the image of a state is
/// the XOR of its sixteen nibbles' images.
#[derive(Clone)]
struct Jump {
    nibbles: [[u64; 16]; 16],
}

impl Jump {
    const fn new(steps: usize) -> Self {
        let mut nibbles = [[0u64; 16]; 16];
        let mut bit = 0;
        while bit < 64 {
            let mut image = 1u64 << bit;
            let mut i = 0;
            while i < steps {
                xorshift(&mut image);
                i += 1;
            }
            let mut v = 0;
            while v < 16 {
                if v & (1 << (bit % 4)) != 0 {
                    nibbles[bit / 4][v] ^= image;
                }
                v += 1;
            }
            bit += 1;
        }
        Jump { nibbles }
    }

    #[inline]
    fn apply(&self, state: u64) -> u64 {
        let mut image = 0;
        for (n, table) in self.nibbles.iter().enumerate() {
            image ^= table[(state >> (4 * n)) as usize & 15];
        }
        image
    }

    /// Where each lane starts when every lane makes `steps` draws: lane `j`
    /// holds the serial chain's state after `j * steps` of them.
    #[inline]
    fn lanes(&self, seed: u64) -> [u64; LANES] {
        let mut states = [seed; LANES];
        for j in 1..LANES {
            states[j] = self.apply(states[j - 1]);
        }
        states
    }
}

impl fmt::Debug for Jump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Jump") // not 2 KB of tables
    }
}

/// A block is 512 draws: 64 from each lane.
static BLOCK_JUMP: Jump = Jump::new(BLOCK_SIZE / 8 / LANES);

/// Fills the block `buf` with the generator's output from state `st`: the
/// bytes of 512 serial draws, each lane making the 64 draws of its own
/// eighth of the block.
fn fill_random(buf: &mut [u8], st: u64) {
    const LANE_BYTES: usize = BLOCK_SIZE / LANES;
    assert_eq!(buf.len(), BLOCK_SIZE, "the lanes are cut for one block");
    let mut states = BLOCK_JUMP.lanes(st);
    for at in (0..LANE_BYTES).step_by(8) {
        for state in &mut states {
            xorshift(state);
        }
        for (j, state) in states.iter().enumerate() {
            buf[j * LANE_BYTES + at..][..8].copy_from_slice(&state.to_le_bytes());
        }
    }
}

/// Scratch for [`Splat::apply`]: room for the larger of a model's splats,
/// allocated with the model so that generating a block allocates the block.
#[derive(Clone)]
struct Draws(Vec<u16>);

impl fmt::Debug for Draws {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Draws({})", self.0.len())
    }
}

/// Overwrites `total` bytes in `clusters` clusters at seeded positions: per
/// cluster, one draw for where it starts and one per byte, later clusters
/// winning where they overlap.
///
/// The draws are one serial chain, the positions they land on are not known
/// until they are made, and clusters may overlap — so the lanes make the
/// draws into a scratch, each its own contiguous share of the chain, and the
/// clusters are then copied out of it in order.
#[derive(Debug, Clone)]
struct Splat {
    /// Clusters written; none for a splat of nothing.
    clusters: usize,
    per_cluster: usize,
    /// Draws per lane: the chain's `clusters * (per_cluster + 1)`, shared out.
    stride: usize,
    /// `stride` draws ahead.
    jump: Jump,
}

impl Splat {
    fn new(total: usize, clusters: usize) -> Self {
        let clusters = if total == 0 { 0 } else { clusters };
        let per_cluster = (total / clusters.max(1)).max(1);
        let stride = (clusters * (per_cluster + 1)).div_ceil(LANES);
        Splat {
            clusters,
            per_cluster,
            stride,
            jump: Jump::new(stride),
        }
    }

    /// Draws the lanes make between them: the scratch [`apply`](Self::apply)
    /// needs.
    fn draws(&self) -> usize {
        LANES * self.stride
    }

    /// Splats over the block `buf` from `seed`. `draws` is scratch: what it
    /// holds on entry is ignored. A draw is kept as its low 16 bits — a
    /// cluster start needs 12 ([`BLOCK_SIZE`] positions), a byte 8.
    fn apply(&self, buf: &mut [u8], seed: u64, draws: &mut Draws) {
        assert_eq!(buf.len(), BLOCK_SIZE);
        let stride = self.stride;
        let draws = &mut draws.0[..self.draws()];
        let mut states = self.jump.lanes(seed);
        for r in 0..stride {
            for state in &mut states {
                xorshift(state);
            }
            for (j, state) in states.iter().enumerate() {
                draws[j * stride + r] = *state as u16;
            }
        }
        let mut draws = &draws[..];
        for _ in 0..self.clusters {
            let (cluster, rest) = draws.split_at(1 + self.per_cluster);
            draws = rest;
            let mut pos = cluster[0] as usize % BLOCK_SIZE;
            let mut bytes = &cluster[1..];
            // A cluster that runs off the block's end wraps to its start.
            while !bytes.is_empty() {
                let (now, wrapped) = bytes.split_at(bytes.len().min(BLOCK_SIZE - pos));
                for (b, &draw) in buf[pos..pos + now.len()].iter_mut().zip(now) {
                    *b = draw as u8;
                }
                bytes = wrapped;
                pos = 0;
            }
        }
    }
}

/// Family bases a model has generated, direct-mapped by family id.
///
/// Holds at most [`BaseMemo::SLOTS`] bases (256 KiB), allocated on first
/// use. A slot holds exactly what generating its family's base would
/// produce, so a hit, a miss and a collision all return the same bytes: the
/// memo decides what a block costs, never what it contains.
#[derive(Clone, Default)]
struct BaseMemo {
    /// The family whose base each slot holds; `VACANT` for none.
    families: Vec<u64>,
    /// `SLOTS` bases, back to back.
    bases: Vec<u8>,
}

impl BaseMemo {
    /// Requests cluster in a few families at a time (a span, a hot set):
    /// on the repo benchmark's five workloads 64 slots miss on 0.1–20 % of
    /// shared blocks and 256 slots on 0.1–15 %, for four times the memory.
    const SLOTS: usize = 64;
    /// No family: ids are at most 56 bits (the VM-stripped offset).
    const VACANT: u64 = u64::MAX;

    /// The base block of `family` under `seed`.
    fn base(&mut self, seed: u64, family: u64) -> &[u8] {
        if self.families.is_empty() {
            self.families = vec![Self::VACANT; Self::SLOTS];
            self.bases = vec![0; Self::SLOTS * BLOCK_SIZE];
        }
        let slot = (family % Self::SLOTS as u64) as usize;
        let base = &mut self.bases[slot * BLOCK_SIZE..][..BLOCK_SIZE];
        if self.families[slot] != family {
            fill_random(base, mix(seed, family));
            self.families[slot] = family;
        }
        base
    }
}

impl fmt::Debug for BaseMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let resident = self.families.iter().filter(|&&f| f != Self::VACANT);
        write!(f, "BaseMemo({} of {} slots)", resident.count(), Self::SLOTS)
    }
}

/// Deterministic content generator + per-block version tracker.
///
/// # Examples
///
/// ```
/// use icash_storage::block::Lba;
/// use icash_workloads::content::{ContentModel, ContentProfile};
///
/// let mut model = ContentModel::new(7, ContentProfile::database());
/// let v0 = model.current_content(Lba::new(10));
/// let v1 = model.write_payload(Lba::new(10));
/// assert_ne!(v0, v1);
/// // A write changes only a small part of the block.
/// let changed = v0
///     .as_slice()
///     .iter()
///     .zip(v1.as_slice())
///     .filter(|(a, b)| a != b)
///     .count();
/// assert!(changed < 1024);
/// ```
#[derive(Debug, Clone)]
pub struct ContentModel {
    seed: u64,
    profile: ContentProfile,
    versions: AddrMap<Lba, u32>,
    /// What makes a block its family's base no longer: the profile's
    /// `personal_bytes`, and a version's `mutation_bytes`.
    personal: Splat,
    mutation: Splat,
    /// Behind a `RefCell` because generating content is `&self`: a cache of
    /// what `(seed, family)` already determine, not state.
    bases: RefCell<BaseMemo>,
    draws: RefCell<Draws>,
}

impl ContentModel {
    /// Creates a model from a seed and a content profile.
    pub fn new(seed: u64, profile: ContentProfile) -> Self {
        let clusters = profile.clusters.max(1);
        let personal = Splat::new(profile.personal_bytes, clusters);
        let mutation = Splat::new(profile.mutation_bytes, clusters);
        let draws = Draws(vec![0; personal.draws().max(mutation.draws())]);
        ContentModel {
            seed,
            profile,
            versions: AddrMap::default(),
            personal,
            mutation,
            bases: RefCell::default(),
            draws: RefCell::new(draws),
        }
    }

    /// The profile in force.
    pub fn profile(&self) -> &ContentProfile {
        &self.profile
    }

    /// The similarity family of `lba` — derived from the VM-stripped offset
    /// so cloned VM images share families.
    pub fn family_of(&self, lba: Lba) -> u64 {
        lba.offset() / self.profile.family_blocks.max(1)
    }

    /// Whether `lba` carries unique (incompressible) content.
    pub fn is_unique(&self, lba: Lba) -> bool {
        (mix(self.seed ^ 0xD00D, lba.offset()) % 1_000) < self.profile.unique_permille as u64
    }

    /// Content of `lba` at version `version`.
    ///
    /// A shared block is its family's base with the block's personalisation
    /// and the version's mutation splatted over it. The base is a pure
    /// function of `(seed, family)` and 512 generator draws, so it comes
    /// from the memo: the block is one copy of it, edited in place. A unique
    /// block has no base and is generated whole.
    pub fn content_at(&self, lba: Lba, version: u32) -> BlockBuf {
        if self.is_unique(lba) {
            let st = mix(self.seed ^ 0xFACE, lba.raw() ^ ((version as u64) << 40));
            return BlockBuf::edit_copy(&[0; BLOCK_SIZE], |buf| fill_random(buf, st));
        }
        let mut bases = self.bases.borrow_mut();
        let draws = &mut self.draws.borrow_mut();
        BlockBuf::edit_copy(bases.base(self.seed, self.family_of(lba)), |buf| {
            // Personalization: what makes this block this block.
            let personal = mix(self.seed ^ 0xBEEF, lba.raw());
            self.personal.apply(buf, personal, draws);
            // Version mutations: what this write changed.
            if version > 0 {
                let mutation = mix(self.seed ^ 0xCAFE, lba.raw() ^ ((version as u64) << 32));
                self.mutation.apply(buf, mutation, draws);
            }
        })
    }

    /// The block's current version (0 = never written).
    pub fn version_of(&self, lba: Lba) -> u32 {
        self.versions.get(&lba).copied().unwrap_or(0)
    }

    /// Content of `lba` at its current version.
    pub fn current_content(&self, lba: Lba) -> BlockBuf {
        self.content_at(lba, self.version_of(lba))
    }

    /// Advances `lba` to its next version and returns the new content — the
    /// payload of a write request.
    pub fn write_payload(&mut self, lba: Lba) -> BlockBuf {
        let v = self.versions.entry(lba).or_insert(0);
        *v += 1;
        let version = *v;
        self.content_at(lba, version)
    }
}

impl ContentSource for ContentModel {
    fn initial_content(&self, lba: Lba) -> BlockBuf {
        self.content_at(lba, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ContentModel {
        ContentModel::new(42, ContentProfile::database())
    }

    fn diff_bytes(a: &BlockBuf, b: &BlockBuf) -> usize {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .filter(|(x, y)| x != y)
            .count()
    }

    /// The generator as one chain, a draw at a time: the definition the
    /// lanes of [`fill_random`] must reproduce.
    fn fill_random_serial(buf: &mut [u8], mut st: u64) {
        for chunk in buf.chunks_mut(8) {
            let v = xorshift(&mut st).to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&v[..n]);
        }
    }

    /// `splat` as one chain, each draw written where it lands as it is
    /// made: the definition [`Splat::apply`] must reproduce.
    fn splat_serial(buf: &mut [u8], seed: u64, total: usize, clusters: usize) {
        if total == 0 {
            return;
        }
        let mut st = seed;
        let per_cluster = (total / clusters).max(1);
        for _ in 0..clusters {
            let start = (xorshift(&mut st) as usize) % BLOCK_SIZE;
            for i in 0..per_cluster {
                let pos = (start + i) % BLOCK_SIZE;
                buf[pos] = (xorshift(&mut st) & 0xff) as u8;
            }
        }
    }

    /// `content_at` as it was before bases were memoised, blocks built in
    /// place and the generator cut into lanes: the whole block generated
    /// serially into a `Vec`, base included. Kept as the oracle for the
    /// bytes.
    fn content_at_from_scratch(m: &ContentModel, lba: Lba, version: u32) -> BlockBuf {
        let mut buf = vec![0u8; BLOCK_SIZE];
        if m.is_unique(lba) {
            fill_random_serial(
                &mut buf,
                mix(m.seed ^ 0xFACE, lba.raw() ^ ((version as u64) << 40)),
            );
            return BlockBuf::from_vec(buf);
        }
        fill_random_serial(&mut buf, mix(m.seed, m.family_of(lba)));
        let clusters = m.profile.clusters.max(1);
        let personal = mix(m.seed ^ 0xBEEF, lba.raw());
        splat_serial(&mut buf, personal, m.profile.personal_bytes, clusters);
        if version > 0 {
            let mutation = mix(m.seed ^ 0xCAFE, lba.raw() ^ ((version as u64) << 32));
            splat_serial(&mut buf, mutation, m.profile.mutation_bytes, clusters);
        }
        BlockBuf::from_vec(buf)
    }

    proptest::proptest! {
        /// Any splat the lanes make is the serial chain's: clusters that
        /// overlap, that wrap the block's end or (`per_cluster` ≥ 4096, the
        /// `incompressible` mutation) lap it, more clusters than lanes, and
        /// `total < clusters`, where every cluster is one byte.
        #[test]
        fn lanes_splat_is_the_serial_splat(
            seed in proptest::strategy::any::<u64>(),
            total in proptest::prop_oneof![0usize..40, 0usize..2 * BLOCK_SIZE + 1],
            clusters in 1usize..21,
            fill in proptest::strategy::any::<u8>(),
        ) {
            let mut serial = vec![fill; BLOCK_SIZE];
            let mut lanes = serial.clone();
            splat_serial(&mut serial, seed, total, clusters);
            // Scratch left over from a larger splat must not show.
            let mut draws = Draws(vec![0xFFFF; 3 * BLOCK_SIZE]);
            Splat::new(total, clusters).apply(&mut lanes, seed, &mut draws);
            proptest::prop_assert_eq!(lanes, serial);
        }

        /// A jump is the steps it stands for, and linear: the two facts
        /// that make a lane's bytes the serial chain's.
        #[test]
        fn lanes_jump_is_that_many_serial_steps(
            a in proptest::strategy::any::<u64>(),
            b in proptest::strategy::any::<u64>(),
            steps in 0usize..2000,
        ) {
            let jump = Jump::new(steps);
            let mut serial = a;
            for _ in 0..steps {
                xorshift(&mut serial);
            }
            proptest::prop_assert_eq!(jump.apply(a), serial);
            proptest::prop_assert_eq!(jump.apply(a ^ b), jump.apply(a) ^ jump.apply(b));
        }

        #[test]
        fn lanes_fill_random_is_the_serial_fill(seed in proptest::strategy::any::<u64>()) {
            let mut serial = vec![0u8; BLOCK_SIZE];
            let mut lanes = vec![0xAAu8; BLOCK_SIZE];
            fill_random_serial(&mut serial, seed);
            fill_random(&mut lanes, seed);
            proptest::prop_assert_eq!(lanes, serial);
        }

        /// One model, many blocks: neighbours that share a memoised base,
        /// far blocks that evict it, VM-tagged clones and unique blocks all
        /// hold the bytes generating them from scratch gives.
        #[test]
        fn memoised_content_equals_content_from_scratch(
            seed in proptest::strategy::any::<u64>(),
            probes in proptest::collection::vec(
                (0u64..40, 0u64..3, 0u8..3, 0u32..9), 1..40),
        ) {
            for profile in [ContentProfile::database(), ContentProfile::mail_store()] {
                let m = ContentModel::new(seed, profile);
                for &(near, far, vm, version) in &probes {
                    // `far` strides land in the same memo slot.
                    let offset = near + far * m.profile.family_blocks * BaseMemo::SLOTS as u64;
                    let lba = Lba::new(offset).with_vm(vm);
                    proptest::prop_assert_eq!(
                        m.content_at(lba, version),
                        content_at_from_scratch(&m, lba, version)
                    );
                }
            }
        }
    }

    /// Generator and checksum pinned together: the `crc32` an SSD slot
    /// holding each of these blocks carries. Recorded under the serial
    /// generator and the slice-by-8 `Crc32`.
    #[test]
    fn block_checksums_are_pinned() {
        use icash_storage::fault::crc32;
        let m = ContentModel::new(0xC0FFEE, ContentProfile::file_server());
        let shared = (0..100).map(Lba::new).find(|&l| !m.is_unique(l));
        let unique = (0..100).map(Lba::new).find(|&l| m.is_unique(l));
        let (shared, unique) = (shared.expect("shared"), unique.expect("unique"));
        assert_eq!((shared.raw(), unique.raw()), (0, 3));
        assert_eq!(crc32(m.content_at(shared, 0).as_slice()), 0x17E6_E0F8);
        assert_eq!(crc32(m.content_at(shared, 1).as_slice()), 0xFAA3_F511);
        assert_eq!(crc32(m.content_at(unique, 0).as_slice()), 0x2AED_73FF);
    }

    #[test]
    fn the_memo_is_bounded_and_debug_is_short() {
        let m = model();
        for family in 0..4 * BaseMemo::SLOTS as u64 {
            m.content_at(Lba::new(family * m.profile.family_blocks), 0);
        }
        let memo = m.bases.borrow();
        assert_eq!(memo.bases.len(), BaseMemo::SLOTS * BLOCK_SIZE);
        assert!(memo.bases.len() <= 1 << 20);
        assert!(format!("{m:?}").len() < 600, "no block bytes in Debug");
    }

    #[test]
    fn generation_is_deterministic() {
        let m1 = model();
        let m2 = model();
        for lba in [0u64, 5, 1000] {
            assert_eq!(
                m1.content_at(Lba::new(lba), 3),
                m2.content_at(Lba::new(lba), 3)
            );
        }
    }

    #[test]
    fn family_members_are_similar_strangers_are_not() {
        let m = model();
        // Find two non-unique blocks of one family and one from far away.
        let base = (0..200u64)
            .map(Lba::new)
            .filter(|&l| !m.is_unique(l))
            .collect::<Vec<_>>();
        let a = base[0];
        let b = base
            .iter()
            .copied()
            .find(|&l| l != a && m.family_of(l) == m.family_of(a))
            .expect("family sibling");
        let far = base
            .iter()
            .copied()
            .find(|&l| m.family_of(l) != m.family_of(a))
            .expect("stranger");
        let (ca, cb, cf) = (m.content_at(a, 0), m.content_at(b, 0), m.content_at(far, 0));
        assert!(
            diff_bytes(&ca, &cb) < 400,
            "siblings differ by {} bytes",
            diff_bytes(&ca, &cb)
        );
        assert!(
            diff_bytes(&ca, &cf) > 3000,
            "strangers differ by {} bytes",
            diff_bytes(&ca, &cf)
        );
    }

    #[test]
    fn writes_change_a_bounded_slice_of_the_block() {
        let mut m = model();
        let lba = (0..100u64)
            .map(Lba::new)
            .find(|&l| !m.is_unique(l))
            .expect("similar block");
        let v0 = m.current_content(lba);
        let v1 = m.write_payload(lba);
        let d = diff_bytes(&v0, &v1);
        assert!(d > 0, "writes must change something");
        assert!(d <= 2 * 300 + 16, "changed {d} bytes");
    }

    #[test]
    fn vm_clones_share_content() {
        let m = ContentModel::new(9, ContentProfile::vm_images());
        let native = Lba::new(500);
        let clone = Lba::new(500).with_vm(3);
        if !m.is_unique(native) {
            let d = diff_bytes(&m.content_at(native, 0), &m.content_at(clone, 0));
            assert!(d < 200, "clone differs by {d} bytes");
        }
        assert_eq!(m.family_of(native), m.family_of(clone));
    }

    #[test]
    fn unique_blocks_are_incompressible() {
        let m = model();
        let unique = (0..2000u64)
            .map(Lba::new)
            .find(|&l| m.is_unique(l))
            .expect("some unique block");
        let v0 = m.content_at(unique, 0);
        let v1 = m.content_at(unique, 1);
        assert!(diff_bytes(&v0, &v1) > 3500, "unique rewrites are total");
    }

    #[test]
    fn versions_advance_per_block() {
        let mut m = model();
        assert_eq!(m.version_of(Lba::new(1)), 0);
        m.write_payload(Lba::new(1));
        m.write_payload(Lba::new(1));
        assert_eq!(m.version_of(Lba::new(1)), 2);
        assert_eq!(m.version_of(Lba::new(2)), 0);
        // current_content reflects the version.
        assert_eq!(m.current_content(Lba::new(1)), m.content_at(Lba::new(1), 2));
    }

    #[test]
    fn initial_content_is_version_zero() {
        let mut m = model();
        let lba = Lba::new(77);
        let initial = ContentSource::initial_content(&m, lba);
        assert_eq!(initial, m.content_at(lba, 0));
        m.write_payload(lba);
        // The backing image never changes.
        assert_eq!(ContentSource::initial_content(&m, lba), initial);
    }
}
