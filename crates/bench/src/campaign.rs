//! The campaign rows `exhibit` prints ([`CAMPAIGNS`]), the one way a row
//! fails ([`verdict`]), and one cell of a robustness campaign
//! ([`crate::faults`], [`crate::chaos`]): a system under test with its
//! virtual clock, its CPU account, the reference [`VersionModel`] and the
//! running tallies, so a scenario reads as the traffic it drives and the
//! incidents it injects. Every read is checked against the model: a version
//! the system acknowledged, or a typed error — anything else is recorded as
//! a violation line, never a panic, so a campaign prints all of them before
//! it fails. Also here, once: the five architectures at the sizing both
//! robustness campaigns run them at.

use crate::ablations::Render;
use crate::harness::SystemKind;
use crate::{chaos, faults, scale, scenarios};
use icash_baselines::{DedupCache, LruCache, PureSsd, Raid0};
use icash_core::{Icash, IcashConfig, IcashConfigBuilder};
use icash_storage::block::{BlockBuf, Lba};
use icash_storage::cpu::CpuModel;
use icash_storage::fault::{fault_roll, FaultPlan};
use icash_storage::model::{Allow, VersionModel};
use icash_storage::request::{Completion, Request};
use icash_storage::system::{IoCtx, StorageSystem, ZeroSource};
use icash_storage::time::Ns;

/// Every campaign, by the name `exhibit` prints it under. Each row is
/// seeded and prints the same bytes at any `ICASH_THREADS`; `./ci.sh golden`
/// diffs each against its `ci/golden/*.txt`.
pub const CAMPAIGNS: &[(&str, Render)] = &[
    ("campaign_faults", faults::render),
    ("campaign_chaos", chaos::render),
    ("campaign_scale", scale::render),
    ("campaign_scale_queue16", scale::render_queue16),
    ("campaign_scenarios", scenarios::render),
];

/// A campaign row's outcome: with no violation, its report `doc` followed
/// by the `ok` trailer. Otherwise `doc` goes to stdout, every violation to
/// stderr under `tag`, and the process exits with status 1.
pub fn verdict(mut doc: String, tag: &str, violations: &[String], ok: &str) -> String {
    if violations.is_empty() {
        doc.push_str(ok);
        return doc;
    }
    print!("{doc}");
    for v in violations {
        eprintln!("{tag}: {v}");
    }
    eprintln!("{} violation(s)", violations.len());
    let _ = std::io::Write::flush(&mut std::io::stdout());
    std::process::exit(1);
}

/// Data-set / cache sizing shared by every campaign cell.
const DATA_BYTES: u64 = 8 << 20;
const SSD_BYTES: u64 = 1 << 20;
const RAM_BYTES: u64 = 256 << 10;

/// Seeded media errors at `rate` per device operation, on every device.
pub(crate) fn media_faults(seed: u64, rate: f64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .hdd_read_errors(rate)
        .hdd_write_errors(rate)
        .ssd_read_errors(rate)
}

/// The small I-CASH controller every campaign cell runs, at group-commit
/// depth `depth`; a scenario adds what it needs (a health policy) and builds.
pub(crate) fn icash_config(depth: u64) -> IcashConfigBuilder {
    IcashConfig::builder(SSD_BYTES, RAM_BYTES, DATA_BYTES)
        .scan_interval(50)
        .scan_window(64)
        .flush_interval(20)
        .log_blocks(4096)
        .group_commit_depth(depth)
}

/// An I-CASH controller under `plan` that also scrubs as it serves.
pub(crate) fn scrubbing_icash(cfg: IcashConfig, plan: FaultPlan) -> Icash {
    Icash::new(cfg).with_fault_plan(plan.scrub_every(97))
}

/// The `kind` architecture under `plan`; the I-CASH one is built from `icash`.
pub(crate) fn build_system(
    kind: SystemKind,
    plan: &FaultPlan,
    icash: IcashConfig,
) -> Box<dyn StorageSystem> {
    match kind {
        SystemKind::FusionIo => Box::new(PureSsd::new(DATA_BYTES).with_fault_plan(plan)),
        SystemKind::Raid0 => Box::new(Raid0::new(DATA_BYTES, 4).with_fault_plan(plan)),
        SystemKind::Dedup => Box::new(DedupCache::new(SSD_BYTES, DATA_BYTES).with_fault_plan(plan)),
        SystemKind::Lru => Box::new(LruCache::new(SSD_BYTES, DATA_BYTES).with_fault_plan(plan)),
        SystemKind::Icash => Box::new(scrubbing_icash(icash, plan.clone())),
    }
}

/// A campaign's content stamp: version `ver` of block `lba` shares a common
/// base (so I-CASH forms references and deltas) but carries a unique 8-byte
/// tag (so any cross-version or cross-block splice is detectable). Each
/// campaign has its own fill and tag salt — their pinned outputs differ.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp {
    /// The byte the shared base is filled with.
    pub fill: u8,
    /// Salt of the per-version tag draw.
    pub salt: u64,
}

impl Stamp {
    /// The content of version `ver` of block `lba`.
    pub fn content(self, lba: u64, ver: u32) -> BlockBuf {
        let mut v = vec![self.fill; 4096];
        let tag = fault_roll(lba, self.salt, ver as u64, 0);
        v[..8].copy_from_slice(&tag.to_le_bytes());
        v[100] = (lba % 251) as u8;
        v[2000] = (ver % 251) as u8;
        BlockBuf::from_vec(v)
    }
}

/// What one cell — or, merged, a whole campaign — observed.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Reads checked against the model.
    pub reads: u64,
    /// Of those, reads that reported a typed error instead of data.
    pub reported_errors: u64,
    /// Writes the system refused with a typed error.
    pub refused_writes: u64,
    /// One line per broken contract.
    pub violations: Vec<String>,
}

impl Tally {
    /// Folds another cell's observations into this one.
    pub fn merge(&mut self, other: Tally) {
        self.reads += other.reads;
        self.reported_errors += other.reported_errors;
        self.refused_writes += other.refused_writes;
        self.violations.extend(other.violations);
    }
}

/// One campaign cell; see the module docs.
pub(crate) struct Cell<S> {
    name: String,
    sys: S,
    cpu: CpuModel,
    now: Ns,
    model: VersionModel,
    stamp: Stamp,
    space: u64,
    /// What the cell has observed so far.
    pub tally: Tally,
}

impl<S: StorageSystem> Cell<S> {
    /// A cell named `name` (the prefix of its violation lines) driving `sys`
    /// from virtual time zero over the blocks `0..space`.
    pub fn new(name: impl Into<String>, sys: S, stamp: Stamp, space: u64) -> Self {
        Cell {
            name: name.into(),
            sys,
            cpu: CpuModel::xeon(),
            now: Ns::ZERO,
            model: VersionModel::new(),
            stamp,
            space,
            tally: Tally::default(),
        }
    }

    /// The system under test.
    pub fn sys(&self) -> &S {
        &self.sys
    }

    /// Records a broken contract as `"{name}: {what}"`.
    pub fn violation(&mut self, what: impl std::fmt::Display) {
        self.tally.violations.push(format!("{}: {what}", self.name));
    }

    /// Anything else done to the system on the cell's clock (a flush, a
    /// barrier, a device replacement): `f` gets the system, an I/O context
    /// and the current instant, which it advances.
    pub fn io<R>(&mut self, f: impl FnOnce(&mut S, &mut IoCtx<'_>, &mut Ns) -> R) -> R {
        let mut ctx = IoCtx::verifying(&ZeroSource, &mut self.cpu);
        f(&mut self.sys, &mut ctx, &mut self.now)
    }

    /// A full barrier (`sync`) on the cell's clock. Once it returns, the
    /// model holds each written block to its newest version: no crash may
    /// roll a block back past it.
    pub fn sync(&mut self) {
        self.io(|sys, ctx, now| *now = sys.sync(*now, ctx));
        self.model.barrier();
    }

    /// Swaps the system for what `f` makes of it (a crash and recovery);
    /// clock, model and tallies carry over.
    pub fn with_sys(self, f: impl FnOnce(S) -> S) -> Self {
        Cell {
            sys: f(self.sys),
            ..self
        }
    }

    /// Ends the cell: the system is dropped (releasing any trace sink it
    /// holds) and the tallies returned.
    pub fn finish(self) -> Tally {
        self.tally
    }

    /// Issues the request `req` makes of the current instant and moves the
    /// clock to its completion.
    fn submit(&mut self, req: impl FnOnce(Ns) -> Request) -> Completion {
        self.io(|sys, ctx, now| {
            let done = sys.submit(&req(*now), ctx);
            *now = done.finished;
            done
        })
    }

    /// Writes the next version of `lba`. The model advances only if the
    /// write was acknowledged; a refusal is tallied and left to the caller
    /// to judge from the returned completion.
    pub fn write(&mut self, lba: u64) -> Completion {
        let content = self.stamp.content(lba, self.model.attempt(lba));
        let done = self.submit(|now| Request::write(Lba::new(lba), now, content.clone()));
        if done.failed(Lba::new(lba)) {
            self.tally.refused_writes += 1;
        } else {
            self.model.ack(lba, content);
        }
        done
    }

    /// Reads `lba` and checks what came back: a typed error is tallied and
    /// accepted (the contract is no *silent* corruption), data must be one
    /// of the versions `allow` admits.
    pub fn read(&mut self, lba: u64, allow: Allow) {
        let done = self.submit(|now| Request::read(Lba::new(lba), now));
        self.tally.reads += 1;
        if done.failed(Lba::new(lba)) {
            self.tally.reported_errors += 1;
        } else if !self.model.allows(lba, &done.data[0], allow) {
            let held = self.model.allowed(lba, allow).len();
            self.violation(format_args!(
                "lba {lba} returned bytes matching none of the {held} acceptable versions"
            ));
        }
    }

    /// Mixed-traffic op number `op` of the stream `(seed, salt)`: a seeded
    /// block, written three times in five and otherwise read under `allow`.
    pub fn mixed(&mut self, seed: u64, salt: u64, op: u64, allow: Allow) {
        let roll = fault_roll(seed, salt, op, 0);
        let lba = roll % self.space;
        if roll % 5 < 3 {
            self.write(lba);
        } else {
            self.read(lba, allow);
        }
    }

    /// Reads back every block with an acknowledged write, in address order;
    /// returns how many reads that was and how many of them reported a
    /// typed error.
    pub fn sweep(&mut self, allow: Allow) -> (u64, u64) {
        let (reads, errors) = (self.tally.reads, self.tally.reported_errors);
        let written: Vec<u64> = self.model.written().collect();
        for lba in written {
            self.read(lba, allow);
        }
        (
            self.tally.reads - reads,
            self.tally.reported_errors - errors,
        )
    }

    /// Service after an incident is over: `ops` fresh writes drawn from the
    /// stream `(seed, salt)` must each be acknowledged and read back exactly.
    pub fn fresh_service(&mut self, seed: u64, salt: u64, ops: u64) {
        for op in 0..ops {
            let lba = fault_roll(seed, salt, op, 0) % self.space;
            if self.write(lba).failed(Lba::new(lba)) {
                self.violation(format_args!("post-incident write of lba {lba} refused"));
            } else {
                self.read(lba, Allow::Latest);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icash_storage::system::SystemReport;
    use std::collections::BTreeMap;

    /// A fixed-latency block store that answers its `bad_read`-th read with
    /// bytes nobody wrote.
    struct Fake {
        blocks: BTreeMap<Lba, BlockBuf>,
        reads: u64,
        bad_read: u64,
    }

    impl StorageSystem for Fake {
        fn name(&self) -> &str {
            "Fake"
        }

        fn submit(&mut self, req: &Request, _ctx: &mut IoCtx<'_>) -> Completion {
            let done = req.at + Ns::from_us(10);
            if let Some(content) = req.payload.first() {
                self.blocks.insert(req.lba, content.clone());
                return Completion::at(done);
            }
            self.reads += 1;
            let data = if self.reads == self.bad_read {
                BlockBuf::filled(0xEE)
            } else {
                self.blocks
                    .get(&req.lba)
                    .cloned()
                    .unwrap_or_else(BlockBuf::zeroed)
            };
            Completion::with_data(done, vec![data])
        }

        fn report(&self, _elapsed: Ns) -> SystemReport {
            SystemReport::default()
        }
    }

    #[test]
    fn one_wrong_read_is_exactly_one_violation_line() {
        let fake = Fake {
            blocks: BTreeMap::new(),
            reads: 0,
            bad_read: 3,
        };
        let stamp = Stamp {
            fill: 0x11,
            salt: 0x22,
        };
        let mut cell = Cell::new("fake", fake, stamp, 8);
        for lba in 0..4 {
            assert!(!cell.write(lba).failed(Lba::new(lba)));
            cell.write(lba);
        }
        assert_eq!(cell.sweep(Allow::Held), (4, 0));
        assert_eq!(cell.sweep(Allow::Latest), (4, 0));
        assert_eq!(*cell.model.latest(2), stamp.content(2, 2));
        cell.read(7, Allow::Latest); // never written: zeroes
        let ticks = cell.io(|_, _, now| now.as_ns());
        assert_eq!(ticks, 17 * 10_000, "the clock follows every completion");
        let tally = cell.finish();
        assert_eq!((tally.reads, tally.reported_errors), (9, 0));
        assert_eq!(
            tally.violations,
            ["fake: lba 2 returned bytes matching none of the 3 acceptable versions"]
        );
    }
}
