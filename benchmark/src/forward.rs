//! A forwarding [`StorageSystem`] that marks where set-up ends.
//!
//! `run_benchmark` calls `preload` and then replays, with no seam between
//! the two. The benchmark needs that seam — `preload` is set-up, the replay
//! is the number users feel — so it wraps the system under test in
//! [`Forward`], which does nothing but stamp an [`Instant`] when `preload`
//! returns. Every other method, including the overridden defaults, goes
//! straight to the inner system.

use icash_storage::pipeline::Ticket;
use icash_storage::request::{Completion, Request};
use icash_storage::system::{IoCtx, StorageSystem, SystemReport};
use icash_storage::time::Ns;
use icash_storage::trace::Tracer;
use std::time::Instant;

/// See the module docs.
#[derive(Debug)]
pub struct Forward<S> {
    /// The system under test.
    pub inner: S,
    /// When the last `preload` returned.
    pub preload_done: Option<Instant>,
}

impl<S> Forward<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Forward {
            inner,
            preload_done: None,
        }
    }
}

impl<S: StorageSystem> StorageSystem for Forward<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn submit(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Completion {
        self.inner.submit(req, ctx)
    }

    fn flush(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        self.inner.flush(now, ctx)
    }

    fn write_ticket(&self) -> Ticket {
        self.inner.write_ticket()
    }

    fn flushed_ticket(&self) -> Ticket {
        self.inner.flushed_ticket()
    }

    fn await_flush(&mut self, ticket: Ticket, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        self.inner.await_flush(ticket, now, ctx)
    }

    fn sync(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        self.inner.sync(now, ctx)
    }

    fn preload(&mut self, universe: &[(u8, u64)], ctx: &mut IoCtx<'_>) {
        self.inner.preload(universe, ctx);
        self.preload_done = Some(Instant::now());
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer)
    }

    fn report(&self, elapsed: Ns) -> SystemReport {
        self.inner.report(elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icash_storage::cpu::CpuModel;
    use icash_storage::system::ZeroSource;

    /// Logs which trait method was reached. Every method is overridden and
    /// returns a value the defaults never would, so a `Forward` that fell
    /// back to a trait default (instead of forwarding) shows up twice: in
    /// the log and in the return value.
    #[derive(Default)]
    struct Spy {
        calls: std::sync::Mutex<Vec<&'static str>>,
    }

    impl Spy {
        fn log(&self, what: &'static str) {
            self.calls.lock().expect("spy log").push(what);
        }
    }

    impl StorageSystem for Spy {
        fn name(&self) -> &str {
            self.log("name");
            "Spy"
        }
        fn submit(&mut self, req: &Request, _ctx: &mut IoCtx<'_>) -> Completion {
            self.log("submit");
            Completion::at(req.at + Ns::from_us(3))
        }
        fn flush(&mut self, now: Ns, _ctx: &mut IoCtx<'_>) -> Ns {
            self.log("flush");
            now + Ns::from_us(5)
        }
        fn write_ticket(&self) -> Ticket {
            self.log("write_ticket");
            Ticket::from_u64(11)
        }
        fn flushed_ticket(&self) -> Ticket {
            self.log("flushed_ticket");
            Ticket::from_u64(7)
        }
        fn await_flush(&mut self, _ticket: Ticket, now: Ns, _ctx: &mut IoCtx<'_>) -> Ns {
            self.log("await_flush");
            now + Ns::from_us(13)
        }
        fn sync(&mut self, now: Ns, _ctx: &mut IoCtx<'_>) -> Ns {
            self.log("sync");
            now + Ns::from_us(17)
        }
        fn preload(&mut self, _universe: &[(u8, u64)], _ctx: &mut IoCtx<'_>) {
            self.log("preload");
        }
        fn set_tracer(&mut self, _tracer: Tracer) {
            self.log("set_tracer");
        }
        fn report(&self, _elapsed: Ns) -> SystemReport {
            self.log("report");
            SystemReport {
                name: "Spy".into(),
                ..SystemReport::default()
            }
        }
    }

    #[test]
    fn forwards_every_method_including_overridden_defaults() {
        let mut f = Forward::new(Spy::default());
        let backing = ZeroSource;
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        let t = Ns::from_us(100);

        assert_eq!(f.name(), "Spy");
        assert!(f.preload_done.is_none());
        f.preload(&[(0, 8)], &mut ctx);
        assert!(f.preload_done.is_some(), "preload stamps the seam");
        let req = Request::read(icash_storage::block::Lba::new(1), t);
        assert_eq!(f.submit(&req, &mut ctx).finished, t + Ns::from_us(3));
        assert_eq!(f.flush(t, &mut ctx), t + Ns::from_us(5));
        assert_eq!(f.write_ticket(), Ticket::from_u64(11));
        assert_eq!(f.flushed_ticket(), Ticket::from_u64(7));
        assert_eq!(
            f.await_flush(Ticket::from_u64(11), t, &mut ctx),
            t + Ns::from_us(13)
        );
        assert_eq!(f.sync(t, &mut ctx), t + Ns::from_us(17));
        f.set_tracer(Tracer::disabled());
        assert_eq!(f.report(t).name, "Spy");

        // Exactly one inner call per outer call, in order: a default
        // `sync` would have logged write_ticket + await_flush instead.
        assert_eq!(
            *f.inner.calls.lock().expect("spy log"),
            vec![
                "name",
                "preload",
                "submit",
                "flush",
                "write_ticket",
                "flushed_ticket",
                "await_flush",
                "sync",
                "set_tracer",
                "report"
            ]
        );
    }
}
