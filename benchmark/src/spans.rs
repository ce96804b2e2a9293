//! In-memory host-time spans for the traced pass.
//!
//! The traced mirror loop brackets every call into a layer's public
//! function with two clock reads and hands the pair to a [`Recorder`].
//! Each span adds to its name's running total (count + nanoseconds), so
//! totals and self times cover *every* request. Only phase spans and a
//! deterministic 1-in-[`SAMPLE_EVERY`] sample of request trees are also
//! kept as individual records, in a buffer allocated before the clock
//! starts and written out after it stops.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// One request tree in this many is kept span by span.
pub const SAMPLE_EVERY: u64 = 64;

/// Parent/request id of a span that has none.
pub const NONE: u32 = u32::MAX;

/// Every span name, with the name of the span that contains it. The order
/// is the order of [`Recorder::totals`]; a parent always precedes its
/// children.
pub const TREE: [(&str, &str); 17] = [
    ("cell", ""),
    ("record", "cell"),
    ("build", "cell"),
    ("preload", "cell"),
    ("preload.backing", "preload"),
    ("replay", "cell"),
    ("request", "replay"),
    ("driver", "request"),
    ("payload", "request"),
    ("submit_read", "request"),
    ("submit_read.backing", "submit_read"),
    ("submit_write", "request"),
    ("submit_write.backing", "submit_write"),
    ("verify", "request"),
    ("flush", "cell"),
    ("flush.backing", "flush"),
    ("report", "cell"),
];

/// Index into [`TREE`] / [`Recorder::totals`].
pub type NameId = usize;

/// Resolves a span name to its [`NameId`].
///
/// # Panics
///
/// Panics on a name that is not in [`TREE`] (a typo in the benchmark).
pub fn id(name: &str) -> NameId {
    TREE.iter()
        .position(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown span name {name:?}"))
}

/// One kept span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: NameId,
    start: u64,
    end: u64,
    /// Index (line number in the spans file) of the span that caused it.
    parent: u32,
    /// The request it belongs to ([`NONE`] for phase spans).
    request: u32,
}

/// Count and summed duration of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans recorded.
    pub count: u64,
    /// Their summed duration.
    pub ns: u64,
}

/// Collects spans; see the module docs. Interior mutability because the
/// `ContentSource` callback (`&self`) records spans too.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    totals: RefCell<[Total; TREE.len()]>,
    spans: RefCell<Vec<Span>>,
    /// The span callbacks attach to: (its name, its index if it is kept).
    scope: Cell<(NameId, u32)>,
    request: Cell<u32>,
}

impl Recorder {
    /// A recorder with room for `capacity` kept spans.
    pub fn new(capacity: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            totals: RefCell::new([Total::default(); TREE.len()]),
            spans: RefCell::new(Vec::with_capacity(capacity)),
            scope: Cell::new((0, NONE)),
            request: Cell::new(NONE),
        }
    }

    /// Nanoseconds since the recorder was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Adds one `[start, end)` interval to `name`'s total without keeping
    /// the span.
    #[inline]
    pub fn count(&self, name: NameId, start: u64, end: u64) {
        let mut totals = self.totals.borrow_mut();
        totals[name].count += 1;
        totals[name].ns += end - start;
    }

    /// Opens a kept span and returns its index; [`close`](Self::close) it
    /// when it ends.
    pub fn open(&self, name: NameId, start: u64, parent: u32) -> u32 {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request: self.request.get(),
        });
        (spans.len() - 1) as u32
    }

    /// Ends a kept span and adds it to its name's total.
    pub fn close(&self, index: u32, end: u64) {
        let (name, start) = {
            let mut spans = self.spans.borrow_mut();
            let span = &mut spans[index as usize];
            span.end = end;
            (span.name, span.start)
        };
        self.count(name, start, end);
    }

    /// Counts a finished span and keeps it too when `parent` is a kept
    /// span (the request tree is in the sample).
    #[inline]
    pub fn leaf(&self, name: NameId, start: u64, end: u64, parent: u32) {
        self.count(name, start, end);
        if parent != NONE {
            self.spans.borrow_mut().push(Span {
                name,
                start,
                end,
                parent,
                request: self.request.get(),
            });
        }
    }

    /// Tags the spans kept from now on with a request id.
    pub fn set_request(&self, request: u32) {
        self.request.set(request);
    }

    /// Names the span that `ContentSource` callbacks made from now on
    /// belong to: `"<name>.backing"` totals, kept under `index` when that
    /// is not [`NONE`].
    #[inline]
    pub fn set_scope(&self, backing: NameId, index: u32) {
        self.scope.set((backing, index));
    }

    /// Records one `ContentSource` callback in the current scope.
    #[inline]
    pub fn callback(&self, start: u64, end: u64) {
        let (name, parent) = self.scope.get();
        self.leaf(name, start, end, parent);
    }

    /// Totals per name, in [`TREE`] order.
    pub fn totals(&self) -> [Total; TREE.len()] {
        *self.totals.borrow()
    }

    /// Self time per name: its total minus the totals of the spans it
    /// directly contains.
    pub fn self_ns(&self) -> [u64; TREE.len()] {
        let totals = self.totals();
        let mut own = totals.map(|t| t.ns);
        for (child, (_, parent)) in TREE.iter().enumerate() {
            if !parent.is_empty() {
                let p = id(parent);
                own[p] = own[p].saturating_sub(totals[child].ns);
            }
        }
        own
    }

    /// The spans file: one JSON object per line. Kept spans first — line
    /// `i` (0-based) is span `i`, which is what `parent` refers to — then
    /// one `total` line per name covering every span, kept or not.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::with_capacity(spans.len() * 96 + 4096);
        let field = |v: u32| {
            if v == NONE {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        for (i, s) in spans.iter().enumerate() {
            // `.backing` names are one span kind under different parents;
            // the file shows the kind, the parent link shows the rest.
            let name = TREE[s.name].0.rsplit('.').next().expect("non-empty name");
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.start,
                s.end,
                field(s.parent),
                field(s.request)
            );
        }
        let totals = self.totals();
        let own = self.self_ns();
        for (i, (name, parent)) in TREE.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"total\":\"{name}\",\"under\":\"{parent}\",\"count\":{},\"ns\":{},\"self_ns\":{}}}",
                totals[i].count, totals[i].ns, own[i]
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_is_well_formed() {
        for (i, (name, parent)) in TREE.iter().enumerate() {
            assert_eq!(id(name), i, "names are unique");
            if !parent.is_empty() {
                assert!(id(parent) < i, "{parent} must precede its child {name}");
            }
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let r = Recorder::new(8);
        let cell = r.open(id("cell"), 0, NONE);
        let replay = r.open(id("replay"), 10, cell);
        r.set_request(0);
        let req = r.open(id("request"), 10, replay);
        r.leaf(id("driver"), 10, 12, req);
        let submit = r.open(id("submit_read"), 20, req);
        r.set_scope(id("submit_read.backing"), submit);
        r.callback(22, 27);
        r.close(submit, 40);
        r.close(req, 50);
        // An unsampled request: totals only.
        r.count(id("request"), 50, 80);
        r.count(id("submit_read"), 55, 75);
        r.set_scope(id("submit_read.backing"), NONE);
        r.callback(60, 61);
        r.set_request(NONE);
        r.close(replay, 100);
        r.close(cell, 120);

        let totals = r.totals();
        let own = r.self_ns();
        assert_eq!(totals[id("request")], Total { count: 2, ns: 70 });
        assert_eq!(totals[id("submit_read")], Total { count: 2, ns: 40 });
        assert_eq!(totals[id("submit_read.backing")], Total { count: 2, ns: 6 });
        assert_eq!(own[id("submit_read")], 34);
        assert_eq!(own[id("request")], 70 - 2 - 40);
        assert_eq!(own[id("replay")], 90 - 70);
        assert_eq!(own[id("cell")], 120 - 90);

        let text = r.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        // Six kept spans: the unsampled request kept nothing.
        assert_eq!(lines.len(), 6 + TREE.len());
        assert_eq!(
            lines[5],
            "{\"id\":5,\"name\":\"backing\",\"start_ns\":22,\"end_ns\":27,\"parent\":4,\"request\":0}"
        );
        assert_eq!(
            lines[0],
            "{\"id\":0,\"name\":\"cell\",\"start_ns\":0,\"end_ns\":120,\"parent\":null,\"request\":null}"
        );
    }
}
