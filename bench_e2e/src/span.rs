//! Bench-owned tracing: spans around every call into a layer.
//!
//! The layers are measured from outside, through their public functions and
//! generic seams (`S: Semantics`, `F: DuplicateFilter`); nothing in the
//! crates under test is instrumented. A [`SpanSink`] keeps an explicit span
//! stack per node, so a layer's *self* time is its span's duration minus
//! what its child spans cover — the semantics and cache calls the gossip
//! node makes from inside `on_receive` or `take_outgoing` are charged to
//! `semantics`/`core.cache`, not twice.
//!
//! Spans aggregate in memory into per-operation counts and log histograms;
//! full span records (name, layer, node, start, end, parent, message trace
//! id) are kept only while a node is on every 64th decision, and everything
//! is written out when the run ends.
//!
//! End-to-end metrics are measured with [`Untraced`], where every span and
//! wrapper compiles to the bare call.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;
use std::time::Instant;

use obs::json::JsonValue;
use obs::LogHistogram;
use semantic_gossip::{DuplicateFilter, MessageId, NodeId, Semantics};

/// Compile-time switch between the measured and the traced build of the
/// node loop.
pub trait Mode: 'static {
    const TRACED: bool;
}

/// End-to-end runs: no spans, no clock reads.
#[derive(Debug, Clone, Copy)]
pub struct Untraced;
impl Mode for Untraced {
    const TRACED: bool = false;
}

/// The separate traced run.
#[derive(Debug, Clone, Copy)]
pub struct Traced;
impl Mode for Traced {
    const TRACED: bool = true;
}

/// Every operation a span is recorded for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// One iteration of a node's loop; the root of every other span, so its
    /// self time is the harness's own cost.
    Visit,
    Decode,
    Encode,
    OnReceive,
    Broadcast,
    TakeDeliveries,
    TakeOutgoing,
    CacheInsert,
    SemObserve,
    SemValidate,
    SemAggregate,
    SemDisaggregate,
    PaxosHandle,
    PaxosSubmit,
    PaxosDecisions,
    Send,
    RecvWait,
}

impl Op {
    pub const ALL: [Op; 17] = [
        Op::Visit,
        Op::Decode,
        Op::Encode,
        Op::OnReceive,
        Op::Broadcast,
        Op::TakeDeliveries,
        Op::TakeOutgoing,
        Op::CacheInsert,
        Op::SemObserve,
        Op::SemValidate,
        Op::SemAggregate,
        Op::SemDisaggregate,
        Op::PaxosHandle,
        Op::PaxosSubmit,
        Op::PaxosDecisions,
        Op::Send,
        Op::RecvWait,
    ];

    /// `(layer, operation)`; the layer is the crate the call goes into.
    pub fn names(self) -> (&'static str, &'static str) {
        match self {
            Op::Visit => ("bench", "visit"),
            Op::Decode => ("core", "codec.from_bytes"),
            Op::Encode => ("core", "codec.encode_into"),
            Op::OnReceive => ("core", "on_receive"),
            Op::Broadcast => ("core", "broadcast"),
            Op::TakeDeliveries => ("core", "take_deliveries_into"),
            Op::TakeOutgoing => ("core", "take_outgoing_shared_into"),
            Op::CacheInsert => ("core", "cache.insert"),
            Op::SemObserve => ("semantics", "observe"),
            Op::SemValidate => ("semantics", "validate"),
            Op::SemAggregate => ("semantics", "aggregate"),
            Op::SemDisaggregate => ("semantics", "disaggregate"),
            Op::PaxosHandle => ("paxos", "handle"),
            Op::PaxosSubmit => ("paxos", "submit"),
            Op::PaxosDecisions => ("paxos", "take_delivered"),
            Op::Send => ("transport", "send_shared"),
            Op::RecvWait => ("transport", "recv_timeout"),
        }
    }
}

/// Aggregate of one operation's spans.
#[derive(Debug, Clone, Default)]
pub struct OpAgg {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
    pub hist: LogHistogram,
}

impl OpAgg {
    fn merge(&mut self, other: &OpAgg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.hist.merge(&other.hist);
    }
}

/// One fully recorded span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub op: Op,
    pub node: u32,
    pub id: u64,
    /// Id of the enclosing span on the same node; 0 for a root.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `MessageId::trace_id()` of the message the call handled; 0 if none.
    pub trace_id: u64,
}

struct Open {
    op: Op,
    id: u64,
    start_ns: u64,
    child_ns: u64,
    trace_id: u64,
}

/// Upper bound on the full records one node keeps.
const MAX_RECORDS: usize = 100_000;

struct Inner {
    aggs: Vec<OpAgg>,
    stack: Vec<Open>,
    sampling: bool,
    next_id: u64,
    records: Vec<SpanRecord>,
}

/// Span collector of one node (single-threaded; lives on the node's thread).
pub struct SpanSink {
    epoch: Instant,
    node: u32,
    inner: RefCell<Inner>,
}

/// What a node hands back when its run ends.
#[derive(Debug, Clone, Default)]
pub struct SpanReport {
    /// Indexed like [`Op::ALL`].
    pub aggs: Vec<OpAgg>,
    pub records: Vec<SpanRecord>,
}

impl SpanSink {
    /// `epoch` is shared by all nodes of a run so their records line up.
    pub fn new(node: u32, epoch: Instant) -> Rc<SpanSink> {
        Rc::new(SpanSink {
            epoch,
            node,
            inner: RefCell::new(Inner {
                aggs: vec![OpAgg::default(); Op::ALL.len()],
                stack: Vec::with_capacity(8),
                sampling: true,
                next_id: 1,
                records: Vec::new(),
            }),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&self, op: Op, trace_id: u64) {
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.stack.push(Open {
            op,
            id,
            start_ns,
            child_ns: 0,
            trace_id,
        });
    }

    fn exit(&self) {
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let open = inner.stack.pop().expect("span exit without enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        let parent = match inner.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let agg = &mut inner.aggs[open.op as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        agg.hist.record(dur);
        if inner.sampling && inner.records.len() < MAX_RECORDS {
            let node = self.node;
            inner.records.push(SpanRecord {
                op: open.op,
                node,
                id: open.id,
                parent,
                start_ns: open.start_ns,
                end_ns,
                trace_id: open.trace_id,
            });
        }
    }

    /// Full records are kept while this is on; the node switches it as its
    /// decision count crosses multiples of 64.
    pub fn set_sampling(&self, on: bool) {
        self.inner.borrow_mut().sampling = on;
    }

    /// Discards everything recorded so far (end of warm-up).
    pub fn reset(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.aggs = vec![OpAgg::default(); Op::ALL.len()];
        inner.records.clear();
    }

    pub fn report(&self) -> SpanReport {
        let inner = self.inner.borrow();
        SpanReport {
            aggs: inner.aggs.clone(),
            records: inner.records.clone(),
        }
    }
}

impl SpanReport {
    pub fn merge(&mut self, other: SpanReport) {
        if self.aggs.is_empty() {
            self.aggs = vec![OpAgg::default(); Op::ALL.len()];
        }
        for (a, b) in self.aggs.iter_mut().zip(&other.aggs) {
            a.merge(b);
        }
        self.records.extend(other.records);
    }

    pub fn agg(&self, op: Op) -> OpAgg {
        self.aggs.get(op as usize).cloned().unwrap_or_default()
    }

    /// Self time summed over the given operations.
    pub fn self_ns(&self, ops: &[Op]) -> u64 {
        ops.iter()
            .map(|&op| self.aggs.get(op as usize).map_or(0, |a| a.self_ns))
            .sum()
    }

    /// Self time of every span: with one root per loop iteration this is
    /// the wall time the spans account for.
    pub fn covered_ns(&self) -> u64 {
        self.aggs.iter().map(|a| a.self_ns).sum()
    }

    /// Per-(layer, op) summary as JSON.
    pub fn summary_json(&self) -> JsonValue {
        let rows = Op::ALL
            .iter()
            .map(|&op| {
                let a = self.agg(op);
                let (layer, name) = op.names();
                JsonValue::Obj(
                    [
                        ("layer", JsonValue::Str(layer.into())),
                        ("op", JsonValue::Str(name.into())),
                        ("count", JsonValue::Int(a.count as i128)),
                        ("total_ns", JsonValue::Int(a.total_ns as i128)),
                        ("self_ns", JsonValue::Int(a.self_ns as i128)),
                        (
                            "p50_ns",
                            JsonValue::Int(a.hist.quantile(0.5).unwrap_or(0) as i128),
                        ),
                        (
                            "p99_ns",
                            JsonValue::Int(a.hist.quantile(0.99).unwrap_or(0) as i128),
                        ),
                    ]
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
                )
            })
            .collect();
        JsonValue::Arr(rows)
    }

    /// The sampled span records, one JSON object per line.
    pub fn records_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let (layer, name) = r.op.names();
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"layer\":\"{layer}\",\"node\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"trace_id\":{}}}\n",
                r.node, r.id, r.parent, r.start_ns, r.end_ns, r.trace_id
            ));
        }
        out
    }
}

/// Closes its span when dropped.
pub struct Guard<'a>(Option<&'a SpanSink>);

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(sink) = self.0 {
            sink.exit();
        }
    }
}

/// A node's handle on its sink; a no-op under [`Untraced`].
pub struct Probe<M> {
    sink: Rc<SpanSink>,
    _mode: PhantomData<M>,
}

impl<M> Clone for Probe<M> {
    fn clone(&self) -> Self {
        Probe {
            sink: self.sink.clone(),
            _mode: PhantomData,
        }
    }
}

impl<M: Mode> Probe<M> {
    pub fn new(sink: Rc<SpanSink>) -> Self {
        Probe {
            sink,
            _mode: PhantomData,
        }
    }

    #[inline]
    pub fn span(&self, op: Op) -> Guard<'_> {
        self.span_msg(op, 0)
    }

    /// A span for a call that handles one identifiable message.
    #[inline]
    pub fn span_msg(&self, op: Op, trace_id: u64) -> Guard<'_> {
        if M::TRACED {
            self.sink.enter(op, trace_id);
            Guard(Some(&self.sink))
        } else {
            Guard(None)
        }
    }

    pub fn sink(&self) -> &Rc<SpanSink> {
        &self.sink
    }
}

/// Wraps a [`Semantics`] or [`DuplicateFilter`] so the calls the gossip
/// node makes into it become child spans. Transparent under [`Untraced`].
pub struct Timed<T, M> {
    inner: T,
    probe: Probe<M>,
}

impl<T, M: Mode> Timed<T, M> {
    pub fn new(inner: T, sink: Rc<SpanSink>) -> Self {
        Timed {
            inner,
            probe: Probe::new(sink),
        }
    }

    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<Msg, S: Semantics<Msg>, M: Mode> Semantics<Msg> for Timed<S, M> {
    #[inline]
    fn observe(&mut self, msg: &Msg) {
        let _s = self.probe.span(Op::SemObserve);
        self.inner.observe(msg)
    }
    #[inline]
    fn validate(&mut self, msg: &Msg, peer: NodeId) -> bool {
        let _s = self.probe.span(Op::SemValidate);
        self.inner.validate(msg, peer)
    }
    #[inline]
    fn aggregate(&mut self, pending: Vec<Msg>, peer: NodeId) -> Vec<Msg> {
        let _s = self.probe.span(Op::SemAggregate);
        self.inner.aggregate(pending, peer)
    }
    #[inline]
    fn disaggregate(&mut self, msg: Msg) -> Vec<Msg> {
        let _s = self.probe.span(Op::SemDisaggregate);
        self.inner.disaggregate(msg)
    }
}

impl<F: DuplicateFilter, M: Mode> DuplicateFilter for Timed<F, M> {
    #[inline]
    fn insert(&mut self, id: MessageId) -> bool {
        let _s = self.probe.span_msg(Op::CacheInsert, id.trace_id());
        self.inner.insert(id)
    }
    #[inline]
    fn contains(&self, id: MessageId) -> bool {
        self.inner.contains(id)
    }
    #[inline]
    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let sink = SpanSink::new(3, Instant::now());
        let probe: Probe<Traced> = Probe::new(sink.clone());
        {
            let _outer = probe.span(Op::OnReceive);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = probe.span_msg(Op::SemValidate, 42);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        let report = sink.report();
        let outer = report.agg(Op::OnReceive);
        let inner = report.agg(Op::SemValidate);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.self_ns >= 5_000_000);
        assert!(outer.total_ns >= 7_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(report.covered_ns(), outer.total_ns);
        let child = report
            .records
            .iter()
            .find(|r| r.op == Op::SemValidate)
            .unwrap();
        let parent = report
            .records
            .iter()
            .find(|r| r.op == Op::OnReceive)
            .unwrap();
        assert_eq!(child.parent, parent.id);
        assert_eq!((child.trace_id, child.node), (42, 3));
    }

    #[test]
    fn untraced_probe_records_nothing() {
        let sink = SpanSink::new(0, Instant::now());
        let probe: Probe<Untraced> = Probe::new(sink.clone());
        drop(probe.span(Op::Visit));
        assert_eq!(sink.report().agg(Op::Visit).count, 0);
    }
}
