//! The bench-owned node: one gossip node + one Paxos process, wired the way
//! `examples/live_tcp.rs` wires them, with frames encoded and decoded on
//! every hop. The mesh pump and the loopback-TCP threads both drive this
//! type; they differ only in how frames travel between nodes.

use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;

use paxos::{InstanceId, PaxosConfig, PaxosMessage, PaxosProcess, Round, ValueId};
use paxos_semantics::PaxosSemantics;
use semantic_gossip::{
    GossipConfig, GossipItem, GossipNode, Grouped, GroupedSemantics, MessageStats, NodeId,
    RecentCache, Wire,
};
use testbed::{RunAudit, SafetyAuditor};
use transport::Bytes;

use crate::report::Metrics;
use crate::span::{Mode, Op, Probe, SpanReport, SpanSink, Timed};

/// What travels between nodes: a group-tagged Paxos message, the
/// repository's one wire format.
pub type WireMsg = Grouped<PaxosMessage>;

/// The deployments here run one consensus group.
const GROUP: u32 = 0;

/// Per-peer semantic summaries are collected every this many instances,
/// keeping the last [`GC_KEEP`] — the policy of `testbed::cluster`.
const GC_EVERY: u64 = 256;
const GC_KEEP: u64 = 1024;

type Sem<M> = Timed<GroupedSemantics<PaxosSemantics>, M>;
type Cache<M> = Timed<RecentCache, M>;

/// Counts taken at the node's own boundaries (always on; plain adds).
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeCounts {
    /// Frames handed to the link layer and accepted by it.
    pub frames_out: u64,
    pub bytes_out: u64,
    /// Frames the link layer refused (full queue, unknown peer).
    pub frames_refused: u64,
    /// Distinct messages serialized (each once, whatever its fan-out).
    pub frames_encoded: u64,
    pub bytes_encoded: u64,
    pub frames_in: u64,
    pub decode_errors: u64,
    pub cache_occupancy_max: u64,
    pub open_instances_max: u64,
    pub paxos_handled: u64,
    /// Values decided in order here, suppressed duplicates excluded. Every
    /// node decides every value, so summed over n nodes this is n times the
    /// cluster's count.
    pub decisions: u64,
    /// Distinct instances behind those decisions.
    pub instances: u64,
}

impl NodeCounts {
    /// Adds another node's (or another episode's) counts; gauges keep the
    /// larger reading.
    pub fn merge(&mut self, o: &NodeCounts) {
        self.frames_out += o.frames_out;
        self.bytes_out += o.bytes_out;
        self.frames_refused += o.frames_refused;
        self.frames_encoded += o.frames_encoded;
        self.bytes_encoded += o.bytes_encoded;
        self.frames_in += o.frames_in;
        self.decode_errors += o.decode_errors;
        self.cache_occupancy_max = self.cache_occupancy_max.max(o.cache_occupancy_max);
        self.open_instances_max = self.open_instances_max.max(o.open_instances_max);
        self.paxos_handled += o.paxos_handled;
        self.decisions += o.decisions;
        self.instances += o.instances;
    }

    /// What was counted after `earlier` was taken (gauges keep their
    /// running maximum).
    pub fn since(&self, earlier: &NodeCounts) -> NodeCounts {
        NodeCounts {
            frames_out: self.frames_out - earlier.frames_out,
            bytes_out: self.bytes_out - earlier.bytes_out,
            frames_refused: self.frames_refused - earlier.frames_refused,
            frames_encoded: self.frames_encoded - earlier.frames_encoded,
            bytes_encoded: self.bytes_encoded - earlier.bytes_encoded,
            frames_in: self.frames_in - earlier.frames_in,
            decode_errors: self.decode_errors - earlier.decode_errors,
            cache_occupancy_max: self.cache_occupancy_max,
            open_instances_max: self.open_instances_max,
            paxos_handled: self.paxos_handled - earlier.paxos_handled,
            decisions: self.decisions - earlier.decisions,
            instances: self.instances - earlier.instances,
        }
    }
}

/// The gossip layer's own counters (`MessageStats`), as plain numbers that
/// can be summed over nodes and differenced over a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct GossipCounts {
    pub received_parts: u64,
    pub duplicates: u64,
    pub sent: u64,
    pub filtered: u64,
    pub aggregated_away: u64,
    pub send_overflow: u64,
    pub delivery_overflow: u64,
}

impl From<&MessageStats> for GossipCounts {
    fn from(s: &MessageStats) -> Self {
        GossipCounts {
            received_parts: s.received_parts.get(),
            duplicates: s.duplicates.get(),
            sent: s.sent.get(),
            filtered: s.filtered.get(),
            aggregated_away: s.aggregated_away.get(),
            send_overflow: s.send_overflow.get(),
            delivery_overflow: s.delivery_overflow.get(),
        }
    }
}

impl GossipCounts {
    pub fn merge(&mut self, o: &GossipCounts) {
        self.received_parts += o.received_parts;
        self.duplicates += o.duplicates;
        self.sent += o.sent;
        self.filtered += o.filtered;
        self.aggregated_away += o.aggregated_away;
        self.send_overflow += o.send_overflow;
        self.delivery_overflow += o.delivery_overflow;
    }

    pub fn since(&self, earlier: &GossipCounts) -> GossipCounts {
        GossipCounts {
            received_parts: self.received_parts - earlier.received_parts,
            duplicates: self.duplicates - earlier.duplicates,
            sent: self.sent - earlier.sent,
            filtered: self.filtered - earlier.filtered,
            aggregated_away: self.aggregated_away - earlier.aggregated_away,
            send_overflow: self.send_overflow - earlier.send_overflow,
            delivery_overflow: self.delivery_overflow - earlier.delivery_overflow,
        }
    }

    /// `duplicates / received` after disaggregation.
    pub fn dup_share(&self) -> f64 {
        ratio(self.duplicates, self.received_parts)
    }

    /// `filtered / (sent + filtered)`.
    pub fn filtered_share(&self) -> f64 {
        ratio(self.filtered, self.sent + self.filtered)
    }
}

/// Verdict of [`audit_logs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogVerdict {
    pub clean: bool,
    /// Submitted values no node decided.
    pub not_decided: u64,
    /// What was wrong, one line each; empty when `clean`.
    pub violations: Vec<String>,
}

impl LogVerdict {
    /// Prints the violations to stderr and returns `(clean, not_decided)`.
    pub fn reported(self) -> (bool, u64) {
        for v in &self.violations {
            eprintln!("audit: {v}");
        }
        (self.clean, self.not_decided)
    }
}

/// The correctness check of the bench-owned hosts: every node delivered the
/// same sequence, and that sequence passes the repository's own safety
/// audit (agreement, every decided value submitted, none applied twice, no
/// gaps).
pub fn audit_logs(logs: &[Vec<(u64, ValueId, bool)>], submitted: &BTreeSet<ValueId>) -> LogVerdict {
    let decided: BTreeSet<ValueId> = logs
        .first()
        .map(|log| log.iter().map(|&(_, v, _)| v).collect())
        .unwrap_or_default();
    let report = SafetyAuditor::audit(&RunAudit {
        n: logs.len(),
        delivered: logs.to_vec(),
        promises: vec![Vec::new(); logs.len()],
        submitted: submitted.clone(),
    });
    let mut violations: Vec<String> = report.violations.iter().map(ToString::to_string).collect();
    if !logs.windows(2).all(|w| w[0] == w[1]) {
        violations.push("nodes delivered different sequences".into());
    }
    LogVerdict {
        clean: violations.is_empty(),
        not_decided: submitted.difference(&decided).count() as u64,
        violations,
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// What one measurement window of a bench-owned host (mesh or live)
/// observed, summed over its nodes.
#[derive(Debug, Clone, Default)]
pub struct WindowCounts {
    pub nodes: NodeCounts,
    pub gossip: GossipCounts,
    pub spans: SpanReport,
    /// Wall time the node loops ran for, summed over nodes.
    pub loop_ns: u64,
}

impl WindowCounts {
    /// Adds another episode's window.
    pub fn merge(&mut self, o: WindowCounts) {
        self.nodes.merge(&o.nodes);
        self.gossip.merge(&o.gossip);
        self.spans.merge(o.spans);
        self.loop_ns += o.loop_ns;
    }

    /// The per-layer metrics both bench-owned hosts can measure, per
    /// `decisions` values the cluster decided. Timings are span self times
    /// and are 0 unless the window ran [`Traced`].
    ///
    /// [`Traced`]: crate::span::Traced
    pub fn layer_metrics(&self, decisions: u64, out: &mut Metrics) {
        let d = decisions.max(1);
        let per_decision = |ns: u64| ns as f64 / d as f64;
        let s = &self.spans;
        out.insert(
            "core.on_receive_ns_per_decision",
            per_decision(s.self_ns(&[Op::OnReceive])),
        );
        out.insert(
            "core.drain_ns_per_decision",
            per_decision(s.self_ns(&[Op::TakeOutgoing, Op::TakeDeliveries])),
        );
        out.insert(
            "core.broadcast_ns_per_decision",
            per_decision(s.self_ns(&[Op::Broadcast])),
        );
        let cache = s.agg(Op::CacheInsert);
        out.insert(
            "core.cache_ns_per_insert",
            ratio(cache.self_ns, cache.count),
        );
        out.insert("core.frames_per_decision", ratio(self.gossip.sent, d));
        out.insert("core.dup_share", self.gossip.dup_share());
        out.insert("core.send_overflow", self.gossip.send_overflow as f64);
        out.insert(
            "core.delivery_overflow",
            self.gossip.delivery_overflow as f64,
        );
        out.insert(
            "core.cache_occupancy_max",
            self.nodes.cache_occupancy_max as f64,
        );
        let (enc, dec) = (s.agg(Op::Encode), s.agg(Op::Decode));
        out.insert(
            "core.codec_encode_ns_per_frame",
            ratio(enc.self_ns, enc.count),
        );
        out.insert(
            "core.codec_decode_ns_per_frame",
            ratio(dec.self_ns, dec.count),
        );
        out.insert(
            "core.bytes_encoded_per_decision",
            ratio(self.nodes.bytes_encoded, d),
        );
        out.insert(
            "semantics.validate_ns_per_decision",
            per_decision(s.self_ns(&[Op::SemValidate, Op::SemObserve])),
        );
        out.insert(
            "semantics.aggregate_ns_per_decision",
            per_decision(s.self_ns(&[Op::SemAggregate, Op::SemDisaggregate])),
        );
        out.insert("semantics.filtered_share", self.gossip.filtered_share());
        out.insert(
            "semantics.aggregated_away_per_decision",
            ratio(self.gossip.aggregated_away, d),
        );
        out.insert(
            "paxos.handle_ns_per_decision",
            per_decision(s.self_ns(&[Op::PaxosHandle, Op::PaxosSubmit, Op::PaxosDecisions])),
        );
        out.insert(
            "paxos.msgs_handled_per_decision",
            ratio(self.nodes.paxos_handled, d),
        );
        out.insert(
            "paxos.values_per_instance",
            ratio(self.nodes.decisions, self.nodes.instances),
        );
        out.insert(
            "paxos.open_instances_max",
            self.nodes.open_instances_max as f64,
        );
        out.insert(
            "bench.harness_ns_per_decision",
            per_decision(s.self_ns(&[Op::Visit])),
        );
        out.insert(
            "bench.span_coverage_share",
            ratio(s.covered_ns(), self.loop_ns),
        );
    }
}

pub struct Node<M: Mode> {
    id: NodeId,
    gossip: GossipNode<WireMsg, Sem<M>, Cache<M>>,
    paxos: PaxosProcess,
    probe: Probe<M>,
    outgoing: Vec<(NodeId, Arc<WireMsg>)>,
    deliveries: Vec<WireMsg>,
    encode_buf: Vec<u8>,
    /// Frames of the current `ship` call, keyed by the shared message
    /// handle: one message fanned out to k peers is encoded once.
    frames: HashMap<*const WireMsg, Bytes>,
    /// Ordered delivery log, in the shape `testbed::SafetyAuditor` audits.
    pub log: Vec<(u64, ValueId, bool)>,
    /// Sequence numbers of this node's own values decided since the host
    /// last drained the list.
    pub own_decided: Vec<u64>,
    pub counts: NodeCounts,
    last_instance: Option<InstanceId>,
}

impl<M: Mode> Node<M> {
    pub fn new(id: u32, n: usize, peers: Vec<NodeId>, sink: Rc<SpanSink>) -> Self {
        let config = PaxosConfig::new(n);
        let gossip_config = GossipConfig::default();
        let semantics = GroupedSemantics::new(vec![PaxosSemantics::full(config.clone())]);
        Node {
            id: NodeId::new(id),
            gossip: GossipNode::with_filter(
                NodeId::new(id),
                peers,
                gossip_config,
                Timed::new(semantics, sink.clone()),
                Timed::new(
                    RecentCache::new(gossip_config.recent_cache_size),
                    sink.clone(),
                ),
            ),
            paxos: PaxosProcess::new(NodeId::new(id), config),
            probe: Probe::new(sink),
            outgoing: Vec::new(),
            deliveries: Vec::new(),
            encode_buf: Vec::new(),
            frames: HashMap::new(),
            log: Vec::new(),
            own_decided: Vec::new(),
            counts: NodeCounts::default(),
            last_instance: None,
        }
    }

    pub fn probe(&self) -> &Probe<M> {
        &self.probe
    }

    /// The gossip layer's own counters so far.
    pub fn gossip_counts(&self) -> GossipCounts {
        self.gossip.stats().into()
    }

    fn broadcast(&mut self, msg: PaxosMessage) {
        let _s = self.probe.span(Op::Broadcast);
        self.gossip.broadcast(Grouped::new(GROUP, msg));
    }

    /// Makes this node the coordinator of round 0.
    pub fn start_round_zero(&mut self) {
        for out in self.paxos.start_round(Round::ZERO) {
            self.broadcast(out.msg);
        }
    }

    /// A client submits `payload` here; returns the new value's sequence
    /// number at this node.
    pub fn submit(&mut self, payload: Vec<u8>) -> u64 {
        let (value, out) = {
            let _s = self.probe.span(Op::PaxosSubmit);
            self.paxos.submit_payload(payload)
        };
        for o in out {
            self.broadcast(o.msg);
        }
        value.id().seq
    }

    /// One frame arrived from `from`: decode it and hand it to gossip.
    pub fn receive(&mut self, from: NodeId, frame: &[u8]) {
        self.counts.frames_in += 1;
        let decoded = {
            let _s = self.probe.span(Op::Decode);
            WireMsg::from_bytes(frame)
        };
        match decoded {
            Ok(msg) => {
                let trace_id = if M::TRACED {
                    msg.message_id().trace_id()
                } else {
                    0
                };
                let _s = self.probe.span_msg(Op::OnReceive, trace_id);
                self.gossip.on_receive(from, msg);
            }
            Err(_) => self.counts.decode_errors += 1,
        }
    }

    /// Runs consensus over everything gossip delivered, then harvests the
    /// decisions that became deliverable in order.
    pub fn step(&mut self) {
        loop {
            {
                let _s = self.probe.span(Op::TakeDeliveries);
                self.gossip.take_deliveries_into(&mut self.deliveries);
            }
            if self.deliveries.is_empty() {
                break;
            }
            let mut batch = std::mem::take(&mut self.deliveries);
            for msg in batch.drain(..) {
                self.counts.paxos_handled += 1;
                let out = {
                    let trace_id = if M::TRACED {
                        msg.message_id().trace_id()
                    } else {
                        0
                    };
                    let _s = self.probe.span_msg(Op::PaxosHandle, trace_id);
                    self.paxos.handle(msg.inner)
                };
                for o in out {
                    self.broadcast(o.msg);
                }
            }
            self.deliveries = batch;
        }

        let delivered = {
            let _s = self.probe.span(Op::PaxosDecisions);
            self.paxos.take_delivered()
        };
        for d in delivered {
            if self.last_instance != Some(d.instance) {
                self.last_instance = Some(d.instance);
                self.counts.instances += 1;
            }
            let ids: Vec<ValueId> = match d.value.components() {
                Some(parts) => parts.iter().map(|v| v.id()).collect(),
                None => vec![d.value.id()],
            };
            for id in ids {
                self.log.push((d.instance.as_u64(), id, d.duplicate));
                if d.duplicate {
                    continue;
                }
                self.counts.decisions += 1;
                if id.origin == self.id {
                    self.own_decided.push(id.seq);
                }
            }
            let watermark = self.paxos.learner().next_to_deliver().as_u64();
            if watermark.is_multiple_of(GC_EVERY) {
                let keep = InstanceId::new(watermark.saturating_sub(GC_KEEP));
                self.gossip
                    .semantics_mut()
                    .inner_mut()
                    .get_mut(GROUP)
                    .gc(keep);
            }
            if M::TRACED {
                self.probe
                    .sink()
                    .set_sampling(self.counts.decisions.is_multiple_of(64));
            }
        }
        self.counts.open_instances_max = self
            .counts
            .open_instances_max
            .max(self.paxos.instance_window() as u64);
    }

    /// Drains gossip's send queues, encoding each distinct message once,
    /// and hands `(peer, frame)` to `send`, which reports whether the link
    /// accepted the frame.
    pub fn ship(&mut self, mut send: impl FnMut(NodeId, Bytes) -> bool) {
        {
            let _s = self.probe.span(Op::TakeOutgoing);
            self.gossip.take_outgoing_shared_into(&mut self.outgoing);
        }
        if self.outgoing.is_empty() {
            return;
        }
        let mut outgoing = std::mem::take(&mut self.outgoing);
        for (peer, msg) in &outgoing {
            let key = Arc::as_ptr(msg);
            let frame = match self.frames.get(&key) {
                Some(frame) => frame.clone(),
                None => {
                    let frame = {
                        let _s = self.probe.span(Op::Encode);
                        msg.encode_into(&mut self.encode_buf);
                        Bytes::from(&self.encode_buf[..])
                    };
                    self.counts.frames_encoded += 1;
                    self.counts.bytes_encoded += frame.len() as u64;
                    self.frames.insert(key, frame.clone());
                    frame
                }
            };
            let len = frame.len() as u64;
            if send(*peer, frame) {
                self.counts.frames_out += 1;
                self.counts.bytes_out += len;
            } else {
                self.counts.frames_refused += 1;
            }
        }
        // The handles die with `outgoing`, after which their addresses may
        // be reused: the cache is valid for this call only.
        self.frames.clear();
        outgoing.clear();
        self.outgoing = outgoing;
        self.counts.cache_occupancy_max = self
            .counts
            .cache_occupancy_max
            .max(self.gossip.cache_occupancy() as u64);
    }
}
