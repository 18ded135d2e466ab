//! Trace replay: how a trace file splits into runs and how a run's events
//! join. Every analyzer — [`crate::analysis`], [`crate::critical_path`],
//! the replay [`crate::ledger`] and `tracetool` — goes through this module.
//!
//! **File contract.** A trace file is a concatenation of runs, each
//! non-decreasing in `ts`. Writers guarantee it: the simulator sorts its
//! merged stream once in `cluster::collect`, and a live
//! [`SharedRing`](obs::SharedRing) takes each stamp under the ring lock, so
//! ring order is stamp order. `wan_paxos --trace` writes one run per setup;
//! each restarts its clock at zero and reuses message ids and
//! `(origin, seq)` pairs, so a timestamp going backwards starts the next
//! run ([`runs`]) and no join may cross it.
//!
//! **Join index.** [`RunIndex::build`] walks a run once, before any
//! consumer does: per-node rings are drained out of order, so within one
//! timestamp a wire id can be used (`gossip_sent`, `duplicate_dropped`)
//! before the event that declares its class or frame size. Consumers are
//! plain functions over `(run, &RunIndex)`; each field documents whether
//! its first or its last record wins.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use obs::ledger::CLASS_UNCLASSIFIED;
use obs::{Event, SpanTracker, TimedEvent, TraceParseError};
use semantic_gossip::hash::MixState;
use semantic_gossip::plumtree::CONTROL_CLASSES;

/// A malformed trace line: where and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub error: TraceParseError,
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.error)
    }
}

impl std::error::Error for AnalyzeError {}

/// Parses a JSONL trace, one [`TimedEvent`] per line.
///
/// # Errors
///
/// Returns the first malformed line (blank lines are not tolerated: a
/// trace is exactly one event per line).
pub fn parse_jsonl(input: &str) -> Result<Vec<TimedEvent>, AnalyzeError> {
    input
        .lines()
        .enumerate()
        .map(|(i, line)| {
            TimedEvent::from_json(line).map_err(|error| AnalyzeError { line: i + 1, error })
        })
        .collect()
}

/// Splits a trace into its runs (see the module docs for the contract).
pub fn runs(events: &[TimedEvent]) -> impl Iterator<Item = &[TimedEvent]> {
    events.chunk_by(|prev, next| next.at >= prev.at)
}

/// Position of a `wire_frame` kind in [`CONTROL_CLASSES`] (IHAVE, IWANT,
/// GRAFT, PRUNE); `None` for payload frames.
pub fn control_class(kind: &str) -> Option<usize> {
    CONTROL_CLASSES.iter().position(|c| *c == kind)
}

/// A `wire_tagged` record: the consensus identity a broadcast origin
/// declared for one of its wire ids.
#[derive(Debug, Clone, Copy)]
pub struct Tag {
    /// Broadcast instant at the origin.
    pub at: u64,
    /// The broadcast origin.
    pub node: u32,
    /// Wire message id.
    pub msg: u64,
    /// The instance the message is about.
    pub instance: u64,
    /// The carried value's `(origin, seq)`.
    pub value: (u32, u64),
}

/// One hop of a first-reception chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reception {
    /// Sending node.
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// When `to` first received the id.
    pub at: u64,
}

/// The first `decided` event of an instance.
#[derive(Debug, Clone, Copy)]
pub struct Decision {
    /// The first node to decide.
    pub node: u32,
    /// When it decided.
    pub at: u64,
    /// The decided value's `(origin, seq)`.
    pub value: (u32, u64),
}

/// Everything a run's consumers join across, built in one walk.
///
/// The tables take millions of small integer keys per run, so they use the
/// workspace's seeded multiply hasher instead of SipHash (a third off the
/// build on a 6.6 M-event trace).
#[derive(Debug, Default)]
pub struct RunIndex<'a> {
    /// Distinct nodes appearing in the run.
    pub nodes: BTreeSet<u32>,
    /// First reception per `(wire msg, node)` → `(from, at)`. The first
    /// reception is what causes the local delivery and the forwarding, so
    /// following `from` pointers reconstructs the causal path ([`chain`]).
    ///
    /// [`chain`]: RunIndex::chain
    pub received: HashMap<(u64, u32), (u32, u64), MixState>,
    /// First delivery per `(wire msg, node)`.
    pub delivered: HashMap<(u64, u32), u64, MixState>,
    /// First send per `(wire msg, from, to)`.
    pub sent: HashMap<(u64, u32, u32), u64, MixState>,
    /// Message class per wire id, from `wire_tagged` declarations and
    /// non-empty inline `wire_frame` kinds; the last record wins (all
    /// records of one id agree, so which one wins is immaterial).
    class: HashMap<u64, &'a str, MixState>,
    /// First `ClientValue`/`Phase2a`/`Phase2b` tag per `(wire msg, origin)`
    /// → broadcast instant.
    pub tagged_at: HashMap<(u64, u32), u64, MixState>,
    /// First `ClientValue` tag per value.
    pub forwards: HashMap<(u32, u64), Tag, MixState>,
    /// First `Phase2a` tag per `(instance, value)`.
    pub proposals: HashMap<(u64, (u32, u64)), Tag, MixState>,
    /// Every `Phase2b` tag per instance, in trace order.
    pub votes: HashMap<u64, Vec<Tag>, MixState>,
    /// Frame size per wire id: the first byte-carrying payload send.
    frame_size: HashMap<u64, u64, MixState>,
    /// First milestone of each value (submit, 2a, quorum, decided,
    /// ordered), on whichever node it happened.
    pub spans: SpanTracker,
    /// First `value_submitted` per value → `(node, at)`.
    pub submitted: HashMap<(u32, u64), (u32, u64), MixState>,
    /// First `decided` per instance, in instance order.
    pub decided: BTreeMap<u64, Decision>,
    /// First `quorum_reached` per `(instance, node)`.
    pub quorum: HashMap<(u64, u32), u64, MixState>,
    /// First `ordered_delivered` per `(instance, node)`.
    pub ordered: HashMap<(u64, u32), u64, MixState>,
    /// Time between the run's first and last event.
    pub duration_ns: u64,
}

impl<'a> RunIndex<'a> {
    /// Indexes one run (a slice yielded by [`runs`]).
    pub fn build(run: &'a [TimedEvent]) -> Self {
        let mut ix = RunIndex::default();
        if let (Some(first), Some(last)) = (run.first(), run.last()) {
            ix.duration_ns = last.at.saturating_sub(first.at);
        }
        for timed in run {
            let at = timed.at;
            ix.nodes.insert(timed.event.node());
            ix.spans.observe(timed);
            match &timed.event {
                Event::ValueSubmitted { node, origin, seq } => {
                    ix.submitted.entry((*origin, *seq)).or_insert((*node, at));
                }
                Event::GossipReceived { node, from, msg } => {
                    ix.received.entry((*msg, *node)).or_insert((*from, at));
                }
                Event::GossipDelivered { node, msg } => {
                    ix.delivered.entry((*msg, *node)).or_insert(at);
                }
                Event::GossipSent { node, to, msg } => {
                    ix.sent.entry((*msg, *node, *to)).or_insert(at);
                }
                Event::WireTagged {
                    node,
                    msg,
                    kind,
                    instance,
                    origin,
                    seq,
                } => {
                    ix.class.insert(*msg, kind);
                    let tag = Tag {
                        at,
                        node: *node,
                        msg: *msg,
                        instance: *instance,
                        value: (*origin, *seq),
                    };
                    match kind.as_str() {
                        "ClientValue" => {
                            ix.forwards.entry(tag.value).or_insert(tag);
                        }
                        "Phase2a" => {
                            ix.proposals.entry((tag.instance, tag.value)).or_insert(tag);
                        }
                        "Phase2b" => ix.votes.entry(tag.instance).or_default().push(tag),
                        _ => continue,
                    }
                    ix.tagged_at.entry((*msg, *node)).or_insert(at);
                }
                Event::WireFrame {
                    msg, kind, bytes, ..
                } => {
                    if !kind.is_empty() {
                        ix.class.insert(*msg, kind);
                    }
                    if *msg != 0 && control_class(kind).is_none() {
                        ix.frame_size.entry(*msg).or_insert(*bytes);
                    }
                }
                Event::FrameShared { msg, bytes, .. } if *msg != 0 => {
                    ix.frame_size.entry(*msg).or_insert(*bytes);
                }
                Event::Decided {
                    node,
                    instance,
                    origin,
                    seq,
                } => {
                    ix.decided.entry(*instance).or_insert(Decision {
                        node: *node,
                        at,
                        value: (*origin, *seq),
                    });
                }
                Event::QuorumReached { node, instance, .. } => {
                    ix.quorum.entry((*instance, *node)).or_insert(at);
                }
                Event::OrderedDelivered { node, instance, .. } => {
                    ix.ordered.entry((*instance, *node)).or_insert(at);
                }
                _ => {}
            }
        }
        ix
    }

    /// The message class of a wire id, [`CLASS_UNCLASSIFIED`] when nothing
    /// in the run declares it (e.g. its tag was evicted from a bounded
    /// trace ring).
    pub fn class_of(&self, msg: u64) -> &'a str {
        self.class.get(&msg).copied().unwrap_or(CLASS_UNCLASSIFIED)
    }

    /// The frame size of a wire id, 0 when no byte-carrying send of it was
    /// traced.
    pub fn frame_size(&self, msg: u64) -> u64 {
        self.frame_size.get(&msg).copied().unwrap_or(0)
    }

    /// Walks wire message `msg`'s first-reception chain back from `dest`
    /// and returns the hops origin-first. With `origin` given the chain
    /// must end there; without, it ends at the first node with no recorded
    /// reception of the id. `None` when the chain breaks before `origin`
    /// (the message changed wire identity mid-path — aggregation — or the
    /// trace is truncated) or runs in a cycle (inconsistent trace).
    ///
    /// Aggregated messages travel under fresh ids, so their parts resolve
    /// to the aggregation point: chains are causal per wire id.
    pub fn chain(&self, msg: u64, origin: Option<u32>, dest: u32) -> Option<Vec<Reception>> {
        let mut hops = Vec::new();
        let mut cur = dest;
        while origin != Some(cur) {
            match self.received.get(&(msg, cur)) {
                Some(&(from, at)) => {
                    hops.push(Reception { from, to: cur, at });
                    if hops.len() > self.nodes.len() + 1 {
                        return None;
                    }
                    cur = from;
                }
                None if origin.is_none() => break,
                None => return None,
            }
        }
        hops.reverse();
        Some(hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn te(at: u64, event: Event) -> TimedEvent {
        TimedEvent { at, event }
    }

    #[test]
    fn a_timestamp_going_backwards_starts_the_next_run() {
        let mark = |at| te(at, Event::Crashed { node: 0 });
        let events = [mark(5), mark(5), mark(9), mark(2), mark(3), mark(0)];
        let lens: Vec<usize> = runs(&events).map(<[_]>::len).collect();
        assert_eq!(lens, vec![3, 2, 1]);
        assert_eq!(runs(&[]).count(), 0);
        assert_eq!(RunIndex::build(&events[..3]).duration_ns, 4);
    }

    #[test]
    fn chains_follow_first_receptions_and_stop_at_cycles() {
        let recv = |at, node, from| te(at, Event::GossipReceived { node, from, msg: 5 });
        // 0 → 1 → 2, then a later direct copy 0 → 2 that must not win.
        let events = [recv(10, 1, 0), recv(20, 2, 1), recv(30, 2, 0)];
        let ix = RunIndex::build(&events);
        let hops = ix.chain(5, Some(0), 2).unwrap();
        assert_eq!(
            hops,
            vec![
                Reception {
                    from: 0,
                    to: 1,
                    at: 10
                },
                Reception {
                    from: 1,
                    to: 2,
                    at: 20
                }
            ]
        );
        // Without a known origin the walk ends where receptions do.
        assert_eq!(ix.chain(5, None, 2).unwrap().len(), 2);
        assert_eq!(ix.chain(5, None, 0).unwrap().len(), 0);
        // A chain that never reaches the named origin is broken.
        assert_eq!(ix.chain(5, Some(7), 2), None);
        assert_eq!(ix.chain(6, Some(0), 2), None);
        // 1 ← 2 ← 1: inconsistent, cut off by the cycle guard.
        let events = [recv(10, 1, 2), recv(10, 2, 1)];
        assert_eq!(RunIndex::build(&events).chain(5, None, 1), None);
    }
}
