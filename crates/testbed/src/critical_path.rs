//! Critical-path analysis: the causal message chain gating each decision.
//!
//! For every decided instance in a JSONL trace the analyzer reconstructs:
//!
//! 1. the client submission and the `ClientValue` gossip chain that
//!    carried it to the coordinator,
//! 2. the coordinator's `Phase2a` broadcast and its chain to the
//!    **critical voter** — the acceptor whose vote completed the quorum
//!    at the first node to decide,
//! 3. that vote's `Phase2b` chain back to the deciding node, and
//! 4. the decide → in-order-delivery tail.
//!
//! Chains are joined through the run's [`RunIndex`]: `wire_tagged` records
//! (broadcast origin, wire message id, protocol kind, instance and value
//! identity) name the messages, [`RunIndex::chain`] walks them along each
//! node's *first* reception. Each hop splits into **queue wait** (message
//! registered at the relay → handed to the wire) and **transit** (wire →
//! reception); whatever a leg's milestones span beyond its resolved hops
//! is relay processing. Aggregated votes travel under fresh wire ids that
//! carry no tag, so their chains may be unresolvable — such legs fall
//! back to milestone-only attribution and are flagged, never guessed.

use obs::TimedEvent;

use crate::replay::{runs, Decision, RunIndex, Tag};
use crate::report::Table;

/// One resolved gossip hop of a leg.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Sending node.
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// Registered at `from` → handed to the wire (send-queue wait).
    pub queue_ns: u64,
    /// Handed to the wire → received at `to`.
    pub transit_ns: u64,
}

/// One leg of the critical path: a tagged broadcast traveling from its
/// origin to the node where it gates progress.
#[derive(Debug, Clone)]
pub struct Leg {
    /// What traveled (the wire tag's protocol kind, e.g. `Phase2a`).
    pub kind: String,
    /// Broadcast origin.
    pub from: u32,
    /// The node whose progress the leg gates.
    pub to: u32,
    /// Wire message id at the origin.
    pub msg: u64,
    /// Broadcast at origin → delivery at `to`, when both ends were traced.
    pub span_ns: Option<u64>,
    /// The reception chain, origin first. Empty when `from == to`.
    pub hops: Vec<Hop>,
    /// Whether the chain walk reached the origin. `false` means the
    /// message changed wire identity mid-path (aggregation) or the trace
    /// is truncated; `span_ns` then cannot be split into hops.
    pub resolved: bool,
}

impl Leg {
    /// Queue wait summed over resolved hops.
    pub fn queue_ns(&self) -> u64 {
        self.hops.iter().map(|h| h.queue_ns).sum()
    }

    /// Transit summed over resolved hops.
    pub fn transit_ns(&self) -> u64 {
        self.hops.iter().map(|h| h.transit_ns).sum()
    }

    /// Span time not explained by hop queue/transit: processing at
    /// intermediate relays (decode, dedup, re-enqueue).
    pub fn relay_ns(&self) -> u64 {
        self.span_ns
            .unwrap_or(0)
            .saturating_sub(self.queue_ns() + self.transit_ns())
    }
}

/// Where one decision's latency went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Send-queue wait summed over every resolved hop.
    pub queue_ns: u64,
    /// Wire transit summed over every resolved hop.
    pub transit_ns: u64,
    /// Relay processing inside resolved legs.
    pub relay_ns: u64,
    /// Processing at the path's pinned nodes: coordinator (arrival →
    /// 2a broadcast), critical voter (2a arrival → vote broadcast) and
    /// decider (vote arrival → quorum → decided).
    pub processing_ns: u64,
    /// Decided → delivered in instance order (waiting out the log prefix).
    pub ordering_ns: u64,
    /// Time inside legs whose chain did not resolve (unattributable).
    pub unresolved_ns: u64,
}

/// The critical path of one decided instance.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// 1-based run index within the trace file.
    pub run: usize,
    /// The instance.
    pub instance: u64,
    /// The decided value's identity `(origin, seq)`.
    pub value: (u32, u64),
    /// Node where the value was submitted, when traced.
    pub submit_node: Option<u32>,
    /// Submission instant.
    pub submitted_at: Option<u64>,
    /// The coordinator that proposed the value (its `Phase2a` broadcast).
    pub coordinator: Option<u32>,
    /// `ClientValue` delivery at the coordinator.
    pub forwarded_at: Option<u64>,
    /// `Phase2a` broadcast instant at the coordinator.
    pub proposed_at: Option<u64>,
    /// The critical voter: last vote to arrive at the decider within the
    /// quorum.
    pub voter: Option<u32>,
    /// `Phase2a` delivery at the critical voter.
    pub voter_heard_at: Option<u64>,
    /// The critical vote's broadcast instant at the voter.
    pub voted_at: Option<u64>,
    /// The first node to decide the instance.
    pub decider: u32,
    /// The critical vote's delivery at the decider.
    pub vote_arrived_at: Option<u64>,
    /// `QuorumReached` at the decider.
    pub quorum_at: Option<u64>,
    /// `Decided` at the decider (the path's terminal milestone).
    pub decided_at: u64,
    /// In-order delivery at the decider, when it happened.
    pub ordered_at: Option<u64>,
    /// The message legs, in causal order (forward, 2a, 2b; each optional).
    pub legs: Vec<Leg>,
}

impl CriticalPath {
    /// Submit → decided, when the submission was traced.
    pub fn decide_ns(&self) -> Option<u64> {
        self.submitted_at.map(|s| self.decided_at.saturating_sub(s))
    }

    /// Splits the decision latency into queue / transit / relay /
    /// processing / ordering / unresolved buckets.
    pub fn attribution(&self) -> Attribution {
        let mut a = Attribution::default();
        for leg in &self.legs {
            if leg.resolved {
                a.queue_ns += leg.queue_ns();
                a.transit_ns += leg.transit_ns();
                a.relay_ns += leg.relay_ns();
            } else {
                a.unresolved_ns += leg.span_ns.unwrap_or(0);
            }
        }
        let gaps = [
            (self.forwarded_at.or(self.submitted_at), self.proposed_at),
            (self.voter_heard_at, self.voted_at),
            (self.vote_arrived_at, self.quorum_at),
            (self.quorum_at, Some(self.decided_at)),
        ];
        for (from, to) in gaps {
            if let (Some(f), Some(t)) = (from, to) {
                a.processing_ns += t.saturating_sub(f);
            }
        }
        if let Some(ordered) = self.ordered_at {
            a.ordering_ns = ordered.saturating_sub(self.decided_at);
        }
        a
    }

    /// Whether every leg's chain resolved down to hops.
    pub fn fully_resolved(&self) -> bool {
        self.legs.iter().all(|l| l.resolved)
    }
}

/// Builds the leg of tagged broadcast `tag` from its origin to `dest`.
/// `None` when origin and destination coincide (local delivery).
fn leg(ix: &RunIndex, kind: &str, tag: &Tag, dest: u32) -> Option<Leg> {
    let (msg, origin) = (tag.msg, tag.node);
    if origin == dest {
        return None;
    }
    // The broadcast instant: the first tag of this wire id at its origin.
    let tagged_at = ix.tagged_at.get(&(msg, origin)).copied();
    let span_ns = match (tagged_at, ix.delivered.get(&(msg, dest))) {
        (Some(start), Some(&end)) => Some(end.saturating_sub(start)),
        _ => None,
    };
    let chain = ix.chain(msg, Some(origin), dest);
    let resolved = chain.is_some() && span_ns.is_some();
    let hops = chain.unwrap_or_default().into_iter().map(|r| {
        // Registered at `from`: its own reception, or (at the origin) the
        // tagged broadcast itself.
        let reg_at = ix
            .received
            .get(&(msg, r.from))
            .map(|&(_, at)| at)
            .or(tagged_at.filter(|_| r.from == origin));
        let sent_at = ix.sent.get(&(msg, r.from, r.to)).copied();
        let (queue_ns, transit_ns) = match (reg_at, sent_at) {
            (Some(reg), Some(sent)) => {
                (sent.saturating_sub(reg), r.at.saturating_sub(sent.max(reg)))
            }
            (Some(reg), None) => (0, r.at.saturating_sub(reg)),
            (None, Some(sent)) => (0, r.at.saturating_sub(sent)),
            (None, None) => (0, 0),
        };
        Hop {
            from: r.from,
            to: r.to,
            queue_ns,
            transit_ns,
        }
    });
    Some(Leg {
        kind: kind.to_string(),
        from: origin,
        to: dest,
        msg,
        span_ns,
        hops: hops.collect(),
        resolved,
    })
}

/// Stitches the critical path of every decided instance in the trace.
/// Files may concatenate runs (see [`crate::replay`]); instances are
/// reported per run, in instance order.
pub fn critical_paths(events: &[TimedEvent]) -> Vec<CriticalPath> {
    let mut out = Vec::new();
    for (i, run) in runs(events).enumerate() {
        run_paths(i + 1, &RunIndex::build(run), &mut out);
    }
    out
}

fn run_paths(run: usize, ix: &RunIndex, out: &mut Vec<CriticalPath>) {
    for (&instance, decision) in &ix.decided {
        let Decision {
            node: decider,
            at: decided_at,
            value,
        } = *decision;
        let (submit_node, submitted_at) = match ix.submitted.get(&value) {
            Some(&(node, at)) => (Some(node), Some(at)),
            None => (None, None),
        };

        let mut legs = Vec::new();

        // The proposal: the first Phase2a broadcast carrying this value
        // in this instance's decision. Its origin is the coordinator.
        let proposal = ix.proposals.get(&(instance, value));
        let coordinator = proposal.map(|t| t.node);
        let proposed_at = proposal.map(|t| t.at);

        // The forward leg: the ClientValue chain to the coordinator.
        // Absent when the submitter coordinates (proposed directly).
        let mut forwarded_at = None;
        if let (Some(coord), Some(cv)) = (coordinator, ix.forwards.get(&value)) {
            forwarded_at = ix.delivered.get(&(cv.msg, coord)).copied();
            legs.extend(leg(ix, "ClientValue", cv, coord));
        }
        if forwarded_at.is_none() && submit_node == coordinator {
            forwarded_at = submitted_at;
        }

        // The critical voter: among this instance's tagged votes, the one
        // whose delivery at the decider was latest while still inside the
        // quorum (at or before QuorumReached).
        let quorum_at = ix.quorum.get(&(instance, decider)).copied();
        let vote_cutoff = quorum_at.unwrap_or(decided_at);
        let critical = ix
            .votes
            .get(&instance)
            .into_iter()
            .flatten()
            .filter_map(|t| {
                let arrival = if t.node == decider {
                    t.at // the decider's own vote: counted as it is cast
                } else {
                    ix.delivered.get(&(t.msg, decider)).copied()?
                };
                (arrival <= vote_cutoff).then_some((arrival, t))
            })
            .max_by_key(|&(arrival, _)| arrival);

        let mut voter = None;
        let mut voter_heard_at = None;
        let mut voted_at = None;
        let mut vote_arrived_at = None;
        if let Some((arrival, vote)) = critical {
            voter = Some(vote.node);
            voted_at = Some(vote.at);
            vote_arrived_at = Some(arrival);
            // The 2a chain to the voter gates the vote.
            if let Some(p) = proposal {
                voter_heard_at = if vote.node == p.node {
                    Some(p.at)
                } else {
                    ix.delivered.get(&(p.msg, vote.node)).copied()
                };
                legs.extend(leg(ix, "Phase2a", p, vote.node));
            }
            // The vote's chain back to the decider.
            legs.extend(leg(ix, "Phase2b", vote, decider));
        }

        out.push(CriticalPath {
            run,
            instance,
            value,
            submit_node,
            submitted_at,
            coordinator,
            forwarded_at,
            proposed_at,
            voter,
            voter_heard_at,
            voted_at,
            decider,
            vote_arrived_at,
            quorum_at,
            decided_at,
            ordered_at: ix.ordered.get(&(instance, decider)).copied(),
            legs,
        })
    }
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn opt_gap_ms(from: Option<u64>, to: Option<u64>) -> String {
    match (from, to) {
        (Some(f), Some(t)) => format!("{} ms", ms(t.saturating_sub(f))),
        _ => "-".to_string(),
    }
}

/// The per-instance summary: milestones and latency attribution.
pub fn summary_table(paths: &[CriticalPath]) -> Table {
    let runs = paths.last().map_or(1, |p| p.run);
    let mut headers = vec![
        "instance",
        "value",
        "path",
        "decide_ms",
        "queue_ms",
        "transit_ms",
        "relay_ms",
        "proc_ms",
        "order_ms",
        "flags",
    ];
    if runs > 1 {
        headers.insert(0, "run");
    }
    let mut t = Table::new(headers);
    for p in paths {
        let a = p.attribution();
        let fmt_node = |n: Option<u32>| n.map_or("?".to_string(), |n| n.to_string());
        let mut row = vec![
            p.instance.to_string(),
            format!("{}:{}", p.value.0, p.value.1),
            format!(
                "{}>{}>{}>{}",
                fmt_node(p.submit_node),
                fmt_node(p.coordinator),
                fmt_node(p.voter),
                p.decider
            ),
            p.decide_ns().map_or("-".to_string(), ms),
            ms(a.queue_ns),
            ms(a.transit_ns),
            ms(a.relay_ns),
            ms(a.processing_ns),
            p.ordered_at.map_or("-".to_string(), |_| ms(a.ordering_ns)),
            if p.fully_resolved() {
                String::new()
            } else {
                format!("unresolved {}", ms(a.unresolved_ns))
            },
        ];
        if runs > 1 {
            row.insert(0, p.run.to_string());
        }
        t.row(row);
    }
    t
}

/// Renders one path's hop-by-hop breakdown.
pub fn render_detail(p: &CriticalPath) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== instance {} (run {}) ==", p.instance, p.run);
    let _ = writeln!(out, "value       {}:{}", p.value.0, p.value.1);
    match (p.submit_node, p.submitted_at) {
        (Some(node), Some(at)) => {
            let _ = writeln!(out, "submitted   node {node}  at {:.6} s", at as f64 / 1e9);
        }
        _ => {
            let _ = writeln!(out, "submitted   (not traced)");
        }
    }
    let leg_lines = |out: &mut String, leg: &Leg| {
        let span = leg
            .span_ns
            .map_or("-".to_string(), |ns| format!("{} ms", ms(ns)));
        let _ = writeln!(
            out,
            "{:<11} {} {} -> {}  {span}{}",
            "chain",
            leg.kind,
            leg.from,
            leg.to,
            if leg.resolved {
                String::new()
            } else {
                "  [unresolved]".to_string()
            },
        );
        for hop in &leg.hops {
            let _ = writeln!(
                out,
                "    hop {} -> {}   queue {} ms   transit {} ms",
                hop.from,
                hop.to,
                ms(hop.queue_ns),
                ms(hop.transit_ns)
            );
        }
        if leg.resolved && leg.relay_ns() > 0 {
            let _ = writeln!(out, "    relay processing {} ms", ms(leg.relay_ns()));
        }
    };
    for leg in p.legs.iter().filter(|l| l.kind == "ClientValue") {
        leg_lines(&mut out, leg);
    }
    match p.coordinator {
        Some(c) => {
            let _ = writeln!(
                out,
                "propose     node {c} broadcasts 2a  +{} processing",
                opt_gap_ms(p.forwarded_at.or(p.submitted_at), p.proposed_at)
            );
        }
        None => {
            let _ = writeln!(out, "propose     (no tagged phase2a)");
        }
    }
    for leg in p.legs.iter().filter(|l| l.kind == "Phase2a") {
        leg_lines(&mut out, leg);
    }
    match p.voter {
        Some(v) => {
            let _ = writeln!(
                out,
                "vote        node {v} casts 2b  +{} processing",
                opt_gap_ms(p.voter_heard_at, p.voted_at)
            );
        }
        None => {
            let _ = writeln!(out, "vote        (no tagged phase2b resolved)");
        }
    }
    for leg in p.legs.iter().filter(|l| l.kind == "Phase2b") {
        leg_lines(&mut out, leg);
    }
    let _ = writeln!(
        out,
        "quorum      node {}  +{} processing",
        p.decider,
        opt_gap_ms(p.vote_arrived_at, p.quorum_at)
    );
    let _ = writeln!(
        out,
        "decided     node {}  {} after submit",
        p.decider,
        p.decide_ns()
            .map_or("-".to_string(), |ns| format!("{} ms", ms(ns)))
    );
    match p.ordered_at {
        Some(at) => {
            let _ = writeln!(
                out,
                "ordered     node {}  +{} ms ordering wait",
                p.decider,
                ms(at.saturating_sub(p.decided_at))
            );
        }
        None => {
            let _ = writeln!(
                out,
                "ordered     never (instance decided but not delivered)"
            );
        }
    }
    out
}

/// The full critical-path report: summary table plus hop-by-hop detail
/// for the slowest decision (or the explicitly selected instance).
pub fn report(paths: &[CriticalPath], instance: Option<u64>) -> String {
    if paths.is_empty() {
        return "no decided instances in this trace\n".to_string();
    }
    let mut out = String::from("== critical paths (per decided instance) ==\n");
    out.push_str(&summary_table(paths).render());
    let detail: Vec<&CriticalPath> = match instance {
        Some(i) => paths.iter().filter(|p| p.instance == i).collect(),
        None => paths
            .iter()
            .max_by_key(|p| p.decide_ns().unwrap_or(0))
            .into_iter()
            .collect(),
    };
    if instance.is_some() && detail.is_empty() {
        out.push_str("\nselected instance not decided in this trace\n");
    }
    for p in detail {
        out.push('\n');
        out.push_str(&render_detail(p));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = include_str!("../fixtures/critical_path.jsonl");
    const GOLDEN: &str = include_str!("../fixtures/critical_path.golden");

    fn fixture_events() -> Vec<TimedEvent> {
        FIXTURE
            .lines()
            .map(|l| TimedEvent::from_json(l).expect("valid fixture line"))
            .collect()
    }

    #[test]
    fn golden_fixture_reproduces_the_hop_by_hop_breakdown() {
        let paths = critical_paths(&fixture_events());
        let rendered = report(&paths, None);
        assert_eq!(rendered, GOLDEN, "got:\n{rendered}");
    }

    #[test]
    fn fixture_path_milestones_and_attribution() {
        let paths = critical_paths(&fixture_events());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.instance, 7);
        assert_eq!(p.value, (1, 4));
        assert_eq!(p.submit_node, Some(1));
        assert_eq!(p.coordinator, Some(0));
        // Voter 3's vote lands after voter 2's, completing the quorum:
        // 3 is critical even though 2 voted first.
        assert_eq!(p.voter, Some(3));
        assert_eq!(p.decider, 0);
        assert!(p.fully_resolved());
        let a = p.attribution();
        // Forward leg: queue 100us, transit 800us. 2a leg: queue 300us,
        // transit 700us over 0->2, then 0/400us over 2->3 with 100us
        // relay. 2b leg: queue 0, transit 1200us.
        assert_eq!(a.queue_ns, (100 + 300) * 1_000);
        assert_eq!(a.transit_ns, (800 + 700 + 400 + 1200) * 1_000);
        assert_eq!(a.relay_ns, 100 * 1_000);
        // Coordinator 200us + voter 150us + quorum 50us + decide 0.
        assert_eq!(a.processing_ns, (200 + 150 + 50) * 1_000);
        assert_eq!(a.ordering_ns, 500 * 1_000);
        assert_eq!(a.unresolved_ns, 0);
        assert_eq!(p.decide_ns(), Some(4_000_000));
    }

    #[test]
    fn local_decision_has_no_legs() {
        use obs::Event::*;
        // Node 0 submits at itself while coordinating and votes alone:
        // everything is local, no gossip legs.
        let events: Vec<TimedEvent> = [
            (
                100,
                ValueSubmitted {
                    node: 0,
                    origin: 0,
                    seq: 1,
                },
            ),
            (
                200,
                WireTagged {
                    node: 0,
                    msg: 11,
                    kind: "Phase2a".into(),
                    instance: 0,
                    origin: 0,
                    seq: 1,
                },
            ),
            (
                300,
                WireTagged {
                    node: 0,
                    msg: 12,
                    kind: "Phase2b".into(),
                    instance: 0,
                    origin: 0,
                    seq: 1,
                },
            ),
            (
                400,
                QuorumReached {
                    node: 0,
                    instance: 0,
                    origin: 0,
                    seq: 1,
                },
            ),
            (
                400,
                Decided {
                    node: 0,
                    instance: 0,
                    origin: 0,
                    seq: 1,
                },
            ),
        ]
        .into_iter()
        .map(|(at, event)| TimedEvent { at, event })
        .collect();
        let paths = critical_paths(&events);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert!(p.legs.is_empty());
        assert_eq!(p.voter, Some(0));
        assert_eq!(p.decide_ns(), Some(300));
        let a = p.attribution();
        assert_eq!(a.transit_ns, 0);
        // 100 coordinator + 100 voter + 0 quorum->decided; the vote
        // arrival equals its cast, so decider processing is 100.
        assert_eq!(a.processing_ns, 300);
    }

    #[test]
    fn aggregated_vote_chain_falls_back_to_unresolved() {
        use obs::Event::*;
        // Voter 1's vote (msg 20) is absorbed into an untagged aggregate
        // mid-path: the decider 0 delivers part 20 without ever receiving
        // wire id 20, so the 2b leg cannot resolve into hops.
        let events: Vec<TimedEvent> = [
            (
                100,
                WireTagged {
                    node: 0,
                    msg: 10,
                    kind: "Phase2a".into(),
                    instance: 3,
                    origin: 0,
                    seq: 9,
                },
            ),
            (
                150,
                GossipSent {
                    node: 0,
                    to: 1,
                    msg: 10,
                },
            ),
            (
                200,
                GossipReceived {
                    node: 1,
                    from: 0,
                    msg: 10,
                },
            ),
            (200, GossipDelivered { node: 1, msg: 10 }),
            (
                300,
                WireTagged {
                    node: 1,
                    msg: 20,
                    kind: "Phase2b".into(),
                    instance: 3,
                    origin: 0,
                    seq: 9,
                },
            ),
            // The aggregate (msg 99, untagged) carries the vote; the
            // decider disaggregates and delivers part 20.
            (
                600,
                GossipReceived {
                    node: 0,
                    from: 1,
                    msg: 99,
                },
            ),
            (600, GossipDelivered { node: 0, msg: 20 }),
            (
                700,
                QuorumReached {
                    node: 0,
                    instance: 3,
                    origin: 0,
                    seq: 9,
                },
            ),
            (
                700,
                Decided {
                    node: 0,
                    instance: 3,
                    origin: 0,
                    seq: 9,
                },
            ),
        ]
        .into_iter()
        .map(|(at, event)| TimedEvent { at, event })
        .collect();
        let paths = critical_paths(&events);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.voter, Some(1));
        let vote_leg = p.legs.iter().find(|l| l.kind == "Phase2b").unwrap();
        assert!(!vote_leg.resolved);
        assert_eq!(vote_leg.span_ns, Some(300));
        assert!(vote_leg.hops.is_empty());
        let a = p.attribution();
        assert_eq!(a.unresolved_ns, 300);
        // The 2a leg still resolves: one hop, queue 50, transit 50.
        let p2a = p.legs.iter().find(|l| l.kind == "Phase2a").unwrap();
        assert!(p2a.resolved);
        assert_eq!(
            p2a.hops,
            vec![Hop {
                from: 0,
                to: 1,
                queue_ns: 50,
                transit_ns: 50
            }]
        );
    }

    #[test]
    fn concatenated_runs_are_kept_apart() {
        let mut doubled = String::from(FIXTURE);
        doubled.push_str(FIXTURE);
        let events: Vec<TimedEvent> = doubled
            .lines()
            .map(|l| TimedEvent::from_json(l).unwrap())
            .collect();
        let paths = critical_paths(&events);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].run, 1);
        assert_eq!(paths[1].run, 2);
        assert_eq!(paths[0].decide_ns(), paths[1].decide_ns());
    }

    #[test]
    fn traced_cluster_run_yields_resolved_paths() {
        use crate::cluster::{run_cluster, ClusterParams, Setup};
        let mut params = ClusterParams::paper(13, Setup::Gossip)
            .with_rate(13.0)
            .with_seconds(1.0, 0.5);
        params.trace_capacity = 1 << 16;
        let m = run_cluster(&params);
        let events: Vec<TimedEvent> = m
            .trace_jsonl
            .as_ref()
            .unwrap()
            .lines()
            .map(|l| TimedEvent::from_json(l).unwrap())
            .collect();
        let paths = critical_paths(&events);
        assert!(!paths.is_empty(), "a traced run must yield paths");
        // Every path ends in a real decision, and under plain gossip
        // (no aggregation) the chains resolve into hops.
        let resolved = paths.iter().filter(|p| p.fully_resolved()).count();
        assert!(
            resolved * 2 > paths.len(),
            "most chains should resolve: {resolved}/{}",
            paths.len()
        );
        // The report renders without panicking and names an instance.
        let text = report(&paths, None);
        assert!(text.contains("== instance "));
    }
}
