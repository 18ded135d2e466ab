//! A replicated key-value store: state machine replication over gossip
//! consensus — the application class the paper's introduction motivates.
//!
//! Each of seven replicas holds a `HashMap<String, String>` and applies the
//! totally ordered command stream that Paxos-over-Semantic-Gossip produces.
//! Clients issue `SET key value` and `DEL key` commands at *different*
//! replicas; because every replica applies the same sequence, all copies of
//! the store converge to the identical state — even though no replica is
//! directly connected to all others.
//!
//! Run with:
//! ```text
//! cargo run --example kv_store
//! ```

use std::collections::HashMap;

use gossip_consensus::obs::NoopObserver;
use gossip_consensus::prelude::*;
use gossip_consensus::testbed::SemanticPush;

/// A store command, encoded as a tiny line-based wire format.
#[derive(Debug, Clone, PartialEq)]
enum Cmd {
    Set(String, String),
    Del(String),
}

impl Cmd {
    fn encode(&self) -> Vec<u8> {
        match self {
            Cmd::Set(k, v) => format!("SET {k} {v}").into_bytes(),
            Cmd::Del(k) => format!("DEL {k}").into_bytes(),
        }
    }

    fn decode(bytes: &[u8]) -> Option<Cmd> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut parts = text.splitn(3, ' ');
        match (parts.next()?, parts.next(), parts.next()) {
            ("SET", Some(k), Some(v)) => Some(Cmd::Set(k.to_string(), v.to_string())),
            ("DEL", Some(k), None) => Some(Cmd::Del(k.to_string())),
            _ => None,
        }
    }
}

/// One replica: a consensus process (Semantic Gossip + Paxos) and the
/// application state machine it feeds.
struct Replica {
    node: NodeRuntime<SemanticPush<NoopObserver>>,
    store: HashMap<String, String>,
    applied: u64,
}

impl Replica {
    fn apply_ready(&mut self) {
        for (_group, slot) in self.node.drain_ordered() {
            if slot.duplicate {
                continue;
            }
            match Cmd::decode(slot.value.payload()).expect("well-formed command") {
                Cmd::Set(k, v) => {
                    self.store.insert(k, v);
                }
                Cmd::Del(k) => {
                    self.store.remove(&k);
                }
            }
            self.applied += 1;
        }
    }
}

fn main() {
    let n = 7;
    // A sparse random overlay: every replica talks to ~log2(n) peers.
    let overlay = {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        connected_k_out(n, paper_fanout(n), &mut rng, 100).expect("connected overlay")
    };

    let mut replicas: Vec<Replica> = (0..n)
        .map(|i| {
            let peers = overlay
                .neighbors(i)
                .iter()
                .map(|&p| NodeId::new(p as u32))
                .collect();
            let groups = vec![PaxosConfig::new(n)];
            Replica {
                node: NodeRuntime::semantic_gossip(
                    NodeId::new(i as u32),
                    peers,
                    groups,
                    Timers::default(),
                    || NoopObserver,
                ),
                store: HashMap::new(),
                applied: 0,
            }
        })
        .collect();

    // Everything happens at one instant of the host's clock: no timers fire.
    let now = 0;
    replicas[0].node.start_round(0, Round::ZERO, now);

    // Clients at different replicas; note the conflicting writes to "color"
    // — total order makes the outcome identical everywhere.
    let workload: Vec<(usize, Cmd)> = vec![
        (1, Cmd::Set("color".into(), "red".into())),
        (4, Cmd::Set("color".into(), "blue".into())),
        (2, Cmd::Set("shape".into(), "circle".into())),
        (6, Cmd::Set("size".into(), "xl".into())),
        (3, Cmd::Del("shape".into())),
        (5, Cmd::Set("weight".into(), "12kg".into())),
    ];
    for (seq, (replica, cmd)) in workload.iter().enumerate() {
        let value = Value::new(NodeId::new(*replica as u32), seq as u64, cmd.encode());
        println!("client at replica {replica}: {cmd:?}");
        replicas[*replica].node.submit(value, now);
    }

    // Carry frames between the replicas until nobody has anything to send.
    let mut frames = Vec::new();
    while replicas.iter().any(|r| r.node.has_outgoing()) {
        for i in 0..n {
            replicas[i].node.take_outgoing_into(&mut frames, now);
            for (peer, frame) in frames.drain(..) {
                replicas[peer.as_index()]
                    .node
                    .on_frame(NodeId::new(i as u32), frame, now);
            }
        }
    }
    for r in &mut replicas {
        r.apply_ready();
    }

    let reference = replicas[0].store.clone();
    println!(
        "\nfinal replicated state ({} commands applied):",
        replicas[0].applied
    );
    let mut entries: Vec<_> = reference.iter().collect();
    entries.sort();
    for (k, v) in entries {
        println!("  {k} = {v}");
    }
    for r in &replicas {
        assert_eq!(r.store, reference, "replica state diverged!");
        assert_eq!(r.applied, workload.len() as u64);
    }
    println!("\nall {n} replicas converged to the same state ✓");
    // Commands from different clients are concurrent: consensus picks ONE
    // order for the SET/DEL race on "shape" — whichever it is, every
    // replica agrees (checked above). Announce the outcome.
    match reference.get("shape") {
        Some(v) => println!("the race on \"shape\": SET (= {v}) was ordered after DEL"),
        None => println!("the race on \"shape\": DEL was ordered after SET"),
    }
}
