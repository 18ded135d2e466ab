//! The TCP host of a [`NodeRuntime`]: frames from a [`transport::Endpoint`]
//! in, frames out, timers from the wall clock.
//!
//! The simulator (`testbed::cluster`) and this module are the two hosts of
//! the same sans-IO runtime. What is specific to real sockets lives here
//! and nowhere else: decoding untrusted bytes (counted and dropped when
//! they are garbage), encoding each distinct message once per flush and
//! sharing the bytes across the peers it fans out to, looping back frames a
//! process addresses to itself, and sleeping until the runtime's next
//! deadline instead of polling.
//!
//! Any [`Substrate`] whose frames have a [`Wire`] encoding runs here —
//! push gossip with or without semantics, eager/lazy trees, direct
//! channels on a full mesh — with any number of consensus groups.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::time::{Duration, Instant};

use obs::{Event, SharedHistogram, SharedRing};
use overlay::Graph;
use semantic_gossip::{GossipItem, LinkFrame, MessageId, NodeId, Substrate, Wire};
use testbed::{frame_class, NodeRuntime, WireMsg};
use transport::{Bytes, Endpoint, EndpointConfig, PeerEvent};

/// Binds one endpoint per overlay node on loopback, dials every overlay
/// edge once (a connection carries both directions) and waits until every
/// endpoint sees all its neighbours.
///
/// # Errors
///
/// Returns the bind or dial error, or `TimedOut` if the handshakes do not
/// complete within ten seconds.
pub fn loopback_endpoints(overlay: &Graph, ring: Option<&SharedRing>) -> io::Result<Vec<Endpoint>> {
    let endpoints = (0..overlay.len() as u32)
        .map(|i| {
            let mut config = EndpointConfig::new(NodeId::new(i));
            if let Some(ring) = ring {
                config = config.with_observer(ring.clone());
            }
            Endpoint::bind(config, "127.0.0.1:0")
        })
        .collect::<io::Result<Vec<_>>>()?;
    for (a, b) in overlay.edges() {
        endpoints[a].dial(endpoints[b].local_addr())?;
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    for (i, e) in endpoints.iter().enumerate() {
        while e.peers().len() < overlay.degree(i) {
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "connection setup timed out",
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    Ok(endpoints)
}

/// Running totals of the send path. `encoded` counts each distinct
/// message's bytes once per flush, `sent` once per peer it fanned out to:
/// `sent / encoded` is the copy amplification the shared frames avoid.
/// `by_class` splits the sent bytes by frame class; the `cpu_*_ns` fields
/// accumulate wall time spent in the two hot sections of
/// [`LiveNode::step`].
#[derive(Debug, Default)]
pub struct WireCounters {
    /// Bytes serialized.
    pub encoded: u64,
    /// Bytes enqueued to peers.
    pub sent: u64,
    /// Bytes enqueued to peers, by Paxos message kind or control class.
    pub by_class: HashMap<&'static str, u64>,
    /// Nanoseconds spent encoding and enqueueing frames.
    pub cpu_transport_ns: u64,
    /// Nanoseconds spent inside the runtime (substrate and Paxos).
    pub cpu_runtime_ns: u64,
}

/// One process on a real network (see the [module docs](self)).
pub struct LiveNode<S: Substrate<WireMsg>> {
    id: NodeId,
    runtime: NodeRuntime<S>,
    endpoint: Endpoint,
    epoch: Instant,
    /// Receives one `frame_shared` event per distinct message and flush.
    trace: SharedRing,
    /// When set, every outgoing frame's size is recorded here.
    pub frame_bytes: Option<SharedHistogram>,
    wire: WireCounters,
    /// Undecodable or out-of-range frames received, per sending peer.
    decode_errors: BTreeMap<NodeId, u64>,
    outgoing: Vec<(NodeId, S::Frame)>,
    loopback: Vec<S::Frame>,
    encode_buf: Vec<u8>,
    /// Per flush: encoded bytes and fan-out of each distinct message.
    frame_cache: HashMap<MessageId, (Bytes, u64)>,
}

impl<S: Substrate<WireMsg>> LiveNode<S>
where
    S::Frame: Wire,
{
    /// Hosts `runtime` on `endpoint`. Pass a zero-capacity ring to record
    /// no trace.
    pub fn new(runtime: NodeRuntime<S>, endpoint: Endpoint, trace: SharedRing) -> Self {
        LiveNode {
            id: endpoint.node(),
            runtime,
            endpoint,
            epoch: Instant::now(),
            trace,
            frame_bytes: None,
            wire: WireCounters::default(),
            decode_errors: BTreeMap::new(),
            outgoing: Vec::new(),
            loopback: Vec::new(),
            encode_buf: Vec::new(),
            frame_cache: HashMap::new(),
        }
    }

    /// Nanoseconds since this node started — the clock every runtime call
    /// is stamped with.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The hosted runtime.
    pub fn runtime(&self) -> &NodeRuntime<S> {
        &self.runtime
    }

    /// Exclusive access to the hosted runtime, to submit values or start a
    /// round (stamp the call with [`now_ns`](Self::now_ns)).
    pub fn runtime_mut(&mut self) -> &mut NodeRuntime<S> {
        &mut self.runtime
    }

    /// The socket side.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Send-path totals so far.
    pub fn wire(&self) -> &WireCounters {
        &self.wire
    }

    /// Frames dropped because they did not decode or named a consensus
    /// group this deployment does not have, per sending peer.
    pub fn decode_errors(&self) -> &BTreeMap<NodeId, u64> {
        &self.decode_errors
    }

    /// One turn of the event loop: put pending frames on the wire, wait
    /// for a frame until the runtime's next deadline (at most `max_wait`),
    /// feed it, and run whatever timers are due.
    pub fn step(&mut self, max_wait: Duration) {
        self.flush();
        let now = self.now_ns();
        let wait = self.runtime.next_deadline().map_or(max_wait, |at| {
            Duration::from_nanos(at.saturating_sub(now)).min(max_wait)
        });
        let event = self.endpoint.recv_timeout(wait);
        let started = Instant::now();
        if let Some(PeerEvent::Frame { from, payload }) = event {
            self.on_bytes(from, &payload);
        }
        let now = self.now_ns();
        self.runtime.on_tick(now);
        self.wire.cpu_runtime_ns += started.elapsed().as_nanos() as u64;
    }

    /// Handles the bytes of one frame from `from`. Bytes from the network
    /// are untrusted: a frame that does not decode, or that names a group
    /// outside this deployment, is counted against its sender and dropped
    /// before the runtime sees it.
    pub fn on_bytes(&mut self, from: NodeId, bytes: &[u8]) {
        let groups = self.runtime.groups().len();
        let reason = match S::Frame::from_bytes(bytes) {
            Ok(frame) if frame.payload().is_none_or(|m| (m.group as usize) < groups) => {
                let now = self.now_ns();
                self.runtime.on_frame(from, frame, now);
                return;
            }
            Ok(_) => "unknown consensus group".to_string(),
            Err(e) => e.to_string(),
        };
        let count = self.decode_errors.entry(from).or_insert(0);
        *count += 1;
        if *count == 1 {
            eprintln!(
                "node {}: dropping bad frame from {from}: {reason} (further ones are only counted)",
                self.id
            );
        }
    }

    /// Runs the send routine: drains the runtime's outgoing frames,
    /// encodes each distinct message once and shares the bytes (by handle)
    /// with every peer it fans out to. Frames the process addressed to
    /// itself never touch a socket: they are handed straight back.
    pub fn flush(&mut self) {
        let started = Instant::now();
        loop {
            let now = self.now_ns();
            self.runtime.take_outgoing_into(&mut self.outgoing, now);
            if self.outgoing.is_empty() {
                break;
            }
            for (peer, frame) in self.outgoing.drain(..) {
                if peer == self.id {
                    self.loopback.push(frame);
                    continue;
                }
                // A message fans out to several peers as the same bytes;
                // control frames are per peer, nothing to share.
                let key = frame.payload().map(|m| m.message_id());
                let bytes = match key.and_then(|k| self.frame_cache.get_mut(&k)) {
                    Some((bytes, fanout)) => {
                        *fanout += 1;
                        bytes.clone()
                    }
                    None => {
                        self.wire.encoded += frame.encode_into(&mut self.encode_buf) as u64;
                        let bytes = Bytes::from(&self.encode_buf[..]);
                        if let Some(k) = key {
                            self.frame_cache.insert(k, (bytes.clone(), 1));
                        }
                        bytes
                    }
                };
                let len = bytes.len() as u64;
                self.wire.sent += len;
                *self.wire.by_class.entry(frame_class(&frame)).or_insert(0) += len;
                if let Some(h) = &self.frame_bytes {
                    h.record(len);
                }
                self.endpoint.send_shared(peer, bytes);
            }
            for frame in self.loopback.drain(..) {
                self.runtime.on_frame(self.id, frame, now);
            }
        }
        for (msg, (bytes, fanout)) in self.frame_cache.drain() {
            self.trace.record_shared(Event::FrameShared {
                node: self.id.as_u32(),
                msg: msg.trace_id(),
                fanout,
                bytes: bytes.len() as u64,
            });
        }
        self.wire.cpu_transport_ns += started.elapsed().as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::NoopObserver;
    use paxos::{PaxosConfig, PaxosMessage, Round, Value};
    use semantic_gossip::{EagerLazyConfig, EagerLazyNode, Grouped, Packet};
    use testbed::Timers;

    fn lone_endpoint(id: u32) -> Endpoint {
        Endpoint::bind(EndpointConfig::new(NodeId::new(id)), "127.0.0.1:0").expect("bind loopback")
    }

    /// Everything a hostile frame could have moved, had it been let in.
    fn fingerprint<S>(node: &LiveNode<S>) -> (String, bool, Option<u64>, u64)
    where
        S: Substrate<WireMsg>,
        S::Frame: Wire,
    {
        let rt = node.runtime();
        (
            format!("{:?}", rt.substrate().stats()),
            rt.has_outgoing(),
            rt.next_deadline(),
            rt.groups()
                .iter()
                .map(|g| g.paxos.handled_by_kind().iter().sum::<u64>())
                .sum(),
        )
    }

    /// A deterministic stream of junk bytes.
    fn junk(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn garbled_frames_are_counted_per_peer_and_never_reach_the_runtime() {
        let runtime = NodeRuntime::semantic_gossip(
            NodeId::new(0),
            vec![NodeId::new(1), NodeId::new(2)],
            vec![PaxosConfig::new(3)],
            Timers::default(),
            || NoopObserver,
        );
        let mut node = LiveNode::new(runtime, lone_endpoint(0), SharedRing::new(0));
        let before = fingerprint(&node);

        let good: WireMsg = Grouped::new(
            0,
            PaxosMessage::ClientValue {
                forwarder: NodeId::new(1),
                value: Value::new(NodeId::new(1), 0, vec![7; 64]),
            },
        );
        let bytes = good.to_bytes();
        let mut bad = 0;
        // Every truncation of a valid frame, from peer 1.
        for cut in 0..bytes.len() {
            node.on_bytes(NodeId::new(1), &bytes[..cut]);
            bad += 1;
        }
        assert_eq!(node.decode_errors()[&NodeId::new(1)], bad);
        // A valid frame for a consensus group this node does not host.
        let mut foreign = bytes.clone();
        foreign[0] = 5;
        node.on_bytes(NodeId::new(1), &foreign);
        // Trailing garbage after a valid frame.
        let mut long = bytes.clone();
        long.push(0);
        node.on_bytes(NodeId::new(1), &long);
        assert_eq!(node.decode_errors()[&NodeId::new(1)], bad + 2);
        // Random bytes from peer 2. None of these seeds happens to decode.
        for seed in 0..200 {
            node.on_bytes(NodeId::new(2), &junk(seed, 1 + (seed as usize * 7) % 300));
        }
        assert_eq!(node.decode_errors()[&NodeId::new(2)], 200);
        assert_eq!(before, fingerprint(&node), "runtime state moved");

        // The valid frame itself still goes through.
        node.on_bytes(NodeId::new(1), &bytes);
        assert_ne!(before, fingerprint(&node));
        assert_eq!(node.decode_errors()[&NodeId::new(1)], bad + 2);
    }

    #[test]
    fn garbled_eager_lazy_packets_are_counted_too() {
        let substrate: EagerLazyNode<WireMsg> = EagerLazyNode::new(
            NodeId::new(0),
            vec![NodeId::new(1)],
            EagerLazyConfig::default(),
        );
        let runtime = NodeRuntime::new(
            NodeId::new(0),
            substrate,
            vec![PaxosConfig::new(2)],
            Timers::default(),
            || NoopObserver,
        );
        let mut node = LiveNode::new(runtime, lone_endpoint(0), SharedRing::new(0));
        let before = fingerprint(&node);
        let ihave = Packet::<WireMsg>::IHave {
            pushed: vec![1],
            announced: vec![2, 3],
        }
        .to_bytes();
        for cut in 0..ihave.len() {
            node.on_bytes(NodeId::new(1), &ihave[..cut]);
        }
        // An id count far beyond the frame.
        node.on_bytes(NodeId::new(1), &[1, 0xFF, 0xFF, 0, 0, 0]);
        assert_eq!(
            node.decode_errors()[&NodeId::new(1)],
            ihave.len() as u64 + 1
        );
        assert_eq!(before, fingerprint(&node));
    }

    #[test]
    fn step_sleeps_until_the_runtime_s_deadline_not_a_fixed_poll() {
        // Process 1 of 3 is next in line for group 0: its failover timer is
        // the only thing that can wake it.
        let timers = Timers {
            failover: Some(Duration::from_millis(40).as_nanos() as u64),
            retransmit: None,
        };
        let runtime = NodeRuntime::semantic_gossip(
            NodeId::new(1),
            vec![NodeId::new(0), NodeId::new(2)],
            vec![PaxosConfig::new(3)],
            timers,
            || NoopObserver,
        );
        let mut node = LiveNode::new(runtime, lone_endpoint(1), SharedRing::new(0));
        let started = Instant::now();
        while node.runtime().groups()[0].paxos.current_round() == Round::ZERO {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "timer never fired"
            );
            node.step(Duration::from_secs(5));
        }
        assert!(
            started.elapsed() >= Duration::from_millis(40),
            "fired before the timeout"
        );
    }
}
