//! A peer-to-peer TCP endpoint with per-peer send threads.
//!
//! Mirrors the paper's transport architecture (Figure 2): each connection
//! has a dedicated send routine fed by a **bounded** queue — messages
//! enqueued beyond its capacity are dropped, so a slow peer never blocks the
//! caller — and a receive routine feeding one shared event queue.
//!
//! Frames travel the send queues as [`Bytes`]: one encoded message fanned
//! out to many peers is a reference-count bump per queue, not a copy (see
//! [`Endpoint::send_shared`]). Each send routine drains its queue in
//! batches — whatever is pending is flushed in one syscall — and records a
//! [`Event::FramesCoalesced`] when it merged more than one frame.
//!
//! Each receive routine reads through one [`BufReader`], so a batch the
//! peer flushed in one write is parsed out of one `read` instead of two or
//! more per frame.
//!
//! Connections carry a 1-frame handshake (each side announces its
//! [`NodeId`]) and then raw length-prefixed frames. A connection that fails
//! or closes surfaces as [`PeerEvent::Disconnected`] and is not redialed.
//!
//! Nothing polls: accept and every receive block in the kernel until there
//! is work. Dropping the endpoint wakes the accept with one self-connect and
//! unblocks every receive by shutting its socket down.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use obs::{Event, SharedRing};
use parking_lot::Mutex;
use semantic_gossip::NodeId;

use crate::framing::{read_frame, write_frame, write_frame_into, FrameError};

/// Upper bound on the bytes one batched flush assembles before writing.
const MAX_BATCH_BYTES: usize = 256 * 1024;

/// Read buffer of each receive routine: large enough that one `read` takes
/// in a whole batched flush of small frames.
const RECV_BUFFER: usize = 64 * 1024;

/// How long a handshake may wait for the peer's hello frame.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Configuration of an [`Endpoint`].
#[derive(Debug, Clone)]
pub struct EndpointConfig {
    /// This process's id, announced in the handshake.
    pub node: NodeId,
    /// Capacity of each per-peer send queue (drop-on-full beyond it).
    pub send_queue: usize,
    /// Maximum frames one send-routine flush coalesces into a single
    /// write (≥ 1; 1 disables batching).
    pub send_batch: usize,
    /// Optional trace sink: connection lifecycle and frame traffic are
    /// recorded here (stamped with monotonic elapsed time). `None` — the
    /// default — records nothing.
    pub observer: Option<SharedRing>,
}

impl EndpointConfig {
    /// A config for `node` with the default 1024-frame send queues and
    /// 64-frame flush batches. Nothing else needs tuning for idle cost: the
    /// endpoint's threads block until there is work, and its queues wake a
    /// thread only when one is blocked on them.
    pub fn new(node: NodeId) -> Self {
        EndpointConfig {
            node,
            send_queue: 1024,
            send_batch: 64,
            observer: None,
        }
    }

    /// Attaches a trace sink (builder style).
    pub fn with_observer(mut self, ring: SharedRing) -> Self {
        self.observer = Some(ring);
        self
    }

    /// Sets the per-flush frame batching limit (builder style).
    pub fn with_send_batch(mut self, frames: usize) -> Self {
        self.send_batch = frames.max(1);
        self
    }
}

fn record(observer: &Option<SharedRing>, event: Event) {
    if let Some(ring) = observer {
        ring.record_shared(event);
    }
}

/// Events surfaced by an endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerEvent {
    /// A connection to `NodeId` completed its handshake.
    Connected(NodeId),
    /// A frame arrived from a peer.
    Frame {
        /// The sending peer.
        from: NodeId,
        /// The frame payload.
        payload: Vec<u8>,
    },
    /// The connection to a peer failed or closed.
    Disconnected(NodeId),
}

struct PeerHandle {
    sender: Sender<Bytes>,
    /// Frames enqueued but not yet picked up by the send routine. Tracked
    /// manually because the bounded channel exposes no length; this is the
    /// per-peer send-queue-depth gauge.
    depth: Arc<AtomicU64>,
    /// A handle on the socket, so that dropping the endpoint can shut it
    /// down and unblock the receive routine's read.
    stream: TcpStream,
}

/// A listening, dialing, framed TCP endpoint.
///
/// # Example
///
/// ```no_run
/// use semantic_gossip::NodeId;
/// use transport::{Endpoint, EndpointConfig, PeerEvent};
///
/// # fn main() -> std::io::Result<()> {
/// let a = Endpoint::bind(EndpointConfig::new(NodeId::new(0)), "127.0.0.1:0")?;
/// let b = Endpoint::bind(EndpointConfig::new(NodeId::new(1)), "127.0.0.1:0")?;
/// b.dial(a.local_addr())?;
/// b.send(NodeId::new(0), b"hello".to_vec());
/// # Ok(())
/// # }
/// ```
pub struct Endpoint {
    config: EndpointConfig,
    local_addr: SocketAddr,
    events_rx: Receiver<PeerEvent>,
    events_tx: Sender<PeerEvent>,
    peers: Arc<Mutex<HashMap<NodeId, PeerHandle>>>,
    shutdown: Arc<AtomicBool>,
    dropped: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Endpoint {
    /// Binds a listener and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Returns the bind error, if any.
    pub fn bind(config: EndpointConfig, addr: &str) -> io::Result<Endpoint> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (events_tx, events_rx) = unbounded();
        let peers = Arc::new(Mutex::new(HashMap::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let dropped = Arc::new(AtomicU64::new(0));

        let accept_thread = {
            let config = config.clone();
            let events_tx = events_tx.clone();
            let peers = Arc::clone(&peers);
            let shutdown = Arc::clone(&shutdown);
            // Blocks in `accept`; `Drop` sets the flag and then connects
            // once, so the loop wakes up and exits.
            std::thread::spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(peer) = handshake_and_register(stream, &config, &events_tx, &peers) {
                        record(
                            &config.observer,
                            Event::Accepted {
                                node: config.node.as_u32(),
                                peer: peer.as_u32(),
                            },
                        );
                    }
                }
            })
        };

        Ok(Endpoint {
            config,
            local_addr,
            events_rx,
            events_tx,
            peers,
            shutdown,
            dropped,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.config.node
    }

    /// Dials a peer and completes the handshake, returning its node id.
    ///
    /// # Errors
    ///
    /// Returns connection or handshake I/O errors.
    pub fn dial(&self, addr: SocketAddr) -> io::Result<NodeId> {
        let stream = TcpStream::connect(addr)?;
        let peer = handshake_and_register(stream, &self.config, &self.events_tx, &self.peers)?;
        record(
            &self.config.observer,
            Event::Dialed {
                node: self.config.node.as_u32(),
                peer: peer.as_u32(),
            },
        );
        Ok(peer)
    }

    /// Enqueues a frame to `peer`. Returns `false` — and counts a drop — if
    /// the peer is unknown or its send queue is full (the paper's
    /// slow-receiver protection).
    pub fn send(&self, peer: NodeId, frame: Vec<u8>) -> bool {
        self.send_shared(peer, Bytes::from(frame))
    }

    /// Enqueues an already-shared frame to `peer` — the encode-once path.
    ///
    /// The same [`Bytes`] handle can be passed to every peer a broadcast
    /// fans out to; each enqueue bumps a reference count instead of
    /// copying the payload. Same return/drop contract as
    /// [`send`](Self::send).
    pub fn send_shared(&self, peer: NodeId, frame: Bytes) -> bool {
        let peers = self.peers.lock();
        let Some(handle) = peers.get(&peer) else {
            drop(peers);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            record(
                &self.config.observer,
                Event::FrameDropped {
                    node: self.config.node.as_u32(),
                    peer: peer.as_u32(),
                },
            );
            return false;
        };
        // Count before enqueueing so the send routine's decrement can never
        // observe the frame before its increment (the gauge would wrap).
        handle.depth.fetch_add(1, Ordering::Relaxed);
        match handle.sender.try_send(frame) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                handle.depth.fetch_sub(1, Ordering::Relaxed);
                drop(peers);
                self.dropped.fetch_add(1, Ordering::Relaxed);
                record(
                    &self.config.observer,
                    Event::FrameDropped {
                        node: self.config.node.as_u32(),
                        peer: peer.as_u32(),
                    },
                );
                false
            }
        }
    }

    /// The connected peers.
    pub fn peers(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.peers.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Frames dropped because of unknown peers or full queues.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Frames currently queued toward each connected peer, sorted by peer
    /// id — the live send-queue-depth gauge.
    pub fn queue_depths(&self) -> Vec<(NodeId, u64)> {
        let mut depths: Vec<(NodeId, u64)> = self
            .peers
            .lock()
            .iter()
            .map(|(&id, h)| (id, h.depth.load(Ordering::Relaxed)))
            .collect();
        depths.sort_unstable_by_key(|(id, _)| *id);
        depths
    }

    /// Receives the next event, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<PeerEvent> {
        self.events_rx.recv_timeout(timeout).ok()
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept; it sees the flag and exits. If the
        // accept thread is already gone the connect is refused, harmlessly.
        let _ = TcpStream::connect(wake_addr(self.local_addr));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Dropping the handles closes the send channels, so the send
        // routines exit; shutting each socket down unblocks its receive
        // routine and tells the peer.
        for (_, handle) in self.peers.lock().drain() {
            let _ = handle.stream.shutdown(Shutdown::Both);
        }
    }
}

/// The address a self-connect reaches the listener on: a listener bound to
/// the unspecified address is reached through loopback.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let mut addr = local;
    match local {
        SocketAddr::V4(v4) if v4.ip().is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        SocketAddr::V6(v6) if v6.ip().is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    addr
}

/// Exchanges hello frames, registers the peer, and spawns its send/receive
/// threads. Used by both the dialer and the acceptor.
fn handshake_and_register(
    stream: TcpStream,
    config: &EndpointConfig,
    events_tx: &Sender<PeerEvent>,
    peers: &Arc<Mutex<HashMap<NodeId, PeerHandle>>>,
) -> io::Result<NodeId> {
    stream.set_nodelay(true)?;
    let mut write_half = stream.try_clone()?;
    write_frame(&mut write_half, &config.node.as_u32().to_be_bytes())?;
    // The hello is the only read with a deadline. Frames the peer sends
    // right behind it may already sit in the buffer, so the receive
    // routine keeps this reader.
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let mut reader = BufReader::with_capacity(RECV_BUFFER, stream.try_clone()?);
    let hello = read_frame(&mut reader).map_err(frame_to_io)?;
    if hello.len() != 4 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad handshake frame",
        ));
    }
    let peer = NodeId::new(u32::from_be_bytes([hello[0], hello[1], hello[2], hello[3]]));
    stream.set_read_timeout(None)?;

    let (send_tx, send_rx) = bounded::<Bytes>(config.send_queue);
    let depth = Arc::new(AtomicU64::new(0));
    peers.lock().insert(
        peer,
        PeerHandle {
            sender: send_tx,
            depth: Arc::clone(&depth),
            stream,
        },
    );
    let _ = events_tx.send(PeerEvent::Connected(peer));

    // Send routine: drains the bounded queue into the socket in batches —
    // one blocking recv, then whatever else is already pending (up to
    // `send_batch` frames / `MAX_BATCH_BYTES`), flushed as a single write.
    {
        let events_tx = events_tx.clone();
        let peers = Arc::clone(peers);
        let observer = config.observer.clone();
        let node = config.node.as_u32();
        let max_batch = config.send_batch.max(1);
        std::thread::spawn(move || {
            let mut pending: Vec<Bytes> = Vec::with_capacity(max_batch);
            let mut batch: Vec<u8> = Vec::new();
            while let Ok(first) = send_rx.recv() {
                depth.fetch_sub(1, Ordering::Relaxed);
                pending.push(first);
                let mut payload_bytes = pending[0].len();
                while pending.len() < max_batch && payload_bytes < MAX_BATCH_BYTES {
                    match send_rx.try_recv() {
                        Ok(frame) => {
                            depth.fetch_sub(1, Ordering::Relaxed);
                            payload_bytes += frame.len();
                            pending.push(frame);
                        }
                        Err(_) => break,
                    }
                }
                if flush_frames(&mut write_half, &pending, &mut batch).is_err() {
                    peers.lock().remove(&peer);
                    record(
                        &observer,
                        Event::PeerDropped {
                            node,
                            peer: peer.as_u32(),
                        },
                    );
                    let _ = events_tx.send(PeerEvent::Disconnected(peer));
                    return;
                }
                for frame in &pending {
                    record(
                        &observer,
                        Event::FrameSent {
                            node,
                            peer: peer.as_u32(),
                            bytes: frame.len() as u64,
                        },
                    );
                }
                if pending.len() > 1 {
                    record(
                        &observer,
                        Event::FramesCoalesced {
                            node,
                            peer: peer.as_u32(),
                            frames: pending.len() as u64,
                            bytes: payload_bytes as u64,
                        },
                    );
                }
                pending.clear();
            }
            // Channel closed (endpoint dropped or peer removed): just exit.
        });
    }

    // Receive routine: surfaces frames on the shared event queue. The read
    // blocks without a timeout, so a frame is never abandoned half read;
    // it ends when the peer closes, the socket fails or `Drop` shuts it
    // down.
    {
        let events_tx = events_tx.clone();
        let peers = Arc::clone(peers);
        let observer = config.observer.clone();
        let node = config.node.as_u32();
        std::thread::spawn(move || loop {
            match read_frame(&mut reader) {
                Ok(payload) => {
                    record(
                        &observer,
                        Event::FrameReceived {
                            node,
                            peer: peer.as_u32(),
                            bytes: payload.len() as u64,
                        },
                    );
                    let _ = events_tx.send(PeerEvent::Frame {
                        from: peer,
                        payload,
                    });
                }
                Err(_) => {
                    peers.lock().remove(&peer);
                    record(
                        &observer,
                        Event::PeerDropped {
                            node,
                            peer: peer.as_u32(),
                        },
                    );
                    let _ = events_tx.send(PeerEvent::Disconnected(peer));
                    return;
                }
            }
        });
    }

    Ok(peer)
}

/// Writes one flush's worth of frames. A single frame takes the copy-free
/// vectored path; several frames are assembled into the reused `batch`
/// buffer and pushed with one `write_all`, so the whole drain leaves in a
/// single syscall.
fn flush_frames<W: Write>(w: &mut W, frames: &[Bytes], batch: &mut Vec<u8>) -> io::Result<()> {
    match frames {
        [] => Ok(()),
        [single] => write_frame(&mut *w, single),
        many => {
            batch.clear();
            for frame in many {
                write_frame_into(batch, frame)?;
            }
            w.write_all(batch)
        }
    }
}

fn frame_to_io(e: FrameError) -> io::Error {
    match e {
        FrameError::Io(e) => e,
        FrameError::Closed => io::ErrorKind::UnexpectedEof.into(),
        FrameError::TooLarge(_) => io::ErrorKind::InvalidData.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoint(id: u32) -> Endpoint {
        Endpoint::bind(EndpointConfig::new(NodeId::new(id)), "127.0.0.1:0").unwrap()
    }

    fn wait_for_frame(e: &Endpoint) -> (NodeId, Vec<u8>) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline {
            if let Some(PeerEvent::Frame { from, payload }) =
                e.recv_timeout(Duration::from_millis(200))
            {
                return (from, payload);
            }
        }
        panic!("no frame within deadline");
    }

    #[test]
    fn dial_handshake_and_exchange() {
        let a = endpoint(0);
        let b = endpoint(1);
        let peer = b.dial(a.local_addr()).unwrap();
        assert_eq!(peer, NodeId::new(0));

        assert!(b.send(NodeId::new(0), b"ping".to_vec()));
        let (from, payload) = wait_for_frame(&a);
        assert_eq!(from, NodeId::new(1));
        assert_eq!(payload, b"ping");

        // And the reverse direction over the same connection.
        assert!(a.send(NodeId::new(1), b"pong".to_vec()));
        let (from, payload) = wait_for_frame(&b);
        assert_eq!(from, NodeId::new(0));
        assert_eq!(payload, b"pong");
    }

    #[test]
    fn connected_events_fire_on_both_sides() {
        let a = endpoint(0);
        let b = endpoint(1);
        b.dial(a.local_addr()).unwrap();
        let got_a = a.recv_timeout(Duration::from_secs(5));
        assert_eq!(got_a, Some(PeerEvent::Connected(NodeId::new(1))));
        let got_b = b.recv_timeout(Duration::from_secs(5));
        assert_eq!(got_b, Some(PeerEvent::Connected(NodeId::new(0))));
        assert_eq!(a.peers(), vec![NodeId::new(1)]);
        assert_eq!(b.peers(), vec![NodeId::new(0)]);
    }

    #[test]
    fn queue_depths_drain_to_zero() {
        let a = endpoint(0);
        let b = endpoint(1);
        b.dial(a.local_addr()).unwrap();
        for i in 0..50u32 {
            assert!(b.send(NodeId::new(0), i.to_be_bytes().to_vec()));
        }
        // The gauge is keyed by peer and falls back to zero once the send
        // routine has pushed everything onto the wire.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let depths = b.queue_depths();
            assert_eq!(depths.len(), 1);
            assert_eq!(depths[0].0, NodeId::new(0));
            if depths[0].1 == 0 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "queue never drained");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn sending_to_unknown_peer_drops() {
        let a = endpoint(0);
        assert!(!a.send(NodeId::new(9), b"x".to_vec()));
        assert_eq!(a.dropped(), 1);
    }

    #[test]
    fn observer_traces_lifecycle_and_frames() {
        let ring_a = SharedRing::new(256);
        let ring_b = SharedRing::new(256);
        let a = Endpoint::bind(
            EndpointConfig::new(NodeId::new(0)).with_observer(ring_a.clone()),
            "127.0.0.1:0",
        )
        .unwrap();
        let b = Endpoint::bind(
            EndpointConfig::new(NodeId::new(1)).with_observer(ring_b.clone()),
            "127.0.0.1:0",
        )
        .unwrap();
        b.dial(a.local_addr()).unwrap();
        assert!(b.send(NodeId::new(0), b"ping".to_vec()));
        let (_, payload) = wait_for_frame(&a);
        assert_eq!(payload, b"ping");
        assert!(!b.send(NodeId::new(9), b"x".to_vec()));

        let kinds_of = |ring: &SharedRing| -> Vec<&'static str> {
            ring.snapshot().iter().map(|e| e.event.kind()).collect()
        };
        // Both sides record from their own threads: the sender's
        // `frame_sent` follows the write that let `a` receive the frame, and
        // the acceptor may record `accepted` shortly after dial returns. Poll
        // each ring until its part of the trace is there.
        let wait_for = |ring: &SharedRing, side: &str, wanted: &[&str]| {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                let kinds = kinds_of(ring);
                if wanted.iter().all(|kind| kinds.contains(kind)) {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "{side} trace incomplete: {kinds:?}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        };
        wait_for(
            &ring_b,
            "sender",
            &["dialed", "frame_sent", "frame_dropped"],
        );
        wait_for(&ring_a, "acceptor", &["accepted", "frame_received"]);
    }

    #[test]
    fn many_frames_in_order_per_peer() {
        let a = endpoint(0);
        let b = endpoint(1);
        b.dial(a.local_addr()).unwrap();
        for i in 0..100u32 {
            assert!(b.send(NodeId::new(0), i.to_be_bytes().to_vec()));
        }
        let mut got = Vec::new();
        while got.len() < 100 {
            let (_, payload) = wait_for_frame(&a);
            got.push(u32::from_be_bytes([
                payload[0], payload[1], payload[2], payload[3],
            ]));
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn flush_matches_sequential_frame_writes() {
        let frames = [
            Bytes::from(&b"alpha"[..]),
            Bytes::from(&b""[..]),
            Bytes::from(&b"gamma-rather-longer"[..]),
        ];
        let mut sequential = Vec::new();
        for f in &frames {
            crate::framing::write_frame(&mut sequential, f).unwrap();
        }
        // Multi-frame path (reused batch buffer).
        let mut batched = Vec::new();
        let mut batch = Vec::with_capacity(64);
        flush_frames(&mut batched, &frames, &mut batch).unwrap();
        assert_eq!(batched, sequential);
        // Single-frame path and empty path.
        let mut single = Vec::new();
        flush_frames(&mut single, &frames[..1], &mut batch).unwrap();
        assert_eq!(single, &sequential[..4 + frames[0].len()]);
        let mut none = Vec::new();
        flush_frames(&mut none, &[], &mut batch).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn shared_frame_fans_out_without_copying() {
        let hub = endpoint(0);
        let a = endpoint(1);
        let b = endpoint(2);
        a.dial(hub.local_addr()).unwrap();
        b.dial(hub.local_addr()).unwrap();
        // Wait until the hub has registered both peers.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while hub.peers().len() < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "peers never connected"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // One encoded frame, one allocation, fanned to both peers by handle.
        let frame = Bytes::from(&b"broadcast-once"[..]);
        assert!(hub.send_shared(NodeId::new(1), frame.clone()));
        assert!(hub.send_shared(NodeId::new(2), frame));
        let (from, payload) = wait_for_frame(&a);
        assert_eq!(from, NodeId::new(0));
        assert_eq!(payload, b"broadcast-once");
        let (from, payload) = wait_for_frame(&b);
        assert_eq!(from, NodeId::new(0));
        assert_eq!(payload, b"broadcast-once");
    }

    #[test]
    fn send_shared_to_unknown_peer_drops() {
        let a = endpoint(0);
        assert!(!a.send_shared(NodeId::new(9), Bytes::from(&b"x"[..])));
        assert_eq!(a.dropped(), 1);
    }

    #[test]
    fn config_builders_set_batch_and_polls() {
        let cfg = EndpointConfig::new(NodeId::new(0)).with_send_batch(0);
        assert_eq!(cfg.send_batch, 1, "batch of 0 clamps to 1");
        let cfg = cfg.with_send_batch(16);
        assert_eq!(cfg.send_batch, 16);
    }

    #[test]
    fn batched_sends_arrive_in_order() {
        // Small queue-poll windows plus a burst of sends exercises the
        // drain-then-flush path; ordering must be preserved regardless of
        // how frames happen to coalesce.
        let a = endpoint(0);
        let b = Endpoint::bind(
            EndpointConfig::new(NodeId::new(1)).with_send_batch(8),
            "127.0.0.1:0",
        )
        .unwrap();
        b.dial(a.local_addr()).unwrap();
        for i in 0..200u32 {
            assert!(b.send(NodeId::new(0), i.to_be_bytes().to_vec()));
        }
        let mut got = Vec::new();
        while got.len() < 200 {
            let (_, payload) = wait_for_frame(&a);
            got.push(u32::from_be_bytes([
                payload[0], payload[1], payload[2], payload[3],
            ]));
        }
        assert_eq!(got, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn disconnect_event_when_peer_drops() {
        let a = endpoint(0);
        let b = endpoint(1);
        b.dial(a.local_addr()).unwrap();
        // Consume the Connected event first.
        assert_eq!(
            a.recv_timeout(Duration::from_secs(5)),
            Some(PeerEvent::Connected(NodeId::new(1)))
        );
        // Nothing polls, so `drop` must wake its own blocked threads: the
        // accept by a self-connect, the receive routine by a socket
        // shutdown, which is also what lets `a` see the close. Dropped on
        // another thread, so a drop that never returns fails the test
        // instead of hanging it.
        let dropper = std::thread::spawn(move || drop(b));
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        while !dropper.is_finished() {
            assert!(std::time::Instant::now() < deadline, "drop did not return");
            std::thread::sleep(Duration::from_millis(1));
        }
        dropper.join().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        loop {
            match a.recv_timeout(Duration::from_millis(200)) {
                Some(PeerEvent::Disconnected(p)) => {
                    assert_eq!(p, NodeId::new(1));
                    break;
                }
                Some(_) => continue,
                None if std::time::Instant::now() > deadline => {
                    panic!("no disconnect event")
                }
                None => continue,
            }
        }
        assert!(a.peers().is_empty());
    }

    #[test]
    fn frame_wakes_a_peer_blocked_in_recv_timeout() {
        let a = endpoint(0);
        let b = endpoint(1);
        b.dial(a.local_addr()).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(5)),
            Some(PeerEvent::Connected(NodeId::new(1)))
        );
        let (got, waited) = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let start = std::time::Instant::now();
                (a.recv_timeout(Duration::from_secs(5)), start.elapsed())
            });
            std::thread::sleep(Duration::from_millis(50));
            assert!(b.send(NodeId::new(0), b"wake".to_vec()));
            waiter.join().unwrap()
        });
        assert_eq!(
            got,
            Some(PeerEvent::Frame {
                from: NodeId::new(1),
                payload: b"wake".to_vec(),
            })
        );
        assert!(waited < Duration::from_secs(1), "woke after {waited:?}");
    }

    #[test]
    fn frame_split_across_a_pause_arrives_whole() {
        // A raw peer whose frame's tail lags its head by 150 ms. The
        // receive routine must wait for the tail, not give up on the
        // half-read body and then parse body bytes as the next header.
        let a = endpoint(0);
        let mut raw = TcpStream::connect(a.local_addr()).unwrap();
        write_frame(&mut raw, &7u32.to_be_bytes()).unwrap();
        assert_eq!(read_frame(&mut raw).unwrap(), 0u32.to_be_bytes());
        let mut wire = Vec::new();
        write_frame_into(&mut wire, &[0xAB; 1000]).unwrap();
        write_frame_into(&mut wire, b"next").unwrap();
        raw.write_all(&wire[..500]).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        raw.write_all(&wire[500..]).unwrap();

        let peer = NodeId::new(7);
        assert_eq!(
            a.recv_timeout(Duration::from_secs(5)),
            Some(PeerEvent::Connected(peer))
        );
        let mut frames = Vec::new();
        while frames.len() < 2 {
            match a.recv_timeout(Duration::from_secs(5)) {
                Some(PeerEvent::Frame { from, payload }) => {
                    assert_eq!(from, peer);
                    frames.push(payload);
                }
                other => panic!("expected a frame, got {other:?}"),
            }
        }
        assert_eq!(frames, vec![vec![0xAB; 1000], b"next".to_vec()]);
    }
}
