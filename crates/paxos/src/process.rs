//! A full Paxos process: proposer + acceptor + learner behind one handler.
//!
//! The paper assumes "each Paxos process plays all these roles" (§2.3).
//! [`PaxosProcess`] glues the three role state machines together and speaks
//! only in terms of [`PaxosMessage`]s in and [`Outbound`]s out; the
//! communication substrate (direct channels or gossip) interprets the
//! [`Route`] tags.
//!
//! Where every client value reaches every process
//! ([`PaxosConfig::values_broadcast`], the gossip substrates), the value
//! crosses the overlay once: in its `ClientValue`, which every process
//! files in a *pool*. A fresh Phase 2a names the value by id
//! ([`Proposal::Id`]); a process that holds the value joins the two and
//! goes on exactly as with a proposal that carries it, and one that does
//! not yet *parks* the proposal until the last missing value arrives. The
//! acceptor therefore votes only on a value it holds, which keeps Phase 1b
//! reports complete and the semantic Decision filter's "voted, so holds
//! the value" sound.

use std::collections::{HashMap, HashSet};

use obs::{Event, NoopObserver, Observer};
use semantic_gossip::NodeId;

use crate::acceptor::Acceptor;
use crate::config::PaxosConfig;
use crate::coordinator::Coordinator;
use crate::learner::{Delivered, Learner};
use crate::message::{Kind, PaxosMessage, Proposal};
use crate::storage::{MemoryStorage, StableStorage};
use crate::types::{InstanceId, Round, Value, ValueId, BATCH_SEQ_BIT};

/// Where a message logically goes.
///
/// Routes express Paxos's communication patterns without fixing a transport:
/// the Baseline setup maps them to direct channels, the gossip setups
/// broadcast everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// One-to-many: to every process (Phase 1a/2a, Decision, and a value
    /// submitted at the coordinator when values are broadcast).
    ToAll,
    /// Many-to-one: to the coordinator of the message's round (Phase 1b/2b,
    /// forwarded client values).
    ToCoordinator,
}

/// An outbound message tagged with its logical route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outbound {
    /// The protocol message.
    pub msg: PaxosMessage,
    /// Its logical destination.
    pub route: Route,
}

impl Outbound {
    fn to_all(msg: PaxosMessage) -> Self {
        Outbound {
            msg,
            route: Route::ToAll,
        }
    }

    fn to_coordinator(msg: PaxosMessage) -> Self {
        Outbound {
            msg,
            route: Route::ToCoordinator,
        }
    }
}

/// One Paxos process playing proposer, acceptor and learner.
///
/// Drive it with [`handle`](Self::handle) for protocol messages and
/// [`submit`](Self::submit) for client values; collect decided values with
/// [`take_decisions`](Self::take_decisions) (ordered, gap-free).
///
/// **Self-delivery:** the runtime must deliver a process's
/// [`Route::ToAll`] messages back to the process itself too (gossip does
/// this by construction; a direct-channel runtime must loop them back).
///
/// The `O` parameter is the [`Observer`] receiving phase-transition trace
/// events; the default [`NoopObserver`] compiles all emission away.
#[derive(Debug)]
pub struct PaxosProcess<S: StableStorage = MemoryStorage, O = NoopObserver> {
    id: NodeId,
    config: PaxosConfig,
    acceptor: Acceptor<S>,
    coordinator: Option<Coordinator>,
    learner: Learner,
    /// Highest round observed in the system.
    current_round: Round,
    /// Ids of values this process has seen decided. Guards the proposal
    /// paths against re-deciding a value at a second instance when a
    /// demoted coordinator re-forwards its backlog (or a client retries).
    /// Unbounded like the learner's delivery history; a production system
    /// would truncate both behind a checkpoint.
    decided_ids: HashSet<ValueId>,
    submit_seq: u64,
    /// Client values by id, filed from every `ClientValue` handled and
    /// every local submission while values are broadcast, until this
    /// process sees them decided. Resolves thin proposals.
    pool: HashMap<ValueId, Value>,
    /// Thin proposals whose value (or some batch part) is not pooled yet,
    /// in arrival order; dropped when their instance is decided.
    parked: Vec<Parked>,
    /// Thin proposals ever parked — the `proposals_parked` counter.
    proposals_parked: u64,
    /// Messages handled, indexed by [`Kind::index`] — the CPU-side half of
    /// per-class resource attribution (which message class makes this
    /// process do coordination work). Plain adds: always on, no observer.
    handled_by_kind: [u64; Kind::COUNT],
    observer: O,
}

impl PaxosProcess<MemoryStorage> {
    /// Creates a process with fresh in-memory stable storage.
    pub fn new(id: NodeId, config: PaxosConfig) -> Self {
        PaxosProcess::with_storage(id, config, MemoryStorage::default())
    }
}

impl<S: StableStorage> PaxosProcess<S> {
    /// Creates a process over existing storage (also the crash-recovery
    /// entry point: pass the storage salvaged from the crashed incarnation).
    pub fn with_storage(id: NodeId, config: PaxosConfig, storage: S) -> Self {
        PaxosProcess::with_observer(id, config, storage, NoopObserver)
    }
}

impl<S: StableStorage, O: Observer> PaxosProcess<S, O> {
    /// Creates a process over existing storage with an explicit observer
    /// for phase-transition events.
    pub fn with_observer(id: NodeId, config: PaxosConfig, storage: S, observer: O) -> Self {
        assert!(
            id.as_index() < config.n,
            "process id out of range for the deployment"
        );
        PaxosProcess {
            id,
            config: config.clone(),
            acceptor: Acceptor::with_storage(id, storage),
            coordinator: None,
            learner: Learner::new(config),
            current_round: Round::ZERO,
            decided_ids: HashSet::new(),
            submit_seq: 0,
            pool: HashMap::new(),
            parked: Vec::new(),
            proposals_parked: 0,
            handled_by_kind: [0; Kind::COUNT],
            observer,
        }
    }

    /// Messages handled so far, indexed by [`Kind::index`] (resource
    /// attribution: pair with [`Kind::ALL`] to name the classes).
    pub fn handled_by_kind(&self) -> &[u64; Kind::COUNT] {
        &self.handled_by_kind
    }

    /// Shared access to the observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Exclusive access to the observer (e.g. to drain a buffered trace or
    /// advance its clock).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// This process's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The deployment configuration.
    pub fn config(&self) -> &PaxosConfig {
        &self.config
    }

    /// The highest round this process has observed.
    pub fn current_round(&self) -> Round {
        self.current_round
    }

    /// The coordinator of the highest round this process has observed, in
    /// this process's consensus group.
    pub fn current_coordinator(&self) -> NodeId {
        self.current_round
            .coordinator_at(self.config.group, self.config.n)
    }

    /// Scopes a protocol instance for trace events: the group id rides in
    /// the top bits (identity for group 0), matching
    /// [`semantic_gossip::group::group_scoped_instance`] so gossip-layer
    /// `wire_tagged` joins stay exact under sharding.
    fn scoped_instance(&self, instance: u64) -> u64 {
        semantic_gossip::group::group_scoped_instance(self.config.group, instance)
    }

    /// Whether this process is currently acting as coordinator.
    pub fn is_coordinator(&self) -> bool {
        self.coordinator.is_some()
    }

    /// Read access to the coordinator role, when active.
    pub fn coordinator(&self) -> Option<&Coordinator> {
        self.coordinator.as_ref()
    }

    /// Read access to the learner role.
    pub fn learner(&self) -> &Learner {
        &self.learner
    }

    /// Read access to the acceptor role (auditor hook).
    pub fn acceptor(&self) -> &Acceptor<S> {
        &self.acceptor
    }

    /// The acceptor's highest promised round. Auditor hook: a safety
    /// auditor samples this around crash/recovery to check that the durable
    /// promise never regresses.
    pub fn promised_round(&self) -> Round {
        self.acceptor.promised()
    }

    /// The learner's open instance window (voting or awaiting in-order
    /// release) — the live `instance_window` gauge.
    pub fn instance_window(&self) -> usize {
        self.learner.open_window()
    }

    /// Instances in which this process held a quorum of votes before the
    /// value they name ([`Learner::value_waits`]) — the `value_waits`
    /// counter next to `instance_window`.
    pub fn value_waits(&self) -> u64 {
        self.learner.value_waits()
    }

    /// Client values held to resolve thin proposals — the `pooled_values`
    /// gauge. Drains as the values are decided.
    pub fn pooled_values(&self) -> usize {
        self.pool.len()
    }

    /// Thin proposals waiting for a value this process does not hold yet —
    /// the `parked_proposals` gauge. Drains as values arrive or instances
    /// are decided.
    pub fn parked_proposals(&self) -> usize {
        self.parked.len()
    }

    /// Thin proposals ever parked here — the `proposals_parked` counter
    /// next to the two gauges.
    pub fn proposals_parked(&self) -> u64 {
        self.proposals_parked
    }

    /// Makes this process the coordinator of `round`, starting Phase 1 over
    /// all instances not yet delivered locally.
    ///
    /// # Panics
    ///
    /// Panics if this process is not `round`'s coordinator, or if `round` is
    /// older than a round already observed.
    pub fn start_round(&mut self, round: Round) -> Vec<Outbound> {
        assert!(
            round >= self.current_round,
            "cannot start {round}: already at {}",
            self.current_round
        );
        self.current_round = round;
        let from_instance = self.learner.next_to_deliver();
        if O::ENABLED {
            self.observer.record(Event::RoundStarted {
                node: self.id.as_u32(),
                round: round.as_u32(),
            });
        }
        let (coordinator, phase1a) =
            Coordinator::start(self.id, self.config.clone(), round, from_instance);
        self.coordinator = Some(coordinator);
        vec![Outbound::to_all(phase1a)]
    }

    /// A client submits a payload at this process: proposed directly when
    /// this process coordinates, otherwise forwarded to the coordinator
    /// (§4.2: "when a Paxos process receives a value from a client, it
    /// forwards the value to the coordinator"). When values are broadcast
    /// the coordinator sends the value to all as well, ahead of its thin
    /// proposal, so that every process can resolve the proposal's id.
    pub fn submit(&mut self, value: Value) -> Vec<Outbound> {
        if O::ENABLED {
            let id = value.id();
            self.observer.record(Event::ValueSubmitted {
                node: self.id.as_u32(),
                origin: id.origin.as_u32(),
                seq: id.seq,
            });
        }
        if self.decided_ids.contains(&value.id()) {
            return Vec::new(); // already decided; a retry must not re-propose
        }
        if self.config.values_broadcast {
            self.pool.insert(value.id(), value.clone());
        }
        let client_value = |value| PaxosMessage::ClientValue {
            forwarder: self.id,
            value,
        };
        match self.coordinator.as_mut() {
            Some(c) if self.config.values_broadcast => {
                let mut out = vec![Outbound::to_all(client_value(value.clone()))];
                out.extend(c.propose(value).into_iter().map(Outbound::to_all));
                out
            }
            Some(c) => c.propose(value).into_iter().map(Outbound::to_all).collect(),
            None => vec![Outbound::to_coordinator(client_value(value))],
        }
    }

    /// Convenience for clients: wraps `payload` into a [`Value`] with this
    /// process as origin and an auto-incremented sequence number, then
    /// [`submit`](Self::submit)s it. Returns the value's id along with the
    /// outbound messages.
    pub fn submit_payload(&mut self, payload: Vec<u8>) -> (Value, Vec<Outbound>) {
        let value = Value::new(self.id, self.submit_seq, payload);
        self.submit_seq += 1;
        let out = self.submit(value.clone());
        (value, out)
    }

    /// Handles one delivered protocol message, returning the messages it
    /// triggers.
    pub fn handle(&mut self, msg: PaxosMessage) -> Vec<Outbound> {
        self.handled_by_kind[msg.kind().index()] += 1;
        match msg {
            PaxosMessage::ClientValue { value, .. } => {
                // Parked proposals take the value even when it is decided
                // already: one may assign it a second instance.
                let mut out = self.unpark(&value);
                if self.decided_ids.contains(&value.id()) {
                    return out; // stale re-forward of a decided value
                }
                if self.config.values_broadcast {
                    self.pool.insert(value.id(), value.clone());
                }
                if let Some(c) = self.coordinator.as_mut() {
                    out.extend(c.propose(value).into_iter().map(Outbound::to_all));
                }
                // Not the coordinator: the substrate already carries the
                // value to the coordinator; nothing else to do.
                out
            }
            PaxosMessage::Phase1a {
                round,
                from_instance,
                sender: _,
            } => {
                if O::ENABLED {
                    self.observer.record(Event::Phase1a {
                        node: self.id.as_u32(),
                        round: round.as_u32(),
                        from_instance: self.scoped_instance(from_instance.as_u64()),
                    });
                }
                let mut out = self.observe_round(round);
                out.extend(
                    self.acceptor
                        .on_phase1a(round, from_instance)
                        .map(Outbound::to_coordinator),
                );
                out
            }
            PaxosMessage::Phase1b {
                round,
                sender,
                accepted,
            } => {
                if O::ENABLED {
                    self.observer.record(Event::Phase1b {
                        node: self.id.as_u32(),
                        round: round.as_u32(),
                        sender: sender.as_u32(),
                    });
                }
                match self.coordinator.as_mut() {
                    Some(c) => c
                        .on_phase1b(round, sender, &accepted)
                        .into_iter()
                        .map(Outbound::to_all)
                        .collect(),
                    None => Vec::new(),
                }
            }
            PaxosMessage::Phase2a {
                instance,
                round,
                value,
                sender: _,
            } => {
                if O::ENABLED {
                    let id = value.id();
                    self.observer.record(Event::Phase2a {
                        node: self.id.as_u32(),
                        instance: self.scoped_instance(instance.as_u64()),
                        round: round.as_u32(),
                        origin: id.origin.as_u32(),
                        seq: id.seq,
                    });
                }
                let mut out = self.observe_round(round);
                match value {
                    Proposal::Value(value) => out.extend(self.on_proposal(instance, round, value)),
                    Proposal::Id { id, parts } => {
                        let mut parked = Parked {
                            instance,
                            round,
                            id,
                            parts: parts.into_iter().map(|part| (part, None)).collect(),
                            value: None,
                        };
                        parked.take_from_pool(&self.pool);
                        match parked.resolved() {
                            Some(value) => out.extend(self.on_proposal(instance, round, value)),
                            None => self.park(parked),
                        }
                    }
                }
                out
            }
            PaxosMessage::Phase2b {
                instance,
                round,
                value,
                voters,
            } => {
                if O::ENABLED {
                    self.observer.record(Event::Phase2b {
                        node: self.id.as_u32(),
                        instance: self.scoped_instance(instance.as_u64()),
                        round: round.as_u32(),
                        voters: voters.len() as u64,
                    });
                }
                let waits = self.learner.value_waits();
                match self.learner.on_phase2b(instance, round, value, &voters) {
                    Some(decided) => self.on_quorum(instance, decided),
                    None => {
                        if O::ENABLED && self.learner.value_waits() > waits {
                            self.observer.record(Event::ValueAwaited {
                                node: self.id.as_u32(),
                                instance: self.scoped_instance(instance.as_u64()),
                                round: round.as_u32(),
                                origin: value.origin.as_u32(),
                                seq: value.seq,
                            });
                        }
                        Vec::new()
                    }
                }
            }
            PaxosMessage::Decision {
                instance, value, ..
            } => match self.learner.on_decision(instance, &value) {
                Some(decided) => self.on_locally_decided(instance, decided),
                None => Vec::new(),
            },
        }
    }

    /// Coordinator-side retransmission of open proposals (kept out of the
    /// reliability experiments, which disable timeout-triggered recovery).
    pub fn retransmit(&self) -> Vec<Outbound> {
        self.coordinator
            .as_ref()
            .map(|c| c.retransmit().into_iter().map(Outbound::to_all).collect())
            .unwrap_or_default()
    }

    /// Drains values decided and deliverable in instance order (no gaps),
    /// with at-most-once semantics: a slot re-deciding an already-delivered
    /// value (assigned two instances by different rounds' coordinators) is
    /// suppressed. Use [`take_delivered`](Self::take_delivered) for the raw
    /// slot stream including suppressed duplicates.
    pub fn take_decisions(&mut self) -> Vec<(InstanceId, Value)> {
        self.take_delivered()
            .into_iter()
            .filter(|d| !d.duplicate)
            .map(|d| (d.instance, d.value))
            .collect()
    }

    /// Drains every deliverable slot in instance order, duplicates included
    /// and flagged — the slot-accurate view an auditor or state-machine
    /// layer needs to check the log's shape.
    pub fn take_delivered(&mut self) -> Vec<Delivered> {
        let ordered = self.learner.take_ordered();
        if O::ENABLED {
            for d in &ordered {
                let id = d.value.id();
                if d.duplicate {
                    self.observer.record(Event::DuplicateSuppressed {
                        node: self.id.as_u32(),
                        instance: self.scoped_instance(d.instance.as_u64()),
                        origin: id.origin.as_u32(),
                        seq: id.seq,
                    });
                } else {
                    self.observer.record(Event::OrderedDelivered {
                        node: self.id.as_u32(),
                        instance: self.scoped_instance(d.instance.as_u64()),
                        origin: id.origin.as_u32(),
                        seq: id.seq,
                    });
                }
            }
        }
        ordered
    }

    /// Tears the process down, salvaging the acceptor's stable storage —
    /// the only state that survives a crash (§2.1's crash-recovery model).
    /// Recover with [`PaxosProcess::with_storage`].
    pub fn into_acceptor_storage(self) -> S {
        self.acceptor.into_storage()
    }

    /// A proposal whose value this process holds: the learner takes it
    /// whether or not the acceptor goes on to accept it (votes name the
    /// value by id only), then the acceptor votes.
    fn on_proposal(&mut self, instance: InstanceId, round: Round, value: Value) -> Vec<Outbound> {
        let mut out = Vec::new();
        if let Some(decided) = self.learner.on_phase2a(instance, round, &value) {
            out.extend(self.on_quorum(instance, decided));
        }
        out.extend(
            self.acceptor
                .on_phase2a(instance, round, value)
                .map(Outbound::to_coordinator),
        );
        out
    }

    /// Holds a thin proposal until its value arrives. A repeat of a parked
    /// proposal, or one for an instance already decided here, is dropped.
    fn park(&mut self, parked: Parked) {
        let known = self
            .parked
            .iter()
            .any(|p| (p.instance, p.round) == (parked.instance, parked.round));
        if !known && !self.learner.is_decided(parked.instance) {
            self.parked.push(parked);
            self.proposals_parked += 1;
        }
    }

    /// Hands a client value to the parked proposals waiting for it and
    /// replays, in arrival order, those it completes.
    fn unpark(&mut self, value: &Value) -> Vec<Outbound> {
        let mut out = Vec::new();
        if self.parked.is_empty() {
            return out;
        }
        let mut ready = Vec::new();
        self.parked.retain_mut(|p| {
            p.take(value);
            match p.resolved() {
                Some(value) => {
                    ready.push((p.instance, p.round, value));
                    false
                }
                None => true,
            }
        });
        for (instance, round, value) in ready {
            out.extend(self.on_proposal(instance, round, value));
        }
        out
    }

    /// A majority of identical votes met its value: the instance is decided
    /// here without a Decision message.
    fn on_quorum(&mut self, instance: InstanceId, value: Value) -> Vec<Outbound> {
        if O::ENABLED {
            let id = value.id();
            self.observer.record(Event::QuorumReached {
                node: self.id.as_u32(),
                instance: self.scoped_instance(instance.as_u64()),
                origin: id.origin.as_u32(),
                seq: id.seq,
            });
        }
        self.on_locally_decided(instance, value)
    }

    fn on_locally_decided(&mut self, instance: InstanceId, value: Value) -> Vec<Outbound> {
        // A batch decides its parts too: none of them is pooled, proposed
        // or waited for again.
        for id in std::iter::once(value.id()).chain(value.component_ids()) {
            self.decided_ids.insert(id);
            self.pool.remove(&id);
        }
        self.parked.retain(|p| p.instance != instance);
        if O::ENABLED {
            let id = value.id();
            self.observer.record(Event::Decided {
                node: self.id.as_u32(),
                instance: self.scoped_instance(instance.as_u64()),
                origin: id.origin.as_u32(),
                seq: id.seq,
            });
        }
        match self.coordinator.as_mut() {
            Some(c) => {
                // The coordinator announces the decision and may unblock
                // queued client values (§2.3: the Decision step "becomes
                // redundant if Phase 2b messages are received by all
                // processes" — under gossip the semantic layer filters it).
                let mut out = vec![Outbound::to_all(PaxosMessage::Decision {
                    instance,
                    value,
                    sender: self.id,
                })];
                out.extend(c.on_decided(instance).into_iter().map(Outbound::to_all));
                out
            }
            None => Vec::new(),
        }
    }

    /// Tracks the highest round seen. When a newer round supersedes this
    /// process's own coordinatorship, the demoted coordinator's undecided
    /// backlog is re-forwarded to the new coordinator — Phase 1 only
    /// recovers values that reached at least one promising acceptor, so
    /// anything still queued (or accepted by no quorum member) would
    /// otherwise be lost with the old round. Values this process has since
    /// seen decided are dropped rather than re-forwarded, keeping delivery
    /// at-most-once.
    fn observe_round(&mut self, round: Round) -> Vec<Outbound> {
        if round <= self.current_round {
            return Vec::new();
        }
        self.current_round = round;
        let superseded = self
            .coordinator
            .take_if(|c| c.round() < round)
            .map(Coordinator::into_undecided)
            .unwrap_or_default();
        superseded
            .into_iter()
            .filter(|value| !self.decided_ids.contains(&value.id()))
            .map(|value| {
                Outbound::to_coordinator(PaxosMessage::ClientValue {
                    forwarder: self.id,
                    value,
                })
            })
            .collect()
    }
}

/// A thin proposal waiting for its value, or for the parts of its batch.
#[derive(Debug)]
struct Parked {
    instance: InstanceId,
    round: Round,
    id: ValueId,
    /// A batch's parts, in order, each with its value once held.
    parts: Vec<(ValueId, Option<Value>)>,
    /// The value itself, once held: a plain value, or a batch that arrived
    /// whole (a demoted coordinator re-forwards its backlog as it was).
    value: Option<Value>,
}

impl Parked {
    /// Takes `value` if this proposal names it or one of its parts.
    fn take(&mut self, value: &Value) {
        if value.id() == self.id {
            self.value = Some(value.clone());
        }
        for (id, slot) in &mut self.parts {
            if *id == value.id() {
                *slot = Some(value.clone());
            }
        }
    }

    /// Takes whatever `pool` holds of this proposal's value and parts.
    fn take_from_pool(&mut self, pool: &HashMap<ValueId, Value>) {
        self.value = pool.get(&self.id).cloned();
        for (id, slot) in &mut self.parts {
            *slot = pool.get(id).cloned();
        }
    }

    /// The proposed value, once everything it needs is held: a batch is
    /// rebuilt from its parts under its original id, byte for byte.
    fn resolved(&self) -> Option<Value> {
        if let Some(value) = &self.value {
            return Some(value.clone());
        }
        if self.parts.is_empty() {
            return None;
        }
        let parts: Option<Vec<Value>> = self.parts.iter().map(|(_, v)| v.clone()).collect();
        let batch_seq = self.id.seq & !BATCH_SEQ_BIT;
        Some(Value::batch(self.id.origin, batch_seq, &parts?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Delivers every outbound to every process (gossip-like full fan-out)
    /// until quiescence.
    fn run_to_quiescence(procs: &mut [PaxosProcess], mut inflight: Vec<Outbound>) {
        let mut steps = 0;
        while let Some(out) = inflight.pop() {
            steps += 1;
            assert!(steps < 1_000_000, "protocol did not quiesce");
            for p in procs.iter_mut() {
                inflight.extend(p.handle(out.msg.clone()));
            }
        }
    }

    fn proposal(value: &Value, round: Round) -> PaxosMessage {
        PaxosMessage::Phase2a {
            instance: InstanceId::ZERO,
            round,
            value: value.clone().into(),
            sender: NodeId::new(0),
        }
    }

    fn cluster(n: usize) -> Vec<PaxosProcess> {
        let config = PaxosConfig::new(n);
        (0..n as u32)
            .map(|i| PaxosProcess::new(NodeId::new(i), config.clone()))
            .collect()
    }

    #[test]
    fn single_value_decided_by_all() {
        let mut procs = cluster(3);
        let mut inflight = procs[0].start_round(Round::ZERO);
        let (value, out) = procs[0].submit_payload(b"v".to_vec());
        inflight.extend(out);
        run_to_quiescence(&mut procs, inflight);
        for p in procs.iter_mut() {
            let decisions = p.take_decisions();
            assert_eq!(decisions.len(), 1);
            assert_eq!(decisions[0].0, InstanceId::ZERO);
            assert_eq!(decisions[0].1, value);
        }
    }

    #[test]
    fn handle_counts_messages_per_kind() {
        let mut procs = cluster(3);
        let mut inflight = procs[0].start_round(Round::ZERO);
        let (_, out) = procs[0].submit_payload(b"v".to_vec());
        inflight.extend(out);
        run_to_quiescence(&mut procs, inflight);
        let counts = procs[1].handled_by_kind();
        assert_eq!(counts.len(), Kind::COUNT);
        // Deciding one value makes every process handle the round's 1a and
        // the value's 2a/2b traffic; a non-coordinator sees no ClientValue.
        assert!(counts[Kind::Phase1a.index()] >= 1, "{counts:?}");
        assert!(counts[Kind::Phase2a.index()] >= 1, "{counts:?}");
        assert!(counts[Kind::Phase2b.index()] >= 1, "{counts:?}");
        let total: u64 = counts.iter().sum();
        let fresh = PaxosProcess::new(NodeId::new(0), PaxosConfig::new(3));
        assert!(total > 0 && fresh.handled_by_kind().iter().sum::<u64>() == 0);
    }

    #[test]
    fn values_from_all_processes_are_ordered_identically() {
        let mut procs = cluster(5);
        let mut inflight = procs[0].start_round(Round::ZERO);
        for (i, p) in procs.iter_mut().enumerate() {
            let (_, out) = p.submit_payload(vec![i as u8]);
            inflight.extend(out);
        }
        run_to_quiescence(&mut procs, inflight);
        let reference: Vec<(InstanceId, Value)> = procs[0].take_decisions();
        assert_eq!(reference.len(), 5);
        for p in procs[1..].iter_mut() {
            assert_eq!(p.take_decisions(), reference);
        }
    }

    #[test]
    fn client_value_forwarded_when_not_coordinator() {
        let mut procs = cluster(3);
        let out = procs[1].submit(Value::new(NodeId::new(1), 0, vec![1]));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].route, Route::ToCoordinator);
        assert!(matches!(out[0].msg, PaxosMessage::ClientValue { .. }));
    }

    #[test]
    fn duplicate_client_value_proposed_once() {
        let mut procs = cluster(3);
        let mut inflight = procs[0].start_round(Round::ZERO);
        let value = Value::new(NodeId::new(2), 0, vec![9]);
        // The same forwarded value reaches the coordinator twice.
        inflight.push(Outbound::to_coordinator(PaxosMessage::ClientValue {
            forwarder: NodeId::new(2),
            value: value.clone(),
        }));
        inflight.push(Outbound::to_coordinator(PaxosMessage::ClientValue {
            forwarder: NodeId::new(1),
            value: value.clone(),
        }));
        run_to_quiescence(&mut procs, inflight);
        let decisions = procs[0].take_decisions();
        assert_eq!(decisions.len(), 1);
    }

    #[test]
    fn round_change_reproposes_accepted_value() {
        let mut procs = cluster(3);
        // Round 0: coordinator 0 proposes, but only acceptor 0 sees the 2a.
        let mut inflight = procs[0].start_round(Round::ZERO);
        run_to_quiescence(&mut procs, std::mem::take(&mut inflight));
        let (value, out) = procs[0].submit_payload(b"survivor".to_vec());
        // Deliver the Phase2a to processes 0 and 1 only (partition): the
        // value is accepted by a majority, so every Phase 1 quorum of the
        // next round must observe and re-propose it.
        let phase2a = out
            .into_iter()
            .find(|o| matches!(o.msg, PaxosMessage::Phase2a { .. }))
            .expect("prepared coordinator proposes immediately");
        let _votes = procs[0].handle(phase2a.msg.clone());
        let _votes = procs[1].handle(phase2a.msg.clone());
        // Now process 1 takes over with round 1 and full connectivity.
        let inflight = procs[1].start_round(Round::new(1));
        run_to_quiescence(&mut procs, inflight);
        // The accepted value must be re-proposed and decided at instance 0.
        for p in procs.iter_mut() {
            let decisions = p.take_decisions();
            assert_eq!(decisions.len(), 1, "at {}", p.id());
            assert_eq!(decisions[0].1, value);
        }
    }

    #[test]
    fn newer_round_supersedes_old_coordinator() {
        let mut procs = cluster(3);
        let inflight = procs[0].start_round(Round::ZERO);
        run_to_quiescence(&mut procs, inflight);
        assert!(procs[0].is_coordinator());
        // Process 1 starts round 1; its Phase1a demotes process 0.
        let inflight = procs[1].start_round(Round::new(1));
        run_to_quiescence(&mut procs, inflight);
        assert!(!procs[0].is_coordinator());
        assert!(procs[1].is_coordinator());
        assert_eq!(procs[0].current_coordinator(), NodeId::new(1));
    }

    #[test]
    #[should_panic(expected = "cannot start")]
    fn starting_stale_round_panics() {
        let mut procs = cluster(3);
        let inflight = procs[1].start_round(Round::new(1));
        run_to_quiescence(&mut procs, inflight);
        // Process 0 now knows round 1; restarting round 0 is a bug.
        procs[0].start_round(Round::ZERO);
    }

    #[test]
    fn demoted_coordinator_reforwards_undecided_backlog() {
        let mut procs = cluster(3);
        let inflight = procs[0].start_round(Round::ZERO);
        run_to_quiescence(&mut procs, inflight);
        // Coordinator 0 proposes a value, but the Phase 2a reaches nobody
        // (all copies lost): no acceptor ever reports it in Phase 1b.
        let (value, _lost) = procs[0].submit_payload(b"orphan".to_vec());
        // Process 1 takes over with round 1. Process 0's Phase 1a handler
        // must demote its coordinator and re-forward the orphan, so the
        // new coordinator proposes it and the system still decides it.
        let inflight = procs[1].start_round(Round::new(1));
        run_to_quiescence(&mut procs, inflight);
        for p in procs.iter_mut() {
            let decisions = p.take_decisions();
            assert_eq!(decisions.len(), 1, "at {}", p.id());
            assert_eq!(decisions[0].1, value, "at {}", p.id());
        }
    }

    #[test]
    fn reforwarded_value_already_decided_is_not_reproposed() {
        let mut procs = cluster(3);
        let inflight = procs[0].start_round(Round::ZERO);
        let (value, out) = procs[0].submit_payload(b"dup".to_vec());
        run_to_quiescence(&mut procs, [inflight, out].concat());
        // Everyone decided the value in round 0. A stale re-forward (as a
        // demoted coordinator would send) must not open a second instance.
        let inflight = procs[1].start_round(Round::new(1));
        run_to_quiescence(&mut procs, inflight);
        let stale = Outbound::to_coordinator(PaxosMessage::ClientValue {
            forwarder: NodeId::new(0),
            value: value.clone(),
        });
        run_to_quiescence(&mut procs, vec![stale]);
        for p in procs.iter_mut() {
            let decisions = p.take_decisions();
            assert_eq!(decisions.len(), 1, "value decided twice at {}", p.id());
            assert_eq!(decisions[0].1, value);
        }
    }

    #[test]
    fn learner_decides_from_majority_without_decision_message() {
        // Feed the proposal and raw 2b votes to a bystander process: it
        // must decide alone.
        let mut p = PaxosProcess::new(NodeId::new(2), PaxosConfig::new(3));
        let v = Value::new(NodeId::new(0), 0, vec![5]);
        let vote = |voter: u32| PaxosMessage::Phase2b {
            instance: InstanceId::ZERO,
            round: Round::ZERO,
            value: v.id(),
            voters: vec![NodeId::new(voter)].into(),
        };
        let own_vote = p.handle(proposal(&v, Round::ZERO));
        assert_eq!(own_vote.len(), 1);
        assert!(p.handle(vote(0)).is_empty());
        assert!(p.handle(vote(1)).is_empty()); // decided; not coordinator => no Decision emitted
        assert_eq!(p.take_decisions(), vec![(InstanceId::ZERO, v)]);
        assert_eq!(p.value_waits(), 0);
    }

    #[test]
    fn votes_ahead_of_the_proposal_wait_for_it() {
        use obs::RingObserver;
        let mut p: PaxosProcess<MemoryStorage, RingObserver> = PaxosProcess::with_observer(
            NodeId::new(2),
            PaxosConfig::new(3),
            MemoryStorage::default(),
            RingObserver::with_capacity(64),
        );
        let v = Value::new(NodeId::new(0), 0, vec![5]);
        p.handle(PaxosMessage::Phase2b {
            instance: InstanceId::ZERO,
            round: Round::ZERO,
            value: v.id(),
            voters: vec![NodeId::new(0), NodeId::new(1)].into(),
        });
        assert!(p.take_decisions().is_empty(), "a quorum of ids, no value");
        assert_eq!((p.value_waits(), p.instance_window()), (1, 1));
        p.handle(proposal(&v, Round::ZERO));
        assert_eq!(p.take_decisions(), vec![(InstanceId::ZERO, v)]);
        let kinds: Vec<&str> = p.observer().iter().map(|e| e.event.kind()).collect();
        let at = |kind: &str| {
            let found = kinds.iter().position(|k| *k == kind);
            found.unwrap_or_else(|| panic!("no {kind} in {kinds:?}"))
        };
        assert!(at("value_awaited") < at("phase2a"), "{kinds:?}");
        assert!(at("phase2a") < at("quorum_reached"), "{kinds:?}");
    }

    #[test]
    fn a_proposal_the_acceptor_rejects_still_supplies_the_value() {
        let mut p = PaxosProcess::new(NodeId::new(2), PaxosConfig::new(3));
        let v = Value::new(NodeId::new(0), 0, vec![5]);
        // The acceptor has promised round 2...
        p.handle(PaxosMessage::Phase1a {
            round: Round::new(2),
            from_instance: InstanceId::ZERO,
            sender: NodeId::new(2),
        });
        // ...so it stays silent on round 0's proposal, which the other two
        // acceptors vote for.
        assert!(p.handle(proposal(&v, Round::ZERO)).is_empty());
        p.handle(PaxosMessage::Phase2b {
            instance: InstanceId::ZERO,
            round: Round::ZERO,
            value: v.id(),
            voters: vec![NodeId::new(0), NodeId::new(1)].into(),
        });
        assert_eq!(p.take_decisions(), vec![(InstanceId::ZERO, v)]);
        assert_eq!(p.value_waits(), 0);
    }

    #[test]
    fn aggregated_votes_decide_in_one_message() {
        let mut p = PaxosProcess::new(NodeId::new(2), PaxosConfig::new(3));
        let v = Value::new(NodeId::new(0), 0, vec![5]);
        let agg = PaxosMessage::Phase2b {
            instance: InstanceId::ZERO,
            round: Round::ZERO,
            value: v.id(),
            voters: vec![NodeId::new(0), NodeId::new(1)].into(),
        };
        p.handle(proposal(&v, Round::ZERO));
        p.handle(agg);
        assert_eq!(p.take_decisions().len(), 1);
    }

    #[test]
    fn coordinator_emits_decision_on_quorum() {
        let mut procs = cluster(3);
        let inflight = procs[0].start_round(Round::ZERO);
        run_to_quiescence(&mut procs, inflight);
        let (_, out) = procs[0].submit_payload(vec![1]);
        // The coordinator sends the value to all, then names it.
        let [client_value, phase2a] = <[Outbound; 2]>::try_from(out).unwrap();
        assert!(matches!(client_value.msg, PaxosMessage::ClientValue { .. }));
        assert_eq!(client_value.route, Route::ToAll);
        // Gather votes from processes 0 and 1.
        assert!(procs[1].handle(client_value.msg).is_empty());
        let vote0 = procs[0].handle(phase2a.msg.clone());
        let vote1 = procs[1].handle(phase2a.msg.clone());
        let out = procs[0].handle(vote0[0].msg.clone());
        assert!(out.is_empty(), "one vote is not a quorum");
        let out = procs[0].handle(vote1[0].msg.clone());
        assert!(
            out.iter()
                .any(|o| matches!(o.msg, PaxosMessage::Decision { .. })),
            "coordinator must announce the decision"
        );
    }

    #[test]
    fn crash_recovery_preserves_acceptor_state() {
        let config = PaxosConfig::new(3);
        let mut p = PaxosProcess::new(NodeId::new(1), config.clone());
        let v = Value::new(NodeId::new(0), 0, vec![1]);
        let out = p.handle(proposal(&v, Round::ZERO));
        assert_eq!(out.len(), 1);

        // Crash: rebuild the process from the acceptor's stable storage.
        let storage = p.acceptor.into_storage();
        let mut recovered = PaxosProcess::with_storage(NodeId::new(1), config, storage);
        // A Phase 1a for a newer round must report the accepted value.
        let out = recovered.handle(PaxosMessage::Phase1a {
            round: Round::new(1),
            from_instance: InstanceId::ZERO,
            sender: NodeId::new(1),
        });
        match &out[0].msg {
            PaxosMessage::Phase1b { accepted, .. } => {
                assert_eq!(accepted.len(), 1);
                assert_eq!(accepted[0].value, v);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn observer_sees_full_value_pipeline() {
        use obs::RingObserver;
        let config = PaxosConfig::new(3);
        let mut coord: PaxosProcess<MemoryStorage, RingObserver> = PaxosProcess::with_observer(
            NodeId::new(0),
            config.clone(),
            MemoryStorage::default(),
            RingObserver::with_capacity(256),
        );
        let mut acceptor = PaxosProcess::new(NodeId::new(1), config);
        let round_out = coord.start_round(Round::ZERO);
        // Prepare: feed the 1a back to the coordinator and to acceptor 1.
        let own_1b = coord.handle(round_out[0].msg.clone());
        let peer_1b = acceptor.handle(round_out[0].msg.clone());
        coord.handle(own_1b[0].msg.clone());
        let proposals = coord.handle(peer_1b[0].msg.clone());
        assert!(proposals.is_empty(), "no value pending yet");
        // Submit, vote, decide, deliver.
        let (_, out) = coord.submit_payload(vec![7]);
        let [client_value, phase2a] = <[Outbound; 2]>::try_from(out).unwrap();
        acceptor.handle(client_value.msg);
        let own_vote = coord.handle(phase2a.msg.clone());
        let peer_vote = acceptor.handle(phase2a.msg.clone());
        coord.handle(own_vote[0].msg.clone());
        coord.handle(peer_vote[0].msg.clone());
        assert_eq!(coord.take_decisions().len(), 1);
        let kinds: Vec<&str> = coord.observer().iter().map(|e| e.event.kind()).collect();
        for expected in [
            "round_started",
            "phase1a",
            "phase1b",
            "value_submitted",
            "phase2a",
            "phase2b",
            "quorum_reached",
            "decided",
            "ordered_delivered",
        ] {
            assert!(kinds.contains(&expected), "missing {expected} in {kinds:?}");
        }
    }

    fn thin(instance: u64, value: &Value) -> PaxosMessage {
        PaxosMessage::Phase2a {
            instance: InstanceId::new(instance),
            round: Round::ZERO,
            value: Proposal::naming(value),
            sender: NodeId::new(0),
        }
    }

    fn client_value(value: &Value) -> PaxosMessage {
        PaxosMessage::ClientValue {
            forwarder: value.id().origin,
            value: value.clone(),
        }
    }

    fn votes(instance: u64, value: &Value, voters: &[u32]) -> PaxosMessage {
        PaxosMessage::Phase2b {
            instance: InstanceId::new(instance),
            round: Round::ZERO,
            value: value.id(),
            voters: voters.iter().copied().map(NodeId::new).collect(),
        }
    }

    #[test]
    fn a_thin_proposal_waits_for_its_value_before_the_acceptor_votes() {
        let mut p = PaxosProcess::new(NodeId::new(2), PaxosConfig::new(3));
        let v = Value::new(NodeId::new(1), 0, vec![5; 8]);
        assert!(
            p.handle(thin(0, &v)).is_empty(),
            "no vote without the value"
        );
        assert!(p.acceptor().accepted(InstanceId::ZERO).is_none());
        assert_eq!((p.parked_proposals(), p.proposals_parked()), (1, 1));
        // A repeat of the parked proposal is not parked twice.
        p.handle(thin(0, &v));
        assert_eq!((p.parked_proposals(), p.proposals_parked()), (1, 1));
        let vote = p.handle(client_value(&v));
        assert_eq!(vote.len(), 1);
        assert!(matches!(vote[0].msg, PaxosMessage::Phase2b { value, .. } if value == v.id()));
        assert_eq!(p.acceptor().accepted(InstanceId::ZERO).unwrap().1, v);
        assert_eq!((p.parked_proposals(), p.pooled_values()), (0, 1));
        p.handle(votes(0, &v, &[0, 1]));
        assert_eq!(p.take_decisions(), vec![(InstanceId::ZERO, v)]);
        assert_eq!(p.pooled_values(), 0, "a decided value leaves the pool");
    }

    #[test]
    fn a_pooled_value_resolves_its_proposal_at_once() {
        let mut p = PaxosProcess::new(NodeId::new(2), PaxosConfig::new(3));
        let v = Value::new(NodeId::new(1), 0, vec![5; 8]);
        assert!(p.handle(client_value(&v)).is_empty());
        assert_eq!(p.handle(thin(0, &v)).len(), 1, "votes at once");
        assert_eq!(p.proposals_parked(), 0);
    }

    #[test]
    fn a_batch_is_rebuilt_from_its_parts_byte_for_byte() {
        use semantic_gossip::codec::Wire;
        let mut p = PaxosProcess::new(NodeId::new(2), PaxosConfig::new(3));
        let parts: Vec<Value> = (0..3)
            .map(|seq| Value::new(NodeId::new(1), seq, vec![seq as u8; 5]))
            .collect();
        let batch = Value::batch(NodeId::new(0), 4, &parts);
        p.handle(client_value(&parts[1]));
        assert!(p.handle(thin(0, &batch)).is_empty());
        assert!(
            p.handle(client_value(&parts[2])).is_empty(),
            "one part short"
        );
        assert_eq!(p.handle(client_value(&parts[0])).len(), 1);
        assert_eq!(p.acceptor().accepted(InstanceId::ZERO).unwrap().1, batch);
        p.handle(votes(0, &batch, &[0, 1]));
        let decided = p.take_decisions();
        assert_eq!(decided[0].1.to_bytes(), batch.to_bytes());
        assert_eq!(decided[0].1.components().unwrap(), parts);
        assert_eq!((p.pooled_values(), p.parked_proposals()), (0, 0));
        // A part arriving after its batch was decided is not pooled again.
        p.handle(client_value(&parts[0]));
        assert_eq!(p.pooled_values(), 0);
    }

    #[test]
    fn the_decision_releases_a_proposal_whose_value_never_came() {
        let mut p = PaxosProcess::new(NodeId::new(2), PaxosConfig::new(3));
        let v = Value::new(NodeId::new(1), 0, vec![5; 8]);
        p.handle(thin(0, &v));
        p.handle(votes(0, &v, &[0, 1]));
        assert!(p.take_decisions().is_empty());
        assert_eq!(p.value_waits(), 1);
        p.handle(PaxosMessage::Decision {
            instance: InstanceId::ZERO,
            value: v.clone(),
            sender: NodeId::new(0),
        });
        assert_eq!(p.take_decisions(), vec![(InstanceId::ZERO, v)]);
        assert_eq!((p.pooled_values(), p.parked_proposals()), (0, 0));
    }

    #[test]
    fn a_value_decided_once_still_resolves_a_second_instance() {
        // Coordinators of two rounds can give one value two instances; the
        // second proposal must not wait for a value the pool let go of.
        let mut p = PaxosProcess::new(NodeId::new(2), PaxosConfig::new(3));
        let v = Value::new(NodeId::new(1), 0, vec![5; 8]);
        p.handle(client_value(&v));
        p.handle(thin(0, &v));
        p.handle(votes(0, &v, &[0, 1]));
        assert_eq!(p.take_decisions().len(), 1);
        assert!(p.handle(thin(1, &v)).is_empty());
        assert_eq!(p.parked_proposals(), 1);
        assert_eq!(p.handle(client_value(&v)).len(), 1, "votes in instance 1");
        assert_eq!((p.pooled_values(), p.parked_proposals()), (0, 0));
    }

    #[test]
    fn over_direct_channels_the_coordinator_neither_pools_nor_sends_the_value_to_all() {
        let config = PaxosConfig {
            values_broadcast: false,
            ..PaxosConfig::new(3)
        };
        let mut procs: Vec<PaxosProcess> = (0..3)
            .map(|i| PaxosProcess::new(NodeId::new(i), config.clone()))
            .collect();
        let inflight = procs[0].start_round(Round::ZERO);
        run_to_quiescence(&mut procs, inflight);
        let (v, out) = procs[0].submit_payload(vec![1]);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0].msg,
            PaxosMessage::Phase2a { value: Proposal::Value(w), .. } if w == &v
        ));
        assert_eq!(procs[0].pooled_values(), 0);
    }

    // --- thin proposals against an oracle fed the fat information --------

    mod send_once {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// One scheduling decision. Indices pick an in-flight message modulo
        /// the number in flight.
        #[derive(Debug, Clone)]
        enum Step {
            /// The client of value `k` submits it at its origin.
            Submit(usize),
            /// Hands a message to its destination.
            Deliver(usize),
            /// Hands a message to its destination and keeps it in flight.
            Duplicate(usize),
            /// Loses a message.
            Drop(usize),
            /// The next round's coordinator takes over.
            NewRound,
        }

        const VALUES: usize = 6;
        const MAX_ROUND: u32 = 2;

        /// Mostly deliveries, so that instances get decided; now and then
        /// a repeat, a loss, or a round change.
        fn arb_step() -> impl Strategy<Value = Step> {
            (0..100u8, any::<usize>()).prop_map(|(dice, i)| match dice {
                0..10 => Step::Submit(i % VALUES),
                10..80 => Step::Deliver(i),
                80..88 => Step::Duplicate(i),
                88..98 => Step::Drop(i),
                _ => Step::NewRound,
            })
        }

        /// Every client value of the run, by id: what "the value" is.
        struct Universe(HashMap<ValueId, Value>);

        impl Universe {
            /// The value a proposal proposes, whatever its form.
            fn resolve(&self, proposal: &Proposal) -> Value {
                match proposal {
                    Proposal::Value(value) => value.clone(),
                    Proposal::Id { id, parts } if parts.is_empty() => self.0[id].clone(),
                    Proposal::Id { id, parts } => {
                        let parts: Vec<Value> = parts.iter().map(|p| self.0[p].clone()).collect();
                        Value::batch(id.origin, id.seq & !BATCH_SEQ_BIT, &parts)
                    }
                }
            }

            /// Whether `value` is the genuine value its id names, parts and
            /// payload included.
            fn genuine(&self, value: &Value) -> bool {
                match value.components() {
                    Some(parts) => parts.iter().all(|p| self.0.get(&p.id()) == Some(p)),
                    None => self.0.get(&value.id()) == Some(value),
                }
            }
        }

        /// A learner fed every message a process handles, with each thin
        /// proposal replaced by the value it names: what the process could
        /// know if every proposal carried its value.
        struct FatOracle {
            learner: Learner,
            log: Vec<(InstanceId, Value)>,
        }

        impl FatOracle {
            fn observe(&mut self, msg: &PaxosMessage, universe: &Universe) {
                match msg {
                    PaxosMessage::Phase2a {
                        instance,
                        round,
                        value,
                        ..
                    } => {
                        self.learner
                            .on_phase2a(*instance, *round, &universe.resolve(value));
                    }
                    PaxosMessage::Phase2b {
                        instance,
                        round,
                        value,
                        voters,
                    } => {
                        self.learner.on_phase2b(*instance, *round, *value, voters);
                    }
                    PaxosMessage::Decision {
                        instance, value, ..
                    } => {
                        self.learner.on_decision(*instance, value);
                    }
                    _ => {}
                }
                let ordered = self.learner.take_ordered();
                self.log
                    .extend(ordered.into_iter().map(|d| (d.instance, d.value)));
            }
        }

        /// Checks what a process just sent: its acceptor votes only on a
        /// value it holds, and its Phase 1b reports carry genuine values.
        fn check_sent(
            p: &PaxosProcess,
            out: &[Outbound],
            universe: &Universe,
        ) -> Result<(), TestCaseError> {
            for o in out {
                match &o.msg {
                    PaxosMessage::Phase2b {
                        instance,
                        round,
                        value,
                        ..
                    } => {
                        let accepted = p.acceptor().accepted(*instance);
                        let (at, held) = accepted.expect("voted without accepting");
                        prop_assert!(at >= round, "vote at {round}, accepted at {at}");
                        prop_assert!(at > round || held.id() == *value, "voted on another id");
                        prop_assert!(universe.genuine(held), "voted on a value it lacks");
                    }
                    PaxosMessage::Phase1b { accepted, .. } => {
                        for entry in accepted {
                            prop_assert!(universe.genuine(&entry.value), "{entry:?}");
                        }
                    }
                    _ => {}
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Three to five processes over a substrate that broadcasts
            /// everything, under any interleaving of client values,
            /// proposals, votes, Decisions and round changes — repeated
            /// and lost freely. Each process delivers a prefix of the log
            /// its fat oracle builds from the same messages, votes only on
            /// values it holds and reports only genuine values in Phase 1b.
            /// Once every client value has reached every process, each log
            /// equals its oracle's.
            #[test]
            fn prop_thin_proposals_deliver_a_prefix_of_the_fat_log(
                n in 3usize..6,
                batch in 1usize..4,
                steps in proptest::collection::vec(arb_step(), 0..400),
            ) {
                let config = PaxosConfig::new(n).with_batch_values(batch);
                let mut procs: Vec<PaxosProcess> = (0..n as u32)
                    .map(|i| PaxosProcess::new(NodeId::new(i), config.clone()))
                    .collect();
                let values: Vec<Value> = (0..VALUES)
                    .map(|k| Value::new(NodeId::new((k % n) as u32), k as u64, vec![k as u8; 3]))
                    .collect();
                let universe = Universe(values.iter().map(|v| (v.id(), v.clone())).collect());
                let mut oracles: Vec<FatOracle> = (0..n)
                    .map(|_| FatOracle { learner: Learner::new(config.clone()), log: Vec::new() })
                    .collect();
                let mut logs: Vec<Vec<(InstanceId, Value)>> = vec![Vec::new(); n];
                let mut submitted = [false; VALUES];
                let mut client_values = Vec::new();
                let mut round = Round::ZERO;
                // Messages in flight, one entry per destination.
                let mut inflight: Vec<(usize, PaxosMessage)> = Vec::new();
                let send = |out: Vec<Outbound>,
                                inflight: &mut Vec<(usize, PaxosMessage)>,
                                client_values: &mut Vec<PaxosMessage>| {
                    for o in out {
                        if matches!(o.msg, PaxosMessage::ClientValue { .. }) {
                            client_values.push(o.msg.clone());
                        }
                        inflight.extend((0..n).map(|d| (d, o.msg.clone())));
                    }
                };
                let handle = |d: usize,
                                  msg: PaxosMessage,
                                  procs: &mut Vec<PaxosProcess>,
                                  oracles: &mut Vec<FatOracle>,
                                  logs: &mut Vec<Vec<(InstanceId, Value)>>|
                 -> Result<Vec<Outbound>, TestCaseError> {
                    oracles[d].observe(&msg, &universe);
                    let out = procs[d].handle(msg);
                    check_sent(&procs[d], &out, &universe)?;
                    let delivered = procs[d].take_delivered();
                    logs[d].extend(delivered.into_iter().map(|x| (x.instance, x.value)));
                    let oracle = &oracles[d].log;
                    prop_assert!(logs[d].len() <= oracle.len(), "p{d} ran ahead of its oracle");
                    prop_assert_eq!(&logs[d][..], &oracle[..logs[d].len()]);
                    Ok(out)
                };
                // Round 0 starts prepared: its Phase 1 reaches everyone.
                let mut phase1 = procs[0].start_round(Round::ZERO);
                while let Some(o) = phase1.pop() {
                    for d in 0..n {
                        phase1.extend(handle(d, o.msg.clone(), &mut procs, &mut oracles, &mut logs)?);
                    }
                }
                for step in steps {
                    let pick = |i: usize, len: usize| i % len.max(1);
                    match step {
                        Step::Submit(k) if !submitted[k] => {
                            submitted[k] = true;
                            let origin = values[k].id().origin.as_index();
                            let out = procs[origin].submit(values[k].clone());
                            send(out, &mut inflight, &mut client_values);
                        }
                        Step::Submit(_) => {}
                        Step::Deliver(i) | Step::Duplicate(i) if !inflight.is_empty() => {
                            let at = pick(i, inflight.len());
                            let (d, msg) = if matches!(step, Step::Deliver(_)) {
                                inflight.swap_remove(at)
                            } else {
                                inflight[at].clone()
                            };
                            let out = handle(d, msg, &mut procs, &mut oracles, &mut logs)?;
                            send(out, &mut inflight, &mut client_values);
                        }
                        Step::Drop(i) if !inflight.is_empty() => {
                            inflight.swap_remove(pick(i, inflight.len()));
                        }
                        Step::NewRound if round.as_u32() < MAX_ROUND => {
                            round = round.next();
                            let c = round.coordinator(n).as_index();
                            let out = procs[c].start_round(round);
                            send(out, &mut inflight, &mut client_values);
                        }
                        _ => {}
                    }
                }
                // Every client value reaches every process; whatever that
                // sends is left undelivered.
                for msg in client_values.clone() {
                    for d in 0..n {
                        handle(d, msg.clone(), &mut procs, &mut oracles, &mut logs)?;
                    }
                }
                for d in 0..n {
                    prop_assert_eq!(&logs[d], &oracles[d].log, "p{} lags its oracle", d);
                }
                // Safety across processes: every log is a prefix of the longest.
                let longest = oracles.iter().map(|o| &o.log).max_by_key(|l| l.len()).unwrap();
                for o in &oracles {
                    prop_assert_eq!(&o.log[..], &longest[..o.log.len()]);
                }
            }
        }
    }

    #[test]
    fn retransmit_resends_open_proposals() {
        let mut procs = cluster(3);
        let inflight = procs[0].start_round(Round::ZERO);
        run_to_quiescence(&mut procs, inflight);
        let (_, _out) = procs[0].submit_payload(vec![1]); // 2a lost
        let again = procs[0].retransmit();
        assert_eq!(again.len(), 1);
        assert!(matches!(again[0].msg, PaxosMessage::Phase2a { .. }));
        // Non-coordinators have nothing to retransmit.
        assert!(procs[1].retransmit().is_empty());
    }
}
