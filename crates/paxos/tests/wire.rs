//! The wire format from the outside: every message kind round-trips at its
//! declared length, alone and group-tagged, and no byte string — random or
//! a damaged real frame — makes a decoder panic or allocate out of
//! proportion to the frame it was handed, whether it arrives as a message
//! or inside an eager/lazy `Packet`.
//!
//! This is an integration test so that it can install a counting global
//! allocator; the counters are per thread, so the other tests of this
//! binary, running in parallel, do not disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use paxos::message::{AcceptedEntry, Proposal};
use paxos::types::BATCH_SEQ_BIT;
use paxos::{InstanceId, PaxosMessage, Round, Value, ValueId, VoterSet};
use proptest::prelude::*;
use semantic_gossip::codec::{put_varint, Wire};
use semantic_gossip::{Grouped, NodeId, Packet};

thread_local! {
    /// The largest single allocation this thread requested while armed.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Counting;

fn note(size: usize) {
    // `try_with`: a thread tearing down has no counter left to update.
    let _ = LARGEST.try_with(|largest| {
        if let Some(so_far) = largest.get() {
            largest.set(Some(so_far.max(size)));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// beside it touches only a const-initialised thread-local `Cell`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns the largest single allocation it requested.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(Some(0)));
    let out = f();
    let largest = LARGEST.with(|largest| largest.take());
    (out, largest.expect("armed above"))
}

/// What a decoder may allocate at once for a frame of `len` bytes.
///
/// The decoded form of a message is larger than its encoding by a bounded
/// factor. The densest element is a Phase 1b entry: five bytes on the wire
/// (instance, round, origin, sequence number, empty payload) become a
/// 40-byte `AcceptedEntry`, and the `Vec` holding the entries may have
/// doubled once past what it needs: 16 bytes of memory per byte of frame.
/// The constant covers the fixed-size boxes (an `Arc` header) a frame of a
/// few bytes can already ask for. What the bound rules out is an
/// allocation sized by a length prefix instead of by the bytes present.
fn allocation_bound(len: usize) -> usize {
    16 * len + 64
}

fn arb_plain_value() -> impl Strategy<Value = Value> {
    (
        0u32..50,
        0u64..1000,
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(origin, seq, payload)| Value::new(NodeId::new(origin), seq, payload))
}

/// A plain client value or a coordinator's batch of two to four of them.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_plain_value(),
        arb_plain_value(),
        arb_plain_value(),
        (
            0u32..50,
            0u64..1000,
            proptest::collection::vec(arb_plain_value(), 2..5)
        )
            .prop_map(|(c, seq, parts)| Value::batch(NodeId::new(c), seq, &parts)),
    ]
}

/// Every message kind; voter ids run past the inline bitset into the spill.
fn arb_message() -> impl Strategy<Value = PaxosMessage> {
    let voters = proptest::collection::btree_set(0u32..300, 1..10)
        .prop_map(|ids| ids.into_iter().map(NodeId::new).collect::<VoterSet>());
    let accepted = proptest::collection::vec(
        (0u64..1000, 0u32..100, arb_value()).prop_map(|(i, r, value)| AcceptedEntry {
            instance: InstanceId::new(i),
            round: Round::new(r),
            value,
        }),
        0..6,
    );
    prop_oneof![
        (0u32..50, arb_value()).prop_map(|(f, value)| PaxosMessage::ClientValue {
            forwarder: NodeId::new(f),
            value,
        }),
        (0u32..100, 0u64..1000, 0u32..50).prop_map(|(r, i, s)| PaxosMessage::Phase1a {
            round: Round::new(r),
            from_instance: InstanceId::new(i),
            sender: NodeId::new(s),
        }),
        (0u32..100, 0u32..50, accepted).prop_map(|(r, s, accepted)| PaxosMessage::Phase1b {
            round: Round::new(r),
            sender: NodeId::new(s),
            accepted,
        }),
        (0u64..1000, 0u32..100, arb_value(), 0u32..50).prop_map(|(i, r, value, s)| {
            PaxosMessage::Phase2a {
                instance: InstanceId::new(i),
                round: Round::new(r),
                value: value.into(),
                sender: NodeId::new(s),
            }
        }),
        (0u64..100_000, 0u32..100, arb_value(), 0u32..50).prop_map(|(i, r, value, s)| {
            PaxosMessage::Phase2a {
                instance: InstanceId::new(i),
                round: Round::new(r),
                value: Proposal::naming(&value),
                sender: NodeId::new(s),
            }
        }),
        (0u64..100_000, 0u32..100, arb_value(), voters).prop_map(|(i, r, value, voters)| {
            PaxosMessage::Phase2b {
                instance: InstanceId::new(i),
                round: Round::new(r),
                value: value.id(),
                voters,
            }
        }),
        (0u64..1000, arb_value(), 0u32..50).prop_map(|(i, value, s)| PaxosMessage::Decision {
            instance: InstanceId::new(i),
            value,
            sender: NodeId::new(s),
        }),
    ]
}

/// Decodes `frame` every way a host does — bare, group-tagged, and as an
/// eager/lazy `Packet` around a group-tagged message — under the allocation
/// bound. Errors are fine; panics and balloons are not.
fn decode_within_bounds(frame: &[u8]) -> Result<(), TestCaseError> {
    let (_, bare) = largest_allocation(|| PaxosMessage::from_bytes(frame));
    let (_, grouped) = largest_allocation(|| Grouped::<PaxosMessage>::from_bytes(frame));
    let (_, packet) = largest_allocation(|| Packet::<Grouped<PaxosMessage>>::from_bytes(frame));
    let largest = bare.max(grouped).max(packet);
    prop_assert!(
        largest <= allocation_bound(frame.len()),
        "a {}-byte frame made the decoder allocate {largest} bytes at once",
        frame.len(),
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any Paxos message survives encode → decode unchanged, and the
    /// declared encoded length is exact — bare and inside a group tag.
    #[test]
    fn prop_messages_round_trip_at_their_declared_length(msg in arb_message(), group in 0u32..32) {
        let bytes = msg.to_bytes();
        prop_assert_eq!(bytes.len(), msg.encoded_len());
        prop_assert_eq!(&PaxosMessage::from_bytes(&bytes).unwrap(), &msg);
        let grouped = Grouped::new(group, msg);
        let bytes = grouped.to_bytes();
        prop_assert_eq!(bytes.len(), grouped.encoded_len());
        prop_assert_eq!(Grouped::<PaxosMessage>::from_bytes(&bytes).unwrap(), grouped);
    }

    /// Random bytes: no panic, no allocation beyond the frame's due.
    #[test]
    fn prop_arbitrary_bytes_are_refused_or_decoded_within_bounds(
        frame in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        decode_within_bounds(&frame)?;
    }

    /// A real frame, truncated and with bytes overwritten — the damage that
    /// reaches deep into a decoder, which random bytes rarely do.
    #[test]
    fn prop_damaged_frames_are_refused_or_decoded_within_bounds(
        msg in arb_message(),
        keep in 0usize..400,
        damage in proptest::collection::vec((0usize..400, any::<u8>()), 0..4),
        wrap in any::<bool>(),
    ) {
        let grouped = Grouped::new(3, msg);
        let mut frame = if wrap {
            Packet::Payload(5, grouped).to_bytes()
        } else {
            grouped.to_bytes()
        };
        for (at, byte) in damage {
            let at = at % frame.len();
            frame[at] = byte;
        }
        frame.truncate(keep.max(1));
        decode_within_bounds(&frame)?;
    }
}

/// Length prefixes that promise far more than the frame holds: each is
/// refused, and before anything is sized from the promise.
#[test]
fn counts_the_frame_cannot_hold_are_refused() {
    let with_count = |head: &[u8], count: u64, tail: &[u8]| {
        let mut frame = head.to_vec();
        put_varint(&mut frame, count);
        frame.extend_from_slice(tail);
        frame
    };
    let frames = [
        // Phase 1b (tag 3), round 1, sender 2, then 2^20 accepted entries.
        with_count(&[3, 1, 2], 1 << 20, &[0; 8]),
        // Phase 2b (tag 5), instance 9, round 0, value id (1, 4), voters.
        with_count(&[5, 9, 0, 1, 4], 1 << 20, &[1, 2, 3]),
        // The same with the first voter already past the inline bitset.
        with_count(&[5, 9, 0, 1, 4], 60, &[0x80, 0x01, 0x81, 0x01]),
        // Decision (tag 7), instance 9, value id (1, 4), a 15 MiB payload.
        with_count(&[7, 9, 1, 4], 15 << 20, &[0; 8]),
    ];
    for frame in frames {
        let (decoded, largest) = largest_allocation(|| PaxosMessage::from_bytes(&frame));
        assert!(decoded.is_err(), "{frame:?} decoded to {decoded:?}");
        assert!(
            largest <= allocation_bound(frame.len()),
            "{frame:?}: {largest} bytes"
        );
    }
    // An IHAVE (tag 1) whose 2-byte count promises 65 535 announce ids.
    let ihave = [&[1, 0xff, 0xff][..], &[0; 8]].concat();
    let (decoded, largest) =
        largest_allocation(|| Packet::<Grouped<PaxosMessage>>::from_bytes(&ihave));
    assert!(decoded.is_err(), "{ihave:?} decoded to {decoded:?}");
    assert!(
        largest <= allocation_bound(ihave.len()),
        "IHAVE: {largest} bytes"
    );
}

/// A value whose id carries the batch tag but whose payload is not a list
/// of at least two plain values is refused wherever a frame carries one.
/// Accepted, it would be ordered like any value and make every node panic
/// the moment it split the decided batch into its parts.
#[test]
fn a_batch_tag_on_a_payload_that_is_no_batch_is_refused() {
    let part = |seq| Value::new(NodeId::new(1), seq, vec![7; 3]);
    let list = |parts: &[Value]| {
        let mut payload = Vec::new();
        put_varint(&mut payload, parts.len() as u64);
        parts.iter().for_each(|p| p.encode(&mut payload));
        payload
    };
    let tagged = |payload| Value::new(NodeId::new(0), BATCH_SEQ_BIT | 1, payload);
    let mut trailing = list(&[part(1), part(2)]);
    trailing.push(0);
    let nested = Value::batch(NodeId::new(2), 0, &[part(3), part(4)]);
    let bad_values = [
        tagged(vec![0xff; 3]),
        tagged(list(&[])),
        tagged(list(&[part(1)])),
        tagged(list(&[part(1), nested])),
        tagged(trailing),
    ];
    for value in bad_values {
        let carriers = [
            PaxosMessage::ClientValue {
                forwarder: NodeId::new(0),
                value: value.clone(),
            },
            PaxosMessage::Phase2a {
                instance: InstanceId::ZERO,
                round: Round::ZERO,
                value: value.clone().into(),
                sender: NodeId::new(0),
            },
            PaxosMessage::Decision {
                instance: InstanceId::ZERO,
                value: value.clone(),
                sender: NodeId::new(0),
            },
            PaxosMessage::Phase1b {
                round: Round::new(1),
                sender: NodeId::new(2),
                accepted: vec![AcceptedEntry {
                    instance: InstanceId::ZERO,
                    round: Round::ZERO,
                    value: value.clone(),
                }],
            },
        ];
        for msg in carriers {
            let decoded = PaxosMessage::from_bytes(&msg.to_bytes());
            assert!(decoded.is_err(), "{msg:?} decoded");
        }
    }
    // A thin proposal's part list obeys the same rule.
    let batch_id = ValueId::new(NodeId::new(0), BATCH_SEQ_BIT | 1);
    let thin = |id, parts| PaxosMessage::Phase2a {
        instance: InstanceId::ZERO,
        round: Round::ZERO,
        value: Proposal::Id { id, parts },
        sender: NodeId::new(0),
    };
    for msg in [
        thin(batch_id, vec![part(1).id()]),
        thin(batch_id, vec![part(1).id(), batch_id]),
    ] {
        assert!(
            PaxosMessage::from_bytes(&msg.to_bytes()).is_err(),
            "{msg:?}"
        );
    }
    let good = thin(batch_id, vec![part(1).id(), part(2).id()]);
    assert_eq!(PaxosMessage::from_bytes(&good.to_bytes()), Ok(good));
}

/// The measuring stick itself: it sees a large allocation, and only on the
/// thread that armed it.
#[test]
fn the_allocation_counter_counts() {
    let (v, largest) = largest_allocation(|| Vec::<u8>::with_capacity(1 << 16));
    assert!(largest >= 1 << 16 && v.capacity() >= 1 << 16);
    let (_, quiet) = largest_allocation(|| 1 + 1);
    assert_eq!(quiet, 0);
}
