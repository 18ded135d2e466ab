//! A small, hand-written binary wire codec.
//!
//! The workspace deliberately avoids pulling a serialization framework for
//! the wire format: messages are few and simple, and the experiments need an
//! exact, documented byte cost per message (the simulator charges CPU and
//! the paper reports message counts/sizes). Integers use LEB128 varints;
//! composites encode field-by-field.

use std::fmt;

use crate::id::{MessageId, NodeId};

/// Errors produced when decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEnd,
    /// A varint exceeded the width of its target type.
    VarintOverflow,
    /// An enum discriminant was not recognized.
    InvalidTag(u8),
    /// A length prefix exceeded the sanity limit.
    LengthTooLarge(u64),
    /// A declared invariant of the message did not hold.
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "unexpected end of input"),
            WireError::VarintOverflow => write!(f, "varint overflows target type"),
            WireError::InvalidTag(t) => write!(f, "invalid enum tag {t}"),
            WireError::LengthTooLarge(n) => write!(f, "length prefix {n} exceeds limit"),
            WireError::Invalid(what) => write!(f, "invalid message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum accepted length prefix (16 MiB) — guards against hostile or
/// corrupted inputs allocating unbounded memory.
pub const MAX_LENGTH: u64 = 16 * 1024 * 1024;

/// A cursor over a byte buffer being decoded.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether the input was fully consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let (&b, rest) = self.buf.split_first().ok_or(WireError::UnexpectedEnd)?;
        self.buf = rest;
        Ok(b)
    }

    /// Reads a LEB128 varint into a u64.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(WireError::VarintOverflow);
            }
            value |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::VarintOverflow);
            }
        }
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::UnexpectedEnd);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads a length-prefixed byte string.
    pub fn byte_string(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.varint()?;
        if n > MAX_LENGTH {
            return Err(WireError::LengthTooLarge(n));
        }
        Ok(self.bytes(n as usize)?.to_vec())
    }
}

/// Appends a LEB128 varint to `buf`.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Number of bytes [`put_varint`] produces for `v`.
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

/// Appends a length-prefixed byte string.
pub fn put_byte_string(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// A type with a stable binary wire representation.
///
/// # Example
///
/// ```
/// use semantic_gossip::{Reader, Wire};
///
/// let mut buf = Vec::new();
/// 300u64.encode(&mut buf);
/// let mut r = Reader::new(&buf);
/// assert_eq!(u64::decode(&mut r).unwrap(), 300);
/// assert!(r.is_empty());
/// ```
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the input is truncated or malformed.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// The number of bytes [`Wire::encode`] would produce.
    ///
    /// The default implementation encodes into a scratch buffer; performance
    /// sensitive types should override it.
    fn encoded_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }

    /// Convenience: encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Encodes into a reusable scratch buffer: clears `buf` (keeping its
    /// capacity) and appends the encoding, returning the encoded length.
    ///
    /// This is the allocation-free sibling of [`Wire::to_bytes`] for hot
    /// paths that serialize many messages through one buffer.
    fn encode_into(&self, buf: &mut Vec<u8>) -> usize {
        buf.clear();
        self.encode(buf);
        buf.len()
    }

    /// Convenience: decodes a value that must consume the whole buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input or trailing bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(WireError::Invalid("trailing bytes"));
        }
        Ok(v)
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.varint()
    }
    fn encoded_len(&self) -> usize {
        varint_len(*self)
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u32::try_from(r.varint()?).map_err(|_| WireError::VarintOverflow)
    }
    fn encoded_len(&self) -> usize {
        varint_len(*self as u64)
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::InvalidTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for NodeId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_u32().encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeId::new(u32::decode(r)?))
    }
    fn encoded_len(&self) -> usize {
        self.as_u32().encoded_len()
    }
}

impl Wire for MessageId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.high().encode(buf);
        self.low().encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let high = u64::decode(r)?;
        let low = u64::decode(r)?;
        Ok(MessageId::from_parts(high, low))
    }
    fn encoded_len(&self) -> usize {
        self.high().encoded_len() + self.low().encoded_len()
    }
}

impl Wire for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_byte_string(buf, self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.byte_string()
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(WireError::InvalidTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
}

/// Encodes a sequence as a count followed by the elements.
pub fn encode_seq<T: Wire>(items: &[T], buf: &mut Vec<u8>) {
    put_varint(buf, items.len() as u64);
    for item in items {
        item.encode(buf);
    }
}

/// Decodes a sequence written by [`encode_seq`].
///
/// Nothing is sized from the count alone: an element takes at least one
/// byte, so a count beyond the bytes left is refused, and the buffer
/// reserved up front never exceeds those bytes — it grows further only as
/// elements actually decode.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input or a count the input cannot
/// hold.
pub fn decode_seq<T: Wire>(r: &mut Reader<'_>) -> Result<Vec<T>, WireError> {
    let n = r.varint()?;
    if n > MAX_LENGTH {
        return Err(WireError::LengthTooLarge(n));
    }
    if n > r.remaining() as u64 {
        return Err(WireError::UnexpectedEnd);
    }
    let reserve = r.remaining() / std::mem::size_of::<T>().max(1);
    let mut items = Vec::with_capacity((n as usize).min(reserve));
    for _ in 0..n {
        items.push(T::decode(r)?);
    }
    Ok(items)
}

/// Encoded length of a sequence written by [`encode_seq`].
pub fn seq_len<T: Wire>(items: &[T]) -> usize {
    varint_len(items.len() as u64) + items.iter().map(Wire::encoded_len).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_round_trip_edges() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "len mismatch for {v}");
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_overflow_detected() {
        // 10 bytes of 0xff would encode more than 64 bits.
        let buf = [0xffu8; 11];
        let mut r = Reader::new(&buf);
        assert_eq!(r.varint(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 300);
        let mut r = Reader::new(&buf[..1]);
        assert_eq!(r.varint(), Err(WireError::UnexpectedEnd));
        assert_eq!(Reader::new(&[]).u8(), Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn byte_string_round_trip() {
        let mut buf = Vec::new();
        put_byte_string(&mut buf, b"hello");
        let mut r = Reader::new(&buf);
        assert_eq!(r.byte_string().unwrap(), b"hello");
    }

    #[test]
    fn option_and_bool_round_trip() {
        let some: Option<u64> = Some(9);
        let none: Option<u64> = None;
        assert_eq!(Option::<u64>::from_bytes(&some.to_bytes()).unwrap(), some);
        assert_eq!(Option::<u64>::from_bytes(&none.to_bytes()).unwrap(), none);
        assert!(bool::from_bytes(&true.to_bytes()).unwrap());
        assert!(matches!(
            bool::from_bytes(&[7]),
            Err(WireError::InvalidTag(7))
        ));
    }

    #[test]
    fn ids_round_trip() {
        let node = NodeId::new(1234);
        assert_eq!(NodeId::from_bytes(&node.to_bytes()).unwrap(), node);
        let mid = MessageId::from_parts(u64::MAX, 7);
        assert_eq!(MessageId::from_bytes(&mid.to_bytes()).unwrap(), mid);
    }

    #[test]
    fn encode_into_reuses_capacity_and_matches_to_bytes() {
        let mut buf = Vec::with_capacity(64);
        let n = 300u64.encode_into(&mut buf);
        assert_eq!(n, buf.len());
        assert_eq!(buf, 300u64.to_bytes());
        let cap = buf.capacity();
        // A second encode clears and reuses the same allocation.
        let n = 7u64.encode_into(&mut buf);
        assert_eq!(n, 1);
        assert_eq!(buf, 7u64.to_bytes());
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn seq_round_trip() {
        let items: Vec<u64> = vec![1, 2, 3, 1000];
        let mut buf = Vec::new();
        encode_seq(&items, &mut buf);
        assert_eq!(buf.len(), seq_len(&items));
        let mut r = Reader::new(&buf);
        assert_eq!(decode_seq::<u64>(&mut r).unwrap(), items);
    }

    #[test]
    fn seq_count_beyond_the_input_is_refused_before_allocating() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 20);
        buf.extend_from_slice(&[1, 2, 3]);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_seq::<u64>(&mut r), Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = 5u64.to_bytes();
        buf.push(0);
        assert_eq!(
            u64::from_bytes(&buf),
            Err(WireError::Invalid("trailing bytes"))
        );
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, MAX_LENGTH + 1);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.byte_string(), Err(WireError::LengthTooLarge(_))));
    }

    #[test]
    fn errors_display() {
        assert!(WireError::UnexpectedEnd.to_string().contains("end"));
        assert!(WireError::InvalidTag(3).to_string().contains('3'));
    }

    proptest! {
        #[test]
        fn prop_varint_round_trip(v: u64) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            prop_assert_eq!(buf.len(), varint_len(v));
            let mut r = Reader::new(&buf);
            prop_assert_eq!(r.varint().unwrap(), v);
        }

        #[test]
        fn prop_bytes_round_trip(data: Vec<u8>) {
            let encoded = data.to_bytes();
            prop_assert_eq!(encoded.len(), data.encoded_len());
            prop_assert_eq!(Vec::<u8>::from_bytes(&encoded).unwrap(), data);
        }

        #[test]
        fn prop_seq_round_trip(items: Vec<u32>) {
            let mut buf = Vec::new();
            encode_seq(&items, &mut buf);
            let mut r = Reader::new(&buf);
            prop_assert_eq!(decode_seq::<u32>(&mut r).unwrap(), items);
            prop_assert!(r.is_empty());
        }
    }
}
