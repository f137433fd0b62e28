//! Data serialisation: cutting user-defined data into bus words.
//!
//! OSSS transfers method arguments and results over channels in
//! 32-bit-word chunks; the serialisation layer defines how many words a
//! value occupies (for cycle-accurate transfer costs) and how it is laid
//! out (so VTA models move real bytes, not hand-waved sizes). Scalars
//! are big-endian (network byte order).

/// Bytes per channel word.
pub const WORD_BYTES: usize = 4;

/// A value that can be cut into channel words.
///
/// # Example
///
/// ```
/// use osss_vta::{Serialise, Deserialise};
///
/// let tile: Vec<i32> = (0..100).collect();
/// let words = tile.serialised_words();
/// assert_eq!(words, 101); // length prefix + 100 payload words
/// let bytes = tile.to_bytes();
/// let back = Vec::<i32>::from_bytes(&mut bytes.as_slice()).unwrap();
/// assert_eq!(back, tile);
/// ```
pub trait Serialise {
    /// Serialised size in bytes.
    fn serialised_bytes(&self) -> usize;

    /// Appends the serialised representation.
    fn write(&self, out: &mut Vec<u8>);

    /// Serialised size in whole channel words (rounded up).
    fn serialised_words(&self) -> usize {
        self.serialised_bytes().div_ceil(WORD_BYTES)
    }

    /// Convenience: serialises into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialised_bytes());
        self.write(&mut out);
        out
    }
}

/// The inverse of [`Serialise`].
pub trait Deserialise: Sized {
    /// Reads a value from the front of `buf` and advances `buf` past
    /// it; `None` if the buffer is too short.
    fn from_bytes(buf: &mut &[u8]) -> Option<Self>;
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl Serialise for $t {
            fn serialised_bytes(&self) -> usize {
                size_of::<$t>()
            }
            fn write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
        }
        impl Deserialise for $t {
            fn from_bytes(buf: &mut &[u8]) -> Option<Self> {
                let (bytes, rest) = buf.split_first_chunk()?;
                *buf = rest;
                Some(<$t>::from_be_bytes(*bytes))
            }
        }
    )*};
}

impl_scalar!(u8, u16, u32, u64, i32, i64, f64);

impl Serialise for bool {
    fn serialised_bytes(&self) -> usize {
        1
    }
    fn write(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl Deserialise for bool {
    fn from_bytes(buf: &mut &[u8]) -> Option<Self> {
        u8::from_bytes(buf).map(|b| b != 0)
    }
}

impl Serialise for () {
    fn serialised_bytes(&self) -> usize {
        0
    }
    fn write(&self, _out: &mut Vec<u8>) {}
}

impl Deserialise for () {
    fn from_bytes(_buf: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl<T: Serialise> Serialise for Vec<T> {
    fn serialised_bytes(&self) -> usize {
        4 + self.iter().map(Serialise::serialised_bytes).sum::<usize>()
    }
    fn write(&self, out: &mut Vec<u8>) {
        (self.len() as u32).write(out);
        for v in self {
            v.write(out);
        }
    }
}

impl<T: Deserialise> Deserialise for Vec<T> {
    fn from_bytes(buf: &mut &[u8]) -> Option<Self> {
        let n = u32::from_bytes(buf)? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(T::from_bytes(buf)?);
        }
        Some(out)
    }
}

impl<A: Serialise, B: Serialise> Serialise for (A, B) {
    fn serialised_bytes(&self) -> usize {
        self.0.serialised_bytes() + self.1.serialised_bytes()
    }
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
        self.1.write(out);
    }
}

impl<A: Deserialise, B: Deserialise> Deserialise for (A, B) {
    fn from_bytes(buf: &mut &[u8]) -> Option<Self> {
        Some((A::from_bytes(buf)?, B::from_bytes(buf)?))
    }
}

impl<T: Serialise, const N: usize> Serialise for [T; N] {
    fn serialised_bytes(&self) -> usize {
        self.iter().map(Serialise::serialised_bytes).sum()
    }
    fn write(&self, out: &mut Vec<u8>) {
        for v in self {
            v.write(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Serialise + Deserialise + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.serialised_bytes());
        let mut rest = bytes.as_slice();
        let back = T::from_bytes(&mut rest).expect("deserialise");
        assert_eq!(back, v);
        assert!(rest.is_empty(), "{} bytes left over", rest.len());
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0xAAu8);
        roundtrip(0xBEEFu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(-12345i32);
        roundtrip(i64::MIN);
        roundtrip(3.25f64);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn vectors_roundtrip_with_length_prefix() {
        let v: Vec<i32> = (-50..50).collect();
        assert_eq!(v.serialised_bytes(), 4 + 100 * 4);
        assert_eq!(v.serialised_words(), 101);
        roundtrip(v);
        roundtrip(Vec::<u8>::new());
    }

    #[test]
    fn tuples_and_nesting() {
        roundtrip((7u32, vec![1i32, -2, 3]));
        roundtrip((vec![vec![1u8, 2], vec![3]], 9i64));
    }

    #[test]
    fn word_rounding() {
        assert_eq!(1u8.serialised_words(), 1);
        assert_eq!(0xFFFFu16.serialised_words(), 1);
        assert_eq!((1u32, 2u8).serialised_words(), 2); // 5 bytes -> 2 words
        assert_eq!(().serialised_words(), 0);
    }

    #[test]
    fn truncated_buffer_returns_none() {
        let v = vec![1i32, 2, 3];
        let bytes = v.to_bytes();
        let mut cut = &bytes[..bytes.len() - 2];
        assert!(Vec::<i32>::from_bytes(&mut cut).is_none());
    }

    #[test]
    fn fixed_arrays_serialise_without_prefix() {
        let a: [u32; 4] = [1, 2, 3, 4];
        assert_eq!(a.serialised_bytes(), 16);
        assert_eq!(a.serialised_words(), 4);
    }
}
