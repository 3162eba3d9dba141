//! [`Encode`] / [`Decode`] for the primitives, the [`Fixed`] adapter, and
//! the two declaration macros every composite format is written with.

use super::{Decode, DecodeError, Encode, Reader, Via};

macro_rules! impl_codec_int {
    ($($ty:ident),*) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }

        impl Decode for $ty {
            const MIN_LEN: usize = core::mem::size_of::<$ty>();

            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let bytes = r.take(core::mem::size_of::<$ty>())?;
                Ok($ty::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

impl_codec_int!(u16, u32, u64);

impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn encode_slice(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
}

impl Decode for u8 {
    const MIN_LEN: usize = 1;

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(r.take(1)?[0])
    }

    fn decode_vec(r: &mut Reader<'_>, n: usize) -> Result<Vec<u8>, DecodeError> {
        Ok(r.take(n)?.to_vec())
    }
}

/// `N` values back to back, with no length prefix.
impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        T::encode_slice(self, out);
    }
}

impl<T: Decode, const N: usize> Decode for [T; N] {
    const MIN_LEN: usize = N * T::MIN_LEN;

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let items = T::decode_vec(r, N)?;
        Ok(items
            .try_into()
            .unwrap_or_else(|_| unreachable!("decode_vec returns N items")))
    }
}

/// A little-endian `u32` element count, then the elements.
impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        T::encode_slice(self, out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    const MIN_LEN: usize = 4;

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.count(T::MIN_LEN, "element count")?;
        T::decode_vec(r, n)
    }
}

/// A little-endian `u32` byte length, then the UTF-8 bytes.
impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    const MIN_LEN: usize = 4;

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        String::from_utf8(Vec::decode(r)?).map_err(|_| DecodeError::InvalidValue {
            what: "UTF-8 string",
        })
    }
}

/// A `Vec<T>` whose length the format already implies (`μ` coordinates,
/// `2^μ` table rows), written with no prefix. Decoding takes that length
/// and checks it against the remaining input before allocating.
pub struct Fixed;

impl<T: Encode + Decode> Via<Vec<T>> for Fixed {
    type Args = (usize,);

    fn encode(value: &Vec<T>, out: &mut Vec<u8>) {
        T::encode_slice(value, out);
    }

    fn decode(r: &mut Reader<'_>, (n,): (usize,)) -> Result<Vec<T>, DecodeError> {
        let needed = n.saturating_mul(T::MIN_LEN);
        if needed > r.remaining() {
            return Err(DecodeError::UnexpectedEnd {
                needed,
                remaining: r.remaining(),
            });
        }
        T::decode_vec(r, n)
    }
}

/// The [`Decode::MIN_LEN`] of the field `field` points at; the declaration
/// macros sum these into a struct's.
#[doc(hidden)]
pub const fn min_len_of<S, T: Decode>(_field: fn(&S) -> &T) -> usize {
    T::MIN_LEN
}

/// Implements [`Encode`] and [`Decode`] for a struct from its field list:
/// the fields are written and read in the listed order, and the list must
/// name every field.
///
/// A field written `name: Adapter(args…)` goes through the [`Via`] adapter
/// `Adapter`, and `args` (which may name earlier fields) reach its
/// `decode`. With a header kind (`Type: Kind::…`), the encoding starts with
/// the canonical artifact header, and the type also gets the inherent
/// `to_bytes` / `from_bytes` pair every artifact exposes.
///
/// ```
/// use zkspeed_rt::codec::{Decode, Encode, Fixed};
///
/// #[derive(Debug, PartialEq)]
/// struct Row { id: u64, tags: Vec<u16>, len: u32, cells: Vec<u8> }
/// zkspeed_rt::impl_codec_struct!(Row { id, tags, len, cells: Fixed(len as usize) });
///
/// let row = Row { id: 7, tags: vec![1, 2], len: 3, cells: vec![9, 8, 7] };
/// let bytes = row.to_bytes();
/// assert_eq!(bytes.len(), 8 + (4 + 2 * 2) + 4 + 3);
/// assert_eq!(Row::from_bytes(&bytes), Ok(row));
/// ```
#[macro_export]
macro_rules! impl_codec_struct {
    (@put $out:ident, $value:expr) => {
        $crate::codec::Encode::encode($value, $out)
    };
    (@put $out:ident, $value:expr, $via:ident) => {
        <$via as $crate::codec::Via<_>>::encode($value, $out)
    };
    (@get $r:ident) => {
        $crate::codec::Decode::decode($r)?
    };
    (@get $r:ident, $via:ident $(, $arg:expr)*) => {
        <$via as $crate::codec::Via<_>>::decode($r, ($($arg,)*))?
    };
    (@min $ty:ident, $field:ident) => {
        $crate::codec::min_len_of(|s: &$ty| &s.$field)
    };
    (@min $ty:ident, $field:ident, $via:ident) => {
        0
    };
    (@header $kind:path) => {
        8
    };
    (@artifact $ty:ident) => {};
    (@artifact $ty:ident, $kind:path) => {
        impl $ty {
            /// The canonical encoding, header included.
            pub fn to_bytes(&self) -> ::std::vec::Vec<u8> {
                $crate::codec::Encode::to_bytes(self)
            }

            /// Decodes a canonical encoding, rejecting trailing bytes.
            ///
            /// # Errors
            ///
            /// Returns a `DecodeError` describing the first malformed field.
            pub fn from_bytes(bytes: &[u8]) -> ::std::result::Result<Self, $crate::codec::DecodeError> {
                $crate::codec::Decode::from_bytes(bytes)
            }
        }
    };
    ($ty:ident $(: $kind:path)? {
        $($field:ident $(: $via:ident $(($($arg:expr),* $(,)?))?)?),* $(,)?
    }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::codec::write_header(out, $kind);)?
                $($crate::impl_codec_struct!(@put out, &self.$field $(, $via)?);)*
            }
        }

        impl $crate::codec::Decode for $ty {
            const MIN_LEN: usize = 0
                $(+ $crate::impl_codec_struct!(@header $kind))?
                $(+ $crate::impl_codec_struct!(@min $ty, $field $(, $via)?))*;

            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::DecodeError> {
                $(r.header($kind)?;)?
                $(let $field = $crate::impl_codec_struct!(@get r $(, $via $($(, $arg)*)?)?);)*
                ::std::result::Result::Ok(Self { $($field),* })
            }
        }

        $crate::impl_codec_struct!(@artifact $ty $(, $kind)?);
    };
}

/// Implements [`Encode`] and [`Decode`] for an enum as a one-byte tag and
/// the variant's fields in the listed order.
///
/// For a `#[repr(u8)]` enum of unit variants the tag is the discriminant,
/// and the list is the variants' names. Otherwise each variant is listed
/// beside its tag byte as `tag => Variant { fields… }`. Either list must
/// name every variant, and an unknown tag decodes to
/// [`DecodeError::InvalidValue`]. A header kind (`Type: Kind::…`) works as
/// for [`impl_codec_struct!`].
///
/// ```
/// use zkspeed_rt::codec::{Decode, Encode};
///
/// #[derive(Clone, Copy, Debug, PartialEq)]
/// #[repr(u8)]
/// enum Mode { Fast = 1, Safe = 2 }
/// zkspeed_rt::impl_codec_enum!(Mode { Fast, Safe });
///
/// #[derive(Debug, PartialEq)]
/// enum Msg { Ping, Set { mode: Mode, note: String } }
/// zkspeed_rt::impl_codec_enum!(Msg { 1 => Ping, 2 => Set { mode, note } });
///
/// let msg = Msg::Set { mode: Mode::Safe, note: "x".into() };
/// assert_eq!(msg.to_bytes(), [2, 2, 1, 0, 0, 0, b'x']);
/// assert_eq!(Msg::from_bytes(&msg.to_bytes()), Ok(msg));
/// assert!(Mode::from_bytes(&[3]).is_err());
/// ```
#[macro_export]
macro_rules! impl_codec_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $($ty::$variant)|+ => out.push(*self as u8),
                }
            }
        }

        impl $crate::codec::Decode for $ty {
            const MIN_LEN: usize = 1;

            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::DecodeError> {
                let tag = <u8 as $crate::codec::Decode>::decode(r)?;
                $(if tag == $ty::$variant as u8 {
                    return ::std::result::Result::Ok($ty::$variant);
                })+
                ::std::result::Result::Err($crate::codec::DecodeError::InvalidValue {
                    what: concat!(stringify!($ty), " tag"),
                })
            }
        }
    };
    ($ty:ident $(: $kind:path)? {
        $($tag:literal => $variant:ident $({ $($field:ident),* $(,)? })?),+ $(,)?
    }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::codec::write_header(out, $kind);)?
                match self {
                    $($ty::$variant $({ $($field),* })? => {
                        out.push($tag);
                        $($($crate::codec::Encode::encode($field, out);)*)?
                    })+
                }
            }
        }

        impl $crate::codec::Decode for $ty {
            const MIN_LEN: usize = 1 $(+ $crate::impl_codec_struct!(@header $kind))?;

            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::DecodeError> {
                $(r.header($kind)?;)?
                ::std::result::Result::Ok(match <u8 as $crate::codec::Decode>::decode(r)? {
                    $($tag => $ty::$variant $({ $($field: $crate::codec::Decode::decode(r)?),* })?,)+
                    _ => return ::std::result::Result::Err(
                        $crate::codec::DecodeError::InvalidValue {
                            what: concat!(stringify!($ty), " tag"),
                        },
                    ),
                })
            }
        }

        $crate::impl_codec_struct!(@artifact $ty $(, $kind)?);
    };
}

#[cfg(test)]
mod tests {
    use crate::codec::{Decode, DecodeError, Encode, Fixed, Kind};

    #[derive(Debug, PartialEq)]
    struct Row {
        digest: [u8; 4],
        small: u16,
        wide: u64,
        note: String,
    }
    crate::impl_codec_struct!(Row {
        digest,
        small,
        wide,
        note
    });

    #[derive(Debug, PartialEq)]
    struct Table {
        len: u32,
        rows: Vec<Row>,
        cells: Vec<u32>,
    }
    crate::impl_codec_struct!(Table: Kind::Witness {
        len,
        rows,
        cells: Fixed(len as usize),
    });

    #[test]
    fn primitives_are_little_endian_and_prefixed() {
        let row = Row {
            digest: [1, 2, 3, 4],
            small: 0x0506,
            wide: 7,
            note: "ab".into(),
        };
        let bytes = row.to_bytes();
        assert_eq!(
            bytes,
            [1, 2, 3, 4, 6, 5, 7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, b'a', b'b']
        );
        assert_eq!(Row::from_bytes(&bytes), Ok(row));
        assert_eq!(Row::MIN_LEN, 4 + 2 + 8 + 4);
        let mut bad_utf8 = bytes.clone();
        bad_utf8[18] = 0xff;
        assert_eq!(
            Row::from_bytes(&bad_utf8),
            Err(DecodeError::InvalidValue {
                what: "UTF-8 string"
            })
        );
    }

    #[test]
    fn declared_artifacts_carry_the_header_and_cap_counts() {
        let row = |wide| Row {
            digest: [0; 4],
            small: 1,
            wide,
            note: String::new(),
        };
        let table = Table {
            len: 2,
            rows: vec![row(1), row(2)],
            cells: vec![10, 20],
        };
        let bytes = table.to_bytes();
        assert_eq!(bytes[6], Kind::Witness as u8);
        assert_eq!(bytes.len(), 8 + 4 + 4 + 2 * Row::MIN_LEN + 2 * 4);
        assert_eq!(Table::from_bytes(&bytes), Ok(table));
        for len in 0..bytes.len() {
            assert!(Table::from_bytes(&bytes[..len]).is_err(), "{len}");
        }
        // A row count that cannot fit in the input fails before allocating.
        let mut absurd = bytes.clone();
        absurd[12..16].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            Table::from_bytes(&absurd),
            Err(DecodeError::InvalidLength {
                expected: 2,
                found: 3,
                ..
            })
        ));
        // So does a fixed length the input cannot back.
        let mut long = bytes.clone();
        long[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Table::from_bytes(&long),
            Err(DecodeError::UnexpectedEnd { .. })
        ));
    }
}
