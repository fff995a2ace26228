//! Binary encoding for persisted records.
//!
//! A small, hand-rolled, length-explicit codec over [`bytes`]: little-endian
//! fixed-width integers, length-prefixed strings and sequences, and
//! single-byte tags for enums. `serde` is deliberately not used — no
//! serializer backend is on the approved dependency list, and a WAL wants a
//! compact stable format anyway.
//!
//! Every persisted type implements [`Encode`]/[`Decode`]; decoding is
//! total (no panics) and reports structured [`CodecError`]s so torn or
//! corrupt log tails are handled gracefully by recovery. Primitives and
//! containers are written out below; every enum and struct declares its
//! format as a [`wire!`](crate::wire) table and gets both impls from it.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use crew_model::{AgentId, DataEnv, InstanceId, ItemKey, ItemScope, SchemaId, StepId, Value};
use std::fmt;
use std::sync::Arc;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the structure requires.
    Truncated,
    /// An enum tag byte had no meaning.
    BadTag {
        /// Which decoder rejected the tag.
        context: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A declared length exceeds sanity limits.
    LengthOverflow(u64),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record truncated"),
            CodecError::BadTag { context, tag } => write!(f, "bad tag {tag} for {context}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            CodecError::LengthOverflow(n) => write!(f, "declared length {n} too large"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Sanity cap on declared collection/string lengths (1 MiB of elements).
const MAX_LEN: u64 = 1 << 20;

/// Serialize into a byte buffer.
pub trait Encode {
    /// Append this value's wire form to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }
}

/// Deserialize from a byte buffer.
pub trait Decode: Sized {
    /// Read one value off the front of `buf`, consuming exactly the bytes
    /// [`Encode::encode`] wrote for it. Never panics: input that is short
    /// or malformed is an `Err`.
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError>;
}

#[inline]
fn need(buf: &Bytes, n: usize) -> Result<(), CodecError> {
    if buf.remaining() < n {
        Err(CodecError::Truncated)
    } else {
        Ok(())
    }
}

// ---- primitives ----------------------------------------------------------

impl Encode for u8 {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self);
    }
}
impl Decode for u8 {
    #[inline]
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        need(buf, 1)?;
        Ok(buf.get_u8())
    }
}

impl Encode for u16 {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16_le(*self);
    }
}
impl Decode for u16 {
    #[inline]
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        need(buf, 2)?;
        Ok(buf.get_u16_le())
    }
}

impl Encode for u32 {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(*self);
    }
}
impl Decode for u32 {
    #[inline]
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        need(buf, 4)?;
        Ok(buf.get_u32_le())
    }
}

impl Encode for u64 {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self);
    }
}
impl Decode for u64 {
    #[inline]
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        need(buf, 8)?;
        Ok(buf.get_u64_le())
    }
}

impl Encode for i64 {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_i64_le(*self);
    }
}
impl Decode for i64 {
    #[inline]
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        need(buf, 8)?;
        Ok(buf.get_i64_le())
    }
}

impl Encode for f64 {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_f64_le(*self);
    }
}
impl Decode for f64 {
    #[inline]
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        need(buf, 8)?;
        Ok(buf.get_f64_le())
    }
}

impl Encode for bool {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
}
impl Decode for bool {
    #[inline]
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag {
                context: "bool",
                tag,
            }),
        }
    }
}

impl Encode for str {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        buf.put_slice(self.as_bytes());
    }
}

/// Read a length-prefixed UTF-8 string and hand it to `make` — the one
/// decoder behind `String` and `Arc<str>`, whose frames are identical.
fn decode_str<T>(buf: &mut Bytes, make: impl FnOnce(&str) -> T) -> Result<T, CodecError> {
    let len = u32::decode(buf)? as u64;
    if len > MAX_LEN {
        return Err(CodecError::LengthOverflow(len));
    }
    need(buf, len as usize)?;
    let raw = buf.split_to(len as usize);
    std::str::from_utf8(&raw)
        .map(make)
        .map_err(|_| CodecError::BadUtf8)
}

impl Encode for String {
    fn encode(&self, buf: &mut BytesMut) {
        self.as_str().encode(buf);
    }
}
impl Decode for String {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        decode_str(buf, str::to_owned)
    }
}

/// A shared string (`Value::Str`) has `String`'s frame: u32 length, then
/// the UTF-8 bytes.
impl Encode for Arc<str> {
    fn encode(&self, buf: &mut BytesMut) {
        (**self).encode(buf);
    }
}
impl Decode for Arc<str> {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        decode_str(buf, |s| Arc::from(s))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}
impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let len = u32::decode(buf)? as u64;
        if len > MAX_LEN {
            return Err(CodecError::LengthOverflow(len));
        }
        let mut out = Vec::with_capacity(len.min(4096) as usize);
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}
impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            tag => Err(CodecError::BadTag {
                context: "Option",
                tag,
            }),
        }
    }
}

impl Encode for usize {
    fn encode(&self, buf: &mut BytesMut) {
        (*self as u64).encode(buf);
    }
}
impl Decode for usize {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let n = u64::decode(buf)?;
        usize::try_from(n).map_err(|_| CodecError::LengthOverflow(n))
    }
}

/// A reference encodes as what it points at, so a record can be written
/// from borrowed parts (`ChanRec<&M>`) without cloning them first.
impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, buf: &mut BytesMut) {
        (**self).encode(buf);
    }
}

// ---- the wire table --------------------------------------------------------

/// The variant's name as written in its [`wire!`](crate::wire) row.
pub trait VariantName {
    /// `"StepExecute"` for `DistMsg::StepExecute { .. }`.
    fn variant_name(&self) -> &'static str;
}

/// Declares a type's wire format once and generates [`Encode`] and
/// [`Decode`] (and, for enums, [`VariantName`]) from the declaration.
///
/// An enum takes one row per variant, `tag => Variant { fields }`,
/// `tag => Variant(x)` or `tag => Variant`: the `u8` tag goes first, then
/// the fields in the order the row lists them, each through its own
/// `Encode`/`Decode`. A struct lists its fields, `struct T { a, b }` or
/// `struct T(x)`, and has no tag. A field whose type cannot implement the
/// traits where the table stands (a foreign type, a `&'static str`) is
/// written `field via (encode_fn, decode_fn)` with
/// `fn(&Field, &mut BytesMut)` and `fn(&mut Bytes) -> Result<Field,
/// CodecError>`.
///
/// ```
/// # use crew_storage::{wire, Decode, Encode};
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Circle(u32),
///     Rect { w: u32, h: u32 },
/// }
/// wire! {
///     enum Shape {
///         0 => Dot,
///         1 => Circle(r),
///         2 => Rect { w, h },
///     }
/// }
/// let mut bytes = Shape::Rect { w: 3, h: 4 }.to_bytes();
/// assert_eq!(&bytes[..], [2, 3, 0, 0, 0, 4, 0, 0, 0]);
/// assert_eq!(Shape::decode(&mut bytes), Ok(Shape::Rect { w: 3, h: 4 }));
/// ```
///
/// The rows are checked against the type when they compile. A variant
/// without a row leaves the generated `encode` match non-exhaustive:
///
/// ```compile_fail
/// # use crew_storage::wire;
/// enum Shape { Dot, Circle(u32) }
/// wire! { enum Shape { 0 => Dot } }
/// ```
///
/// and a tag used twice makes the second `decode` arm unreachable, which
/// the generated code denies:
///
/// ```compile_fail
/// # use crew_storage::wire;
/// enum Shape { Dot, Circle(u32) }
/// wire! { enum Shape { 0 => Dot, 0 => Circle(r) } }
/// ```
#[macro_export]
macro_rules! wire {
    (enum $ty:ident $(<$g:ident>)? {
        $($tag:literal => $var:ident
            $({ $($f:ident $(via ($enc:path, $dec:path))?),* $(,)? })?
            $(( $t:ident ))?
        ),* $(,)?
    }) => {
        impl$(<$g: $crate::Encode>)? $crate::Encode for $ty$(<$g>)? {
            fn encode(&self, buf: &mut $crate::bytes::BytesMut) {
                match self {
                    $($ty::$var $({ $($f),* })? $(($t))? => {
                        <u8 as $crate::Encode>::encode(&$tag, buf);
                        $($($crate::wire!(@enc buf, $f $(, $enc)?);)*)?
                        $($crate::wire!(@enc buf, $t);)?
                    })*
                }
            }
        }
        impl$(<$g: $crate::Decode>)? $crate::Decode for $ty$(<$g>)? {
            #[deny(unreachable_patterns)]
            fn decode(buf: &mut $crate::bytes::Bytes) -> Result<Self, $crate::CodecError> {
                Ok(match <u8 as $crate::Decode>::decode(buf)? {
                    $($tag => $ty::$var
                        $({ $($f: $crate::wire!(@dec buf, $f $(, $dec)?)),* })?
                        $(($crate::wire!(@dec buf, $t)))?,)*
                    tag => {
                        return Err($crate::CodecError::BadTag {
                            context: stringify!($ty),
                            tag,
                        })
                    }
                })
            }
        }
        impl$(<$g>)? $crate::VariantName for $ty$(<$g>)? {
            fn variant_name(&self) -> &'static str {
                match self {
                    $($ty::$var { .. } => stringify!($var),)*
                }
            }
        }
    };
    (struct $ty:ident { $($f:ident $(via ($enc:path, $dec:path))?),* $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, buf: &mut $crate::bytes::BytesMut) {
                let $ty { $($f),* } = self;
                $($crate::wire!(@enc buf, $f $(, $enc)?);)*
            }
        }
        impl $crate::Decode for $ty {
            fn decode(buf: &mut $crate::bytes::Bytes) -> Result<Self, $crate::CodecError> {
                Ok($ty { $($f: $crate::wire!(@dec buf, $f $(, $dec)?)),* })
            }
        }
    };
    (struct $ty:ident ( $t:ident )) => {
        impl $crate::Encode for $ty {
            fn encode(&self, buf: &mut $crate::bytes::BytesMut) {
                let $ty($t) = self;
                $crate::wire!(@enc buf, $t);
            }
        }
        impl $crate::Decode for $ty {
            fn decode(buf: &mut $crate::bytes::Bytes) -> Result<Self, $crate::CodecError> {
                Ok($ty($crate::wire!(@dec buf, $t)))
            }
        }
    };
    (@enc $buf:ident, $f:ident) => { $crate::Encode::encode($f, $buf) };
    (@enc $buf:ident, $f:ident, $enc:path) => { $enc($f, $buf) };
    (@dec $buf:ident, $f:ident) => { $crate::Decode::decode($buf)? };
    (@dec $buf:ident, $f:ident, $dec:path) => { $dec($buf)? };
}

// ---- model types ----------------------------------------------------------

wire! { struct StepId(id) }
wire! { struct AgentId(id) }
wire! { struct SchemaId(id) }
wire! { struct InstanceId { schema, serial } }
wire! {
    enum ItemScope {
        0 => WorkflowInput,
        1 => StepOutput(step),
    }
}
wire! { struct ItemKey { scope, slot } }
wire! {
    enum Value {
        0 => Int(i),
        1 => Float(x),
        2 => Str(s),
        3 => Bool(b),
    }
}

impl Encode for DataEnv {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        for (k, v) in self.iter() {
            k.encode(buf);
            v.encode(buf);
        }
    }
}
impl Decode for DataEnv {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let n = u32::decode(buf)?;
        let mut env = DataEnv::new();
        for _ in 0..n {
            env.set(ItemKey::decode(buf)?, Value::decode(buf)?);
        }
        Ok(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let mut buf = bytes.clone();
        let back = T::decode(&mut buf).expect("decode");
        assert_eq!(back, v);
        assert_eq!(buf.remaining(), 0, "no trailing bytes");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(0xFFFFu16);
        round_trip(123_456u32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(3.5f64);
        round_trip(true);
        round_trip(false);
        round_trip("hello κόσμε".to_owned());
        round_trip(String::new());
        round_trip(Arc::<str>::from("hello κόσμε"));
        round_trip(Arc::<str>::from(""));
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u32>::new());
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
    }

    #[test]
    fn tuples_round_trip() {
        round_trip((7u32, 9u64));
        round_trip(vec![(ItemKey::input(0), Value::Int(4))]);
        round_trip((StepId(1), (AgentId(2), true)));
    }

    #[test]
    fn model_types_round_trip() {
        round_trip(StepId(5));
        round_trip(SchemaId(2));
        round_trip(AgentId(8));
        round_trip(InstanceId::new(SchemaId(2), 4));
        round_trip(ItemKey::input(1));
        round_trip(ItemKey::output(StepId(3), 2));
        round_trip(Value::Int(90));
        round_trip(Value::Float(-0.5));
        round_trip(Value::Str("Blower".into()));
        round_trip(Value::Bool(true));
        round_trip(vec![
            Some(Value::Int(1)),
            None,
            Some(Value::Str("x".into())),
        ]);
    }

    #[test]
    fn truncation_reported() {
        let bytes = Value::Str("hello".into()).to_bytes();
        let mut cut = bytes.slice(0..bytes.len() - 2);
        assert_eq!(Value::decode(&mut cut), Err(CodecError::Truncated));
        let mut empty = Bytes::new();
        assert_eq!(u32::decode(&mut empty), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_tags_reported() {
        let mut buf = Bytes::from_static(&[9u8, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(
            Value::decode(&mut buf),
            Err(CodecError::BadTag {
                context: "Value",
                tag: 9
            })
        ));
        let mut buf = Bytes::from_static(&[2u8]);
        assert!(matches!(
            bool::decode(&mut buf),
            Err(CodecError::BadTag {
                context: "bool",
                ..
            })
        ));
    }

    #[test]
    fn absurd_lengths_rejected() {
        let mut buf = BytesMut::new();
        (u32::MAX).encode(&mut buf); // declared string length
        let mut bytes = buf.freeze();
        assert!(matches!(
            String::decode(&mut bytes.clone()),
            Err(CodecError::LengthOverflow(_))
        ));
        assert!(matches!(
            Arc::<str>::decode(&mut bytes),
            Err(CodecError::LengthOverflow(_))
        ));
    }

    #[test]
    fn shared_strings_have_the_string_frame() {
        let owned = "Gasket".to_owned().to_bytes();
        assert_eq!(Arc::<str>::from("Gasket").to_bytes(), owned);
        assert_eq!(Value::from("Gasket").to_bytes()[1..], owned[..]);
    }

    #[test]
    fn bad_utf8_reported() {
        let mut buf = BytesMut::new();
        2u32.encode(&mut buf);
        buf.put_slice(&[0xFF, 0xFE]);
        let bytes = buf.freeze();
        assert_eq!(String::decode(&mut bytes.clone()), Err(CodecError::BadUtf8));
        assert_eq!(
            Arc::<str>::decode(&mut bytes.clone()),
            Err(CodecError::BadUtf8)
        );
    }
}
