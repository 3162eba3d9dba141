//! Canonical byte-encoding substrate: the [`Encode`] / [`Decode`] trait
//! pair every artifact and wire message implements, a shared
//! `magic + version + kind` header, a bounds-checked little-endian
//! [`Reader`], and the structured [`DecodeError`] surfaced by every
//! `from_bytes` in the workspace.
//!
//! Each top-level artifact (proof, verifying key, SRS, circuit, witness,
//! service request and response) starts with the same 8-byte header:
//!
//! | bytes | meaning |
//! |---|---|
//! | 0–3 | magic `b"zksp"` |
//! | 4–5 | format version, little-endian `u16` (currently 6) |
//! | 6 | artifact kind tag ([`Kind`]) |
//! | 7 | reserved, must be zero |
//!
//! Every format is declared once, as a field list, with
//! [`impl_codec_struct!`](crate::impl_codec_struct) or
//! [`impl_codec_enum!`](crate::impl_codec_enum) next to the type it
//! encodes (in `zkspeed-sumcheck`, `zkspeed-pcs`, `zkspeed-hyperplonk` and
//! `zkspeed-svc`); the one declaration derives both the writer and the
//! reader. The primitives are little-endian integers, fixed arrays, and
//! `u32`-length-prefixed sequences, byte blobs and UTF-8 strings, whose
//! lengths are read through [`Reader::count`], which rejects lengths that
//! could not possibly fit in the remaining input before allocating. A
//! field whose encoding depends on an earlier one (tables sized by `μ`)
//! names a [`Via`] adapter, which is also where a format's checks that a
//! field list cannot express live.

use core::fmt;

mod impls;

pub use impls::{min_len_of, Fixed};

/// The four magic bytes every encoded artifact starts with.
pub const MAGIC: [u8; 4] = *b"zksp";

/// The current encoding version.
///
/// Version history:
///
/// * **1** — initial canonical encodings (proof/VK/SRS, later circuit,
///   witness and the service request/response messages).
/// * **2** — networked wire protocol: `Hello`/`Shutdown` request messages,
///   `HelloOk`/`ShuttingDown` responses, and the expanded reject-code set
///   (bad-auth / draining / over-capacity). Version-1 artifacts decode to a
///   clean [`DecodeError::UnsupportedVersion`], never a misparse.
/// * **3** — failure reporting: the `JobFailed` response (job id + reason)
///   and a per-job deadline field on `SubmitJob`. Version-1 and version-2
///   artifacts decode to a clean [`DecodeError::UnsupportedVersion`], never
///   a misparse.
/// * **4** — session lifecycle: the `ListSessions` request, the
///   `SessionList` response (per-session μ / state / shard / resident
///   bytes), and the `SessionEvicted` reject code. Earlier versions decode
///   to a clean [`DecodeError::UnsupportedVersion`], never a misparse.
/// * **5** — tracing: the `GetTrace` request and the `TraceDump` response
///   carrying the server's Chrome trace-event JSON. Earlier versions
///   decode to a clean [`DecodeError::UnsupportedVersion`], never a
///   misparse.
/// * **6** — compact proofs: a proof writes `μ` once and every other shape
///   follows from it, with no length prefixes; each SumCheck row carries
///   only the values the verifier cannot derive (no `g(1)`, and in a
///   ZeroCheck the cofactor `t_i` instead of the round polynomial). The
///   Fiat–Shamir transcript is unchanged. Earlier versions decode to a
///   clean [`DecodeError::UnsupportedVersion`], never a misparse.
pub const VERSION: u16 = 6;

/// The registry of artifact kind tags (byte 6 of the canonical header).
///
/// Each top-level artifact picks one tag; the decoder checks it via
/// [`Reader::header`], so a proof blob can never be misread as a witness.
/// This enum is the single place a new artifact claims its tag.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Kind {
    /// A HyperPlonk proof (`zkspeed-hyperplonk`).
    Proof = 1,
    /// A verifying key (`zkspeed-hyperplonk`).
    VerifyingKey = 2,
    /// A universal setup (`zkspeed-pcs`).
    Srs = 3,
    /// A compiled circuit: selector tables + wiring permutation
    /// (`zkspeed-hyperplonk`).
    Circuit = 4,
    /// A witness assignment: the three execution-trace columns
    /// (`zkspeed-hyperplonk`).
    Witness = 5,
    /// A proving-service request message (`zkspeed-svc`).
    Request = 6,
    /// A proving-service response message (`zkspeed-svc`).
    Response = 7,
}

crate::impl_codec_enum!(Kind {
    Proof,
    VerifyingKey,
    Srs,
    Circuit,
    Witness,
    Request,
    Response,
});

/// Upper bound on one wire-protocol frame. Large enough for a μ = 20
/// circuit submission (hundreds of MB), small enough that a corrupt length
/// prefix cannot request an absurd allocation.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// Builds one wire frame: a little-endian `u32` payload length followed by
/// the payload bytes (which carry their own canonical artifact header).
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_FRAME_LEN`].
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "frame payload exceeds MAX_FRAME_LEN"
    );
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A type with a canonical byte encoding: implemented once for the
/// primitives, and declared for every composite format with
/// [`impl_codec_struct!`](crate::impl_codec_struct) or
/// [`impl_codec_enum!`](crate::impl_codec_enum), so that a format's writer
/// and reader come from one field list.
pub trait Encode {
    /// Appends the canonical encoding of `self`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Appends the encodings of `items` back to back, with no length
    /// prefix. Byte slices override this with one copy.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(out);
        }
    }

    /// The canonical encoding of `self` as a fresh byte string.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// A type that can be read back from its canonical [`Encode`] encoding,
/// validating every field (canonical field elements, points on the curve,
/// known tags, lengths that fit the input) as it goes.
pub trait Decode: Sized {
    /// The fewest bytes any encoding of `Self` takes. A `Vec<Self>` checks
    /// its element count against this before it allocates.
    const MIN_LEN: usize;

    /// Reads one value, or the [`DecodeError`] of its first malformed field.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Reads exactly `n` values written back to back. Byte vectors override
    /// this with one copy.
    fn decode_vec(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, DecodeError> {
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(Self::decode(r)?);
        }
        Ok(items)
    }

    /// Decodes a whole byte string, rejecting trailing bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

/// How a field of type `T` is encoded when its plain [`Encode`] /
/// [`Decode`] does not fit the format: its length follows from an earlier
/// field, or decoding it needs a check the field list cannot express. The
/// declaration macros call [`Via::encode`] as is and pass [`Via::decode`]
/// the arguments written beside the field, which may name earlier fields.
pub trait Via<T> {
    /// What decoding needs to know beyond the bytes (a tuple).
    type Args;

    /// Appends the encoding of `value`.
    fn encode(value: &T, out: &mut Vec<u8>);

    /// Reads one value, or the [`DecodeError`] of its first malformed field.
    fn decode(r: &mut Reader<'_>, args: Self::Args) -> Result<T, DecodeError>;
}

/// Why a byte string failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before a field could be read.
    UnexpectedEnd {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The input does not start with [`MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The encoded version is newer than this library understands.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The artifact kind tag does not match the type being decoded.
    WrongKind {
        /// The kind tag this decoder expects.
        expected: u8,
        /// The kind tag found in the header.
        found: u8,
    },
    /// Input remained after the artifact was fully decoded.
    TrailingBytes {
        /// Number of unread bytes.
        count: usize,
    },
    /// A length or count field is inconsistent with the artifact shape.
    InvalidLength {
        /// What was being decoded.
        what: &'static str,
        /// The expected length.
        expected: usize,
        /// The length found.
        found: usize,
    },
    /// A field decoded to a non-canonical or out-of-domain value.
    InvalidValue {
        /// What was being decoded.
        what: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remaining"
                )
            }
            DecodeError::BadMagic { found } => {
                write!(f, "bad magic bytes {found:02x?} (expected \"zksp\")")
            }
            DecodeError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported encoding version {found} (this build reads {VERSION})"
                )
            }
            DecodeError::WrongKind { expected, found } => {
                write!(f, "wrong artifact kind {found} (expected {expected})")
            }
            DecodeError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after the artifact")
            }
            DecodeError::InvalidLength {
                what,
                expected,
                found,
            } => write!(
                f,
                "invalid length for {what}: expected {expected}, found {found}"
            ),
            DecodeError::InvalidValue { what } => write!(f, "invalid value for {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Writes the canonical artifact header.
pub fn write_header(out: &mut Vec<u8>, kind: Kind) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind as u8);
    out.push(0);
}

/// A bounds-checked little-endian byte reader.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte string for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u32` element count and checks that `count · elem_size` bytes
    /// could still fit in the input, so corrupt lengths fail fast instead of
    /// triggering huge allocations.
    pub fn count(&mut self, elem_size: usize, what: &'static str) -> Result<usize, DecodeError> {
        let count = u32::decode(self)? as usize;
        let needed = count.checked_mul(elem_size.max(1));
        match needed {
            Some(n) if n <= self.remaining() => Ok(count),
            _ => Err(DecodeError::InvalidLength {
                what,
                expected: self.remaining() / elem_size.max(1),
                found: count,
            }),
        }
    }

    /// Checks the canonical header and the artifact kind tag.
    pub fn header(&mut self, expected: Kind) -> Result<(), DecodeError> {
        let magic = self.take(4)?;
        if magic != MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(magic);
            return Err(DecodeError::BadMagic { found });
        }
        let version = u16::decode(self)?;
        if version != VERSION {
            return Err(DecodeError::UnsupportedVersion { found: version });
        }
        let kind = u8::decode(self)?;
        if kind != expected as u8 {
            return Err(DecodeError::WrongKind {
                expected: expected as u8,
                found: kind,
            });
        }
        let reserved = u8::decode(self)?;
        if reserved != 0 {
            return Err(DecodeError::InvalidValue {
                what: "reserved header byte",
            });
        }
        Ok(())
    }

    /// Reads one wire frame (see [`frame`]): a `u32` length prefix
    /// followed by that many payload bytes. The length is bounds-checked
    /// against both the remaining input and [`MAX_FRAME_LEN`] before any
    /// allocation or copy can happen.
    pub fn frame(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = u32::decode(self)? as usize;
        if len > MAX_FRAME_LEN || len > self.remaining() {
            return Err(DecodeError::InvalidLength {
                what: "wire frame",
                expected: self.remaining().min(MAX_FRAME_LEN),
                found: len,
            });
        }
        self.take(len)
    }

    /// Asserts that the whole input has been consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes {
                count: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Why a streaming frame read failed (see [`FrameReader`]).
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (including read timeouts, which
    /// surface as [`std::io::ErrorKind::WouldBlock`] or
    /// [`std::io::ErrorKind::TimedOut`] depending on the platform).
    Io(std::io::Error),
    /// The stream ended in the middle of a frame (after some but not all of
    /// the length prefix, or short of the announced payload length).
    TruncatedFrame {
        /// Bytes of the frame that did arrive.
        got: usize,
        /// Bytes the frame announced (4 for a torn length prefix).
        expected: usize,
    },
    /// The length prefix announced a payload beyond this reader's limit.
    /// The stream is desynchronized after this error — close the
    /// connection, do not try to resynchronize.
    TooLarge {
        /// The announced payload length.
        len: usize,
        /// This reader's configured limit.
        max: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
            FrameError::TruncatedFrame { got, expected } => {
                write!(f, "stream ended mid-frame ({got} of {expected} bytes)")
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "frame announces {len} bytes, limit is {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// Whether this error is a read timeout (the transport's idle signal)
    /// rather than a transport failure or protocol violation.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

/// A streaming wire-frame reader over any [`std::io::Read`] transport.
///
/// [`Reader::frame`] decodes frames out of a byte string already in memory;
/// this type reads them off a stream — a `TcpStream`, a pipe, an in-memory
/// cursor — handling **partial reads and split frames**: a frame delivered
/// one byte at a time, or many frames coalesced into one TCP segment,
/// decodes identically to whole-frame delivery. The length prefix is checked
/// against a configurable limit *before* the payload allocation, so a
/// corrupt or hostile prefix cannot request an absurd allocation.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    max_len: usize,
}

impl<R: std::io::Read> FrameReader<R> {
    /// Wraps a transport with the default [`MAX_FRAME_LEN`] limit.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            max_len: MAX_FRAME_LEN,
        }
    }

    /// Lowers the per-frame payload limit (clamped to [`MAX_FRAME_LEN`]).
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = max_len.min(MAX_FRAME_LEN);
        self
    }

    /// The configured per-frame payload limit.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// A mutable reference to the underlying transport (e.g. to write
    /// responses back over the same duplex stream).
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Unwraps the reader, returning the transport.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Reads one frame's payload off the stream, blocking as the transport
    /// does. Returns `Ok(None)` on a clean end-of-stream at a frame
    /// boundary (the peer closed between frames).
    ///
    /// # Errors
    ///
    /// [`FrameError::TruncatedFrame`] if the stream ends mid-frame,
    /// [`FrameError::TooLarge`] if the prefix exceeds the limit (the stream
    /// is desynchronized afterwards), or [`FrameError::Io`] for transport
    /// errors — including read timeouts (see [`FrameError::is_timeout`]).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let mut prefix = [0u8; 4];
        let mut filled = 0usize;
        while filled < prefix.len() {
            match self.inner.read(&mut prefix[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => {
                    return Err(FrameError::TruncatedFrame {
                        got: filled,
                        expected: prefix.len(),
                    })
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        let len = u32::from_le_bytes(prefix) as usize;
        if len > self.max_len {
            return Err(FrameError::TooLarge {
                len,
                max: self.max_len,
            });
        }
        let mut payload = vec![0u8; len];
        let mut got = 0usize;
        while got < len {
            match self.inner.read(&mut payload[got..]) {
                Ok(0) => return Err(FrameError::TruncatedFrame { got, expected: len }),
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let mut out = Vec::new();
        write_header(&mut out, Kind::Response);
        assert_eq!(out.len(), 8);
        let mut r = Reader::new(&out);
        r.header(Kind::Response).expect("valid header");
        r.finish().expect("no trailing bytes");
    }

    #[test]
    fn header_rejects_corruption() {
        let mut out = Vec::new();
        write_header(&mut out, Kind::Response);

        let mut bad_magic = out.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            Reader::new(&bad_magic).header(Kind::Response),
            Err(DecodeError::BadMagic { .. })
        ));

        let mut bad_version = out.clone();
        bad_version[4] = 0xfe;
        assert!(matches!(
            Reader::new(&bad_version).header(Kind::Response),
            Err(DecodeError::UnsupportedVersion { .. })
        ));

        assert!(matches!(
            Reader::new(&out).header(Kind::Request),
            Err(DecodeError::WrongKind {
                expected: 6,
                found: 7
            })
        ));

        let mut bad_reserved = out.clone();
        bad_reserved[7] = 1;
        assert!(matches!(
            Reader::new(&bad_reserved).header(Kind::Response),
            Err(DecodeError::InvalidValue { .. })
        ));

        assert!(matches!(
            Reader::new(&out[..5]).header(Kind::Response),
            Err(DecodeError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn integers_roundtrip() {
        let mut out = Vec::new();
        out.push(0xab);
        out.extend_from_slice(&0x1234u16.to_le_bytes());
        out.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        out.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        let mut r = Reader::new(&out);
        assert_eq!(u8::decode(&mut r).unwrap(), 0xab);
        assert_eq!(u16::decode(&mut r).unwrap(), 0x1234);
        assert_eq!(u32::decode(&mut r).unwrap(), 0xdead_beef);
        assert_eq!(u64::decode(&mut r).unwrap(), 0x0102_0304_0506_0708);
        r.finish().unwrap();
        let mut again = Vec::new();
        0xabu8.encode(&mut again);
        0x1234u16.encode(&mut again);
        0xdead_beefu32.encode(&mut again);
        0x0102_0304_0506_0708u64.encode(&mut again);
        assert_eq!(again, out);
    }

    #[test]
    fn count_rejects_absurd_lengths() {
        let mut out = Vec::new();
        out.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = Reader::new(&out);
        assert!(matches!(
            r.count(32, "elements"),
            Err(DecodeError::InvalidLength { .. })
        ));
        // A consistent count passes.
        let mut out = Vec::new();
        out.extend_from_slice(&2u32.to_le_bytes());
        out.extend_from_slice(&[0u8; 8]);
        let mut r = Reader::new(&out);
        assert_eq!(r.count(4, "elements").unwrap(), 2);
    }

    #[test]
    fn trailing_bytes_are_reported() {
        let data = [1u8, 2, 3];
        let mut r = Reader::new(&data);
        let _ = u8::decode(&mut r).unwrap();
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes { count: 2 }));
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn kind_registry_is_consistent() {
        // Every tag byte either decodes to the kind it encodes, or fails.
        let kinds: Vec<Kind> = (0..=u8::MAX)
            .filter_map(|tag| Kind::from_bytes(&[tag]).ok())
            .collect();
        assert_eq!(kinds.len(), 7);
        for kind in kinds {
            assert_eq!(kind.to_bytes(), [kind as u8]);
        }
        assert!(Kind::from_bytes(&[0]).is_err());
        assert!(Kind::from_bytes(&[0xff]).is_err());
    }

    #[test]
    fn frames_roundtrip_and_reject_bad_lengths() {
        let out = [frame(b"hello"), frame(b""), frame(b"world!")].concat();
        let mut r = Reader::new(&out);
        assert_eq!(r.frame().unwrap(), b"hello");
        assert_eq!(r.frame().unwrap(), b"");
        assert_eq!(r.frame().unwrap(), b"world!");
        r.finish().unwrap();

        // A length prefix pointing past the end of input fails fast.
        let mut bad = Vec::new();
        bad.extend_from_slice(&100u32.to_le_bytes());
        bad.extend_from_slice(&[0u8; 10]);
        assert!(matches!(
            Reader::new(&bad).frame(),
            Err(DecodeError::InvalidLength {
                what: "wire frame",
                ..
            })
        ));

        // An absurd length fails even before the remaining-bytes check.
        let mut absurd = Vec::new();
        absurd.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Reader::new(&absurd).frame().is_err());

        // Truncated length prefix.
        assert!(matches!(
            Reader::new(&[1u8, 0]).frame(),
            Err(DecodeError::UnexpectedEnd { .. })
        ));
    }

    /// A transport that hands out at most `chunk` bytes per read call, so
    /// tests can model maximally-split TCP delivery.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl std::io::Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = (self.data.len() - self.pos).min(self.chunk).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_is_split_invariant() {
        let stream = [frame(b"hello"), frame(b""), frame(&[0xaa; 300])].concat();

        // Whole-buffer, byte-at-a-time and 7-byte-chunk delivery must all
        // produce the identical frame sequence.
        let mut per_chunk = Vec::new();
        for chunk in [stream.len(), 1, 7] {
            let mut reader = FrameReader::new(Trickle {
                data: stream.clone(),
                pos: 0,
                chunk,
            });
            let mut frames = Vec::new();
            while let Some(frame) = reader.next_frame().expect("valid stream") {
                frames.push(frame);
            }
            per_chunk.push(frames);
        }
        assert_eq!(per_chunk[0].len(), 3);
        assert_eq!(per_chunk[0][0], b"hello");
        assert_eq!(per_chunk[0][1], b"");
        assert_eq!(per_chunk[0][2], vec![0xaa; 300]);
        assert_eq!(per_chunk[0], per_chunk[1]);
        assert_eq!(per_chunk[0], per_chunk[2]);
    }

    #[test]
    fn frame_reader_reports_clean_and_torn_eof() {
        // Clean EOF at a frame boundary → None.
        let ok = frame(b"x");
        let mut reader = FrameReader::new(std::io::Cursor::new(ok));
        assert_eq!(reader.next_frame().unwrap(), Some(b"x".to_vec()));
        assert!(reader.next_frame().unwrap().is_none());

        // EOF inside the length prefix.
        let mut reader = FrameReader::new(std::io::Cursor::new(vec![5u8, 0]));
        assert!(matches!(
            reader.next_frame(),
            Err(FrameError::TruncatedFrame {
                got: 2,
                expected: 4
            })
        ));

        // EOF inside the payload.
        let mut torn = frame(b"hello");
        torn.truncate(6);
        let mut reader = FrameReader::new(std::io::Cursor::new(torn));
        assert!(matches!(
            reader.next_frame(),
            Err(FrameError::TruncatedFrame {
                got: 2,
                expected: 5
            })
        ));
    }

    #[test]
    fn frame_reader_rejects_oversized_prefix_before_allocating() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = FrameReader::new(std::io::Cursor::new(bad)).with_max_len(1024);
        assert_eq!(reader.max_len(), 1024);
        match reader.next_frame() {
            Err(FrameError::TooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // The limit clamps to MAX_FRAME_LEN.
        let reader = FrameReader::new(std::io::Cursor::new(Vec::new())).with_max_len(usize::MAX);
        assert_eq!(reader.max_len(), MAX_FRAME_LEN);
    }

    #[test]
    fn frame_error_classifies_timeouts() {
        let timeout = FrameError::Io(std::io::Error::new(std::io::ErrorKind::WouldBlock, "t"));
        assert!(timeout.is_timeout());
        let timeout = FrameError::Io(std::io::Error::new(std::io::ErrorKind::TimedOut, "t"));
        assert!(timeout.is_timeout());
        let other = FrameError::Io(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "x"));
        assert!(!other.is_timeout());
        assert!(!FrameError::TooLarge { len: 9, max: 1 }.is_timeout());
        // Display strings carry the numbers operators grep for.
        assert!(FrameError::TooLarge { len: 9, max: 1 }
            .to_string()
            .contains("9 bytes"));
        assert!(FrameError::TruncatedFrame {
            got: 2,
            expected: 4
        }
        .to_string()
        .contains("2 of 4"));
    }

    #[test]
    fn error_display_strings() {
        assert!(DecodeError::BadMagic { found: [0; 4] }
            .to_string()
            .contains("magic"));
        assert!(DecodeError::UnsupportedVersion { found: 9 }
            .to_string()
            .contains("version 9"));
        assert!(DecodeError::TrailingBytes { count: 3 }
            .to_string()
            .contains("3 trailing"));
        assert!(DecodeError::InvalidValue { what: "point" }
            .to_string()
            .contains("point"));
    }
}
