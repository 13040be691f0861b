//! Byte-level encoding of scalars, vectors and matrices for message
//! payloads.
//!
//! Messages between ranks carry only bytes (as they do over a real
//! interconnect); this module provides the little-endian wire format used
//! by the distributed factorization: `u64` sizes/ids, raw `f64` data, and
//! matrices as `(nrows, ncols, column-major data)`. Complex scalars encode
//! as interleaved `(re, im)` pairs.
//!
//! Two reading disciplines share one format:
//!
//! * the `try_get_*` methods are **bounds-checked** and return a
//!   [`CodecError`] instead of panicking — mandatory on any path that
//!   consumes bytes from another OS process (the TCP transport's
//!   handshake, result, and record frames), where a truncated or
//!   corrupted frame must surface as a diagnosable error, not a slice
//!   panic or an attacker-sized allocation;
//! * the plain `get_*` methods panic on malformed input and are reserved
//!   for same-binary protocol payloads, where a malformed frame is a
//!   protocol bug. They are thin `expect` wrappers over the `try_*`
//!   variants, so even the panic message names the offset and the missing
//!   byte count.
//!
//! The [`Wire`] trait builds on the reader/writer pair: any type that is
//! `Wire` can cross a process boundary as a tagged frame. The runtime
//! implements it for primitives, tuples, containers, matrices and
//! [`CommStats`](crate::stats::CommStats); `srsf-core` layers its
//! factorization records on top.

use srsf_linalg::ldlt::NB;
use srsf_linalg::sym::packed_len;
use srsf_linalg::{Coupling, Mat, NarrowMat, Scalar, SymMat};

/// A finished message payload (owned bytes).
///
/// Messages are built once, sent once, and consumed once, so a plain byte
/// vector is all the "zero-copy buffer" machinery this runtime needs.
pub type Bytes = Vec<u8>;

/// A malformed payload detected by the bounds-checked readers.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The payload ended before a fixed-size read could complete.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
        /// Read offset at which the shortfall was detected.
        at: usize,
    },
    /// A length prefix claims more data than the payload can hold — the
    /// frame is rejected *before* any allocation is sized from it.
    Oversized {
        /// Element count the prefix claims.
        claimed: u64,
        /// Bytes remaining in the payload.
        remaining: usize,
        /// Read offset of the length prefix.
        at: usize,
    },
    /// A value decoded correctly but is not valid for the target type
    /// (unknown enum discriminant, non-UTF-8 string, …).
    Invalid {
        /// What was being decoded.
        what: &'static str,
        /// Read offset of the offending value.
        at: usize,
    },
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated {
                needed,
                remaining,
                at,
            } => write!(
                f,
                "truncated payload: needed {needed} bytes at offset {at}, only {remaining} remain"
            ),
            CodecError::Oversized {
                claimed,
                remaining,
                at,
            } => write!(
                f,
                "oversized length prefix at offset {at}: claims {claimed} elements but only \
                 {remaining} bytes remain"
            ),
            CodecError::Invalid { what, at } => {
                write!(f, "invalid {what} at offset {at}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only wire-format writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Write an unsigned 64-bit integer.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a double.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a scalar (1 or 2 doubles).
    fn put_scalar<T: Scalar>(&mut self, v: T) {
        self.put_f64(v.re());
        if T::IS_COMPLEX {
            self.put_f64(v.im());
        }
    }

    /// Write a length-prefixed run of raw bytes.
    fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed slice of `u64`.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Write a matrix as `(nrows, ncols, column-major entries)`.
    pub fn put_mat<T: Scalar>(&mut self, m: &Mat<T>) {
        self.put_u64(m.nrows() as u64);
        self.put_u64(m.ncols() as u64);
        for &x in m.as_slice() {
            self.put_scalar(x);
        }
    }

    /// Write a packed symmetric matrix as its length-prefixed packed
    /// lower columns; the order is the reader's to state
    /// ([`ByteReader::try_get_sym`]).
    pub fn put_sym<T: Scalar>(&mut self, m: &SymMat<T>) {
        self.put_u64(m.as_slice().len() as u64);
        for &x in m.as_slice() {
            self.put_scalar(x);
        }
    }

    /// Write a coupling block: a width flag (0 = `f64`, 1 = `f32`), then
    /// a wide block as [`ByteWriter::put_mat`] does, a narrow one as
    /// `(nrows, ncols)` and its `f32` parts as length-prefixed bytes
    /// ([`ByteReader::try_get_coupling`]).
    pub fn put_coupling<T: Scalar>(&mut self, m: &Coupling<T>) {
        match m {
            Coupling::Wide(m) => {
                self.put_u64(0);
                self.put_mat(m);
            }
            Coupling::Narrow(m) => {
                self.put_u64(1);
                self.put_u64(m.nrows() as u64);
                self.put_u64(m.ncols() as u64);
                self.put_u64((m.parts().len() * 4) as u64);
                for &x in m.parts() {
                    self.buf.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish and freeze the payload.
    pub fn finish(self) -> Bytes {
        self.buf
    }
}

/// Sequential wire-format reader.
#[derive(Debug)]
pub struct ByteReader {
    buf: Bytes,
    pos: usize,
}

impl ByteReader {
    /// Wrap a payload.
    pub fn new(buf: Bytes) -> Self {
        Self { buf, pos: 0 }
    }

    fn try_take<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let out: [u8; N] = self
            .buf
            .get(self.pos..self.pos + N)
            .and_then(|s| s.try_into().ok())
            .ok_or(CodecError::Truncated {
                needed: N,
                remaining: self.remaining(),
                at: self.pos,
            })?;
        self.pos += N;
        Ok(out)
    }

    /// Reject a length prefix that claims more elements than the
    /// remaining bytes can encode (each element occupies at least
    /// `elem_bytes`), *before* any allocation is sized from it.
    fn check_len(&self, claimed: u64, elem_bytes: usize) -> Result<usize, CodecError> {
        let fits = claimed
            .checked_mul(elem_bytes as u64)
            .is_some_and(|total| total <= self.remaining() as u64);
        if !fits {
            return Err(CodecError::Oversized {
                claimed,
                remaining: self.remaining(),
                at: self.pos.saturating_sub(8),
            });
        }
        Ok(claimed as usize)
    }

    /// Read `n` elements (`n` already validated by [`Self::check_len`])
    /// into a vector of exactly that capacity. Collecting through a
    /// `Result` would lose the size hint and leave the vector grown by
    /// doubling — up to twice the bytes the capacity-based `heap_bytes`
    /// accounting of a decoded factorization should report.
    fn try_collect<T>(
        &mut self,
        n: usize,
        mut get: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(get(self)?);
        }
        Ok(out)
    }

    /// Bounds-checked read of an unsigned 64-bit integer.
    pub fn try_get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.try_take::<8>()?))
    }

    /// Bounds-checked read of a double.
    pub fn try_get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.try_take::<8>()?))
    }

    /// Bounds-checked read of a scalar.
    fn try_get_scalar<T: Scalar>(&mut self) -> Result<T, CodecError> {
        let re = self.try_get_f64()?;
        let im = if T::IS_COMPLEX {
            self.try_get_f64()?
        } else {
            0.0
        };
        Ok(T::from_re_im(re, im))
    }

    /// Bounds-checked read of a length-prefixed run of raw bytes.
    fn try_get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let claimed = self.try_get_u64()?;
        let n = self.check_len(claimed, 1)?;
        let out = self.buf[self.pos..self.pos + n].to_vec();
        self.pos += n;
        Ok(out)
    }

    /// Bounds-checked read of a length-prefixed `u64` slice.
    pub fn try_get_u64_slice(&mut self) -> Result<Vec<u64>, CodecError> {
        let claimed = self.try_get_u64()?;
        let n = self.check_len(claimed, 8)?;
        self.try_collect(n, Self::try_get_u64)
    }

    /// Read `n` scalars (`n` already validated by [`Self::check_len`])
    /// in one pass, into a vector of exactly that capacity.
    fn take_scalars<T: Scalar>(&mut self, n: usize) -> Vec<T> {
        let w = scalar_bytes::<T>();
        let bytes = &self.buf[self.pos..self.pos + n * w];
        let mut out = Vec::with_capacity(n);
        out.extend(bytes.chunks_exact(w).map(|c| {
            let word = |at: usize| {
                let mut b = [0u8; 8];
                b.copy_from_slice(&c[at..at + 8]);
                f64::from_le_bytes(b)
            };
            T::from_re_im(word(0), if T::IS_COMPLEX { word(8) } else { 0.0 })
        }));
        self.pos += n * w;
        out
    }

    /// Bounds-checked read of a matrix's `(nrows, ncols)` header.
    fn try_get_dims(&mut self) -> Result<(u64, u64), CodecError> {
        let at = self.pos;
        let nrows = self.try_get_u64()?;
        let ncols = self.try_get_u64()?;
        // Bound each dimension on its own (ids in this codebase are u32,
        // so no real matrix exceeds this): otherwise a corrupt header
        // like (u64::MAX, 0) would pass the product check with 0 payload
        // bytes and hand downstream code a matrix claiming ~1.8e19 rows.
        if nrows > u32::MAX as u64 || ncols > u32::MAX as u64 {
            return Err(CodecError::Invalid {
                what: "matrix dimension",
                at,
            });
        }
        Ok((nrows, ncols))
    }

    /// Bounds-checked read of a matrix. The claimed dimensions are
    /// validated against the remaining payload before the backing buffer
    /// is allocated, so a corrupted header cannot trigger an
    /// attacker-sized allocation.
    pub fn try_get_mat<T: Scalar>(&mut self) -> Result<Mat<T>, CodecError> {
        let (nrows, ncols) = self.try_get_dims()?;
        let n = self.check_len(nrows * ncols, scalar_bytes::<T>())?;
        let data = self.take_scalars(n);
        Ok(Mat::from_vec(nrows as usize, ncols as usize, data))
    }

    /// Bounds-checked read of a coupling block
    /// ([`ByteWriter::put_coupling`]): a width flag other than 0 or 1, or
    /// a narrow payload of other than `nrows · ncols · 4` bytes (`· 8`
    /// complex), is [`CodecError::Invalid`], before anything is
    /// allocated.
    pub fn try_get_coupling<T: Scalar>(&mut self) -> Result<Coupling<T>, CodecError> {
        let at = self.pos;
        match self.try_get_u64()? {
            0 => Ok(Coupling::Wide(self.try_get_mat()?)),
            1 => {
                let (nrows, ncols) = self.try_get_dims()?;
                let invalid = CodecError::Invalid {
                    what: "narrow coupling length vs shape",
                    at: self.pos,
                };
                let claimed = self.try_get_u64()?;
                let entry_bytes = if T::IS_COMPLEX { 8 } else { 4 };
                let want = nrows.checked_mul(ncols * entry_bytes);
                if want != Some(claimed) {
                    return Err(invalid);
                }
                let len = self.check_len(claimed, 1)?;
                let bytes = &self.buf[self.pos..self.pos + len];
                let mut parts = Vec::with_capacity(len / 4);
                parts.extend(bytes.chunks_exact(4).map(|c| {
                    let mut b = [0u8; 4];
                    b.copy_from_slice(c);
                    f32::from_le_bytes(b)
                }));
                self.pos += len;
                NarrowMat::from_parts(nrows as usize, ncols as usize, parts)
                    .map(Coupling::Narrow)
                    .ok_or(invalid)
            }
            _ => Err(CodecError::Invalid {
                what: "coupling width flag",
                at,
            }),
        }
    }

    /// Bounds-checked read of a packed symmetric matrix of order `n`:
    /// a length prefix other than `n (n + 1) / 2` is
    /// [`CodecError::Invalid`], before anything is allocated.
    pub fn try_get_sym<T: Scalar>(&mut self, n: usize) -> Result<SymMat<T>, CodecError> {
        let invalid = CodecError::Invalid {
            what: "packed symmetric length vs order",
            at: self.pos,
        };
        let claimed = self.try_get_u64()?;
        if packed_len(n).is_none_or(|len| claimed != len as u64) {
            return Err(invalid);
        }
        let len = self.check_len(claimed, scalar_bytes::<T>())?;
        SymMat::from_packed(n, self.take_scalars(len)).ok_or(invalid)
    }

    /// Read an unsigned 64-bit integer.
    ///
    /// # Panics
    ///
    /// Panics on a truncated payload; use [`ByteReader::try_get_u64`] for
    /// untrusted bytes.
    pub fn get_u64(&mut self) -> u64 {
        // INVARIANT: deliberate — this is the documented panicking variant;
        // untrusted bytes go through try_get_u64
        self.try_get_u64().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Read a matrix (panicking; see [`ByteReader::try_get_mat`]).
    pub fn get_mat<T: Scalar>(&mut self) -> Mat<T> {
        // INVARIANT: deliberate — documented panicking variant of try_get_mat
        self.try_get_mat().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }
}

/// Encoded size of one scalar.
fn scalar_bytes<T: Scalar>() -> usize {
    if T::IS_COMPLEX {
        16
    } else {
        8
    }
}

/// A type that can cross a process boundary as message bytes.
///
/// Implemented by everything the transport layer ships that is richer
/// than a raw payload: rank results returned from spawned worker
/// processes, communication counters, and (in `srsf-core`) the
/// factorization records. `decode` is total — it must return a
/// [`CodecError`] rather than panic on malformed bytes, because worker
/// frames cross a real process boundary.
pub trait Wire: Sized {
    /// Append this value to a payload.
    fn encode(&self, w: &mut ByteWriter);

    /// Read a value back; errors on truncated or corrupted bytes.
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError>;

    /// Encode into a fresh payload.
    fn to_bytes(&self) -> Bytes {
        let mut w = ByteWriter::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Decode from a full payload (trailing bytes are not an error; the
    /// caller owns framing).
    fn from_bytes(bytes: Bytes) -> Result<Self, CodecError> {
        Self::decode(&mut ByteReader::new(bytes))
    }
}

impl Wire for () {
    fn encode(&self, _w: &mut ByteWriter) {}
    fn decode(_r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(())
    }
}

macro_rules! wire_as_u64 {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, w: &mut ByteWriter) {
                w.put_u64(*self as u64);
            }
            fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
                Ok(r.try_get_u64()? as $t)
            }
        }
    )*};
}
// u64 is the identity; i64 is a lossless 64-bit reinterpret.
wire_as_u64!(u64, i64);

macro_rules! wire_narrowing {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, w: &mut ByteWriter) {
                // Sign-extends the signed types, so the round trip is
                // exact and out-of-range slots are detectable on decode.
                w.put_u64(*self as i64 as u64)
            }
            fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
                let at = r.position();
                let v = r.try_get_u64()?;
                // Accept either the unsigned value or the sign-extended
                // form; anything else is a corrupt slot, not a value to
                // silently truncate.
                <$t>::try_from(v)
                    .or_else(|_| <$t>::try_from(v as i64))
                    .map_err(|_| CodecError::Invalid {
                        what: concat!("out-of-range ", stringify!($t)),
                        at,
                    })
            }
        }
    )*};
}
// usize is only a lossless reinterpret on 64-bit hosts; the checked
// decode keeps a 32-bit target from silently truncating a 64-bit slot.
wire_narrowing!(u32, i32, usize);

impl Wire for bool {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(u64::from(*self));
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let at = r.position();
        match r.try_get_u64()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid { what: "bool", at }),
        }
    }
}

impl Wire for f64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(*self);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        r.try_get_f64()
    }
}

impl Wire for srsf_linalg::c64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_scalar(*self);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        r.try_get_scalar()
    }
}

impl Wire for String {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bytes(self.as_bytes());
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let at = r.position();
        String::from_utf8(r.try_get_bytes()?).map_err(|_| CodecError::Invalid {
            what: "utf-8 string",
            at,
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.len() as u64);
        for x in self {
            x.encode(w);
        }
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        // Every wire element occupies at least one byte in practice (the
        // one zero-byte type, `()`, is never shipped in a Vec), so the
        // length prefix is bounded by the remaining payload.
        let claimed = r.try_get_u64()?;
        let n = r.check_len(claimed, 1)?;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u64(0),
            Some(x) => {
                w.put_u64(1);
                x.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let at = r.position();
        match r.try_get_u64()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(CodecError::Invalid {
                what: "option discriminant",
                at,
            }),
        }
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Ok(x) => {
                w.put_u64(0);
                x.encode(w);
            }
            Err(e) => {
                w.put_u64(1);
                e.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let at = r.position();
        match r.try_get_u64()? {
            0 => Ok(Ok(T::decode(r)?)),
            1 => Ok(Err(E::decode(r)?)),
            _ => Err(CodecError::Invalid {
                what: "result discriminant",
                at,
            }),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<T: Scalar> Wire for Mat<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_mat(self);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        r.try_get_mat()
    }
}

impl<T: Scalar> Wire for srsf_linalg::Lu<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_mat(&self.lu);
        w.put_u64_slice(&self.piv.iter().map(|&v| v as u64).collect::<Vec<_>>());
    }
    /// Fails on factors no factorization produces — not square, or a
    /// pivot outside `k..dim` — so that no decoded LU, on its own or as a
    /// general top factor, can make a later solve swap out of bounds.
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let at = r.position();
        let lu = r.try_get_mat()?;
        let piv = r
            .try_get_u64_slice()?
            .into_iter()
            .map(|v| v as usize)
            .collect();
        let lu = srsf_linalg::Lu { lu, piv };
        if !lu.is_well_formed() {
            return Err(CodecError::Invalid {
                what: "LU shape vs pivots",
                at,
            });
        }
        Ok(lu)
    }
}

/// The block columns held (all of them, or a rank's range of a
/// distributed top): matrix dimension, first block column, count, then
/// one (packed diagonal block inverse `D_k⁻¹`, panel) pair per column.
impl<T: Scalar> Wire for srsf_linalg::Ldlt<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.dim() as u64);
        w.put_u64(self.cols().start as u64);
        w.put_u64(self.cols().len() as u64);
        for (d, s) in self.diag_inverses().iter().zip(self.sub_panels()) {
            w.put_sym(d);
            w.put_mat(s);
        }
    }
    /// Fails unless the range lies inside the matrix's block columns and
    /// every block has the shape of its column: a packed inverse of order
    /// `nb` on the diagonal, `nb` wide and `n - k1` high below it.
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let at = r.position();
        let n = r.try_get_u64()?;
        let first = r.try_get_u64()?;
        // Each pair encodes at least its three length and dimension words.
        let n_cols = r.try_get_u64()?;
        let n_cols = r.check_len(n_cols, 24)?;
        let invalid = CodecError::Invalid {
            what: "LDLᵀ block columns vs dimension",
            at,
        };
        // The range first, so each diagonal block's order is known
        // before its length prefix is read.
        let (Ok(n), Ok(first)) = (usize::try_from(n), usize::try_from(first)) else {
            return Err(invalid);
        };
        if first.saturating_add(n_cols) > n.div_ceil(NB) {
            return Err(invalid);
        }
        let (mut diag, mut sub) = (Vec::with_capacity(n_cols), Vec::with_capacity(n_cols));
        for k in first..first + n_cols {
            diag.push(r.try_get_sym(NB.min(n - k * NB))?);
            sub.push(r.try_get_mat()?);
        }
        srsf_linalg::Ldlt::from_col_parts(n, first, diag, sub).ok_or(invalid)
    }
}

/// CRC-64/ECMA-182 (polynomial `0x42F0E1EBA9EA3693`, bit-reflected form
/// `0xC96C5795D7870F42`, init/xorout `!0`) over a byte slice.
///
/// Used by the checkpoint container in `srsf-core` to validate on-disk
/// snapshots *before* any `Wire` decode allocates: a truncated or
/// bit-flipped file is rejected from its header and checksum alone.
pub fn crc64(bytes: &[u8]) -> u64 {
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    // Byte-at-a-time table, built on the fly: checkpoint I/O is rare and
    // file-sized, so a lazily recomputed 2 KiB table beats a static one
    // for code simplicity at no measurable cost.
    let mut table = [0u64; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut crc = i as u64;
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
        *slot = crc;
    }
    let mut crc = !0u64;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u64) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use srsf_linalg::c64;

    #[test]
    fn round_trip_primitives() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        w.put_f64(-1.5);
        w.put_u64_slice(&[1, 2, 3]);
        let mut r = ByteReader::new(w.finish());
        assert_eq!(r.get_u64(), 42);
        assert_eq!(r.try_get_f64(), Ok(-1.5));
        assert_eq!(r.try_get_u64_slice(), Ok(vec![1, 2, 3]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn round_trip_real_matrix() {
        let m = Mat::from_fn(3, 2, |i, j| (i * 10 + j) as f64 - 5.0);
        let mut w = ByteWriter::new();
        w.put_mat(&m);
        let mut r = ByteReader::new(w.finish());
        let back: Mat<f64> = r.get_mat();
        assert_eq!(back, m);
    }

    #[test]
    fn round_trip_complex() {
        let m = Mat::from_fn(2, 4, |i, j| c64::new(i as f64, -(j as f64)));
        let mut w = ByteWriter::new();
        w.put_mat(&m);
        let mut r = ByteReader::new(w.finish());
        let back: Mat<c64> = r.get_mat();
        assert_eq!(back, m);
        assert_eq!(r.remaining(), 0);
    }

    /// A packed symmetric matrix comes back at the order the reader
    /// states; any other order — a length prefix that is not
    /// `n (n + 1) / 2` — is `Invalid` before anything is allocated.
    #[test]
    fn packed_symmetric_round_trip_and_order_check() {
        let mut a = Mat::from_fn(4, 4, |i, j| c64::new((i + 4 * j) as f64, -(j as f64)));
        a.mirror_upper();
        let m = SymMat::from_lower(&a);
        let mut w = ByteWriter::new();
        w.put_sym(&m);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 8 + 10 * 16);
        let back = ByteReader::new(bytes.clone())
            .try_get_sym::<c64>(4)
            .unwrap();
        assert_eq!(back, m);
        for order in [0, 3, 5, usize::MAX] {
            assert!(matches!(
                ByteReader::new(bytes.clone()).try_get_sym::<c64>(order),
                Err(CodecError::Invalid { at: 0, .. })
            ));
        }
        let mut short = bytes.clone();
        short.truncate(bytes.len() - 1);
        assert!(matches!(
            ByteReader::new(short).try_get_sym::<c64>(4),
            Err(CodecError::Oversized { .. })
        ));
    }

    #[test]
    fn empty_matrix_round_trip() {
        let m: Mat<f64> = Mat::zeros(0, 5);
        let mut w = ByteWriter::new();
        w.put_mat(&m);
        let mut r = ByteReader::new(w.finish());
        let back: Mat<f64> = r.get_mat();
        assert_eq!(back.nrows(), 0);
        assert_eq!(back.ncols(), 5);
    }

    #[test]
    fn sizes_as_expected() {
        let mut w = ByteWriter::new();
        assert!(w.is_empty());
        w.put_scalar(1.0f64);
        assert_eq!(w.len(), 8);
        w.put_scalar(c64::ONE);
        assert_eq!(w.len(), 24);
    }

    #[test]
    fn truncated_u64_is_an_error_not_a_panic() {
        let mut r = ByteReader::new(vec![1, 2, 3]);
        match r.try_get_u64() {
            Err(CodecError::Truncated {
                needed: 8,
                remaining: 3,
                at: 0,
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
        // The reader did not advance past the corrupt read.
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn truncated_slice_payload_detected() {
        let mut w = ByteWriter::new();
        w.put_u64_slice(&[10, 20, 30]);
        let mut bytes = w.finish();
        bytes.truncate(20); // claims 3 elements, holds ~1.5
        let mut r = ByteReader::new(bytes);
        assert!(matches!(
            r.try_get_u64_slice(),
            Err(CodecError::Oversized { claimed: 3, .. })
        ));
    }

    #[test]
    fn garbage_length_prefix_rejected_before_allocation() {
        // A frame claiming u64::MAX elements must be rejected up front
        // rather than attempting an attacker-sized allocation.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        w.put_u64(7);
        let mut r = ByteReader::new(w.finish());
        assert!(matches!(
            r.try_get_u64_slice(),
            Err(CodecError::Oversized {
                claimed: u64::MAX,
                ..
            })
        ));
    }

    #[test]
    fn garbage_matrix_header_rejected() {
        // Claimed dims beyond any real matrix (ids are u32).
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX / 2);
        w.put_u64(u64::MAX / 2);
        let mut r = ByteReader::new(w.finish());
        assert!(matches!(
            r.try_get_mat::<f64>(),
            Err(CodecError::Invalid { .. })
        ));
        // Claimed dims that fit in u64 but not in the payload.
        let mut w = ByteWriter::new();
        w.put_u64(1 << 20);
        w.put_u64(1 << 20);
        w.put_f64(1.0);
        let mut r = ByteReader::new(w.finish());
        assert!(matches!(
            r.try_get_mat::<f64>(),
            Err(CodecError::Oversized { .. })
        ));
    }

    #[test]
    fn zero_dim_matrix_header_with_absurd_other_dim_rejected() {
        // (u64::MAX, 0) passes a product-only check with 0 payload bytes;
        // each dimension must be bounded on its own.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        w.put_u64(0);
        let mut r = ByteReader::new(w.finish());
        assert!(matches!(
            r.try_get_mat::<f64>(),
            Err(CodecError::Invalid { .. })
        ));
        // Legitimate empty matrices still decode.
        let m: Mat<f64> = Mat::zeros(0, 5);
        let mut w = ByteWriter::new();
        w.put_mat(&m);
        assert_eq!(ByteReader::new(w.finish()).try_get_mat::<f64>().unwrap(), m);
    }

    #[test]
    fn narrowing_wire_types_reject_out_of_range_slots() {
        // A slot holding 2^32 + 5 is corruption, not the u32 value 5.
        let mut w = ByteWriter::new();
        w.put_u64((1u64 << 32) + 5);
        assert!(matches!(
            u32::from_bytes(w.finish()),
            Err(CodecError::Invalid { .. })
        ));
        let mut w = ByteWriter::new();
        w.put_u64((1u64 << 32) + 5);
        assert!(i32::from_bytes(w.finish()).is_err());
        // Signed round trips are exact, including negatives.
        for v in [i32::MIN, -1, 0, 7, i32::MAX] {
            assert_eq!(i32::from_bytes(v.to_bytes()).unwrap(), v);
        }
        for v in [0u32, 1, u32::MAX] {
            assert_eq!(u32::from_bytes(v.to_bytes()).unwrap(), v);
        }
    }

    #[test]
    fn string_wire_is_raw_bytes_not_words() {
        let s = "hello, ranks".to_string();
        let bytes = s.to_bytes();
        // length prefix + raw utf-8, not one u64 per byte
        assert_eq!(bytes.len(), 8 + s.len());
        assert_eq!(String::from_bytes(bytes).unwrap(), s);
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // garbage length
        assert!(String::from_bytes(w.finish()).is_err());
    }

    #[test]
    fn truncated_matrix_round_trip_fails_cleanly() {
        let m = Mat::from_fn(4, 4, |i, j| (i + j) as f64);
        let mut w = ByteWriter::new();
        w.put_mat(&m);
        let full = w.finish();
        for cut in [0, 7, 8, 15, 16, 40, full.len() - 1] {
            let mut bytes = full.clone();
            bytes.truncate(cut);
            let mut r = ByteReader::new(bytes);
            assert!(
                r.try_get_mat::<f64>().is_err(),
                "cut at {cut} must not decode"
            );
        }
        let mut r = ByteReader::new(full);
        assert_eq!(r.try_get_mat::<f64>().unwrap(), m);
    }

    #[test]
    #[should_panic(expected = "truncated payload")]
    fn panicking_reader_names_the_shortfall() {
        let mut r = ByteReader::new(vec![0; 4]);
        let _ = r.get_u64();
    }

    #[test]
    fn wire_round_trip_containers() {
        let v: Vec<Option<(u64, f64)>> = vec![Some((1, 2.5)), None, Some((3, -0.5))];
        let mut w = ByteWriter::new();
        v.encode(&mut w);
        let mut r = ByteReader::new(w.finish());
        assert_eq!(Vec::<Option<(u64, f64)>>::decode(&mut r).unwrap(), v);
        assert_eq!(r.remaining(), 0);

        let res: Result<String, u32> = Ok("hello".to_string());
        let bytes = res.to_bytes();
        assert_eq!(Result::<String, u32>::from_bytes(bytes).unwrap(), res);

        let res: Result<String, u32> = Err(404);
        let bytes = res.to_bytes();
        assert_eq!(Result::<String, u32>::from_bytes(bytes).unwrap(), res);
    }

    #[test]
    fn wire_round_trip_linalg() {
        let m = Mat::from_fn(3, 5, |i, j| c64::new(i as f64, j as f64));
        let mut r = ByteReader::new(m.to_bytes());
        assert_eq!(Mat::<c64>::decode(&mut r).unwrap(), m);

        let lu = srsf_linalg::Lu {
            lu: Mat::from_fn(2, 2, |i, j| (i * 2 + j) as f64),
            piv: vec![1, 1],
        };
        let mut r = ByteReader::new(lu.to_bytes());
        let back = srsf_linalg::Lu::<f64>::decode(&mut r).unwrap();
        assert_eq!(back.lu, lu.lu);
        assert_eq!(back.piv, lu.piv);
    }

    #[test]
    fn wire_decode_rejects_bad_discriminants() {
        let mut w = ByteWriter::new();
        w.put_u64(7);
        assert!(matches!(
            Option::<u64>::from_bytes(w.finish()),
            Err(CodecError::Invalid { .. })
        ));
        let mut w = ByteWriter::new();
        w.put_u64(2);
        assert!(matches!(
            Result::<u64, u64>::from_bytes(w.finish()),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn wire_vec_garbage_length_rejected() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        assert!(Vec::<u64>::from_bytes(w.finish()).is_err());
    }

    #[test]
    fn crc64_known_answer_and_sensitivity() {
        // CRC-64/XZ (reflected ECMA-182) check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
        let mut data = vec![0u8; 1024];
        data[500] = 7;
        let clean = crc64(&data);
        data[500] = 6;
        assert_ne!(crc64(&data), clean);
    }
}
