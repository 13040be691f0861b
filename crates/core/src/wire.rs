//! [`Wire`] encodings for the factorization types that cross a process
//! boundary: the serve loop's frames (a worker's outcome report, its
//! snapshot for a gather), the top's block columns, and the checkpoint
//! container on disk.
//!
//! Everything here has a total, bounds-checked decode: a corrupted frame
//! or file must surface as a [`CodecError`], not a panic.

use crate::distributed::{RankState, RankTop, TopShare};
use crate::elimination::{BoxElimination, FactorError, RecordForm};
use crate::error::SrsfError;
use crate::sequential::Factorization;
use crate::stats::{CompressionTelemetry, FactorStats};
use crate::top::TopFactor;
use srsf_geometry::point::Point;
use srsf_geometry::tree::BoxId;
use srsf_linalg::{Coupling, Mat, Scalar};
use srsf_runtime::codec::{crc64, ByteReader, ByteWriter, CodecError, Wire};
use std::collections::HashMap;
use std::path::Path;

/// Pack a box id the way the distributed driver's messages do:
/// `level << 48 | ix << 24 | iy`.
pub(crate) fn put_box(w: &mut ByteWriter, b: &BoxId) {
    w.put_u64(((b.level as u64) << 48) | ((b.ix as u64) << 24) | b.iy as u64);
}

pub(crate) fn try_get_box(r: &mut ByteReader) -> Result<BoxId, CodecError> {
    let v = r.try_get_u64()?;
    Ok(BoxId {
        level: (v >> 48) as u8,
        ix: ((v >> 24) & 0xFF_FFFF) as u32,
        iy: (v & 0xFF_FFFF) as u32,
    })
}

/// Length-prefixed id slice (u32 ids widened to u64 slots) — the one
/// encoding shared by the in-protocol messages in `distributed.rs` and
/// the [`Wire`] record/factorization impls below.
pub(crate) fn put_ids(w: &mut ByteWriter, ids: &[u32]) {
    w.put_u64(ids.len() as u64);
    for &i in ids {
        w.put_u64(i as u64);
    }
}

pub(crate) fn try_get_ids(r: &mut ByteReader) -> Result<Vec<u32>, CodecError> {
    // Not `into_iter().map().collect()`: that reuses the u64 allocation
    // in place and the id list would report twice its bytes.
    let slots = r.try_get_u64_slice()?;
    let mut ids = Vec::with_capacity(slots.len());
    ids.extend(slots.iter().map(|&v| v as u32));
    Ok(ids)
}

impl Wire for FactorError {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            FactorError::SingularDiagonal { box_id } => {
                w.put_u64(0);
                put_box(w, box_id);
            }
            FactorError::SingularTop { size, step } => {
                w.put_u64(1);
                w.put_u64(*size as u64);
                w.put_u64(*step as u64);
            }
            FactorError::RankFailed { rank, step } => {
                w.put_u64(2);
                w.put_u64(*rank as u64);
                step.encode(w);
            } // `FactorError` is non_exhaustive for downstream crates; new
              // in-crate variants must be added here to cross the wire.
        }
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let at = r.position();
        match r.try_get_u64()? {
            0 => Ok(FactorError::SingularDiagonal {
                box_id: try_get_box(r)?,
            }),
            1 => Ok(FactorError::SingularTop {
                size: r.try_get_u64()? as usize,
                step: r.try_get_u64()? as usize,
            }),
            2 => Ok(FactorError::RankFailed {
                rank: r.try_get_u64()? as usize,
                step: String::decode(r)?,
            }),
            _ => Err(CodecError::Invalid {
                what: "FactorError discriminant",
                at,
            }),
        }
    }
}

/// Box id, the three id lists, `T`, `ES` and `EN`, then a form flag:
/// 0 = symmetric record, `X_RR^{-1}` packed follows; 1 = general record,
/// `X_RR^{-T}`, `FS` and `FN` follow. `EN` and `FN` go as couplings, each
/// with its width flag ([`ByteWriter::put_coupling`]).
impl<T: Scalar> Wire for BoxElimination<T> {
    fn encode(&self, w: &mut ByteWriter) {
        put_box(w, &self.box_id);
        put_ids(w, &self.redundant);
        put_ids(w, &self.skel);
        put_ids(w, &self.nbr);
        w.put_mat(&self.t);
        w.put_mat(&self.es);
        w.put_coupling(&self.en);
        match &self.form {
            RecordForm::Symmetric { inv } => {
                w.put_u64(0);
                w.put_sym(inv);
            }
            RecordForm::General { inv_t, fs, fnb } => {
                w.put_u64(1);
                w.put_mat(inv_t);
                w.put_mat(fs);
                w.put_coupling(fnb);
            }
        }
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let at = r.position();
        let box_id = try_get_box(r)?;
        let redundant = try_get_ids(r)?;
        let skel = try_get_ids(r)?;
        let nbr = try_get_ids(r)?;
        let t = r.try_get_mat()?;
        let es = r.try_get_mat()?;
        let en = r.try_get_coupling()?;
        let flag_at = r.position();
        let (nr, ns, nn) = (redundant.len(), skel.len(), nbr.len());
        let form = match r.try_get_u64()? {
            // The packed inverse's length is checked against |R| here.
            0 => RecordForm::Symmetric {
                inv: r.try_get_sym(nr)?,
            },
            1 => RecordForm::General {
                inv_t: r.try_get_mat()?,
                fs: r.try_get_mat()?,
                fnb: r.try_get_coupling()?,
            },
            _ => {
                return Err(CodecError::Invalid {
                    what: "record form flag",
                    at: flag_at,
                })
            }
        };
        // The solve sweep multiplies these blocks against row gathers of
        // the id lists without re-checking, so every shape is pinned to
        // `(|R|, |S|, |N|)` here: a frame that passed the CRC but is
        // inconsistent must fail to decode, not panic a later solve.
        let shape = |m: &Mat<T>, rows: usize, cols: usize| m.nrows() == rows && m.ncols() == cols;
        let coupling_shape = |m: &Coupling<T>, rows, cols| m.nrows() == rows && m.ncols() == cols;
        let consistent = shape(&t, ns, nr)
            && shape(&es, ns, nr)
            && coupling_shape(&en, nn, nr)
            && match &form {
                RecordForm::Symmetric { .. } => true,
                RecordForm::General { inv_t, fs, fnb } => {
                    shape(inv_t, nr, nr) && shape(fs, nr, ns) && coupling_shape(fnb, nr, nn)
                }
            };
        if !consistent {
            return Err(CodecError::Invalid {
                what: "record block shape vs redundant/skel/nbr",
                at,
            });
        }
        Ok(BoxElimination {
            box_id,
            redundant,
            skel,
            nbr,
            t,
            es,
            en,
            form,
        })
    }
}

/// The live compression counters, carried inside [`FactorStats`].
/// `fft_block_applies` is always 0 and stays off the wire.
impl Wire for CompressionTelemetry {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.sketch_retries);
        w.put_u64(self.sketch_fallbacks);
        w.put_u64(self.dense_block_applies);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(CompressionTelemetry {
            sketch_retries: r.try_get_u64()?,
            sketch_fallbacks: r.try_get_u64()?,
            fft_block_applies: 0,
            dense_block_applies: r.try_get_u64()?,
        })
    }
}

impl Wire for FactorStats {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.n as u64);
        w.put_u64(self.leaf_level as u64);
        w.put_u64(self.ranks.len() as u64);
        for (&level, &(count, sum)) in &self.ranks {
            w.put_u64(level as u64);
            w.put_u64(count as u64);
            w.put_u64(sum as u64);
        }
        w.put_f64(self.eliminate_s);
        w.put_f64(self.merge_s);
        w.put_f64(self.top_s);
        w.put_f64(self.total_s);
        w.put_u64(self.top_size as u64);
        w.put_u64(self.record_bytes as u64);
        w.put_u64(self.peak_store_bytes as u64);
        self.compression.encode(w);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let n = r.try_get_u64()? as usize;
        let leaf_level = r.try_get_u64()? as u8;
        let at = r.position();
        let n_levels = r.try_get_u64()?;
        if n_levels > 256 {
            // Levels are u8, so more than 256 entries is corruption.
            return Err(CodecError::Invalid {
                what: "FactorStats level count",
                at,
            });
        }
        let mut stats = FactorStats::new(n, leaf_level);
        for _ in 0..n_levels {
            let level = r.try_get_u64()? as u8;
            let count = r.try_get_u64()? as usize;
            let sum = r.try_get_u64()? as usize;
            stats.ranks.insert(level, (count, sum));
        }
        stats.eliminate_s = r.try_get_f64()?;
        stats.merge_s = r.try_get_f64()?;
        stats.top_s = r.try_get_f64()?;
        stats.total_s = r.try_get_f64()?;
        stats.top_size = r.try_get_u64()? as usize;
        stats.record_bytes = r.try_get_u64()? as usize;
        stats.peak_store_bytes = r.try_get_u64()? as usize;
        stats.compression = CompressionTelemetry::decode(r)?;
        Ok(stats)
    }
}

/// A form tag (0 = general LU, 1 = packed `L D Lᵀ`, all of its block
/// columns or a range of them) ahead of the factors. Either form's
/// decoder pins every block to the shape its position needs — and the
/// LU's pivots to its dimension and to their own rows
/// (`Lu::is_well_formed`) — so a solve cannot index out of bounds on a
/// frame that passed the CRC.
impl<T: Scalar> Wire for TopFactor<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            TopFactor::General(lu) => {
                w.put_u64(0);
                lu.encode(w);
            }
            TopFactor::Symmetric(ldlt) => {
                w.put_u64(1);
                ldlt.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let at = r.position();
        match r.try_get_u64()? {
            0 => Ok(TopFactor::General(Wire::decode(r)?)),
            1 => Ok(TopFactor::Symmetric(Wire::decode(r)?)),
            _ => Err(CodecError::Invalid {
                what: "top factor form tag",
                at,
            }),
        }
    }
}

/// A rank's share of the top: index map, block columns, chain links.
/// The index map goes with the head of the chain and with nobody else,
/// and there it agrees with the factor's dimension; no owner links to
/// itself.
impl<T: Scalar> Wire for TopShare<T> {
    fn encode(&self, w: &mut ByteWriter) {
        put_ids(w, &self.idx);
        self.cols.encode(w);
        self.prev.encode(w);
        self.next.encode(w);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let at = r.position();
        let share = TopShare {
            idx: try_get_ids(r)?,
            cols: TopFactor::decode(r)?,
            prev: Wire::decode(r)?,
            next: Wire::decode(r)?,
        };
        let idx_len = match share.prev {
            None => share.cols.dim(),
            Some(_) => 0,
        };
        if share.idx.len() != idx_len || (share.prev.is_some() && share.prev == share.next) {
            return Err(CodecError::Invalid {
                what: "top share index map and chain links",
                at,
            });
        }
        Ok(share)
    }
}

/// The top goes out as the one-owner share it is: index map and whole
/// factor, no links.
impl<T: Scalar> Wire for Factorization<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.n as u64);
        self.records.encode(w);
        put_ids(w, &self.top_idx);
        self.top.encode(w);
        self.stats.encode(w);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let n = r.try_get_u64()? as usize;
        let records = Wire::decode(r)?;
        let top_idx = try_get_ids(r)?;
        let at = r.position();
        let top = TopFactor::decode(r)?;
        if top.dim() != top_idx.len() || !top.is_whole() {
            return Err(CodecError::Invalid {
                what: "top factor dimension vs index map",
                at,
            });
        }
        let stats = FactorStats::decode(r)?;
        Ok(Factorization::from_parts(n, records, top_idx, top, stats))
    }
}

// ---------------------------------------------------------------------------
// Checkpoint container
//
// A versioned, length- and CRC-checked on-disk envelope around a `Wire`
// payload. The 40-byte header is validated — magic, version, scalar tag,
// payload length, CRC-64 — *before* any decode allocation, so a
// truncated or bit-flipped snapshot is rejected from the header and
// checksum alone (`tests/wire_fuzz.rs` exercises this).
//
//   bytes  0..8   magic  b"SRSFCKP1"
//   bytes  8..16  container version (little-endian u64, `CKPT_VERSION`)
//   bytes 16..24  scalar tag (size_of::<T>: 8 = f64, 16 = c64; 0 = manifest)
//   bytes 24..32  payload length in bytes
//   bytes 32..40  CRC-64/XZ of the payload
//   bytes 40..    the Wire-encoded payload
// ---------------------------------------------------------------------------

/// Container magic: "SRSF" + "CKP" + format generation.
const CKPT_MAGIC: &[u8; 8] = b"SRSFCKP1";
/// Container version; bump on any layout change.
/// v2: `FactorStats` carries the four compression-telemetry counters.
/// v3: records carry a presence flag for `fs`/`fnb` (symmetric records
/// hold neither) and decode checks every block shape.
/// v4: the top block carries a form tag (general LU | packed `L D Lᵀ`).
/// v5: rank snapshots drop the per-record `(level, phase)` table (the
/// order key carries both).
/// v6: a packed `L D Lᵀ` carries the range of block columns held, and a
/// rank snapshot its share of the top (range and chain links).
/// v7: `FactorStats` carries three compression counters (the FFT-route
/// counter left the wire).
/// v8: a record's order key carries its wave index (16 bits) where it
/// carried a 2-bit colour sub-round.
/// v9: a record carries `X_RR^{-T}` where it carried the LU of `X_RR`
/// (and a general record its couplings unsolved), a packed `L D Lᵀ` block
/// column `D_k^{-T}` where it carried the LU of `D_k`, and `FactorStats`
/// no longer carries the always-zero `solve_s`.
/// v10: a record's schedule word carries its level alone (the colour
/// stamp is gone), and its order key's wave is `3·iy + ix`.
/// v11: a record drops its schedule word (the level is its box id's).
/// v12: a symmetric record carries `X_RR^{-1}` as one packed triangle
/// (length-prefixed, `|R|(|R|+1)/2` entries) after its form flag, which
/// now precedes the inverse in both forms; a packed `L D Lᵀ` block
/// column carries `D_k^{-1}` packed the same way.
/// v13: a record's `EN` (and a general record's `FN`) carries a width
/// flag, and a narrow one its `f32` parts as length-prefixed bytes.
const CKPT_VERSION: u64 = 13;
/// Header length in bytes.
const CKPT_HEADER: usize = 40;
/// Scalar tag of the scalar-independent manifest file.
const MANIFEST_TAG: u64 = 0;

/// Scalar tag stored in the container header: the element width
/// distinguishes the two supported scalars (`f64` = 8, `c64` = 16), so a
/// snapshot cannot be decoded as the wrong element type.
pub(crate) fn scalar_tag<T: Scalar>() -> u64 {
    std::mem::size_of::<T>() as u64
}

fn ckpt_err(path: &Path, reason: impl Into<String>) -> SrsfError {
    SrsfError::Checkpoint {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// Write `payload` to `path` inside the checkpoint container.
pub(crate) fn write_container(path: &Path, tag: u64, payload: &[u8]) -> Result<(), SrsfError> {
    let mut bytes = Vec::with_capacity(CKPT_HEADER + payload.len());
    bytes.extend_from_slice(CKPT_MAGIC);
    bytes.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&tag.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc64(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    std::fs::write(path, bytes).map_err(|e| ckpt_err(path, e.to_string()))
}

/// Read and validate a checkpoint container, returning the raw payload.
/// Every header field is checked against the file contents before the
/// payload leaves this function; a corrupted file never reaches a
/// decoder.
pub(crate) fn read_container(path: &Path, expected_tag: u64) -> Result<Vec<u8>, SrsfError> {
    let bytes = std::fs::read(path).map_err(|e| ckpt_err(path, e.to_string()))?;
    if bytes.len() < CKPT_HEADER {
        return Err(ckpt_err(
            path,
            format!("truncated header ({} bytes)", bytes.len()),
        ));
    }
    if &bytes[0..8] != CKPT_MAGIC {
        return Err(ckpt_err(path, "bad magic (not a checkpoint file)"));
    }
    let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap_or([0; 8]));
    let version = word(8);
    if version != CKPT_VERSION {
        return Err(ckpt_err(
            path,
            format!("unsupported container version {version} (expected {CKPT_VERSION})"),
        ));
    }
    let tag = word(16);
    if tag != expected_tag {
        return Err(ckpt_err(
            path,
            format!("scalar tag {tag} does not match expected {expected_tag}"),
        ));
    }
    let len = word(24) as usize;
    if bytes.len() - CKPT_HEADER != len {
        return Err(ckpt_err(
            path,
            format!(
                "payload length {} does not match header ({len})",
                bytes.len() - CKPT_HEADER
            ),
        ));
    }
    let crc = word(32);
    let actual = crc64(&bytes[CKPT_HEADER..]);
    if crc != actual {
        return Err(ckpt_err(
            path,
            format!("CRC mismatch (header {crc:#018x}, payload {actual:#018x})"),
        ));
    }
    Ok(bytes[CKPT_HEADER..].to_vec())
}

impl<T: Scalar> Factorization<T> {
    /// Save this factorization to `path` inside the versioned,
    /// CRC-checked checkpoint container.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SrsfError> {
        write_container(path.as_ref(), scalar_tag::<T>(), &self.to_bytes())
    }

    /// Load a factorization saved with [`Factorization::save`]. The
    /// container header and checksum are validated before any decode
    /// allocation, so truncation or bit corruption is rejected cheaply.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SrsfError> {
        let path = path.as_ref();
        let payload = read_container(path, scalar_tag::<T>())?;
        Self::from_bytes(payload).map_err(|e| ckpt_err(path, e.to_string()))
    }
}

/// FNV-1a over the bit patterns of the point coordinates: a cheap,
/// deterministic fingerprint tying a checkpoint directory to the geometry
/// it was factored over. Restore refuses a point set whose hash differs.
pub(crate) fn geometry_hash(pts: &[Point]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in pts {
        for v in [p.x, p.y] {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The checkpoint directory's run description, written by rank 0 as
/// `manifest.ckpt`: everything restore needs to rebuild the tree and the
/// rank world, plus the geometry fingerprint it must match.
pub(crate) struct CkptManifest {
    pub(crate) p: usize,
    pub(crate) n: usize,
    pub(crate) leaf_size: usize,
    pub(crate) min_compress_level: usize,
    /// Scalar tag of the per-rank snapshots (see [`scalar_tag`]).
    pub(crate) scalar: u64,
    pub(crate) geom_hash: u64,
}

impl Wire for CkptManifest {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.p as u64);
        w.put_u64(self.n as u64);
        w.put_u64(self.leaf_size as u64);
        w.put_u64(self.min_compress_level as u64);
        w.put_u64(self.scalar);
        w.put_u64(self.geom_hash);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(CkptManifest {
            p: r.try_get_u64()? as usize,
            n: r.try_get_u64()? as usize,
            leaf_size: r.try_get_u64()? as usize,
            min_compress_level: r.try_get_u64()? as usize,
            scalar: r.try_get_u64()?,
            geom_hash: r.try_get_u64()?,
        })
    }
}

/// Write the manifest for a checkpointed run into `dir/manifest.ckpt`.
pub(crate) fn write_manifest(dir: &Path, m: &CkptManifest) -> Result<(), SrsfError> {
    write_container(&dir.join("manifest.ckpt"), MANIFEST_TAG, &m.to_bytes())
}

/// Read and validate `dir/manifest.ckpt`.
pub(crate) fn read_manifest(dir: &Path) -> Result<CkptManifest, SrsfError> {
    let path = dir.join("manifest.ckpt");
    let payload = read_container(&path, MANIFEST_TAG)?;
    CkptManifest::from_bytes(payload).map_err(|e| ckpt_err(&path, e.to_string()))
}

/// Per-rank snapshot file name within a checkpoint directory.
pub(crate) fn rank_ckpt_name(rank: usize) -> String {
    format!("rank_{rank}.ckpt")
}

/// Encode what one rank serves from — its [`RankState`] plus its share
/// of the dense top factorization, if it holds one — as a snapshot
/// payload. HashMaps go out key-sorted so the bytes (and hence the
/// container CRC) are deterministic.
pub(crate) fn encode_rank_snapshot<T: Scalar>(state: &RankState<T>, top: &RankTop<T>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(state.records.len() as u64);
    for (key, rec) in &state.records {
        w.put_u64(*key);
        rec.encode(&mut w);
    }
    let mut act: Vec<_> = state.act_end.iter().collect();
    act.sort_by_key(|(level, _)| **level);
    w.put_u64(act.len() as u64);
    for (level, entries) in act {
        w.put_u64(*level as u64);
        w.put_u64(entries.len() as u64);
        for (b, ids) in entries {
            put_box(&mut w, b);
            put_ids(&mut w, ids);
        }
    }
    let mut folds: Vec<_> = state.fold_ids.iter().collect();
    folds.sort_by_key(|((level, member), _)| (*level, *member));
    w.put_u64(folds.len() as u64);
    for ((level, member), ids) in folds {
        w.put_u64(*level as u64);
        w.put_u64(*member as u64);
        put_ids(&mut w, ids);
    }
    state.stats.encode(&mut w);
    top.encode(&mut w);
    w.finish()
}

/// Decode a rank snapshot produced by [`encode_rank_snapshot`]. Total:
/// every read is bounds-checked, so even a payload that passed the CRC
/// (e.g. crafted rather than corrupted) cannot panic the decoder.
#[allow(clippy::type_complexity)]
pub(crate) fn decode_rank_snapshot<T: Scalar>(
    r: &mut ByteReader,
) -> Result<(RankState<T>, RankTop<T>), CodecError> {
    let n_records = r.try_get_u64()? as usize;
    let mut records = Vec::new();
    for _ in 0..n_records {
        let key = r.try_get_u64()?;
        records.push((key, BoxElimination::decode(r)?));
    }
    let n_levels = r.try_get_u64()? as usize;
    let mut act_end = HashMap::new();
    for _ in 0..n_levels {
        let level = r.try_get_u64()? as u8;
        let n_entries = r.try_get_u64()? as usize;
        let mut entries = Vec::new();
        for _ in 0..n_entries {
            let b = try_get_box(r)?;
            entries.push((b, try_get_ids(r)?));
        }
        act_end.insert(level, entries);
    }
    let n_folds = r.try_get_u64()? as usize;
    let mut fold_ids = HashMap::new();
    for _ in 0..n_folds {
        let level = r.try_get_u64()? as u8;
        let member = r.try_get_u64()? as usize;
        fold_ids.insert((level, member), try_get_ids(r)?);
    }
    let stats = FactorStats::decode(r)?;
    let top = Option::<TopShare<T>>::decode(r)?;
    Ok((
        RankState {
            records,
            act_end,
            fold_ids,
            stats,
        },
        top,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use srsf_linalg::{c64, Lu};

    fn sample_record<T: Scalar>(v: T) -> BoxElimination<T> {
        BoxElimination {
            box_id: BoxId {
                level: 3,
                ix: 5,
                iy: 6,
            },
            redundant: vec![1, 2],
            skel: vec![3],
            nbr: vec![4, 5, 6],
            t: Mat::from_fn(1, 2, |_, _| v),
            es: Mat::from_fn(1, 2, |_, _| v),
            en: Coupling::new(Mat::from_fn(3, 2, |_, _| v), false),
            form: RecordForm::General {
                inv_t: Mat::from_fn(2, 2, |i, j| if i == j { v.recip() } else { T::ZERO }),
                fs: Mat::from_fn(2, 1, |_, _| v),
                fnb: Coupling::new(Mat::from_fn(2, 3, |_, _| v), true),
            },
        }
    }

    #[test]
    fn record_round_trip_real_and_complex() {
        let rec = sample_record(1.5f64);
        let back = BoxElimination::<f64>::from_bytes(rec.to_bytes()).unwrap();
        assert_eq!(back.box_id, rec.box_id);
        assert_eq!(back.box_id.level, 3);
        assert_eq!(back.nbr, rec.nbr);
        assert_eq!(back.en, rec.en);
        let rec = sample_record(c64::new(0.5, -2.0));
        let back = BoxElimination::<c64>::from_bytes(rec.to_bytes()).unwrap();
        assert_eq!(back.form, rec.form);
    }

    #[test]
    fn truncated_record_is_an_error() {
        let rec = sample_record(1.0f64);
        let bytes = rec.to_bytes();
        for cut in [0, 8, 17, bytes.len() / 2, bytes.len() - 1] {
            let mut short = bytes.clone();
            short.truncate(cut);
            assert!(
                BoxElimination::<f64>::from_bytes(short).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn factor_error_round_trip() {
        for e in [
            FactorError::SingularDiagonal {
                box_id: BoxId {
                    level: 2,
                    ix: 1,
                    iy: 3,
                },
            },
            FactorError::SingularTop { size: 40, step: 7 },
        ] {
            let back = FactorError::from_bytes(e.to_bytes()).unwrap();
            assert_eq!(format!("{back}"), format!("{e}"));
        }
    }

    /// A rank snapshot carries the rank's share of the top — block-column
    /// range and chain links — and a share whose index map or links
    /// cannot be a chain's fails to decode.
    #[test]
    fn rank_snapshot_carries_the_top_share() {
        use srsf_linalg::ldlt::NB;
        let n = NB + 3;
        let inv = |d: usize| {
            let m = Mat::from_fn(d, d, |i, j| if i == j { 0.5 } else { 0.0625 });
            srsf_linalg::SymMat::from_lower(&m)
        };
        let lu = |d: usize| Lu {
            lu: Mat::from_fn(d, d, |i, j| if i == j { 2.0 } else { 0.25 }),
            piv: (0..d).collect(),
        };
        let mut head = srsf_linalg::Ldlt::from_parts(
            n,
            vec![inv(NB), inv(3)],
            vec![Mat::from_fn(3, NB, |i, j| (i + j) as f64), Mat::zeros(0, 3)],
        )
        .expect("consistent shapes");
        let tail = head.split_off(1);
        let shares = [
            TopShare {
                idx: (0..n as u32).collect(),
                cols: TopFactor::Symmetric(head),
                prev: None,
                next: Some(2),
            },
            TopShare {
                idx: Vec::new(),
                cols: TopFactor::Symmetric(tail),
                prev: Some(0),
                next: None,
            },
        ];
        for share in shares {
            let state = RankState::<f64> {
                records: vec![(7, sample_record(1.5))],
                act_end: HashMap::new(),
                fold_ids: HashMap::new(),
                stats: FactorStats::new(9, 2),
            };
            let want = share.to_bytes();
            let bytes = encode_rank_snapshot(&state, &Some(share));
            let (back, top) =
                decode_rank_snapshot::<f64>(&mut ByteReader::new(bytes)).expect("decode");
            assert_eq!(back.records.len(), 1);
            assert_eq!(top.expect("share").to_bytes(), want);
        }
        let bend = |f: &dyn Fn(&mut TopShare<f64>)| {
            let mut share = TopShare {
                idx: Vec::new(),
                cols: TopFactor::General(lu(3)),
                prev: Some(1),
                next: Some(2),
            };
            f(&mut share);
            TopShare::<f64>::from_bytes(share.to_bytes())
        };
        assert!(bend(&|_| ()).is_ok());
        assert!(
            bend(&|s| s.idx = vec![0, 1, 2]).is_err(),
            "index map off the head"
        );
        assert!(
            bend(&|s| s.prev = None).is_err(),
            "head without its index map"
        );
        assert!(bend(&|s| s.next = Some(1)).is_err(), "a two-rank loop");
    }

    #[test]
    fn factorization_round_trip() {
        let stats = {
            let mut s = FactorStats::new(9, 2);
            s.add_rank(2, 4);
            s.add_rank(2, 6);
            s.total_s = 1.25;
            s
        };
        let f = Factorization::from_parts(
            9,
            vec![sample_record(2.0f64)],
            vec![0, 4, 8],
            TopFactor::General(Lu {
                lu: Mat::from_fn(3, 3, |i, j| (i + 2 * j) as f64 + 1.0),
                piv: vec![0, 2, 2],
            }),
            stats,
        );
        let back = Factorization::<f64>::from_bytes(f.to_bytes()).unwrap();
        assert_eq!(back.n(), 9);
        assert_eq!(back.n_records(), 1);
        assert_eq!(back.top_size(), 3);
        assert_eq!(back.stats().avg_rank(2), Some(5.0));
        // Same solve behavior bit for bit.
        let b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        assert_eq!(f.solve(&b), back.solve(&b));
    }
}
