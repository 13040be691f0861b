//! Fuzz + property tests for the factorization [`Wire`] encodings in
//! `srsf_core::wire` — the frames that cross a process boundary on the
//! TCP transport (serve-loop reports and gather replies) and the
//! checkpoint files on disk.
//!
//! Mirrors `crates/runtime/tests/codec_fuzz.rs`: every decoder must be
//! *total* over adversarial bytes (random streams, truncations,
//! bit flips) — returning `CodecError` rather than panicking or sizing
//! an allocation from a corrupt length — and decode must invert encode.
//! Miri-compatible; iteration counts shrink under the interpreter.

use srsf_core::elimination::{BoxElimination, FactorError, RecordForm};
use srsf_core::sequential::Factorization;
use srsf_core::{Driver, FactorOpts, FactorStats, Solver, TopFactor, Transport};
use srsf_geometry::grid::UnitGrid;
use srsf_geometry::tree::BoxId;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::kernel::Kernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::ldlt::NB;
use srsf_linalg::{c64, Coupling, Ldlt, Lu, Mat, Scalar, SymMat};
use srsf_runtime::codec::{ByteReader, ByteWriter, CodecError, Wire};
use srsf_runtime::{Histogram, Span, TraceReport};
use std::panic::{catch_unwind, AssertUnwindSafe};

mod common;
use common::HideSymmetry;

const fn iters(full: usize, miri: usize) -> usize {
    if cfg!(miri) {
        miri
    } else {
        full
    }
}

/// xorshift64* — same tiny PRNG as the runtime codec fuzz suite.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    /// Pivots a partially pivoted LU of dimension `n` can produce: entry
    /// `k` in `k..n`.
    fn pivots(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|k| k + self.below(n - k)).collect()
    }
    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
    fn finite_f64(&mut self) -> f64 {
        f64::from_bits(self.next() & 0x7FEF_FFFF_FFFF_FFFF) // clear sign+inf/nan space
    }
}

fn decode_total<T: Wire>(name: &str, bytes: &[u8]) -> Result<T, CodecError> {
    let owned = bytes.to_vec();
    catch_unwind(AssertUnwindSafe(move || {
        T::decode(&mut ByteReader::new(owned))
    }))
    .unwrap_or_else(|_| {
        panic!(
            "decoding {name} panicked instead of returning CodecError; payload = {:02x?}",
            bytes
        )
    })
}

/// Totality sweep: random streams, then strict prefixes and bit flips of
/// the valid encodings produced by `sample`.
fn fuzz_type<T: Wire>(name: &str, seed: u64, mut sample: impl FnMut(&mut Rng) -> Vec<u8>) {
    let mut rng = Rng::new(seed);
    for _ in 0..iters(1500, 16) {
        let len = rng.below(129);
        let payload = rng.bytes(len);
        let _ = decode_total::<T>(name, &payload);
    }
    for _ in 0..iters(32, 3) {
        let valid = sample(&mut rng);
        let step = if cfg!(miri) { 16 } else { 1 };
        for cut in (0..valid.len()).step_by(step) {
            let _ = decode_total::<T>(name, &valid[..cut]);
        }
        if !valid.is_empty() {
            for _ in 0..iters(24, 2) {
                let mut bent = valid.clone();
                let at = rng.below(bent.len());
                bent[at] ^= 1 << rng.below(8);
                let _ = decode_total::<T>(name, &bent);
            }
        }
    }
}

/// Round trip via bytes: `encode(decode(valid)) == valid`. This works
/// even for types whose fields are crate-private (e.g.
/// [`Factorization`]), because the valid frame is hand-assembled from
/// the documented wire layout rather than from a constructed value.
fn byte_round_trip<T: Wire>(name: &str, seed: u64, mut sample: impl FnMut(&mut Rng) -> Vec<u8>) {
    let mut rng = Rng::new(seed);
    for _ in 0..iters(64, 4) {
        let valid = sample(&mut rng);
        let x = T::from_bytes(valid.clone())
            .unwrap_or_else(|e| panic!("{name}: valid frame failed to decode: {e}"));
        assert_eq!(
            x.to_bytes(),
            valid,
            "{name}: re-encoding a decoded frame changed the bytes"
        );
    }
}

// ---- frame generators (documented wire layout) -------------------------

fn gen_box_id(rng: &mut Rng) -> BoxId {
    BoxId {
        level: rng.below(12) as u8,
        ix: rng.below(1 << 12) as u32,
        iy: rng.below(1 << 12) as u32,
    }
}

/// A shape-consistent record in either form: `symmetric` drops the right
/// couplings, as a symmetric kernel's factorization does. The stream
/// picks the couplings' width, as a factorization's tolerance does.
fn gen_record_form<T: Scalar>(
    rng: &mut Rng,
    v: impl Fn(&mut Rng) -> T,
    symmetric: bool,
) -> BoxElimination<T> {
    let nr = rng.below(4);
    let ns = rng.below(4);
    let nn = rng.below(5);
    let narrow = rng.next() & 1 == 0;
    let mat = |rng: &mut Rng, m: usize, n: usize| {
        let vals: Vec<T> = (0..m * n).map(|_| v(rng)).collect();
        Mat::from_vec(m, n, vals)
    };
    let t = mat(rng, ns, nr);
    let inv = mat(rng, nr, nr);
    BoxElimination {
        box_id: gen_box_id(rng),
        redundant: (0..nr).map(|_| rng.next() as u32).collect(),
        skel: (0..ns).map(|_| rng.next() as u32).collect(),
        nbr: (0..nn).map(|_| rng.next() as u32).collect(),
        es: mat(rng, ns, nr),
        en: Coupling::new(mat(rng, nn, nr), narrow),
        form: if symmetric {
            RecordForm::Symmetric {
                inv: SymMat::from_lower(&inv),
            }
        } else {
            RecordForm::General {
                inv_t: inv,
                fs: mat(rng, nr, ns),
                fnb: Coupling::new(mat(rng, nr, nn), narrow),
            }
        },
        t,
    }
}

/// Either record form, picked by the stream.
fn gen_record<T: Scalar>(rng: &mut Rng, v: impl Fn(&mut Rng) -> T) -> BoxElimination<T> {
    let symmetric = rng.next() & 1 == 0;
    gen_record_form(rng, v, symmetric)
}

fn gen_stats(rng: &mut Rng) -> FactorStats {
    let mut s = FactorStats::new(rng.below(1 << 20), rng.below(12) as u8);
    for _ in 0..rng.below(5) {
        s.ranks
            .insert(rng.below(12) as u8, (rng.below(100), rng.below(10_000)));
    }
    s.eliminate_s = rng.finite_f64();
    s.merge_s = rng.finite_f64();
    s.top_s = rng.finite_f64();
    s.total_s = rng.finite_f64();
    s.top_size = rng.below(1 << 16);
    s.record_bytes = rng.below(1 << 30);
    s.peak_store_bytes = rng.below(1 << 30);
    s.compression.sketch_retries = rng.below(1 << 10) as u64;
    s.compression.sketch_fallbacks = rng.below(1 << 10) as u64;
    s.compression.dense_block_applies = rng.below(1 << 20) as u64;
    s
}

fn gen_error(rng: &mut Rng) -> FactorError {
    match rng.below(3) {
        0 => FactorError::SingularDiagonal {
            box_id: gen_box_id(rng),
        },
        1 => FactorError::SingularTop {
            size: rng.below(1 << 16),
            step: rng.below(1 << 16),
        },
        _ => FactorError::RankFailed {
            rank: rng.below(1 << 8),
            step: format!("malformed frame {}", rng.below(1 << 16)),
        },
    }
}

fn gen_span(rng: &mut Rng) -> Span {
    let name: String = (0..rng.below(12))
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect();
    Span {
        cat: rng.below(5) as u8,
        name,
        tid: rng.next() as u32,
        start_ns: rng.next(),
        dur_ns: rng.next(),
        bytes: rng.next(),
    }
}

fn gen_trace_report(rng: &mut Rng) -> TraceReport {
    TraceReport {
        rank: rng.next() as u32,
        dropped: rng.next(),
        spans: (0..rng.below(4)).map(|_| gen_span(rng)).collect(),
    }
}

fn gen_histogram(rng: &mut Rng) -> Histogram {
    let mut h = Histogram::new();
    for _ in 0..rng.below(16) {
        h.record(rng.next() >> rng.below(64));
    }
    h
}

/// A shape-consistent packed `L D Lᵀ` of dimension `n`: one (diagonal
/// block inverse, sub-diagonal panel) pair per `NB`-wide block column.
fn gen_ldlt<T: Scalar>(rng: &mut Rng, n: usize, v: impl Fn(&mut Rng) -> T) -> Ldlt<T> {
    let mat = |rng: &mut Rng, m: usize, n: usize| {
        let vals: Vec<T> = (0..m * n).map(|_| v(rng)).collect();
        Mat::from_vec(m, n, vals)
    };
    let (mut diag, mut sub) = (Vec::new(), Vec::new());
    for k0 in (0..n).step_by(NB) {
        let nb = NB.min(n - k0);
        diag.push(SymMat::from_lower(&mat(rng, nb, nb)));
        sub.push(mat(rng, n - k0 - nb, nb));
    }
    Ldlt::from_parts(n, diag, sub).expect("consistent shapes")
}

/// Hand-assemble a valid `Factorization<f64>` frame from the documented
/// layout: `n, Vec<BoxElimination>, top ids, top form tag, top factors
/// (Lu | Ldlt), FactorStats` — either top form, picked by the stream.
fn gen_factorization_frame(rng: &mut Rng) -> Vec<u8> {
    let symmetric_top = rng.next() & 1 == 0;
    gen_factorization_frame_form(rng, symmetric_top)
}

fn gen_factorization_frame_form(rng: &mut Rng, symmetric_top: bool) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(rng.below(1 << 20) as u64);
    let records: Vec<BoxElimination<f64>> = (0..rng.below(3))
        .map(|_| gen_record(rng, Rng::finite_f64))
        .collect();
    records.encode(&mut w);
    let top_n = rng.below(4);
    w.put_u64(top_n as u64);
    for _ in 0..top_n {
        w.put_u64(rng.next() & 0xFFFF_FFFF);
    }
    if symmetric_top {
        w.put_u64(1);
        gen_ldlt(rng, top_n, Rng::finite_f64).encode(&mut w);
    } else {
        w.put_u64(0);
        let top_lu = Lu::<f64> {
            lu: Mat::from_vec(
                top_n,
                top_n,
                (0..top_n * top_n).map(|i| i as f64 + 1.0).collect(),
            ),
            piv: (0..top_n).collect(),
        };
        top_lu.encode(&mut w);
    }
    gen_stats(rng).encode(&mut w);
    w.finish()
}

// ---- totality ----------------------------------------------------------

#[test]
fn factor_error_decode_is_total() {
    fuzz_type::<FactorError>("FactorError", 72, |r| gen_error(r).to_bytes());
}

#[test]
fn record_decode_is_total() {
    fuzz_type::<BoxElimination<f64>>("BoxElimination<f64>", 73, |r| {
        gen_record(r, Rng::finite_f64).to_bytes()
    });
    fuzz_type::<BoxElimination<c64>>("BoxElimination<c64>", 74, |r| {
        gen_record(r, |r| c64::new(r.finite_f64(), r.finite_f64())).to_bytes()
    });
}

#[test]
fn stats_decode_is_total() {
    fuzz_type::<FactorStats>("FactorStats", 75, |r| gen_stats(r).to_bytes());
}

#[test]
fn factorization_decode_is_total() {
    fuzz_type::<Factorization<f64>>("Factorization<f64>", 76, gen_factorization_frame);
}

#[test]
fn ldlt_decode_is_total() {
    fuzz_type::<Ldlt<f64>>("Ldlt<f64>", 96, |r| {
        let n = r.below(6);
        gen_ldlt(r, n, Rng::finite_f64).to_bytes()
    });
    fuzz_type::<Ldlt<c64>>("Ldlt<c64>", 97, |r| {
        let n = r.below(5);
        gen_ldlt(r, n, |r| c64::new(r.finite_f64(), r.finite_f64())).to_bytes()
    });
    // Both form tags of the top factor.
    fuzz_type::<TopFactor<f64>>("TopFactor<f64>", 100, |r| {
        let n = r.below(5);
        if r.next() & 1 == 0 {
            TopFactor::Symmetric(gen_ldlt(r, n, Rng::finite_f64)).to_bytes()
        } else {
            let lu = Lu {
                lu: Mat::from_vec(n, n, (0..n * n).map(|_| r.finite_f64()).collect()),
                piv: r.pivots(n),
            };
            TopFactor::General(lu).to_bytes()
        }
    });
}

/// A worker's serve-loop report is `Result<payload, FactorError>`; the
/// inner error path must stay total too when nested in the generic
/// containers.
#[test]
fn nested_result_frames_are_total() {
    fuzz_type::<Result<Vec<f64>, FactorError>>("Result<Vec<f64>,FactorError>", 77, |r| {
        let v: Result<Vec<f64>, FactorError> = if r.next() & 1 == 0 {
            Ok((0..r.below(5)).map(|_| r.finite_f64()).collect())
        } else {
            Err(gen_error(r))
        };
        v.to_bytes()
    });
}

/// Trace reports cross the wire on worker result frames and on the
/// `KIND_TRACE` serve round; histograms cross inside metrics snapshots.
/// Both decoders narrow u64 fields (rank, tid, category, bucket count)
/// and must reject out-of-range values rather than truncate or panic.
#[test]
fn trace_report_decode_is_total() {
    fuzz_type::<Span>("Span", 78, |r| gen_span(r).to_bytes());
    fuzz_type::<TraceReport>("TraceReport", 79, |r| gen_trace_report(r).to_bytes());
    fuzz_type::<Histogram>("Histogram", 80, |r| gen_histogram(r).to_bytes());
}

// ---- round trips -------------------------------------------------------

#[test]
fn factor_error_round_trip() {
    let mut rng = Rng::new(81);
    for _ in 0..iters(256, 8) {
        let e = gen_error(&mut rng);
        let back = FactorError::from_bytes(e.to_bytes()).expect("decode");
        match (&e, &back) {
            (
                FactorError::SingularDiagonal { box_id: a },
                FactorError::SingularDiagonal { box_id: b },
            ) => assert_eq!(a, b),
            (
                FactorError::SingularTop { size: s1, step: t1 },
                FactorError::SingularTop { size: s2, step: t2 },
            ) => assert_eq!((s1, t1), (s2, t2)),
            (
                FactorError::RankFailed { rank: r1, step: t1 },
                FactorError::RankFailed { rank: r2, step: t2 },
            ) => assert_eq!((r1, t1), (r2, t2)),
            _ => panic!("variant changed across the wire"),
        }
    }
}

#[test]
fn record_round_trip_bytes() {
    byte_round_trip::<BoxElimination<f64>>("BoxElimination<f64>", 82, |r| {
        gen_record(r, Rng::finite_f64).to_bytes()
    });
    byte_round_trip::<BoxElimination<c64>>("BoxElimination<c64>", 83, |r| {
        gen_record(r, |r| c64::new(r.finite_f64(), r.finite_f64())).to_bytes()
    });
}

/// Both record forms survive the wire by value, for real and complex
/// entries alike: a symmetric record comes back with its packed inverse
/// and no right couplings, a general one with `X_RR^{-T}`, `fs` and
/// `fnb` intact.
fn record_forms_round_trip<T: Scalar>(seed: u64, v: impl Fn(&mut Rng) -> T + Copy) {
    let mut rng = Rng::new(seed);
    for i in 0..iters(128, 8) {
        let symmetric = i % 2 == 0;
        let rec = gen_record_form(&mut rng, v, symmetric);
        let back = BoxElimination::<T>::from_bytes(rec.to_bytes()).expect("decode");
        assert_eq!(back.is_symmetric(), symmetric);
        assert_eq!(back.form, rec.form);
        assert_eq!((&back.t, &back.es, &back.en), (&rec.t, &rec.es, &rec.en));
        assert_eq!(back.heap_bytes(), rec.heap_bytes());
        assert_eq!(
            (&back.redundant, &back.skel, &back.nbr),
            (&rec.redundant, &rec.skel, &rec.nbr)
        );
    }
}

#[test]
fn record_forms_round_trip_by_value() {
    record_forms_round_trip::<f64>(93, Rng::finite_f64);
    record_forms_round_trip::<c64>(94, |r| c64::new(r.finite_f64(), r.finite_f64()));
}

fn expect_invalid(bytes: Vec<u8>, what: &str) {
    match decode_total::<BoxElimination<f64>>("BoxElimination<f64>", &bytes) {
        Err(CodecError::Invalid { .. }) => {}
        Err(e) => panic!("{what}: expected CodecError::Invalid, got {e}"),
        Ok(_) => panic!("{what}: inconsistent record decoded successfully"),
    }
}

/// A form flag other than 0/1 is rejected, and so is a symmetric
/// frame relabelled as general (its `fs`/`fnb` payload is missing).
#[test]
fn record_bad_presence_flag_is_codec_error() {
    let mut rng = Rng::new(94);
    for _ in 0..iters(32, 4) {
        // A symmetric record ends with its flag word and the packed
        // inverse: a length word and `|R|(|R|+1)/2` entries.
        let rec = gen_record_form(&mut rng, Rng::finite_f64, true);
        let bytes = rec.to_bytes();
        let nr = rec.redundant.len();
        let flag_at = bytes.len() - 16 - 8 * nr * (nr + 1) / 2;
        assert_eq!(bytes[flag_at..flag_at + 8], 0u64.to_le_bytes());
        for flag in [2u64, 7, 1 << 32, u64::MAX] {
            let mut bent = bytes.clone();
            bent[flag_at..flag_at + 8].copy_from_slice(&flag.to_le_bytes());
            expect_invalid(bent, &format!("presence flag {flag}"));
        }
        let mut bent = bytes.clone();
        bent[flag_at..flag_at + 8].copy_from_slice(&1u64.to_le_bytes());
        assert!(
            decode_total::<BoxElimination<f64>>("BoxElimination<f64>", &bent).is_err(),
            "flag 1 with no fs/fnb payload must not decode"
        );
    }
}

/// Every block's shape is pinned to `(|R|, |S|, |N|)`: a frame that is
/// well-formed field by field but inconsistent as a record (it would
/// panic the solve sweep's GEMMs) fails to decode.
#[test]
fn record_inconsistent_shape_is_codec_error() {
    let mut rng = Rng::new(95);
    let grow = |m: &Mat<f64>| Mat::<f64>::zeros(m.nrows() + 1, m.ncols());
    let widen = |m: &Mat<f64>| Mat::<f64>::zeros(m.nrows(), m.ncols() + 1);
    let widen_coupling =
        |m: &Coupling<f64>| Coupling::new(Mat::zeros(m.nrows(), m.ncols() + 1), m.is_narrow());
    for i in 0..iters(32, 4) {
        let good = gen_record_form(&mut rng, Rng::finite_f64, i % 2 == 0);
        BoxElimination::<f64>::from_bytes(good.to_bytes()).expect("consistent record decodes");
        let mut cases: Vec<(&str, BoxElimination<f64>)> = Vec::new();
        let mut bend = |what: &'static str, f: &dyn Fn(&mut BoxElimination<f64>)| {
            let mut r = good.clone();
            f(&mut r);
            cases.push((what, r));
        };
        bend("t rows", &|r| r.t = grow(&r.t));
        bend("t cols", &|r| r.t = widen(&r.t));
        bend("es rows", &|r| r.es = grow(&r.es));
        bend("en cols", &|r| r.en = widen_coupling(&r.en));
        bend("redundant list", &|r| r.redundant.push(1));
        bend("skel list", &|r| r.skel.push(1));
        bend("nbr list", &|r| r.nbr.push(1));
        let general = |f: fn(&mut Mat<f64>, &mut Mat<f64>, &mut Coupling<f64>)| {
            move |r: &mut BoxElimination<f64>| {
                if let RecordForm::General { inv_t, fs, fnb } = &mut r.form {
                    f(inv_t, fs, fnb);
                }
            }
        };
        if !good.is_symmetric() {
            bend(
                "inv_t rows",
                &general(|m, _, _| *m = Mat::zeros(m.nrows() + 1, m.ncols())),
            );
            bend(
                "inv_t cols",
                &general(|m, _, _| *m = Mat::zeros(m.nrows(), m.ncols() + 1)),
            );
            bend(
                "fs rows",
                &general(|_, m, _| *m = Mat::zeros(m.nrows() + 1, m.ncols())),
            );
            bend(
                "fnb cols",
                &general(|_, _, m| {
                    *m = Coupling::new(Mat::zeros(m.nrows(), m.ncols() + 1), m.is_narrow())
                }),
            );
        }
        for (what, rec) in cases {
            expect_invalid(rec.to_bytes(), what);
        }
        for (what, bytes) in coupling_bends(&good) {
            expect_invalid(bytes, &what);
        }
        if good.is_symmetric() {
            for (what, bytes) in packed_inverse_bends(&good) {
                expect_invalid(bytes, &what);
            }
        }
    }
}

/// A real record's frame with a coupling's width flag bent to a value
/// other than 0 and 1, and with a narrow coupling's payload length word
/// bent to other than `rows · cols · 4`: one part short or long, twice
/// the length (the width of a complex payload), a stray byte, zero, and
/// a length no frame could hold — each an `Invalid` before the reader
/// sizes anything from it. `EN` sits behind the box id, the three id
/// lists, `T` and `ES`; a general record's `FN` ends the frame.
fn coupling_bends(rec: &BoxElimination<f64>) -> Vec<(String, Vec<u8>)> {
    let bytes = rec.to_bytes();
    let (nr, ns, nn) = (rec.redundant.len(), rec.skel.len(), rec.nbr.len());
    let coupling_bytes = |m: &Coupling<f64>| {
        let entries = m.nrows() * m.ncols();
        24 + if m.is_narrow() {
            8 + 4 * entries
        } else {
            8 * entries
        }
    };
    let en_at = 8 + 3 * 8 + 8 * (nr + ns + nn) + 2 * (16 + 8 * ns * nr);
    let mut at = vec![("en", en_at, &rec.en)];
    if let RecordForm::General { fnb, .. } = &rec.form {
        at.push(("fnb", bytes.len() - coupling_bytes(fnb), fnb));
    }
    let word = |bytes: &[u8], at: usize, v: u64| {
        let mut bent = bytes.to_vec();
        bent[at..at + 8].copy_from_slice(&v.to_le_bytes());
        bent
    };
    let mut cases = Vec::new();
    for (name, at, m) in at {
        let flag = u64::from(m.is_narrow());
        assert_eq!(bytes[at..at + 8], flag.to_le_bytes(), "{name} flag");
        for bad in [2u64, 3, 1 << 32, u64::MAX] {
            cases.push((format!("{name} width flag {bad}"), word(&bytes, at, bad)));
        }
        if m.is_narrow() {
            let len = 4 * (m.nrows() * m.ncols()) as u64;
            assert_eq!(bytes[at + 24..at + 32], len.to_le_bytes(), "{name} length");
            let mut lens = vec![len + 4, 2 * len + 8, len + 1, u64::MAX];
            if len > 0 {
                lens.extend([len - 4, 2 * len, len - 1, 0]);
            }
            for bad in lens {
                let what = format!("{name} payload of {bad} bytes for {len}");
                cases.push((what, word(&bytes, at + 24, bad)));
            }
        }
    }
    cases
}

/// A symmetric record's frame with its packed inverse (the frame's
/// tail: a length word, then `|R|(|R|+1)/2` entries) bent to a length
/// that is not `|R|(|R|+1)/2`: one entry short or long with the length
/// word to match, the inverse of a record with one redundant point more
/// or fewer, and a length word that disagrees with the entries behind it.
fn packed_inverse_bends(rec: &BoxElimination<f64>) -> Vec<(String, Vec<u8>)> {
    let bytes = rec.to_bytes();
    let nr = rec.redundant.len();
    let len = nr * (nr + 1) / 2;
    let at = bytes.len() - 8 - 8 * len;
    assert_eq!(bytes[at..at + 8], (len as u64).to_le_bytes());
    let with = |new_len: usize, words: usize| {
        let mut bent = bytes[..at].to_vec();
        bent.extend_from_slice(&(new_len as u64).to_le_bytes());
        bent.extend((0..words).flat_map(|i| (0.5 + i as f64).to_le_bytes()));
        bent
    };
    let mut cases = vec![
        (
            format!("packed inverse one long ({nr})"),
            with(len + 1, len + 1),
        ),
        (
            format!("packed inverse of order {}", nr + 1),
            with(len + nr + 1, len + nr + 1),
        ),
        (
            format!("length word {} over {len} entries", len + 1),
            with(len + 1, len),
        ),
    ];
    if nr > 0 {
        cases.push((
            format!("packed inverse one short ({nr})"),
            with(len - 1, len - 1),
        ));
        cases.push((
            format!("packed inverse of order {}", nr - 1),
            with(len - nr, len - nr),
        ));
    }
    if nr > 1 {
        cases.push((
            format!("a full square of order {nr}"),
            with(nr * nr, nr * nr),
        ));
    }
    cases
}

/// The packed top factor survives the wire by value at one block column
/// and at several, and a frame whose blocks do not fit its dimension —
/// every field well-formed on its own — fails to decode instead of
/// panicking a later solve.
#[test]
fn ldlt_round_trip_and_shape_rejection() {
    let mut rng = Rng::new(98);
    for n in [0, 1, 5, NB, NB + 3, 2 * NB + 1] {
        let f = gen_ldlt(&mut rng, n, |r| c64::new(r.finite_f64(), r.finite_f64()));
        let bytes = f.to_bytes();
        let back = Ldlt::<c64>::from_bytes(bytes.clone()).expect("decode");
        assert_eq!(back.dim(), n);
        assert_eq!(back.sub_panels(), f.sub_panels());
        assert_eq!(back.diag_inverses(), f.diag_inverses());
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.heap_bytes(), f.heap_bytes(), "n={n}: decoded capacity");
    }
    // Same blocks under another dimension word: `NB + 3` and `NB + 4`
    // have the same block-column count, so only the shape check can tell.
    let mut bytes = gen_ldlt(&mut rng, NB + 3, Rng::finite_f64).to_bytes();
    bytes[..8].copy_from_slice(&((NB + 4) as u64).to_le_bytes());
    assert!(matches!(
        decode_total::<Ldlt<f64>>("Ldlt<f64>", &bytes),
        Err(CodecError::Invalid { .. })
    ));
    // A packed diagonal inverse whose length is not `nb (nb + 1) / 2`:
    // one entry short or long, of a block column one narrower or wider,
    // or the full square.
    let good = gen_ldlt(&mut rng, 4, Rng::finite_f64);
    for len in [9, 11, 6, 15, 16] {
        let mut w = ByteWriter::new();
        w.put_u64(4);
        w.put_u64(0);
        w.put_u64(1);
        w.put_u64_slice(&vec![0.5f64.to_bits(); len]);
        w.put_mat(&good.sub_panels()[0]);
        assert!(
            matches!(
                decode_total::<Ldlt<f64>>("Ldlt<f64>", &w.finish()),
                Err(CodecError::Invalid { .. })
            ),
            "packed inverse of {len} entries at order 4"
        );
    }
}

/// A range of the packed top's block columns — what a rank of the
/// resident world holds and its snapshot carries — survives the wire by
/// value, byte for byte; a truncated frame, a range outside the matrix's
/// block columns, panels of another column's height and a diagonal block of the
/// wrong shape all fail to decode.
#[test]
fn ldlt_column_range_round_trip_and_rejection() {
    let mut rng = Rng::new(101);
    let n = 3 * NB + 5; // four block columns
    let whole = gen_ldlt(&mut rng, n, Rng::finite_f64);
    for (from, to) in [(0, 4), (0, 1), (1, 3), (2, 4), (3, 4), (4, 4), (0, 0)] {
        let mut head = whole.clone();
        let _ = head.split_off(to);
        let range = head.split_off(from);
        assert_eq!(range.cols(), from..to);
        let bytes = range.to_bytes();
        let back = Ldlt::<f64>::from_bytes(bytes.clone()).expect("decode");
        assert_eq!((back.dim(), back.cols()), (n, from..to));
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.heap_bytes(), range.heap_bytes(), "decoded capacity");
        assert_eq!(back.is_whole(), (from, to) == (0, 4));
        for cut in (0..bytes.len()).step_by(if cfg!(miri) { 512 } else { 64 }) {
            assert!(decode_total::<Ldlt<f64>>("Ldlt range", &bytes[..cut]).is_err());
        }
    }
    // Words of the frame: dimension, first block column, count.
    let mut mid = whole.clone();
    let mid = mid.split_off(1);
    let frame = |first: u64, count: Option<u64>| {
        let mut bytes = mid.to_bytes();
        bytes[8..16].copy_from_slice(&first.to_le_bytes());
        if let Some(c) = count {
            bytes[16..24].copy_from_slice(&c.to_le_bytes());
        }
        bytes
    };
    let cases = [
        ("panels of the block column before", frame(0, None)),
        ("a range running past the last block column", frame(2, None)),
        ("a first column far outside", frame(u64::MAX - 1, None)),
        ("a count the frame cannot hold", frame(1, Some(1 << 40))),
    ];
    for (what, bytes) in cases {
        assert!(
            decode_total::<Ldlt<f64>>("Ldlt range", &bytes).is_err(),
            "{what} decoded"
        );
    }
    // A gathered factorization holds its top whole: a frame with a range
    // in that place — dimension and index map in agreement — is refused.
    let mut w = ByteWriter::new();
    w.put_u64(n as u64);
    Vec::<BoxElimination<f64>>::new().encode(&mut w);
    w.put_u64_slice(&vec![0; n]);
    TopFactor::Symmetric(mid.clone()).encode(&mut w);
    gen_stats(&mut rng).encode(&mut w);
    assert!(matches!(
        decode_total::<Factorization<f64>>("Factorization<f64>", &w.finish()),
        Err(CodecError::Invalid { .. })
    ));
    // The range's first diagonal inverse packed at one order less.
    let mut w = ByteWriter::new();
    for word in [n, 1, 1] {
        w.put_u64(word as u64);
    }
    w.put_u64_slice(&vec![0.5f64.to_bits(); NB * (NB - 1) / 2]);
    w.put_mat(&mid.sub_panels()[0]);
    assert!(matches!(
        decode_total::<Ldlt<f64>>("Ldlt range", &w.finish()),
        Err(CodecError::Invalid { .. })
    ));
}

/// Both top forms decode from their tag; any other tag, and a top whose
/// dimension disagrees with its index map, is a `CodecError`.
#[test]
fn top_factor_tags_round_trip_and_reject() {
    let mut rng = Rng::new(99);
    for i in 0..iters(64, 4) {
        let symmetric = i % 2 == 0;
        let frame = gen_factorization_frame_form(&mut rng, symmetric);
        let f = Factorization::<f64>::from_bytes(frame).expect("valid frame decodes");
        assert_eq!(matches!(f.top_factor(), TopFactor::Symmetric(_)), symmetric);
        // Locate the tag word: it follows `n`, the records and the
        // length-prefixed top ids.
        let bytes = f.to_bytes();
        let tag_at = {
            let mut r = ByteReader::new(bytes.clone());
            r.try_get_u64().unwrap();
            Vec::<BoxElimination<f64>>::decode(&mut r).unwrap();
            r.try_get_u64_slice().unwrap();
            r.position()
        };
        let expect = if symmetric { 1u64 } else { 0 };
        assert_eq!(bytes[tag_at..tag_at + 8], expect.to_le_bytes());
        for tag in [2u64, 1 << 40, u64::MAX] {
            let mut bent = bytes.clone();
            bent[tag_at..tag_at + 8].copy_from_slice(&tag.to_le_bytes());
            assert!(matches!(
                decode_total::<Factorization<f64>>("Factorization<f64>", &bent),
                Err(CodecError::Invalid { .. })
            ));
        }
        // One more top id than the factor has rows.
        let mut bent = bytes[..tag_at].to_vec();
        let len_at = tag_at - 8 * (f.top_size() + 1);
        bent[len_at..len_at + 8].copy_from_slice(&(f.top_size() as u64 + 1).to_le_bytes());
        bent.extend_from_slice(&0u64.to_le_bytes());
        bent.extend_from_slice(&bytes[tag_at..]);
        assert!(
            decode_total::<Factorization<f64>>("Factorization<f64>", &bent).is_err(),
            "top dimension vs index map"
        );
    }
    // A general top whose last pivot points above its own row: in range,
    // but a panel solve would swap columns it has already passed.
    let bent = TopFactor::General(Lu {
        lu: Mat::<f64>::identity(3),
        piv: vec![0, 1, 0],
    });
    assert!(matches!(
        decode_total::<TopFactor<f64>>("TopFactor<f64>", &bent.to_bytes()),
        Err(CodecError::Invalid { .. })
    ));
}

#[test]
fn stats_round_trip_bytes() {
    byte_round_trip::<FactorStats>("FactorStats", 84, |r| gen_stats(r).to_bytes());
}

/// `Factorization::decode` normalizes the derived stats fields
/// (`top_size`, `record_bytes`) from the actual payload via
/// `from_parts`, so raw byte equality only holds after one
/// decode/encode normalization pass: the round trip must be idempotent
/// from then on.
#[test]
fn factorization_round_trip_bytes() {
    let mut rng = Rng::new(85);
    for _ in 0..iters(64, 4) {
        let frame = gen_factorization_frame(&mut rng);
        let normalized = Factorization::<f64>::from_bytes(frame)
            .expect("valid frame decodes")
            .to_bytes();
        let again = Factorization::<f64>::from_bytes(normalized.clone())
            .expect("normalized frame decodes")
            .to_bytes();
        assert_eq!(
            again, normalized,
            "Factorization<f64>: decode/encode is not idempotent"
        );
    }
}

#[test]
fn trace_report_round_trip_bytes() {
    byte_round_trip::<Span>("Span", 87, |r| gen_span(r).to_bytes());
    byte_round_trip::<TraceReport>("TraceReport", 88, |r| gen_trace_report(r).to_bytes());
    byte_round_trip::<Histogram>("Histogram", 89, |r| gen_histogram(r).to_bytes());
    // Value round trip too — every field is public plain data.
    let mut rng = Rng::new(90);
    for _ in 0..iters(128, 8) {
        let rep = gen_trace_report(&mut rng);
        assert_eq!(
            rep,
            TraceReport::from_bytes(rep.to_bytes()).expect("decode")
        );
        let h = gen_histogram(&mut rng);
        assert_eq!(h, Histogram::from_bytes(h.to_bytes()).expect("decode"));
    }
}

// ---- checkpoint container ----------------------------------------------

fn ckpt_path(name: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// `Factorization::save`/`load` round-trips through the versioned,
/// CRC-checked container: the loaded object re-encodes to the same bytes
/// as the saved one.
#[test]
#[cfg_attr(miri, ignore = "file I/O is outside Miri's isolation")]
fn factorization_save_load_round_trip() {
    let mut rng = Rng::new(91);
    let path = ckpt_path("wire_fuzz_roundtrip.ckpt");
    for _ in 0..iters(16, 0) {
        let f = Factorization::<f64>::from_bytes(gen_factorization_frame(&mut rng))
            .expect("valid frame decodes");
        f.save(&path).expect("save");
        let back = Factorization::<f64>::load(&path).expect("load");
        assert_eq!(
            back.to_bytes(),
            f.to_bytes(),
            "save/load round trip changed the factorization bytes"
        );
    }
}

/// A Helmholtz factorization through the checkpoint container in both
/// record forms: the one-sided c64 records (and packed `L D Lᵀ` top) a
/// complex symmetric kernel produces, and the general two-sided ones
/// (with an LU top) the same kernel writes with its symmetry hidden. Each
/// must reload and solve to the same bits.
#[test]
#[cfg_attr(miri, ignore = "file I/O is outside Miri's isolation")]
fn helmholtz_checkpoints_restore_in_both_record_forms() {
    let grid = UnitGrid::new(16);
    let pts = grid.points();
    let kernel = HelmholtzKernel::new(&grid, 12.0);
    let opts = FactorOpts::default()
        .with_tol(1e-6)
        .with_leaf_size(16)
        .with_min_compress_level(1);
    let b = random_vector::<c64>(pts.len(), 7);
    let one_sided = common::factorize(&kernel, &pts, &opts).expect("symmetric mode");
    let general =
        common::factorize(&HideSymmetry(kernel.clone()), &pts, &opts).expect("general mode");
    assert!(one_sided.n_records() > 0 && one_sided.n_records() == general.n_records());
    assert!(matches!(one_sided.top_factor(), TopFactor::Symmetric(_)));
    assert!(matches!(general.top_factor(), TopFactor::General(_)));
    let mut sizes = Vec::new();
    for (name, f) in [("one-sided", &one_sided), ("general", &general)] {
        let path = ckpt_path(&format!("wire_fuzz_helmholtz_{name}.ckpt"));
        f.save(&path).expect("save");
        sizes.push(std::fs::metadata(&path).expect("stat").len());
        let back = Factorization::<c64>::load(&path).expect("load");
        assert_eq!(back.n_records(), f.n_records(), "{name}: record count");
        assert!(
            back.solve(&b) == f.solve(&b),
            "{name}: reloaded solve differs"
        );
    }
    assert!(
        sizes[0] * 10 < sizes[1] * 8,
        "one-sided checkpoint {} B vs general {} B",
        sizes[0],
        sizes[1]
    );
    let diff = srsf_linalg::vecops::rel_diff(&one_sided.solve(&b), &general.solve(&b));
    assert!(diff < 1e-5, "record forms disagree by {diff:.3e}");
}

/// Container rejection matrix: truncation at every prefix length, a bit
/// flip at every byte (header fields *and* CRC-guarded payload), a
/// corrupted magic, a future version, a mismatched scalar tag, and a
/// lying payload length must all surface as `SrsfError::Checkpoint` —
/// validated from the 40-byte header before any decode allocation, and
/// never a panic.
#[test]
#[cfg_attr(miri, ignore = "file I/O is outside Miri's isolation")]
fn checkpoint_container_rejects_corruption() {
    use srsf_core::SrsfError;

    let mut rng = Rng::new(92);
    let f = Factorization::<f64>::from_bytes(gen_factorization_frame(&mut rng))
        .expect("valid frame decodes");
    let good = ckpt_path("wire_fuzz_good.ckpt");
    f.save(&good).expect("save");
    let bytes = std::fs::read(&good).expect("read back");
    let bad = ckpt_path("wire_fuzz_bad.ckpt");

    let expect_rejected = |bytes: &[u8], what: &str| {
        std::fs::write(&bad, bytes).expect("write corrupted file");
        let res = catch_unwind(AssertUnwindSafe(|| Factorization::<f64>::load(&bad)))
            .unwrap_or_else(|_| panic!("{what}: load panicked instead of returning Checkpoint"));
        match res {
            Err(SrsfError::Checkpoint { .. }) => {}
            Err(e) => panic!("{what}: expected Checkpoint error, got {e}"),
            Ok(_) => panic!("{what}: corrupted container decoded successfully"),
        }
    };

    // Every strict prefix is a truncation (header-short or payload-short).
    let step = (bytes.len() / 64).max(1);
    for cut in (0..bytes.len()).step_by(step) {
        expect_rejected(&bytes[..cut], &format!("truncation at {cut}"));
    }
    // A flip anywhere breaks magic, version, tag, length, CRC, or payload.
    for _ in 0..iters(64, 0) {
        let mut bent = bytes.clone();
        let at = rng.below(bent.len());
        bent[at] ^= 1 << rng.below(8);
        expect_rejected(&bent, &format!("bit flip at {at}"));
    }
    // Targeted header corruption: magic, version, scalar tag, length.
    let mut bent = bytes.clone();
    bent[0..8].copy_from_slice(b"NOTSRSF!");
    expect_rejected(&bent, "bad magic");
    let mut bent = bytes.clone();
    bent[8..16].copy_from_slice(&99u64.to_le_bytes());
    expect_rejected(&bent, "future version");
    // The previous layouts (v2: no presence flag, unchecked shapes; v3:
    // no top form tag; v4: a per-record phase table in rank snapshots;
    // v5: an `L D Lᵀ` without its block-column range; v6: four
    // compression counters in the stats; v11: full-square inverses in
    // symmetric records and the packed top; v12: couplings without a
    // width flag) are refused by their version word, not misread.
    for old in [2u64, 3, 4, 5, 6, 11, 12] {
        let mut bent = bytes.clone();
        bent[8..16].copy_from_slice(&old.to_le_bytes());
        expect_rejected(&bent, &format!("version-{old} checkpoint"));
        match Factorization::<f64>::load(&bad) {
            Err(SrsfError::Checkpoint { reason, .. }) => assert!(
                reason.contains(&format!("version {old}")),
                "version-{old} rejection must name the version: {reason}"
            ),
            _ => unreachable!("rejected just above"),
        }
    }
    let mut bent = bytes.clone();
    bent[16..24].copy_from_slice(&16u64.to_le_bytes()); // claims c64
    expect_rejected(&bent, "scalar tag mismatch");
    let mut bent = bytes.clone();
    bent[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
    expect_rejected(&bent, "length field lies");

    // The scalar tag also rejects a well-formed file of the other type.
    std::fs::write(&bad, &bytes).expect("copy good file");
    match Factorization::<c64>::load(&bad) {
        Err(SrsfError::Checkpoint { .. }) => {}
        Err(e) => panic!("cross-scalar load: expected Checkpoint error, got {e}"),
        Ok(_) => panic!("an f64 snapshot decoded as c64"),
    }
}

fn small_opts() -> FactorOpts {
    FactorOpts::default()
        .with_tol(1e-6)
        .with_leaf_size(16)
        .with_min_compress_level(2)
}

/// The capacity-based footprint of a factorization does not depend on
/// whether its blocks were computed in place or decoded from a frame: a
/// checkpoint save/load returns the same `memory_bytes`, and the gather
/// of a distributed build (records and the top arrive over the wire)
/// reports what the ranks hold resident — and saves and loads to the
/// same bytes. Both top forms.
fn assert_decoded_footprint_matches<K: Kernel>(kernel: &K, grid: &UnitGrid, symmetric: bool) {
    let pts = grid.points();
    let f = common::factorize(kernel, &pts, &small_opts()).expect("factorization");
    assert_eq!(matches!(f.top_factor(), TopFactor::Symmetric(_)), symmetric);
    let path = ckpt_path(&format!("wire_fuzz_footprint_{symmetric}.ckpt"));
    f.save(&path).expect("save");
    let back = Factorization::<K::Elem>::load(&path).expect("load");
    assert_eq!(back.memory_bytes(), f.memory_bytes(), "save/load footprint");

    let resident = Solver::builder(kernel, &pts)
        .opts(small_opts())
        .driver(Driver::distributed(4))
        .build()
        .expect("distributed build");
    let gathered = resident.gather().expect("gather");
    assert_eq!(
        gathered.memory_bytes(),
        resident.memory_bytes(),
        "gathered footprint vs the ranks' resident total"
    );
    let path = ckpt_path(&format!("wire_fuzz_gathered_{symmetric}.ckpt"));
    gathered
        .save(&path)
        .expect("save the gathered factorization");
    let back = Factorization::<K::Elem>::load(&path).expect("load");
    assert!(
        back.to_bytes() == gathered.to_bytes(),
        "gathered save/load round trip"
    );
}

#[test]
#[cfg_attr(
    miri,
    ignore = "file I/O and rank threads are outside Miri's isolation"
)]
fn decoded_footprint_matches_in_memory_twin() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    assert_decoded_footprint_matches(&kernel, &grid, true);
    assert_decoded_footprint_matches(&HideSymmetry(kernel), &grid, false);
}

/// A resident Helmholtz build checkpoints its per-rank snapshots (rank 0
/// with the packed `L D Lᵀ` top); the restored world solves to the bits
/// of the live one.
#[test]
#[cfg_attr(
    miri,
    ignore = "file I/O and rank threads are outside Miri's isolation"
)]
fn helmholtz_resident_restore_solves_bit_identically() {
    let dir = ckpt_path("wire_fuzz_helmholtz_resident");
    let grid = UnitGrid::new(32);
    let pts = grid.points();
    let kernel = HelmholtzKernel::new(&grid, 12.0);
    let live = Solver::builder(&kernel, &pts)
        .opts(small_opts())
        .driver(Driver::distributed(4))
        .checkpoint_dir(&dir)
        .build()
        .expect("checkpointed build");
    let mut b = Mat::zeros(pts.len(), 3);
    for j in 0..3 {
        b.col_mut(j)
            .copy_from_slice(&random_vector::<c64>(pts.len(), 17 + j as u64));
    }
    let want = live.solve_mat(&b);
    let restored = Solver::<c64>::restore_resident(&pts, &dir, Transport::InProc).expect("restore");
    assert_eq!(restored.memory_bytes(), live.memory_bytes());
    assert!(restored.solve_mat(&b) == want, "restored solve differs");
}
