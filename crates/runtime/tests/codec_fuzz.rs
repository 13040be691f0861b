//! Fuzz + property tests for every [`Wire`] decoder in the runtime codec.
//!
//! Three properties, for each wire type:
//!
//! 1. **Totality** — `decode` over adversarial bytes (random streams,
//!    truncations of valid encodings, bit-flipped valid encodings) never
//!    panics and never over-allocates: it returns `Ok` or a
//!    [`CodecError`], nothing else. A length prefix claiming more
//!    elements than the payload holds must be rejected *before* any
//!    allocation is sized from it.
//! 2. **Round trip** — decode(encode(x)) == x for randomly generated
//!    values, including ragged nested containers and zero-sized edge
//!    cases.
//! 3. **Strict-prefix truncation** of a valid encoding never panics.
//!
//! The generator is a dependency-free xorshift64* PRNG, so failures
//! reproduce from the printed seed. The whole suite is Miri-compatible
//! (`cargo +nightly miri test -p srsf-runtime --test codec_fuzz`);
//! under Miri the iteration counts drop so the interpreter finishes in
//! minutes while still exercising every decoder.

use srsf_linalg::{c64, Lu, Mat};
use srsf_runtime::codec::{ByteReader, CodecError, Wire};
use std::panic::{catch_unwind, AssertUnwindSafe};

const fn iters(full: usize, miri: usize) -> usize {
    if cfg!(miri) {
        miri
    } else {
        full
    }
}

/// xorshift64* — tiny deterministic PRNG (Vigna, "An experimental
/// exploration of Marsaglia's xorshift generators, scrambled").
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
    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
    fn f64(&mut self) -> f64 {
        // Mix in non-finite and denormal-ish values now and then.
        match self.below(16) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            _ => f64::from_bits(self.next()),
        }
    }
}

/// Decode `bytes` as `T`, demanding "no panic": any unwind is promoted
/// to a test failure that prints the offending payload.
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

/// Property 1 + 3 for one type: random streams, then every strict
/// prefix and a few bit flips of each valid encoding from `sample`.
fn fuzz_type<T: Wire>(name: &str, seed: u64, mut sample: impl FnMut(&mut Rng) -> T) {
    let mut rng = Rng::new(seed);
    for _ in 0..iters(2000, 24) {
        let len = rng.below(97);
        let payload = rng.bytes(len);
        let _ = decode_total::<T>(name, &payload);
    }
    for _ in 0..iters(64, 4) {
        let valid = sample(&mut rng).to_bytes();
        // Strict prefixes: truncation at every boundary must stay total.
        let step = if cfg!(miri) { 8 } else { 1 };
        for cut in (0..valid.len()).step_by(step) {
            let _ = decode_total::<T>(name, &valid[..cut]);
        }
        // Bit flips: corruption inside a structurally valid frame.
        if !valid.is_empty() {
            for _ in 0..iters(16, 2) {
                let mut bent = valid.clone();
                let at = rng.below(bent.len());
                bent[at] ^= 1 << rng.below(8);
                let _ = decode_total::<T>(name, &bent);
            }
        }
    }
}

/// Property 2: decode(encode(x)) == x.
fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(
    name: &str,
    seed: u64,
    mut sample: impl FnMut(&mut Rng) -> T,
) {
    let mut rng = Rng::new(seed);
    for _ in 0..iters(256, 8) {
        let x = sample(&mut rng);
        let bytes = x.to_bytes();
        let len = bytes.len();
        let back = T::from_bytes(bytes)
            .unwrap_or_else(|e| panic!("{name}: round trip failed to decode: {e}"));
        assert_eq!(back, x, "{name}: round trip changed the value");
        // And the decode must consume exactly the encoding: a reader
        // positioned after it sees a sentinel we plant behind.
        let mut w = srsf_runtime::codec::ByteWriter::new();
        x.encode(&mut w);
        w.put_u64(0xDEAD_BEEF_F00D_CAFE);
        let mut r = ByteReader::new(w.finish());
        let _ = T::decode(&mut r).unwrap_or_else(|e| panic!("{name}: decode: {e}"));
        assert_eq!(
            r.position(),
            len,
            "{name}: decode consumed a different number of bytes than encode produced"
        );
        let sentinel = r
            .try_get_u64()
            .unwrap_or_else(|e| panic!("{name}: sentinel: {e}"));
        assert_eq!(sentinel, 0xDEAD_BEEF_F00D_CAFE, "{name}: misaligned decode");
    }
}

// ---- value generators --------------------------------------------------

fn gen_string(rng: &mut Rng) -> String {
    let n = rng.below(12);
    (0..n)
        .map(|_| match rng.below(4) {
            0 => 'µ',
            1 => '思',
            2 => '𝕊',
            _ => (b'a' + (rng.below(26) as u8)) as char,
        })
        .collect()
}

fn gen_mat_f64(rng: &mut Rng) -> Mat<f64> {
    let (m, n) = (rng.below(5), rng.below(5));
    let mut vals: Vec<f64> = (0..m * n).map(|_| rng.f64()).collect();
    // NaN breaks PartialEq-based round-trip checks; keep bits exotic
    // but comparable.
    for v in &mut vals {
        if v.is_nan() {
            *v = 42.0;
        }
    }
    Mat::from_vec(m, n, vals)
}

fn gen_mat_c64(rng: &mut Rng) -> Mat<c64> {
    let (m, n) = (rng.below(5), rng.below(5));
    let vals: Vec<c64> = (0..m * n)
        .map(|_| {
            let (re, im) = (rng.f64(), rng.f64());
            c64::new(
                if re.is_nan() { 42.0 } else { re },
                if im.is_nan() { -42.0 } else { im },
            )
        })
        .collect();
    Mat::from_vec(m, n, vals)
}

fn gen_lu(rng: &mut Rng) -> Lu<f64> {
    let n = rng.below(4);
    Lu {
        lu: Mat::from_vec(n, n, (0..n * n).map(|i| i as f64).collect()),
        // What a partially pivoted LU produces, and all the decoder
        // accepts: pivot `k` in `k..n`.
        piv: (0..n).map(|k| k + rng.below(n - k)).collect(),
    }
}

/// Ragged nested vectors: inner lengths vary within one value.
fn gen_ragged(rng: &mut Rng) -> Vec<Vec<u64>> {
    let n = rng.below(6);
    (0..n)
        .map(|_| {
            let m = rng.below(7);
            (0..m).map(|_| rng.next()).collect()
        })
        .collect()
}

// ---- totality over adversarial bytes -----------------------------------

#[test]
fn primitives_decode_is_total() {
    fuzz_type::<u64>("u64", 11, |r| r.next());
    fuzz_type::<i64>("i64", 12, |r| r.next() as i64);
    fuzz_type::<u32>("u32", 13, |r| r.next() as u32);
    fuzz_type::<i32>("i32", 14, |r| r.next() as i32);
    fuzz_type::<usize>("usize", 15, |r| r.next() as usize);
    fuzz_type::<bool>("bool", 16, |r| r.next() & 1 == 0);
    fuzz_type::<f64>("f64", 17, |r| r.f64());
    fuzz_type::<c64>("c64", 18, |r| c64::new(r.f64(), r.f64()));
}

#[test]
fn containers_decode_is_total() {
    fuzz_type::<String>("String", 21, gen_string);
    fuzz_type::<Vec<u64>>("Vec<u64>", 22, |r| {
        (0..r.below(9)).map(|_| r.next()).collect()
    });
    fuzz_type::<Vec<Vec<u64>>>("Vec<Vec<u64>>", 23, gen_ragged);
    fuzz_type::<Option<u64>>("Option<u64>", 24, |r| (r.next() & 1 == 0).then(|| r.next()));
    fuzz_type::<Result<u64, String>>("Result<u64,String>", 25, |r| {
        if r.next() & 1 == 0 {
            Ok(r.next())
        } else {
            Err(gen_string(r))
        }
    });
    fuzz_type::<(u64, String)>("(u64,String)", 26, |r| (r.next(), gen_string(r)));
    fuzz_type::<(bool, u32, f64)>("(bool,u32,f64)", 27, |r| {
        (r.next() & 1 == 0, r.next() as u32, r.f64())
    });
}

#[test]
fn linalg_decode_is_total() {
    fuzz_type::<Mat<f64>>("Mat<f64>", 31, gen_mat_f64);
    fuzz_type::<Mat<c64>>("Mat<c64>", 32, gen_mat_c64);
    fuzz_type::<Lu<f64>>("Lu<f64>", 33, gen_lu);
}

/// A length prefix claiming far more elements than the payload carries
/// must be rejected up front (`CodecError::Oversized`), not allocated.
#[test]
fn oversized_length_prefixes_are_rejected_before_allocation() {
    for claimed in [u64::MAX, u64::MAX / 8, 1 << 40] {
        let mut w = srsf_runtime::codec::ByteWriter::new();
        w.put_u64(claimed);
        let bytes = w.finish();
        assert!(matches!(
            Vec::<u64>::from_bytes(bytes.clone()),
            Err(CodecError::Oversized { .. })
        ));
        assert!(Vec::<Vec<u64>>::from_bytes(bytes.clone()).is_err());
        assert!(String::from_bytes(bytes).is_err());
    }
    // Matrix headers: each dimension is bounded on its own, so the
    // (huge, 0) product trick cannot smuggle a giant dimension through.
    let mut w = srsf_runtime::codec::ByteWriter::new();
    w.put_u64(u64::MAX);
    w.put_u64(0);
    assert!(Mat::<f64>::from_bytes(w.finish()).is_err());
}

// ---- round trips -------------------------------------------------------

#[test]
fn primitives_round_trip() {
    round_trip::<u64>("u64", 41, |r| r.next());
    round_trip::<i64>("i64", 42, |r| r.next() as i64);
    round_trip::<u32>("u32", 43, |r| r.next() as u32);
    round_trip::<i32>("i32", 44, |r| r.next() as i32);
    round_trip::<usize>("usize", 45, |r| r.next() as usize);
    round_trip::<bool>("bool", 46, |r| r.next() & 1 == 0);
}

#[test]
fn containers_round_trip_ragged() {
    round_trip::<String>("String", 51, gen_string);
    round_trip::<Vec<Vec<u64>>>("Vec<Vec<u64>>", 52, gen_ragged);
    round_trip::<Option<Vec<u64>>>("Option<Vec<u64>>", 53, |r| {
        (r.next() & 1 == 0).then(|| (0..r.below(5)).map(|_| r.next()).collect())
    });
    round_trip::<Result<u64, String>>("Result<u64,String>", 54, |r| {
        if r.next() & 1 == 0 {
            Ok(r.next())
        } else {
            Err(gen_string(r))
        }
    });
    round_trip::<(u64, String, Vec<u64>)>("(u64,String,Vec<u64>)", 55, |r| {
        (
            r.next(),
            gen_string(r),
            (0..r.below(5)).map(|_| r.next()).collect(),
        )
    });
}

#[test]
fn linalg_round_trip() {
    round_trip::<Mat<f64>>("Mat<f64>", 61, gen_mat_f64);
    round_trip::<Mat<c64>>("Mat<c64>", 62, gen_mat_c64);
}

#[test]
fn lu_round_trip() {
    let mut rng = Rng::new(63);
    for _ in 0..iters(128, 8) {
        let lu = gen_lu(&mut rng);
        let back = Lu::<f64>::from_bytes(lu.to_bytes()).expect("lu decode");
        assert_eq!(back.lu, lu.lu);
        assert_eq!(back.piv, lu.piv);
    }
}
