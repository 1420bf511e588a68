//! Runtime-dispatched SIMD micro-kernels (DESIGN.md §S0.11).
//!
//! Every kernel here exists in (at least) two bodies: a **scalar reference**
//! in [`scalar`] — the normative implementation, kept in the exact
//! unrolled-accumulator shape the rest of the workspace has always used —
//! and explicit `std::arch` versions (AVX2 on x86-64, NEON on aarch64)
//! selected once per process by [`active_isa`].
//!
//! ## Bit-identity contract
//!
//! The SIMD bodies are *transcriptions* of the scalar ones, not
//! re-derivations: same accumulator-lane layout (lane `j` of the vector
//! accumulator holds exactly what scalar `acc[j]` holds), same pairwise
//! combine tree, same sequential tail loop, and **no FMA contraction**
//! (multiply and add stay separate instructions, matching the scalar
//! `a * b` then `+=`). Under IEEE-754 each lane therefore performs the
//! identical sequence of rounded operations, so every kernel returns a
//! result bit-identical to its scalar reference on every input — including
//! NaN/∞ propagation. The i8 kernels are exact integer arithmetic and
//! trivially order-independent. This is what lets `LARGEEA_NO_SIMD=1`
//! (and non-x86 hosts) reproduce committed baselines byte-for-byte.
//!
//! ## Dispatch rules
//!
//! - `LARGEEA_NO_SIMD=1` (any non-empty value other than `0`) forces
//!   [`Isa::Scalar`] regardless of hardware.
//! - Otherwise the best ISA the CPU reports is picked once and cached for
//!   the process lifetime ([`Isa::Avx2`] via `is_x86_feature_detected!`,
//!   [`Isa::Neon`] on aarch64).
//! - The `*_on` variants take an explicit [`Isa`] for benches and tests;
//!   they safely fall back to scalar if the requested ISA is not actually
//!   available on this CPU, so no caller can reach an illegal instruction.
#![allow(unsafe_code)] // the only module in the workspace allowed intrinsics

use std::sync::OnceLock;

/// Instruction set a kernel call dispatches to. `Scalar` is the normative
/// reference; the others are bit-identical transcriptions of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable unrolled-accumulator Rust — the reference semantics.
    Scalar,
    /// x86-64 AVX2 (256-bit lanes; 8×f32 / 16×i8-widened per step).
    Avx2,
    /// aarch64 NEON (128-bit lanes; two 4×f32 accumulators per step).
    Neon,
}

impl Isa {
    /// Stable lowercase name — what lands in `kernel.isa` trace fields and
    /// the `kernel_isa` BENCH config entry.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
        }
    }

    /// Whether this ISA can actually execute on the current CPU.
    pub fn available(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)] // arms above are cfg-gated
            _ => false,
        }
    }
}

static ACTIVE: OnceLock<Isa> = OnceLock::new();

/// The ISA every implicit kernel call dispatches to, detected once per
/// process. `LARGEEA_NO_SIMD=1` pins it to [`Isa::Scalar`].
pub fn active_isa() -> Isa {
    *ACTIVE.get_or_init(|| {
        let forced_off =
            std::env::var_os("LARGEEA_NO_SIMD").is_some_and(|v| !v.is_empty() && v != "0");
        if forced_off {
            return Isa::Scalar;
        }
        if Isa::Avx2.available() {
            Isa::Avx2
        } else if Isa::Neon.available() {
            Isa::Neon
        } else {
            Isa::Scalar
        }
    })
}

/// Dot product of two `f32` slices, truncated to the shorter length.
/// Dispatched via [`active_isa`]; bit-identical across ISAs.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_on(active_isa(), a, b)
}

/// [`dot`] on an explicit ISA (falls back to scalar if unavailable).
#[inline]
pub fn dot_on(isa: Isa, a: &[f32], b: &[f32]) -> f32 {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call.
        Isa::Avx2 if isa.available() => unsafe { avx2::dot(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON availability verified at runtime before the call.
        Isa::Neon if isa.available() => unsafe { neon::dot(a, b) },
        _ => scalar::dot(a, b),
    }
}

/// Manhattan (L1) distance between two `f32` slices, truncated to the
/// shorter length. Dispatched via [`active_isa`]; bit-identical across ISAs.
#[inline]
pub fn l1_distance(a: &[f32], b: &[f32]) -> f32 {
    l1_distance_on(active_isa(), a, b)
}

/// [`l1_distance`] on an explicit ISA (falls back to scalar if unavailable).
#[inline]
pub fn l1_distance_on(isa: Isa, a: &[f32], b: &[f32]) -> f32 {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call.
        Isa::Avx2 if isa.available() => unsafe { avx2::l1_distance(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON availability verified at runtime before the call.
        Isa::Neon if isa.available() => unsafe { neon::l1_distance(a, b) },
        _ => scalar::l1_distance(a, b),
    }
}

/// `y[i] += alpha * x[i]` over the common prefix (the `scaled_add_assign`
/// primitive). Dispatched via [`active_isa`]; bit-identical across ISAs.
#[inline]
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    axpy_on(active_isa(), y, alpha, x)
}

/// [`axpy`] on an explicit ISA (falls back to scalar if unavailable).
#[inline]
pub fn axpy_on(isa: Isa, y: &mut [f32], alpha: f32, x: &[f32]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call.
        Isa::Avx2 if isa.available() => unsafe { avx2::axpy(y, alpha, x) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON availability verified at runtime before the call.
        Isa::Neon if isa.available() => unsafe { neon::axpy(y, alpha, x) },
        _ => scalar::axpy(y, alpha, x),
    }
}

/// Integer dot product of two `i8` slices (widened to `i32`), truncated to
/// the shorter length. Exact for any input whose true sum fits `i32` —
/// with quantized values in `[-127, 127]` that holds up to ~133k dims.
/// Dispatched via [`active_isa`].
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    dot_i8_on(active_isa(), a, b)
}

/// [`dot_i8`] on an explicit ISA (falls back to scalar if unavailable).
#[inline]
pub fn dot_i8_on(isa: Isa, a: &[i8], b: &[i8]) -> i32 {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call.
        Isa::Avx2 if isa.available() => unsafe { avx2::dot_i8(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON availability verified at runtime before the call.
        Isa::Neon if isa.available() => unsafe { neon::dot_i8(a, b) },
        _ => scalar::dot_i8(a, b),
    }
}

/// Integer L1 distance of two `i8` slices (widened to `i32`), truncated to
/// the shorter length. Same exactness bound as [`dot_i8`].
/// Dispatched via [`active_isa`].
#[inline]
pub fn l1_i8(a: &[i8], b: &[i8]) -> i32 {
    l1_i8_on(active_isa(), a, b)
}

/// [`l1_i8`] on an explicit ISA (falls back to scalar if unavailable).
#[inline]
pub fn l1_i8_on(isa: Isa, a: &[i8], b: &[i8]) -> i32 {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call.
        Isa::Avx2 if isa.available() => unsafe { avx2::l1_i8(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON availability verified at runtime before the call.
        Isa::Neon if isa.available() => unsafe { neon::l1_i8(a, b) },
        _ => scalar::l1_i8(a, b),
    }
}

/// Query rows per [`l1_tile_on`]/[`dot_tile_on`] tile.
pub const TILE_QUERIES: usize = 4;
/// Base rows per [`l1_tile_on`]/[`dot_tile_on`] tile.
pub const TILE_BASE: usize = 2;
/// Scores of one tile: `tile[i][j]` pairs query row `i` with base row `j`.
pub type Tile = [[f32; TILE_BASE]; TILE_QUERIES];

/// [`l1_distance`] of every (query, base) pair of a tile of up to
/// [`TILE_QUERIES`] query rows × [`TILE_BASE`] base rows, in one pass that
/// loads each base chunk once for all query rows. `tile[i][j]` is
/// bit-identical to `l1_distance_on(isa, queries[i], base[j])`; entries
/// outside the given rows are `0.0`.
///
/// # Panics
///
/// If either side is empty or larger than the tile, or if the rows do not
/// all have the same length.
#[inline]
pub fn l1_tile_on(isa: Isa, queries: &[&[f32]], base: &[&[f32]]) -> Tile {
    let shape = tile_shape(queries, base);
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call;
        // `tile_shape` checked that all rows share one length, and `pad`
        // only repeats those rows.
        Isa::Avx2 if isa.available() => {
            unpad(shape, unsafe { avx2::l1_tile(pad(queries), pad(base)) })
        }
        _ => per_pair(shape, queries, base, |a, b| l1_distance_on(isa, a, b)),
    }
}

/// [`dot`] of every (query, base) pair of a tile; the same shape, contract
/// and panics as [`l1_tile_on`].
#[inline]
pub fn dot_tile_on(isa: Isa, queries: &[&[f32]], base: &[&[f32]]) -> Tile {
    let shape = tile_shape(queries, base);
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call;
        // `tile_shape` checked that all rows share one length, and `pad`
        // only repeats those rows.
        Isa::Avx2 if isa.available() => {
            unpad(shape, unsafe { avx2::dot_tile(pad(queries), pad(base)) })
        }
        _ => per_pair(shape, queries, base, |a, b| dot_on(isa, a, b)),
    }
}

/// Checks a tile's shape and row lengths; returns `(queries, base)` rows.
#[inline]
fn tile_shape(queries: &[&[f32]], base: &[&[f32]]) -> (usize, usize) {
    let (nq, nb) = (queries.len(), base.len());
    assert!(
        (1..=TILE_QUERIES).contains(&nq) && (1..=TILE_BASE).contains(&nb),
        "tile of {nq}x{nb} rows exceeds {TILE_QUERIES}x{TILE_BASE}"
    );
    let n = queries[0].len();
    assert!(
        queries.iter().all(|r| r.len() == n) && base.iter().all(|r| r.len() == n),
        "tile rows must have equal length"
    );
    (nq, nb)
}

/// Fills a partial side up to `N` rows by repeating its last row; the
/// repeated rows' scores are computed and then dropped by [`unpad`].
#[cfg(target_arch = "x86_64")]
#[inline]
fn pad<'a, const N: usize>(rows: &[&'a [f32]]) -> [&'a [f32]; N] {
    std::array::from_fn(|i| rows[i.min(rows.len() - 1)])
}

/// The `(nq, nb)` corner of a full row-major 4×2 result, zeros elsewhere.
#[cfg(target_arch = "x86_64")]
#[inline]
fn unpad((nq, nb): (usize, usize), full: [f32; TILE_QUERIES * TILE_BASE]) -> Tile {
    std::array::from_fn(|i| {
        std::array::from_fn(|j| {
            if i < nq && j < nb {
                full[i * TILE_BASE + j]
            } else {
                0.0
            }
        })
    })
}

/// The tile as `nq × nb` calls of a per-pair kernel — the reference every
/// tiled body must equal, and the body on ISAs without one.
#[inline]
fn per_pair(
    (nq, nb): (usize, usize),
    queries: &[&[f32]],
    base: &[&[f32]],
    pair: impl Fn(&[f32], &[f32]) -> f32,
) -> Tile {
    let mut tile = [[0.0; TILE_BASE]; TILE_QUERIES];
    for (row, q) in tile.iter_mut().zip(&queries[..nq]) {
        for (score, b) in row.iter_mut().zip(&base[..nb]) {
            *score = pair(q, b);
        }
    }
    tile
}

/// MR=4 packed-panel matmul micro-kernel on an explicit ISA. Four rows of A
/// stream against one packed B panel; every output element accumulates its
/// products strictly in ascending-`k` order, one add per `k`, so all ISAs
/// agree bitwise (see [`Matrix::matmul_in`](crate::Matrix::matmul_in)).
#[inline]
pub(crate) fn mk4_on(isa: Isa, a: [&[f32]; 4], packed: &[f32], nc_len: usize, o: [&mut [f32]; 4]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call.
        Isa::Avx2 if isa.available() => unsafe { avx2::mk4(a, packed, nc_len, o) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON availability verified at runtime before the call.
        Isa::Neon if isa.available() => unsafe { neon::mk4(a, packed, nc_len, o) },
        _ => scalar::mk4(a, packed, nc_len, o),
    }
}

/// Single-row remainder matmul micro-kernel on an explicit ISA.
#[inline]
pub(crate) fn mk1_on(isa: Isa, a_row: &[f32], packed: &[f32], nc_len: usize, out_row: &mut [f32]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability verified at runtime before the call.
        Isa::Avx2 if isa.available() => unsafe { avx2::mk1(a_row, packed, nc_len, out_row) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON availability verified at runtime before the call.
        Isa::Neon if isa.available() => unsafe { neon::mk1(a_row, packed, nc_len, out_row) },
        _ => scalar::mk1(a_row, packed, nc_len, out_row),
    }
}

/// Normative scalar reference kernels. Every SIMD body must reproduce these
/// bit-for-bit; prop-tests in this module and `scripts/verify.sh`'s
/// scalar-forced smoke enforce it.
pub mod scalar {
    /// Unrolled dot product, truncated to the shorter length.
    ///
    /// A plain `zip().map().sum()` is a strict sequential FP reduction the
    /// compiler may not reassociate, so it never vectorises; eight
    /// independent accumulators recover SIMD throughput. The accumulator
    /// split and the pairwise combine are fixed functions of the slice
    /// length — never of thread count or chunking — so the result is
    /// deterministic.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut acc = [0.0f32; 8];
        let mut ca = a.chunks_exact(8);
        let mut cb = b.chunks_exact(8);
        for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
            for j in 0..8 {
                acc[j] += xa[j] * xb[j];
            }
        }
        let mut tail = 0.0f32;
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            tail += x * y;
        }
        (((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))) + tail
    }

    /// Unrolled L1 (Manhattan) distance, truncated to the shorter length.
    /// Same eight-accumulator scheme (and determinism argument) as [`dot`].
    pub fn l1_distance(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut acc = [0.0f32; 8];
        let mut ca = a.chunks_exact(8);
        let mut cb = b.chunks_exact(8);
        for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
            for j in 0..8 {
                acc[j] += (xa[j] - xb[j]).abs();
            }
        }
        let mut tail = 0.0f32;
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            tail += (x - y).abs();
        }
        (((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))) + tail
    }

    /// `y[i] += alpha * x[i]` over the common prefix. Element-wise — no
    /// reduction — so there is nothing to reassociate.
    pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
        for (y, x) in y.iter_mut().zip(x) {
            *y += alpha * x;
        }
    }

    /// Integer dot product (`i8` widened to `i32`), truncated to the
    /// shorter length.
    pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum()
    }

    /// Integer L1 distance (`i8` widened to `i32`), truncated to the
    /// shorter length.
    pub fn l1_i8(a: &[i8], b: &[i8]) -> i32 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (i32::from(x) - i32::from(y)).abs())
            .sum()
    }

    /// MR=4 register micro-kernel: four A rows against one packed B panel.
    /// The output sub-rows are pre-sliced to exactly `nc_len`, so every
    /// index below is provably in bounds and the j-loop vectorises.
    #[inline]
    pub(crate) fn mk4(a: [&[f32]; 4], packed: &[f32], nc_len: usize, o: [&mut [f32]; 4]) {
        let [a0, a1, a2, a3] = a;
        let [o0, o1, o2, o3] = o;
        for (kk, ((&x0, &x1), (&x2, &x3))) in a0.iter().zip(a1).zip(a2.iter().zip(a3)).enumerate() {
            let brow = &packed[kk * nc_len..(kk + 1) * nc_len];
            for (((c0, c1), (c2, c3)), &bv) in o0
                .iter_mut()
                .zip(o1.iter_mut())
                .zip(o2.iter_mut().zip(o3.iter_mut()))
                .zip(brow)
            {
                *c0 += x0 * bv;
                *c1 += x1 * bv;
                *c2 += x2 * bv;
                *c3 += x3 * bv;
            }
        }
    }

    /// Single-row remainder micro-kernel.
    #[inline]
    pub(crate) fn mk1(a_row: &[f32], packed: &[f32], nc_len: usize, out_row: &mut [f32]) {
        for (kk, &x) in a_row.iter().enumerate() {
            let brow = &packed[kk * nc_len..(kk + 1) * nc_len];
            for (o, &bv) in out_row.iter_mut().zip(brow) {
                *o += x * bv;
            }
        }
    }
}

/// AVX2 transcriptions of [`scalar`]. Lane `j` of each 256-bit accumulator
/// carries exactly what scalar `acc[j]` carries; the horizontal combine
/// spills to an array and reuses the scalar pairwise tree; multiplies and
/// adds stay separate instructions (no FMA), so results are bit-identical.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for i in 0..chunks {
            let va = _mm256_loadu_ps(a.as_ptr().add(i * 8));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i * 8));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut tail = 0.0f32;
        for i in chunks * 8..n {
            tail += a[i] * b[i];
        }
        (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
            + tail
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn l1_distance(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let chunks = n / 8;
        // `f32::abs` clears the sign bit; andnot with -0.0 is the same op.
        let sign = _mm256_set1_ps(-0.0);
        let mut acc = _mm256_setzero_ps();
        for i in 0..chunks {
            let va = _mm256_loadu_ps(a.as_ptr().add(i * 8));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i * 8));
            acc = _mm256_add_ps(acc, _mm256_andnot_ps(sign, _mm256_sub_ps(va, vb)));
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut tail = 0.0f32;
        for i in chunks * 8..n {
            tail += (a[i] - b[i]).abs();
        }
        (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
            + tail
    }

    /// The 4×2 tile body shared by [`l1_tile`] and [`dot_tile`]: eight
    /// independent accumulators (one per pair, lane `j` = scalar `acc[j]`),
    /// each base chunk loaded once for the four query rows. `$vec` is the
    /// per-chunk term of query chunk `$x` and base chunk `$y`, `$scalar`
    /// the tail term. The result is row-major: `[q0b0, q0b1, q1b0, …]`.
    macro_rules! tile_4x2 {
        ($q:ident, $b:ident, |$x:ident, $y:ident| $vec:expr, $scalar:expr) => {{
            let n = $q[0].len();
            let chunks = n / 8;
            let [q0, q1, q2, q3] = $q.map(<[f32]>::as_ptr);
            let [b0, b1] = $b.map(<[f32]>::as_ptr);
            let mut acc = [_mm256_setzero_ps(); 8];
            for i in 0..chunks {
                let off = i * 8;
                let vb0 = _mm256_loadu_ps(b0.add(off));
                let vb1 = _mm256_loadu_ps(b1.add(off));
                for (r, q) in [q0, q1, q2, q3].into_iter().enumerate() {
                    let $x = _mm256_loadu_ps(q.add(off));
                    acc[2 * r] = _mm256_add_ps(acc[2 * r], {
                        let $y = vb0;
                        $vec
                    });
                    acc[2 * r + 1] = _mm256_add_ps(acc[2 * r + 1], {
                        let $y = vb1;
                        $vec
                    });
                }
            }
            let mut tail = [0.0f32; 8];
            for i in chunks * 8..n {
                for (r, q) in $q.iter().enumerate() {
                    for (c, b) in $b.iter().enumerate() {
                        tail[2 * r + c] += $scalar(q[i], b[i]);
                    }
                }
            }
            let lo = _mm_add_ps(
                combine4(acc[0], acc[1], acc[2], acc[3]),
                _mm_loadu_ps(tail.as_ptr()),
            );
            let hi = _mm_add_ps(
                combine4(acc[4], acc[5], acc[6], acc[7]),
                _mm_loadu_ps(tail.as_ptr().add(4)),
            );
            let mut out = [0.0f32; 8];
            _mm_storeu_ps(out.as_mut_ptr(), lo);
            _mm_storeu_ps(out.as_mut_ptr().add(4), hi);
            out
        }};
    }

    /// Reduces four accumulators to `[Σa, Σb, Σc, Σd]`, each by the scalar
    /// tree `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`: the first `hadd`
    /// forms the adjacent pairs (per 128-bit half), the second the pairs
    /// of pairs, and the final add joins the low half `(0..4)` to the high
    /// half `(4..8)`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn combine4(a: __m256, b: __m256, c: __m256, d: __m256) -> __m128 {
        let g = _mm256_hadd_ps(_mm256_hadd_ps(a, b), _mm256_hadd_ps(c, d));
        _mm_add_ps(_mm256_castps256_ps128(g), _mm256_extractf128_ps::<1>(g))
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and that all six rows have
    /// the same length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn l1_tile(q: [&[f32]; 4], b: [&[f32]; 2]) -> [f32; 8] {
        tile_4x2!(
            q,
            b,
            |x, y| _mm256_andnot_ps(_mm256_set1_ps(-0.0), _mm256_sub_ps(x, y)),
            |x: f32, y: f32| (x - y).abs()
        )
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and that all six rows have
    /// the same length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_tile(q: [&[f32]; 4], b: [&[f32]; 2]) -> [f32; 8] {
        tile_4x2!(q, b, |x, y| _mm256_mul_ps(x, y), |x: f32, y: f32| x * y)
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
        let n = y.len().min(x.len());
        let chunks = n / 8;
        let va = _mm256_set1_ps(alpha);
        for i in 0..chunks {
            let vy = _mm256_loadu_ps(y.as_ptr().add(i * 8));
            let vx = _mm256_loadu_ps(x.as_ptr().add(i * 8));
            _mm256_storeu_ps(
                y.as_mut_ptr().add(i * 8),
                _mm256_add_ps(vy, _mm256_mul_ps(va, vx)),
            );
        }
        for i in chunks * 8..n {
            y[i] += alpha * x[i];
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let chunks = n / 16;
        let mut acc = _mm256_setzero_si256();
        for i in 0..chunks {
            let va = _mm_loadu_si128(a.as_ptr().add(i * 16) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(i * 16) as *const __m128i);
            let wa = _mm256_cvtepi8_epi16(va);
            let wb = _mm256_cvtepi8_epi16(vb);
            // madd: adjacent i16 products summed pairwise into 8×i32 —
            // exact, since |x·y| ≤ 127² and the pair sum fits i32.
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wa, wb));
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let mut sum: i32 = lanes.iter().sum();
        for i in chunks * 16..n {
            sum += i32::from(a[i]) * i32::from(b[i]);
        }
        sum
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn l1_i8(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let chunks = n / 16;
        let ones = _mm256_set1_epi16(1);
        let mut acc = _mm256_setzero_si256();
        for i in 0..chunks {
            let va = _mm_loadu_si128(a.as_ptr().add(i * 16) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(i * 16) as *const __m128i);
            let wa = _mm256_cvtepi8_epi16(va);
            let wb = _mm256_cvtepi8_epi16(vb);
            let d = _mm256_abs_epi16(_mm256_sub_epi16(wa, wb));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, ones));
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let mut sum: i32 = lanes.iter().sum();
        for i in chunks * 16..n {
            sum += (i32::from(a[i]) - i32::from(b[i])).abs();
        }
        sum
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    ///
    /// Loop nest is j-chunk outer / kk inner so each 4×8 output tile stays
    /// in registers across the whole depth strip (the scalar reference's
    /// kk-outer nest re-loads and re-stores the output rows every step,
    /// which is store-port-bound). Per output element the f32 adds still
    /// land in ascending-`kk` order, so the result is bit-identical.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mk4(a: [&[f32]; 4], packed: &[f32], nc_len: usize, o: [&mut [f32]; 4]) {
        let [a0, a1, a2, a3] = a;
        let [o0, o1, o2, o3] = o;
        let kc = a0.len().min(a1.len()).min(a2.len()).min(a3.len());
        let chunks = nc_len / 8;
        for j in 0..chunks {
            let off = j * 8;
            let mut c0 = _mm256_loadu_ps(o0.as_ptr().add(off));
            let mut c1 = _mm256_loadu_ps(o1.as_ptr().add(off));
            let mut c2 = _mm256_loadu_ps(o2.as_ptr().add(off));
            let mut c3 = _mm256_loadu_ps(o3.as_ptr().add(off));
            for kk in 0..kc {
                let vb = _mm256_loadu_ps(packed.as_ptr().add(kk * nc_len + off));
                c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(a0[kk]), vb));
                c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(a1[kk]), vb));
                c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_set1_ps(a2[kk]), vb));
                c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_set1_ps(a3[kk]), vb));
            }
            _mm256_storeu_ps(o0.as_mut_ptr().add(off), c0);
            _mm256_storeu_ps(o1.as_mut_ptr().add(off), c1);
            _mm256_storeu_ps(o2.as_mut_ptr().add(off), c2);
            _mm256_storeu_ps(o3.as_mut_ptr().add(off), c3);
        }
        for j in chunks * 8..nc_len {
            for kk in 0..kc {
                let bj = packed[kk * nc_len + j];
                o0[j] += a0[kk] * bj;
                o1[j] += a1[kk] * bj;
                o2[j] += a2[kk] * bj;
                o3[j] += a3[kk] * bj;
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    ///
    /// Same j-outer register-accumulating nest as [`mk4`], one row wide.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mk1(a_row: &[f32], packed: &[f32], nc_len: usize, out_row: &mut [f32]) {
        let kc = a_row.len();
        let chunks = nc_len / 8;
        for j in 0..chunks {
            let off = j * 8;
            let mut c = _mm256_loadu_ps(out_row.as_ptr().add(off));
            for (kk, &x) in a_row.iter().enumerate().take(kc) {
                let vb = _mm256_loadu_ps(packed.as_ptr().add(kk * nc_len + off));
                c = _mm256_add_ps(c, _mm256_mul_ps(_mm256_set1_ps(x), vb));
            }
            _mm256_storeu_ps(out_row.as_mut_ptr().add(off), c);
        }
        for j in chunks * 8..nc_len {
            for (kk, &x) in a_row.iter().enumerate() {
                out_row[j] += x * packed[kk * nc_len + j];
            }
        }
    }
}

/// NEON transcriptions of [`scalar`]. One 8-wide scalar step maps to two
/// 128-bit accumulators: lanes 0–3 of the low register are scalar
/// `acc[0..4]`, lanes of the high register are `acc[4..8]`; the horizontal
/// combine spills both and reuses the scalar pairwise tree. No FMA
/// (`vmlaq` contraction is avoided; mul and add stay separate), so results
/// are bit-identical to [`scalar`].
#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    /// # Safety
    /// Caller must ensure the CPU supports NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let chunks = n / 8;
        let mut lo = vdupq_n_f32(0.0);
        let mut hi = vdupq_n_f32(0.0);
        for i in 0..chunks {
            let pa = a.as_ptr().add(i * 8);
            let pb = b.as_ptr().add(i * 8);
            lo = vaddq_f32(lo, vmulq_f32(vld1q_f32(pa), vld1q_f32(pb)));
            hi = vaddq_f32(hi, vmulq_f32(vld1q_f32(pa.add(4)), vld1q_f32(pb.add(4))));
        }
        let mut lanes = [0.0f32; 8];
        vst1q_f32(lanes.as_mut_ptr(), lo);
        vst1q_f32(lanes.as_mut_ptr().add(4), hi);
        let mut tail = 0.0f32;
        for i in chunks * 8..n {
            tail += a[i] * b[i];
        }
        (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
            + tail
    }

    /// # Safety
    /// Caller must ensure the CPU supports NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn l1_distance(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let chunks = n / 8;
        let mut lo = vdupq_n_f32(0.0);
        let mut hi = vdupq_n_f32(0.0);
        for i in 0..chunks {
            let pa = a.as_ptr().add(i * 8);
            let pb = b.as_ptr().add(i * 8);
            lo = vaddq_f32(lo, vabsq_f32(vsubq_f32(vld1q_f32(pa), vld1q_f32(pb))));
            hi = vaddq_f32(
                hi,
                vabsq_f32(vsubq_f32(vld1q_f32(pa.add(4)), vld1q_f32(pb.add(4)))),
            );
        }
        let mut lanes = [0.0f32; 8];
        vst1q_f32(lanes.as_mut_ptr(), lo);
        vst1q_f32(lanes.as_mut_ptr().add(4), hi);
        let mut tail = 0.0f32;
        for i in chunks * 8..n {
            tail += (a[i] - b[i]).abs();
        }
        (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
            + tail
    }

    /// # Safety
    /// Caller must ensure the CPU supports NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
        let n = y.len().min(x.len());
        let chunks = n / 4;
        let va = vdupq_n_f32(alpha);
        for i in 0..chunks {
            let py = y.as_mut_ptr().add(i * 4);
            let vx = vld1q_f32(x.as_ptr().add(i * 4));
            vst1q_f32(py, vaddq_f32(vld1q_f32(py), vmulq_f32(va, vx)));
        }
        for i in chunks * 4..n {
            y[i] += alpha * x[i];
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let chunks = n / 8;
        let mut acc = vdupq_n_s32(0);
        for i in 0..chunks {
            let wa = vmovl_s8(vld1_s8(a.as_ptr().add(i * 8)));
            let wb = vmovl_s8(vld1_s8(b.as_ptr().add(i * 8)));
            acc = vaddq_s32(acc, vmull_s16(vget_low_s16(wa), vget_low_s16(wb)));
            acc = vaddq_s32(acc, vmull_high_s16(wa, wb));
        }
        let mut sum = vaddvq_s32(acc);
        for i in chunks * 8..n {
            sum += i32::from(a[i]) * i32::from(b[i]);
        }
        sum
    }

    /// # Safety
    /// Caller must ensure the CPU supports NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn l1_i8(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let chunks = n / 8;
        let mut acc = vdupq_n_s32(0);
        for i in 0..chunks {
            let wa = vmovl_s8(vld1_s8(a.as_ptr().add(i * 8)));
            let wb = vmovl_s8(vld1_s8(b.as_ptr().add(i * 8)));
            // |d| ≤ 254 fits i16; pairwise widen-accumulate into 4×i32.
            acc = vpadalq_s16(acc, vabsq_s16(vsubq_s16(wa, wb)));
        }
        let mut sum = vaddvq_s32(acc);
        for i in chunks * 8..n {
            sum += (i32::from(a[i]) - i32::from(b[i])).abs();
        }
        sum
    }

    /// # Safety
    /// Caller must ensure the CPU supports NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn mk4(a: [&[f32]; 4], packed: &[f32], nc_len: usize, o: [&mut [f32]; 4]) {
        let [a0, a1, a2, a3] = a;
        let [o0, o1, o2, o3] = o;
        let kc = a0.len().min(a1.len()).min(a2.len()).min(a3.len());
        let chunks = nc_len / 4;
        for kk in 0..kc {
            let brow = &packed[kk * nc_len..(kk + 1) * nc_len];
            let x0 = vdupq_n_f32(a0[kk]);
            let x1 = vdupq_n_f32(a1[kk]);
            let x2 = vdupq_n_f32(a2[kk]);
            let x3 = vdupq_n_f32(a3[kk]);
            for j in 0..chunks {
                let vb = vld1q_f32(brow.as_ptr().add(j * 4));
                let p0 = o0.as_mut_ptr().add(j * 4);
                let p1 = o1.as_mut_ptr().add(j * 4);
                let p2 = o2.as_mut_ptr().add(j * 4);
                let p3 = o3.as_mut_ptr().add(j * 4);
                vst1q_f32(p0, vaddq_f32(vld1q_f32(p0), vmulq_f32(x0, vb)));
                vst1q_f32(p1, vaddq_f32(vld1q_f32(p1), vmulq_f32(x1, vb)));
                vst1q_f32(p2, vaddq_f32(vld1q_f32(p2), vmulq_f32(x2, vb)));
                vst1q_f32(p3, vaddq_f32(vld1q_f32(p3), vmulq_f32(x3, vb)));
            }
            for j in chunks * 4..nc_len {
                o0[j] += a0[kk] * brow[j];
                o1[j] += a1[kk] * brow[j];
                o2[j] += a2[kk] * brow[j];
                o3[j] += a3[kk] * brow[j];
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn mk1(a_row: &[f32], packed: &[f32], nc_len: usize, out_row: &mut [f32]) {
        let chunks = nc_len / 4;
        for (kk, &x) in a_row.iter().enumerate() {
            let brow = &packed[kk * nc_len..(kk + 1) * nc_len];
            let vx = vdupq_n_f32(x);
            for j in 0..chunks {
                let p = out_row.as_mut_ptr().add(j * 4);
                let vb = vld1q_f32(brow.as_ptr().add(j * 4));
                vst1q_f32(p, vaddq_f32(vld1q_f32(p), vmulq_f32(vx, vb)));
            }
            for j in chunks * 4..nc_len {
                out_row[j] += x * brow[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_common::check::for_each_case;

    /// Every ISA worth testing on this host: scalar always, plus whatever
    /// the hardware offers (the dispatcher falls back to scalar for the
    /// rest, which would make those comparisons vacuous).
    fn isas() -> Vec<Isa> {
        [Isa::Scalar, Isa::Avx2, Isa::Neon]
            .into_iter()
            .filter(|i| i.available())
            .collect()
    }

    fn gen_vec(rng: &mut largeea_common::rng::Rng, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| {
                // Mix magnitudes so lane sums land on different exponents —
                // the regime where any reassociation would show up.
                let mag = 10f32.powi(rng.gen_range(-3..4));
                (rng.gen::<f64>() as f32 - 0.5) * mag
            })
            .collect()
    }

    #[test]
    fn active_isa_is_stable_and_named() {
        let isa = active_isa();
        assert_eq!(isa, active_isa(), "cached value must not change");
        assert!(["scalar", "avx2", "neon"].contains(&isa.name()));
        assert!(isa.available());
    }

    #[test]
    fn f32_kernels_bit_identical_across_isas() {
        for_each_case(0x000D_071D, 64, |rng| {
            let n = rng.gen_range(0..300usize);
            let a = gen_vec(rng, n);
            let b = gen_vec(rng, n);
            let alpha = (rng.gen::<f64>() as f32 - 0.5) * 4.0;
            let d_ref = scalar::dot(&a, &b);
            let l_ref = scalar::l1_distance(&a, &b);
            let mut y_ref = a.clone();
            scalar::axpy(&mut y_ref, alpha, &b);
            for isa in isas() {
                let d = dot_on(isa, &a, &b);
                assert_eq!(d.to_bits(), d_ref.to_bits(), "dot {} n={n}", isa.name());
                let l = l1_distance_on(isa, &a, &b);
                assert_eq!(l.to_bits(), l_ref.to_bits(), "l1 {} n={n}", isa.name());
                let mut y = a.clone();
                axpy_on(isa, &mut y, alpha, &b);
                let same = y
                    .iter()
                    .zip(&y_ref)
                    .all(|(x, r)| x.to_bits() == r.to_bits());
                assert!(same, "axpy {} n={n}", isa.name());
            }
        });
    }

    #[test]
    fn f32_kernels_truncate_to_shorter_slice() {
        let a: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..9).map(|i| (i * 2) as f32).collect();
        for isa in isas() {
            assert_eq!(
                dot_on(isa, &a, &b).to_bits(),
                scalar::dot(&a, &b).to_bits(),
                "{}",
                isa.name()
            );
            assert_eq!(
                l1_distance_on(isa, &b, &a).to_bits(),
                scalar::l1_distance(&b, &a).to_bits(),
                "{}",
                isa.name()
            );
        }
    }

    #[test]
    fn i8_kernels_match_wide_reference() {
        for_each_case(0x18_D07, 64, |rng| {
            let n = rng.gen_range(0..200usize);
            let a: Vec<i8> = (0..n).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
            let b: Vec<i8> = (0..n).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
            let dot_wide: i64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| i64::from(x) * i64::from(y))
                .sum();
            let l1_wide: i64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (i64::from(x) - i64::from(y)).abs())
                .sum();
            for isa in isas() {
                assert_eq!(
                    i64::from(dot_i8_on(isa, &a, &b)),
                    dot_wide,
                    "{}",
                    isa.name()
                );
                assert_eq!(i64::from(l1_i8_on(isa, &a, &b)), l1_wide, "{}", isa.name());
            }
        });
    }

    /// Every tile shape (1–4 query rows × 1–2 base rows) on every ISA must
    /// equal `nq × nb` calls of the scalar per-pair kernel, bit for bit.
    fn assert_tiles_match_scalar(rows: &[Vec<f32>], what: &str) {
        let (q, b) = rows.split_at(TILE_QUERIES);
        let q: Vec<&[f32]> = q.iter().map(Vec::as_slice).collect();
        let b: Vec<&[f32]> = b.iter().map(Vec::as_slice).collect();
        for isa in isas() {
            for nq in 1..=TILE_QUERIES {
                for nb in 1..=TILE_BASE {
                    let l1 = l1_tile_on(isa, &q[..nq], &b[..nb]);
                    let dt = dot_tile_on(isa, &q[..nq], &b[..nb]);
                    for i in 0..TILE_QUERIES {
                        for j in 0..TILE_BASE {
                            let (l_ref, d_ref) = if i < nq && j < nb {
                                (scalar::l1_distance(q[i], b[j]), scalar::dot(q[i], b[j]))
                            } else {
                                (0.0, 0.0)
                            };
                            let at = format!("{what} {} {nq}x{nb} [{i}][{j}]", isa.name());
                            assert_eq!(l1[i][j].to_bits(), l_ref.to_bits(), "l1 tile {at}");
                            assert_eq!(dt[i][j].to_bits(), d_ref.to_bits(), "dot tile {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tile_kernels_bit_identical_to_scalar_pairs() {
        for_each_case(0x711E, 24, |rng| {
            for dim in [1, 7, 8, 9, 64, 128, 130] {
                let rows: Vec<Vec<f32>> = (0..TILE_QUERIES + TILE_BASE)
                    .map(|_| gen_vec(rng, dim))
                    .collect();
                assert_tiles_match_scalar(&rows, &format!("dim={dim}"));
            }
        });
    }

    #[test]
    fn tile_kernels_propagate_special_values_identically() {
        // The platform's default NaN (what `0 · ∞` and `∞ − ∞` produce), so
        // every NaN a kernel can meet carries one payload: IEEE-754 leaves
        // the payload of `NaN + NaN` to operand order, which no kernel
        // (nor the compiler) promises.
        let nan = std::hint::black_box(0.0f32) * std::hint::black_box(f32::INFINITY);
        let specials = [nan, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, 1.5];
        for_each_case(0x5BEC, 48, |rng| {
            for dim in [1, 7, 8, 9, 64, 130] {
                let rows: Vec<Vec<f32>> = (0..TILE_QUERIES + TILE_BASE)
                    .map(|_| {
                        (0..dim)
                            .map(|_| specials[rng.gen_range(0..specials.len())])
                            .collect()
                    })
                    .collect();
                assert_tiles_match_scalar(&rows, &format!("specials dim={dim}"));
            }
        });
    }

    #[test]
    #[should_panic(expected = "tile rows must have equal length")]
    fn tile_rejects_ragged_rows() {
        l1_tile_on(Isa::Scalar, &[&[1.0, 2.0]], &[&[1.0]]);
    }

    #[test]
    #[should_panic(expected = "exceeds 4x2")]
    fn tile_rejects_oversized_sides() {
        let r: &[f32] = &[0.0];
        dot_tile_on(active_isa(), &[r], &[r, r, r]);
    }

    #[test]
    fn special_values_propagate_identically() {
        let a = [f32::NAN, 1.0, f32::INFINITY, -2.5, 0.0, -0.0, 3.0, 4.0, 9.0];
        let b = [2.0, f32::NEG_INFINITY, 0.5, -2.5, 1.0, 7.0, -3.0, 0.0, 1.0];
        for isa in isas() {
            assert_eq!(
                dot_on(isa, &a, &b).to_bits(),
                scalar::dot(&a, &b).to_bits(),
                "{}",
                isa.name()
            );
            assert_eq!(
                l1_distance_on(isa, &a, &b).to_bits(),
                scalar::l1_distance(&a, &b).to_bits(),
                "{}",
                isa.name()
            );
        }
    }
}
