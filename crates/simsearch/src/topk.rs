//! Exact blocked top-k similarity search — the Faiss substitute.
//!
//! Every exact search in this module runs one scan loop ([`scan`]): row
//! segments are scored tile by tile with the register-tiled kernels
//! ([`kernels::l1_tile_on`] / [`kernels::dot_tile_on`], DESIGN.md §S0.11)
//! into bounded [`TopK`] collectors. The public entry points differ only in
//! where the segments come from (resident matrices or loaders) and whether
//! the scan is traced.

use largeea_common::obs::{Level, Recorder};
use largeea_tensor::kernels::{self, Isa, Tile, TILE_BASE, TILE_QUERIES};
use largeea_tensor::parallel::Pool;
use largeea_tensor::{active_isa, dot, l1_distance, Matrix};
use std::borrow::Cow;
use std::convert::Infallible;
use std::ops::Range;

/// Similarity metric for the search. All variants are expressed as
/// *similarities* (larger is better); distances are negated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Negative Manhattan (L1) distance — the paper's metric for both SENS
    /// and the structure channel.
    Manhattan,
    /// Inner product; equals cosine similarity when rows are L2-normalised.
    InnerProduct,
}

impl Metric {
    /// Similarity between two equal-length vectors, one pair at a time,
    /// via the dispatched per-pair kernels ([`l1_distance`] / [`dot`]).
    /// The exact scans in this module score whole tiles instead
    /// ([`kernels::l1_tile_on`] / [`kernels::dot_tile_on`]), which are
    /// bit-identical to this function pair by pair; the per-pair form
    /// serves reference checks.
    ///
    /// Length discipline: the kernels truncate to the shorter slice, so a
    /// mismatched call silently scores a prefix. The public `topk` entry
    /// points therefore reject mismatched dimensionality with a documented
    /// panic *before* any scoring; this function keeps only a
    /// `debug_assert` so release builds pay no per-pair branch.
    #[inline]
    pub fn similarity(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len(), "similarity length mismatch");
        match self {
            Metric::Manhattan => -l1_distance(a, b),
            Metric::InnerProduct => dot(a, b),
        }
    }

    /// [`Metric::similarity`] of every pair of a tile on `isa`,
    /// bit-identical to it pair by pair (negating a distance is exact).
    #[inline]
    fn tile(self, isa: Isa, queries: &[&[f32]], base: &[&[f32]]) -> Tile {
        match self {
            Metric::Manhattan => kernels::l1_tile_on(isa, queries, base).map(|r| r.map(|d| -d)),
            Metric::InnerProduct => kernels::dot_tile_on(isa, queries, base),
        }
    }
}

/// A bounded max-similarity collector: keeps the `k` best `(id, score)`
/// entries seen, implemented as a small binary min-heap under the **total**
/// order (score, then lowest-id-wins on equal scores).
///
/// Tie discipline (pinned by `ties_prefer_lowest_id_at_any_width`): the
/// retained set is exactly the first `k` of a (descending score, ascending
/// id) sort of everything pushed — independent of push order, thread
/// width, or segmenting. The heap orders ties too (among equal scores the
/// *highest* id is the eviction victim), because a score-only heap leaves
/// the survivor among tied minima at the mercy of eviction history.
struct TopK {
    k: usize,
    heap: Vec<(f32, u32)>, // min-heap under `worse`
    /// The root's score once `heap` is full, `-∞` before: what
    /// [`TopK::admits`] compares against.
    floor: f32,
}

/// Total-order "is `a` worse than `b`": lower score loses; equal scores,
/// higher id loses. (NaN never arises: scores are finite similarities.)
#[inline]
fn worse(a: (f32, u32), b: (f32, u32)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 > b.1)
}

impl TopK {
    fn new(k: usize) -> Self {
        Self {
            k,
            heap: Vec::with_capacity(k + 1),
            floor: f32::NEG_INFINITY,
        }
    }

    /// Fast reject for hot loops: `false` only when the collector is full
    /// and `score` is strictly below the worst retained score — a subset
    /// of the pushes [`TopK::push`] rejects, so skipping them changes
    /// nothing.
    #[inline]
    fn admits(&self, score: f32) -> bool {
        score.partial_cmp(&self.floor) != Some(std::cmp::Ordering::Less)
    }

    #[inline]
    fn push(&mut self, id: u32, score: f32) {
        if self.heap.len() < self.k {
            self.heap.push((score, id));
            let mut i = self.heap.len() - 1;
            while i > 0 {
                let p = (i - 1) / 2;
                if !worse(self.heap[i], self.heap[p]) {
                    break;
                }
                self.heap.swap(p, i);
                i = p;
            }
            if self.heap.len() == self.k {
                self.floor = self.heap[0].0;
            }
        } else if worse(self.heap[0], (score, id)) {
            self.heap[0] = (score, id);
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut min = i;
                if l < self.heap.len() && worse(self.heap[l], self.heap[min]) {
                    min = l;
                }
                if r < self.heap.len() && worse(self.heap[r], self.heap[min]) {
                    min = r;
                }
                if min == i {
                    break;
                }
                self.heap.swap(i, min);
                i = min;
            }
            self.floor = self.heap[0].0;
        }
    }

    /// Drains into `(id, score)` pairs sorted by descending score
    /// (ties broken by ascending id for determinism).
    fn into_sorted(self) -> Vec<(u32, f32)> {
        let mut v: Vec<(u32, f32)> = self.heap.into_iter().map(|(s, i)| (i, s)).collect();
        v.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        v
    }
}

/// For each row of `queries`, finds the `k` most similar rows of `base`
/// under `metric`. Exact (no approximation), parallel over query blocks.
///
/// Returns one descending-sorted `(base_row, score)` list per query row.
///
/// # Panics
///
/// If `queries.cols() != base.cols()` ("query/base dimensionality
/// mismatch") or `k == 0` ("k must be at least 1") — checked up front so
/// no mismatched pair is ever silently prefix-scored (see
/// [`Metric::similarity`]).
pub fn topk_search(
    queries: &Matrix,
    base: &Matrix,
    k: usize,
    metric: Metric,
) -> Vec<Vec<(u32, f32)>> {
    topk_search_in(queries, base, k, metric, Pool::global())
}

/// [`topk_search`] on an explicit pool, so tests can pin the width. Each
/// query row's candidate scan is independent and collected in row order,
/// so results are bit-identical for any thread count.
///
/// # Panics
///
/// Same contract as [`topk_search`].
pub fn topk_search_in(
    queries: &Matrix,
    base: &Matrix,
    k: usize,
    metric: Metric,
    pool: &Pool,
) -> Vec<Vec<(u32, f32)>> {
    scan_resident(queries, base, k, metric, 1, pool, &Recorder::disabled())
}

/// Segment-at-a-time top-k search mirroring the paper's SENS memory layout:
/// both matrices are split into `num_segments` row ranges and each query
/// segment is searched against one base segment at a time, so only
/// `O(segment²)` candidate scores are ever live while the retained output
/// stays `O(k · |queries|)`. Functionally identical to [`topk_search`]
/// (both are exact).
///
/// Each segment pair is a `sens_block` span ([`Level::Trace`]) with
/// `q_start`/`q_rows`/`b_start`/`b_rows`/`scored` fields, and totals land
/// in the `sens.blocks` / `sens.candidates_scored` counters (pass
/// [`Recorder::disabled`] for none).
///
/// # Panics
///
/// If `queries.cols() != base.cols()` ("query/base dimensionality
/// mismatch"), `k == 0` ("k must be at least 1") or `num_segments == 0`.
pub fn segmented_topk_traced(
    queries: &Matrix,
    base: &Matrix,
    k: usize,
    metric: Metric,
    num_segments: usize,
    rec: &Recorder,
) -> Vec<Vec<(u32, f32)>> {
    scan_resident(queries, base, k, metric, num_segments, Pool::global(), rec)
}

/// [`segmented_topk_traced`] over segments the caller supplies one at a
/// time: instead of borrowing whole embedding matrices, the scan asks the
/// loaders for one row segment at a time, so at most one query segment and
/// one base segment need be resident. A loader either lends a segment it
/// holds ([`Cow::Borrowed`], nothing copied) or materialises one
/// ([`Cow::Owned`], typically a spilled `LEAM1` frame streamed back in —
/// DESIGN.md §S0.8).
///
/// Both paths run the same scan over the same segment arithmetic, and the
/// segments must be row slices of the same `dim`-column matrices — so every
/// score is computed from identical floats by the identical kernel, and the
/// result is **bit-identical** to [`segmented_topk_traced`] (asserted by
/// `streamed_matches_in_ram_traced`). Loader errors abort the search.
///
/// # Panics
///
/// If `k == 0` ("k must be at least 1") or `num_segments == 0`, or if a
/// loader returns a segment whose row count differs from the requested
/// range ("… segment row count") or whose column count is not `dim`
/// ("segment dim mismatch").
#[allow(clippy::too_many_arguments)] // mirrors segmented_topk_traced plus dim and two loaders
pub fn segmented_topk_streamed<'a, E>(
    n_queries: usize,
    n_base: usize,
    dim: usize,
    k: usize,
    metric: Metric,
    num_segments: usize,
    rec: &Recorder,
    mut load_queries: impl FnMut(Range<usize>) -> Result<Cow<'a, Matrix>, E>,
    mut load_base: impl FnMut(Range<usize>) -> Result<Cow<'a, Matrix>, E>,
) -> Result<Vec<Vec<(u32, f32)>>, E> {
    scan(
        (n_queries, n_base),
        (dim, dim),
        k,
        metric,
        num_segments,
        Pool::global(),
        rec,
        |r| load_queries(r).map(Segment::whole),
        |r| load_base(r).map(Segment::whole),
    )
}

/// Rows handed to [`scan`]: a row range of a matrix that is borrowed (a
/// resident matrix, or a segment a loader lent) or owned (a segment a
/// loader materialised). Only an owned segment is a copy.
struct Segment<'a> {
    m: Cow<'a, Matrix>,
    rows: Range<usize>,
}

impl<'a> Segment<'a> {
    /// Rows `rows` of a resident matrix.
    fn borrowed(m: &'a Matrix, rows: Range<usize>) -> Self {
        let m = Cow::Borrowed(m);
        Segment { m, rows }
    }

    /// All rows of a segment a loader returned.
    fn whole(m: Cow<'a, Matrix>) -> Self {
        Segment {
            rows: 0..m.rows(),
            m,
        }
    }

    /// Row-major data of exactly this segment's rows.
    fn data(&self) -> &[f32] {
        &self.m.as_slice()[self.rows.start * self.m.cols()..self.rows.end * self.m.cols()]
    }
}

/// [`scan`] over two resident matrices, whose segments are borrowed row
/// ranges — nothing is copied and nothing can fail.
fn scan_resident(
    queries: &Matrix,
    base: &Matrix,
    k: usize,
    metric: Metric,
    num_segments: usize,
    pool: &Pool,
    rec: &Recorder,
) -> Vec<Vec<(u32, f32)>> {
    let hits = scan(
        (queries.rows(), base.rows()),
        (queries.cols(), base.cols()),
        k,
        metric,
        num_segments,
        pool,
        rec,
        |r| Ok::<_, Infallible>(Segment::borrowed(queries, r)),
        |r| Ok(Segment::borrowed(base, r)),
    );
    match hits {
        Ok(hits) => hits,
        Err(never) => match never {},
    }
}

/// The one exact scan behind every public search. Both sides are split
/// into `num_segments` row segments; for each base segment (outer) and
/// query segment (inner) a `sens_block` span times [`scan_block`], which
/// scores the pair straight into the queries' running collectors — so
/// only one segment pair is ever resident, and a later segment's scores
/// meet the floor the earlier ones set. `sens.blocks` /
/// `sens.candidates_scored` count the pairs.
///
/// # Panics
///
/// On entry, if the query and base dimensionalities differ ("query/base
/// dimensionality mismatch"), `k == 0` ("k must be at least 1") or
/// `num_segments == 0`; later, if a loader returns the wrong number of
/// rows or columns.
#[allow(clippy::too_many_arguments)] // the union of every entry point's inputs
fn scan<'a, E>(
    (n_q, n_b): (usize, usize),
    (q_dim, b_dim): (usize, usize),
    k: usize,
    metric: Metric,
    num_segments: usize,
    pool: &Pool,
    rec: &Recorder,
    mut load_q: impl FnMut(Range<usize>) -> Result<Segment<'a>, E>,
    mut load_b: impl FnMut(Range<usize>) -> Result<Segment<'a>, E>,
) -> Result<Vec<Vec<(u32, f32)>>, E> {
    assert_eq!(q_dim, b_dim, "query/base dimensionality mismatch");
    assert!(k >= 1, "k must be at least 1");
    assert!(num_segments >= 1, "need at least one segment");
    let isa = active_isa();
    let q_seg = n_q.div_ceil(num_segments).max(1);
    let b_seg = n_b.div_ceil(num_segments).max(1);
    let mut tops: Vec<TopK> = (0..n_q).map(|_| TopK::new(k)).collect();
    let mut blocks_done = 0u64;
    let mut total_scored = 0u64;

    for b_start in (0..n_b).step_by(b_seg) {
        let b_end = (b_start + b_seg).min(n_b);
        let b_block = load_b(b_start..b_end)?;
        assert_eq!(
            b_block.rows.len(),
            b_end - b_start,
            "base segment row count"
        );
        assert_eq!(b_block.m.cols(), b_dim, "segment dim mismatch");
        for q_start in (0..n_q).step_by(q_seg) {
            let q_end = (q_start + q_seg).min(n_q);
            let q_block = load_q(q_start..q_end)?;
            assert_eq!(
                q_block.rows.len(),
                q_end - q_start,
                "query segment row count"
            );
            assert_eq!(q_block.m.cols(), q_dim, "segment dim mismatch");
            let mut span = rec.span_at(Level::Trace, "sens_block");
            scan_block(
                &mut tops[q_start..q_end],
                &q_block,
                &b_block,
                b_start,
                metric,
                isa,
                pool,
            );
            let scored = ((q_end - q_start) * (b_end - b_start)) as u64;
            span.field("q_start", q_start);
            span.field("q_rows", q_end - q_start);
            span.field("b_start", b_start);
            span.field("b_rows", b_end - b_start);
            span.field("scored", scored);
            blocks_done += 1;
            total_scored += scored;
        }
    }
    rec.add("sens.blocks", blocks_done);
    rec.add("sens.candidates_scored", total_scored);
    Ok(tops.into_iter().map(TopK::into_sorted).collect())
}

/// Bytes of base rows [`scan_block`] keeps hot at a time: half of a
/// typical 48 KiB L1d, leaving room for the query tile.
const BASE_CHUNK_BYTES: usize = 24 << 10;

/// Scores every row of `q` against every row of `b` (base ids offset by
/// `b_id0`) into `tops`, one collector per query row. Query rows are
/// spread over `pool` and scored in tiles of [`TILE_QUERIES`]. Each task
/// walks the base in chunks of about [`BASE_CHUNK_BYTES`] and sweeps all
/// its query tiles over a chunk before the next, so base rows come from L1
/// rather than being re-streamed from memory per tile; within a chunk the
/// base rows pass the tile [`TILE_BASE`] at a time, and only scores that
/// pass [`TopK::admits`] reach the heap.
fn scan_block(
    tops: &mut [TopK],
    q: &Segment,
    b: &Segment,
    b_id0: usize,
    metric: Metric,
    isa: Isa,
    pool: &Pool,
) {
    fn row(data: &[f32], dim: usize, i: usize) -> &[f32] {
        &data[i * dim..(i + 1) * dim]
    }
    let dim = q.m.cols();
    let (q_data, b_data) = (q.data(), b.data());
    let (n_q, n_b) = (q.rows.len(), b.rows.len());
    let chunk_rows = (BASE_CHUNK_BYTES / (dim.max(1) * std::mem::size_of::<f32>())).max(TILE_BASE)
        / TILE_BASE
        * TILE_BASE;
    pool.rows_mut(tops, 1, 32, |tops, first| {
        for chunk in (0..n_b).step_by(chunk_rows) {
            let chunk_end = (chunk + chunk_rows).min(n_b);
            for (t, tile_tops) in tops.chunks_mut(TILE_QUERIES).enumerate() {
                let q0 = first + t * TILE_QUERIES;
                let qs: [&[f32]; TILE_QUERIES] =
                    std::array::from_fn(|i| row(q_data, dim, (q0 + i).min(n_q - 1)));
                let qs = &qs[..tile_tops.len()];
                for b0 in (chunk..chunk_end).step_by(TILE_BASE) {
                    let bs: [&[f32]; TILE_BASE] =
                        std::array::from_fn(|j| row(b_data, dim, (b0 + j).min(n_b - 1)));
                    let nb = TILE_BASE.min(n_b - b0);
                    let scores = metric.tile(isa, qs, &bs[..nb]);
                    for (top, scores) in tile_tops.iter_mut().zip(&scores) {
                        for (j, &s) in scores[..nb].iter().enumerate() {
                            if top.admits(s) {
                                top.push((b_id0 + b0 + j) as u32, s);
                            }
                        }
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Matrix {
        Matrix::from_vec(
            4,
            2,
            vec![
                0.0, 0.0, // 0
                1.0, 0.0, // 1
                0.0, 2.0, // 2
                3.0, 3.0, // 3
            ],
        )
    }

    #[test]
    fn manhattan_nearest_is_self() {
        let b = base();
        let res = topk_search(&b, &b, 1, Metric::Manhattan);
        for (i, hits) in res.iter().enumerate() {
            assert_eq!(hits[0].0 as usize, i);
            assert_eq!(hits[0].1, 0.0);
        }
    }

    #[test]
    fn topk_is_sorted_descending() {
        let q = Matrix::from_vec(1, 2, vec![0.9, 0.1]);
        let res = topk_search(&q, &base(), 3, Metric::Manhattan);
        let hits = &res[0];
        assert_eq!(hits.len(), 3);
        assert!(hits.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(hits[0].0, 1); // (1,0) is nearest
    }

    #[test]
    fn k_larger_than_base_returns_all() {
        let q = Matrix::from_vec(1, 2, vec![0.0, 0.0]);
        let res = topk_search(&q, &base(), 10, Metric::Manhattan);
        assert_eq!(res[0].len(), 4);
    }

    #[test]
    fn inner_product_prefers_aligned() {
        let q = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let res = topk_search(&q, &base(), 1, Metric::InnerProduct);
        assert_eq!(res[0][0].0, 3);
    }

    #[test]
    fn segmented_matches_plain_search() {
        // pseudo-random matrices
        let mut s = 1u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f32 / u32::MAX as f32) - 0.5
        };
        let q = Matrix::from_fn(37, 8, |_, _| next());
        let b = Matrix::from_fn(53, 8, |_, _| next());
        for segs in [1, 2, 3, 7] {
            let plain = topk_search(&q, &b, 5, Metric::Manhattan);
            let seg =
                segmented_topk_traced(&q, &b, 5, Metric::Manhattan, segs, &Recorder::disabled());
            assert_eq!(plain, seg, "segments={segs}");
        }
    }

    #[test]
    fn traced_segmented_records_block_spans() {
        use largeea_common::obs::{ObsConfig, Recorder};
        let q = Matrix::from_fn(10, 4, |i, j| (i * 4 + j) as f32);
        let b = Matrix::from_fn(12, 4, |i, j| (i + j) as f32);
        let rec = Recorder::new(ObsConfig::default());
        let traced = segmented_topk_traced(&q, &b, 3, Metric::Manhattan, 2, &rec);
        assert_eq!(traced, topk_search(&q, &b, 3, Metric::Manhattan));
        let t = rec.trace();
        assert_eq!(t.span_count("sens_block"), 4, "2 × 2 segment pairs");
        assert_eq!(t.counter("sens.blocks"), 4);
        assert_eq!(t.counter("sens.candidates_scored"), 10 * 12);
    }

    /// Materialises the row range `r` of `m` as its own matrix — what a
    /// spill loader does when streaming a segment back from disk.
    fn slice_rows(m: &Matrix, r: std::ops::Range<usize>) -> Matrix {
        let ids: Vec<u32> = r.map(|i| i as u32).collect();
        m.gather_rows(&ids)
    }

    #[test]
    fn streamed_matches_in_ram_traced() {
        use largeea_common::obs::{ObsConfig, Recorder};
        let mut s = 9u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f32 / u32::MAX as f32) - 0.5
        };
        for (nq, nb, segs) in [(37, 53, 4), (8, 8, 1), (20, 5, 3), (5, 41, 7)] {
            let q = Matrix::from_fn(nq, 6, |_, _| next());
            let b = Matrix::from_fn(nb, 6, |_, _| next());
            let rec = Recorder::new(ObsConfig::default());
            let in_ram = segmented_topk_traced(&q, &b, 4, Metric::Manhattan, segs, &rec);
            // queries are materialised per load, base segments are lent
            // from segments held elsewhere — both must score identically
            let b_seg = nb.div_ceil(segs);
            let lent: Vec<Matrix> = (0..nb)
                .step_by(b_seg)
                .map(|i| slice_rows(&b, i..(i + b_seg).min(nb)))
                .collect();
            let rec2 = Recorder::new(ObsConfig::default());
            let streamed = segmented_topk_streamed(
                nq,
                nb,
                6,
                4,
                Metric::Manhattan,
                segs,
                &rec2,
                |r| Ok::<_, std::io::Error>(Cow::Owned(slice_rows(&q, r))),
                |r| Ok(Cow::Borrowed(&lent[r.start / b_seg])),
            )
            .unwrap();
            assert_eq!(streamed, in_ram, "nq={nq} nb={nb} segs={segs}");
            // identical telemetry: same blocks, same candidate count
            assert_eq!(
                rec2.trace().counter("sens.blocks"),
                rec.trace().counter("sens.blocks")
            );
            assert_eq!(
                rec2.trace().counter("sens.candidates_scored"),
                rec.trace().counter("sens.candidates_scored")
            );
        }
    }

    #[test]
    fn streamed_propagates_loader_errors() {
        let err = segmented_topk_streamed(
            10,
            10,
            3,
            2,
            Metric::Manhattan,
            2,
            &Recorder::disabled(),
            |_| Err(std::io::Error::other("disk on fire")),
            |r| Ok(Cow::Owned(Matrix::zeros(r.len(), 3))),
        )
        .unwrap_err();
        assert!(err.to_string().contains("disk on fire"));
    }

    #[test]
    fn ties_break_by_ascending_id() {
        let q = Matrix::from_vec(1, 1, vec![0.0]);
        let b = Matrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]);
        let res = topk_search(&q, &b, 3, Metric::Manhattan);
        let ids: Vec<u32> = res[0].iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dim_mismatch_panics() {
        topk_search(
            &Matrix::zeros(1, 2),
            &Matrix::zeros(1, 3),
            1,
            Metric::Manhattan,
        );
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn segmented_dim_mismatch_panics() {
        segmented_topk_traced(
            &Matrix::zeros(4, 5),
            &Matrix::zeros(4, 6),
            2,
            Metric::Manhattan,
            2,
            &Recorder::disabled(),
        );
    }

    #[test]
    fn ties_prefer_lowest_id_at_any_width() {
        use largeea_common::check::for_each_case;
        // Scores drawn from a handful of distinct values force heavy ties;
        // the collector must keep the lowest ids among equals at every
        // thread width and segmenting, matching a naive (-score, id) sort
        // of per-pair similarities. The shapes also leave partial tiles on
        // either side (nq % 4 != 0, odd nb), ask for k beyond the base, and
        // use dims with and without a sub-chunk tail, so the tiled scan
        // must equal the per-pair kernel everywhere.
        for_each_case(0x7195, 40, |rng| {
            let nq = rng.gen_range(1..16usize);
            let nb = rng.gen_range(1..40usize);
            let k = rng.gen_range(1..nb + 4);
            let dim = [1, 3, 8, 9, 17][rng.gen_range(0..5usize)];
            let q = Matrix::from_fn(nq, dim, |_, _| rng.gen_range(-2i32..3) as f32);
            let b = Matrix::from_fn(nb, dim, |_, _| rng.gen_range(-2i32..3) as f32);
            for metric in [Metric::Manhattan, Metric::InnerProduct] {
                let expect: Vec<Vec<(u32, f32)>> = (0..nq)
                    .map(|qi| {
                        let mut scored: Vec<(u32, f32)> = (0..nb)
                            .map(|bi| (bi as u32, metric.similarity(q.row(qi), b.row(bi))))
                            .collect();
                        scored.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
                        scored.truncate(k);
                        scored
                    })
                    .collect();
                let at = format!("{metric:?} nq={nq} nb={nb} k={k} dim={dim}");
                for width in [1, 2, 4] {
                    let got = topk_search_in(&q, &b, k, metric, &Pool::new(width));
                    assert_eq!(got, expect, "width={width} {at}");
                }
                for segs in [1, 3] {
                    let got = segmented_topk_traced(&q, &b, k, metric, segs, &Recorder::disabled());
                    assert_eq!(got, expect, "segments={segs} {at}");
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn topk_search_rejects_k_zero() {
        topk_search(
            &Matrix::zeros(3, 2),
            &Matrix::zeros(5, 2),
            0,
            Metric::Manhattan,
        );
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn traced_rejects_k_zero() {
        segmented_topk_traced(
            &Matrix::zeros(3, 2),
            &Matrix::zeros(5, 2),
            0,
            Metric::InnerProduct,
            2,
            &Recorder::disabled(),
        );
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn streamed_rejects_k_zero() {
        let _ = segmented_topk_streamed(
            3,
            5,
            2,
            0,
            Metric::Manhattan,
            2,
            &Recorder::disabled(),
            |r| Ok::<_, std::io::Error>(Cow::Owned(Matrix::zeros(r.len(), 2))),
            |r| Ok(Cow::Owned(Matrix::zeros(r.len(), 2))),
        );
    }

    #[test]
    #[should_panic(expected = "segment dim mismatch")]
    fn streamed_rejects_a_segment_of_the_wrong_dim() {
        let _ = segmented_topk_streamed(
            3,
            5,
            2,
            1,
            Metric::Manhattan,
            2,
            &Recorder::disabled(),
            |r| Ok::<_, std::io::Error>(Cow::Owned(Matrix::zeros(r.len(), 2))),
            |r| Ok(Cow::Owned(Matrix::zeros(r.len(), 3))),
        );
    }

    #[test]
    fn empty_base_gives_empty_hits() {
        let res = topk_search(
            &Matrix::zeros(2, 4),
            &Matrix::zeros(0, 4),
            3,
            Metric::Manhattan,
        );
        assert!(res.iter().all(Vec::is_empty));
    }
}
