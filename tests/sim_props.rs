//! Property-based tests for the similarity-search substrate.

use largeea::common::check::for_each_case;
use largeea::common::obs::Recorder;
use largeea::common::rng::Rng;
use largeea::sim::{segmented_topk_traced, topk_search, Metric, SparseSimMatrix};
use largeea::tensor::Matrix;

fn random_matrix(rng: &mut Rng, max_rows: usize, cols: usize) -> Matrix {
    let rows = rng.gen_range(1..=max_rows);
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-10.0f32..10.0))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Brute-force top-k used as the oracle.
fn brute_topk(q: &Matrix, base: &Matrix, k: usize, metric: Metric) -> Vec<Vec<(u32, f32)>> {
    (0..q.rows())
        .map(|i| {
            let mut scored: Vec<(u32, f32)> = (0..base.rows())
                .map(|j| (j as u32, metric.similarity(q.row(i), base.row(j))))
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            scored.truncate(k);
            scored
        })
        .collect()
}

#[test]
fn topk_matches_brute_force() {
    for_each_case(0x5101, 40, |rng| {
        let q = random_matrix(rng, 12, 4);
        let base = random_matrix(rng, 20, 4);
        let k = rng.gen_range(1..6usize);
        for metric in [Metric::Manhattan, Metric::InnerProduct] {
            let fast = topk_search(&q, &base, k, metric);
            let oracle = brute_topk(&q, &base, k, metric);
            assert_eq!(&fast, &oracle);
        }
    });
}

#[test]
fn segmented_equals_plain() {
    for_each_case(0x5102, 40, |rng| {
        let q = random_matrix(rng, 15, 3);
        let base = random_matrix(rng, 25, 3);
        let k = rng.gen_range(1..5usize);
        let segments = rng.gen_range(1..6usize);
        let plain = topk_search(&q, &base, k, Metric::Manhattan);
        let seg = segmented_topk_traced(
            &q,
            &base,
            k,
            Metric::Manhattan,
            segments,
            &Recorder::disabled(),
        );
        assert_eq!(plain, seg);
    });
}

fn random_sparse(rng: &mut Rng, rows: usize, cols: usize) -> SparseSimMatrix {
    let entries = rng.gen_range(0..rows * 4);
    let mut m = SparseSimMatrix::new(rows, cols);
    for _ in 0..entries {
        m.insert(
            rng.gen_range(0..rows),
            rng.gen_range(0..cols as u32),
            rng.gen_range(-5.0f32..5.0),
        );
    }
    m
}

#[test]
fn sparse_add_is_commutative() {
    for_each_case(0x5103, 64, |rng| {
        let a = random_sparse(rng, 8, 8);
        let b = random_sparse(rng, 8, 8);
        let ab = a.add(&b);
        let ba = b.add(&a);
        for r in 0..8 {
            for (c, s) in ab.row(r) {
                let other = ba.get(r, *c).expect("entry present both ways");
                assert!((s - other).abs() < 1e-5);
            }
        }
    });
}

#[test]
fn sparse_add_identity_is_noop() {
    for_each_case(0x5104, 64, |rng| {
        let a = random_sparse(rng, 6, 6);
        let zero = SparseSimMatrix::new(6, 6);
        assert_eq!(a.add(&zero), a);
    });
}

#[test]
fn truncate_topk_keeps_highest() {
    for_each_case(0x5105, 64, |rng| {
        let a = random_sparse(rng, 6, 12);
        let k = rng.gen_range(1..4usize);
        let mut t = a.clone();
        t.truncate_topk(k);
        for r in 0..6 {
            assert!(t.row(r).len() <= k);
            // every kept entry must be >= every dropped entry
            let kept_min = t
                .row(r)
                .iter()
                .map(|&(_, s)| s)
                .fold(f32::INFINITY, f32::min);
            for &(c, s) in a.row(r) {
                if t.get(r, c).is_none() && t.row(r).len() == k {
                    assert!(s <= kept_min + 1e-6);
                }
            }
        }
    });
}

#[test]
fn mutual_top1_pairs_are_mutual() {
    for_each_case(0x5106, 64, |rng| {
        let a = random_sparse(rng, 8, 8);
        for (r, c) in a.mutual_top1() {
            assert_eq!(a.best(r as usize).expect("row has entries").0, c);
            // no other row may point at c with a higher score
            let score = a.get(r as usize, c).unwrap();
            for other in 0..8 {
                if other != r as usize {
                    if let Some(s) = a.get(other, c) {
                        assert!(s <= score + 1e-6);
                    }
                }
            }
        }
    });
}

#[test]
fn mutual_top1_is_one_to_one() {
    for_each_case(0x5107, 64, |rng| {
        let a = random_sparse(rng, 10, 10);
        let pairs = a.mutual_top1();
        let mut rows: Vec<u32> = pairs.iter().map(|&(r, _)| r).collect();
        let mut cols: Vec<u32> = pairs.iter().map(|&(_, c)| c).collect();
        rows.sort_unstable();
        cols.sort_unstable();
        let (rl, cl) = (rows.len(), cols.len());
        rows.dedup();
        cols.dedup();
        assert_eq!(rows.len(), rl);
        assert_eq!(cols.len(), cl);
    });
}

#[test]
fn global_normalization_preserves_ranking() {
    for_each_case(0x5108, 64, |rng| {
        let a = random_sparse(rng, 6, 8);
        let mut n = a.clone();
        n.normalize_global_minmax();
        for r in 0..6 {
            if let (Some(ba), Some(bn)) = (a.best(r), n.best(r)) {
                assert_eq!(ba.0, bn.0, "row {} best changed", r);
            }
            for (c, s) in n.row(r) {
                assert!((0.0..=1.0).contains(s), "score {} out of range", s);
                let _ = c;
            }
        }
    });
}
