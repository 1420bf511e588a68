//! Property-based gradient checks: the tape's analytic gradients must match
//! central finite differences for randomly composed expressions.

use largeea::common::check::for_each_case;
use largeea::common::rng::Rng;
use largeea::tensor::{Matrix, Tape};
use std::rc::Rc;

fn random_param(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-2.0f32..2.0))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Picks one of several expression builders over a 3×3 parameter.
#[derive(Debug, Clone, Copy)]
enum Expr {
    MatmulRelu,
    GatherL1,
    NormalizeDot,
    TanhScale,
    HStackMul,
}

const EXPRS: [Expr; 5] = [
    Expr::MatmulRelu,
    Expr::GatherL1,
    Expr::NormalizeDot,
    Expr::TanhScale,
    Expr::HStackMul,
];

fn build(expr: Expr, tape: &mut Tape, p: largeea::tensor::Var) -> largeea::tensor::Var {
    match expr {
        Expr::MatmulRelu => {
            let c = tape.constant(&Matrix::from_fn(3, 3, |r, c| {
                ((r + 2 * c) % 3) as f32 - 1.0
            }));
            let h = tape.matmul(p, c);
            let h = tape.relu(h);
            tape.sum_all(h)
        }
        Expr::GatherL1 => {
            let a = tape.gather_rows(p, Rc::new(vec![0, 2]));
            let b = tape.gather_rows(p, Rc::new(vec![1, 1]));
            let d = tape.row_l1(a, b);
            let d = tape.add_scalar(d, 0.5);
            let d = tape.relu(d);
            tape.sum_all(d)
        }
        Expr::NormalizeDot => {
            let n = tape.l2_normalize_rows(p, 1e-6);
            let c = tape.constant(&Matrix::from_fn(3, 3, |r, c| (r * c) as f32 * 0.1 + 0.2));
            let d = tape.row_dot(n, c);
            tape.sum_all(d)
        }
        Expr::TanhScale => {
            let t = tape.tanh(p);
            let s = tape.scale(t, 1.5);
            tape.mean_all(s)
        }
        Expr::HStackMul => {
            let c = tape.constant(&Matrix::from_fn(3, 3, |r, c| ((r + c) % 2) as f32 - 0.5));
            let h = tape.hstack(p, c);
            let hh = tape.mul_elem(h, h);
            tape.sum_all(hh)
        }
    }
}

#[test]
fn gradients_match_finite_differences() {
    for_each_case(0xAD01, 48, |rng| {
        let p0 = random_param(rng, 3, 3);
        let expr = EXPRS[rng.gen_range(0..EXPRS.len())];
        let mut tape = Tape::new();
        let p = tape.param(&p0);
        let loss = build(expr, &mut tape, p);
        tape.backward(loss);
        let analytic = tape.grad(p).expect("param requires grad").clone();

        let eps = 1e-2f32;
        for idx in 0..9 {
            // skip points near ReLU/L1 kinks where the derivative jumps
            let g = analytic.as_slice()[idx];
            let f = |delta: f32| {
                let mut m = p0.clone();
                m.as_mut_slice()[idx] += delta;
                let mut t = Tape::new();
                let v = t.param(&m);
                let l = build(expr, &mut t, v);
                t.scalar(l)
            };
            let numeric = (f(eps) - f(-eps)) / (2.0 * eps);
            // kink detection: at a ReLU/L1 kink the second difference is
            // O(eps · slope-jump); in smooth regions it is O(eps²·f″).
            let curvature = (f(eps) + f(-eps) - 2.0 * f(0.0)).abs();
            if curvature > 0.05 * eps {
                continue;
            }
            assert!(
                (numeric - g).abs() < 5e-2 * (1.0 + numeric.abs().max(g.abs())),
                "{expr:?} idx {idx}: numeric {numeric} analytic {g}"
            );
        }
    });
}
