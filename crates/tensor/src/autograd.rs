//! Reverse-mode tape autograd.
//!
//! The EA models in this workspace (GCN-Align, RREA and the re-implemented
//! baselines) need a small, fixed set of differentiable operations. Rather
//! than hand-deriving each model's gradients we provide a tape: forward
//! calls on [`Tape`] record one operation per node, [`Tape::backward`]
//! walks the tape in reverse accumulating gradients. Matrices are the only
//! tensor rank; "vectors" are `n × 1` matrices.
//!
//! The graph is rebuilt every optimisation step (define-by-run), but the
//! tape itself lives for a whole mini-batch: [`Tape::reset`] clears the
//! nodes and keeps every value and gradient buffer on a free-list, and each
//! op takes its output from that list. A training loop that replays the
//! same ops each epoch therefore allocates only in its first pass (see
//! [`Tape::fresh_bytes`]). Learnable parameters live outside the tape in an
//! [`optim::ParamStore`] and are copied in as gradient-requiring leaves.
//!
//! [`optim::ParamStore`]: crate::optim::ParamStore

use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;
use std::rc::Rc;

/// A sparse operand for [`Tape::spmm`]: the matrix plus its precomputed
/// transpose (needed by the backward pass). Build once per mini-batch.
#[derive(Debug, Clone)]
pub struct SpOp {
    /// Forward operand.
    pub mat: SparseMatrix,
    /// `mat` transposed, used to back-propagate through `spmm`.
    pub trans: SparseMatrix,
}

impl SpOp {
    /// Wraps `mat`, computing its transpose eagerly.
    pub fn new(mat: SparseMatrix) -> Rc<Self> {
        let trans = mat.transpose();
        Rc::new(Self { mat, trans })
    }

    /// Wraps a structurally symmetric matrix without recomputing the
    /// transpose (GCN-normalised adjacency is symmetric).
    pub fn symmetric(mat: SparseMatrix) -> Rc<Self> {
        let trans = mat.clone();
        Rc::new(Self { mat, trans })
    }
}

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    Leaf,
    MatMul(Var, Var),
    Spmm(Rc<SpOp>, Var),
    Add(Var, Var),
    Sub(Var, Var),
    MulElem(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Relu(Var),
    Tanh(Var),
    GatherRows(Var, Rc<Vec<u32>>),
    L2NormRows(Var, f32),
    RowL1(Var, Var),
    RowDot(Var, Var),
    MulBroadcastCol(Var, Var),
    SumAll(Var),
    MeanAll(Var),
    HStack(Var, Var),
}

struct Node {
    op: Op,
    value: Matrix,
    grad: Option<Matrix>,
    requires_grad: bool,
}

/// Recycled `f32` buffers, matched by exact capacity.
///
/// Exact matching is what makes reuse converge: a replayed op sequence
/// asks for the same lengths in the same order, so after one pass the
/// list holds, for every length, as many buffers as were ever live at
/// once, and no later pass allocates.
#[derive(Default)]
struct FreeList {
    bufs: Vec<Vec<f32>>,
    fresh_bytes: usize,
}

impl FreeList {
    /// An empty buffer with room for exactly `len` floats: a recycled one
    /// when the list has one, else a fresh allocation.
    fn take(&mut self, len: usize) -> Vec<f32> {
        match self.bufs.iter().rposition(|b| b.capacity() == len) {
            Some(i) => self.bufs.swap_remove(i),
            None => {
                self.fresh_bytes += len * std::mem::size_of::<f32>();
                Vec::with_capacity(len)
            }
        }
    }

    /// A `rows × cols` matrix with every element `x`.
    fn filled(&mut self, rows: usize, cols: usize, x: f32) -> Matrix {
        let mut buf = self.take(rows * cols);
        buf.resize(rows * cols, x);
        Matrix::from_vec(rows, cols, buf)
    }

    /// A `rows × cols` matrix from exactly `rows * cols` row-major elements.
    fn collect(&mut self, rows: usize, cols: usize, it: impl Iterator<Item = f32>) -> Matrix {
        let mut buf = self.take(rows * cols);
        buf.extend(it);
        Matrix::from_vec(rows, cols, buf)
    }

    fn copy(&mut self, m: &Matrix) -> Matrix {
        self.collect(m.rows(), m.cols(), m.as_slice().iter().copied())
    }

    fn give(&mut self, m: Matrix) {
        let mut buf = m.into_vec();
        if buf.capacity() > 0 {
            buf.clear();
            self.bufs.push(buf);
        }
    }
}

/// The gradient tape. See the [module docs](self) for the usage model.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    free: FreeList,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears every node for the next pass, moving each value and gradient
    /// buffer onto the free-list. [`Var`]s of earlier passes are invalid
    /// afterwards.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            self.free.give(node.value);
            if let Some(g) = node.grad {
                self.free.give(g);
            }
        }
    }

    /// Hands `m`'s buffer to the free-list (e.g. a gradient taken with
    /// [`Tape::take_grad`], once the optimiser is done with it).
    pub fn recycle(&mut self, m: Matrix) {
        self.free.give(m);
    }

    /// Cumulative bytes of buffers this tape had to allocate because its
    /// free-list had none of the requested length.
    pub fn fresh_bytes(&self) -> usize {
        self.free.fresh_bytes
    }

    fn push(&mut self, op: Op, value: Matrix, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            op,
            value,
            grad: None,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Adds a gradient-requiring leaf holding a copy of `value` (a
    /// learnable parameter).
    pub fn param(&mut self, value: &Matrix) -> Var {
        let value = self.free.copy(value);
        self.push(Op::Leaf, value, true)
    }

    /// Adds a constant leaf holding a copy of `value` (inputs, fixed
    /// features).
    pub fn constant(&mut self, value: &Matrix) -> Var {
        let value = self.free.copy(value);
        self.push(Op::Leaf, value, false)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Consumes the tape, returning the forward value of `v` without a
    /// copy; every other buffer is freed.
    pub fn into_value(mut self, v: Var) -> Matrix {
        self.nodes.swap_remove(v.0).value
    }

    /// The gradient of leaf `v` after [`Tape::backward`], or `None` if no
    /// gradient reached it. Only leaves keep their gradients: an
    /// intermediate node's gradient goes back to the free-list as soon as
    /// it has been propagated, so this is `None` for every non-leaf.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Moves the gradient of leaf `v` out of the tape (see [`Tape::grad`]).
    pub fn take_grad(&mut self, v: Var) -> Option<Matrix> {
        self.nodes[v.0].grad.take()
    }

    /// Dense product. See [`Matrix::matmul`].
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let buf = self.free.take(self.value(a).rows() * self.value(b).cols());
        let value = self.value(a).matmul_into(self.value(b), buf);
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::MatMul(a, b), value, rg)
    }

    /// Sparse × dense product (GNN propagation step).
    pub fn spmm(&mut self, s: &Rc<SpOp>, d: Var) -> Var {
        let buf = self.free.take(s.mat.rows() * self.value(d).cols());
        let value = s.mat.spmm_into(self.value(d), buf);
        let rg = self.rg(d);
        self.push(Op::Spmm(Rc::clone(s), d), value, rg)
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(a).shape(), self.value(b).shape(), "add shapes");
        let value = self.zip_map(a, b, |x, y| x + y);
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::Add(a, b), value, rg)
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(
            self.value(a).shape(),
            self.value(b).shape(),
            "sub shape mismatch"
        );
        let value = self.zip_map(a, b, |x, y| x - y);
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::Sub(a, b), value, rg)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul_elem(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(a).shape(), self.value(b).shape(), "mul shapes");
        let value = self.zip_map(a, b, |x, y| x * y);
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::MulElem(a, b), value, rg)
    }

    /// Multiplication by a scalar constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let value = self.map(a, |x| x * c);
        let rg = self.rg(a);
        self.push(Op::Scale(a, c), value, rg)
    }

    /// Addition of a scalar constant.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let value = self.map(a, |x| x + c);
        let rg = self.rg(a);
        self.push(Op::AddScalar(a), value, rg)
    }

    /// Rectified linear unit, element-wise.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.map(a, |x| if x < 0.0 { 0.0 } else { x });
        let rg = self.rg(a);
        self.push(Op::Relu(a), value, rg)
    }

    /// Hyperbolic tangent, element-wise.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.map(a, f32::tanh);
        let rg = self.rg(a);
        self.push(Op::Tanh(a), value, rg)
    }

    /// Selects rows by index (embedding lookup). Backward scatter-adds.
    pub fn gather_rows(&mut self, a: Var, indices: Rc<Vec<u32>>) -> Var {
        let buf = self.free.take(indices.len() * self.value(a).cols());
        let value = self.value(a).gather_rows_into(&indices, buf);
        let rg = self.rg(a);
        self.push(Op::GatherRows(a, indices), value, rg)
    }

    /// Row-wise L2 normalisation `x ← x / (‖x‖ + eps)`.
    pub fn l2_normalize_rows(&mut self, a: Var, eps: f32) -> Var {
        let mut value = self.free.copy(&self.nodes[a.0].value);
        value.l2_normalize_rows(eps);
        let rg = self.rg(a);
        self.push(Op::L2NormRows(a, eps), value, rg)
    }

    /// Per-row Manhattan distance between two equal-shaped matrices,
    /// producing an `n × 1` column.
    pub fn row_l1(&mut self, a: Var, b: Var) -> Var {
        let value = self.per_row(a, b, "row_l1 shapes", |ma, i, mb| ma.manhattan(i, mb, i));
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::RowL1(a, b), value, rg)
    }

    /// Per-row dot product, producing an `n × 1` column.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let value = self.per_row(a, b, "row_dot shapes", |ma, i, mb| ma.row_dot(i, mb, i));
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::RowDot(a, b), value, rg)
    }

    /// Broadcast-multiplies each row of `a` (`n × d`) by the matching scalar
    /// of column `b` (`n × 1`). Used by RREA's reflection `x − 2(x·r)r`.
    pub fn mul_broadcast_col(&mut self, a: Var, b: Var) -> Var {
        let Tape { nodes, free } = self;
        let (ma, mb) = (&nodes[a.0].value, &nodes[b.0].value);
        assert_eq!(mb.cols(), 1, "broadcast column must be n×1");
        assert_eq!(ma.rows(), mb.rows(), "broadcast row mismatch");
        let mut buf = free.take(ma.as_slice().len());
        for i in 0..ma.rows() {
            let s = mb[(i, 0)];
            buf.extend(ma.row(i).iter().map(|&x| x * s));
        }
        let value = Matrix::from_vec(ma.rows(), ma.cols(), buf);
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::MulBroadcastCol(a, b), value, rg)
    }

    /// Horizontally concatenates two equal-row-count matrices (multi-hop
    /// GNN outputs keep each hop in its own column block).
    pub fn hstack(&mut self, a: Var, b: Var) -> Var {
        let len = self.value(a).rows() * (self.value(a).cols() + self.value(b).cols());
        let buf = self.free.take(len);
        let value = self.value(a).hstack_into(self.value(b), buf);
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::HStack(a, b), value, rg)
    }

    /// Sum of all elements, as a `1 × 1` matrix.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s: f32 = self.value(a).as_slice().iter().sum();
        let value = self.free.filled(1, 1, s);
        let rg = self.rg(a);
        self.push(Op::SumAll(a), value, rg)
    }

    /// Mean of all elements, as a `1 × 1` matrix.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let len = self.value(a).as_slice().len().max(1);
        let s: f32 = self.value(a).as_slice().iter().sum::<f32>() / len as f32;
        let value = self.free.filled(1, 1, s);
        let rg = self.rg(a);
        self.push(Op::MeanAll(a), value, rg)
    }

    /// Extracts the scalar of a `1 × 1` node (e.g. the loss value).
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar() expects a 1x1 node");
        m[(0, 0)]
    }

    /// `f` applied element-wise to `a`, in a recycled buffer.
    fn map(&mut self, a: Var, f: impl Fn(f32) -> f32) -> Matrix {
        let Tape { nodes, free } = self;
        let m = &nodes[a.0].value;
        free.collect(m.rows(), m.cols(), m.as_slice().iter().map(|&x| f(x)))
    }

    /// `f` applied element-wise to equal-shaped `a` and `b`.
    fn zip_map(&mut self, a: Var, b: Var, f: impl Fn(f32, f32) -> f32) -> Matrix {
        let Tape { nodes, free } = self;
        let (ma, mb) = (&nodes[a.0].value, &nodes[b.0].value);
        let it = ma
            .as_slice()
            .iter()
            .zip(mb.as_slice())
            .map(|(&x, &y)| f(x, y));
        free.collect(ma.rows(), ma.cols(), it)
    }

    /// An `n × 1` column of `f(a, i, b)` over the rows of equal-shaped
    /// `a` and `b`.
    fn per_row(
        &mut self,
        a: Var,
        b: Var,
        what: &str,
        f: impl Fn(&Matrix, usize, &Matrix) -> f32,
    ) -> Matrix {
        let Tape { nodes, free } = self;
        let (ma, mb) = (&nodes[a.0].value, &nodes[b.0].value);
        assert_eq!(ma.shape(), mb.shape(), "{what}");
        free.collect(ma.rows(), 1, (0..ma.rows()).map(|i| f(ma, i, mb)))
    }

    /// Runs the backward pass from `loss` (must be `1 × 1`), accumulating
    /// gradients into every gradient-requiring leaf (see [`Tape::grad`]).
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward() expects a scalar loss"
        );
        for n in &mut self.nodes {
            if let Some(g) = n.grad.take() {
                self.free.give(g);
            }
        }
        self.nodes[loss.0].grad = Some(self.free.filled(1, 1, 1.0));

        for i in (0..self.nodes.len()).rev() {
            if !self.nodes[i].requires_grad {
                continue;
            }
            let Some(g) = self.nodes[i].grad.take() else {
                continue;
            };
            self.propagate(i, &g);
            // Every consumer of node i sits later on the tape, so its
            // gradient is complete and, past this point, dead.
            if matches!(self.nodes[i].op, Op::Leaf) {
                self.nodes[i].grad = Some(g);
            } else {
                self.free.give(g);
            }
        }
    }

    fn propagate(&mut self, i: usize, g: &Matrix) {
        let Tape { nodes, free } = self;
        let rg = |v: Var| nodes[v.0].requires_grad;
        let val = |v: Var| &nodes[v.0].value;
        // Deltas are built for the inputs that require a gradient only;
        // each lands in a recycled buffer and accumulate() moves it into
        // the input's gradient slot or returns it to the free-list.
        let mut deltas: [Option<(Var, Matrix)>; 2] = [None, None];
        match &nodes[i].op {
            Op::Leaf => {}
            &Op::MatMul(a, b) => {
                if rg(a) {
                    let bt = val(b).transpose_into(free.take(val(b).as_slice().len()));
                    let da = g.matmul_into(&bt, free.take(g.rows() * bt.cols()));
                    free.give(bt);
                    deltas[0] = Some((a, da));
                }
                if rg(b) {
                    let at = val(a).transpose_into(free.take(val(a).as_slice().len()));
                    let db = at.matmul_into(g, free.take(at.rows() * g.cols()));
                    free.give(at);
                    deltas[1] = Some((b, db));
                }
            }
            Op::Spmm(s, d) => {
                let buf = free.take(s.trans.rows() * g.cols());
                deltas[0] = Some((*d, s.trans.spmm_into(g, buf)));
            }
            &Op::Add(a, b) => {
                deltas = [Some((a, free.copy(g))), Some((b, free.copy(g)))];
            }
            &Op::Sub(a, b) => {
                let mut neg = free.copy(g);
                neg.scale(-1.0);
                deltas = [Some((a, free.copy(g))), Some((b, neg))];
            }
            &Op::MulElem(a, b) => {
                deltas = [
                    Some((a, hadamard(free, g, val(b)))),
                    Some((b, hadamard(free, g, val(a)))),
                ];
            }
            &Op::Scale(a, c) => {
                let mut da = free.copy(g);
                da.scale(c);
                deltas[0] = Some((a, da));
            }
            &Op::AddScalar(a) => deltas[0] = Some((a, free.copy(g))),
            &Op::Relu(a) => {
                let y = &nodes[i].value;
                let it =
                    g.as_slice()
                        .iter()
                        .zip(y.as_slice())
                        .map(|(&d, &out)| if out <= 0.0 { 0.0 } else { d });
                deltas[0] = Some((a, free.collect(g.rows(), g.cols(), it)));
            }
            &Op::Tanh(a) => {
                let y = &nodes[i].value;
                let it = g
                    .as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .map(|(&d, &out)| d * (1.0 - out * out));
                deltas[0] = Some((a, free.collect(g.rows(), g.cols(), it)));
            }
            Op::GatherRows(a, idx) => {
                let src = val(*a);
                let mut da = free.filled(src.rows(), src.cols(), 0.0);
                for (gi, &row) in idx.iter().enumerate() {
                    let dst = da.row_mut(row as usize);
                    for (d, &s) in dst.iter_mut().zip(g.row(gi)) {
                        *d += s;
                    }
                }
                deltas[0] = Some((*a, da));
            }
            &Op::L2NormRows(a, eps) => {
                let x = val(a);
                let mut da = free.take(x.as_slice().len());
                for r in 0..x.rows() {
                    let xr = x.row(r);
                    let gr = g.row(r);
                    let n = xr.iter().map(|v| v * v).sum::<f32>().sqrt();
                    let s = n + eps;
                    let gx_dot: f32 = gr.iter().zip(xr).map(|(gv, xv)| gv * xv).sum();
                    let coef = if n > 1e-20 { gx_dot / (n * s * s) } else { 0.0 };
                    da.extend(gr.iter().zip(xr).map(|(&gv, &xv)| gv / s - xv * coef));
                }
                deltas[0] = Some((a, Matrix::from_vec(x.rows(), x.cols(), da)));
            }
            &Op::RowL1(a, b) => {
                let (ma, mb) = (val(a), val(b));
                let mut da = free.take(ma.as_slice().len());
                for r in 0..ma.rows() {
                    let gi = g[(r, 0)];
                    let it = ma.row(r).iter().zip(mb.row(r));
                    da.extend(it.map(|(&x, &y)| gi * (x - y).signum_or_zero()));
                }
                let (rows, cols) = ma.shape();
                let da = Matrix::from_vec(rows, cols, da);
                let db = free.collect(rows, cols, da.as_slice().iter().map(|&s| -s));
                deltas = [Some((a, da)), Some((b, db))];
            }
            &Op::RowDot(a, b) => {
                let (ma, mb) = (val(a), val(b));
                let (mut da, mut db) = (
                    free.take(ma.as_slice().len()),
                    free.take(ma.as_slice().len()),
                );
                for r in 0..ma.rows() {
                    let gi = g[(r, 0)];
                    da.extend(mb.row(r).iter().map(|&y| gi * y));
                    db.extend(ma.row(r).iter().map(|&x| gi * x));
                }
                let (rows, cols) = ma.shape();
                deltas = [
                    Some((a, Matrix::from_vec(rows, cols, da))),
                    Some((b, Matrix::from_vec(rows, cols, db))),
                ];
            }
            &Op::MulBroadcastCol(a, b) => {
                let (ma, mb) = (val(a), val(b));
                let (mut da, mut db) = (free.take(ma.as_slice().len()), free.take(mb.rows()));
                for r in 0..ma.rows() {
                    let s = mb[(r, 0)];
                    da.extend(g.row(r).iter().map(|&gv| gv * s));
                    let it = g.row(r).iter().zip(ma.row(r));
                    db.push(it.fold(0.0, |acc, (&gv, &xv)| acc + gv * xv));
                }
                deltas = [
                    Some((a, Matrix::from_vec(ma.rows(), ma.cols(), da))),
                    Some((b, Matrix::from_vec(mb.rows(), 1, db))),
                ];
            }
            &Op::SumAll(a) => {
                let (rows, cols) = val(a).shape();
                deltas[0] = Some((a, free.filled(rows, cols, g[(0, 0)])));
            }
            &Op::MeanAll(a) => {
                let (rows, cols) = val(a).shape();
                let len = (rows * cols).max(1);
                deltas[0] = Some((a, free.filled(rows, cols, g[(0, 0)] / len as f32)));
            }
            &Op::HStack(a, b) => {
                let ca = val(a).cols();
                let (mut da, mut db) = (
                    free.take(g.rows() * ca),
                    free.take(g.rows() * (g.cols() - ca)),
                );
                for r in 0..g.rows() {
                    da.extend_from_slice(&g.row(r)[..ca]);
                    db.extend_from_slice(&g.row(r)[ca..]);
                }
                deltas = [
                    Some((a, Matrix::from_vec(g.rows(), ca, da))),
                    Some((b, Matrix::from_vec(g.rows(), g.cols() - ca, db))),
                ];
            }
        }
        for (v, delta) in deltas.into_iter().flatten() {
            let node = &mut nodes[v.0];
            if !node.requires_grad {
                free.give(delta);
                continue;
            }
            match &mut node.grad {
                Some(acc) => {
                    acc.add_assign(&delta);
                    free.give(delta);
                }
                slot @ None => *slot = Some(delta),
            }
        }
    }
}

trait SignumOrZero {
    fn signum_or_zero(self) -> f32;
}

impl SignumOrZero for f32 {
    /// Branch-free, so the L1 backward loop vectorises: `1.0`, `-1.0`, or
    /// `0.0` for zero and NaN.
    #[inline]
    fn signum_or_zero(self) -> f32 {
        (self > 0.0) as u8 as f32 - (self < 0.0) as u8 as f32
    }
}

fn hadamard(free: &mut FreeList, a: &Matrix, b: &Matrix) -> Matrix {
    let it = a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| x * y);
    free.collect(a.rows(), a.cols(), it)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically checks d(loss)/d(param[idx]) against the tape's gradient.
    fn finite_diff_check(build: impl Fn(&mut Tape, Var) -> Var, param: Matrix) {
        let mut tape = Tape::new();
        let p = tape.param(&param);
        let loss = build(&mut tape, p);
        tape.backward(loss);
        let analytic = tape.grad(p).expect("param grad").clone();

        let eps = 1e-3f32;
        for idx in 0..param.as_slice().len() {
            let mut plus = param.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut tp = Tape::new();
            let vp = tp.param(&plus);
            let lp = build(&mut tp, vp);
            let fp = tp.scalar(lp);

            let mut minus = param.clone();
            minus.as_mut_slice()[idx] -= eps;
            let mut tm = Tape::new();
            let vm = tm.param(&minus);
            let lm = build(&mut tm, vm);
            let fm = tm.scalar(lm);

            let numeric = (fp - fm) / (2.0 * eps);
            let got = analytic.as_slice()[idx];
            assert!(
                (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs().max(got.abs())),
                "idx {idx}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut s = seed;
        Matrix::from_fn(rows, cols, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / u32::MAX as f32) - 0.5
        })
    }

    #[test]
    fn grad_matmul() {
        let w = seeded(3, 2, 7);
        finite_diff_check(
            |t, p| {
                let x = t.constant(&seeded(4, 3, 1));
                let y = t.matmul(x, p);
                t.sum_all(y)
            },
            w,
        );
    }

    #[test]
    fn grad_spmm() {
        let sp = SpOp::new(SparseMatrix::from_coo(
            3,
            3,
            vec![(0, 1, 2.0), (1, 2, -1.0), (2, 0, 0.5)],
        ));
        finite_diff_check(
            |t, p| {
                let y = t.spmm(&sp, p);
                t.sum_all(y)
            },
            seeded(3, 2, 9),
        );
    }

    #[test]
    fn grad_relu_chain() {
        finite_diff_check(
            |t, p| {
                let x = t.constant(&seeded(2, 3, 3));
                let h = t.matmul(x, p);
                let h = t.relu(h);
                t.sum_all(h)
            },
            seeded(3, 2, 11),
        );
    }

    #[test]
    fn grad_tanh() {
        finite_diff_check(
            |t, p| {
                let h = t.tanh(p);
                t.sum_all(h)
            },
            seeded(2, 2, 5),
        );
    }

    #[test]
    fn grad_l2_normalize() {
        finite_diff_check(
            |t, p| {
                let n = t.l2_normalize_rows(p, 1e-6);
                let c = t.constant(&seeded(2, 3, 17));
                let m = t.mul_elem(n, c);
                t.sum_all(m)
            },
            seeded(2, 3, 13),
        );
    }

    #[test]
    fn grad_gather_and_row_l1() {
        // Margin-style loss: relu(margin + d_pos); exercises gather + L1.
        finite_diff_check(
            |t, p| {
                let idx_a = Rc::new(vec![0u32, 2]);
                let idx_b = Rc::new(vec![1u32, 3]);
                let a = t.gather_rows(p, idx_a);
                let b = t.gather_rows(p, idx_b);
                let d = t.row_l1(a, b);
                let d = t.add_scalar(d, 0.3);
                let d = t.relu(d);
                t.sum_all(d)
            },
            seeded(4, 3, 19),
        );
    }

    #[test]
    fn grad_row_dot_and_broadcast() {
        // Reflection-ish computation: y = x - 2 (x·r) r
        finite_diff_check(
            |t, p| {
                let r = t.l2_normalize_rows(p, 1e-9);
                let x = t.constant(&seeded(3, 4, 23));
                let xd = t.row_dot(x, r);
                let proj = t.mul_broadcast_col(r, xd);
                let proj2 = t.scale(proj, 2.0);
                let y = t.sub(x, proj2);
                let yy = t.mul_elem(y, y);
                t.sum_all(yy)
            },
            seeded(3, 4, 29),
        );
    }

    #[test]
    fn grad_hstack() {
        finite_diff_check(
            |t, p| {
                let c = t.constant(&seeded(3, 2, 41));
                let h = t.hstack(p, c);
                let h2 = t.hstack(c, p);
                let m = t.mul_elem(h, h2);
                t.sum_all(m)
            },
            seeded(3, 2, 37),
        );
    }

    #[test]
    fn grad_mean_all() {
        finite_diff_check(
            |t, p| {
                let y = t.mul_elem(p, p);
                t.mean_all(y)
            },
            seeded(3, 3, 31),
        );
    }

    #[test]
    fn constants_get_no_grad() {
        let mut t = Tape::new();
        let c = t.constant(&seeded(2, 2, 1));
        let p = t.param(&seeded(2, 2, 2));
        let y = t.mul_elem(c, p);
        let l = t.sum_all(y);
        t.backward(l);
        assert!(t.grad(c).is_none());
        assert!(t.grad(p).is_some());
    }

    #[test]
    fn grad_accumulates_over_shared_subexpression() {
        // loss = sum(p) + sum(p) → grad = 2 everywhere
        let mut t = Tape::new();
        let p = t.param(&Matrix::zeros(2, 2));
        let a = t.sum_all(p);
        let b = t.sum_all(p);
        let l = t.add(a, b);
        t.backward(l);
        assert!(t.grad(p).unwrap().as_slice().iter().all(|&g| g == 2.0));
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let mut t = Tape::new();
        let p = t.param(&Matrix::zeros(2, 2));
        t.backward(p);
    }

    /// A small RREA-shaped pass: gathers, a reflection, an hstack, a
    /// margin loss. Returns the parameter leaf and the loss.
    fn reflection_pass(t: &mut Tape, p: &Matrix) -> (Var, Var) {
        let p = t.param(p);
        let r = t.l2_normalize_rows(p, 1e-9);
        let g = t.gather_rows(r, Rc::new(vec![2, 0, 1, 1]));
        let x = t.gather_rows(p, Rc::new(vec![0, 1, 2, 0]));
        let xd = t.row_dot(x, g);
        let proj = t.mul_broadcast_col(g, xd);
        let y = t.sub(x, proj);
        let h = t.hstack(y, x);
        let d = t.row_l1(h, h);
        let d = t.add_scalar(d, 0.5);
        let d = t.relu(d);
        (p, t.mean_all(d))
    }

    #[test]
    fn reset_tape_replays_without_fresh_buffers() {
        let p0 = seeded(3, 4, 43);
        let mut fresh = Tape::new();
        let (fp, fl) = reflection_pass(&mut fresh, &p0);
        fresh.backward(fl);

        let mut t = Tape::new();
        let mut after_first = 0;
        for pass in 0..3 {
            t.reset();
            let (p, loss) = reflection_pass(&mut t, &p0);
            t.backward(loss);
            assert_eq!(t.scalar(loss).to_bits(), fresh.scalar(fl).to_bits());
            let g = t.take_grad(p).expect("leaf grad");
            assert_eq!(&g, fresh.grad(fp).unwrap(), "pass {pass}");
            t.recycle(g);
            if pass == 0 {
                after_first = t.fresh_bytes();
                assert!(after_first > 0);
            }
        }
        assert_eq!(t.fresh_bytes(), after_first, "a replayed pass allocated");
    }

    #[test]
    fn backward_keeps_leaf_grads_only() {
        let mut t = Tape::new();
        let p = t.param(&seeded(2, 3, 47));
        let h = t.tanh(p);
        let l = t.sum_all(h);
        t.backward(l);
        assert!(t.grad(p).is_some());
        assert!(t.grad(h).is_none() && t.grad(l).is_none());
    }

    #[test]
    fn scalar_extracts_value() {
        let mut t = Tape::new();
        let p = t.param(&Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let s = t.sum_all(p);
        assert_eq!(t.scalar(s), 5.0);
    }
}
