//! Dense matrix multiplication and 2-D transpose.

use crate::tensor::BackwardFn;
use crate::{Shape, Tensor};

/// Default K tile: 256 B rows × 128 ≈ a third of a 32 KiB L1 for the
/// `b`-panel at the default J tile, leaving room for the output band.
const DEFAULT_TILE_K: usize = 128;
/// Default J (output-column) tile: 64 floats = 256 B per `b` row.
const DEFAULT_TILE_J: usize = 64;

/// `out[m,n] += a[m,k] * b[k,n]`, blocked for cache: the column range is
/// cut into [`DEFAULT_TILE_J`] bands and the inner dimension into
/// [`DEFAULT_TILE_K`] panels, so one panel of `b` stays L1-resident while
/// every row of `a` streams across it.
///
/// Determinism: for a fixed output element `(i, j)` the contributions are
/// added in ascending `p` — k-panels ascend and `p` ascends within each
/// panel, while the j-blocking never touches the same element twice — the
/// exact accumulation order of the straight i-k-j kernel this replaced.
/// Same `av == 0.0` skip, so the float-op sequence is identical too.
fn gemm_rows(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + DEFAULT_TILE_J).min(n);
        let mut p0 = 0;
        while p0 < k {
            let p1 = (p0 + DEFAULT_TILE_K).min(k);
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n + j0..i * n + j1];
                for (off, &av) in arow[p0..p1].iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let p = p0 + off;
                    let brow = &b[p * n + j0..p * n + j1];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
            p0 = p1;
        }
        j0 = j1;
    }
}

/// Adaptive dispatch for the gemm: units are multiply-adds (`m·k·n`), the
/// seed assumes ~1 ns per multiply-add, and the model converges on the
/// machine's measured throughput after a few regions. Replaces the old
/// fixed `PAR_MIN_FLOPS` item-count threshold.
static GEMM_COST: tp_par::CostModel = tp_par::CostModel::new("tensor.gemm", 1.0);

/// Row-parallel gemm. Output rows depend only on the matching rows of `a`,
/// so tp-par splits the row range across workers; each row's k-loop runs
/// in the exact order of the serial kernel, keeping every accumulation
/// bit-identical at any thread count (the determinism contract).
fn gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    tp_par::for_each_rows_mut_costed(&GEMM_COST, out, n, (m * k * n) as u64, |_, rows, out_rows| {
        gemm_rows(
            &a[rows.start * k..rows.end * k],
            b,
            rows.len(),
            k,
            n,
            out_rows,
        );
    });
}

fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = crate::pool::take_zeroed(src.len());
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = src[i * cols + j];
        }
    }
    out
}

impl Tensor {
    /// Matrix product of two rank-2 tensors, `[M, K] × [K, N] → [M, N]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions
    /// disagree.
    ///
    /// # Example
    ///
    /// ```
    /// # use tp_tensor::Tensor;
    /// # fn main() -> Result<(), tp_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
    /// assert_eq!(a.matmul(&i).to_vec(), a.to_vec());
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let (m, k) = self.shape_obj().as_2d();
        let (k2, n) = rhs.shape_obj().as_2d();
        assert_eq!(
            k, k2,
            "matmul inner dims disagree: {} vs {}",
            self.shape_obj(),
            rhs.shape_obj()
        );
        let mut out = crate::pool::take_zeroed(m * n);
        gemm(&self.data(), &rhs.data(), m, k, n, &mut out);

        let lhs_snap = self.to_vec();
        let rhs_snap = rhs.to_vec();
        let (lhs_t, rhs_t) = (self.clone(), rhs.clone());
        let backward: BackwardFn = Box::new(move |g: &[f32]| {
            // dL/dA = G · Bᵀ ; dL/dB = Aᵀ · G
            if lhs_t.requires_grad() {
                let bt = transpose(&rhs_snap, k, n);
                let mut ga = crate::pool::take_zeroed(m * k);
                gemm(g, &bt, m, n, k, &mut ga);
                lhs_t.accumulate_grad(&ga);
                crate::pool::recycle(bt);
                crate::pool::recycle(ga);
            }
            if rhs_t.requires_grad() {
                let at = transpose(&lhs_snap, m, k);
                let mut gb = crate::pool::take_zeroed(k * n);
                gemm(&at, g, k, m, n, &mut gb);
                rhs_t.accumulate_grad(&gb);
                crate::pool::recycle(at);
                crate::pool::recycle(gb);
            }
        });
        Tensor::from_op(
            out,
            Shape::new(&[m, n]),
            vec![self.clone(), rhs.clone()],
            backward,
        )
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn t(&self) -> Tensor {
        let (r, c) = self.shape_obj().as_2d();
        let out = transpose(&self.data(), r, c);
        let src = self.clone();
        let backward: BackwardFn = Box::new(move |g: &[f32]| {
            if src.requires_grad() {
                src.accumulate_grad(&transpose(g, c, r));
            }
        });
        Tensor::from_op(out, Shape::new(&[c, r]), vec![self.clone()], backward)
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    /// The straight i-k-j kernel the tiled version replaced — kept as the
    /// bit-identity reference for the accumulation-order contract.
    fn gemm_ref(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }

    fn pseudo(seed: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i * 2654435761 + seed * 40503) % 1013;
                // sprinkle exact zeros so the skip path is exercised
                if h.is_multiple_of(11) {
                    0.0
                } else {
                    (h as f32 - 506.0) * 0.0173
                }
            })
            .collect()
    }

    #[test]
    fn tiled_gemm_is_bit_identical_to_straight_kernel() {
        // Shapes below, at and across both tile edges (k > 128, n > 64),
        // including several panels and bands per row.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (64, 64, 64),
            (5, 300, 2),
            (17, 129, 65),
            (4, 257, 193),
        ] {
            let a = pseudo(m + n, m * k);
            let b = pseudo(k, k * n);
            let mut want = vec![0.0; m * n];
            gemm_ref(&a, &b, m, k, n, &mut want);
            let mut got = vec![0.0; m * n];
            super::gemm_rows(&a, &b, m, k, n, &mut got);
            let wb: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            let gb: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(wb, gb, "tiling changed bits at {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_2x3_3x2() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7., 8., 9., 10., 11., 12.], &[3, 2]).unwrap();
        let y = a.matmul(&b);
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.to_vec(), vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_gradients_match_manual() {
        // y = sum(A·B); dy/dA = ones·Bᵀ, dy/dB = Aᵀ·ones
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]).unwrap().with_grad();
        let b = Tensor::from_vec(vec![5., 6., 7., 8.], &[2, 2]).unwrap().with_grad();
        a.matmul(&b).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![11., 15., 11., 15.]);
        assert_eq!(b.grad().unwrap(), vec![4., 4., 6., 6.]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]).unwrap();
        let tt = a.t().t();
        assert_eq!(tt.to_vec(), a.to_vec());
        assert_eq!(tt.shape(), a.shape());
    }

    #[test]
    fn transpose_gradient() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]).unwrap().with_grad();
        let w = Tensor::from_vec(vec![1., 0., 0., 1., 1., 1.], &[3, 2]).unwrap();
        a.t().mul(&w).sum().backward();
        // grad of a is w transposed back to [2,3]
        assert_eq!(a.grad().unwrap(), vec![1., 0., 1., 0., 1., 1.]);
    }

    #[test]
    fn large_matmul_bits_are_thread_count_independent() {
        // 96×48 × 48×40 = 184k multiply-adds — enough predicted work for
        // the cost model to fork at >1 thread. Flipping the global
        // override mid-suite is safe precisely because of the property
        // under test: thread count never changes results.
        let (m, k, n) = (96usize, 48usize, 40usize);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.031).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 53 % 97) as f32 - 48.0) * 0.017).collect();
        let at = Tensor::from_vec(a, &[m, k]).unwrap().with_grad();
        let bt = Tensor::from_vec(b, &[k, n]).unwrap().with_grad();
        let run = |threads: usize| {
            tp_par::set_threads(threads);
            at.zero_grad();
            bt.zero_grad();
            let y = at.matmul(&bt);
            y.sum().backward();
            let bits = |v: Vec<f32>| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
            let out = (
                bits(y.to_vec()),
                bits(at.grad().unwrap()),
                bits(bt.grad().unwrap()),
            );
            tp_par::set_threads(0);
            out
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    #[should_panic(expected = "inner dims disagree")]
    fn mismatched_inner_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }
}
