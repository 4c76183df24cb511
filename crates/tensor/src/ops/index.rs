//! Row gathering and segment reductions — the message-passing primitives.
//!
//! A message-passing layer is expressed as
//!
//! 1. [`Tensor::gather_rows`] to pull source-node (and edge) features into
//!    per-edge rows,
//! 2. a dense MLP on the per-edge rows, and
//! 3. [`Tensor::segment_sum`] / [`Tensor::segment_max`] to reduce edge
//!    messages onto destination nodes — the paper's two reduction channels.

use std::sync::Arc;

use crate::tensor::BackwardFn;
use crate::{Shape, Tensor};

impl Tensor {
    /// Gathers rows of a matrix: `out[i, :] = self[index[i], :]`.
    ///
    /// Rows may repeat; gradients of repeated rows accumulate.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or any index is out of bounds.
    ///
    /// # Example
    ///
    /// ```
    /// # use tp_tensor::Tensor;
    /// # fn main() -> Result<(), tp_tensor::TensorError> {
    /// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let y = x.gather_rows(&[1, 1, 0]);
    /// assert_eq!(y.to_vec(), vec![3.0, 4.0, 3.0, 4.0, 1.0, 2.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn gather_rows(&self, index: &[usize]) -> Tensor {
        let (n, d) = self.shape_obj().as_2d();
        let data = self.data();
        let mut out = Vec::with_capacity(index.len() * d);
        for &i in index {
            assert!(i < n, "gather index {i} out of bounds for {n} rows");
            out.extend_from_slice(&data[i * d..(i + 1) * d]);
        }
        drop(data);
        let index: Arc<Vec<usize>> = Arc::new(index.to_vec());
        let rows = index.len();
        let src = self.clone();
        let idx = Arc::clone(&index);
        let backward: BackwardFn = Box::new(move |g: &[f32]| {
            if src.requires_grad() {
                let mut gs = crate::pool::take_zeroed(n * d);
                for (r, &i) in idx.iter().enumerate() {
                    for j in 0..d {
                        gs[i * d + j] += g[r * d + j];
                    }
                }
                src.accumulate_grad(&gs);
                crate::pool::recycle(gs);
            }
        });
        Tensor::from_op(out, Shape::new(&[rows, d]), vec![self.clone()], backward)
    }

    /// Segment sum: `out[s, :] = Σ_{i : segments[i] == s} self[i, :]`.
    ///
    /// `self` is `[E, D]`, the result is `[num_segments, D]`. Segments with
    /// no members are zero.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2, `segments.len()` differs from the
    /// row count, or any segment id is `>= num_segments`.
    pub fn segment_sum(&self, segments: &[usize], num_segments: usize) -> Tensor {
        let (e, d) = self.shape_obj().as_2d();
        assert_eq!(segments.len(), e, "one segment id per row required");
        let data = self.data();
        let mut out = crate::pool::take_zeroed(num_segments * d);
        for (r, &s) in segments.iter().enumerate() {
            assert!(s < num_segments, "segment id {s} out of range {num_segments}");
            for j in 0..d {
                out[s * d + j] += data[r * d + j];
            }
        }
        drop(data);
        let seg: Arc<Vec<usize>> = Arc::new(segments.to_vec());
        let src = self.clone();
        let backward: BackwardFn = Box::new(move |g: &[f32]| {
            if src.requires_grad() {
                let mut gs = crate::pool::take_zeroed(e * d);
                for (r, &s) in seg.iter().enumerate() {
                    gs[r * d..(r + 1) * d].copy_from_slice(&g[s * d..(s + 1) * d]);
                }
                src.accumulate_grad(&gs);
                crate::pool::recycle(gs);
            }
        });
        Tensor::from_op(
            out,
            Shape::new(&[num_segments, d]),
            vec![self.clone()],
            backward,
        )
    }

    /// Segment max: `out[s, :] = max_{i : segments[i] == s} self[i, :]`.
    ///
    /// Empty segments yield zero. The gradient flows only to the arg-max row
    /// of each (segment, column) pair, matching scatter-max semantics in
    /// graph learning frameworks.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Tensor::segment_sum`].
    pub fn segment_max(&self, segments: &[usize], num_segments: usize) -> Tensor {
        let (e, d) = self.shape_obj().as_2d();
        assert_eq!(segments.len(), e, "one segment id per row required");
        let data = self.data();
        let mut out = vec![f32::NEG_INFINITY; num_segments * d];
        let mut argmax = vec![usize::MAX; num_segments * d];
        for (r, &s) in segments.iter().enumerate() {
            assert!(s < num_segments, "segment id {s} out of range {num_segments}");
            for j in 0..d {
                let v = data[r * d + j];
                if v > out[s * d + j] {
                    out[s * d + j] = v;
                    argmax[s * d + j] = r;
                }
            }
        }
        drop(data);
        for v in out.iter_mut() {
            if *v == f32::NEG_INFINITY {
                *v = 0.0; // empty segment
            }
        }
        let argmax = Arc::new(argmax);
        let src = self.clone();
        let am = Arc::clone(&argmax);
        let backward: BackwardFn = Box::new(move |g: &[f32]| {
            if src.requires_grad() {
                let mut gs = crate::pool::take_zeroed(e * d);
                for (sj, &r) in am.iter().enumerate() {
                    if r != usize::MAX {
                        let j = sj % d;
                        gs[r * d + j] += g[sj];
                    }
                }
                src.accumulate_grad(&gs);
                crate::pool::recycle(gs);
            }
        });
        Tensor::from_op(
            out,
            Shape::new(&[num_segments, d]),
            vec![self.clone()],
            backward,
        )
    }

    /// Scatters rows of `self` (`[K, D]`) into a zero matrix of `n` rows at
    /// positions `index`: `out[index[i], :] = self[i, :]`. Duplicate indices
    /// accumulate. The inverse of [`Tensor::gather_rows`].
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2, `index.len()` differs from the
    /// row count, or any index is `>= n`.
    pub fn scatter_rows(&self, index: &[usize], n: usize) -> Tensor {
        let (k, d) = self.shape_obj().as_2d();
        assert_eq!(index.len(), k, "one destination per row required");
        let data = self.data();
        let mut out = crate::pool::take_zeroed(n * d);
        for (r, &i) in index.iter().enumerate() {
            assert!(i < n, "scatter index {i} out of bounds for {n} rows");
            for j in 0..d {
                out[i * d + j] += data[r * d + j];
            }
        }
        drop(data);
        let idx: Arc<Vec<usize>> = Arc::new(index.to_vec());
        let src = self.clone();
        let backward: BackwardFn = Box::new(move |g: &[f32]| {
            if src.requires_grad() {
                let mut gs = crate::pool::take_zeroed(k * d);
                for (r, &i) in idx.iter().enumerate() {
                    gs[r * d..(r + 1) * d].copy_from_slice(&g[i * d..(i + 1) * d]);
                }
                src.accumulate_grad(&gs);
                crate::pool::recycle(gs);
            }
        });
        Tensor::from_op(out, Shape::new(&[n, d]), vec![self.clone()], backward)
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    fn m(v: &[f32], s: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), s).unwrap()
    }

    #[test]
    fn gather_repeats_accumulate_grad() {
        let x = m(&[1., 2., 3., 4.], &[2, 2]).with_grad();
        let y = x.gather_rows(&[0, 0, 1]);
        y.sum().backward();
        assert_eq!(x.grad().unwrap(), vec![2., 2., 1., 1.]);
    }

    #[test]
    fn segment_sum_values() {
        let x = m(&[1., 1., 2., 2., 3., 3.], &[3, 2]);
        let y = x.segment_sum(&[0, 1, 0], 2);
        assert_eq!(y.to_vec(), vec![4., 4., 2., 2.]);
    }

    #[test]
    fn segment_sum_empty_segment_is_zero() {
        let x = m(&[5., 5.], &[1, 2]);
        let y = x.segment_sum(&[2], 4);
        assert_eq!(y.to_vec(), vec![0., 0., 0., 0., 5., 5., 0., 0.]);
    }

    #[test]
    fn segment_sum_grad_broadcasts() {
        let x = m(&[1., 2., 3.], &[3, 1]).with_grad();
        let y = x.segment_sum(&[0, 0, 1], 2);
        y.mul(&m(&[10., 1.], &[2, 1])).sum().backward();
        assert_eq!(x.grad().unwrap(), vec![10., 10., 1.]);
    }

    #[test]
    fn segment_max_values_and_grad() {
        let x = m(&[1., 9., 5., 4.], &[4, 1]).with_grad();
        let y = x.segment_max(&[0, 0, 1, 1], 2);
        assert_eq!(y.to_vec(), vec![9., 5.]);
        y.sum().backward();
        // gradient flows only to rows 1 (max of seg 0) and 2 (max of seg 1)
        assert_eq!(x.grad().unwrap(), vec![0., 1., 1., 0.]);
    }

    #[test]
    fn segment_max_handles_negatives_and_empties() {
        let x = m(&[-3., -7.], &[2, 1]);
        let y = x.segment_max(&[1, 1], 3);
        assert_eq!(y.to_vec(), vec![0., -3., 0.]);
    }

    #[test]
    fn scatter_is_gather_inverse() {
        let x = m(&[1., 2., 3., 4.], &[2, 2]).with_grad();
        let y = x.scatter_rows(&[2, 0], 3);
        assert_eq!(y.to_vec(), vec![3., 4., 0., 0., 1., 2.]);
        y.sum().backward();
        assert_eq!(x.grad().unwrap(), vec![1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_oob_panics() {
        let x = m(&[1., 2.], &[1, 2]);
        let _ = x.gather_rows(&[3]);
    }
}
