//! Pooling operations.

use crate::{NnError, Result, Session};
use snappix_autograd::Var;
use snappix_tensor::Tensor;

/// Non-overlapping 3-D max pooling over `[batch, ch, t, h, w]` with a
/// `(kt, kh, kw)` window (stride equals the window, trailing remainder is
/// dropped, matching the C3D baseline's pooling schedule).
///
/// # Errors
///
/// Fails for non-rank-5 inputs, zero-sized windows, or windows larger than
/// the input volume.
///
/// # Examples
///
/// ```
/// use snappix_nn::{max_pool3d, ParamStore, Session};
/// use snappix_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let store = ParamStore::new();
/// let mut sess = Session::inference(&store);
/// let x = sess.input(Tensor::zeros(&[1, 2, 4, 8, 8]));
/// let y = max_pool3d(&mut sess, x, (2, 2, 2))?;
/// assert_eq!(sess.graph.value(y).shape(), &[1, 2, 2, 4, 4]);
/// # Ok(())
/// # }
/// ```
pub fn max_pool3d(sess: &mut Session<'_>, x: Var, window: (usize, usize, usize)) -> Result<Var> {
    let shape = sess.graph.value(x).shape().to_vec();
    if shape.len() != 5 {
        return Err(NnError::Config {
            context: format!("max_pool3d expects rank-5 input, got {shape:?}"),
        });
    }
    let (kt, kh, kw) = window;
    if kt == 0 || kh == 0 || kw == 0 {
        return Err(NnError::Config {
            context: "max_pool3d window must be positive".to_string(),
        });
    }
    let (t, h, w) = (shape[2], shape[3], shape[4]);
    if kt > t || kh > h || kw > w {
        return Err(NnError::Config {
            context: format!("window {window:?} larger than volume {t}x{h}x{w}"),
        });
    }
    let value = pool_forward(sess.graph.value(x), window);
    Ok(sess.graph.custom_op(value, &[x], move |g, parents| {
        vec![pool_backward(g, parents[0], window)]
    })?)
}

fn pool_forward(x: &Tensor, (kt, kh, kw): (usize, usize, usize)) -> Tensor {
    let s = x.shape();
    let (batch, ch, t, h, w) = (s[0], s[1], s[2], s[3], s[4]);
    let (ot, oh, ow) = (t / kt, h / kh, w / kw);
    let mut out = Tensor::zeros(&[batch, ch, ot, oh, ow]);
    let xs = x.as_slice();
    let os = out.as_mut_slice();
    for b in 0..batch {
        for c in 0..ch {
            for oz in 0..ot {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        for dz in 0..kt {
                            for dy in 0..kh {
                                for dx in 0..kw {
                                    let v =
                                        xs[(((b * ch + c) * t + oz * kt + dz) * h + oy * kh + dy)
                                            * w
                                            + ox * kw
                                            + dx];
                                    best = best.max(v);
                                }
                            }
                        }
                        os[(((b * ch + c) * ot + oz) * oh + oy) * ow + ox] = best;
                    }
                }
            }
        }
    }
    out
}

fn pool_backward(g: &Tensor, x: &Tensor, (kt, kh, kw): (usize, usize, usize)) -> Tensor {
    let s = x.shape();
    let (batch, ch, t, h, w) = (s[0], s[1], s[2], s[3], s[4]);
    let (ot, oh, ow) = (t / kt, h / kh, w / kw);
    let mut dx = Tensor::zeros(x.shape());
    let xs = x.as_slice();
    let gs = g.as_slice();
    let dxs = dx.as_mut_slice();
    for b in 0..batch {
        for c in 0..ch {
            for oz in 0..ot {
                for oy in 0..oh {
                    for ox in 0..ow {
                        // Recompute the argmax (first max wins, matching forward).
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for dz in 0..kt {
                            for dy in 0..kh {
                                for dx_ in 0..kw {
                                    let idx =
                                        (((b * ch + c) * t + oz * kt + dz) * h + oy * kh + dy) * w
                                            + ox * kw
                                            + dx_;
                                    if xs[idx] > best {
                                        best = xs[idx];
                                        best_idx = idx;
                                    }
                                }
                            }
                        }
                        dxs[best_idx] += gs[(((b * ch + c) * ot + oz) * oh + oy) * ow + ox];
                    }
                }
            }
        }
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamStore;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn pooling_takes_window_max() {
        let store = ParamStore::new();
        let mut sess = Session::inference(&store);
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 1, 4, 4]).unwrap();
        let xv = sess.input(x);
        let y = max_pool3d(&mut sess, xv, (1, 2, 2)).unwrap();
        assert_eq!(sess.graph.value(y).as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn gradient_routes_to_argmax_only() {
        let store = ParamStore::new();
        let mut sess = Session::new(&store);
        let x = Tensor::from_vec(vec![1.0, 3.0, 2.0, 0.0], &[1, 1, 1, 2, 2]).unwrap();
        let xv = sess.graph.leaf(x, true);
        let y = max_pool3d(&mut sess, xv, (1, 2, 2)).unwrap();
        let loss = sess.graph.sum(y).unwrap();
        sess.graph.backward(loss).unwrap();
        assert_eq!(
            sess.graph.grad(xv).unwrap().as_slice(),
            &[0.0, 1.0, 0.0, 0.0]
        );
    }

    #[test]
    fn remainder_is_dropped() {
        let store = ParamStore::new();
        let mut sess = Session::inference(&store);
        let x = sess.input(Tensor::zeros(&[1, 1, 5, 5, 5]));
        let y = max_pool3d(&mut sess, x, (2, 2, 2)).unwrap();
        assert_eq!(sess.graph.value(y).shape(), &[1, 1, 2, 2, 2]);
    }

    #[test]
    fn validation_errors() {
        let store = ParamStore::new();
        let mut sess = Session::inference(&store);
        let bad_rank = sess.input(Tensor::zeros(&[2, 2, 2]));
        assert!(max_pool3d(&mut sess, bad_rank, (1, 1, 1)).is_err());
        let x = sess.input(Tensor::zeros(&[1, 1, 2, 2, 2]));
        assert!(max_pool3d(&mut sess, x, (0, 1, 1)).is_err());
        assert!(max_pool3d(&mut sess, x, (4, 1, 1)).is_err());
    }

    #[test]
    fn numeric_gradient() {
        use snappix_autograd::check_gradients;
        let mut rng = StdRng::seed_from_u64(0);
        // Distinct values avoid argmax ties that break finite differences.
        let x = Tensor::rand_uniform(&mut rng, &[1, 1, 2, 4, 4], -1.0, 1.0);
        check_gradients(&[x], |g, vars| {
            let value = pool_forward(g.value(vars[0]), (2, 2, 2));
            let y = g.custom_op(value, &[vars[0]], |up, parents| {
                vec![pool_backward(up, parents[0], (2, 2, 2))]
            })?;
            let q = g.mul(y, y)?;
            g.sum(q)
        })
        .unwrap();
    }
}
