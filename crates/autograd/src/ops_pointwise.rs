//! Pointwise (elementwise) differentiable operations.

use crate::graph::reduce_to_shape;
use crate::{Graph, Result, Var};
use snappix_tensor::math;

impl Graph {
    /// Elementwise sum with broadcasting.
    ///
    /// # Errors
    ///
    /// Fails when the operand shapes are not broadcast-compatible or a
    /// handle is foreign.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var> {
        self.check(a)?;
        self.check(b)?;
        let value = self.zip_values(a, b, |x, y| x + y)?;
        Ok(self.push_op(value, &[a, b], |g, parents| {
            vec![
                reduce_to_shape(g, parents[0].shape()),
                reduce_to_shape(g, parents[1].shape()),
            ]
        }))
    }

    /// Elementwise difference with broadcasting.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::add`].
    pub fn sub(&mut self, a: Var, b: Var) -> Result<Var> {
        self.check(a)?;
        self.check(b)?;
        let value = self.zip_values(a, b, |x, y| x - y)?;
        Ok(self.push_op(value, &[a, b], |g, parents| {
            vec![
                reduce_to_shape(g, parents[0].shape()),
                reduce_to_shape(&g.neg(), parents[1].shape()),
            ]
        }))
    }

    /// Elementwise product with broadcasting.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::add`].
    pub fn mul(&mut self, a: Var, b: Var) -> Result<Var> {
        self.check(a)?;
        self.check(b)?;
        let value = self.zip_values(a, b, |x, y| x * y)?;
        Ok(self.push_op(value, &[a, b], |g, parents| {
            let da = g.mul(parents[1]).expect("same broadcast as forward");
            let db = g.mul(parents[0]).expect("same broadcast as forward");
            vec![
                reduce_to_shape(&da, parents[0].shape()),
                reduce_to_shape(&db, parents[1].shape()),
            ]
        }))
    }

    /// Multiplies every element by the constant `s`.
    ///
    /// # Errors
    ///
    /// Fails for a foreign handle.
    pub fn scale(&mut self, a: Var, s: f32) -> Result<Var> {
        self.check(a)?;
        let value = self.map_value(a, |x| x * s);
        Ok(self.push_op(value, &[a], move |g, _| vec![g.scale(s)]))
    }

    /// Adds the constant `s` to every element.
    ///
    /// # Errors
    ///
    /// Fails for a foreign handle.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Result<Var> {
        self.check(a)?;
        let value = self.map_value(a, |x| x + s);
        Ok(self.push_op(value, &[a], |g, _| vec![g.clone()]))
    }

    /// Elementwise power with a constant (float) exponent.
    ///
    /// # Errors
    ///
    /// Fails for a foreign handle.
    pub fn powf(&mut self, a: Var, p: f32) -> Result<Var> {
        self.check(a)?;
        let value = self.map_value(a, |x| x.powf(p));
        Ok(self.push_op(value, &[a], move |g, parents| {
            let d = parents[0].map(|x| p * x.powf(p - 1.0));
            vec![g.mul(&d).expect("same shape")]
        }))
    }

    /// Rectified linear unit.
    ///
    /// # Errors
    ///
    /// Fails for a foreign handle.
    pub fn relu(&mut self, a: Var) -> Result<Var> {
        self.check(a)?;
        let value = self.map_value(a, |x| x.max(0.0));
        Ok(self.push_op(value, &[a], |g, parents| {
            let d = parents[0].map(|x| if x > 0.0 { 1.0 } else { 0.0 });
            vec![g.mul(&d).expect("same shape")]
        }))
    }

    /// Gaussian error linear unit (tanh approximation), with
    /// [`math::tanh`] in both directions.
    ///
    /// # Errors
    ///
    /// Fails for a foreign handle.
    pub fn gelu(&mut self, a: Var) -> Result<Var> {
        self.check(a)?;
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        const A: f32 = 0.044_715;
        let value = self.map_value(a, |x| {
            let inner = C * (x + A * x * x * x);
            0.5 * x * (1.0 + math::tanh(inner))
        });
        Ok(self.push_op(value, &[a], |g, parents| {
            let d = parents[0].map(|x| {
                let inner = C * (x + A * x * x * x);
                let t = math::tanh(inner);
                let sech2 = 1.0 - t * t;
                0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * A * x * x)
            });
            vec![g.mul(&d).expect("same shape")]
        }))
    }

    /// Straight-through binarization (paper Sec. III).
    ///
    /// Forward: `1.0` where the input exceeds `threshold`, else `0.0`.
    /// Backward: the gradient passes through unchanged, as in the
    /// straight-through estimator of Bengio et al. used by the paper to
    /// learn binary exposure masks.
    ///
    /// # Errors
    ///
    /// Fails for a foreign handle.
    pub fn binarize_ste(&mut self, a: Var, threshold: f32) -> Result<Var> {
        self.check(a)?;
        let value = self.map_value(a, |x| if x > threshold { 1.0 } else { 0.0 });
        Ok(self.push_op(value, &[a], |g, _| vec![g.clone()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_gradients;
    use snappix_tensor::Tensor;

    fn leaf2x3(g: &mut Graph) -> Var {
        g.leaf(
            Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, -0.2, 1.5], &[2, 3]).unwrap(),
            true,
        )
    }

    #[test]
    fn add_broadcast_grads() {
        let mut g = Graph::new();
        let a = leaf2x3(&mut g);
        let b = g.leaf(
            Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap(),
            true,
        );
        let s = g.add(a, b).unwrap();
        let loss = g.sum(s).unwrap();
        g.backward(loss).unwrap();
        assert_eq!(g.grad(a).unwrap().as_slice(), &[1.0; 6]);
        assert_eq!(g.grad(b).unwrap().as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn mul_grads_are_cross_terms() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap(), true);
        let b = g.leaf(Tensor::from_vec(vec![5.0, 7.0], &[2]).unwrap(), true);
        let m = g.mul(a, b).unwrap();
        let loss = g.sum(m).unwrap();
        g.backward(loss).unwrap();
        assert_eq!(g.grad(a).unwrap().as_slice(), &[5.0, 7.0]);
        assert_eq!(g.grad(b).unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn sub_and_neg_numeric() {
        let x = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        let y = Tensor::from_vec(vec![0.5, 3.0], &[2]).unwrap();
        check_gradients(&[x, y], |g, vars| {
            let d = g.sub(vars[0], vars[1])?;
            let n = g.scale(d, -1.0)?;
            g.sum(n)
        })
        .unwrap();
    }

    #[test]
    fn scalar_ops_numeric() {
        let x = Tensor::from_vec(vec![1.0, -2.0, 0.3], &[3]).unwrap();
        check_gradients(std::slice::from_ref(&x), |g, vars| {
            let a = g.scale(vars[0], 3.0)?;
            let b = g.add_scalar(a, -1.0)?;
            g.sum(b)
        })
        .unwrap();
        check_gradients(&[x.map(f32::abs).add_scalar(0.5)], |g, vars| {
            let p = g.powf(vars[0], 1.7)?;
            g.sum(p)
        })
        .unwrap();
    }

    #[test]
    fn activations_numeric() {
        // Avoid 0.0 for relu (kink). The sweep crosses every region of
        // the `math::tanh` inside GELU: the rational core, the clamp and
        // the saturated tails (GELU's inner argument passes 9 near x = 5).
        let x = Tensor::from_vec(vec![0.7, -1.3, 2.1, -0.4], &[4]).unwrap();
        let sweep = Tensor::linspace(-6.0, 6.0, 25).add_scalar(0.013);
        for x in [x, sweep] {
            for f in ["relu", "gelu"] {
                check_gradients(std::slice::from_ref(&x), |g, vars| {
                    let y = match f {
                        "relu" => g.relu(vars[0])?,
                        _ => g.gelu(vars[0])?,
                    };
                    g.sum(y)
                })
                .unwrap_or_else(|e| panic!("{f}: {e}"));
            }
        }
    }

    #[test]
    fn binarize_ste_forward_and_passthrough_grad() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![-0.5, 0.2, 0.9], &[3]).unwrap(), true);
        let b = g.binarize_ste(x, 0.0).unwrap();
        assert_eq!(g.value(b).as_slice(), &[0.0, 1.0, 1.0]);
        let s = g.sum(b).unwrap();
        g.backward(s).unwrap();
        // Straight-through: gradient of sum is all-ones, passed unchanged.
        assert_eq!(g.grad(x).unwrap().as_slice(), &[1.0, 1.0, 1.0]);
    }
}
