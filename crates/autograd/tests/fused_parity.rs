//! The fused [`Graph::layer_norm`], [`Graph::linear`] and
//! [`Graph::attention`] nodes against the primitive-op composites they
//! replace: forward values must match bit for bit over random shapes
//! (rank 1 to 3, row counts that leave a remainder after the 8-row
//! reduction blocks; one to three clips, one to four heads, sequences of
//! one token up). `linear` and `attention` gradients match bit for bit
//! too; `layer_norm`'s analytic gradients match the composite's to
//! rounding.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use snappix_autograd::{Graph, Result, Var};
use snappix_tensor::Tensor;

const EPS: f32 = 1e-5;

/// Layer normalization as the eleven primitive nodes it used to be.
fn composite_layer_norm(g: &mut Graph, x: Var, gamma: Var, beta: Var) -> Result<Var> {
    let last = g.value(x).rank() - 1;
    let mu = g.mean_axis(x, last, true)?;
    let centered = g.sub(x, mu)?;
    let sq = g.mul(centered, centered)?;
    let var = g.mean_axis(sq, last, true)?;
    let var_eps = g.add_scalar(var, EPS)?;
    let inv_std = g.powf(var_eps, -0.5)?;
    let normed = g.mul(centered, inv_std)?;
    let scaled = g.mul(normed, gamma)?;
    g.add(scaled, beta)
}

/// `x W + b` as a matmul node and a broadcast add node.
fn composite_linear(g: &mut Graph, x: Var, w: Var, b: Var) -> Result<Var> {
    let y = g.matmul(x, w)?;
    g.add(y, b)
}

/// Multi-head attention as the seventeen primitive nodes it used to be:
/// split each input into `[batch * heads, seq, dh]`, attend, merge back.
fn composite_attention(g: &mut Graph, q: Var, k: Var, v: Var, heads: usize) -> Result<Var> {
    let (batch, seq, dim) = match *g.value(q).shape() {
        [batch, seq, dim] => (batch, seq, dim),
        ref other => panic!("attention input {other:?}"),
    };
    let dh = dim / heads;
    let split = |g: &mut Graph, t: Var| -> Result<Var> {
        let t = g.reshape(t, &[batch, seq, heads, dh])?;
        let t = g.permute(t, &[0, 2, 1, 3])?;
        g.reshape(t, &[batch * heads, seq, dh])
    };
    let qh = split(g, q)?;
    let kh = split(g, k)?;
    let vh = split(g, v)?;
    let kt = g.transpose(kh)?;
    let scores = g.matmul(qh, kt)?;
    let scores = g.scale(scores, 1.0 / (dh as f32).sqrt())?;
    let attn = g.softmax(scores)?;
    let ctx = g.matmul(attn, vh)?;
    let ctx = g.reshape(ctx, &[batch, heads, seq, dh])?;
    let ctx = g.permute(ctx, &[0, 2, 1, 3])?;
    g.reshape(ctx, &[batch, seq, dim])
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `[rows, d]` led by `lead` extra axes of extent 2 and 3.
fn shape(lead: usize, rows: usize, d: usize) -> Vec<usize> {
    let mut shape = [2, 3][..lead].to_vec();
    shape.extend([rows, d]);
    shape
}

/// Output and input gradients of `op` over `inputs`, under the loss
/// `sum(op(..) * probe)`; `probe` is a fixed random weighting so no
/// gradient cancels by symmetry.
fn run(
    inputs: &[Tensor],
    probe: &Tensor,
    op: impl Fn(&mut Graph, &[Var]) -> Result<Var>,
) -> (Tensor, Vec<Tensor>) {
    let mut g = Graph::new();
    let vars: Vec<Var> = inputs.iter().map(|t| g.leaf(t.clone(), true)).collect();
    let y = op(&mut g, &vars).expect("forward");
    let p = g.leaf(probe.clone(), false);
    let weighted = g.mul(y, p).expect("probe has the output's shape");
    let loss = g.sum(weighted).expect("scalar");
    g.backward(loss).expect("backward");
    let grads = vars
        .iter()
        .map(|&v| g.grad(v).expect("grad").clone())
        .collect();
    (g.value(y).clone(), grads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn layer_norm_matches_the_composite(
        seed in 0u64..10_000,
        lead in 0usize..2,
        rows in 1usize..20,
        d in 1usize..40,
        spread in 0.1f32..50.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = shape(lead, rows, d);
        let x = Tensor::rand_uniform(&mut rng, &shape, -spread, spread).add_scalar(spread / 3.0);
        let gamma = Tensor::rand_uniform(&mut rng, &[d], -2.0, 2.0);
        let beta = Tensor::rand_uniform(&mut rng, &[d], -1.0, 1.0);
        let probe = Tensor::rand_uniform(&mut rng, &shape, -1.0, 1.0);
        let inputs = [x, gamma, beta];
        let (fused, fused_grads) =
            run(&inputs, &probe, |g, v| g.layer_norm(v[0], v[1], v[2], EPS));
        let (composite, composite_grads) =
            run(&inputs, &probe, |g, v| composite_layer_norm(g, v[0], v[1], v[2]));
        prop_assert_eq!(bits(&fused), bits(&composite));
        for (f, c) in fused_grads.iter().zip(&composite_grads) {
            prop_assert_eq!(f.shape(), c.shape());
            let scale = c.abs().max().max(1.0);
            prop_assert!(f.approx_eq(c, 1e-3 * scale), "{:?} vs {:?}", f, c);
        }
    }

    #[test]
    fn layer_norm_of_a_rank1_input_matches_the_composite(seed in 0u64..10_000, d in 1usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(&mut rng, &[d], -3.0, 3.0);
        let gamma = Tensor::rand_uniform(&mut rng, &[d], -2.0, 2.0);
        let beta = Tensor::rand_uniform(&mut rng, &[d], -1.0, 1.0);
        let probe = Tensor::rand_uniform(&mut rng, &[d], -1.0, 1.0);
        let inputs = [x, gamma, beta];
        let (fused, _) = run(&inputs, &probe, |g, v| g.layer_norm(v[0], v[1], v[2], EPS));
        let (composite, _) =
            run(&inputs, &probe, |g, v| composite_layer_norm(g, v[0], v[1], v[2]));
        prop_assert_eq!(bits(&fused), bits(&composite));
    }

    #[test]
    fn linear_matches_the_composite(
        seed in 0u64..10_000,
        lead in 0usize..2,
        rows in 1usize..20,
        k in 1usize..24,
        n in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x_shape = shape(lead, rows, k);
        let x = Tensor::rand_uniform(&mut rng, &x_shape, -2.0, 2.0);
        let w = Tensor::rand_uniform(&mut rng, &[k, n], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[n], -1.0, 1.0);
        let mut out_shape = x_shape.clone();
        *out_shape.last_mut().expect("rank >= 2") = n;
        let probe = Tensor::rand_uniform(&mut rng, &out_shape, -1.0, 1.0);
        let inputs = [x, w, b];
        let (fused, fused_grads) = run(&inputs, &probe, |g, v| g.linear(v[0], v[1], v[2]));
        let (composite, composite_grads) =
            run(&inputs, &probe, |g, v| composite_linear(g, v[0], v[1], v[2]));
        prop_assert_eq!(bits(&fused), bits(&composite));
        for (f, c) in fused_grads.iter().zip(&composite_grads) {
            prop_assert_eq!(bits(f), bits(c));
        }
    }

    #[test]
    fn attention_matches_the_composite(
        seed in 0u64..10_000,
        batch in 1usize..4,
        head_choice in 0usize..3,
        dh in 1usize..10,
        seq in 1usize..18,
        spread in 0.1f32..8.0,
    ) {
        let heads = [1, 2, 4][head_choice];
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = [batch, seq, heads * dh];
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::rand_uniform(&mut rng, &shape, -spread, spread))
            .collect();
        let probe = Tensor::rand_uniform(&mut rng, &shape, -1.0, 1.0);
        let (fused, fused_grads) =
            run(&inputs, &probe, |g, v| g.attention(v[0], v[1], v[2], heads));
        let (composite, composite_grads) =
            run(&inputs, &probe, |g, v| composite_attention(g, v[0], v[1], v[2], heads));
        prop_assert_eq!(bits(&fused), bits(&composite));
        for (f, c) in fused_grads.iter().zip(&composite_grads) {
            prop_assert_eq!(f.shape(), c.shape());
            prop_assert_eq!(bits(f), bits(c));
        }
    }
}

#[test]
fn fused_ops_reject_mismatched_parameters() {
    let mut g = Graph::new();
    let x = g.leaf(Tensor::zeros(&[2, 4]), false);
    let gamma = g.leaf(Tensor::ones(&[4]), false);
    let beta = g.leaf(Tensor::zeros(&[4]), false);
    let wide = g.leaf(Tensor::ones(&[5]), false);
    let row = g.leaf(Tensor::ones(&[1, 4]), false);
    assert!(g.layer_norm(x, wide, beta, EPS).is_err());
    assert!(g.layer_norm(x, gamma, row, EPS).is_err());
    let scalar = g.leaf(Tensor::scalar(1.0), false);
    assert!(g.layer_norm(scalar, gamma, beta, EPS).is_err());

    let w = g.leaf(Tensor::zeros(&[4, 3]), false);
    let b = g.leaf(Tensor::zeros(&[3]), false);
    assert!(g.linear(x, w, b).is_ok());
    assert!(g.linear(x, w, wide).is_err());
    let bad_w = g.leaf(Tensor::zeros(&[5, 3]), false);
    assert!(g.linear(x, bad_w, b).is_err());

    let tokens = g.leaf(Tensor::zeros(&[2, 3, 4]), false);
    let longer = g.leaf(Tensor::zeros(&[2, 5, 4]), false);
    assert!(g.attention(tokens, tokens, tokens, 2).is_ok());
    assert!(g.attention(tokens, longer, tokens, 2).is_err());
    assert!(g.attention(tokens, tokens, longer, 2).is_err());
    assert!(g.attention(tokens, tokens, tokens, 3).is_err());
    assert!(g.attention(tokens, tokens, tokens, 0).is_err());
    assert!(g.attention(x, x, x, 2).is_err());
}

#[test]
fn fused_ops_record_one_node_each() {
    let mut g = Graph::new();
    let x = g.leaf(Tensor::ones(&[3, 4]), false);
    let gamma = g.leaf(Tensor::ones(&[4]), false);
    let beta = g.leaf(Tensor::zeros(&[4]), false);
    let w = g.leaf(Tensor::ones(&[4, 2]), false);
    let b = g.leaf(Tensor::zeros(&[2]), false);
    let tokens = g.leaf(Tensor::ones(&[2, 3, 4]), false);
    let before = g.len();
    let y = g.layer_norm(x, gamma, beta, EPS).unwrap();
    g.linear(y, w, b).unwrap();
    g.attention(tokens, tokens, tokens, 2).unwrap();
    assert_eq!(g.len(), before + 3);
}
