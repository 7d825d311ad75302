//! Property-based tests for the neural-network substrate.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use snappix_nn::{write_artifact, Adam, ArtifactReader, LayerNorm, Linear, ParamStore, Session};
use snappix_tensor::Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Weight persistence round-trips arbitrary stores exactly.
    #[test]
    fn save_load_round_trip(seed in 0u64..10_000, n_params in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let mut shapes = Vec::new();
        for i in 0..n_params {
            let rows = (seed as usize + i) % 4 + 1;
            let cols = (seed as usize * 7 + i) % 5 + 1;
            shapes.push(vec![rows, cols]);
            store.register(
                format!("p{i}"),
                Tensor::rand_uniform(&mut rng, &[rows, cols], -10.0, 10.0),
            );
        }
        let mut path = std::env::temp_dir();
        path.push(format!("snappix_prop_{}_{seed}.spx", std::process::id()));
        write_artifact(&store, &path).expect("save");
        let reader = ArtifactReader::open(&path).expect("open");
        std::fs::remove_file(&path).ok();

        let mut restored = ParamStore::new();
        for (i, shape) in shapes.iter().enumerate() {
            restored.register(format!("p{i}"), Tensor::zeros(shape));
        }
        reader.load_into(&mut restored).expect("load");
        for (a, b) in store.iter().zip(restored.iter()) {
            prop_assert_eq!(a.2, b.2);
        }
    }

    /// Adam drives a random quadratic near its optimum from any start.
    #[test]
    fn adam_converges_from_any_start(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let target = Tensor::rand_uniform(&mut rng, &[3], -3.0, 3.0);
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::rand_uniform(&mut rng, &[3], -3.0, 3.0));
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            let mut sess = Session::new(&store);
            let w = sess.param(id);
            let t = sess.input(target.clone());
            let d = sess.graph.sub(w, t).expect("same shape");
            let sq = sess.graph.mul(d, d).expect("same shape");
            let loss = sess.graph.sum(sq).expect("scalar");
            let grads = sess.backward(loss).expect("backward");
            drop(sess);
            opt.step(&mut store, &grads).expect("step");
        }
        prop_assert!(store.value(id).approx_eq(&target, 0.05),
            "did not converge: {:?} vs {:?}", store.value(id), target);
    }

    /// Linear layers are, in fact, linear: f(ax) = a f(x) - (a-1) bias.
    #[test]
    fn linear_layer_is_affine(seed in 0u64..10_000, a in 0.5f32..3.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let fc = Linear::new(&mut store, "fc", 3, 2, &mut rng);
        let x = Tensor::rand_uniform(&mut rng, &[2, 3], -1.0, 1.0);

        let run = |input: Tensor| {
            let mut sess = Session::inference(&store);
            let v = sess.input(input);
            let y = fc.forward(&mut sess, v).expect("forward");
            sess.graph.value(y).clone()
        };
        let f_x = run(x.clone());
        let f_ax = run(x.scale(a));
        let zero = run(Tensor::zeros(&[2, 3])); // = bias rows
        // f(ax) = a f(x) + (1 - a) * bias
        let expected = f_x.scale(a).add(&zero.scale(1.0 - a)).expect("same shape");
        prop_assert!(f_ax.approx_eq(&expected, 1e-3));
    }

    /// LayerNorm output is invariant to affine shifts of its input.
    #[test]
    fn layer_norm_is_shift_invariant(seed in 0u64..10_000, shift in -5.0f32..5.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 8);
        let x = Tensor::rand_uniform(&mut rng, &[3, 8], -1.0, 1.0);
        let run = |input: Tensor| {
            let mut sess = Session::inference(&store);
            let v = sess.input(input);
            let y = ln.forward(&mut sess, v).expect("forward");
            sess.graph.value(y).clone()
        };
        let base = run(x.clone());
        let shifted = run(x.add_scalar(shift));
        prop_assert!(base.approx_eq(&shifted, 1e-3));
    }
}
