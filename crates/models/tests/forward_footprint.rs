//! Deterministic size of one SnapPix-S inference forward at batch 8,
//! 32x32: tape nodes and bytes of node values. Wall-clock cannot settle
//! small forward-pass changes on a noisy machine; these counts can, so
//! any change to them must be deliberate.

use rand::{rngs::StdRng, SeedableRng};
use snappix_ce::patterns;
use snappix_models::{ActionModel, SnapPixAr, VitConfig};
use snappix_nn::Session;
use snappix_tensor::Tensor;

#[test]
fn snappix_s_batch8_forward_size_is_pinned() {
    let mut rng = StdRng::seed_from_u64(7);
    let mask = patterns::random(16, (8, 8), 0.5, &mut rng).expect("valid mask");
    let model = SnapPixAr::new(VitConfig::snappix_s(32, 32, 10), mask).expect("SnapPix-S");
    let clips = Tensor::rand_uniform(&mut rng, &[8, 16, 32, 32], 0.0, 1.0);
    let mut sess = Session::inference(model.store());
    let logits = model.build_logits(&mut sess, &clips).expect("forward");
    assert_eq!(sess.graph.value(logits).shape(), &[8, 10]);
    assert_eq!(sess.graph.len(), 68, "tape nodes per forward");
    assert_eq!(
        sess.graph.value_bytes(),
        639_464,
        "bytes of node values per forward"
    );
}
