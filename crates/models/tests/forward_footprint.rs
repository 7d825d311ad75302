//! Deterministic size of one SnapPix-S inference forward at batch 8,
//! 32x32: tape nodes, bytes of node values, and buffers taken from the
//! heap. Wall-clock cannot settle small forward-pass changes on a noisy
//! machine; these counts can, so any change to them must be deliberate.

use rand::{rngs::StdRng, SeedableRng};
use snappix_ce::patterns;
use snappix_models::{ActionModel, SnapPixAr, VitConfig};
use snappix_nn::SessionPool;
use snappix_tensor::Tensor;

#[test]
fn snappix_s_batch8_forward_size_is_pinned() {
    let mut rng = StdRng::seed_from_u64(7);
    let mask = patterns::random(16, (8, 8), 0.5, &mut rng).expect("valid mask");
    let model = SnapPixAr::new(VitConfig::snappix_s(32, 32, 10), mask).expect("SnapPix-S");
    let clips = Tensor::rand_uniform(&mut rng, &[8, 16, 32, 32], 0.0, 1.0);
    let mut pool = SessionPool::new();
    let mut sess = pool.inference(model.store());
    let logits = model.build_logits(&mut sess, &clips).expect("forward");
    assert_eq!(sess.graph.value(logits).shape(), &[8, 10]);
    assert_eq!(sess.graph.len(), 68, "tape nodes per forward");
    assert_eq!(
        sess.graph.value_bytes(),
        639_464,
        "bytes of node values per forward"
    );
    assert_eq!(
        sess.graph.buffers_requested(),
        36,
        "buffers a first forward takes from the heap"
    );
    pool.reclaim(sess);
    // The second forward through the pool runs on the first one's
    // buffers: every value was released, so nothing comes from the heap.
    let mut sess = pool.inference(model.store());
    let logits = model.build_logits(&mut sess, &clips).expect("forward");
    assert_eq!(sess.graph.value(logits).shape(), &[8, 10]);
    assert_eq!(sess.graph.len(), 68);
    assert_eq!(
        sess.graph.buffers_requested(),
        0,
        "buffers a second forward through the same pool takes from the heap"
    );
}

/// Logits cloned out of a pooled session keep their bits while later
/// forwards through the same pool run on recycled buffers: a buffer a
/// clone still holds never goes back to the free list.
#[test]
fn logits_cloned_out_of_a_pool_survive_later_forwards() {
    let mut rng = StdRng::seed_from_u64(11);
    let mask = patterns::random(16, (8, 8), 0.5, &mut rng).expect("valid mask");
    let model = SnapPixAr::new(VitConfig::snappix_s(32, 32, 10), mask).expect("SnapPix-S");
    let batches: Vec<Tensor> = (0..3)
        .map(|_| Tensor::rand_uniform(&mut rng, &[8, 16, 32, 32], 0.0, 1.0))
        .collect();
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut pool = SessionPool::new();
    let mut kept: Vec<(Tensor, Vec<u32>)> = Vec::new();
    for round in 0..4 {
        for (b, batch) in batches.iter().enumerate() {
            let mut sess = pool.inference(model.store());
            let logits = model.build_logits(&mut sess, batch).expect("forward");
            let value = sess.graph.value(logits).clone();
            if round == 0 {
                kept.push((value.clone(), bits(&value)));
            } else {
                // The same batch gives the same bits on recycled buffers.
                assert_eq!(bits(&value), kept[b].1, "round {round}, batch {b}");
            }
            pool.reclaim(sess);
            for (logits, recorded) in &kept {
                assert_eq!(&bits(logits), recorded, "a kept clone changed");
            }
        }
    }
}
