//! Cross-commit gate for the convolution baselines of Table I.
//!
//! Seeded SVC2D (2-D convolutions behind the shift-variant layer) and C3D
//! (3-D convolutions) run one small batch forward and backward through a
//! cross-entropy loss. The logits' bit patterns and one hash per named
//! parameter of its gradient's bit patterns are compared exactly with a
//! checked-in fixture (`tests/fixtures/conv_baselines_bits.txt`).
//!
//! A convolution rewrite that keeps every f32 operation passes unedited; a
//! change that moves a single bit of a logit or a gradient fails. The
//! fixture is never regenerated: it is the reference the kernels are held
//! to.

use rand::{rngs::StdRng, SeedableRng};
use snappix_models::{ActionModel, C3d, Svc2d};
use snappix_nn::{fnv1a64, Session};
use snappix_tensor::Tensor;

const T: usize = 8;
const HW: usize = 16;
const TILE: usize = 8;
const CLASSES: usize = 5;
const LABELS: [usize; 2] = [1, 3];

const FIXTURE: &str = include_str!("fixtures/conv_baselines_bits.txt");

/// The fixture lines one model yields: `<model> logits <hex f32 bits...>`
/// for each clip, then `<model> grad <param> <hex fnv1a64>` for each
/// parameter in registration order.
fn lines(tag: &str, model: &dyn ActionModel) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(0xba5e);
    let clips = Tensor::rand_uniform(&mut rng, &[LABELS.len(), T, HW, HW], 0.0, 1.0);
    let mut sess = Session::new(model.store());
    let logits = model.build_logits(&mut sess, &clips).expect("forward");
    let mut out: Vec<String> = sess
        .graph
        .value(logits)
        .as_slice()
        .chunks(CLASSES)
        .map(|row| {
            let bits: Vec<String> = row.iter().map(|v| format!("{:08x}", v.to_bits())).collect();
            format!("{tag} logits {}", bits.join(" "))
        })
        .collect();
    let loss = sess
        .graph
        .cross_entropy_logits(logits, &LABELS)
        .expect("loss");
    let grads = sess.backward(loss).expect("backward");
    for (id, name, _) in model.store().iter() {
        let grad = grads.get(id).expect("every parameter gets a gradient");
        let bytes: Vec<u8> = grad
            .as_slice()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        out.push(format!("{tag} grad {name} {:016x}", fnv1a64(&bytes)));
    }
    out
}

fn fixture(tag: &str) -> Vec<&'static str> {
    FIXTURE
        .lines()
        .filter(|line| line.split_whitespace().next() == Some(tag))
        .collect()
}

fn assert_matches_fixture(tag: &str, model: &dyn ActionModel) {
    let (got, want) = (lines(tag, model), fixture(tag));
    assert!(!want.is_empty(), "fixture has no {tag} lines");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "{tag} moved against the fixture");
    }
    assert_eq!(got.len(), want.len(), "{tag}: line count moved");
}

#[test]
fn svc2d_logits_and_gradients_match_the_fixture() {
    let model = Svc2d::new(T, HW, HW, TILE, CLASSES).expect("SVC2D geometry");
    assert_matches_fixture("svc2d", &model);
}

#[test]
fn c3d_logits_and_gradients_match_the_fixture() {
    let model = C3d::new(T, HW, HW, CLASSES).expect("C3D geometry");
    assert_matches_fixture("c3d", &model);
}
