//! Bit-for-bit checks of the tensor kernels' fast paths against naive
//! per-element references: each reference computes every output element
//! from its coordinates alone, with the same f32 operations in the same
//! order, so any indexing slip in a fast path shows as a bit difference.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use snappix_tensor::{parallel, Tensor};

type BinaryOp = fn(f32, f32) -> f32;

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn random(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    Tensor::rand_uniform(rng, shape, -4.0, 4.0)
}

/// Row-major coordinates of flat index `flat` in `shape`.
fn coords_of(mut flat: usize, shape: &[usize]) -> Vec<usize> {
    let mut coords = vec![0; shape.len()];
    for axis in (0..shape.len()).rev() {
        coords[axis] = flat % shape[axis];
        flat /= shape[axis];
    }
    coords
}

/// Flat index of `coords` in `shape`.
fn flat_of(coords: &[usize], shape: &[usize]) -> usize {
    coords
        .iter()
        .zip(shape)
        .fold(0, |flat, (&c, &d)| flat * d + c)
}

/// Element of `t` that output coordinates `out` broadcast from: `t` is
/// right-aligned and reads coordinate 0 on its unit axes.
fn broadcast_read(t: &Tensor, out: &[usize]) -> f32 {
    let lead = out.len() - t.rank();
    let coords: Vec<usize> = t
        .shape()
        .iter()
        .enumerate()
        .map(|(i, &d)| if d == 1 { 0 } else { out[lead + i] })
        .collect();
    t.as_slice()[flat_of(&coords, t.shape())]
}

fn zip_reference(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let rank = a.rank().max(b.rank());
    let extent = |t: &Tensor, axis: usize| {
        let lead = rank - t.rank();
        if axis < lead {
            1
        } else {
            t.shape()[axis - lead]
        }
    };
    let shape: Vec<usize> = (0..rank)
        .map(|axis| {
            let (da, db) = (extent(a, axis), extent(b, axis));
            if da == 1 {
                db
            } else {
                da
            }
        })
        .collect();
    let len: usize = shape.iter().product();
    let data = (0..len)
        .map(|i| {
            let c = coords_of(i, &shape);
            f(broadcast_read(a, &c), broadcast_read(b, &c))
        })
        .collect();
    Tensor::from_vec(data, &shape).unwrap()
}

/// An operand shape that broadcasts to `out`: the last axis is `out`'s
/// (`full_last`) or a unit axis, every other axis randomly full or unit,
/// and up to `rank - 1` leading axes dropped (all of them, down to a
/// scalar, when the last axis is a unit axis).
fn operand_shape(rng: &mut StdRng, out: &[usize], full_last: bool) -> Vec<usize> {
    let rank = out.len();
    let mut shape: Vec<usize> = out
        .iter()
        .map(|&d| if rng.random::<bool>() { d } else { 1 })
        .collect();
    shape[rank - 1] = if full_last { out[rank - 1] } else { 1 };
    let max_drop = if full_last { rank - 1 } else { rank };
    let drop = rng.random_range(0..=max_drop);
    shape.split_off(drop)
}

proptest! {
    /// Every last-axis stride case of the broadcast path (both operands
    /// contiguous, left only, right only, neither) at ranks 1-4, with
    /// unit axes, missing axes and zero extents.
    #[test]
    fn zip_with_matches_coordinate_reference(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rank = rng.random_range(1..=4usize);
        let mut out: Vec<usize> = (0..rank).map(|_| rng.random_range(1..5usize)).collect();
        out[rank - 1] = rng.random_range(2..7usize);
        if rng.random_range(0..4u32) == 0 {
            let axis = rng.random_range(0..rank);
            out[axis] = 0;
        }
        for (a_full, b_full) in [(true, true), (true, false), (false, true), (false, false)] {
            let (a_shape, b_shape) = (operand_shape(&mut rng, &out, a_full), operand_shape(&mut rng, &out, b_full));
            let (a, b) = (random(&mut rng, &a_shape), random(&mut rng, &b_shape));
            let ops: [(&str, BinaryOp); 4] = [
                ("add", |x, y| x + y),
                ("sub", |x, y| x - y),
                ("mul", |x, y| x * y),
                ("div", |x, y| x / y),
            ];
            for (name, f) in ops {
                let got = a.zip_with(&b, f).unwrap();
                let want = zip_reference(&a, &b, f);
                prop_assert_eq!(got.shape(), want.shape());
                prop_assert!(bits(&got) == bits(&want),
                    "{} of {:?} and {:?}", name, a.shape(), b.shape());
            }
            prop_assert!(bits(&a.add(&b).unwrap()) == bits(&zip_reference(&a, &b, |x, y| x + y)));
            prop_assert!(bits(&a.mul(&b).unwrap()) == bits(&zip_reference(&a, &b, |x, y| x * y)));
        }
    }

    /// `permute` with the last axis kept in place (the contiguous-run
    /// path) and with it moved (the per-element walk).
    #[test]
    fn permute_matches_coordinate_reference(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rank = rng.random_range(1..=5usize);
        let mut shape: Vec<usize> = (0..rank).map(|_| rng.random_range(1..5usize)).collect();
        if rng.random_range(0..5u32) == 0 {
            let axis = rng.random_range(0..rank);
            shape[axis] = 0;
        }
        let t = random(&mut rng, &shape);
        // Fisher-Yates over the leading axes; the kept variant leaves the
        // last axis alone, the moved one swaps it with a random leader.
        let mut kept: Vec<usize> = (0..rank).collect();
        for i in (1..rank.saturating_sub(1)).rev() {
            let j = rng.random_range(0..=i);
            kept.swap(i, j);
        }
        let mut moved = kept.clone();
        if rank > 1 {
            let j = rng.random_range(0..rank - 1);
            moved.swap(rank - 1, j);
        }
        for perm in [kept, moved] {
            let got = t.permute(&perm).unwrap();
            let out_shape: Vec<usize> = perm.iter().map(|&p| shape[p]).collect();
            prop_assert_eq!(got.shape(), &out_shape[..]);
            for (i, &v) in got.as_slice().iter().enumerate() {
                let c = coords_of(i, &out_shape);
                let mut src = vec![0; rank];
                for (axis, &p) in perm.iter().enumerate() {
                    src[p] = c[axis];
                }
                let want = t.as_slice()[flat_of(&src, &shape)];
                prop_assert!(v.to_bits() == want.to_bits(), "perm {:?} of {:?} at {:?}", perm, shape, c);
            }
        }
    }

    /// Last-axis `sum_axis` keeps several rows in flight; each row must
    /// still be the ascending sum from `0.0`, at row counts around the
    /// block width.
    #[test]
    fn last_axis_sum_matches_ascending_row_sums(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for rows in [0usize, 1, 7, 8, 9, 33] {
            let cols = rng.random_range(0..40usize);
            let t = random(&mut rng, &[rows, cols]);
            let want: Vec<u32> = (0..rows)
                .map(|r| {
                    let mut acc = 0.0f32;
                    for c in 0..cols {
                        acc += t.as_slice()[r * cols + c];
                    }
                    acc.to_bits()
                })
                .collect();
            let flat = t.sum_axis(1, false).unwrap();
            prop_assert_eq!(flat.shape(), &[rows][..]);
            prop_assert!(bits(&flat) == want, "{} rows x {} cols", rows, cols);
            let kept = t.sum_axis(1, true).unwrap();
            prop_assert_eq!(kept.shape(), &[rows, 1][..]);
            prop_assert!(bits(&kept) == want);
            // The same rows seen as a rank-3 tensor's last axis.
            if rows == 33 {
                let r3 = t.reshape(&[3, 11, cols]).unwrap().sum_axis(2, false).unwrap();
                prop_assert!(bits(&r3) == want);
            }
        }
    }

    /// The rank-3 x rank-2 product is the flattened rank-2 product, at
    /// sizes below and above the parallel split and at 1 and 2 threads.
    #[test]
    fn batched_matmul_matches_flattened_product(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let big = rng.random::<bool>();
        let (b, m, k, n) = if big {
            (rng.random_range(4..9usize), 32, 64, rng.random_range(33..70usize))
        } else {
            (rng.random_range(0..5usize), rng.random_range(1..9usize), rng.random_range(1..9usize), rng.random_range(1..9usize))
        };
        let a = random(&mut rng, &[b, m, k]);
        let w = random(&mut rng, &[k, n]);
        let flat = a.reshape(&[b * m, k]).unwrap().matmul(&w).unwrap();
        for threads in [1usize, 2] {
            let got = parallel::with_threads(threads, || a.matmul(&w).unwrap());
            prop_assert_eq!(got.shape(), &[b, m, n][..]);
            prop_assert!(bits(&got) == bits(&flat), "[{}, {}, {}] x [{}, {}] at {} threads", b, m, k, k, n, threads);
        }
    }

    /// `stack` copies each input straight into place; the result is the
    /// old unsqueeze-then-concat composition at every axis.
    #[test]
    fn stack_matches_unsqueeze_concat(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rank = rng.random_range(0..=3usize);
        let shape: Vec<usize> = (0..rank).map(|_| rng.random_range(0..4usize)).collect();
        let count = rng.random_range(1..5usize);
        let parts: Vec<Tensor> = (0..count).map(|_| random(&mut rng, &shape)).collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        for axis in 0..=rank {
            let unsqueezed: Vec<Tensor> = parts.iter().map(|t| t.unsqueeze(axis).unwrap()).collect();
            let urefs: Vec<&Tensor> = unsqueezed.iter().collect();
            let want = Tensor::concat(&urefs, axis).unwrap();
            let got = Tensor::stack(&refs, axis).unwrap();
            prop_assert_eq!(got.shape(), want.shape());
            prop_assert!(bits(&got) == bits(&want), "axis {} of {:?}", axis, shape);
        }
        prop_assert!(Tensor::stack(&refs, rank + 1).is_err());
    }

    /// Batched patch extraction and assembly equal the per-frame
    /// operations stacked.
    #[test]
    fn batched_patches_match_per_frame(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (ph, pw) = (rng.random_range(1..4usize), rng.random_range(1..4usize));
        let (h, w) = (ph * rng.random_range(1..4usize), pw * rng.random_range(1..4usize));
        let batch = rng.random_range(0..4usize);
        let frames = random(&mut rng, &[batch, h, w]);
        let got = frames.extract_patches(ph, pw).unwrap();
        let per_frame: Vec<Tensor> = (0..batch)
            .map(|b| frames.index_axis(0, b).unwrap().extract_patches(ph, pw).unwrap())
            .collect();
        prop_assert_eq!(got.shape(), &[batch, (h / ph) * (w / pw), ph * pw][..]);
        for (b, want) in per_frame.iter().enumerate() {
            prop_assert!(bits(&got.index_axis(0, b).unwrap()) == bits(want));
        }
        prop_assert!(bits(&got.assemble_patches(ph, pw, h, w).unwrap()) == bits(&frames));
    }
}
