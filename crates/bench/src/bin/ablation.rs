//! Regenerates the paper's Sec. VI-E ablation study on SnapPix-S
//! (SSV2 stand-in, AR task): remove pre-training, replace the
//! decorrelated pattern with random, replace tile-repetitive with a
//! global pattern.
//!
//! Run with: `cargo run -p snappix-bench --release --bin ablation`
//! Set `SNAPPIX_SCALE=smoke` for a fast sanity pass.

use snappix_bench::{run_ablation, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env()?;
    println!("== Sec. VI-E: ablation study (scale {scale:?}) ==\n");
    let rows = run_ablation(&scale)?;
    let full = rows.first().map(|r| r.accuracy).unwrap_or(f32::NAN);
    println!(
        "{:<48} {:>10} {:>12} {:>14}",
        "variant", "acc (%)", "delta (ours)", "delta (paper)"
    );
    for r in &rows {
        println!(
            "{:<48} {:>10.1} {:>12.1} {:>14}",
            r.variant,
            r.accuracy,
            r.accuracy - full,
            r.paper_delta
                .map(|d| format!("{d:+.2}"))
                .unwrap_or_else(|| "-".into()),
        );
    }
    println!(
        "\npaper shape: every removal hurts; the global (non-tile-repetitive) \
         pattern is by far the most damaging, pre-training second."
    );
    Ok(())
}
