//! Regenerates the paper's Fig. 6: task-agnostic CE pattern comparison
//! (AR accuracy vs REC PSNR, with per-pattern Pearson correlation).
//!
//! Run with: `cargo run -p snappix-bench --release --bin fig6`
//! Set `SNAPPIX_SCALE=smoke` for a fast sanity pass.

use snappix_bench::{run_fig6, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env()?;
    println!("== Fig. 6: task-agnostic CE patterns (scale {scale:?}) ==\n");
    let rows = run_fig6(&scale)?;
    println!(
        "{:<16} {:>12} {:>14} {:>14} {:>14}",
        "pattern", "corr (ours)", "corr (paper)", "AR acc (%)", "REC PSNR (dB)"
    );
    for r in &rows {
        println!(
            "{:<16} {:>12.3} {:>14} {:>14.1} {:>14.2}",
            r.pattern,
            r.correlation,
            r.paper_correlation
                .map(|c| format!("{c:.2}"))
                .unwrap_or_else(|| "-".into()),
            r.ar_accuracy,
            r.rec_psnr
        );
    }
    println!(
        "\npaper shape: decorrelated dominates the (AR, REC) Pareto front; \
         random is best-in-REC-only, sparse-random competitive-in-AR-only, \
         long/short worst; ordering tracks the correlation coefficient."
    );
    Ok(())
}
