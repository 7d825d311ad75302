//! Regenerates the paper's Table I: SnapPix-S/B vs SVC2D, C3D and the
//! VideoMAEv2-ST-like video transformer, on the three dataset stand-ins,
//! with inference throughput.
//!
//! Run with: `cargo run -p snappix-bench --release --bin table1`
//! Set `SNAPPIX_SCALE=smoke` for a fast sanity pass.

use snappix_bench::{run_table1, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env()?;
    println!("== Table I: comparison with previous systems (scale {scale:?}) ==\n");
    let rows = run_table1(&scale)?;
    println!(
        "{:<20} {:<6} {:>12} {:>12} {:>12} {:>12}",
        "model", "input", "ucf101-like", "ssv2-like", "k400-like", "inf/sec"
    );
    for r in &rows {
        println!(
            "{:<20} {:<6} {:>11.1}% {:>11.1}% {:>11.1}% {:>12.0}",
            r.model, r.input, r.accuracy[0], r.accuracy[1], r.accuracy[2], r.inferences_per_sec
        );
    }
    let rate = |model: &str| {
        rows.iter()
            .find(|r| r.model == model)
            .map(|r| r.inferences_per_sec)
    };
    if let (Some(snappix), Some(c3d)) = (rate("SnapPix-S"), rate("C3D")) {
        println!(
            "\nSnapPix-S / C3D inf/sec: {:.1}x (paper: 4.2x)",
            snappix / c3d
        );
    }
    println!(
        "\npaper (112x112, T=16, real datasets):\n\
         SnapPix-S  CE    74.65% 42.38% 47.58%  2282/s\n\
         SnapPix-B  CE    79.14% 45.21% 54.11%   760/s\n\
         SVC2D      CE    41.16% 23.05% 26.09%  2135/s\n\
         C3D        Video 62.70% 33.48% 41.66%   541/s\n\
         VideoMAEv2 Video 72.54% 39.84% 41.99%   750/s\n\
         shape to reproduce: SnapPix variants lead accuracy; CE-input models \
         out-run video-input models at matched width."
    );
    Ok(())
}
