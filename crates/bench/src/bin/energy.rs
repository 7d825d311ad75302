//! Regenerates the paper's Sec. VI-D energy analysis: edge-server savings
//! (short/long range), the edge-GPU scenario, and the downsample-baseline
//! accuracy comparison.
//!
//! Run with: `cargo run -p snappix-bench --release --bin energy`
//! Set `SNAPPIX_SCALE=smoke` for a fast sanity pass.

use snappix_bench::{run_energy, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env()?;
    println!("== Sec. VI-D: edge energy analysis (scale {scale:?}) ==\n");
    let r = run_energy(&scale)?;
    println!("{:<44} {:>10} {:>10}", "quantity", "measured", "paper");
    println!(
        "{:<44} {:>9.1}x {:>10}",
        "ADC/MIPI + wireless reduction", r.readout_wireless_reduction, "16x"
    );
    println!(
        "{:<44} {:>9.1}x {:>10}",
        "edge saving, short range (passive WiFi)", r.short_range_saving, "7.6x"
    );
    println!(
        "{:<44} {:>9.1}x {:>10}",
        "edge saving, long range (LoRa backscatter)", r.long_range_saving, "15.4x"
    );
    println!(
        "{:<44} {:>9.1}x {:>10}",
        "edge-GPU saving vs VideoMAEv2-ST", r.gpu_saving_vs_videomae, "1.4x"
    );
    println!(
        "{:<44} {:>9.1}x {:>10}",
        "edge-GPU saving vs C3D", r.gpu_saving_vs_c3d, "4.5x"
    );
    println!(
        "{:<44} {:>9.1}% {:>10}",
        "SnapPix-B over downsample baseline (ssv2)", r.downsample_accuracy_gap, "+6.24%"
    );
    Ok(())
}
