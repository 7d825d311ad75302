//! Sensor hardware walkthrough: streams a clip through the charge-domain
//! CE pixel array, verifies it implements Eqn. 1, shows the capture
//! statistics, readout noise, and the Sec. V area comparison.
//!
//! Run with: `cargo run --release --example sensor_sim`

use rand::{rngs::StdRng, SeedableRng};
use snappix::prelude::*;
use snappix_sensor::area;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const T: usize = 16;
    const HW: usize = 32;
    let mut rng = StdRng::seed_from_u64(7);

    println!("== coded-exposure sensor simulation ==");
    let mask = patterns::random(T, (8, 8), 0.5, &mut rng)?;
    println!(
        "mask: {} slots, tile {:?}, {:.0}% open",
        mask.num_slots(),
        mask.tile(),
        100.0 * mask.open_fraction()
    );

    let data = Dataset::new(ssv2_like(T, HW, HW), 1);
    let clip = data.sample(0).video;

    // Capture through the pixel-level protocol.
    let mut sensor = HardwareSensor::new(HW, HW, mask.clone())?.with_normalization(false);
    let analog = sensor.sense(clip.frames())?;
    let stats = sensor.stats();
    println!("\ncapture protocol accounting:");
    println!("  pattern-clock cycles : {}", stats.pattern_clock_cycles);
    println!("  M6 reset pulses      : {}", stats.pattern_reset_pulses);
    println!("  M7 transfer pulses   : {}", stats.pattern_transfer_pulses);
    println!("  exposure slots       : {}", stats.exposure_slots);
    println!(
        "  pixels read out      : {} (a video camera reads {})",
        stats.pixels_read,
        stats.pixels_read * T as u64
    );

    // Equivalence with the algorithmic codec.
    let reference = encode(clip.frames(), &mask)?;
    let max_err = analog.sub(&reference)?.abs().max();
    println!("\nhardware vs Eqn. 1: max |error| = {max_err:.2e}");

    // Digitize with and without noise.
    let mut clean = Readout::new(ReadoutConfig::noiseless(8, T as f32));
    let mut noisy = Readout::new(ReadoutConfig::default());
    let d_clean = clean.digitize(&analog);
    let d_noisy = noisy.digitize(&analog);
    println!(
        "8-bit ADC PSNR: clean {:.1} dB, with shot+read noise {:.1} dB",
        psnr(
            &analog.scale(1.0 / T as f32),
            &d_clean.scale(1.0 / T as f32)
        )?,
        psnr(
            &analog.scale(1.0 / T as f32),
            &d_noisy.scale(1.0 / T as f32)
        )?,
    );

    // Sec. V area model.
    println!("\n== area model (Sec. V) ==");
    println!(
        "per-pixel CE logic: {:.1} um^2 @65nm -> {:.1} um^2 @22nm",
        area::LOGIC_AREA_65NM_UM2,
        area::LOGIC_AREA_22NM_UM2
    );
    println!(
        "{:<6} {:>18} {:>16} {:>14} {:>10}",
        "tile", "shift-reg wires", "broadcast wires", "wire side um", "fits APS?"
    );
    for row in area::area_table(&[4, 8, 10, 12, 14]) {
        println!(
            "{:<6} {:>18} {:>16} {:>14.2} {:>10}",
            format!("{0}x{0}", row.tile),
            row.shift_register_wires,
            row.broadcast_wires,
            row.broadcast_wire_side_um,
            if row.broadcast_exceeds_aps {
                "no"
            } else {
                "yes"
            }
        );
    }
    println!(
        "broadcast design stops fitting under the APS at tile {0}x{0}; \
         the shift-register design never does",
        area::broadcast_crossover_tile()
    );
    Ok(())
}
