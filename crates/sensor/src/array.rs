//! The full coded-exposure sensor array with shift-register pattern
//! streaming (paper Sec. V).

use crate::{CePixel, Result, SensorError};
use snappix_ce::ExposureMask;
use snappix_tensor::Tensor;

/// Cycle and pulse accounting for one capture, used by the energy model to
/// price the CE control overhead (the paper reports 9 pJ/pixel at a
/// 20 MHz pattern clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CaptureStats {
    /// Pattern-clock cycles spent streaming CE bits.
    pub pattern_clock_cycles: u64,
    /// `M6` (pattern-reset) pulses issued.
    pub pattern_reset_pulses: u64,
    /// `M7` (pattern-transfer) pulses issued.
    pub pattern_transfer_pulses: u64,
    /// Exposure slots integrated.
    pub exposure_slots: u64,
    /// Pixels read out.
    pub pixels_read: u64,
}

/// A behavioral coded-exposure sensor: an `h x w` array of [`CePixel`]s
/// whose bottom-die DFFs form one shift register per exposure tile.
///
/// [`CeSensor::capture`] runs the full slot protocol of Sec. V and returns
/// the analog FD image, which equals the algorithmic Eqn. 1 encoding
/// exactly (property-tested in the workspace integration tests).
#[derive(Debug, Clone)]
pub struct CeSensor {
    width: usize,
    height: usize,
    mask: ExposureMask,
    pixels: Vec<CePixel>,
    stats: CaptureStats,
}

impl CeSensor {
    /// Builds a sensor of `height x width` pixels running `mask`.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::Geometry`] when extents are zero or the mask
    /// tile does not divide the array.
    pub fn new(height: usize, width: usize, mask: ExposureMask) -> Result<Self> {
        let (th, tw) = mask.tile();
        if height == 0 || width == 0 {
            return Err(SensorError::Geometry {
                context: "sensor extents must be positive".to_string(),
            });
        }
        if !height.is_multiple_of(th) || !width.is_multiple_of(tw) {
            return Err(SensorError::Geometry {
                context: format!("tile {th}x{tw} does not divide array {height}x{width}"),
            });
        }
        Ok(CeSensor {
            width,
            height,
            mask,
            pixels: vec![CePixel::new(); height * width],
            stats: CaptureStats::default(),
        })
    }

    /// Array height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Array width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The exposure mask programmed into the controller.
    pub fn mask(&self) -> &ExposureMask {
        &self.mask
    }

    /// Accounting from the most recent capture.
    pub fn stats(&self) -> CaptureStats {
        self.stats
    }

    /// Direct access to a pixel's state (diagnostics and tests).
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::Geometry`] for out-of-range coordinates.
    pub fn pixel(&self, y: usize, x: usize) -> Result<&CePixel> {
        if y >= self.height || x >= self.width {
            return Err(SensorError::Geometry {
                context: format!("pixel ({y}, {x}) outside {}x{}", self.height, self.width),
            });
        }
        Ok(&self.pixels[y * self.width + x])
    }

    /// Captures a `[t, h, w]` irradiance video through the slot protocol
    /// and returns the analog `[h, w]` FD image, which
    /// [`crate::Readout::digitize`] turns into ADC codes.
    ///
    /// Protocol per slot (paper Sec. V): stream bits, pulse `M6`
    /// (conditional PD reset), integrate the slot, stream the same bits
    /// again, pulse `M7` (conditional transfer), power-gate the DFFs.
    ///
    /// The simulation runs the protocol per *band* of `th` pixel rows:
    /// shift chains never leave their tile, and per-pixel reset, exposure
    /// and transfer are purely local, so bands are fully independent.
    /// Each stream clocks every edge of a tile's chain on a bit-packed
    /// register, 64 DFFs per word op, so a capture costs a few steps per
    /// pixel and slot. The bands run one after another on the calling
    /// thread, so the result does not depend on `SNAPPIX_THREADS`; serve
    /// replicas each own a sensor and capture concurrently.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::Stimulus`] when the video does not match the
    /// sensor resolution or the mask's slot count.
    pub fn capture(&mut self, video: &Tensor) -> Result<Tensor> {
        if video.rank() != 3 {
            return Err(SensorError::Stimulus {
                context: format!("expected [t, h, w] video, got {:?}", video.shape()),
            });
        }
        let (t, h, w) = (video.shape()[0], video.shape()[1], video.shape()[2]);
        if t != self.mask.num_slots() || h != self.height || w != self.width {
            return Err(SensorError::Stimulus {
                context: format!(
                    "video {t}x{h}x{w} does not match sensor {}x{}x{}",
                    self.mask.num_slots(),
                    self.height,
                    self.width
                ),
            });
        }
        for p in &mut self.pixels {
            *p = CePixel::new();
            p.reset_fd();
        }
        let (th, tw) = self.mask.tile();
        let chain_len = th * tw;
        let pattern = self.mask.pattern().as_slice();
        let chain = chain_offsets(th, tw, w);
        let tiles_x = w / tw;
        let words = chain_len.div_ceil(64);
        let mut edge_bits = vec![0u64; t * words];
        for (slot, seq) in edge_bits.chunks_mut(words).enumerate() {
            pack_edge_bits(&pattern[slot * chain_len..(slot + 1) * chain_len], seq);
        }
        let frames = video.as_slice();
        let mut scratch = vec![0u64; 2 * words];
        for (band_index, band) in self.pixels.chunks_mut(th * w).enumerate() {
            let row0 = band_index * th;
            for slot in 0..t {
                let slot_edges = &edge_bits[slot * words..(slot + 1) * words];
                // Phase 1: program the slot's bits and conditionally
                // reset PDs.
                stream_band(band, slot_edges, &chain, tiles_x, tw, &mut scratch);
                for p in band.iter_mut() {
                    p.pattern_reset();
                }
                // Phase 2: integrate the slot (every PD integrates;
                // gating is done purely through reset/transfer).
                let frame = &frames[(slot * h + row0) * w..(slot * h + row0 + th) * w];
                for (p, &light) in band.iter_mut().zip(frame) {
                    p.expose(light, 1.0);
                }
                // Phase 3: re-stream the same bits and conditionally
                // transfer.
                stream_band(band, slot_edges, &chain, tiles_x, tw, &mut scratch);
                for p in band.iter_mut() {
                    p.pattern_transfer();
                }
            }
        }
        // Protocol accounting is deterministic in the geometry: two
        // streams of `chain_len` cycles plus one reset and one transfer
        // pulse per slot (matching the per-call counting the serial loop
        // used to do).
        self.stats = CaptureStats {
            pattern_clock_cycles: 2 * t as u64 * chain_len as u64,
            pattern_reset_pulses: t as u64,
            pattern_transfer_pulses: t as u64,
            exposure_slots: t as u64,
            pixels_read: (h * w) as u64,
        };
        // Rolling readout of the FD array.
        let mut out = Tensor::zeros(&[h, w]);
        let data = out.as_mut_slice();
        for (d, p) in data.iter_mut().zip(&self.pixels) {
            *d = p.read();
        }
        Ok(out)
    }
}

/// Band-slice offset of each chain position from its tile's origin in a
/// band `width` pixels wide: position `k` sits at tile row `k / tw`,
/// tile column `k % tw`. Precomputing them removes a div/mod per DFF
/// from every stream.
fn chain_offsets(th: usize, tw: usize, width: usize) -> Vec<usize> {
    (0..th * tw).map(|k| (k / tw) * width + (k % tw)).collect()
}

/// Packs one slot's CE bits into the edge sequence a stream clocks in:
/// bit `c` of `seq` is the bit entering every chain on clock edge `c`,
/// the slot's bits last-position-first. `seq` must be zeroed and hold
/// `slot_bits.len().div_ceil(64)` words.
fn pack_edge_bits(slot_bits: &[f32], seq: &mut [u64]) {
    for (c, &bit) in slot_bits.iter().rev().enumerate() {
        seq[c / 64] |= u64::from(bit != 0.0) << (c % 64);
    }
}

/// Streams one slot's CE bits into every shift register of a band of
/// `th` pixel rows (one tile-row of the array).
///
/// All tiles stream in parallel in hardware (each has its own 4-wire
/// interface); the pattern clock runs `chain.len()` cycles and bits are
/// pushed last-pixel-first so that after the final cycle pixel `k` of
/// each tile holds bit `k`. Tiles never interact, so the simulation walks
/// them one at a time.
///
/// Each tile's chain is simulated as a bit-packed register: bit `k % 64`
/// of `register[k / 64]` holds chain position `k`. The tile's DFF bits
/// are loaded into the register, every clock edge is one shift-or per
/// word (64 DFFs per op), and each DFF then latches its position's bit.
/// The DFF states afterwards equal those of the clocked chain, one
/// [`CePixel::shift`] call per DFF per edge, which the tests keep as the
/// reference.
///
/// `chain[k]` is the precomputed band-slice offset of chain position `k`
/// from the tile's origin. `edge_bits` packs the bit entering the chain
/// on each edge (bit `c` for edge `c`, see [`pack_edge_bits`]) in
/// `chain.len().div_ceil(64)` words; `scratch` holds twice as many, for
/// the register and the carries between its words.
fn stream_band(
    band: &mut [CePixel],
    edge_bits: &[u64],
    chain: &[usize],
    tiles_x: usize,
    tw: usize,
    scratch: &mut [u64],
) {
    let chain_len = chain.len();
    let (register, carries) = scratch.split_at_mut(edge_bits.len());
    for tx in 0..tiles_x {
        let origin = tx * tw;
        // Ungate every DFF for streaming and load its bit.
        for (word, offsets) in register.iter_mut().zip(chain.chunks(64)) {
            let mut bits = 0u64;
            for &offset in offsets.iter().rev() {
                let p = &mut band[origin + offset];
                p.set_gated(false);
                bits = (bits << 1) | u64::from(p.dff_bit());
            }
            *word = bits;
        }
        // Clock all `chain_len` edges a word at a time. Word `i`'s carry
        // in on edge `c` is word `i - 1`'s bit 63 just before edge `c`,
        // so each word runs every edge once its predecessor has: it reads
        // its carries as a packed edge sequence and leaves its own carry
        // outs in their place for the next word. Within a block of up to
        // 64 edges, edge `c` carries out the block's starting bit
        // `63 - c`, so a block's carry outs are its starting word
        // bit-reversed (the next word reads only the block's `edges`
        // low bits). Bits carried out of the last chain position leave
        // the chain.
        carries.copy_from_slice(edge_bits);
        for word in register.iter_mut() {
            let mut bits = *word;
            for (e, seq) in carries.iter_mut().enumerate() {
                let edges = (chain_len - 64 * e).min(64);
                let mut carry_in = *seq;
                *seq = bits.reverse_bits();
                for _ in 0..edges {
                    bits = (bits << 1) | (carry_in & 1);
                    carry_in >>= 1;
                }
            }
            *word = bits;
        }
        // Latch the streamed bits, then power-gate again.
        for (&word, offsets) in register.iter().zip(chain.chunks(64)) {
            let mut bits = word;
            for &offset in offsets {
                let p = &mut band[origin + offset];
                p.latch(bits & 1 != 0);
                p.set_gated(true);
                bits >>= 1;
            }
        }
    }
}

/// The clocked reference [`stream_band`] must match: every DFF of the
/// band takes one [`CePixel::shift`] call per clock edge, all cycles of a
/// tile before the next tile.
#[cfg(test)]
fn stream_band_clocked(
    band: &mut [CePixel],
    slot_bits: &[f32],
    chain: &[usize],
    tiles_x: usize,
    tw: usize,
) {
    // Ungate every DFF for streaming.
    for p in band.iter_mut() {
        p.set_gated(false);
    }
    let chain_len = chain.len();
    for tx in 0..tiles_x {
        let origin = tx * tw;
        for cycle in 0..chain_len {
            // Bit entering the chain this cycle (reverse order). Walk the
            // chain front-to-back so each pixel consumes its
            // predecessor's previous output within one clock edge.
            let mut carry = slot_bits[chain_len - 1 - cycle] != 0.0;
            for &offset in chain {
                carry = band[origin + offset].shift(carry);
            }
        }
    }
    // Power-gate again once the bits are in place.
    for p in band.iter_mut() {
        p.set_gated(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use snappix_ce::{encode, patterns};

    /// Tile shapes for the packed-chain property: a 1-DFF chain,
    /// non-square tiles, chains one short of, exactly and one past a
    /// word (63/64/65), and multi-word chains (81, 84 and 256 DFFs).
    const TILES: [(usize, usize); 9] = [
        (1, 1),
        (2, 4),
        (3, 1),
        (7, 9),
        (8, 8),
        (5, 13),
        (9, 9),
        (12, 7),
        (16, 16),
    ];

    /// Bits equal under `to_bits`, so `-0.0 != 0.0` and NaN == NaN.
    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The packed register leaves every pixel exactly as the clocked
        /// per-DFF chain does, from arbitrary DFF and gate states, over
        /// two back-to-back streams sharing the scratch words: each DFF
        /// holds its chain position's CE bit and is power-gated again.
        #[test]
        fn packed_stream_matches_clocked_chain(
            tile in 0usize..TILES.len(),
            tiles_x in 1usize..4,
            seed in 0u64..1_000_000,
        ) {
            let (th, tw) = TILES[tile];
            let (width, chain_len) = (tiles_x * tw, th * tw);
            let chain = chain_offsets(th, tw, width);
            let words = chain_len.div_ceil(64);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut packed = vec![CePixel::new(); th * width];
            for p in &mut packed {
                p.shift(rng.random());
                p.set_gated(rng.random());
            }
            let mut clocked = packed.clone();
            let mut scratch = vec![0u64; 2 * words];
            for stream in 0..2 {
                let slot_bits: Vec<f32> =
                    (0..chain_len).map(|_| f32::from(u8::from(rng.random::<bool>()))).collect();
                let mut edge_bits = vec![0u64; words];
                pack_edge_bits(&slot_bits, &mut edge_bits);
                stream_band(&mut packed, &edge_bits, &chain, tiles_x, tw, &mut scratch);
                stream_band_clocked(&mut clocked, &slot_bits, &chain, tiles_x, tw);
                prop_assert!(packed == clocked, "tile {th}x{tw} stream {stream}: chains differ");
                for tx in 0..tiles_x {
                    for (k, &offset) in chain.iter().enumerate() {
                        let p = &packed[tx * tw + offset];
                        prop_assert_eq!(p.dff_bit(), slot_bits[k] != 0.0);
                        prop_assert!(p.is_gated());
                    }
                }
            }
        }
    }

    #[test]
    fn geometry_validation() {
        let mask = patterns::long_exposure(2, (4, 4)).unwrap();
        assert!(CeSensor::new(0, 8, mask.clone()).is_err());
        assert!(CeSensor::new(8, 9, mask.clone()).is_err());
        assert!(CeSensor::new(8, 8, mask).is_ok());
    }

    #[test]
    fn stimulus_validation() {
        let mask = patterns::long_exposure(2, (4, 4)).unwrap();
        let mut sensor = CeSensor::new(8, 8, mask).unwrap();
        assert!(sensor.capture(&Tensor::zeros(&[3, 8, 8])).is_err());
        assert!(sensor.capture(&Tensor::zeros(&[2, 4, 8])).is_err());
        assert!(sensor.capture(&Tensor::zeros(&[8, 8])).is_err());
    }

    #[test]
    fn capture_matches_algorithmic_encode() {
        let mut rng = StdRng::seed_from_u64(0);
        for seed in 0..5u64 {
            let mut mask_rng = StdRng::seed_from_u64(seed);
            let mask = patterns::random(4, (4, 4), 0.5, &mut mask_rng).unwrap();
            let video = Tensor::rand_uniform(&mut rng, &[4, 8, 8], 0.0, 1.0);
            let mut sensor = CeSensor::new(8, 8, mask.clone()).unwrap();
            let hw = sensor.capture(&video).unwrap();
            let sw = encode(&video, &mask).unwrap();
            assert_eq!(
                bits(&hw),
                bits(&sw),
                "hardware and Eqn. 1 disagree for seed {seed}"
            );
        }
    }

    #[test]
    fn sparse_random_mask_matches_encode() {
        let mut rng = StdRng::seed_from_u64(1);
        let mask = patterns::sparse_random(8, (2, 2), &mut rng).unwrap();
        let video = Tensor::rand_uniform(&mut rng, &[8, 6, 6], 0.0, 1.0);
        let mut sensor = CeSensor::new(6, 6, mask.clone()).unwrap();
        let hw = sensor.capture(&video).unwrap();
        let sw = encode(&video, &mask).unwrap();
        assert_eq!(bits(&hw), bits(&sw));
    }

    /// A capture must be bit-for-bit identical across thread counts 1, 2
    /// and > bands, with identical protocol accounting, so a future split
    /// of the bands cannot change a coded image.
    #[test]
    fn capture_parallel_matches_serial_bit_for_bit() {
        use snappix_tensor::parallel::with_threads;
        let mut rng = StdRng::seed_from_u64(5);
        // 48x48 with 8x8 tiles at t=16: 6 bands, 36,864 pixel-slots —
        // two workers' worth of PAR_PIXEL_SLOTS_PER_WORKER.
        let mask = patterns::random(16, (8, 8), 0.5, &mut rng).unwrap();
        let video = Tensor::rand_uniform(&mut rng, &[16, 48, 48], 0.0, 1.0);
        let (reference, ref_stats) = with_threads(1, || {
            let mut sensor = CeSensor::new(48, 48, mask.clone()).unwrap();
            let img = sensor.capture(&video).unwrap();
            (img, sensor.stats())
        });
        for threads in [2usize, 5, 40] {
            let (img, stats) = with_threads(threads, || {
                let mut sensor = CeSensor::new(48, 48, mask.clone()).unwrap();
                let img = sensor.capture(&video).unwrap();
                (img, sensor.stats())
            });
            assert_eq!(img.as_slice(), reference.as_slice(), "{threads} threads");
            assert_eq!(stats, ref_stats, "{threads} threads");
        }
    }

    #[test]
    fn stats_account_for_protocol() {
        let mask = patterns::long_exposure(4, (2, 2)).unwrap();
        let mut sensor = CeSensor::new(4, 4, mask).unwrap();
        sensor.capture(&Tensor::zeros(&[4, 4, 4])).unwrap();
        let stats = sensor.stats();
        // 2 streams per slot x 4 slots x 4 cycles per stream.
        assert_eq!(stats.pattern_clock_cycles, 2 * 4 * 4);
        assert_eq!(stats.pattern_reset_pulses, 4);
        assert_eq!(stats.pattern_transfer_pulses, 4);
        assert_eq!(stats.exposure_slots, 4);
        assert_eq!(stats.pixels_read, 16);
    }

    #[test]
    fn second_capture_is_independent() {
        let mask = patterns::long_exposure(2, (2, 2)).unwrap();
        let mut sensor = CeSensor::new(4, 4, mask).unwrap();
        let bright = sensor.capture(&Tensor::full(&[2, 4, 4], 1.0)).unwrap();
        let dark = sensor.capture(&Tensor::zeros(&[2, 4, 4])).unwrap();
        assert_eq!(bright.as_slice()[0], 2.0);
        assert_eq!(dark.sum(), 0.0, "FD must be reset between captures");
    }

    #[test]
    fn pixel_accessor_bounds() {
        let mask = patterns::long_exposure(2, (2, 2)).unwrap();
        let sensor = CeSensor::new(4, 4, mask).unwrap();
        assert!(sensor.pixel(3, 3).is_ok());
        assert!(sensor.pixel(4, 0).is_err());
    }

    #[test]
    fn shift_register_places_asymmetric_pattern_correctly() {
        // Slot 0 exposes only tile pixel (0, 1); the coded image must
        // light up exactly the columns congruent to 1 mod 2.
        let mut p = Tensor::zeros(&[1, 2, 2]);
        p.set(&[0, 0, 1], 1.0).unwrap();
        let mask = ExposureMask::new(p).unwrap();
        let mut sensor = CeSensor::new(4, 4, mask).unwrap();
        let img = sensor.capture(&Tensor::ones(&[1, 4, 4])).unwrap();
        for y in 0..4 {
            for x in 0..4 {
                let expected = if y % 2 == 0 && x % 2 == 1 { 1.0 } else { 0.0 };
                assert_eq!(img.get(&[y, x]).unwrap(), expected, "pixel ({y}, {x})");
            }
        }
    }
}
