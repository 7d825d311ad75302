//! The full coded-exposure sensor array with shift-register pattern
//! streaming (paper Sec. V).

use crate::{CePixel, Result, SensorError};
use snappix_ce::ExposureMask;

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

/// Integration time of one exposure slot: a full slot of irradiance `e`
/// adds `e` to a PD.
const SLOT_DT: f32 = 1.0;

/// A behavioral coded-exposure sensor: an `h x w` pixel array whose
/// bottom-die DFFs form one shift register per exposure tile.
///
/// A capture ([`crate::HardwareSensor`]'s `sense` without readout or
/// normalization) runs the full slot protocol of Sec. V and returns the
/// analog FD image, which equals the algorithmic Eqn. 1 encoding exactly
/// (property-tested in the workspace integration tests).
///
/// The array keeps each [`CePixel`]'s state packed, not as `CePixel`s:
/// PD and FD charge in two row-major `f32` arrays, and the DFF bits and
/// their power gates as the shift-register words themselves. A tile's
/// register is `chain_len.div_ceil(64)` words, where bit `k % 64` of
/// word `k / 64` is chain position `k`, and pixel `(y, x)` sits at
/// position `(y % th) * tw + x % tw` of tile `(y / th, x / tw)`. A stream
/// clocks those words in place, and reset, exposure and transfer are
/// branch-free selects over whole rows of charge. [`CePixel`] stays the
/// reference model: [`CeSensor::pixel`] assembles one from the arrays,
/// and the tests compare it with a per-pixel run of the same protocol.
#[derive(Debug, Clone)]
pub struct CeSensor {
    width: usize,
    height: usize,
    mask: ExposureMask,
    /// Photodiode charge, row-major.
    pd: Vec<f32>,
    /// Floating-diffusion charge, row-major.
    fd: Vec<f32>,
    /// The DFF bits as shift-register words, one register per tile,
    /// tiles row-major.
    dff: Vec<u64>,
    /// The DFFs' power gates, laid out as `dff`.
    gated: Vec<u64>,
    /// Per slot, the bits entering every chain edge by edge (see
    /// [`pack_edge_bits`]), one register's worth of words each.
    edge_bits: Vec<u64>,
    /// [`chain_mask`] of the tile's chain.
    full: Vec<u64>,
    /// A capture's working state, kept so captures allocate nothing:
    /// the carries between a register's words, and a band's DFF bits,
    /// one byte per pixel, with the register words they were read from.
    carries: Vec<u64>,
    set: Vec<u8>,
    read: Vec<u64>,
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
        let chain_len = th * tw;
        let words = chain_len.div_ceil(64);
        let registers = words * (height / th) * (width / tw);
        let mut edge_bits = vec![0u64; mask.num_slots() * words];
        let pattern = mask.pattern().as_slice();
        for (slot_bits, seq) in pattern
            .chunks_exact(chain_len)
            .zip(edge_bits.chunks_exact_mut(words))
        {
            pack_edge_bits(slot_bits, seq);
        }
        Ok(CeSensor {
            width,
            height,
            mask,
            pd: vec![0.0; height * width],
            fd: vec![0.0; height * width],
            dff: vec![0; registers],
            gated: vec![0; registers],
            edge_bits,
            full: chain_mask(chain_len),
            carries: vec![0; words],
            set: vec![0; th * width],
            read: vec![0; (width / tw) * words],
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

    /// A pixel's state, assembled from the array (diagnostics and tests).
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::Geometry`] for out-of-range coordinates.
    pub fn pixel(&self, y: usize, x: usize) -> Result<CePixel> {
        if y >= self.height || x >= self.width {
            return Err(SensorError::Geometry {
                context: format!("pixel ({y}, {x}) outside {}x{}", self.height, self.width),
            });
        }
        let (th, tw) = self.mask.tile();
        let words = (th * tw).div_ceil(64);
        let tile = (y / th) * (self.width / tw) + x / tw;
        let register = tile * words..(tile + 1) * words;
        let k = (y % th) * tw + x % tw;
        let i = y * self.width + x;
        Ok(CePixel::from_state(
            self.pd[i],
            self.fd[i],
            chain_bit(&self.dff[register.clone()], k),
            chain_bit(&self.gated[register], k),
        ))
    }

    /// Checks that a video of `shape` is one `[t, h, w]` clip this sensor
    /// captures.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::Stimulus`] otherwise.
    pub(crate) fn check_video(&self, shape: &[usize]) -> Result<()> {
        let &[t, h, w] = shape else {
            return Err(SensorError::Stimulus {
                context: format!("expected [t, h, w] video, got {shape:?}"),
            });
        };
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
        Ok(())
    }

    /// Captures one row-major `[t, h, w]` irradiance clip that
    /// [`check_video`](Self::check_video) accepted through the slot
    /// protocol, and reads the analog `[h, w]` FD image out into `image`
    /// ([`crate::Readout::digitize`] turns it into ADC codes). This is
    /// the one capture path: [`crate::HardwareSensor`] runs it per clip.
    ///
    /// Protocol per slot (paper Sec. V): stream bits, pulse `M6`
    /// (conditional PD reset), integrate the slot, stream the same bits
    /// again, pulse `M7` (conditional transfer), power-gate the DFFs.
    ///
    /// The simulation runs the protocol per *band* of `th` pixel rows:
    /// shift chains never leave their tile, and per-pixel reset, exposure
    /// and transfer are purely local, so bands are fully independent.
    /// Each stream clocks a tile's register words in place, up to 64
    /// edges per word op; the band's bits are then spread to one byte per
    /// pixel, eight at a time, and reset, exposure and transfer are
    /// branch-free selects over the band, so a capture costs a few steps
    /// per pixel and slot. The bands run one after another on the calling
    /// thread, so the result does not depend on `SNAPPIX_THREADS`; serve
    /// replicas each own a sensor and capture concurrently.
    pub(crate) fn capture_into(&mut self, clip: &[f32], image: &mut [f32]) {
        let (th, tw) = self.mask.tile();
        let (h, w, t) = (self.height, self.width, self.mask.num_slots());
        let chain_len = th * tw;
        let words = chain_len.div_ceil(64);
        // A fresh capture: `M2` resets every FD, the PDs are empty and
        // the DFFs cleared and ungated.
        self.pd.fill(0.0);
        self.fd.fill(0.0);
        self.dff.fill(0);
        self.gated.fill(0);
        let (band_len, band_words) = (th * w, (w / tw) * words);
        let (full, carries) = (&self.full, &mut self.carries);
        let (set, read) = (&mut self.set, &mut self.read);
        let charges = self
            .pd
            .chunks_exact_mut(band_len)
            .zip(self.fd.chunks_exact_mut(band_len));
        let registers = self
            .dff
            .chunks_exact_mut(band_words)
            .zip(self.gated.chunks_exact_mut(band_words));
        for (band, ((pd, fd), (dff, gated))) in charges.zip(registers).enumerate() {
            for (slot, edges) in self.edge_bits.chunks_exact(words).enumerate() {
                // Phase 1: program the slot's bits; `M6` resets the PDs
                // whose bit is set. Phase 2: every PD integrates the slot
                // (gating is done purely through reset and transfer).
                stream_band(dff, gated, edges, chain_len, full, carries);
                let frame = &clip[(slot * h + band * th) * w..][..band_len];
                read_bits(dff, words, th, tw, set);
                read.copy_from_slice(dff);
                for ((p, &f), &s) in pd.iter_mut().zip(frame).zip(set.iter()) {
                    *p = f32::from_bits(p.to_bits() & keep(s)) + f * SLOT_DT;
                }
                // Phase 3: re-stream the same bits; `M7` moves the PD
                // charge of the pixels whose bit is set into their FD.
                // The bits are re-read only if the stream changed them.
                stream_band(dff, gated, edges, chain_len, full, carries);
                if dff != read.as_slice() {
                    read_bits(dff, words, th, tw, set);
                }
                for ((p, q), &s) in pd.iter_mut().zip(fd.iter_mut()).zip(set.iter()) {
                    let keep = keep(s);
                    *q = f32::from_bits(((*q + *p).to_bits() & !keep) | (q.to_bits() & keep));
                    *p = f32::from_bits(p.to_bits() & keep);
                }
            }
        }
        // Protocol accounting is deterministic in the geometry: two
        // streams of `chain_len` cycles plus one reset and one transfer
        // pulse per slot.
        self.stats = CaptureStats {
            pattern_clock_cycles: 2 * t as u64 * chain_len as u64,
            pattern_reset_pulses: t as u64,
            pattern_transfer_pulses: t as u64,
            exposure_slots: t as u64,
            pixels_read: (h * w) as u64,
        };
        // Rolling readout of the FD array.
        image.copy_from_slice(&self.fd);
    }
}

/// Chain position `k`'s bit in a tile's register `words`.
fn chain_bit(words: &[u64], k: usize) -> bool {
    (words[k / 64] >> (k % 64)) & 1 != 0
}

/// Each register word's chain positions: all 64 bits of every full
/// word, the low `chain_len % 64` of a partial last one. It is also a
/// tile's gate mask with every DFF power-gated.
fn chain_mask(chain_len: usize) -> Vec<u64> {
    (0..chain_len.div_ceil(64))
        .map(|i| u64::MAX >> (64 - (chain_len - 64 * i).min(64)))
        .collect()
}

/// Writes every DFF bit of a band of `th` rows into `set` as 0 or 1, the
/// band's pixels row-major. Pixel `(r, x)` of the band is chain position
/// `r * tw + x % tw` of register `x / tw`, so each register's row is a run
/// of `tw` positions, read eight at a time.
fn read_bits(dff: &[u64], words: usize, th: usize, tw: usize, set: &mut [u8]) {
    let w = set.len() / th;
    for (x0, register) in (0..w).step_by(tw).zip(dff.chunks_exact(words)) {
        for (r, row) in set.chunks_exact_mut(w).enumerate() {
            for (c, run) in row[x0..x0 + tw].chunks_mut(8).enumerate() {
                let bytes = SPREAD[usize::from(byte_at(register, r * tw + 8 * c))].to_le_bytes();
                match <&mut [u8; 8]>::try_from(&mut *run) {
                    Ok(run) => *run = bytes,
                    Err(_) => run.copy_from_slice(&bytes[..run.len()]),
                }
            }
        }
    }
}

/// The eight chain bits of `register` from position `k` up, bit `j` of
/// the result being position `k + j` (positions past the last word read
/// 0).
fn byte_at(register: &[u64], k: usize) -> u8 {
    let (word, bit) = (k / 64, k % 64);
    let high = match register.get(word + 1) {
        Some(&next) if bit > 56 => next << (64 - bit),
        _ => 0,
    };
    ((register[word] >> bit) | high) as u8
}

/// All ones where DFF bit `s` (0 or 1) is clear, zero where it is set:
/// `x & keep(s)` selects `x` or `+0.0` without a branch.
#[inline(always)]
fn keep(s: u8) -> u32 {
    u32::from(s).wrapping_sub(1)
}

/// `SPREAD[b]` holds bit `j` of `b` in its byte `j`.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut j = 0;
        while j < 8 {
            table[b] |= ((b as u64 >> j) & 1) << (8 * j);
            j += 1;
        }
        b += 1;
    }
    table
};

/// Packs one slot's CE bits into the edge sequence a stream clocks in:
/// bit `c` of `seq` is the bit entering every chain on clock edge `c`,
/// the slot's bits last-position-first. `seq` must be zeroed and hold
/// `slot_bits.len().div_ceil(64)` words.
fn pack_edge_bits(slot_bits: &[f32], seq: &mut [u64]) {
    for (c, &bit) in slot_bits.iter().rev().enumerate() {
        seq[c / 64] |= u64::from(bit != 0.0) << (c % 64);
    }
}

/// `n` clock edges, `1..=64`, on one register word: the word shifts up
/// `n` positions and takes bit `c` of `carry_in`, the bit entering it on
/// edge `c`, at position `n - 1 - c`.
fn clock(bits: u64, carry_in: u64, n: usize) -> u64 {
    let entered = (carry_in & (u64::MAX >> (64 - n))).reverse_bits() >> (64 - n);
    bits.checked_shl(n as u32).unwrap_or(0) | entered
}

/// Streams one slot's CE bits into every shift register of a band of
/// `th` pixel rows (one tile-row of the array).
///
/// All tiles stream in parallel in hardware (each has its own 4-wire
/// interface); the pattern clock runs `chain_len` cycles and bits are
/// pushed last-pixel-first so that after the final cycle pixel `k` of
/// each tile holds bit `k`. Tiles never interact, so the simulation walks
/// them one at a time.
///
/// `dff` and `gated` hold the band's registers, `edge_bits.len()` words
/// each (see [`CeSensor`] for the layout), and `full` is
/// [`chain_mask`]`(chain_len)`. Each register is ungated, clocked through
/// all `chain_len` edges in place, latched where ungated and gated again.
/// The DFF states afterwards equal those of the clocked chain, one
/// [`CePixel::shift`] call per DFF per edge, which the tests keep as the
/// reference. `carries` holds `edge_bits.len()` words of scratch.
fn stream_band(
    dff: &mut [u64],
    gated: &mut [u64],
    edge_bits: &[u64],
    chain_len: usize,
    full: &[u64],
    carries: &mut [u64],
) {
    let words = edge_bits.len();
    for (register, gates) in dff
        .chunks_exact_mut(words)
        .zip(gated.chunks_exact_mut(words))
    {
        // Ungate every DFF for streaming.
        gates.fill(0);
        // Clock all `chain_len` edges, up to 64 per word op. Word `i`'s
        // carry in on edge `c` is word `i - 1`'s bit 63 just before edge
        // `c`, so each word runs every edge once its predecessor has: it
        // reads its carries as a packed edge sequence and leaves its own
        // carry outs in their place for the next word. Within a block of
        // up to 64 edges, edge `c` carries out the block's starting bit
        // `63 - c`, so a block's carry outs are its starting word
        // bit-reversed (the next word reads only the block's low bits).
        // Bits carried out of the last chain position leave the chain,
        // and those shifted past it are masked off by `full`.
        carries.copy_from_slice(edge_bits);
        for ((word, gate), &valid) in register.iter_mut().zip(gates.iter_mut()).zip(full) {
            let mut bits = *word;
            for (e, seq) in carries.iter_mut().enumerate() {
                let carry_in = *seq;
                *seq = bits.reverse_bits();
                bits = clock(bits, carry_in, (chain_len - 64 * e).min(64));
            }
            // Latch the streamed bits where ungated, then power-gate
            // again.
            *word = ((bits & !*gate) | (*word & *gate)) & valid;
            *gate = valid;
        }
    }
}

/// Band-slice offset of each chain position from its tile's origin in a
/// band `width` pixels wide: position `k` sits at tile row `k / tw`,
/// tile column `k % tw`.
#[cfg(test)]
fn chain_offsets(th: usize, tw: usize, width: usize) -> Vec<usize> {
    (0..th * tw).map(|k| (k / tw) * width + (k % tw)).collect()
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
    use crate::HardwareSensor;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use snappix_ce::{encode, patterns, Sense};
    use snappix_tensor::Tensor;

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

    /// Packs a band of `CePixel`s' DFF bits and gates into register
    /// words, the layout [`stream_band`] works on.
    fn pack_band(
        band: &[CePixel],
        chain: &[usize],
        tiles_x: usize,
        tw: usize,
    ) -> (Vec<u64>, Vec<u64>) {
        let words = chain.len().div_ceil(64);
        let (mut dff, mut gated) = (vec![0u64; tiles_x * words], vec![0u64; tiles_x * words]);
        for tx in 0..tiles_x {
            for (k, &offset) in chain.iter().enumerate() {
                let p = &band[tx * tw + offset];
                dff[tx * words + k / 64] |= u64::from(p.dff_bit()) << (k % 64);
                gated[tx * words + k / 64] |= u64::from(p.is_gated()) << (k % 64);
            }
        }
        (dff, gated)
    }

    /// The slot protocol of [`CeSensor::capture_into`] run on one `CePixel`
    /// per pixel, with the clocked chain for every stream: the reference
    /// state a capture of `video` must leave in the array.
    fn capture_clocked(mask: &ExposureMask, video: &Tensor) -> Vec<CePixel> {
        let (t, h, w) = (video.shape()[0], video.shape()[1], video.shape()[2]);
        let (th, tw) = mask.tile();
        let chain = chain_offsets(th, tw, w);
        let pattern = mask.pattern().as_slice();
        let frames = video.as_slice();
        let mut pixels = vec![CePixel::new(); h * w];
        for p in &mut pixels {
            p.reset_fd();
        }
        for (band_index, band) in pixels.chunks_mut(th * w).enumerate() {
            let row0 = band_index * th;
            for slot in 0..t {
                let slot_bits = &pattern[slot * th * tw..(slot + 1) * th * tw];
                stream_band_clocked(band, slot_bits, &chain, w / tw, tw);
                for p in band.iter_mut() {
                    p.pattern_reset();
                }
                let frame = &frames[(slot * h + row0) * w..(slot * h + row0 + th) * w];
                for (p, &light) in band.iter_mut().zip(frame) {
                    p.expose(light, 1.0);
                }
                stream_band_clocked(band, slot_bits, &chain, w / tw, tw);
                for p in band.iter_mut() {
                    p.pattern_transfer();
                }
            }
        }
        pixels
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The packed-word stream leaves every DFF exactly as the clocked
        /// per-`CePixel` chain does, from arbitrary DFF and gate states,
        /// over two back-to-back streams sharing the carry words: each
        /// DFF holds its chain position's CE bit and is power-gated
        /// again, and no bit lands past the chain. At capture level, a
        /// capture that follows a dirty one leaves every pixel equal to a
        /// per-`CePixel` run of the same protocol.
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
            let full = chain_mask(chain_len);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut clocked = vec![CePixel::new(); th * width];
            for p in &mut clocked {
                p.shift(rng.random());
                p.set_gated(rng.random());
            }
            let (mut dff, mut gated) = pack_band(&clocked, &chain, tiles_x, tw);
            let mut carries = vec![0u64; words];
            for stream in 0..2 {
                let slot_bits: Vec<f32> =
                    (0..chain_len).map(|_| f32::from(u8::from(rng.random::<bool>()))).collect();
                let mut edge_bits = vec![0u64; words];
                pack_edge_bits(&slot_bits, &mut edge_bits);
                stream_band(&mut dff, &mut gated, &edge_bits, chain_len, &full, &mut carries);
                stream_band_clocked(&mut clocked, &slot_bits, &chain, tiles_x, tw);
                let expected = pack_band(&clocked, &chain, tiles_x, tw);
                prop_assert!(
                    (&dff, &gated) == (&expected.0, &expected.1),
                    "tile {th}x{tw} stream {stream}: chains differ"
                );
                for (tx, register) in dff.chunks_exact(words).enumerate() {
                    let gates = &gated[tx * words..(tx + 1) * words];
                    for (k, &bit) in slot_bits.iter().enumerate() {
                        prop_assert_eq!(chain_bit(register, k), bit != 0.0);
                        prop_assert!(chain_bit(gates, k));
                    }
                    for ((&word, &gate), &valid) in register.iter().zip(gates).zip(&full) {
                        prop_assert_eq!((word & !valid, gate), (0, valid));
                    }
                }
            }

            let tiles_y = rng.random_range(1..4usize);
            let t = rng.random_range(1..5usize);
            let height = tiles_y * th;
            let mask = patterns::random(t, (th, tw), 0.5, &mut rng).unwrap();
            let mut sensor = HardwareSensor::new(height, width, mask.clone())
                .unwrap()
                .with_normalization(false);
            let dirty = Tensor::rand_uniform(&mut rng, &[t, height, width], 0.0, 1.0);
            let video = Tensor::rand_uniform(&mut rng, &[t, height, width], 0.0, 1.0);
            sensor.sense(&dirty).unwrap();
            let image = sensor.sense(&video).unwrap();
            let reference = capture_clocked(&mask, &video);
            for y in 0..height {
                for x in 0..width {
                    let expected = reference[y * width + x];
                    prop_assert!(sensor.sensor().pixel(y, x).unwrap() == expected, "pixel ({y}, {x})");
                    prop_assert_eq!(image.get(&[y, x]).unwrap().to_bits(), expected.read().to_bits());
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
        let mut sensor = HardwareSensor::new(8, 8, mask)
            .unwrap()
            .with_normalization(false);
        assert!(sensor.sense(&Tensor::zeros(&[3, 8, 8])).is_err());
        assert!(sensor.sense(&Tensor::zeros(&[2, 4, 8])).is_err());
        assert!(sensor.sense(&Tensor::zeros(&[8, 8])).is_err());
    }

    #[test]
    fn capture_matches_algorithmic_encode() {
        let mut rng = StdRng::seed_from_u64(0);
        for seed in 0..5u64 {
            let mut mask_rng = StdRng::seed_from_u64(seed);
            let mask = patterns::random(4, (4, 4), 0.5, &mut mask_rng).unwrap();
            let video = Tensor::rand_uniform(&mut rng, &[4, 8, 8], 0.0, 1.0);
            let mut sensor = HardwareSensor::new(8, 8, mask.clone())
                .unwrap()
                .with_normalization(false);
            let hw = sensor.sense(&video).unwrap();
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
        let mut sensor = HardwareSensor::new(6, 6, mask.clone())
            .unwrap()
            .with_normalization(false);
        let hw = sensor.sense(&video).unwrap();
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
        // 48x48 with 8x8 tiles at t=16: 6 bands, so 40 threads are more
        // than there are bands.
        let mask = patterns::random(16, (8, 8), 0.5, &mut rng).unwrap();
        let video = Tensor::rand_uniform(&mut rng, &[16, 48, 48], 0.0, 1.0);
        let (reference, ref_stats) = with_threads(1, || {
            let mut sensor = HardwareSensor::new(48, 48, mask.clone())
                .unwrap()
                .with_normalization(false);
            let img = sensor.sense(&video).unwrap();
            (img, sensor.stats())
        });
        for threads in [2usize, 5, 40] {
            let (img, stats) = with_threads(threads, || {
                let mut sensor = HardwareSensor::new(48, 48, mask.clone())
                    .unwrap()
                    .with_normalization(false);
                let img = sensor.sense(&video).unwrap();
                (img, sensor.stats())
            });
            assert_eq!(img.as_slice(), reference.as_slice(), "{threads} threads");
            assert_eq!(stats, ref_stats, "{threads} threads");
        }
    }

    #[test]
    fn stats_account_for_protocol() {
        let mask = patterns::long_exposure(4, (2, 2)).unwrap();
        let mut sensor = HardwareSensor::new(4, 4, mask)
            .unwrap()
            .with_normalization(false);
        sensor.sense(&Tensor::zeros(&[4, 4, 4])).unwrap();
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
        let mut sensor = HardwareSensor::new(4, 4, mask)
            .unwrap()
            .with_normalization(false);
        let bright = sensor.sense(&Tensor::full(&[2, 4, 4], 1.0)).unwrap();
        let dark = sensor.sense(&Tensor::zeros(&[2, 4, 4])).unwrap();
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
        let mut sensor = HardwareSensor::new(4, 4, mask)
            .unwrap()
            .with_normalization(false);
        let img = sensor.sense(&Tensor::ones(&[1, 4, 4])).unwrap();
        for y in 0..4 {
            for x in 0..4 {
                let expected = if y % 2 == 0 && x % 2 == 1 { 1.0 } else { 0.0 };
                assert_eq!(img.get(&[y, x]).unwrap(), expected, "pixel ({y}, {x})");
            }
        }
    }
}
