//! Charge-domain behavioral model of one CE pixel (paper Fig. 5).
//!
//! The pixel is a 4T active pixel whose photodiode (PD) reset and charge
//! transfer are gated by a locally stored CE bit:
//!
//! * `M1` resets the PD — but only when `M6` (pattern-reset) is pulsed
//!   *and* the DFF holds `1`;
//! * `M3` transfers PD charge to the floating diffusion (FD) — but only
//!   when `M7` (pattern-transfer) is pulsed *and* the DFF holds `1`;
//! * `M2` resets the FD at the start of a capture;
//! * `M4`/`M5` read the FD out when the row is selected.
//!
//! The PD integrates incident light continuously; the protocol in
//! [`crate::CeSensor`] arranges the reset/transfer pulses so the FD
//! accumulates exactly the light from the slots whose CE bit was `1` —
//! i.e. the pixel physically computes one term of Eqn. 1.

/// Behavioral state of a single coded-exposure pixel.
///
/// This is the reference model of the array: [`crate::CeSensor`] keeps
/// the same four fields for every pixel, packed into plain charge arrays
/// and shift-register words, and its tests check it against a
/// per-`CePixel` run of the slot protocol.
///
/// Charge is modeled in normalized units: exposing to irradiance `e` for a
/// full slot adds `e` to the PD.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CePixel {
    /// Photodiode charge (normalized).
    pd: f32,
    /// Floating-diffusion charge (normalized) — what readout sees.
    fd: f32,
    /// The one-bit CE pattern buffered in the bottom-die DFF.
    dff: bool,
    /// Whether the DFF is currently power-gated (it ignores clocks while
    /// gated; the paper gates it between pattern uses to save power).
    gated: bool,
}

impl CePixel {
    /// A pixel with empty wells and a cleared, ungated DFF.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current photodiode charge.
    pub fn pd_charge(&self) -> f32 {
        self.pd
    }

    /// Current floating-diffusion charge (the value readout digitizes).
    pub fn fd_charge(&self) -> f32 {
        self.fd
    }

    /// The CE bit currently buffered in the DFF.
    pub fn dff_bit(&self) -> bool {
        self.dff
    }

    /// Whether the DFF is power-gated.
    pub fn is_gated(&self) -> bool {
        self.gated
    }

    /// Clocks the shift register: captures `bit_in` into this pixel's DFF
    /// and returns the previous bit (which feeds the next pixel's
    /// `pattern in` wire). A power-gated DFF holds its state and forwards
    /// its held bit.
    pub fn shift(&mut self, bit_in: bool) -> bool {
        let out = self.dff;
        if !self.gated {
            self.dff = bit_in;
        }
        out
    }

    /// A pixel in the given state: how [`crate::CeSensor::pixel`]
    /// assembles one from the array's packed state.
    pub(crate) fn from_state(pd: f32, fd: f32, dff: bool, gated: bool) -> Self {
        CePixel { pd, fd, dff, gated }
    }

    /// Power-gates or ungates the DFF.
    pub fn set_gated(&mut self, gated: bool) {
        self.gated = gated;
    }

    /// `M2`: resets the floating diffusion (start of a capture).
    pub fn reset_fd(&mut self) {
        self.fd = 0.0;
    }

    /// `M6` pulse: if the DFF holds `1`, the PD is reset through `M1`
    /// (clearing any charge accumulated in skipped slots) so the coming
    /// slot integrates from zero. A `0` bit leaves the PD untouched.
    pub fn pattern_reset(&mut self) {
        if self.dff {
            self.pd = 0.0;
        }
    }

    /// Exposes the pixel: the PD integrates `irradiance * dt`
    /// unconditionally (photodiodes cannot be switched off).
    pub fn expose(&mut self, irradiance: f32, dt: f32) {
        self.pd += irradiance * dt;
    }

    /// `M7` pulse: if the DFF holds `1`, the PD charge moves to the FD
    /// through `M3` (FD accumulates, PD empties). A `0` bit blocks the
    /// transfer entirely.
    pub fn pattern_transfer(&mut self) {
        if self.dff {
            self.fd += self.pd;
            self.pd = 0.0;
        }
    }

    /// `M4`/`M5`: reads the FD as a voltage (non-destructive in this
    /// model; correlated double sampling is folded into the readout noise
    /// model).
    pub fn read(&self) -> f32 {
        self.fd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_pixel_is_empty() {
        let p = CePixel::new();
        assert_eq!(p.pd_charge(), 0.0);
        assert_eq!(p.fd_charge(), 0.0);
        assert!(!p.dff_bit());
        assert!(!p.is_gated());
    }

    #[test]
    fn exposure_integrates_into_pd_only() {
        let mut p = CePixel::new();
        p.expose(0.5, 1.0);
        p.expose(0.25, 2.0);
        assert_eq!(p.pd_charge(), 1.0);
        assert_eq!(p.fd_charge(), 0.0);
    }

    #[test]
    fn transfer_requires_set_bit() {
        let mut p = CePixel::new();
        p.expose(1.0, 1.0);
        p.pattern_transfer(); // bit is 0: blocked
        assert_eq!(p.fd_charge(), 0.0);
        assert_eq!(p.pd_charge(), 1.0);
        p.shift(true);
        p.pattern_transfer(); // bit is 1: moves charge
        assert_eq!(p.fd_charge(), 1.0);
        assert_eq!(p.pd_charge(), 0.0);
    }

    #[test]
    fn pattern_reset_clears_pd_only_when_bit_set() {
        let mut p = CePixel::new();
        p.expose(1.0, 1.0);
        p.pattern_reset(); // bit 0: PD keeps stale charge
        assert_eq!(p.pd_charge(), 1.0);
        p.shift(true);
        p.pattern_reset(); // bit 1: PD cleared for fresh slot
        assert_eq!(p.pd_charge(), 0.0);
    }

    #[test]
    fn skipped_slot_charge_never_reaches_fd() {
        // Slot A: bit 0 (skip), slot B: bit 1 (expose). The stale slot-A
        // charge must be flushed by the pattern reset, so FD sees only B.
        let mut p = CePixel::new();
        // Slot A, bit 0.
        p.shift(false);
        p.pattern_reset();
        p.expose(10.0, 1.0); // bright stale light
        p.pattern_transfer(); // blocked
                              // Slot B, bit 1.
        p.shift(true);
        p.pattern_reset(); // flushes the stale 10.0
        p.expose(0.5, 1.0);
        p.pattern_transfer();
        assert_eq!(p.fd_charge(), 0.5);
    }

    #[test]
    fn consecutive_exposed_slots_accumulate_in_fd() {
        let mut p = CePixel::new();
        for light in [0.25, 0.5] {
            p.shift(true);
            p.pattern_reset();
            p.expose(light, 1.0);
            p.pattern_transfer();
        }
        assert_eq!(p.fd_charge(), 0.75);
    }

    #[test]
    fn shift_register_forwards_previous_bit() {
        let mut p = CePixel::new();
        assert!(!p.shift(true)); // old bit was 0
        assert!(p.shift(false)); // old bit was 1
        assert!(!p.dff_bit());
    }

    #[test]
    fn gated_dff_ignores_clocks_but_forwards_state() {
        let mut p = CePixel::new();
        p.shift(true);
        p.set_gated(true);
        assert!(p.shift(false), "gated DFF must forward held bit");
        assert!(p.dff_bit(), "gated DFF must not capture");
        p.set_gated(false);
        p.shift(false);
        assert!(!p.dff_bit());
    }

    #[test]
    fn fd_reset_clears_accumulated_charge() {
        let mut p = CePixel::new();
        p.shift(true);
        p.pattern_reset();
        p.expose(1.0, 1.0);
        p.pattern_transfer();
        p.reset_fd();
        assert_eq!(p.read(), 0.0);
    }
}
