//! Label-change events with hysteresis.
//!
//! Streaming inference is only useful if something *acts* on it, and
//! acting on every per-window label would chase noise. The detector
//! watches the smoothed label stream and emits an [`Event`] only when a
//! new label has held for `hysteresis` consecutive windows — debouncing
//! the boundary flicker between actions the way a thermostat debounces
//! temperature.

use std::fmt;

/// A confirmed label change on one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The stream this event belongs to (the runner's stream id).
    pub stream: usize,
    /// Index of the window that confirmed the change.
    pub window: usize,
    /// Index of the last stream frame of that window — when, in frame
    /// time, the change was confirmed.
    pub at_frame: usize,
    /// The previously active label; `None` for the stream's first
    /// confirmed label.
    pub from: Option<usize>,
    /// The newly active label.
    pub to: usize,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.from {
            Some(from) => write!(
                f,
                "stream {}: {} -> {} at frame {} (window {})",
                self.stream, from, self.to, self.at_frame, self.window
            ),
            None => write!(
                f,
                "stream {}: settled on {} at frame {} (window {})",
                self.stream, self.to, self.at_frame, self.window
            ),
        }
    }
}

/// Hysteresis state machine: a candidate label must persist for
/// `hysteresis` consecutive windows before it becomes active and an
/// [`Event`] fires. `hysteresis = 1` reacts to every smoothed change.
///
/// Public so schedulers other than
/// [`StreamSession`](crate::StreamSession) (the fleet simulator's
/// event-driven nodes, custom runners) can reuse the exact debouncing
/// semantics.
#[derive(Debug, Clone)]
pub struct EventDetector {
    hysteresis: usize,
    active: Option<usize>,
    candidate: Option<(usize, usize)>, // (label, consecutive windows seen)
}

impl EventDetector {
    /// A fresh detector requiring `hysteresis` consecutive windows
    /// (clamped to at least 1) to confirm a label.
    pub fn new(hysteresis: usize) -> Self {
        EventDetector {
            hysteresis: hysteresis.max(1),
            active: None,
            candidate: None,
        }
    }

    /// Feeds one smoothed label; returns the event if this window
    /// confirms a change.
    pub fn observe(
        &mut self,
        stream: usize,
        window: usize,
        at_frame: usize,
        label: usize,
    ) -> Option<Event> {
        if self.active == Some(label) {
            // Back on the active label: any half-confirmed candidate was
            // a blip, forget it.
            self.candidate = None;
            return None;
        }
        let seen = match self.candidate {
            Some((cand, seen)) if cand == label => seen + 1,
            _ => 1,
        };
        if seen < self.hysteresis {
            self.candidate = Some((label, seen));
            return None;
        }
        let from = self.active;
        self.active = Some(label);
        self.candidate = None;
        Some(Event {
            stream,
            window,
            at_frame,
            from,
            to: label,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(detector: &mut EventDetector, seq: &[usize]) -> Vec<Event> {
        seq.iter()
            .enumerate()
            .filter_map(|(w, &l)| detector.observe(7, w, w * 2 + 3, l))
            .collect()
    }

    #[test]
    fn first_label_needs_confirmation_too() {
        let mut d = EventDetector::new(2);
        let events = labels(&mut d, &[4, 4]);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].from, None);
        assert_eq!(events[0].to, 4);
        assert_eq!(events[0].window, 1);
        assert_eq!(events[0].at_frame, 5);
        assert_eq!(events[0].stream, 7);
        assert!(events[0].to_string().contains("settled on 4"));
    }

    #[test]
    fn single_window_blips_are_debounced() {
        let mut d = EventDetector::new(2);
        let events = labels(&mut d, &[1, 1, 3, 1, 1, 3, 3, 1]);
        // The lone 3s never persist for 2 windows; the trailing single 1
        // after the confirmed 3 doesn't either.
        assert_eq!(
            events.iter().map(|e| (e.from, e.to)).collect::<Vec<_>>(),
            vec![(None, 1), (Some(1), 3)]
        );
        assert_eq!(events[1].window, 6);
        assert!(events[1].to_string().contains("1 -> 3"));
    }

    #[test]
    fn hysteresis_one_fires_on_every_change() {
        let mut d = EventDetector::new(1);
        let events = labels(&mut d, &[2, 2, 5, 2]);
        assert_eq!(
            events.iter().map(|e| e.to).collect::<Vec<_>>(),
            vec![2, 5, 2]
        );
        // Zero clamps to 1.
        let mut z = EventDetector::new(0);
        assert_eq!(labels(&mut z, &[9]).len(), 1);
    }

    #[test]
    fn interleaved_candidates_reset_the_count() {
        // 3 never appears twice *consecutively*, so it is never
        // confirmed even though it appears often.
        let mut d = EventDetector::new(2);
        let events = labels(&mut d, &[0, 0, 3, 4, 3, 4, 3]);
        assert_eq!(events.iter().map(|e| e.to).collect::<Vec<_>>(), vec![0]);
    }
}
