//! Frame sources: where a stream's frames come from.
//!
//! A deployed coded-exposure node sees an endless sequence of frames,
//! not neatly pre-cut clips. [`FrameSource`] is the pull interface the
//! streaming layer drains — one grayscale `[h, w]` frame at a time — with
//! two implementations backed by the `snappix-video` crate:
//! [`ReplaySource`] replays a rendered [`Video`] (optionally looped),
//! and [`SyntheticSource`] concatenates procedurally-rendered scenes
//! whose action class changes from segment to segment, giving
//! label-change detection a ground truth to be checked against.

use crate::StreamError;
use snappix_tensor::Tensor;
use snappix_video::{Dataset, DatasetConfig, Video};

/// A pull-based producer of grayscale `[h, w]` frames.
///
/// Sources are driven by one stream each, so they take `&mut self` and
/// need only be `Send` (the runner moves each source onto its stream's
/// thread). Returning `Ok(None)` ends the stream gracefully; the session
/// then flushes its in-flight windows and reports.
pub trait FrameSource {
    /// The `[h, w]` geometry of every frame this source yields.
    fn frame_shape(&self) -> [usize; 2];

    /// Produces the next frame, `Ok(None)` once the stream is over.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Source`] when the source cannot produce a
    /// frame (a real deployment's decoder hiccup, a failed capture, ...).
    fn next_frame(&mut self) -> Result<Option<Tensor>, StreamError>;
}

/// Replays the frames of one [`Video`] in order, optionally looping the
/// clip several times — the deterministic source used by tests and
/// benchmarks (streamed results can be compared frame-for-frame against
/// offline inference on the same video).
#[derive(Debug, Clone)]
pub struct ReplaySource {
    video: Video,
    next: usize,
    passes_left: usize,
}

impl ReplaySource {
    /// Replays `video` once, frame 0 through the last.
    pub fn new(video: Video) -> Self {
        ReplaySource {
            video,
            next: 0,
            passes_left: 1,
        }
    }

    /// Replays `video` end to end `passes` times (0 passes is an empty
    /// stream).
    pub fn looped(video: Video, passes: usize) -> Self {
        ReplaySource {
            video,
            next: 0,
            passes_left: passes,
        }
    }
}

impl FrameSource for ReplaySource {
    fn frame_shape(&self) -> [usize; 2] {
        [self.video.height(), self.video.width()]
    }

    fn next_frame(&mut self) -> Result<Option<Tensor>, StreamError> {
        if self.passes_left == 0 || self.video.num_frames() == 0 {
            return Ok(None);
        }
        let frame = self
            .video
            .frame(self.next)
            .map_err(|e| StreamError::Source {
                context: format!("replay index {}: {e}", self.next),
            })?;
        self.next += 1;
        if self.next == self.video.num_frames() {
            self.next = 0;
            self.passes_left -= 1;
        }
        Ok(Some(frame))
    }
}

/// An endless-camera stand-in: renders dataset samples on demand and
/// streams their frames back to back, so the true action class changes
/// at every segment boundary.
///
/// Sample `i` of the underlying [`Dataset`] is a pure function of the
/// config's seed, so a synthetic stream is fully reproducible; the
/// per-segment ground-truth labels are exposed through
/// [`segment_label`](Self::segment_label) for checking emitted events.
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    dataset: Dataset,
    segments: usize,
    segment: usize,
    frame: usize,
    current: Option<(Video, usize)>,
    shape: [usize; 2],
}

impl SyntheticSource {
    /// Streams the first `segments` samples of a dataset rendered from
    /// `config`, one after another.
    pub fn new(config: DatasetConfig, segments: usize) -> Self {
        let shape = [config.height, config.width];
        SyntheticSource {
            dataset: Dataset::new(config, segments.max(1)),
            segments,
            segment: 0,
            frame: 0,
            current: None,
            shape,
        }
    }

    /// Ground-truth action label of segment `i` — what a perfect
    /// label-change detector should settle on while streaming it.
    /// Computed without rendering the segment's frames.
    ///
    /// # Panics
    ///
    /// Panics if `i >= segments`.
    pub fn segment_label(&self, i: usize) -> usize {
        self.dataset.label(i)
    }
}

impl FrameSource for SyntheticSource {
    fn frame_shape(&self) -> [usize; 2] {
        self.shape
    }

    fn next_frame(&mut self) -> Result<Option<Tensor>, StreamError> {
        if self.segment >= self.segments {
            return Ok(None);
        }
        if self.current.is_none() {
            let sample = self.dataset.sample(self.segment);
            self.current = Some((sample.video, sample.label));
            self.frame = 0;
        }
        let (video, _) = self.current.as_ref().expect("just rendered");
        let frame = video.frame(self.frame).map_err(|e| StreamError::Source {
            context: format!("segment {} frame {}: {e}", self.segment, self.frame),
        })?;
        self.frame += 1;
        if self.frame == video.num_frames() {
            self.current = None;
            self.segment += 1;
        }
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snappix_video::ssv2_like;

    fn counting_video(n: usize) -> Video {
        let mut data = Vec::new();
        for i in 0..n {
            data.extend([i as f32; 4]);
        }
        Video::new(Tensor::from_vec(data, &[n, 2, 2]).unwrap()).unwrap()
    }

    fn drain(source: &mut impl FrameSource) -> Vec<f32> {
        let mut seen = Vec::new();
        while let Some(frame) = source.next_frame().unwrap() {
            assert_eq!(frame.shape(), source.frame_shape());
            seen.push(frame.as_slice()[0]);
        }
        seen
    }

    #[test]
    fn replay_yields_frames_in_order_then_ends() {
        let mut source = ReplaySource::new(counting_video(3));
        assert_eq!(source.frame_shape(), [2, 2]);
        assert_eq!(drain(&mut source), vec![0.0, 1.0, 2.0]);
        // Exhausted sources stay exhausted.
        assert!(source.next_frame().unwrap().is_none());
    }

    #[test]
    fn looped_replay_repeats_the_clip() {
        let mut source = ReplaySource::looped(counting_video(2), 3);
        assert_eq!(drain(&mut source), vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0]);
        let mut empty = ReplaySource::looped(counting_video(2), 0);
        assert!(empty.next_frame().unwrap().is_none());
    }

    #[test]
    fn synthetic_streams_segments_deterministically() {
        let config = ssv2_like(4, 8, 8);
        let mut a = SyntheticSource::new(config.clone(), 2);
        let mut b = SyntheticSource::new(config, 2);
        assert_eq!(a.frame_shape(), [8, 8]);
        let mut frames = 0;
        while let Some(frame) = a.next_frame().unwrap() {
            let again = b.next_frame().unwrap().expect("same length");
            assert!(frame.approx_eq(&again, 0.0), "frame {frames} reproducible");
            frames += 1;
        }
        assert_eq!(frames, 8, "2 segments x 4 frames");
        assert!(b.next_frame().unwrap().is_none());
        // Labels are exposed for ground truth and stay in range.
        assert!(a.segment_label(0) < 10);
        assert!(a.segment_label(1) < 10);
    }
}
