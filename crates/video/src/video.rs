//! The video container type.

use snappix_tensor::{Tensor, TensorError};

/// A grayscale video clip in linear light: a `[t, h, w]` tensor with values
/// in `[0, 1]`.
///
/// The paper converts all datasets to grayscale in linear space before
/// simulating coded exposure (Sec. VI-A); this type is the in-memory
/// equivalent of one such clip.
///
/// # Examples
///
/// ```
/// use snappix_video::Video;
/// use snappix_tensor::Tensor;
///
/// # fn main() -> Result<(), snappix_tensor::TensorError> {
/// let v = Video::new(Tensor::zeros(&[16, 32, 32]))?;
/// assert_eq!(v.num_frames(), 16);
/// assert_eq!(v.height(), 32);
/// assert_eq!(v.width(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Video {
    frames: Tensor,
}

impl Video {
    /// Wraps a `[t, h, w]` tensor as a video.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-3 tensors.
    pub fn new(frames: Tensor) -> Result<Self, TensorError> {
        if frames.rank() != 3 {
            return Err(TensorError::RankMismatch {
                expected: 3,
                got: frames.rank(),
            });
        }
        Ok(Video { frames })
    }

    /// The underlying `[t, h, w]` tensor.
    pub fn frames(&self) -> &Tensor {
        &self.frames
    }

    /// Consumes the video, returning the frame tensor.
    pub fn into_frames(self) -> Tensor {
        self.frames
    }

    /// Number of frames `t`.
    pub fn num_frames(&self) -> usize {
        self.frames.shape()[0]
    }

    /// Frame height.
    pub fn height(&self) -> usize {
        self.frames.shape()[1]
    }

    /// Frame width.
    pub fn width(&self) -> usize {
        self.frames.shape()[2]
    }

    /// One frame as an `[h, w]` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfRange`] for a bad index.
    pub fn frame(&self, t: usize) -> Result<Tensor, TensorError> {
        self.frames.index_axis(0, t)
    }

    /// Temporal average of all frames (`[h, w]`), i.e. what a full-length
    /// conventional exposure would capture up to normalization.
    pub fn temporal_mean(&self) -> Tensor {
        self.frames
            .mean_axis(0, false)
            .expect("rank-3 invariant guarantees axis 0 exists")
    }

    /// Iterates over sliding `[t, h, w]` windows of the clip: window `k`
    /// covers frames `[k * hop, k * hop + t)`, so consecutive windows
    /// overlap when `hop < t`, tile the clip when `hop == t`, and skip
    /// frames when `hop > t`. A trailing stretch shorter than `t` frames
    /// is dropped — every yielded window is full-length.
    ///
    /// This is the offline face of streaming inference: a real-time
    /// window assembler over the same frame sequence must produce
    /// exactly these tensors (`snappix-stream` pins that equivalence).
    ///
    /// `hop` is clamped to at least 1; a window longer than the clip
    /// (or `t == 0`) yields nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use snappix_video::Video;
    /// use snappix_tensor::Tensor;
    ///
    /// # fn main() -> Result<(), snappix_tensor::TensorError> {
    /// let v = Video::new(Tensor::arange(5 * 2 * 2).reshape(&[5, 2, 2])?)?;
    /// let windows: Vec<Tensor> = v.windows(2, 3).collect();
    /// assert_eq!(windows.len(), 2); // frames [0, 2) and [3, 5)
    /// assert_eq!(windows[1].shape(), &[2, 2, 2]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn windows(&self, t: usize, hop: usize) -> Windows<'_> {
        Windows {
            video: self,
            t,
            hop: hop.max(1),
            next_start: 0,
        }
    }

    /// Spatially downsamples every frame by `factor x factor` average
    /// pooling — the paper's "simple compression baseline" (Sec. VI-D)
    /// downsamples 4x4 to match SnapPix's 16x rate.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] when the frame extents are
    /// not divisible by `factor`.
    pub fn spatial_downsample(&self, factor: usize) -> Result<Video, TensorError> {
        let (t, h, w) = (self.num_frames(), self.height(), self.width());
        if factor == 0 || h % factor != 0 || w % factor != 0 {
            return Err(TensorError::InvalidArgument {
                context: format!("factor {factor} does not divide {h}x{w}"),
            });
        }
        let (oh, ow) = (h / factor, w / factor);
        let mut out = Tensor::zeros(&[t, oh, ow]);
        let src = self.frames.as_slice();
        let dst = out.as_mut_slice();
        let norm = 1.0 / (factor * factor) as f32;
        for f in 0..t {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for dy in 0..factor {
                        for dx in 0..factor {
                            acc += src[(f * h + oy * factor + dy) * w + ox * factor + dx];
                        }
                    }
                    dst[(f * oh + oy) * ow + ox] = acc * norm;
                }
            }
        }
        Video::new(out)
    }
}

/// Iterator over sliding `[t, h, w]` windows of a [`Video`], created by
/// [`Video::windows`].
///
/// Each window is a freshly-allocated contiguous tensor (one memcpy of
/// `t` frames from the clip), ready to feed `Pipeline::infer_clip` or a
/// serving submission directly.
#[derive(Debug, Clone)]
pub struct Windows<'a> {
    video: &'a Video,
    t: usize,
    hop: usize,
    next_start: usize,
}

impl Iterator for Windows<'_> {
    type Item = Tensor;

    fn next(&mut self) -> Option<Tensor> {
        let n = self.video.num_frames();
        if self.t == 0 || self.next_start + self.t > n {
            return None;
        }
        let (h, w) = (self.video.height(), self.video.width());
        let frame_len = h * w;
        let src = self.video.frames().as_slice();
        let start = self.next_start * frame_len;
        let data = src[start..start + self.t * frame_len].to_vec();
        self.next_start += self.hop;
        Some(Tensor::from_vec(data, &[self.t, h, w]).expect("window data matches its shape"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.video.num_frames();
        let left = if self.t == 0 || self.next_start + self.t > n {
            0
        } else {
            (n - self.t - self.next_start) / self.hop + 1
        };
        (left, Some(left))
    }
}

impl ExactSizeIterator for Windows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_wrong_rank() {
        assert!(Video::new(Tensor::zeros(&[4, 4])).is_err());
        assert!(Video::new(Tensor::zeros(&[2, 4, 4])).is_ok());
    }

    #[test]
    fn accessors() {
        let v = Video::new(Tensor::arange(2 * 3 * 4).reshape(&[2, 3, 4]).unwrap()).unwrap();
        assert_eq!(v.num_frames(), 2);
        assert_eq!(v.height(), 3);
        assert_eq!(v.width(), 4);
        let f1 = v.frame(1).unwrap();
        assert_eq!(f1.shape(), &[3, 4]);
        assert_eq!(f1.get(&[0, 0]).unwrap(), 12.0);
        assert!(v.frame(2).is_err());
        assert_eq!(v.clone().into_frames().len(), 24);
    }

    #[test]
    fn clones_share_the_frame_buffer() {
        // Replaying one clip to many consumers must not copy its frames.
        let v = Video::new(Tensor::zeros(&[4, 8, 8])).unwrap();
        let replay = v.clone();
        assert!(std::sync::Arc::ptr_eq(
            v.frames().shared_buffer(),
            replay.frames().shared_buffer()
        ));
    }

    #[test]
    fn temporal_mean_averages_frames() {
        let f0 = Tensor::zeros(&[2, 2]);
        let f1 = Tensor::full(&[2, 2], 2.0);
        let frames = Tensor::stack(&[&f0, &f1], 0).unwrap();
        let v = Video::new(frames).unwrap();
        assert_eq!(v.temporal_mean().as_slice(), &[1.0; 4]);
    }

    /// A 10-frame video whose frame `i` is constant `i`, so a window's
    /// content identifies exactly which frames it covers.
    fn counting_video(n: usize) -> Video {
        let mut data = Vec::with_capacity(n * 4);
        for i in 0..n {
            data.extend([i as f32; 4]);
        }
        Video::new(Tensor::from_vec(data, &[n, 2, 2]).unwrap()).unwrap()
    }

    fn starts(v: &Video, t: usize, hop: usize) -> Vec<usize> {
        v.windows(t, hop)
            .map(|w| w.as_slice()[0] as usize)
            .collect()
    }

    #[test]
    fn windows_with_hop_one_slide_densely() {
        let v = counting_video(5);
        // n - t + 1 windows, starting at every frame.
        assert_eq!(starts(&v, 3, 1), vec![0, 1, 2]);
        let first = v.windows(3, 1).next().unwrap();
        assert_eq!(first.shape(), &[3, 2, 2]);
        assert_eq!(
            first.as_slice(),
            &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0],
            "window content is the contiguous frame run"
        );
        assert_eq!(v.windows(3, 1).len(), 3, "exact size hint");
    }

    #[test]
    fn windows_with_hop_beyond_t_skip_frames() {
        let v = counting_video(10);
        // hop 4 > t 2: frames 2-3 and 6-7 belong to no window.
        assert_eq!(starts(&v, 2, 4), vec![0, 4, 8]);
        for (k, w) in v.windows(2, 4).enumerate() {
            assert_eq!(w.as_slice()[0] as usize, k * 4);
            assert_eq!(w.as_slice()[4] as usize, k * 4 + 1);
        }
    }

    #[test]
    fn windows_drop_a_partial_tail() {
        // 10 frames, t = 3, hop = 3: windows at 0, 3, 6 — frame 9 alone
        // cannot fill a window and is dropped.
        let v = counting_video(10);
        assert_eq!(starts(&v, 3, 3), vec![0, 3, 6]);
        // hop 2 with t 3 over 10 frames: starts 0, 2, 4, 6 — a window at
        // 8 would need frame 10, so the tail is dropped.
        assert_eq!(starts(&v, 3, 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn windows_degenerate_cases() {
        let v = counting_video(4);
        assert_eq!(v.windows(5, 1).count(), 0, "window longer than the clip");
        assert_eq!(v.windows(0, 1).count(), 0, "zero-length window");
        assert_eq!(starts(&v, 4, 1), vec![0], "window == clip is one window");
        assert_eq!(starts(&v, 2, 0), vec![0, 1, 2], "hop 0 clamps to 1");
        let mut it = v.windows(2, 3);
        assert_eq!(it.size_hint(), (1, Some(1)));
        it.next();
        assert_eq!(it.size_hint(), (0, Some(0)));
    }

    #[test]
    fn downsample_averages_blocks() {
        let frame = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], &[1, 2, 2]).unwrap();
        let v = Video::new(frame).unwrap();
        let d = v.spatial_downsample(2).unwrap();
        assert_eq!(d.frames().as_slice(), &[1.5]);
        assert!(v.spatial_downsample(3).is_err());
        assert!(v.spatial_downsample(0).is_err());
    }
}
