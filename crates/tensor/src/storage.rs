//! Where a tensor's elements live, plus the element-type tag.
//!
//! Every [`Tensor`](crate::Tensor) is a window over an [`Arc`]-backed
//! buffer, a [`SharedBuffer`]. Clones and shape-only ops (`reshape`,
//! `flatten`, `unsqueeze`, `squeeze`) share that buffer: they bump a
//! reference count instead of copying elements, on any thread. The
//! first write to a buffer held elsewhere copies the window into a
//! fresh buffer of its own (copy-on-write), so no tensor ever sees
//! another's writes. A freshly built tensor is the sole holder of its
//! whole buffer, so kernels and optimizers write it in place and
//! `into_vec` moves its `Vec` out, both without a copy. A model
//! artifact loaded once backs every serving replica the same way:
//! each weight is a window into the artifact's one payload buffer.

use std::sync::Arc;

/// The reference-counted buffer behind every tensor.
///
/// A plain `Arc<Vec<f32>>`: constructing one from an existing `Vec` is
/// a move, not a copy, and clones are reference-count bumps. Two
/// tensors share storage exactly when their buffers are
/// [`Arc::ptr_eq`].
pub type SharedBuffer = Arc<Vec<f32>>;

/// Where kernels' output buffers come from.
///
/// The `*_in` kernels ([`Tensor::matmul_in`](crate::Tensor::matmul_in),
/// [`Tensor::map_in`](crate::Tensor::map_in) and their kin) ask their
/// source for each output buffer. The buffer is exactly `len` elements
/// long and held by nobody else, and its elements are unspecified: a
/// recycled buffer keeps whatever it held last. The kernel overwrites
/// every element, so the source never changes a bit of the result.
/// The allocating kernels (`matmul`, `map`, ...) draw from the heap; an
/// autograd tape's free list hands back the buffers its earlier steps
/// released.
pub trait BufferSource {
    /// A uniquely held buffer of exactly `len` elements.
    fn take(&mut self, len: usize) -> SharedBuffer;
}

/// The heap as a [`BufferSource`]: every request is a fresh, zeroed
/// allocation. The allocating kernels (`matmul`, `map`, ...) are their
/// `*_in` forms over this source.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Heap;

impl BufferSource for Heap {
    fn take(&mut self, len: usize) -> SharedBuffer {
        Arc::new(vec![0.0; len])
    }
}

/// Element type of a tensor's storage.
///
/// All in-memory compute is `f32` today; the enum exists so the model
/// artifact format and the storage layer have a place where quantized
/// element types (`i8`, `f16`) land without another format revision —
/// each variant fixes an on-disk encoding and an element size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DType {
    /// 32-bit IEEE-754 floats, little-endian on disk.
    F32,
}

impl DType {
    /// Size of one element in bytes.
    pub fn size_of(self) -> usize {
        match self {
            DType::F32 => 4,
        }
    }

    /// The stable one-byte tag this dtype serializes as (`.spx`
    /// tensor-info table). Tags are append-only: existing values never
    /// change meaning.
    pub fn tag(self) -> u8 {
        match self {
            DType::F32 => 0,
        }
    }

    /// Decodes a serialized tag; `None` for tags this build does not
    /// know (a newer artifact, or corruption).
    pub fn from_tag(tag: u8) -> Option<DType> {
        match tag {
            0 => Some(DType::F32),
            _ => None,
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DType::F32 => write!(f, "f32"),
        }
    }
}

/// The elements behind one [`Tensor`](crate::Tensor): the window
/// `offset..offset + len` of a [`SharedBuffer`].
#[derive(Debug, Clone)]
pub(crate) struct Storage {
    buf: SharedBuffer,
    offset: usize,
    len: usize,
}

impl Storage {
    /// A fresh buffer holding `v`, windowed whole — a move, not a copy.
    pub(crate) fn new(v: Vec<f32>) -> Self {
        let len = v.len();
        Storage::window(Arc::new(v), 0, len)
    }

    /// A window over `buf`; the caller has checked that it fits.
    pub(crate) fn window(buf: SharedBuffer, offset: usize, len: usize) -> Self {
        Storage { buf, offset, len }
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The elements as a read-only slice.
    pub(crate) fn as_slice(&self) -> &[f32] {
        &self.buf[self.offset..self.offset + self.len]
    }

    /// The buffer this window lies in.
    pub(crate) fn buffer(&self) -> &SharedBuffer {
        &self.buf
    }

    /// The buffer, when this window is its only holder.
    pub(crate) fn into_unique_buffer(mut self) -> Option<SharedBuffer> {
        Arc::get_mut(&mut self.buf).is_some().then_some(self.buf)
    }

    /// `true` when the window spans its whole buffer.
    fn is_whole(&self) -> bool {
        self.offset == 0 && self.len == self.buf.len()
    }

    /// Mutable access. A whole buffer held nowhere else is written in
    /// place; otherwise the window is first copied into a fresh buffer
    /// of its own (copy-on-write).
    pub(crate) fn make_mut(&mut self) -> &mut [f32] {
        if !self.is_whole() {
            *self = Storage::new(self.as_slice().to_vec());
        }
        Arc::make_mut(&mut self.buf).as_mut_slice()
    }

    /// The elements as a vector: moved out of a whole buffer held
    /// nowhere else, copied otherwise.
    pub(crate) fn into_vec(self) -> Vec<f32> {
        if self.is_whole() {
            Arc::unwrap_or_clone(self.buf)
        } else {
            self.as_slice().to_vec()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_round_trips_through_tags() {
        assert_eq!(DType::from_tag(DType::F32.tag()), Some(DType::F32));
        assert_eq!(DType::from_tag(0xff), None);
        assert_eq!(DType::F32.size_of(), 4);
        assert_eq!(DType::F32.to_string(), "f32");
    }

    #[test]
    fn owned_and_shared_views_agree() {
        let owned = Storage::new(vec![1.0, 2.0, 3.0, 4.0]);
        let buf: SharedBuffer = Arc::new(vec![0.0, 1.0, 2.0, 3.0, 4.0, 9.0]);
        let shared = Storage::window(Arc::clone(&buf), 1, 4);
        assert_eq!(owned.as_slice(), shared.as_slice());
        assert_eq!(shared.len(), 4);
        assert!(Arc::ptr_eq(shared.buffer(), &buf));
        assert!(!Arc::ptr_eq(owned.buffer(), &buf));
    }

    #[test]
    fn make_mut_detaches_shared_storage() {
        let buf: SharedBuffer = Arc::new(vec![1.0, 2.0, 3.0]);
        let mut a = Storage::window(Arc::clone(&buf), 0, 3);
        let b = a.clone();
        a.make_mut()[0] = 99.0;
        // The write went to a private copy; the shared buffer and every
        // other view are untouched.
        assert!(!Arc::ptr_eq(a.buffer(), &buf));
        assert_eq!(a.as_slice(), &[99.0, 2.0, 3.0]);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(buf.as_slice(), &[1.0, 2.0, 3.0]);
        // Once a holds its buffer alone, make_mut writes in place.
        let detached = Arc::as_ptr(a.buffer());
        a.make_mut()[1] = 50.0;
        assert_eq!(Arc::as_ptr(a.buffer()), detached);
        assert_eq!(a.as_slice(), &[99.0, 50.0, 3.0]);
        // A window short of its buffer copies just the window, even when
        // nothing else holds the buffer.
        let mut part = Storage::window(Arc::new(vec![7.0, 8.0, 9.0]), 1, 2);
        part.make_mut()[0] = 0.0;
        assert_eq!(part.buffer().as_slice(), &[0.0, 9.0]);
        assert_eq!(part.into_vec(), vec![0.0, 9.0]);
    }

    #[test]
    fn fresh_storage_moves_without_copying_and_clones_share() {
        let v = vec![5.0; 8];
        let data = v.as_ptr();
        let s = Storage::new(v);
        assert_eq!(s.as_slice().as_ptr(), data);
        let t = s.clone();
        assert!(Arc::ptr_eq(s.buffer(), t.buffer()));
        // A held clone forces into_vec to copy; the last holder moves.
        assert_eq!(t.into_vec(), vec![5.0; 8]);
        let u = s.into_vec();
        assert_eq!(u.as_ptr(), data);
    }
}
