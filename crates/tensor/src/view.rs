//! Borrowed row-major matrix views.
//!
//! All compute kernels in this crate are written against [`MatRef`] /
//! [`MatMut`] so the same code path serves a whole owned [`crate::Matrix`]
//! and a row prefix of one ([`MatRef::top_rows`], e.g. the data block of a
//! column-checksummed buffer) without copies.

/// Immutable view over a `rows × cols` row-major `f32` buffer.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
}

impl<'a> MatRef<'a> {
    /// Wrap a slice as a matrix view.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "MatRef: buffer length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { data, rows, cols }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Underlying contiguous storage.
    #[inline]
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Sub-view of the first `rows` rows (a matrix prefix).
    pub fn top_rows(&self, rows: usize) -> MatRef<'a> {
        assert!(rows <= self.rows);
        MatRef::new(&self.data[..rows * self.cols], rows, self.cols)
    }
}

/// Mutable view over a `rows × cols` row-major `f32` buffer.
pub struct MatMut<'a> {
    data: &'a mut [f32],
    rows: usize,
    cols: usize,
}

impl<'a> MatMut<'a> {
    /// Wrap a mutable slice as a matrix view.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn new(data: &'a mut [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "MatMut: buffer length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { data, rows, cols }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Underlying storage.
    #[inline]
    pub fn data(&mut self) -> &mut [f32] {
        self.data
    }

    /// Immutable element access.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Set element `(r, c)` to `v`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reborrow as an immutable view.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_> {
        MatRef::new(self.data, self.rows, self.cols)
    }

    /// Fill the whole view with `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_indexing_is_row_major() {
        let buf = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m = MatRef::new(&buf, 2, 3);
        assert_eq!(m.at(0, 0), 1.0);
        assert_eq!(m.at(0, 2), 3.0);
        assert_eq!(m.at(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn top_rows_prefix() {
        let buf = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m = MatRef::new(&buf, 3, 2);
        let t = m.top_rows(2);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.at(1, 1), 4.0);
    }

    #[test]
    fn mut_set_and_fill() {
        let mut buf = vec![0.0; 6];
        let mut m = MatMut::new(&mut buf, 2, 3);
        m.set(1, 2, 9.0);
        assert_eq!(m.at(1, 2), 9.0);
        m.fill(2.5);
        assert!(buf.iter().all(|&x| x == 2.5));
    }

    #[test]
    #[should_panic]
    fn wrong_len_panics() {
        let buf = vec![0.0; 5];
        let _ = MatRef::new(&buf, 2, 3);
    }
}
