//! Paged append-row storage for per-session KV caches.
//!
//! Autoregressive decoding appends one key/value row per generated token
//! and multiplies against the whole cache every step. [`PagedKv`] is the
//! storage primitive: rows live in **fixed-size blocks** of
//! `block_rows × cols` drawn from the thread-local [`crate::workspace`]
//! arena, each block optionally followed by `tail` pinned **border rows**
//! (where a checksummed cache keeps its per-block column-checksum tails).
//! Appending a row never moves existing data — when the current block
//! fills, a fresh block is checked out of the arena — so growth is O(cols)
//! per row with no grow-and-copy, and blocks are stable addresses a serving
//! gateway can verify-on-move during eviction/compaction. A block comes
//! from the smallest arena size class that fits it, so it occupies less
//! than 1.25× its length and never pins a packing-sized buffer; a retired
//! session's blocks all return to that class, which keeps every one up to
//! the thread's high-water count, so the next session no longer than it
//! grows without an arena miss.
//!
//! GEMM interop does not require contiguity: the crate-internal
//! `PagedKv::src` view exposes the logical data matrix through the
//! `SrcRead` packing trait, which the packed kernels consume
//! element-order-faithfully — products over a paged cache are
//! bit-identical to the same product over a contiguous matrix (see the
//! paged entry points in [`crate::gemm`]).

use crate::pack::SrcRead;
use crate::workspace::{self, WsBuf};

/// Row-major matrix paged into fixed-size blocks, each with `tail` pinned
/// border rows after its data region. Backed by the thread-local
/// workspace arena.
pub struct PagedKv {
    cols: usize,
    tail: usize,
    block_rows: usize,
    /// Appended data rows across all blocks.
    rows: usize,
    /// Each block is exactly `(block_rows + tail) * cols` long: data rows
    /// first, then the border rows.
    blocks: Vec<WsBuf>,
}

impl PagedKv {
    /// An empty paged buffer of `cols`-wide rows in `block_rows`-row
    /// blocks, each carrying `tail` border rows (zero-initialised).
    pub fn new(cols: usize, tail: usize, block_rows: usize) -> Self {
        assert!(cols > 0, "PagedKv: cols must be positive");
        assert!(block_rows > 0, "PagedKv: block_rows must be positive");
        Self {
            cols,
            tail,
            block_rows,
            rows: 0,
            blocks: Vec::new(),
        }
    }

    /// Appended data rows (across all blocks, excluding borders).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Border rows per block.
    #[inline]
    pub fn tail(&self) -> usize {
        self.tail
    }

    /// Data rows per block.
    #[inline]
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Number of allocated blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// True when no rows have been appended.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Valid data rows in block `b` (only the last block can be partial).
    #[inline]
    pub fn block_len(&self, b: usize) -> usize {
        debug_assert!(b < self.blocks.len());
        (self.rows - b * self.block_rows).min(self.block_rows)
    }

    /// Append one data row; returns the new row's global index. O(cols):
    /// existing rows never move — a full final block just means the next
    /// block is checked out of the arena (zero-filled, so fresh borders
    /// start at zero).
    ///
    /// # Panics
    /// Panics if `row.len() != cols`.
    pub fn push_row(&mut self, row: &[f32]) -> usize {
        assert_eq!(row.len(), self.cols, "push_row: width mismatch");
        self.push_row_with(|dst| dst.copy_from_slice(row))
    }

    /// [`Self::push_row`] with the row written in place by `fill` (handed
    /// the new row's `cols` zeroed cells) — a caller assembling a row from
    /// parts, like a value row and its checksum pair, needs no staging copy.
    pub fn push_row_with(&mut self, fill: impl FnOnce(&mut [f32])) -> usize {
        let idx = self.rows;
        if idx == self.blocks.len() * self.block_rows {
            self.blocks
                .push(workspace::take((self.block_rows + self.tail) * self.cols));
        }
        let local = idx % self.block_rows;
        let block = self.blocks.last_mut().expect("block just ensured");
        fill(&mut block[local * self.cols..(local + 1) * self.cols]);
        self.rows = idx + 1;
        idx
    }

    /// Data row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        let b = r / self.block_rows;
        let local = r % self.block_rows;
        &self.blocks[b][local * self.cols..(local + 1) * self.cols]
    }

    /// Mutable data row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let b = r / self.block_rows;
        let local = r % self.block_rows;
        &mut self.blocks[b][local * self.cols..(local + 1) * self.cols]
    }

    /// Element of the data region at `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.blocks[r / self.block_rows][(r % self.block_rows) * self.cols + c]
    }

    /// Border row `i` of block `b`.
    #[inline]
    pub fn tail_row(&self, b: usize, i: usize) -> &[f32] {
        debug_assert!(b < self.blocks.len() && i < self.tail);
        let r = self.block_rows + i;
        &self.blocks[b][r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable border row `i` of block `b`.
    #[inline]
    pub fn tail_row_mut(&mut self, b: usize, i: usize) -> &mut [f32] {
        debug_assert!(b < self.blocks.len() && i < self.tail);
        let r = self.block_rows + i;
        &mut self.blocks[b][r * self.cols..(r + 1) * self.cols]
    }

    /// The valid data rows of block `b` as one contiguous slice
    /// (`block_len(b) * cols` elements).
    #[inline]
    pub fn block_data(&self, b: usize) -> &[f32] {
        &self.blocks[b][..self.block_len(b) * self.cols]
    }

    /// The whole of block `b` where it lies: its `block_rows` data rows
    /// (the first `block_len(b)` valid), then its `tail` border rows —
    /// `(block_rows + tail) * cols` elements. A pass that verifies a block
    /// in place reads data and border through it.
    #[inline]
    pub fn block_mut(&mut self, b: usize) -> &mut [f32] {
        &mut self.blocks[b][..]
    }

    /// Columns `c` and `c + 1` of every data row, rows ascending — block
    /// slices walked directly, no `r / block_rows` per element.
    pub(crate) fn col_pairs(&self, c: usize) -> impl Iterator<Item = (f32, f32)> + '_ {
        assert!(c + 1 < self.cols, "col_pairs: column range");
        (0..self.blocks.len()).flat_map(move |b| {
            self.block_data(b)
                .chunks_exact(self.cols)
                .map(move |row| (row[c], row[c + 1]))
        })
    }

    /// The logical data matrix (`rows × cols`, or its transpose when
    /// `trans`) as a GEMM operand.
    #[inline]
    pub(crate) fn src(&self, trans: bool) -> PagedSrc<'_> {
        PagedSrc {
            blocks: &self.blocks,
            block_rows: self.block_rows,
            cols: self.cols,
            trans,
        }
    }
}

impl std::fmt::Debug for PagedKv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedKv")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("tail", &self.tail)
            .field("block_rows", &self.block_rows)
            .field("num_blocks", &self.blocks.len())
            .finish()
    }
}

/// [`SrcRead`] view over a [`PagedKv`]'s data rows. Logical element order
/// is exactly the dense row-major order, so packed panels — and therefore
/// GEMM results — are bit-identical to a contiguous operand.
#[derive(Clone, Copy)]
pub(crate) struct PagedSrc<'a> {
    blocks: &'a [WsBuf],
    block_rows: usize,
    cols: usize,
    trans: bool,
}

impl SrcRead for PagedSrc<'_> {
    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        let (rr, cc) = if self.trans { (c, r) } else { (r, c) };
        self.blocks[rr / self.block_rows][(rr % self.block_rows) * self.cols + cc]
    }

    #[inline(always)]
    fn row_slice(&self, r: usize, c0: usize, len: usize) -> Option<&[f32]> {
        if self.trans {
            // A logical row crosses blocks in storage: element-wise path.
            None
        } else {
            let b = &self.blocks[r / self.block_rows];
            let off = (r % self.block_rows) * self.cols + c0;
            Some(&b[off..off + len])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_rows_are_readable_in_order_across_blocks() {
        let mut kv = PagedKv::new(3, 0, 4);
        for i in 0..10 {
            let row = [i as f32, 2.0 * i as f32, -(i as f32)];
            assert_eq!(kv.push_row(&row), i);
        }
        assert_eq!(kv.rows(), 10);
        assert_eq!(kv.num_blocks(), 3);
        assert_eq!(kv.block_len(0), 4);
        assert_eq!(kv.block_len(2), 2);
        for i in 0..10 {
            assert_eq!(kv.row(i), &[i as f32, 2.0 * i as f32, -(i as f32)]);
            assert_eq!(kv.at(i, 1), 2.0 * i as f32);
        }
    }

    #[test]
    fn per_block_tails_are_independent_and_survive_growth() {
        let mut kv = PagedKv::new(2, 2, 3);
        for i in 0..7 {
            kv.push_row(&[i as f32, i as f32 + 0.5]);
            // Maintain a running column sum in the current block's border,
            // the way a checksummed cache does.
            let b = i / 3;
            let t = kv.tail_row_mut(b, 0);
            t[0] += i as f32;
            t[1] += i as f32 + 0.5;
        }
        // Block 0 saw rows 0..3, block 1 rows 3..6, block 2 row 6.
        assert_eq!(kv.tail_row(0, 0), &[3.0, 4.5]);
        assert_eq!(kv.tail_row(1, 0), &[12.0, 13.5]);
        assert_eq!(kv.tail_row(2, 0), &[6.0, 6.5]);
        // The second border row of each block was never touched: zero.
        for b in 0..3 {
            assert_eq!(kv.tail_row(b, 1), &[0.0, 0.0]);
        }
    }

    #[test]
    fn fresh_blocks_are_zeroed() {
        let mut kv = PagedKv::new(4, 2, 8);
        kv.push_row(&[1.0; 4]);
        assert_eq!(kv.tail_row(0, 0), &[0.0; 4]);
        assert_eq!(kv.tail_row(0, 1), &[0.0; 4]);
    }

    #[test]
    fn block_data_spans_valid_rows_only() {
        let mut kv = PagedKv::new(2, 1, 4);
        for i in 0..6 {
            kv.push_row(&[i as f32, 10.0 + i as f32]);
        }
        assert_eq!(kv.block_data(0).len(), 8);
        assert_eq!(kv.block_data(1), &[4.0, 14.0, 5.0, 15.0]);
    }

    #[test]
    fn arena_reuse_after_drop() {
        // 80 blocks: the arena keeps every returned block, however many.
        let rows = 80 * 16;
        {
            let mut kv = PagedKv::new(8, 2, 16);
            for _ in 0..rows {
                kv.push_row(&[1.0; 8]);
            }
            assert_eq!(kv.num_blocks(), 80);
        }
        let before = crate::workspace::thread_alloc_events();
        // A same-shaped successor replays against the pooled blocks.
        let mut kv = PagedKv::new(8, 2, 16);
        for _ in 0..rows {
            kv.push_row(&[2.0; 8]);
        }
        let after = crate::workspace::thread_alloc_events();
        assert_eq!(
            after,
            before,
            "second session must reuse the pooled blocks ({} allocs)",
            after - before
        );
    }

    #[test]
    fn paged_src_reads_logical_elements_and_transpose() {
        let mut kv = PagedKv::new(3, 1, 2);
        for i in 0..5 {
            kv.push_row(&[3.0 * i as f32, 3.0 * i as f32 + 1.0, 3.0 * i as f32 + 2.0]);
        }
        let s = kv.src(false);
        let t = kv.src(true);
        for r in 0..5 {
            for c in 0..3 {
                assert_eq!(s.at(r, c), (3 * r + c) as f32);
                assert_eq!(t.at(c, r), (3 * r + c) as f32);
            }
            // Row slices are served within a block and never cross tails.
            let sl = s.row_slice(r, 1, 2).unwrap();
            assert_eq!(sl, &[(3 * r + 1) as f32, (3 * r + 2) as f32]);
        }
        assert!(t.row_slice(0, 0, 2).is_none());
    }

    #[test]
    #[should_panic]
    fn wrong_width_push_panics() {
        let mut kv = PagedKv::new(3, 0, 4);
        kv.push_row(&[1.0, 2.0]);
    }
}
