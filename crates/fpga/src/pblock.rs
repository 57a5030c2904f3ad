//! Placement blocks (pblocks) for reconfigurable partitions.

use crate::error::Error;
use std::fmt;
use std::ops::Range;

/// A rectangular placement constraint for a reconfigurable partition.
///
/// Coordinates are fabric-column indices horizontally and clock-region rows
/// vertically. Because the vertical unit *is* the clock-region row, every
/// `Pblock` automatically satisfies the Xilinx DPR rule that reconfigurable
/// regions be vertically aligned to clock-region boundaries.
///
/// # Example
///
/// ```
/// use presp_fpga::pblock::Pblock;
///
/// let a = Pblock::new(0, 10, 0, 2)?;
/// let b = Pblock::new(10, 20, 0, 2)?;
/// assert!(!a.overlaps(&b)); // ranges are half-open
/// # Ok::<(), presp_fpga::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pblock {
    col_start: usize,
    col_end: usize,
    row_start: usize,
    row_end: usize,
}

impl Pblock {
    /// Creates a pblock covering columns `col_start..col_end` and clock-region
    /// rows `row_start..row_end` (half-open ranges).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyPblock`] if either range is empty or inverted.
    pub fn new(
        col_start: usize,
        col_end: usize,
        row_start: usize,
        row_end: usize,
    ) -> Result<Pblock, Error> {
        if col_start >= col_end || row_start >= row_end {
            return Err(Error::EmptyPblock);
        }
        Ok(Pblock {
            col_start,
            col_end,
            row_start,
            row_end,
        })
    }

    /// First covered column.
    pub(crate) fn col_start(&self) -> usize {
        self.col_start
    }

    /// One past the last covered column.
    pub(crate) fn col_end(&self) -> usize {
        self.col_end
    }

    /// First covered clock-region row.
    pub(crate) fn row_start(&self) -> usize {
        self.row_start
    }

    /// One past the last covered clock-region row.
    pub(crate) fn row_end(&self) -> usize {
        self.row_end
    }

    /// Covered column range.
    pub fn col_range(&self) -> Range<usize> {
        self.col_start..self.col_end
    }

    /// Covered row range.
    pub fn row_range(&self) -> Range<usize> {
        self.row_start..self.row_end
    }

    /// Number of covered columns.
    pub(crate) fn col_span(&self) -> usize {
        self.col_end - self.col_start
    }

    /// Number of covered clock-region rows.
    pub fn row_span(&self) -> usize {
        self.row_end - self.row_start
    }

    /// Covered area in column × row units.
    pub fn area(&self) -> usize {
        self.col_span() * self.row_span()
    }

    /// Whether two pblocks share any fabric.
    pub fn overlaps(&self, other: &Pblock) -> bool {
        self.col_start < other.col_end
            && other.col_start < self.col_end
            && self.row_start < other.row_end
            && other.row_start < self.row_end
    }

    /// Checks that every pair in `pblocks` is disjoint.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PblockOverlap`] on the first overlapping pair.
    pub fn check_disjoint(pblocks: &[Pblock]) -> Result<(), Error> {
        for (i, a) in pblocks.iter().enumerate() {
            for b in &pblocks[i + 1..] {
                if a.overlaps(b) {
                    return Err(Error::PblockOverlap);
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Pblock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pblock[cols {}..{}, rows {}..{}]",
            self.col_start, self.col_end, self.row_start, self.row_end
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_empty_rectangles() {
        assert_eq!(Pblock::new(3, 3, 0, 1), Err(Error::EmptyPblock));
        assert_eq!(Pblock::new(0, 1, 2, 2), Err(Error::EmptyPblock));
        assert_eq!(Pblock::new(5, 2, 0, 1), Err(Error::EmptyPblock));
    }

    #[test]
    fn adjacency_is_not_overlap() {
        let a = Pblock::new(0, 10, 0, 2).unwrap();
        let b = Pblock::new(10, 12, 0, 2).unwrap();
        let c = Pblock::new(0, 10, 2, 3).unwrap();
        assert!(!a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn containment_is_overlap() {
        let outer = Pblock::new(0, 100, 0, 5).unwrap();
        let inner = Pblock::new(10, 20, 1, 2).unwrap();
        assert!(outer.overlaps(&inner));
        assert!(inner.overlaps(&outer));
    }

    #[test]
    fn check_disjoint_finds_overlap() {
        let a = Pblock::new(0, 10, 0, 1).unwrap();
        let b = Pblock::new(20, 30, 0, 1).unwrap();
        let c = Pblock::new(5, 25, 0, 1).unwrap();
        assert!(Pblock::check_disjoint(&[a, b]).is_ok());
        assert_eq!(
            Pblock::check_disjoint(&[a, b, c]),
            Err(Error::PblockOverlap)
        );
    }

    fn arb_pblock() -> impl Strategy<Value = Pblock> {
        (0usize..140, 1usize..20, 0usize..6, 1usize..4)
            .prop_map(|(c0, cw, r0, rh)| Pblock::new(c0, c0 + cw, r0, r0 + rh).unwrap())
    }

    proptest! {
        #[test]
        fn overlap_is_symmetric(a in arb_pblock(), b in arb_pblock()) {
            prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        }

        #[test]
        fn pblock_overlaps_itself(a in arb_pblock()) {
            prop_assert!(a.overlaps(&a));
        }

        #[test]
        fn area_is_span_product(a in arb_pblock()) {
            prop_assert_eq!(a.area(), a.col_span() * a.row_span());
            prop_assert!(a.area() > 0);
        }

        #[test]
        fn disjoint_translation_never_overlaps(a in arb_pblock()) {
            let shifted = Pblock::new(
                a.col_start() + 200,
                a.col_end() + 200,
                a.row_start(),
                a.row_end(),
            ).unwrap();
            prop_assert!(!a.overlaps(&shifted));
        }
    }
}
