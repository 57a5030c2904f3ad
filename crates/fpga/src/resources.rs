//! Resource vectors for utilization accounting.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A vector of the four fabric resource kinds tracked by the PR-ESP flow.
///
/// Arithmetic is plain (panicking on overflow in debug builds like the
/// integer primitives); use [`Resources::saturating_sub`] when computing
/// headroom.
///
/// # Example
///
/// ```
/// use presp_fpga::resources::Resources;
///
/// let a = Resources::new(100, 200, 2, 4);
/// let b = Resources::new(50, 80, 1, 0);
/// assert_eq!((a + b).lut, 150);
/// assert!(b.fits_in(&a));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Resources {
    /// Look-up tables.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// 36-kbit block RAMs.
    pub bram: u64,
    /// DSP slices.
    pub dsp: u64,
}

impl Resources {
    /// Zero resources.
    pub const ZERO: Resources = Resources {
        lut: 0,
        ff: 0,
        bram: 0,
        dsp: 0,
    };

    /// Creates a resource vector.
    pub const fn new(lut: u64, ff: u64, bram: u64, dsp: u64) -> Self {
        Resources { lut, ff, bram, dsp }
    }

    /// Creates a resource vector holding only LUTs.
    ///
    /// LUT count is the size measure used by the paper's characterization
    /// (Section IV); many call-sites only care about LUTs.
    pub const fn luts(lut: u64) -> Self {
        Resources {
            lut,
            ff: 0,
            bram: 0,
            dsp: 0,
        }
    }

    /// Returns `true` when every component of `self` fits within `other`.
    pub fn fits_in(&self, other: &Resources) -> bool {
        self.lut <= other.lut
            && self.ff <= other.ff
            && self.bram <= other.bram
            && self.dsp <= other.dsp
    }

    /// Component-wise saturating subtraction (headroom computation).
    pub fn saturating_sub(&self, other: &Resources) -> Resources {
        Resources {
            lut: self.lut.saturating_sub(other.lut),
            ff: self.ff.saturating_sub(other.ff),
            bram: self.bram.saturating_sub(other.bram),
            dsp: self.dsp.saturating_sub(other.dsp),
        }
    }

    /// Component-wise maximum.
    pub fn max(&self, other: &Resources) -> Resources {
        Resources {
            lut: self.lut.max(other.lut),
            ff: self.ff.max(other.ff),
            bram: self.bram.max(other.bram),
            dsp: self.dsp.max(other.dsp),
        }
    }

    /// Scales every component by `factor`, rounding up.
    ///
    /// Used to apply utilization margins (a pblock must provide some slack
    /// over the exact requirement for the router to close timing).
    pub fn scale_ceil(&self, factor: f64) -> Resources {
        let s = |v: u64| ((v as f64) * factor).ceil() as u64;
        Resources {
            lut: s(self.lut),
            ff: s(self.ff),
            bram: s(self.bram),
            dsp: s(self.dsp),
        }
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            lut: self.lut + rhs.lut,
            ff: self.ff + rhs.ff,
            bram: self.bram + rhs.bram,
            dsp: self.dsp + rhs.dsp,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl Sub for Resources {
    type Output = Resources;
    fn sub(self, rhs: Resources) -> Resources {
        Resources {
            lut: self.lut - rhs.lut,
            ff: self.ff - rhs.ff,
            bram: self.bram - rhs.bram,
            dsp: self.dsp - rhs.dsp,
        }
    }
}

impl Mul<u64> for Resources {
    type Output = Resources;
    fn mul(self, rhs: u64) -> Resources {
        Resources {
            lut: self.lut * rhs,
            ff: self.ff * rhs,
            bram: self.bram * rhs,
            dsp: self.dsp * rhs,
        }
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, |acc, r| acc + r)
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} LUT / {} FF / {} BRAM / {} DSP",
            self.lut, self.ff, self.bram, self.dsp
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_componentwise() {
        let a = Resources::new(10, 20, 3, 4);
        let b = Resources::new(1, 2, 3, 4);
        assert_eq!(a + b, Resources::new(11, 22, 6, 8));
        assert_eq!(a - b, Resources::new(9, 18, 0, 0));
        assert_eq!(b * 3, Resources::new(3, 6, 9, 12));
    }

    #[test]
    fn fits_in_requires_all_components() {
        let cap = Resources::new(100, 100, 10, 10);
        assert!(Resources::new(100, 100, 10, 10).fits_in(&cap));
        assert!(!Resources::new(101, 0, 0, 0).fits_in(&cap));
        assert!(!Resources::new(0, 0, 11, 0).fits_in(&cap));
    }

    #[test]
    fn saturating_sub_never_underflows() {
        let small = Resources::new(1, 1, 1, 1);
        let big = Resources::new(5, 5, 5, 5);
        assert_eq!(small.saturating_sub(&big), Resources::ZERO);
        assert_eq!(big.saturating_sub(&small), Resources::new(4, 4, 4, 4));
    }

    #[test]
    fn scale_ceil_rounds_up() {
        let r = Resources::new(10, 0, 3, 1);
        let scaled = r.scale_ceil(1.25);
        assert_eq!(scaled, Resources::new(13, 0, 4, 2));
    }

    #[test]
    fn sum_of_iterator() {
        let total: Resources = (1..=4).map(Resources::luts).sum();
        assert_eq!(total, Resources::luts(10));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Resources::ZERO).is_empty());
    }
}
