//! Small dense matrix helpers — WAMI accelerator #9 (6×6 matrix inversion).

use crate::error::Error;

/// A 6×6 matrix, the size of the Lucas-Kanade Hessian.
pub type Mat6 = [[f64; 6]; 6];
/// A length-6 vector.
pub type Vec6 = [f64; 6];

/// The 6×6 identity matrix.
pub fn identity6() -> Mat6 {
    let mut m = [[0.0; 6]; 6];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    m
}

/// Inverts a 6×6 matrix by Gauss-Jordan elimination with partial pivoting.
///
/// # Errors
///
/// Returns [`Error::SingularMatrix`] when a pivot is (numerically) zero.
///
/// # Example
///
/// ```
/// use presp_wami::matrix::{identity6, invert6};
///
/// let inv = invert6(&identity6())?;
/// assert_eq!(inv, identity6());
/// # Ok::<(), presp_wami::Error>(())
/// ```
pub fn invert6(m: &Mat6) -> Result<Mat6, Error> {
    let mut a = *m;
    let mut inv = identity6();
    for col in 0..6 {
        // Partial pivot.
        let pivot_row = (col..6)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite")
            })
            .expect("non-empty range");
        if a[pivot_row][col].abs() < 1e-12 {
            return Err(Error::SingularMatrix);
        }
        a.swap(col, pivot_row);
        inv.swap(col, pivot_row);
        let pivot = a[col][col];
        for k in 0..6 {
            a[col][k] /= pivot;
            inv[col][k] /= pivot;
        }
        for row in 0..6 {
            if row != col {
                let factor = a[row][col];
                for k in 0..6 {
                    a[row][k] -= factor * a[col][k];
                    inv[row][k] -= factor * inv[col][k];
                }
            }
        }
    }
    Ok(inv)
}

/// Matrix-vector product `m · v`.
pub(crate) fn matvec6(m: &Mat6, v: &Vec6) -> Vec6 {
    let mut out = [0.0; 6];
    for (o, row) in out.iter_mut().zip(m.iter()) {
        *o = row.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_inverts_to_itself() {
        assert_eq!(invert6(&identity6()).unwrap(), identity6());
    }

    #[test]
    fn diagonal_matrix_inverts_componentwise() {
        let mut m = [[0.0; 6]; 6];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = (i + 1) as f64;
        }
        let inv = invert6(&m).unwrap();
        for (i, row) in inv.iter().enumerate() {
            assert!((row[i] - 1.0 / (i + 1) as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_matrix_is_detected() {
        let m = [[0.0; 6]; 6];
        assert_eq!(invert6(&m), Err(Error::SingularMatrix));
        let mut rank_deficient = identity6();
        rank_deficient[5] = rank_deficient[4]; // duplicate row
        assert_eq!(invert6(&rank_deficient), Err(Error::SingularMatrix));
    }

    #[test]
    fn matvec_of_identity_is_input() {
        let v = [1.0, -2.0, 3.0, -4.0, 5.0, -6.0];
        assert_eq!(matvec6(&identity6(), &v), v);
    }

    fn arb_spd() -> impl Strategy<Value = Mat6> {
        // A^T·A + εI is symmetric positive definite, hence invertible —
        // exactly the structure of a Lucas-Kanade Hessian.
        proptest::collection::vec(-2.0f64..2.0, 36).prop_map(|vals| {
            let mut a = [[0.0; 6]; 6];
            for i in 0..6 {
                for j in 0..6 {
                    a[i][j] = vals[i * 6 + j];
                }
            }
            let mut spd = [[0.0; 6]; 6];
            for i in 0..6 {
                for j in 0..6 {
                    spd[i][j] = (0..6).map(|k| a[k][i] * a[k][j]).sum::<f64>();
                }
                spd[i][i] += 0.5;
            }
            spd
        })
    }

    /// Matrix-matrix product `a · b`.
    fn matmul6(a: &Mat6, b: &Mat6) -> Mat6 {
        let mut out = [[0.0; 6]; 6];
        for i in 0..6 {
            for j in 0..6 {
                out[i][j] = (0..6).map(|k| a[i][k] * b[k][j]).sum();
            }
        }
        out
    }

    proptest! {
        #[test]
        fn inverse_times_matrix_is_identity(m in arb_spd()) {
            let inv = invert6(&m).unwrap();
            let prod = matmul6(&inv, &m);
            for (i, row) in prod.iter().enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    let expect = if i == j { 1.0 } else { 0.0 };
                    prop_assert!((v - expect).abs() < 1e-6, "({i},{j}) = {v}");
                }
            }
        }

        #[test]
        fn solve_via_inverse_matches_direct_product(m in arb_spd(), vraw in proptest::collection::vec(-3.0f64..3.0, 6)) {
            let v: Vec6 = vraw.try_into().unwrap();
            let inv = invert6(&m).unwrap();
            let x = matvec6(&inv, &v);
            let back = matvec6(&m, &x);
            for i in 0..6 {
                prop_assert!((back[i] - v[i]).abs() < 1e-6);
            }
        }
    }
}
