//! Independent f64 reference for checking sampled output matrices.
//!
//! Every element type is lifted to a complex f64 pair, so one dense
//! implementation checks f32/f64/c32/c64 alike. A check passes when each
//! element lies within a componentwise rounding bound of the reference:
//! `|got - want| <= 16 * (depth + 2) * u * magnitude`, where `magnitude` is
//! the same expression evaluated on absolute values and `u` is the unit
//! roundoff of the checked precision.
//!
//! `iatf_baselines::naive` is not used here because it computes in the
//! checked precision itself: its f32 reference carries the same rounding
//! error as the result, so it can only be compared against with a loose
//! normwise tolerance (`trsm_residual` divides by the largest magnitude).
//! The f64 reference and the componentwise bound catch a single wrong
//! element of an f32 output even when its neighbours are much larger, and
//! check one sampled matrix of a group without copying the group into a
//! `StdBatch`.

use iatf::{Diag, Trans, Uplo};

/// A complex f64 scalar.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Cx {
    pub re: f64,
    pub im: f64,
}

impl Cx {
    pub const ZERO: Cx = Cx { re: 0.0, im: 0.0 };
    pub const ONE: Cx = Cx { re: 1.0, im: 0.0 };

    pub const fn new(re: f64, im: f64) -> Self {
        Cx { re, im }
    }

    fn add(self, o: Cx) -> Cx {
        Cx::new(self.re + o.re, self.im + o.im)
    }

    fn sub(self, o: Cx) -> Cx {
        Cx::new(self.re - o.re, self.im - o.im)
    }

    fn mul(self, o: Cx) -> Cx {
        Cx::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

/// A dense column-major matrix of complex f64 values.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    pub rows: usize,
    pub cols: usize,
    pub d: Vec<Cx>,
}

impl Mat {
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Cx) -> Mat {
        let mut d = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                d.push(f(i, j));
            }
        }
        Mat { rows, cols, d }
    }

    pub fn at(&self, i: usize, j: usize) -> Cx {
        self.d[j * self.rows + i]
    }

    fn abs(&self) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| {
            Cx::new(self.at(i, j).abs(), 0.0)
        })
    }

    fn scale(&self, s: Cx) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| s.mul(self.at(i, j)))
    }

    fn plus(&self, o: &Mat) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| self.at(i, j).add(o.at(i, j)))
    }

    fn minus(&self, o: &Mat) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| self.at(i, j).sub(o.at(i, j)))
    }

    pub fn op(&self, t: Trans) -> Mat {
        match t {
            Trans::No => self.clone(),
            Trans::Yes => Mat::from_fn(self.cols, self.rows, |i, j| self.at(j, i)),
        }
    }

    pub fn matmul(&self, o: &Mat) -> Mat {
        assert_eq!(self.cols, o.rows, "oracle operand shapes");
        Mat::from_fn(self.rows, o.cols, |i, j| {
            (0..self.cols).fold(Cx::ZERO, |acc, k| acc.add(self.at(i, k).mul(o.at(k, j))))
        })
    }

    /// The triangle a TRSM/TRMM call references: entries outside `uplo`
    /// are zero and a unit diagonal reads as one, whatever is stored.
    pub fn triangle(&self, uplo: Uplo, diag: Diag) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| {
            if i == j && diag == Diag::Unit {
                Cx::ONE
            } else if (uplo == Uplo::Lower && i >= j) || (uplo == Uplo::Upper && i <= j) {
                self.at(i, j)
            } else {
                Cx::ZERO
            }
        })
    }
}

/// Unit roundoff of the real precision behind a dtype.
pub fn unit_roundoff(double: bool) -> f64 {
    if double {
        f64::EPSILON / 2.0
    } else {
        f64::from(f32::EPSILON) / 2.0
    }
}

/// `true` when `got` matches `want` within the componentwise bound.
fn within(got: &Mat, want: &Mat, magnitude: &Mat, depth: usize, u: f64) -> bool {
    let tol = 16.0 * (depth as f64 + 2.0) * u;
    got.d
        .iter()
        .zip(&want.d)
        .zip(&magnitude.d)
        .all(|((g, w), m)| {
            let err = g.sub(*w).abs();
            err.is_finite() && err <= tol * m.re + f64::MIN_POSITIVE
        })
}

/// Checks `c1 = alpha * a * b + beta * c0` (operands already transposed).
pub fn check_gemm(a: &Mat, b: &Mat, alpha: Cx, beta: Cx, c0: &Mat, c1: &Mat, u: f64) -> bool {
    let want = a.matmul(b).scale(alpha).plus(&c0.scale(beta));
    let mag = a
        .abs()
        .matmul(&b.abs())
        .scale(Cx::new(alpha.abs(), 0.0))
        .plus(&c0.abs().scale(Cx::new(beta.abs(), 0.0)));
    within(c1, &want, &mag, a.cols, u)
}

/// Left (`t * x`) or right (`x * t`) product, whichever `left` selects.
fn side_mul(t: &Mat, x: &Mat, left: bool) -> Mat {
    if left {
        t.matmul(x)
    } else {
        x.matmul(t)
    }
}

/// Checks the TRMM result `b1 = alpha * op(T) * b0` (or `b0 * op(T)`).
pub fn check_trmm(t: &Mat, left: bool, alpha: Cx, b0: &Mat, b1: &Mat, u: f64) -> bool {
    let want = side_mul(t, b0, left).scale(alpha);
    let mag = side_mul(&t.abs(), &b0.abs(), left).scale(Cx::new(alpha.abs(), 0.0));
    within(b1, &want, &mag, t.rows, u)
}

/// Checks a TRSM solution `x` of `op(T) * x = alpha * b` (or
/// `x * op(T) = alpha * b`) through its residual, which a solve keeps
/// small whatever the conditioning of `T`.
pub fn check_trsm(t: &Mat, left: bool, alpha: Cx, b: &Mat, x: &Mat, u: f64) -> bool {
    let rhs = b.scale(alpha);
    let lhs = side_mul(t, x, left);
    let zero = Mat::from_fn(b.rows, b.cols, |_, _| Cx::ZERO);
    let mag = side_mul(&t.abs(), &x.abs(), left).plus(&rhs.abs());
    within(&lhs.minus(&rhs), &zero, &mag, t.rows, u)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, seed: f64) -> Mat {
        Mat::from_fn(rows, cols, |i, j| {
            Cx::new(
                ((i * 7 + j * 3) as f64 * seed).sin(),
                (i as f64 - j as f64) * 0.1,
            )
        })
    }

    #[test]
    fn gemm_check_accepts_exact_and_rejects_perturbed() {
        let (a, b, c0) = (m(3, 4, 0.3), m(4, 2, 0.7), m(3, 2, 0.9));
        let (alpha, beta, u) = (Cx::new(0.5, 0.25), Cx::new(-0.5, 0.0), unit_roundoff(false));
        let mut c1 = a.matmul(&b).scale(alpha).plus(&c0.scale(beta));
        assert!(check_gemm(&a, &b, alpha, beta, &c0, &c1, u));
        c1.d[4].re += 1e-3;
        assert!(!check_gemm(&a, &b, alpha, beta, &c0, &c1, u));
    }

    #[test]
    fn trsm_residual_check_accepts_the_trmm_input() {
        let t = Mat::from_fn(3, 3, |i, j| {
            if i == j {
                Cx::new(1.5, 0.0)
            } else {
                Cx::new(0.2, 0.1)
            }
        })
        .triangle(Uplo::Lower, Diag::NonUnit);
        let (x, u) = (m(3, 2, 0.4), unit_roundoff(true));
        let b = t.matmul(&x);
        assert!(check_trmm(&t, true, Cx::ONE, &x, &b, u));
        assert!(check_trsm(&t, true, Cx::ONE, &b, &x, u));
        let mut wrong = x.clone();
        wrong.d[0].im += 1e-6;
        assert!(!check_trsm(&t, true, Cx::ONE, &b, &wrong, u));
    }
}
