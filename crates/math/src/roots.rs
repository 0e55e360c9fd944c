//! Scalar root finding.
//!
//! `comimo-energy` inverts the strictly monotone map `ē_b ↦ BER(ē_b)` with
//! [`bisect_monotone_decreasing`], and `comimo-sensing` inverts the energy
//! detector's false-alarm curve with plain [`bisect`].

/// Outcome of a root search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Root {
    /// Abscissa of the root.
    pub x: f64,
    /// Residual `f(x)` at the returned abscissa.
    pub residual: f64,
    /// Number of function evaluations consumed.
    pub evals: usize,
}

/// Error raised when a bracket does not straddle a sign change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoBracket;

impl std::fmt::Display for NoBracket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "root bracket does not straddle a sign change")
    }
}

impl std::error::Error for NoBracket {}

/// Plain bisection on `[a, b]` requiring `f(a)·f(b) ≤ 0`.
///
/// Converges unconditionally; stops when the bracket width falls below
/// `xtol` or `f` hits exactly zero.
pub fn bisect(
    f: impl Fn(f64) -> f64,
    mut a: f64,
    mut b: f64,
    xtol: f64,
) -> Result<Root, NoBracket> {
    assert!(b > a, "bisect needs an ordered bracket");
    assert!(xtol > 0.0);
    let mut fa = f(a);
    let fb = f(b);
    let mut evals = 2;
    if fa == 0.0 {
        return Ok(Root {
            x: a,
            residual: 0.0,
            evals,
        });
    }
    if fb == 0.0 {
        return Ok(Root {
            x: b,
            residual: 0.0,
            evals,
        });
    }
    if fa.signum() == fb.signum() {
        return Err(NoBracket);
    }
    while b - a > xtol {
        let m = 0.5 * (a + b);
        let fm = f(m);
        evals += 1;
        if fm == 0.0 {
            return Ok(Root {
                x: m,
                residual: 0.0,
                evals,
            });
        }
        if fm.signum() == fa.signum() {
            a = m;
            fa = fm;
        } else {
            b = m;
        }
    }
    let x = 0.5 * (a + b);
    let residual = f(x);
    Ok(Root {
        x,
        residual,
        evals: evals + 1,
    })
}

/// Bisection specialised to a *strictly decreasing* `f` with target level
/// `target`, searching `x` with `f(x) = target` by expanding an initial
/// guess geometrically until a bracket is found (log-scale expansion, so it
/// works across the ~20 orders of magnitude spanned by `ē_b` in joules).
///
/// Returns `None` if no bracket is found within `max_expand` doublings.
pub fn bisect_monotone_decreasing(
    f: impl Fn(f64) -> f64,
    target: f64,
    x0: f64,
    rel_xtol: f64,
    max_expand: usize,
) -> Option<Root> {
    assert!(x0 > 0.0, "initial guess must be positive");
    assert!(rel_xtol > 0.0);
    let g = |x: f64| f(x) - target;
    let mut lo = x0;
    let mut hi = x0;
    let mut evals = 0;
    // expand downward until g(lo) > 0 (f above target at small x)
    let mut glo = g(lo);
    evals += 1;
    let mut n = 0;
    while glo <= 0.0 {
        if n >= max_expand {
            return None;
        }
        lo /= 8.0;
        glo = g(lo);
        evals += 1;
        n += 1;
    }
    // expand upward until g(hi) < 0
    let mut ghi = g(hi);
    evals += 1;
    n = 0;
    while ghi >= 0.0 {
        if n >= max_expand {
            return None;
        }
        hi *= 8.0;
        ghi = g(hi);
        evals += 1;
        n += 1;
    }
    // bisect in log space for relative precision
    let mut llo = lo.ln();
    let mut lhi = hi.ln();
    while lhi - llo > rel_xtol {
        let lm = 0.5 * (llo + lhi);
        let gm = g(lm.exp());
        evals += 1;
        if gm > 0.0 {
            llo = lm;
        } else {
            lhi = lm;
        }
    }
    let x = (0.5 * (llo + lhi)).exp();
    let residual = g(x);
    Some(Root {
        x,
        residual,
        evals: evals + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert!((r.x - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_rejects_bad_bracket() {
        assert_eq!(bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-6), Err(NoBracket));
    }

    #[test]
    fn monotone_solver_spans_magnitudes() {
        // f(x) = 1/x is strictly decreasing; solve 1/x = 1e-18 from seed 1.0
        let r = bisect_monotone_decreasing(|x| 1.0 / x, 1e-18, 1.0, 1e-12, 60).unwrap();
        assert!((r.x - 1e18).abs() / 1e18 < 1e-9, "x = {}", r.x);
    }

    #[test]
    fn monotone_solver_fails_gracefully() {
        // constant function can never bracket
        assert!(bisect_monotone_decreasing(|_| 0.5, 0.25, 1.0, 1e-9, 4).is_none());
    }
}
