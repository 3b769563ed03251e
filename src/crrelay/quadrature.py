"""Integration of exp(c*x)/x over a positive interval at a fixed tolerance.

The closed-form outage expressions for full relay power contain an integral of
this family whose value is a difference of exponential integrals.  Rather than
pulling in a special-function dependency, the integrand (smooth on the strictly
positive intervals that ever occur) is handled by adaptive Simpson refinement
with a log fast path at c = 0.  Every call runs at one tolerance, 1e-10
absolute and 1e-10 relative, with at most 60 halvings of any panel; hitting
that cap raises QuadratureError.
"""

import math
import sys

_ABS_TOL = 1e-10
_REL_TOL = 1e-10
_MAX_DEPTH = 60


class QuadratureError(ArithmeticError):
    """Raised when the refinement cap is hit before meeting the tolerance."""


def integrate_exp_over_x(c: float, a: float, b: float,
                         exp_shift: float = 0.0) -> float:
    """Integrate exp(c*x + exp_shift)/x over [a, b].

    Requires 0 < a <= b so the 1/x singularity is never inside the interval.
    exp_shift folds a constant into the exponent, which keeps the outage
    formulas finite when exp(c*b) alone would overflow; the default computes
    the plain integral of exp(c*x)/x.
    """
    if not (math.isfinite(c) and math.isfinite(a) and math.isfinite(b)):
        raise ValueError("c, a, b must be finite")
    if not 0.0 < a <= b:
        raise ValueError("need 0 < a <= b")
    if a == b:
        return 0.0
    if c == 0.0:
        return math.exp(exp_shift) * math.log(b / a)

    def f(x):
        return math.exp(c * x + exp_shift) / x

    return _adaptive_simpson(f, a, b)


_MIN_DEPTH = 6   # splits forced before acceptance; guards peaked integrands
# A panel whose two rules differ only by rounding cannot improve by splitting;
# without this floor a 1/x peak far narrower than the interval halves the
# budget below rounding noise and exhausts the depth cap.
_ROUNDOFF = 64.0 * sys.float_info.epsilon


def _refine(f, a, b, fa, fm, fb, whole, tol0) -> float:
    """One adaptive pass: split until the two-panel vs one-panel difference is
    within 15x of the local budget, then apply the Richardson correction.
    The budget halves per split; acceptance also waits out a minimum depth so
    a narrow peak cannot slip through a crude first estimate."""
    total = 0.0
    stack = [(a, b, fa, fm, fb, whole, tol0, 0)]
    while stack:
        a0, b0, f0, f1, f2, s, tol, depth = stack.pop()
        m0 = 0.5 * (a0 + b0)
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm, frm = f(lm), f(rm)
        left = (m0 - a0) / 6.0 * (f0 + 4.0 * flm + f1)
        right = (b0 - m0) / 6.0 * (f1 + 4.0 * frm + f2)
        err = left + right - s
        converged = (abs(err) <= 15.0 * tol
                     or abs(err) <= _ROUNDOFF * (abs(left) + abs(right)))
        if depth >= _MIN_DEPTH and converged:
            total += left + right + err / 15.0
        elif depth >= _MAX_DEPTH:
            raise QuadratureError(
                f"no convergence on [{a0}, {b0}] at depth {depth}"
            )
        else:
            half = 0.5 * tol
            stack.append((a0, m0, f0, flm, f1, left, half, depth + 1))
            stack.append((m0, b0, f1, frm, f2, right, half, depth + 1))
    return total


def _adaptive_simpson(f, a, b) -> float:
    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol0 = max(_ABS_TOL, _REL_TOL * abs(whole))
    total = _refine(f, a, b, fa, fm, fb, whole, tol0)
    # the crude whole-interval estimate can badly misjudge the magnitude;
    # re-anchor the relative tolerance on the refined value when it does
    tol1 = max(_ABS_TOL, _REL_TOL * abs(total))
    if tol0 > 4.0 * tol1:
        total = _refine(f, a, b, fa, fm, fb, whole, tol1)
    return total
