"""Integration of exp(c*x + s)/x over a positive interval at a fixed tolerance.

The closed-form outage expressions for full relay power contain an integral of
this family whose value is a difference of exponential integrals.  Rather than
pulling in a special-function dependency, one adaptive Simpson walk over
exp(c*x + s)/x (smooth on the strictly positive intervals that ever occur)
evaluates it, with a log fast path at c = 0.  Every call runs at one
tolerance, 1e-10 absolute and 1e-10 relative, with at most 60 halvings of any
panel; hitting that cap raises QuadratureError, and a value past double range
raises OverflowError, so a returned integral is always finite.
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
    the plain integral of exp(c*x)/x.  A value that is not finite, such as
    a sum of panels that overflowed, raises OverflowError.
    """
    if not (math.isfinite(c) and math.isfinite(a) and math.isfinite(b)):
        raise ValueError("c, a, b must be finite")
    if not 0.0 < a <= b:
        raise ValueError("need 0 < a <= b")
    if a == b:
        return 0.0
    if c == 0.0:
        ratio = b / a   # can pass double range where log(b) - log(a) cannot
        value = math.exp(exp_shift) * (math.log(ratio) if math.isfinite(ratio)
                                       else math.log(b) - math.log(a))
    else:
        m = 0.5 * (a + b)
        fa, fm, fb = (math.exp(c * x + exp_shift) / x for x in (a, m, b))
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        panel = (a, b, fa, fm, fb, whole)
        tol0 = max(_ABS_TOL, _REL_TOL * abs(whole))
        value = _refine(c, exp_shift, panel, tol0)
        # the crude whole-interval estimate can badly misjudge the magnitude,
        # or overflow where the panels do not; re-anchor the relative
        # tolerance on the refined value when it does
        tol1 = max(_ABS_TOL, _REL_TOL * abs(value))
        if tol0 > 4.0 * tol1:
            value = _refine(c, exp_shift, panel, tol1)
    if not math.isfinite(value):
        raise OverflowError(f"integral on [{a}, {b}] is not finite")
    return value


_MIN_DEPTH = 6   # splits forced before acceptance; guards peaked integrands
# A panel whose two rules differ only by rounding cannot improve by splitting;
# without this floor a 1/x peak far narrower than the interval halves the
# budget below rounding noise and exhausts the depth cap.
_ROUNDOFF = 64.0 * sys.float_info.epsilon


def _refine(c, shift, panel, tol) -> float:
    """Adaptive Simpson walk over exp(c*x + shift)/x from panel = (a, b, f(a),
    f(mid), f(b), estimate): split until the two-panel vs one-panel difference
    is within 15x of the local budget tol, halved per split, then apply the
    Richardson correction.  Acceptance waits out a minimum depth so a narrow
    peak cannot slip through a crude first estimate."""
    total = 0.0
    stack = [(*panel, tol, 0)]
    while stack:
        a0, b0, f0, f1, f2, s, tol, depth = stack.pop()
        m0 = 0.5 * (a0 + b0)
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm = math.exp(c * lm + shift) / lm
        frm = math.exp(c * rm + shift) / rm
        left = (m0 - a0) / 6.0 * (f0 + 4.0 * flm + f1)
        right = (b0 - m0) / 6.0 * (f1 + 4.0 * frm + f2)
        if depth >= _MIN_DEPTH:
            err = left + right - s
            if (abs(err) <= 15.0 * tol
                    or abs(err) <= _ROUNDOFF * (abs(left) + abs(right))):
                total += left + right + err / 15.0
                continue
        if depth >= _MAX_DEPTH:
            raise QuadratureError(f"no convergence on [{a0}, {b0}] "
                                  f"at depth {depth}")
        half = 0.5 * tol
        stack.append((a0, m0, f0, flm, f1, left, half, depth + 1))
        stack.append((m0, b0, f1, frm, f2, right, half, depth + 1))
    return total
