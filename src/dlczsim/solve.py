"""The package's one-dimensional searches, in pure ``math``: Brent's root
finder and Brent's minimizer, each with one tolerance, a constant here."""

import math

from .errors import FitConvergenceError, ParameterError

ROOT_MAX_ITER = 200  # in ln x, bisection alone needs < 52 steps
CROSSING_REL_TOL = 1e-12  # relative bracket width ending a root search
LOG_TAU_TOL = 1e-10  # the minimizer's absolute tolerance (in log tau0)
FIT_MAX_ITER = 10_000  # the minimizer's step budget
GOLDEN = 0.3819660112501051  # (3 - sqrt(5)) / 2


def find_root(f, a, b):
    """Zero of f between a, b > 0 (f(a) and f(b) differ in sign) by
    Brent's method (Brent 1973, ch. 4) in ln x to CROSSING_REL_TOL."""
    fa, fb = f(a), f(b)
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise ParameterError(f"no sign change on [{a!r}, {b!r}]")
    a, b, tol = math.log(a), math.log(b), 0.5 * CROSSING_REL_TOL
    for _ in range(ROOT_MAX_ITER):
        if (fa < 0.0) != (fb < 0.0):  # the root is between a and b
            c, fc, d, e = a, fa, b - a, b - a
        if abs(fc) < abs(fb):  # b is the best point so far
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        if fb == 0.0 or abs(m := 0.5 * (c - b)) <= tol:
            return math.exp(b)
        fast = False  # take the interpolated step p / q, else bisect by m
        if abs(e) > tol and abs(fb) < abs(fa):
            s = fb / fa
            if a == c:  # secant through a and b
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b and c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = abs(p), (-q if p > 0.0 else q)
            fast = 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q))
        e, d = (d, p / q) if fast else (m, m)
        a, fa, b = b, fb, b + (d if abs(d) > tol else math.copysign(tol, m))
        fb = f(math.exp(b))
    raise FitConvergenceError("root search did not converge")


def find_minimum(f, a, x, b, fx):
    """Minimum of ``f`` on [a, b] by Brent's method, from x in [a, b] with
    f(x) = fx: parabolic steps through the three best points, golden
    section when a parabola would not shrink the bracket. A point replaces
    the best only when strictly lower, so ties keep the earlier one."""
    v = w = x
    fv = fw = fx
    d = e = 0.0
    for _ in range(FIT_MAX_ITER):
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * LOG_TAU_TOL - 0.5 * (b - a):
            return x, fx
        p = q = 0.0
        if abs(e) > LOG_TAU_TOL:  # parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
        if q and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if x + d - a < 2.0 * LOG_TAU_TOL or b - x - d < 2.0 * LOG_TAU_TOL:
                d = math.copysign(LOG_TAU_TOL, m - x)
        else:
            e = (a if x >= m else b) - x
            d = GOLDEN * e
        u = x + (d if abs(d) >= LOG_TAU_TOL else math.copysign(LOG_TAU_TOL, d))
        fu = f(u)
        if fu < fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    raise FitConvergenceError(
        f"decay fit did not converge within {FIT_MAX_ITER} iterations")
