"""Closed-form lower and upper bounds.

kn_lower_bound gives the minimum division count a c-colourable anagram-free
subdivision of the complete graph must have, tree_lower_bound the colours
an anagram-free colouring of a d-branch tree must use, and dary_two_sided
both sides of the chromatic bound for subdivided complete d-ary trees.  The
witnesses in bounds turn a violation of the first two into an anagram.
This module needs only math, so a bound loads nothing else of the package.
"""

from __future__ import annotations

import math

_REL_TOL = 1e-9


class PreconditionError(ValueError):
    pass


def _ceil_tol(x: float) -> int:
    return math.ceil(x - _REL_TOL)


def kn_lower_bound(n: int, c: int) -> float:
    """(c! * (n/c - 1))^(1/c) - c, exact where the root is integral.

    Any anagram-free c-colouring of a (<= k)-subdivision of the complete
    graph on n vertices needs k at least this large.  The radicand
    c! * (n/c - 1) = (c-1)! * (n - c) is an integer, taken exactly while
    (c-1)! is within float range.  From c = 172 on it is not, and the root
    is exp((lgamma(c) + ln(n - c)) / c), within about 1e-12 of the exact
    one relative, without computing (c-1)!.  Raises OverflowError only when
    the bound itself is past float range.
    """
    if n < 1 or c < 1:
        raise ValueError("need n >= 1 and c >= 1")
    if n < c:
        raise ValueError("formula undefined for n < c (the bound is vacuous there)")
    if n == c:
        return float(-c)
    if c >= 172:  # 171! is past float range
        return math.exp((math.lgamma(c) + math.log(n - c)) / c) - c
    inner = math.factorial(c - 1) * (n - c)
    root = _exact_root(inner, c)
    if root is not None:
        return float(root - c)
    return _root(inner, c) - c


def _root(value: int, c: int) -> float:
    """The c-th root of a positive integer, by logarithms past float range."""
    try:
        return float(value) ** (1.0 / c)
    except OverflowError:
        return math.exp(math.log(value) / c)


def _exact_root(value: int, c: int) -> int | None:
    """The integer c-th root of value, if it has one."""
    guess = round(_root(value, c))
    return next((p for p in (guess - 1, guess, guess + 1) if p >= 0 and p**c == value), None)


def tree_lower_bound(d: int, h_eff: int, h: int) -> int:
    """ceil(sqrt(h_eff / log_d(h))): colours any anagram-free colouring of a
    d-branch tree of effective height h_eff and height at most h must use.

    The pigeonhole guarantee behind the bound assumes h >= sqrt(d); the
    formula is evaluated for any h >= 2 (see height_condition_met).
    """
    if d < 2:
        raise PreconditionError("need d >= 2")
    if h < 2:
        raise PreconditionError("need h >= 2")
    if h_eff < 0:
        raise PreconditionError("effective height must be non-negative")
    if h_eff == 0:
        return 0
    return _ceil_tol(math.sqrt(h_eff / math.log(h, d)))


def height_condition_met(d: int, h: int) -> bool:
    """Whether (d, h) meets the height floor h >= max(2, sqrt(d)) that the
    counting argument behind tree_lower_bound assumes."""
    return h >= max(2.0, math.sqrt(d))


def subdivision_tree_lower_bound(d: int, h: int, k: int) -> float:
    """sqrt(h / log_b(h * (k+1))) with b = min(d, (h * (k+1))^2): the lower
    bound for the k-subdivision of the complete d-ary tree of height h."""
    if d < 2 or h < 1 or k < 0:
        raise ValueError("need d >= 2, h >= 1, k >= 0")
    target = h * (k + 1)
    if target < 2:  # log base min(d, 1) would be 1
        raise ValueError("need h * (k + 1) >= 2")
    base = min(d, target**2)
    return math.sqrt(h / math.log(target, base))


def dary_two_sided(d: int, h: int, k: int) -> tuple[float, float]:
    """Lower and upper bounds on the anagram-free chromatic number of the
    k-subdivision of the complete d-ary tree of height h."""
    if d < 2 or h < 1:
        raise ValueError("need d >= 2 and h >= 1")
    if k <= 2 * d:
        raise ValueError("need k > 2d")
    lower = subdivision_tree_lower_bound(d, h, k)
    upper = 10 * h / math.log(k / (2 * d), d + 1) + 14
    return lower, upper
