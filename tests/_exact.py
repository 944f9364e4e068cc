"""Integer events and world lines of S(R), and exact verdicts on them, for R = 1105.

R = 1105 = 5 * 13 * 17 has many integer points on its circle, so rejection
finds integer events (x, t) with |x|^2 - t^2 = R^2 quickly. Integer isometries
(reflections in a spacelike vector of norm 1 and signed permutations of the
spatial axes) carry them to |t| of up to a few hundred R, still integer and still
exactly on the surface. All arithmetic here is on Python integers and
fractions, so every margin and band comparison below is exact.
"""

import math
import random
from fractions import Fraction

R = 1105
# First coordinates a of the integer points (a, +-b) of the circle of radius R.
CIRCLE = [a for a in range(-R, R + 1) if math.isqrt(R * R - a * a) ** 2 == R * R - a * a]


def form(p, q) -> int:
    """<p, q> = x_p . x_q - t_p t_q."""
    return sum(a * b for a, b in zip(p[:-1], q[:-1])) - p[-1] * q[-1]


def seed_event(n: int, rnd: random.Random) -> tuple:
    """An integer event with |t| <= 3R, by rejection on x_1 = isqrt(rest)."""
    while True:
        t = rnd.randint(-3 * R, 3 * R)
        m = R * R + t * t
        top = math.isqrt(m)
        rest = [rnd.randint(-top, top) for _ in range(n - 1)]
        r = m - sum(x * x for x in rest)
        x1 = math.isqrt(r) if r >= 0 else -1
        if x1 * x1 == r:
            return (rnd.choice((x1, -x1)), *rest, t)


def _reflect(e: tuple) -> tuple:
    """e - 2 <e, v> v for v = (1, 1, 0, ..., 0, 1), <v, v> = 1: an integer,
    time-preserving isometry."""
    k = 2 * (e[0] + e[1] - e[-1])
    return (e[0] - k, e[1] - k, *e[2:-1], e[-1] - k)


def _signed_permutation(e: tuple, perm, signs) -> tuple:
    return (*(s * e[i] for i, s in zip(perm, signs)), e[-1])


def outward_isometry(events, rnd: random.Random, top: int = 400 * R):
    """An integer isometry g, as a function on integer events, with every
    g(e) of `events` at |t| <= top: 1-4 steps, each a random permutation of
    the spatial axes with signs, then the reflection in v. The signs of the
    two axes that land first are set against the first event's t, so each
    step takes its t to 3t - 2(x_1 + x_2) and at least triples |t|; g is
    redrawn while some |t| > top."""
    n = len(events[0]) - 1
    while True:
        steps, g_e = [], events[0]
        for _ in range(rnd.randint(1, 4)):
            perm = rnd.sample(range(n), n)
            against = -1 if g_e[-1] >= 0 else 1
            signs = [
                against * (1 if g_e[i] >= 0 else -1) if k < 2 else rnd.choice((1, -1))
                for k, i in enumerate(perm)
            ]
            steps.append((perm, signs))
            g_e = _reflect(_signed_permutation(g_e, perm, signs))
        if all(abs(_carry(e, steps)[-1]) <= top for e in events):
            return lambda e: _carry(e, steps)


def _carry(e: tuple, steps) -> tuple:
    for perm, signs in steps:
        e = _reflect(_signed_permutation(e, perm, signs))
    return e


def world_lines(n: int, count: int, rnd: random.Random):
    """`count` integer world lines (p, u) = (g(R e_1), g(e_t)), g from
    outward_isometry, each followed by (-p, u). Every g(R e_1) is based at
    t >= 0, so each -p is based as far in the past. Both are lines: <p, p> =
    R^2, <u, u> = -1 and <p, u> = 0, with u future directed."""
    base, tangent = (R,) + (0,) * n, (0,) * n + (1,)
    for _ in range(count):
        g = outward_isometry([base], rnd)
        p, u = g(base), g(tangent)
        yield p, u
        yield tuple(-x for x in p), u


def throat_cone_pair(n: int, rnd: random.Random) -> tuple:
    """(p, q) at the throat with q on p's light cone (or q = p): p = (a, b,
    0, ..., 0, 0) with a^2 + b^2 = R^2, q = p + s (-b, a, 0, ..., 0, R), so
    <p, q> = R^2 exactly and q is future of p for s > 0, past for s < 0."""
    a = rnd.choice(CIRCLE)
    b = math.isqrt(R * R - a * a) * rnd.choice((1, -1))
    zeros = (0,) * (n - 2)
    s = rnd.randint(-3, 3)
    return (a, b, *zeros, 0), (a - s * b, b + s * a, *zeros, s * R)


def _side(num: int, den2: int, band: Fraction) -> int:
    """+1, -1 or 0 as num / sqrt(den2) is above band, below -band, or within
    it (den2 > 0, band >= 0)."""
    if num * num <= band * band * den2:
        return 0
    return 1 if num > 0 else -1


def exact_region(residuals, band: float):
    """The region of min(residuals) against the band, each residual given
    as (num, den2) meaning num / sqrt(den2): "boundary" for an exact zero,
    "inside" or "outside" when the minimum lies outside the band, and None
    when it lies within the band but is not zero."""
    zero = any(num == 0 for num, _ in residuals) and all(num >= 0 for num, _ in residuals)
    if zero:
        return "boundary"
    b = Fraction(band)
    sides = [_side(num, den2, b) for num, den2 in residuals]
    if -1 in sides:
        return "outside"
    if all(s == 1 for s in sides):
        return "inside"
    return None


def chord_residuals(p, q, time_sign: int):
    """<p, q> - R^2 and time_sign (t_q - t_p) R: the chord oracle's two
    residuals, in R^2 units."""
    return [(form(p, q) - R * R, 1), (time_sign * (q[-1] - p[-1]) * R, 1)]


def frame_residuals(q, p, time_sign: int):
    """The frame route's residuals x_1' - R = (<p, q> - R^2) / R and
    -time_sign t', with t' = ((R^2 + t_p^2) t_q - t_p (x_p . x_q)) / (R |x_p|)
    and |x_p|^2 = R^2 + t_p^2."""
    t_p = p[-1]
    d = R * R + t_p * t_p
    t_num = d * q[-1] - t_p * sum(a * b for a, b in zip(p[:-1], q[:-1]))
    return [(form(p, q) - R * R, R * R), (-time_sign * t_num, R * R * d)]
