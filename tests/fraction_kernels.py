"""Reference kernels in `Fraction`s: the phase system's hull solve and
level oracle, each map x -> g + k*x a (g, k) pair of `Fraction`s, and the
series evaluators and digit extraction of `cantorkit.radix`.

`cantorkit.cylinders` steps the same system in integer numerators, each
phase's maps as (G, K) over one denominator M, and `cantorkit.radix` folds
digits into one integer numerator over the product of its bases.  These are
the `Fraction` versions they replaced; the tests compare the two, value for
value, and convert systems and levels between the two forms.
"""

from fractions import Fraction
from math import lcm

from cantorkit.errors import InvalidDigitError, OutOfRangeError
from cantorkit.radix import DigitString, _check_digit


def interval_step(maps, lo, hi):
    """Hull of the images of [lo, hi] under the monotone maps x -> g + k*x,
    with the indices of the maps attaining its two ends."""
    new_lo, ilo = min((g + k * (lo if k > 0 else hi), i) for i, (g, k) in enumerate(maps))
    new_hi, ihi = max((g + k * (hi if k > 0 else lo), i) for i, (g, k) in enumerate(maps))
    return new_lo, new_hi, ilo, ihi


def solve_chains(links):
    """Exact values of unknowns x_u = g + k * x_v, given as links u -> (v, g, k)
    with |k| < 1 around every cycle."""
    value = {}
    for start in links:
        path, seen, node = [], set(), start
        while node not in value and node not in seen:
            seen.add(node)
            path.append(node)
            node = links[node][0]
        if node not in value:  # a new cycle, from `node` round to itself
            a, b = Fraction(0), Fraction(1)  # x_node = a + b * x_(current)
            for u in path[path.index(node) :]:
                _, g, k = links[u]
                a, b = a + b * g, b * k
            value[node] = a / (1 - b)
        for u in reversed(path):
            if u not in value:
                v, g, k = links[u]
                value[u] = g + k * value[v]
    return value


def solve_phase_hulls(system):
    """Exact hull of each phase of {phase: (maps, next phase)}, by policy
    iteration on `interval_step` from the ends all 0."""
    if not system or not all(maps for maps, _ in system.values()):
        raise ValueError("need at least one affine map per phase")
    if max(abs(k) for maps, _ in system.values() for _, k in maps) >= 1:
        raise ValueError("affine maps must be contractions")
    ends = {(p, e): Fraction(0) for p in system for e in (0, 1)}  # end 0 is lo, end 1 hi
    while True:
        steps = {p: interval_step(maps, ends[n, 0], ends[n, 1]) for p, (maps, n) in system.items()}
        hulls = {p: (ends[p, 0], ends[p, 1]) for p in system}
        if all(st[:2] == hulls[p] for p, st in steps.items()):
            return hulls
        links = {}
        for p, (maps, n) in system.items():
            for e, i in enumerate(steps[p][2:]):
                g, k = maps[i]
                links[p, e] = ((n, e if k > 0 else 1 - e), g, k)
        ends = solve_chains(links)


def level_minmax(levels, x0):
    """Exact min/max of f_1(f_2(...f_d(x0))) over every choice of f_j from
    levels[j-1], one interval step per level, deepest first."""
    lo = hi = x0
    for maps in reversed(levels):
        lo, hi, _, _ = interval_step(maps, lo, hi)
    return lo, hi


def oracle_local(system, depth, phase):
    """(min, max, shrink) of the oracle `depth` levels below `phase`, each
    continuation closed by the first maps' cycle."""
    closing = solve_chains({p: (n, *maps[0]) for p, (maps, n) in system.items()})
    levels, shrink = [], Fraction(1)
    for _ in range(depth):
        maps, phase = system[phase]
        levels.append(maps)
        shrink *= max(abs(k) for _, k in maps)
    return (*level_minmax(levels, closing[phase]), shrink)


# -- between the two forms ---------------------------------------------------------


def over_lcm(triples):
    """(M, ((G, K), ...)): maps x -> (gn + kn*x)/m, given as (gn, kn, m),
    over their least common denominator M, as `cylinders._phase_maps` keeps
    a phase's maps."""
    M = lcm(*(m for *_, m in triples))
    return M, tuple((gn * (M // m), kn * (M // m)) for gn, kn, m in triples)


def integer_maps(maps):
    """(M, ((G, K), ...)) of `Fraction` maps (g, k)."""
    triples = []
    for g, k in maps:
        m = g.denominator * k.denominator
        triples.append((int(g * m), int(k * m), m))
    return over_lcm(triples)


def integer_system(system):
    """{phase: (M, integer maps, next)} of {phase: (`Fraction` maps, next)}."""
    return {p: (*integer_maps(maps), n) for p, (maps, n) in system.items()}


def fraction_hulls(hulls):
    """{phase: (lo, hi) in `Fraction`s} of integer hulls {phase: (lo, hi, D)},
    ends over D, as `cylinders.solve_phase_hulls` returns them."""
    return {p: (Fraction(lo, D), Fraction(hi, D)) for p, (lo, hi, D) in hulls.items()}


def fraction_system(system):
    """{phase: (`Fraction` maps, next)} of {phase: (M, integer maps, next)}."""
    return {p: (tuple((Fraction(G, M), Fraction(K, M)) for G, K in maps), n) for p, (M, maps, n) in system.items()}


# -- positional expansions ---------------------------------------------------------


def periodic_tail_value(s, tail, alternating, start):
    """Value of the periodic tail after position `start`, relative to s^-start,
    summed one term at a time over the tail's (effective) period."""
    tail = tuple(_check_digit(t, s, "tail digit") for t in tail)
    if not tail:
        return Fraction(0)
    p = len(tail)
    if alternating:
        eff = p if p % 2 == 0 else 2 * p
        block = sum(
            Fraction((-1) ** (start + j) * tail[(j - 1) % p], s**j) for j in range(1, eff + 1)
        )
        return block * Fraction(s**eff, s**eff - 1)
    block = sum(Fraction(tail[(j - 1) % p], s**j) for j in range(1, p + 1))
    return block * Fraction(s**p, s**p - 1)


def eval_sadic(d, tail=()):
    """sum a_n s^-n, then the periodic tail, one `Fraction` a digit."""
    s = d.s
    value = sum(Fraction(a, s**n) for n, a in enumerate(d.digits, 1))
    if tail:
        value += Fraction(1, s ** len(d)) * periodic_tail_value(s, tail, False, len(d))
    return value


def eval_negasadic(d, tail=()):
    """sum (-1)^n a_n s^-n, then the periodic tail, one `Fraction` a digit."""
    s = d.s
    value = sum(Fraction((-1) ** n * a, s**n) for n, a in enumerate(d.digits, 1))
    if tail:
        value += Fraction(1, s ** len(d)) * periodic_tail_value(s, tail, True, len(d))
    return value


def eval_cantor(eps, basis, alternating=False):
    """sum (-1)^n e_n / (d_1...d_n) when alternating, else sum e_n / (d_1...d_n),
    over the basis repeating `basis`, one `Fraction` a digit."""
    basis = tuple(int(v) for v in basis)
    if not basis:
        raise ValueError("a Cantor basis needs at least one value")
    if min(basis) < 2:
        raise ValueError(f"basis value {min(basis)} must be > 1")
    value = Fraction(0)
    denom = 1
    for n, e in enumerate(eps, 1):
        dn = basis[(n - 1) % len(basis)]
        e = _check_digit(e, dn)
        denom *= dn
        term = Fraction(e, denom)
        value += -term if (alternating and n % 2 == 1) else term
    return value


def eval_negas_cantor(eps, gaps, s):
    """sum (-1)^n e_n s^-(m_1+..+m_n), one `Fraction` a digit."""
    if s < 2:
        raise InvalidDigitError(f"base must be >= 2, got {s}")
    if len(gaps) < len(eps):
        raise ValueError(f"{len(eps)} digits need as many gaps, got {len(gaps)}")
    value = Fraction(0)
    k = 0
    for n, (e, m) in enumerate(zip(eps, gaps), 1):
        e = _check_digit(e, s)
        if m < 1:
            raise ValueError(f"gap {m} must be a positive integer")
        k += m
        value += Fraction((-1) ** n * e, s**k)
    return value


def digits_from_rational(x, s, n, negative=False):
    """First n (nega-)s-adic digits of x, each step a `Fraction` remainder."""
    if s < 2:
        raise InvalidDigitError(f"base must be >= 2, got {s}")
    if n < 1:
        raise ValueError("need at least one digit")
    x = Fraction(x)
    digits = []
    if not negative:
        if x == 1:
            raise OutOfRangeError("1 has no canonical expansion (only the trailing (s-1)-run)")
        if not 0 <= x < 1:
            raise OutOfRangeError(f"{x} outside [0, 1)")
        y = x
        for _ in range(n):
            y *= s
            a = y.numerator // y.denominator
            digits.append(a)
            y -= a
    else:
        lo, hi = Fraction(-s, s + 1), Fraction(1, s + 1)
        if not lo <= x <= hi:
            raise OutOfRangeError(f"{x} outside [-s/(s+1), 1/(s+1)]")
        y = x
        for _ in range(n):
            a_min = -s * y - hi
            a = -((-a_min.numerator) // a_min.denominator)  # ceil
            a = min(max(a, 0), s - 1)
            digits.append(a)
            y = -s * y - a
    return DigitString(s, tuple(digits))
