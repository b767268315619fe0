"""Set families described as digit-restriction languages.

Each family is a set of real numbers whose expansion (s-adic, nega-s-adic or
gap-structured) uses only certain digit combinations.  A `FamilySpec` names
the family and its parameters; an address, a plain sequence of selectors
(`level_choices` lists them), selects a nested cylinder inside it.

Family kinds and their value maps (alphas are the restricted digits, A_k
their prefix sums):

* ``S``       x = sum a_n s^-(A_n),                digits a_n in {1..s-1}
* ``Su``      x = u/(s-1) + sum (a_n - u) s^-(A_n), digits != 0, != u
* ``NSu``     x = -u/(s+1) + sum (a_n - u)(-s)^-(A_n), digits != 0, != u
* ``Sminus``  x = sum (-1)^n a_n s^-(A_n),          digits in {1..s-1}
* ``Tilde``   s-adic numbers built from the union of all Su run blocks
* ``MD``      nega-s-adic series with free odd gaps >= 3, nonzero digits
* ``MDper``   nega-s-adic series with a fixed periodic odd gap sequence,
              digits ranging over all of {0..s-1}
* ``Blocks``  s-adic numbers built from an explicit finite block set
* ``Cantor``  Cantor series with per-level digit subsets I_j

Every kind but MD is the attractor of finitely many monotone affine digit
maps per phase.  A selector writes a digit block into the expansion and maps
the local tail value after it by x -> (gn + sk*x)/m in integers
(`digit_map`, tabulated per phase by `digit_maps`).  MDper's gap period and
a Cantor series' periodic basis and level sets give their maps phases, so
they form graph-directed systems; the other kinds have one phase.  MD has a
map for every odd gap, so its maps are made one at a time.  Every walk over
a selector sequence (`_walk`) reads the same maps and refuses the first
inadmissible selector; integer frames (V, den, sign, phase) fold the maps
along an address, so every traversal applies one map per child without
building a `Fraction`.

The grammar (``Su(s=5,u=2)``) is one table: `_KEYS` gives each kind's keys
and `_GRAMMAR` each key's field, reader and writer, so `parse_family` and
`FamilySpec.label` are inverse by construction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    CapExceededError,
    FamilyConstraintError,
    FamilyParseError,
    InvalidDigitError,
    UnsupportedFamilyError,
)
from .radix import CantorBasis, DigitString

DEFAULT_CAP = 10**6

#: each kind's grammar keys, in label order (`_GRAMMAR` reads and writes them)
_KEYS = {
    "S": ("s",), "Su": ("s", "u"), "NSu": ("s", "u"), "Sminus": ("s",), "Tilde": ("s",),
    "MD": ("s",), "MDper": ("s", "m"), "Blocks": ("s", "B"), "Cantor": ("d", "I"),
}

KINDS = tuple(_KEYS)

#: kinds whose addresses are indices into a finite block list
BLOCK_KINDS = ("Tilde", "Blocks")


def check_cantor_alignment(basis: CantorBasis, level_sets: Sequence[Sequence[int]]) -> None:
    """Raise unless each level's largest digit lies below the d_j it pairs with.

    Level j uses digit set I_((j-1) mod q); for a constant or periodic basis
    the pairing repeats after lcm(p, q) levels, so one such cycle decides.  A
    power basis grows, so its smallest element d_1 decides."""
    if basis.kind == "power":
        for I in level_sets:
            if max(I) >= basis.base:
                raise InvalidDigitError(f"digit {max(I)} not below every d_j >= {basis.base}")
        return
    q = len(level_sets)
    for j in range(1, lcm(len(basis.values), q) + 1):
        top = max(level_sets[(j - 1) % q])
        if top >= basis.d(j):
            raise InvalidDigitError(f"digit {top} >= d_{j} = {basis.d(j)}")


class _FamilySpecFields(NamedTuple):
    kind: str
    s: int
    u: int | None
    period: tuple[int, ...] | None
    blocks: tuple[tuple[int, ...], ...] | None
    basis: CantorBasis | None
    level_sets: tuple[tuple[int, ...], ...] | None


class FamilySpec(_FamilySpecFields):
    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        s: int,
        u: int | None = None,
        period: tuple[int, ...] | None = None,
        blocks: tuple[tuple[int, ...], ...] | None = None,
        basis: CantorBasis | None = None,
        level_sets: tuple[tuple[int, ...], ...] | None = None,
    ):
        if kind not in KINDS:
            raise FamilyParseError(f"unknown family kind {kind!r}")
        if kind in ("S", "Su", "NSu", "Sminus", "Tilde"):
            if s <= 2:
                raise FamilyConstraintError(f"{kind} requires s > 2, got {s}")
        elif kind in ("MD", "MDper"):
            if s <= 1:
                raise FamilyConstraintError(f"{kind} requires s > 1, got {s}")
        elif kind == "Blocks":
            if s < 2:
                raise FamilyConstraintError(f"Blocks requires s >= 2, got {s}")
        if kind == "S" and u in (None, 0):  # 0 is how pickle and copy rebuild an S
            u = 0
        elif kind in ("Su", "NSu"):
            if u is None:
                raise FamilyConstraintError(f"{kind} needs a digit parameter u")
            if not 0 <= u < s:
                raise FamilyConstraintError(f"u={u} outside alphabet of base {s}")
        elif u is not None:
            raise FamilyConstraintError(f"{kind} takes no u parameter")
        if kind == "MDper":
            if not period:
                raise FamilyConstraintError("MDper needs a gap period m=[...]")
            period = tuple(int(m) for m in period)
            for m in period:
                if m < 3 or m % 2 == 0:
                    raise FamilyConstraintError(f"MDper gaps must be odd and >= 3, got {m}")
        elif period is not None:
            raise FamilyConstraintError(f"{kind} takes no period")
        if kind == "Blocks":
            if not blocks:
                raise FamilyConstraintError("Blocks needs a nonempty block list B=[...]")
            blocks = tuple(tuple(int(d) for d in b) for b in blocks)
            if len(set(blocks)) != len(blocks):
                raise FamilyConstraintError("duplicate blocks")
            for b in blocks:
                if not b:
                    raise FamilyConstraintError("empty block")
                for d in b:
                    if not 0 <= d < s:
                        raise InvalidDigitError(f"block digit {d} outside base {s}")
            blocks = tuple(sorted(blocks, key=lambda b: (len(b), b)))
        elif blocks is not None:
            raise FamilyConstraintError(f"{kind} takes no explicit block list")
        if kind == "Cantor":
            if basis is None or not level_sets:
                raise FamilyConstraintError("Cantor needs a basis and per-level digit sets")
            if basis.kind != "power":  # a constant basis is stored as the periodic one the grammar reads
                basis = CantorBasis.periodic(basis.values)
                if s != max(basis.values):
                    raise FamilyConstraintError(f"Cantor s={s} must be the largest basis value {max(basis.values)}")
            level_sets = tuple(tuple(sorted(set(int(d) for d in I))) for I in level_sets)
            for I in level_sets:
                if not I:
                    raise FamilyConstraintError("empty level digit set")
                if I[0] < 0:
                    raise InvalidDigitError("negative digit in level set")
            check_cantor_alignment(basis, level_sets)
        elif basis is not None or level_sets is not None:
            raise FamilyConstraintError(f"{kind} takes no Cantor basis")
        return super().__new__(cls, kind, s, u, period, blocks, basis, level_sets)

    # -- structural helpers -------------------------------------------------

    @property
    def degenerate(self) -> bool:
        """True when the family collapses to a single point (one choice per level)."""
        if self.kind == "MD":
            return False
        levels = len(self.level_sets) if self.level_sets else 1  # only a Cantor series has level sets
        return all(len(level_choices(self, j)) <= 1 for j in range(1, levels + 1))

    def label(self) -> str:
        """Canonical grammar form of this family: its kind's keys in `_KEYS`
        order, each written by its `_GRAMMAR` writer, so `parse_family` reads
        it back to an equal spec.  A power basis writes ``d=[pow<b>]``, which
        the grammar does not read: that basis is library-only."""
        kind = self.kind
        keys = ((key, *_GRAMMAR[key]) for key in _KEYS[kind])
        args = ",".join(f"{key}={write(getattr(self, field))}" for key, field, _, write in keys)
        return f"{kind}({args})"


# -- grammar -----------------------------------------------------------------

_HEAD = re.compile(r"^\s*([A-Za-z]+)\s*\((.*)\)\s*$", re.S)


def _split_args(body: str) -> list[str]:
    """The nonblank comma-separated parts of `body`; a comma inside brackets or braces splits nothing."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        depth += (ch in "[{") - (ch in "]}")
        if ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return [p.strip() for p in parts if p.strip()]


def _int_list(text: str, what: str) -> tuple[int, ...]:
    """The integers in `text`, separated by commas or blanks: the one reader of
    integer lists, for the grammar's lists and the command line's options."""
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError as exc:
        raise FamilyParseError(f"bad integer in {what}: {exc}") from None


def _inside(text: str, key: str, brackets: str = "[]") -> str:
    """`text` between its enclosing brackets; refused when they are missing."""
    text = text.strip()
    if not (text.startswith(brackets[0]) and text.endswith(brackets[1])):
        raise FamilyParseError(f"{key} must look like {brackets[0]}...{brackets[1]}")
    return text[1:-1]


def _checked(read, value, key: str):
    """`read(value)`, a ValueError it raises refused as a bad `key`."""
    try:
        return read(value)
    except ValueError as exc:
        raise FamilyParseError(f"bad {key}: {exc}") from None


def _write_list(values) -> str:
    return "[" + ",".join(map(str, values)) + "]"


#: grammar key -> (the `FamilySpec` field it sets, its reader (text, key) -> value,
#: its writer value -> text); `parse_family` and `FamilySpec.label` run this one table
_GRAMMAR = {
    "s": ("s", lambda text, key: _checked(int, text, key), str),
    "u": ("u", lambda text, key: _checked(int, text, key), str),
    "m": ("period", lambda text, key: _int_list(_inside(text, key), key), _write_list),
    "B": ("blocks",  # one block of digits between semicolons: [0 2;1]
          lambda text, key: tuple(_int_list(b, key) for b in _inside(text, key).split(";")),
          lambda blocks: "[" + ";".join(" ".join(map(str, b)) for b in blocks) + "]"),
    "d": ("basis",  # a power basis has no values, and is written but never read
          lambda text, key: _checked(CantorBasis.periodic, _int_list(_inside(text, key), key), key),
          lambda basis: _write_list(basis.values) if basis.values else f"[pow{basis.base}]"),
    "I": ("level_sets",  # braced digit sets, one per level: [{0,2},{1}]
          lambda text, key: tuple(_int_list(_inside(I, key, "{}"), key) for I in _split_args(_inside(text, key))),
          lambda sets: "[" + ",".join("{" + ",".join(map(str, I)) + "}" for I in sets) + "]"),
}


def parse_family(text: str) -> FamilySpec:
    """Parse the family grammar, e.g. ``Su(s=5,u=2)`` or ``Blocks(s=3,B=[0 2;1])``.

    Reads exactly the kind's `_KEYS`, each with its `_GRAMMAR` reader.  A
    Cantor series names no s: it is the largest basis value."""
    m = _HEAD.match(text)
    if not m:
        raise FamilyParseError(f"cannot parse family {text!r}")
    kind, body = m.group(1), m.group(2)
    if kind not in _KEYS:
        raise FamilyParseError(f"unknown family kind {kind!r}")
    args: dict[str, str] = {}
    for key, eq, val in (part.partition("=") for part in _split_args(body)):
        if not eq:
            raise FamilyParseError(f"expected key=value, got {key!r}")
        args[key.strip()] = val.strip()
    keys = _KEYS[kind]
    if set(args) - set(keys):
        raise FamilyParseError(f"unexpected arguments {sorted(set(args) - set(keys))} for {kind}")
    fields = {}
    for key in keys:
        if key not in args:
            raise FamilyParseError(f"{kind} needs {key}=...")
        field, read, _ = _GRAMMAR[key]
        fields[field] = read(args[key], key)
    if kind == "Cantor":
        fields["s"] = max(fields["basis"].values)
    try:
        return FamilySpec(kind, **fields)
    except (FamilyConstraintError, InvalidDigitError) as exc:
        raise FamilyParseError(str(exc)) from exc


# -- block sets ---------------------------------------------------------------


class BlockSet(NamedTuple):
    """A finite digit-block language, or an analytic stand-in for an infinite one.

    ``histogram`` maps block length k to the count N_k.  The MD family has
    infinitely many blocks (a zero run of any odd length >= 3 capped by a
    nonzero digit); it is represented by the ``analytic`` tag and an empty
    block tuple, never materialised.
    """

    blocks: tuple[tuple[int, ...], ...] | None
    histogram: tuple[tuple[int, int], ...]
    analytic: str | None = None
    degenerate: bool = False

    @property
    def size(self) -> int:
        return sum(n for _, n in self.histogram)

    def counts(self) -> dict[int, int]:
        return dict(self.histogram)


def _histogram(blocks) -> tuple[tuple[int, int], ...]:
    h: dict[int, int] = {}
    for b in blocks:
        h[len(b)] = h.get(len(b), 0) + 1
    return tuple(sorted(h.items()))


@lru_cache(maxsize=256)
def family_blocks(fam: FamilySpec) -> tuple[tuple[int, ...], ...]:
    """The raw block tuple of a family with finitely many blocks."""
    if fam.kind == "MDper":
        if fam.s ** len(fam.period) > DEFAULT_CAP:
            raise CapExceededError("MDper period blocks exceed the enumeration cap")
        # one block per period: the phase blocks in sequence
        phases = [[m[0] for m in digit_maps(fam, p).values()] for p in range(len(fam.period))]
        blocks = [sum(combo, ()) for combo in product(*phases)]
    else:
        blocks = [m[0] for m in digit_maps(fam, 0).values()]
    return tuple(sorted(blocks, key=lambda b: (len(b), b)))


def blocks_of_family(fam: FamilySpec) -> BlockSet:
    """The digit-block language defining `fam`, with its length histogram."""
    if fam.kind == "Cantor":
        raise UnsupportedFamilyError("Cantor families restrict digits per level, not blocks")
    if fam.kind == "MD":
        # one block 0^(k-1) a per odd length k >= 3 and nonzero digit a:
        # N_k = s-1, generating function (s-1) t^3 / (1 - t^2)
        return BlockSet(blocks=None, histogram=(), analytic="odd-zero-runs")
    blocks = family_blocks(fam)
    return BlockSet(blocks=blocks, histogram=_histogram(blocks), degenerate=len(blocks) == 1)


# -- addresses ----------------------------------------------------------------


def level_choices(fam: FamilySpec, level: int) -> Sequence[int]:
    """Admissible selectors at one address level (1-indexed): the one list of
    a family's selectors.  MD has a selector for every odd gap and is refused."""
    kind, s = fam.kind, fam.s
    if kind in ("S", "Su", "NSu", "Sminus"):  # Sminus has no u
        return tuple(a for a in range(1, s) if a != fam.u)
    if kind == "MDper":
        return range(s)
    if kind == "Cantor":
        return fam.level_sets[(level - 1) % len(fam.level_sets)]
    if kind == "Blocks":
        return range(len(fam.blocks))
    if kind == "Tilde":  # (1,) and s-1 blocks of each length 2..s-1
        return range(1 + (s - 1) * (s - 2))
    raise UnsupportedFamilyError("MD has unbounded branching")


def address_count(fam: FamilySpec, depth: int, cap: int = DEFAULT_CAP) -> int:
    """Number of rank-`depth` addresses; CapExceededError when above `cap`."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    level_choices(fam, 1)  # refuses MD at every depth, rank 0 included
    total = 1
    for level in range(1, depth + 1):
        total *= len(level_choices(fam, level))
        if total > cap:
            raise CapExceededError(f"{total}+ addresses at depth {depth} exceed cap {cap}")
    return total


def enumerate_addresses(fam: FamilySpec, depth: int, cap: int = DEFAULT_CAP) -> list[tuple]:
    """All rank-`depth` addresses, lexicographically sorted; admissible by
    construction, so none is walked."""
    address_count(fam, depth, cap)
    return list(product(*(level_choices(fam, level) for level in range(1, depth + 1))))


# -- affine digit maps ----------------------------------------------------------

#: (block, gn, sk, m, next_phase): a selector writes `block` and maps the
#: local tail value by x -> (gn + sk*x)/m, all integers, m >= 2, sk = +-1
DigitMap = tuple[tuple[int, ...], int, int, int, int]

#: (V, den, sign, phase), all integers: a cylinder is the image of the local
#: tail set at `phase` under x -> const + (V + sign * x) / den, where const
#: is the family constant (`_family_const`) and den >= 1
Frame = tuple[int, int, int, int]

ROOT_FRAME: Frame = (0, 1, 1, 0)


def digit_map(fam: FamilySpec, sel, phase: int = 0) -> DigitMap:
    """(block, gn, sk, m, next_phase) of one selector at `phase`, in integers.

    The selector (a run digit; a block index for Tilde/Blocks; a digit for
    MDper and Cantor; a (gap, digit) pair for MD) writes `block` into the
    digit expansion, and the local tail value from it on is
    x -> (gn + sk*x)/m of the local tail value at `next_phase`, which
    depends on `phase` alone; m >= 2 and sk = +-1.  Cantor phase p reads
    level p+1 (mod lcm(#d, #I)): x -> (e + x)/d_(p+1).  MD has no table of
    admissible selectors, so its pairs are checked by `_md_pair`.
    """
    s, kind = fam.s, fam.kind
    if kind in ("S", "Su", "NSu"):
        sk = -1 if kind == "NSu" and sel % 2 else 1
        return (fam.u,) * (sel - 1) + (sel,), sk * (sel - fam.u), sk, s**sel, 0
    if kind == "Sminus":
        return (0,) * (sel - 1) + (sel,), -sel, -1, s**sel, 0
    if kind == "Cantor":
        nxt = phase + 1
        if fam.basis.kind != "power":  # a power basis never repeats
            nxt %= lcm(len(fam.basis.values), len(fam.level_sets))
        return (sel,), sel, 1, fam.basis.d(phase + 1), nxt
    if kind in BLOCK_KINDS:
        if kind == "Blocks":
            block = fam.blocks[sel]
        else:  # Tilde: (1,), then v^(k-1) k for k = 2..s-1 over the digits v != k
            k, v = divmod(sel - 1, s - 1)
            k += 2
            block = (v + (v >= k),) * (k - 1) + (k,) if sel else (1,)
        return block, sum(d * s**i for i, d in enumerate(reversed(block))), 1, s ** len(block), 0
    if kind == "MD":
        (m, eps), nxt = _md_pair(fam, sel), 0
    else:  # MDper
        m, eps, nxt = fam.period[phase], sel, (phase + 1) % len(fam.period)
    return (0,) * (m - 1) + (eps,), -eps, -1, s**m, nxt


def _md_pair(fam: FamilySpec, sel) -> tuple[int, int]:
    """The checked (gap, digit) of an MD selector; its block is not written."""
    try:
        m, eps = sel
    except (TypeError, ValueError):
        raise FamilyConstraintError("MD addresses are (gap, digit) pairs") from None
    if m < 3 or m % 2 == 0:
        raise FamilyConstraintError(f"MD gap {m} must be odd and >= 3")
    if m > DEFAULT_CAP:  # the bound every phase table has
        raise CapExceededError(f"MD gap {m} writes over {DEFAULT_CAP} digits, above the cap")
    if not 1 <= eps < fam.s:
        raise FamilyConstraintError(f"MD digit {eps} must be nonzero and < {fam.s}")
    return m, eps


@lru_cache(maxsize=256)
def digit_maps(fam: FamilySpec, phase: int) -> Mapping[object, DigitMap]:
    """selector -> `digit_map` at `phase`, in `level_choices` order.

    Refused with CapExceededError as soon as the phase's blocks pass
    DEFAULT_CAP digits, so no table grows without bound (S(s) writes about
    s^2/2 digits)."""
    table, digits = {}, 0
    for sel in level_choices(fam, phase + 1):
        table[sel] = dmap = digit_map(fam, sel, phase)
        digits += len(dmap[0])
        if digits > DEFAULT_CAP:
            raise CapExceededError(f"{fam.label()} blocks hold over {DEFAULT_CAP} digits, above the cap")
    return MappingProxyType(table)


def _inadmissible(fam: FamilySpec, sel) -> FamilyConstraintError:
    return FamilyConstraintError(f"selector {sel!r} not admissible in {fam.label()}")


def _walk(fam: FamilySpec, sels: Sequence, phase: int = 0) -> Iterator[DigitMap]:
    """The digit map of each selector of `sels`, read from `phase` on;
    raises at the first selector not admissible at the phase it is read in."""
    for sel in sels:
        if fam.kind == "MD":  # a map for every odd gap, too many for a table
            dmap = digit_map(fam, sel, phase)
        else:
            try:
                dmap = digit_maps(fam, phase)[sel]
            except KeyError:
                raise _inadmissible(fam, sel) from None
        yield dmap
        phase = dmap[4]


def child_frames(fam: FamilySpec, frame: Frame) -> Iterator[tuple[object, Frame]]:
    """(selector, child frame) for each selector below `frame`: one map per
    child, in integer arithmetic."""
    V, den, sign, phase = frame
    for sel, (_, gn, sk, m, nxt) in digit_maps(fam, phase).items():
        yield sel, (V * m + sign * gn, den * m, sign * sk, nxt)


def _fold(fam: FamilySpec, sels: Sequence, frame: Frame) -> Frame:
    """The frame reached from `frame` through the selectors `sels`."""
    V, den, sign, phase = frame
    for _, gn, sk, m, phase in _walk(fam, sels, phase):
        V, den, sign = V * m + sign * gn, den * m, sign * sk
    return V, den, sign, phase


# -- membership ----------------------------------------------------------------


def membership_prefix(fam: FamilySpec, digits) -> bool:
    """Whether `digits` is a prefix of some admissible digit expansion.

    Dynamic programming over (position, phase) through the digit maps: a
    block read at a phase leads to its map's next phase.  Any parse counts,
    since the families are defined by digit appearance rather than unique
    decodability.
    """
    seq = digits.digits if isinstance(digits, DigitString) else tuple(int(d) for d in digits)
    for d in seq:
        if not 0 <= d < fam.s:
            raise InvalidDigitError(f"digit {d} outside alphabet of base {fam.s}")
    if fam.kind == "Cantor":
        raise UnsupportedFamilyError("Cantor families have per-level alphabets; check digits there")
    if fam.kind == "MD":
        return _md_prefix_ok(seq)
    n = len(seq)
    reach = [set() for _ in range(n + 1)]
    reach[0].add(0)
    for pos in range(n):
        for phase in reach[pos]:
            for block, *_, nxt in digit_maps(fam, phase).values():
                tail = seq[pos : pos + len(block)]
                if tail == block[: len(tail)]:
                    if pos + len(block) > n:
                        return True  # ends inside this block: extendable
                    reach[pos + len(block)].add(nxt)
    return bool(reach[n])


def _md_prefix_ok(seq: tuple[int, ...]) -> bool:
    """Prefix check for 0-run/odd-gap structure: each complete chunk 0^(m-1) a
    needs odd m >= 3; a trailing zero run is always extendable."""
    run = 0
    for d in seq:
        if d == 0:
            run += 1
        else:
            m = run + 1
            if m < 3 or m % 2 == 0:
                return False
            run = 0
    return True


# -- values --------------------------------------------------------------------


def _family_const(fam: FamilySpec) -> Fraction:
    if fam.kind in ("S", "Su"):
        return Fraction(fam.u, fam.s - 1)
    if fam.kind == "NSu":
        return Fraction(-fam.u, fam.s + 1)
    return Fraction(0)


def address_frame(fam: FamilySpec, addr) -> Frame:
    """(V, den, sign, phase) of `addr`: its cylinder is the image of the
    family's local tail set at `phase` under x -> const + (V + sign * x)/den."""
    return _fold(fam, addr, ROOT_FRAME)


def eval_family_point(fam: FamilySpec, alphas, tail: Sequence = ()) -> Fraction:
    """Exact partial-sum value of the family's series for a finite selector
    prefix, optionally closed by a periodic selector tail."""
    V, den, sign, phase = address_frame(fam, alphas)
    if tail:
        # the tail's own map x -> (tv + tk*x)/td fixes tv/(td - tk)
        tv, td, tk, end = _fold(fam, tail, (0, 1, 1, phase))
        if end != phase:
            msg = f"a periodic tail must return to the phase it starts at ({phase}); it ends at {end}"
            raise FamilyConstraintError(msg)
        V, den = V * (td - tk) + sign * tv, den * (td - tk)
    return _family_const(fam) + Fraction(V, den)


def expand_address(fam: FamilySpec, addr) -> DigitString:
    """The full digit string an address fixes in the family's expansion."""
    if fam.kind == "Cantor":
        raise UnsupportedFamilyError("Cantor addresses have no single-base digit form")
    out: list[int] = []
    for block, *_ in _walk(fam, addr):
        out.extend(block)
    return DigitString(fam.s, tuple(out))
