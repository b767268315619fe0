"""Set families described as digit-restriction languages.

Each family is a set of real numbers whose expansion (s-adic, nega-s-adic or
gap-structured) uses only certain digit combinations.  A `FamilySpec` names
the family and its parameters; an address, a plain sequence of selectors
(`digit_maps` lists each phase's), selects a nested cylinder inside it.

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
maps per phase, in the set's own values.  A selector writes a block of digit
runs, and its map is that block read in the kind's radix (`_block_map`):
x -> v + base^-n x for a block of n digits and value v, in base s, -s for
NSu, MDper and MD, and d_j at level j of a Cantor series; Sminus negates each
run's map.  `_kind` states each kind once per phase (counts, radix, next
phase and each selector's runs) and `digit_maps` tabulates it.  MDper's gap
period and a Cantor series' periodic basis and level sets give their maps
phases, so they form graph-directed systems; the other kinds have one phase.
MD has a map for every odd gap, so `_walk` makes its maps one at a time.
Every walk over a selector sequence (`_walk`) reads the same maps and refuses
the first inadmissible selector; integer frames (V, den, sign, phase) fold
the maps along an address, so every traversal applies one map per child
without building a `Fraction`.

The grammar (``Su(s=5,u=2)``) is one table: `_KEYS` gives each kind's keys
and `_GRAMMAR` each key's field, reader and writer, so `parse_family` and
`FamilySpec.label` are inverse by construction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain, groupby, product
from math import gcd, lcm, log10
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, NoReturn, Sequence

from .errors import (
    CapExceededError,
    FamilyConstraintError,
    FamilyParseError,
    InvalidDigitError,
    UnsupportedFamilyError,
)
from .radix import DigitString

DEFAULT_CAP = 10**6

#: each kind's grammar keys, in label order (`_GRAMMAR` reads and writes them)
_KEYS = {
    "S": ("s",), "Su": ("s", "u"), "NSu": ("s", "u"), "Sminus": ("s",), "Tilde": ("s",),
    "MD": ("s",), "MDper": ("s", "m"), "Blocks": ("s", "B"), "Cantor": ("d", "I"),
}

KINDS = tuple(_KEYS)

#: each kind's least base s, as its refusal words it (Cantor's s is its largest basis value)
_LEAST_BASE = {**dict.fromkeys(("S", "Su", "NSu", "Sminus", "Tilde"), (3, "s > 2")),
               "MD": (2, "s > 1"), "MDper": (2, "s > 1"), "Blocks": (2, "s >= 2")}

#: each `FamilySpec` field past s, in field order: what a kind whose `_KEYS`
#: set it needs, and what any other kind takes no
_FIELD_WORDS = {
    "u": ("a digit parameter u", "u parameter"),
    "period": ("a gap period m=[...]", "period"),
    "blocks": ("a nonempty block list B=[...]", "explicit block list"),
    "basis": ("a basis and per-level digit sets", "Cantor basis"),
    "level_sets": ("a basis and per-level digit sets", "Cantor basis"),
}


class _FamilySpecFields(NamedTuple):
    kind: str
    s: int
    u: int | None
    period: tuple[int, ...] | None
    blocks: tuple[tuple[int, ...], ...] | None
    basis: tuple[int, ...] | None
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
        basis: tuple[int, ...] | None = None,
        level_sets: tuple[tuple[int, ...], ...] | None = None,
    ):
        if kind not in KINDS:
            raise FamilyParseError(f"unknown family kind {kind!r}")
        least, words = _LEAST_BASE.get(kind, (0, ""))
        if s < least:
            raise FamilyConstraintError(f"{kind} requires {words}, got {s}")
        if kind == "S" and u == 0:  # 0 is how pickle and copy rebuild an S
            u = None
        taken = {_GRAMMAR[key][0] for key in _KEYS[kind]}
        for (field, (needs, takes_no)), value in zip(_FIELD_WORDS.items(), (u, period, blocks, basis, level_sets)):
            if field not in taken and value is not None:
                raise FamilyConstraintError(f"{kind} takes no {takes_no}")
            if field in taken and (value is None if field == "u" else not value):  # u = 0 is a digit
                raise FamilyConstraintError(f"{kind} needs {needs}")
        if u is not None and not 0 <= u < s:
            raise FamilyConstraintError(f"u={u} outside alphabet of base {s}")
        if period is not None:
            period = tuple(int(m) for m in period)
            for m in period:
                if m < 3 or m % 2 == 0:
                    raise FamilyConstraintError(f"MDper gaps must be odd and >= 3, got {m}")
        if blocks is not None:
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
        if basis is not None:
            basis = tuple(int(v) for v in basis)
            if min(basis) < 2:
                raise FamilyConstraintError(f"basis value {min(basis)} must be > 1")
            if s != max(basis):
                raise FamilyConstraintError(f"Cantor s={s} must be the largest basis value {max(basis)}")
            level_sets = tuple(tuple(sorted(set(int(d) for d in I))) for I in level_sets)
            for I in level_sets:
                if not I:
                    raise FamilyConstraintError("empty level digit set")
                if I[0] < 0:
                    raise InvalidDigitError("negative digit in level set")
            # level j pairs I_((j-1) mod q) with d_((j-1) mod p), so I_i meets d_k at
            # some level exactly when i = k (mod gcd(p, q)) (Chinese remainder
            # theorem): each residue class's largest digit and smallest value decide
            g = gcd(len(basis), len(level_sets))
            for c in range(g):
                i = max(range(c, len(level_sets), g), key=lambda j: level_sets[j][-1])
                k = min(range(c, len(basis), g), key=basis.__getitem__)
                if level_sets[i][-1] >= basis[k]:
                    raise InvalidDigitError(f"digit {level_sets[i][-1]} of I_{i + 1} >= d_{k + 1} = {basis[k]}")
        return super().__new__(cls, kind, s, 0 if kind == "S" else u, period, blocks, basis, level_sets)

    # -- structural helpers -------------------------------------------------

    @property
    def degenerate(self) -> bool:
        """True when the family collapses to a single point: one selector at
        every phase, counted from the spec.  A Cantor series' first #I phases
        decide (phase p lists I_(p mod #I)); other kinds count alike at every phase."""
        phases = len(self.level_sets) if self.level_sets else 1
        return self.kind != "MD" and all(_counted(self, p)[0] < 2 for p in range(phases))

    def label(self) -> str:
        """Canonical grammar form of this family: its kind's keys in `_KEYS`
        order, each written by its `_GRAMMAR` writer, so `parse_family` reads
        it back to an equal spec."""
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


def _read_list(text: str, key: str) -> tuple[int, ...]:
    return _int_list(_inside(text, key), key)


def _write_list(values) -> str:
    return "[" + ",".join(map(str, values)) + "]"


#: grammar key -> (the `FamilySpec` field it sets, its reader (text, key) -> value,
#: its writer value -> text); `parse_family` and `FamilySpec.label` run this one table
_GRAMMAR = {
    "s": ("s", lambda text, key: _checked(int, text, key), str),
    "u": ("u", lambda text, key: _checked(int, text, key), str),
    "m": ("period", _read_list, _write_list),
    "B": ("blocks",  # one block of digits between semicolons: [0 2;1]
          lambda text, key: tuple(_int_list(b, key) for b in _inside(text, key).split(";")),
          lambda blocks: "[" + ";".join(" ".join(map(str, b)) for b in blocks) + "]"),
    "d": ("basis", _read_list, _write_list),
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
        key = key.strip()
        if not eq:
            raise FamilyParseError(f"expected key=value, got {key!r}")
        if key in args:
            raise FamilyParseError(f"repeated key {key!r} in {kind}")
        args[key] = val.strip()
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
        fields["s"] = max(fields["basis"], default=0)  # an empty basis is refused by FamilySpec
    try:
        return FamilySpec(kind, **fields)
    except (FamilyConstraintError, InvalidDigitError) as exc:
        raise FamilyParseError(str(exc)) from exc


# -- block languages ----------------------------------------------------------


@lru_cache(maxsize=256)
def family_blocks(fam: FamilySpec) -> tuple[tuple[int, ...], ...]:
    """The digit-block language defining `fam`, sorted by length, then digits;
    MDper's blocks span a gap period.  MD (infinitely many blocks) is refused
    by `digit_maps`, a Cantor series (digits restricted per level) here."""
    if fam.kind == "Cantor":
        raise UnsupportedFamilyError("Cantor families restrict digits per level, not blocks")
    L = len(fam.period) if fam.kind == "MDper" else 1  # one block per rank-L cylinder
    walk_size(fam, L, DEFAULT_CAP, "")
    ranks = [[dmap[0] for dmap in maps.values()] for maps in _rank_maps(fam, L)]
    blocks = [sum(combo, ()) for combo in product(*ranks)]
    return tuple(sorted(blocks, key=lambda b: (len(b), b)))


def block_histogram(blocks) -> dict[int, int]:
    """Block length k -> the count N_k of blocks of that length, by increasing k."""
    return {k: len(list(same)) for k, same in groupby(sorted(map(len, blocks)))}


# -- the walk budget: whether a walk is too big, decided before it starts -------


def walk_size(fam: FamilySpec, depth: int, cap: int = DEFAULT_CAP, fix: str = "; lower --depth or raise --cap") -> int:
    """Rule 1 (a walk visits at most `cap` cylinders) for ranks 0..depth, one a rank at least."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    digit_maps(fam, 0)  # refuses MD and an over-cap table at every depth, rank 0 included
    total = nodes = 1
    for maps in _rank_maps(fam, depth):
        nodes *= len(maps)
        total += nodes
        if max(total, depth + 1) > cap:  # so a depth >= cap is refused at rank 1
            raise CapExceededError(f"{max(total, depth + 1)}+ cylinders in ranks 0..{depth}: above the cap {cap}{fix}")
    return total


def box_walk(fam: FamilySpec, splits, cap: int, where: str) -> int:
    """Rule 1 for the box walk from the root frame, which splits while splits(den, phase)."""
    paths, total = {(1, 0): 1}, 0  # root paths to each (den, phase), which decides the split
    while paths:
        state = min(paths)  # a child's den is its parent's times m >= 2: one pop per state
        n = paths.pop(state)
        total += n
        if total > cap:
            raise CapExceededError(f"{total}+ cylinders {where}: above the cap {cap}; lower --scales or raise --cap")
        if splits(*state):
            for *_, m, nxt in digit_maps(fam, state[1]).values():
                paths[state[0] * m, nxt] = paths.get((state[0] * m, nxt), 0) + n
    return total


def type_work(spent: int, cap: int, where: str) -> NoReturn:
    """Rule 1 for the box count by cell types: its splits' work has passed `cap`."""
    raise CapExceededError(f"{spent}+ word steps {where}: above the cap {cap}; lower --scales or raise --cap")


def denominator_digits(count: int, digits: float, m: int, what: str, fix: str = "") -> float:
    """Rule 2 (ranks or phases x denominator digits <= DEFAULT_CAP): `digits` plus those of `m`."""
    digits += m.bit_length() * log10(2)  # str() fails past 4,300 digits
    if count * digits > DEFAULT_CAP:
        raise CapExceededError(f"{count}+ {what} of {digits:.0f} denominator digits: above the cap {DEFAULT_CAP}{fix}")
    return digits


def enumerate_addresses(fam: FamilySpec, depth: int, cap: int = DEFAULT_CAP) -> list[tuple]:
    """All rank-`depth` addresses, lexicographically sorted; admissible by
    construction, so none is walked."""
    walk_size(fam, depth, cap)
    return list(product(*_rank_maps(fam, depth)))


# -- affine digit maps ----------------------------------------------------------

#: (block, gn, sk, m, next_phase): a selector writes `block` and maps the
#: tail value after it by x -> (gn + sk*x)/m, all integers, m >= 2, sk = +-1
DigitMap = tuple[tuple[int, ...], int, int, int, int]

#: (V, den, sign, phase), all integers: a cylinder is the image of the set at
#: `phase` under x -> (V + sign * x) / den, den >= 1
Frame = tuple[int, int, int, int]

ROOT_FRAME: Frame = (0, 1, 1, 0)

def _kind(fam: FamilySpec, phase: int) -> tuple:
    """The one description of each kind: (selectors, digits, base, flip,
    next_phase, pairs) at `phase`, all but `pairs` counted from the spec.
    `digits` is the total its selectors' blocks hold, `base` the radix they
    are read in, flip = -1 where each block's map is negated (Sminus) and 1
    elsewhere, and `pairs` makes each (selector, its (digit, count) runs) one
    at a time (`_block_map` reads them).

    A selector is a run digit (S, Su, NSu, Sminus), a block index (Tilde,
    Blocks) or a digit (MDper, Cantor).  MD has a selector for every odd gap
    and is refused; `_walk` makes its maps."""
    kind, s, u = fam.kind, fam.s, fam.u or 0
    if kind == "MD":
        raise UnsupportedFamilyError("MD has unbounded branching")
    if kind == "Cantor":  # phase p reads level p+1 (mod lcm(#d, #I)) in base d_(p+1)
        level, base = fam.level_sets[phase % len(fam.level_sets)], fam.basis[phase % len(fam.basis)]
        nxt = (phase + 1) % lcm(len(fam.basis), len(fam.level_sets))
        return len(level), len(level), base, 1, nxt, ((e, ((e, 1),)) for e in level)
    if kind == "MDper":  # digit eps after the phase's gap - 1 zeros, in base -s
        gap = fam.period[phase]
        pairs = ((eps, ((0, gap - 1), (eps, 1))) for eps in range(s))
        return s, s * gap, -s, 1, (phase + 1) % len(fam.period), pairs
    if fam.blocks:
        pairs = ((sel, tuple((d, len(list(k))) for d, k in groupby(b))) for sel, b in enumerate(fam.blocks))
        return len(fam.blocks), sum(map(len, fam.blocks)), s, 1, 0, pairs
    if kind == "Tilde":  # (1,), then v^(k-1) k for k = 2..s-1 over the digits v != k
        pairs = enumerate(chain([((1, 1),)], (((v, k - 1), (k, 1)) for k in range(2, s) for v in range(s) if v != k)))
        return 1 + (s - 1) * (s - 2), 1 + (s - 1) * (s * (s - 1) // 2 - 1), s, 1, 0, pairs
    # run digit a writes u^(a-1) a, s(s-1)/2 - u digits in all: NSu in base -s, Sminus negating each run
    pairs = ((a, ((u, a - 1), (a, 1))) for a in range(1, s) if a != u)
    base, flip = -s if kind == "NSu" else s, -1 if kind == "Sminus" else 1
    return s - 1 - bool(u), s * (s - 1) // 2 - u, base, flip, 0, pairs


def _counted(fam: FamilySpec, phase: int) -> tuple:
    """`_kind`, refused past DEFAULT_CAP selectors before any run is made;
    `eval_family_point` reads only a radix, so it calls `_kind` itself."""
    desc = _kind(fam, phase)
    if desc[0] > DEFAULT_CAP:
        raise CapExceededError(f"{fam.label()} has over {DEFAULT_CAP} selectors, above the cap")
    return desc


def _block_map(runs, base: int, nxt: int, flip: int = 1) -> DigitMap:
    """The map of writing the digit runs (digit, count) in `base`:
    x -> flip * (v + base^-n * x), v the block's value and n its length,
    that is x -> (gn + sk*x)/m with m = |base^n| and sk = flip * sign(base^n).

    v * base^n is summed one run at a time, from the last: with T = base^j
    for the j digits after a run, its k digits d add d (T base^k - T)/(base - 1)."""
    block, N, T = (), 0, 1
    for d, k in reversed(runs):
        p = T * base**k
        N, T, block = N - d * T + d * p, p, (d,) * k + block
    W = N // (base - 1)
    sk = -flip if T < 0 else flip
    return block, W if sk > 0 else -W, sk, abs(T), nxt


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
    """selector -> (block, gn, sk, m, next_phase) of each admissible selector
    at `phase`, in selector order: `_kind`'s runs, each read by `_block_map`.
    Refused past DEFAULT_CAP block digits, counted before any block is made,
    so no table grows without bound (S(s) writes s(s-1)/2 digits)."""
    _, digits, base, flip, nxt, pairs = _counted(fam, phase)  # MD and over DEFAULT_CAP selectors are refused first
    if digits > DEFAULT_CAP:
        raise CapExceededError(f"{fam.label()} blocks hold over {DEFAULT_CAP} digits, above the cap")
    return MappingProxyType({sel: _block_map(runs, base, nxt, flip) for sel, runs in pairs})


def _rank_maps(fam: FamilySpec, depth: int, phase: int = 0) -> Iterator[Mapping[object, DigitMap]]:
    """The `digit_maps` table of each of the `depth` ranks below a cylinder at
    `phase`: every map at a phase leads to the same next phase."""
    for _ in range(depth):
        maps = digit_maps(fam, phase)
        yield maps
        phase = next(iter(maps.values()))[4]


def _inadmissible(fam: FamilySpec, sel) -> FamilyConstraintError:
    return FamilyConstraintError(f"selector {sel!r} not admissible in {fam.label()}")


def _walk(fam: FamilySpec, sels: Sequence, phase: int = 0) -> Iterator[DigitMap]:
    """The digit map of each selector of `sels`, read from `phase` on;
    raises at the first selector not admissible at the phase it is read in."""
    for sel in sels:
        if fam.kind == "MD":  # a map for every odd gap, too many for a table
            gap, eps = _md_pair(fam, sel)
            dmap = _block_map(((0, gap - 1), (eps, 1)), -fam.s, 0)
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
    block read at a phase leads to its map's next phase (a Cantor series'
    phase is its level).  Any parse counts, since the families are defined
    by digit appearance rather than unique decodability.
    """
    seq = DigitString(fam.s, digits).digits  # refuses a digit outside base s
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


def address_frame(fam: FamilySpec, addr) -> Frame:
    """(V, den, sign, phase) of `addr`: its cylinder is the image of the
    set at `phase` under x -> (V + sign * x)/den."""
    return _fold(fam, addr, ROOT_FRAME)


def eval_family_point(fam: FamilySpec, alphas, tail: Sequence = ()) -> Fraction:
    """Exact partial-sum value of the family's series for a finite selector
    prefix, closed by a periodic selector tail, else by u written forever in
    the kind's radix (u = 0 but in Su and NSu)."""
    V, den, sign, phase = address_frame(fam, alphas)
    if tail:
        tv, td, tk, end = _fold(fam, tail, (0, 1, 1, phase))
        if end != phase:
            msg = f"a periodic tail must return to the phase it starts at ({phase}); it ends at {end}"
            raise FamilyConstraintError(msg)
    elif fam.u:  # no kind with a u flips its runs
        _, tv, tk, td, _ = _block_map(((fam.u, 1),), _kind(fam, phase)[2], phase)
    else:
        return Fraction(V, den)
    # the tail's own map x -> (tv + tk*x)/td fixes tv/(td - tk)
    return Fraction(V * (td - tk) + sign * tv, den * (td - tk))


def expand_address(fam: FamilySpec, addr) -> DigitString:
    """The full digit string an address fixes in the family's expansion."""
    if fam.kind == "Cantor":
        raise UnsupportedFamilyError("Cantor addresses have no single-base digit form")
    out: list[int] = []
    for block, *_ in _walk(fam, addr):
        out.extend(block)
    return DigitString(fam.s, tuple(out))
