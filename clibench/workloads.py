"""The four benchmark workloads: fixed op lists plus the seeded `query` draw.

An op is one `cantorkit` CLI command, run in a fresh child process.  Its work
units make ops of different sizes comparable:

* `verify`: cylinders checked, sum of b^r for r <= depth (b = run digits);
* `cover`: cylinders summed, sum of b^d for d <= depth (b = selectors per level);
* `boxcount`: occupied boxes, the sum of N(eps) over the op's scales, read
  from the op's checked output;
* `query`: one unit per op.

The op lists are fixed because they set the work size.  The seed only
permutes op order and picks one input per `query` slot; every candidate in a
slot costs about the same, so the draw does not move the work per run.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    #: fixed work units; None for `boxcount`, whose units come from its output
    units: int | None = 1

    @property
    def key(self) -> str:
        return shlex.join(self.argv)


def tree_size(branching: int, depth: int) -> int:
    """Nodes of a uniform tree with `branching` children per node, ranks 0..depth."""
    return sum(branching**r for r in range(depth + 1))


def _verify(family: str, branching: int, depth: int | None = None) -> Op:
    # the CLI's default --depth is 8
    argv = ("verify", family) if depth is None else ("verify", family, "--depth", str(depth))
    return Op(argv, tree_size(branching, 8 if depth is None else depth))


def _cover(family: str, branching: int, depth: int) -> Op:
    return Op(("cover", family, "--depth", str(depth)), tree_size(branching, depth))


VERIFY = (
    _verify("S(s=3)", 2),
    _verify("Su(s=5,u=2)", 3, 5),
    _verify("Sminus(s=4)", 3, 5),
    _verify("NSu(s=4,u=0)", 3, 5),
    _verify("S(s=5)", 4, 3),
    # exits 1 at the default flags (oracle cap); kept so the defect shows
    _verify("S(s=4)", 3),
)

BOXCOUNT = (
    Op(("boxcount", "Tilde(s=4)"), None),
    Op(("boxcount", "S(s=3)"), None),
    Op(("boxcount", "Blocks(s=3,B=[0 2;1])"), None),
    Op(("boxcount", "MDper(s=3,m=[3,5])"), None),
    Op(("boxcount", "Su(s=5,u=2)", "--scales", "3:7"), None),
)

COVER = (
    _cover("S(s=4)", 3, 10),
    _cover("Su(s=5,u=2)", 3, 8),
    _cover("MDper(s=3,m=[3,5])", 3, 8),
    # Tilde(s=4) has 7 blocks
    _cover("Tilde(s=4)", 7, 3),
)

#: one op is drawn from each slot; candidates in a slot cost about the same
QUERY_SLOTS: tuple[tuple[tuple[str, ...], ...], ...] = (
    (("dim", "S(s=3)"), ("dim", "S(s=4)"), ("dim", "S(s=5)"), ("dim", "S(s=7)")),
    (("dim", "Su(s=5,u=2)"), ("dim", "Su(s=6,u=3)"), ("dim", "Su(s=4,u=1)"), ("dim", "Su(s=7,u=4)")),
    (("dim", "NSu(s=5,u=2)"), ("dim", "NSu(s=4,u=0)"), ("dim", "NSu(s=6,u=1)")),
    (("dim", "Sminus(s=3)"), ("dim", "Sminus(s=5)"), ("dim", "Sminus(s=6)")),
    (("dim", "Tilde(s=3)"), ("dim", "Tilde(s=4)"), ("dim", "Tilde(s=5)")),
    (("dim", "MD(s=2)"), ("dim", "MD(s=3)"), ("dim", "MD(s=4)")),
    (("dim", "MDper(s=3,m=[3,5])"), ("dim", "MDper(s=2,m=[3])"), ("dim", "MDper(s=4,m=[5,3,7])")),
    (("dim", "Blocks(s=3,B=[0 2;1])"), ("dim", "Blocks(s=3,B=[0;2])"), ("dim", "Blocks(s=4,B=[1 3;2;0 0 1])")),
    # the two liminf estimates dominate the workload's compute, so each slot
    # holds bases of similar cost
    (
        ("dim", "Cantor(d=[3],I=[{0,2}])"),
        ("dim", "Cantor(d=[4,5],I=[{0,3},{1,2,4}])"),
        ("dim", "Cantor(d=[3,4,5],I=[{0,2},{1,3},{0,4}])"),
    ),
    (
        ("dim", "Cantor(d=[2,3],I=[{0,1},{0,2}])"),
        ("dim", "Cantor(d=[5],I=[{0,2,4}])"),
        ("dim", "Cantor(d=[6],I=[{1,4}])"),
    ),
    (("blocks", "Tilde(s=4)"), ("blocks", "Tilde(s=5)"), ("blocks", "Su(s=5,u=2)"), ("blocks", "Blocks(s=3,B=[0 2;1])")),
    (
        ("eval", "Cantor(d=[3],I=[{0,2}])", "--alphas", "2,0,2"),
        ("eval", "Cantor(d=[2,3],I=[{0,1},{0,2}])", "--alphas", "1,2,0,0"),
        ("eval", "Cantor(d=[5],I=[{0,2,4}])", "--alphas", "4,2,0,2"),
    ),
    (
        ("eval", "MD(s=2)", "--alphas", "3:1,5:1"),
        ("eval", "MD(s=3)", "--alphas", "3:2,3:1,7:2"),
        ("eval", "MD(s=2)", "--alphas", "5:1,3:1,3:1"),
    ),
    (
        ("eval", "S(s=3)", "--alphas", "", "--tail", "2"),
        ("eval", "Sminus(s=3)", "--alphas", "2,1", "--tail", "1"),
        ("eval", "Su(s=5,u=2)", "--alphas", "3", "--tail", "1,4"),
        ("eval", "MDper(s=3,m=[3,5])", "--alphas", "2,1", "--tail", "1,2"),
    ),
    # sadic -> negasadic: every value lies inside the nega-s-adic range
    # [-s/(s+1), 1/(s+1)]
    (
        ("convert", "--base", "3", "--digits", "0,2", "--target", "negasadic"),
        ("convert", "--base", "4", "--digits", "0,1,3", "--target", "negasadic", "--length", "10"),
        ("convert", "--base", "5", "--digits", "0,0,4,1", "--target", "negasadic", "--length", "12"),
    ),
    # negasadic -> sadic: every value lies inside [0, 1)
    (
        ("convert", "--base", "3", "--digits", "0,2", "--source", "negasadic", "--target", "sadic"),
        ("convert", "--base", "3", "--digits", "0,1,0,2", "--source", "negasadic", "--target", "sadic", "--length", "10"),
        ("convert", "--base", "6", "--digits", "0,5,1,3", "--source", "negasadic", "--target", "sadic", "--length", "12"),
    ),
    (
        ("cylinder", "S(s=3)", "--addr", "1", "--child", "1"),
        ("cylinder", "Su(s=5,u=2)", "--addr", "3,1"),
        ("cylinder", "Sminus(s=4)", "--addr", "2", "--child", "1"),
    ),
    (
        ("cylinder", "Tilde(s=4)", "--addr", "1,2"),
        ("cylinder", "MDper(s=3,m=[3,5])", "--addr", "2,0", "--child", "1"),
        ("cylinder", "Blocks(s=3,B=[0 2;1])", "--addr", "0,1"),
    ),
    (
        ("enumerate", "Su(s=5,u=2)", "--depth", "2"),
        ("enumerate", "S(s=4)", "--depth", "3"),
        ("enumerate", "Blocks(s=3,B=[0 2;1])", "--depth", "4"),
    ),
)

WORKLOADS = ("verify", "boxcount", "cover", "query")


def workload_ops(name: str, rng: random.Random) -> list[Op]:
    """The op list of one workload; `query` draws one candidate per slot."""
    if name == "verify":
        return list(VERIFY)
    if name == "boxcount":
        return list(BOXCOUNT)
    if name == "cover":
        return list(COVER)
    if name == "query":
        return [Op(rng.choice(slot)) for slot in QUERY_SLOTS]
    raise ValueError(f"unknown workload {name!r}")


def all_ops() -> list[Op]:
    """Every op any seed can run, for recording expectations."""
    query = [Op(argv) for slot in QUERY_SLOTS for argv in slot]
    return [*VERIFY, *BOXCOUNT, *COVER, *query]
