"""The cylinder walks build no `Fraction` per node.

`verify_family` and the box-count walk step on integer frames and integer
closed forms and build `Fraction`s only for their per-walk constants, per
depth or per scale results, and failure text.  Counting every `Fraction`
construction pins that down without timing anything: the count must not
grow with the number of nodes a walk visits.
"""

from fractions import Fraction

import cantorkit.boxcount as bc
import cantorkit.cylinders as cyl
import cantorkit.families as families
from cantorkit import box_dimension, parse_family, verify_family


def _fractions_built(monkeypatch, run) -> int:
    """`Fraction`s constructed by run(), from cold caches."""
    caches = (cyl._local_hulls, cyl._oracle_local, cyl._phase_maps, families.digit_maps, families.family_blocks)
    for cache in caches:
        cache.cache_clear()
    count = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        run()
    return count


def test_verify_builds_no_fraction_per_node(monkeypatch):
    fam = parse_family("S(s=3)")
    # 2 run digits: 31 addresses at depth 4, 2047 at depth 10; only the
    # covering law and the oracle, each some levels past the depth, add
    # per-depth Fractions
    shallow = _fractions_built(monkeypatch, lambda: verify_family(fam, depth=4))
    deep = _fractions_built(monkeypatch, lambda: verify_family(fam, depth=10))
    assert deep - shallow < (2047 - 31) // 10, (shallow, deep)


def test_box_count_builds_no_fraction_per_node(monkeypatch):
    fam = parse_family("Tilde(s=3)")
    visits = []

    def box(n_hi):
        nodes = 1

        def counted_children(fam, frame):
            nonlocal nodes
            for child in families.child_frames(fam, frame):
                nodes += 1
                yield child

        with monkeypatch.context() as patch:
            patch.setattr(bc, "child_frames", counted_children)
            built = _fractions_built(monkeypatch, lambda: box_dimension(fam, 2, n_hi))
        visits.append(nodes)
        return built

    coarse, fine = box(7), box(9)
    assert fine - coarse < (visits[1] - visits[0]) // 10, (coarse, fine, visits)
