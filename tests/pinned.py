"""Digests of outputs that earlier versions of the package produced.

A refactor that must not change an output keeps the test's inputs and pins
the output by digest: ``reference_digests.json`` maps each test name to its
input groups (a structure, pattern or seed each), and each group to the
sha256 of the outputs the test computes on it, in case order.  A failure
names the groups whose outputs moved.  To pin an output before replacing
the code that makes it, run that code on the test's inputs, group its
outputs as the test will, and record ``digest`` of each group.

``canonical`` turns an output into nested tuples of ints, strings, bools and
None: lists become tuples, sets are sorted (their members must compare),
dicts become their sorted items, and the package's value types become their
fields.  It never reads ``hash()`` or the iteration order of a set or dict,
so a digest is the same on every supported interpreter.
"""

import functools
import hashlib
import json
import os

from igmatch.color_coding import Base, BaseEdge
from igmatch.graphs import Matching, Occurrence

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_digests.json")
_ATOMS = (type(None), bool, int, str)


def canonical(x):
    """``x`` as nested tuples of ints, strings, bools and None."""
    kind = type(x)
    if kind in _ATOMS:
        return x
    if kind is tuple or kind is list:
        return tuple(map(canonical, x))
    if kind is set or kind is frozenset:
        return tuple(sorted(map(canonical, x)))
    if kind is dict:
        return tuple(sorted(zip(map(canonical, x), map(canonical, x.values()))))
    if kind is Occurrence:
        return x.vertices
    if kind is Matching:
        return canonical(x.occurrences)
    if kind is Base:
        return (x.n_vertices, canonical(x.edges))
    if kind is BaseEdge:
        return (x.kind, x.members, x.spot_token, canonical(x.interior),
                canonical(x.boundaries))
    if isinstance(x, Exception):
        return (kind.__name__, str(x))
    raise TypeError(f"no canonical form for {kind.__name__}")


def digest(x) -> str:
    return hashlib.sha256(repr(canonical(x)).encode()).hexdigest()


@functools.cache
def _pinned() -> dict:
    with open(DIGESTS) as f:
        return json.load(f)


def assert_pinned(test: str, groups: dict) -> None:
    """The digest of each group's outputs is the one pinned for ``test``, and
    no group is missing or new."""
    want = _pinned()[test]
    got = {name: digest(outputs) for name, outputs in groups.items()}
    moved = [name for name in sorted(want.keys() | got.keys()) if got.get(name) != want.get(name)]
    assert not moved, f"{test}: the outputs of {moved} are not the pinned ones"
