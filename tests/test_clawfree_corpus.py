"""Pinned witnesses of every case of the benchmark's ``clawfree`` workload.

The cases of seeds 301-303 (line graphs of cyclic, path and tree preimages,
exhaustive and seeded random colorings) are rebuilt with
``perfbench/workloads.py``, which is imported and never changed, and every
solve must give the answer recorded in ``clawfree_witnesses.json``,
occurrence for occurrence.  A solve that raises ``SizeCapError`` is pinned
as that class name: the path and tree hosts above the independence-number
cap do so today, and lifting that cap is meant to change exactly those rows.

The file was recorded before the embedding search drew its candidates from
anchored lists.  Rewrite it only for an intended witness change:

    PYTHONPATH=src python tests/test_clawfree_corpus.py
"""

import json
import os
import random
import sys

from igmatch.errors import SizeCapError

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "clawfree_witnesses.json")
SEEDS = (301, 302, 303)


def _clawfree_cases(seed):
    bench = os.path.join(os.path.dirname(HERE), "perfbench")
    if bench not in sys.path:
        sys.path.append(bench)
    import workloads

    return workloads.clawfree(random.Random(seed))


def _witnesses(seed):
    rows = []
    for case in _clawfree_cases(seed):
        try:
            found = case.solve(None)
        except SizeCapError:
            rows.append([case.label, "SizeCapError"])
            continue
        rows.append([case.label, None if found is None
                     else [list(o.vertices) for o in found.occurrences]])
    return rows


def test_clawfree_workload_witnesses_are_pinned():
    with open(FIXTURE) as f:
        pinned = json.load(f)
    assert sorted(pinned) == [str(s) for s in SEEDS]
    for seed in SEEDS:
        want = pinned[str(seed)]
        got = _witnesses(seed)
        assert len(got) == len(want) == 104
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, (seed, i)


if __name__ == "__main__":
    with open(FIXTURE, "w") as f:
        f.write("{\n")
        for n, seed in enumerate(SEEDS):
            f.write(f'"{seed}": [\n')
            rows = _witnesses(seed)
            f.write(",\n".join(json.dumps(r) for r in rows))
            f.write("\n]" + (",\n" if n + 1 < len(SEEDS) else "\n"))
        f.write("}\n")
