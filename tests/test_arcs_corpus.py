"""Pinned witnesses of every case of the benchmark's ``arcs`` workload.

The cases of seeds 301-303 (interval, long proper arc and fuzzy arc solves)
are rebuilt with ``perfbench/workloads.py``, which is imported and never
changed, and every solver's answer must equal the one recorded in
``arcs_witnesses.json``, occurrence for occurrence.

The file was recorded before the arc solvers stopped re-enumerating
occurrences per cut.  Rewrite it only for an intended witness change:

    PYTHONPATH=src python tests/test_arcs_corpus.py
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "arcs_witnesses.json")
SEEDS = (301, 302, 303)


def _arcs_cases(seed):
    bench = os.path.join(os.path.dirname(HERE), "perfbench")
    if bench not in sys.path:
        sys.path.append(bench)
    import workloads

    return workloads.arcs(random.Random(seed))


def _witnesses(seed):
    rows = []
    for case in _arcs_cases(seed):
        found = case.solve(None)
        rows.append([case.label, None if found is None
                     else [list(o.vertices) for o in found.occurrences]])
    return rows


def test_arcs_workload_witnesses_are_pinned():
    with open(FIXTURE) as f:
        pinned = json.load(f)
    assert sorted(pinned) == [str(s) for s in SEEDS]
    for seed in SEEDS:
        want = pinned[str(seed)]
        got = _witnesses(seed)
        assert len(got) == len(want) == 168
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
