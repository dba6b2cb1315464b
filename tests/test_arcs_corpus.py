"""Pinned witnesses of every case of the benchmark's ``arcs`` workload.

The cases of seeds 301-303 (interval, long proper arc and fuzzy arc solves)
are rebuilt with ``perfbench/workloads.py``, which is imported and never
changed, and every solver's answer must equal the one recorded in
``arcs_witnesses.json``, occurrence for occurrence.
Two seed-301 long-arc solves also pin the work of a cut sweep: a no-instance
refuted by the circular count before any cut, and a yes-instance that builds
one cut model.

The file was recorded before the arc solvers stopped re-enumerating
occurrences per cut.  Rewrite it only for an intended witness change:

    PYTHONPATH=src:perfbench python tests/test_arcs_corpus.py
"""

import functools
import json
import os
import random

import igmatch.graphs as graphs
import igmatch.interval_solvers as interval_solvers
from igmatch.graphs import Occurrence

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "arcs_witnesses.json")
SEEDS = (301, 302, 303)


@functools.lru_cache(maxsize=None)
def _arcs_cases(seed):
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


def _count_calls(monkeypatch, case, names):
    counts = dict.fromkeys(names, 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(interval_solvers, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(interval_solvers, name, counted)
    for _ in range(2):
        found = case.solve(None)
        assert (found is not None) == case.expected
    return counts


def test_long_arc_no_instance_builds_no_occurrence_per_cut(monkeypatch):
    # the first long-arc P3 no-instance of seed 301: the per-cut
    # renumbering built 4,138 occurrences, one per kept occurrence per cut,
    # where the host's one class table builds none; the table's circular
    # count stays below k, so no cut is swept and no cut model is built
    case = next(c for c in _arcs_cases(301) if c.label == "long-arc-P3" and not c.expected)
    counts = _count_calls(monkeypatch, case, ("Occurrence", "_cut_solve", "cut_at_point"))
    assert counts == {"Occurrence": 0, "_cut_solve": 0, "cut_at_point": 0}


def test_yes_instances_build_an_occurrence_per_witness_member_only(monkeypatch):
    # the class tables hold the occurrence search's maps, so the first
    # seed-301 yes-instance of each family builds its k witness occurrences
    # per solve and no other, where one per occurrence of the host built 264
    # (long-arc P3) and 134 (interval P3)
    searched = []
    monkeypatch.setattr(graphs, "Occurrence", lambda *a: searched.append(a) or Occurrence(*a))
    built = {}
    for label in ("long-arc-P3", "long-arc-K2", "interval-P3"):
        case = next(c for c in _arcs_cases(301) if c.label == label and c.expected)
        k = case.solve(None).size()
        built[label] = (k, _count_calls(monkeypatch, case, ("Occurrence",))["Occurrence"])
    assert built == {"long-arc-P3": (1, 2), "long-arc-K2": (3, 6), "interval-P3": (8, 16)}
    assert not searched


def test_long_arc_yes_instance_builds_one_cut_model(monkeypatch):
    # only the cut whose count reaches k is unrolled and solved
    case = next(c for c in _arcs_cases(301) if c.label == "long-arc-P3" and c.expected)
    counts = _count_calls(monkeypatch, case, ("cut_at_point", "interval_wis"))
    assert counts == {"cut_at_point": 2, "interval_wis": 2}


if __name__ == "__main__":
    with open(FIXTURE, "w") as f:
        f.write("{\n")
        for n, seed in enumerate(SEEDS):
            f.write(f'"{seed}": [\n')
            rows = _witnesses(seed)
            f.write(",\n".join(json.dumps(r) for r in rows))
            f.write("\n]" + (",\n" if n + 1 < len(SEEDS) else "\n"))
        f.write("}\n")
