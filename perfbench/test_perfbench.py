"""Tests of the benchmark's own arithmetic, generators and tracer.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from figures import covered, nearest_rank, self_times, tail_share  # noqa: E402
from spans import Tracer  # noqa: E402


def test_self_time_nested_children():
    spans = [(0.0, 10.0, None, 0.0),   # root
             (1.0, 4.0, 0, 0.0),       # child
             (2.0, 3.0, 1, 0.0),       # grandchild, inside the child
             (5.0, 9.0, 0, 1.5)]       # child with 1.5 s of counted calls
    assert self_times(spans) == [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0 - 1.5]


def test_self_time_back_to_back_and_overlapping_children():
    back_to_back = [(0.0, 10.0, None, 0.0), (1.0, 3.0, 0, 0.0),
                    (3.0, 6.0, 0, 0.0)]
    assert self_times(back_to_back)[0] == 5.0
    # overlapping or overhanging intervals are counted once, clipped
    assert covered([(1.0, 4.0), (2.0, 5.0), (5.0, 6.0)]) == 5.0
    overhang = [(0.0, 2.0, None, 0.0), (1.0, 3.0, 0, 0.0)]
    assert self_times(overhang)[0] == 1.0


@pytest.mark.parametrize("round_size, share", [(11, 1 / 11), (41, 31 / 41),
                                               (1000, 0.99)])
def test_tail_share_leaves_ten_beyond(round_size, share):
    assert tail_share(round_size) == pytest.approx(share)
    values = list(range(1, round_size + 1))
    assert nearest_rank(values, tail_share(round_size)) == round_size - 10
    # k rounds pooled keep the same percentile, with 10 k jobs beyond it
    for k in (2, 3, 7):
        pooled = values * k
        got = nearest_rank(pooled, tail_share(round_size))
        assert sum(v > got for v in pooled) >= 10 * k


def test_tail_share_needs_more_than_ten_jobs():
    with pytest.raises(ValueError):
        tail_share(10)


def test_nearest_rank_median_and_extremes():
    assert nearest_rank([3, 1, 2], 0.5) == 2
    assert nearest_rank([5, 4], 0.0) == 4
    assert nearest_rank([5, 4], 1.0) == 5


def _dump(jobs):
    return json.dumps([[j.id, j.command, j.input, j.flags, j.oracle]
                       for j in jobs], sort_keys=True, default=str)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_seeded(name):
    make = workloads.WORKLOADS[name]
    assert _dump(make(7)) == _dump(make(7))
    assert _dump(make(7)) != _dump(make(8))
    # the mix of commands and sizes does not depend on the seed
    shape = [sorted((j.group, j.size) for j in make(s))
             for s in (7, 8)]
    assert shape[0] == shape[1]
    assert len(make(7)) > 10


def test_symplectomorphisms_preserve_the_standard_form():
    import random

    rng = random.Random(3)
    for n in range(1, 5):
        j = workloads.standard_omega(n)
        for _ in range(5):
            m = workloads.symplectomorphism(rng, n)
            mt = [list(r) for r in zip(*m)]
            assert workloads.matmul(workloads.matmul(mt, j), m) == j


def test_oracle_rref_is_canonical():
    assert oracles.rref([[2, 4], [1, 2]]) == [[1, 2]]
    assert oracles.rref([[0, 1], [1, 1]]) == [[1, 0], [0, 1]]
    assert oracles.rank([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 2


def test_tracer_spans_and_restores():
    from bvkit import numkit, symplect

    original = numkit.rref
    tr = Tracer()
    tr.install()
    try:
        assert symplect.kernel is numkit.kernel is not original
        tr.job = "j"
        m = numkit.Matrix.from_rows([[1, 2], [2, 4]])
        assert numkit.rank(m) == 1
    finally:
        tr.uninstall()
    assert numkit.rref is original
    names = [s[0] for s in tr.spans]
    assert names == ["numkit.rank", "numkit.rref"]
    assert tr.spans[1][3] == 0 and tr.spans[1][4] == "j"
    fns = tr.functions()
    # from_rows runs twice (the input, then rref's result), each time
    # counting frac once per entry without timing it apart
    assert fns["numkit.Matrix.from_rows"][0] == 2
    assert fns["numkit.frac"] == [8, 0.0]
    assert tr.extra["numkit.rref.cells"] == 4
