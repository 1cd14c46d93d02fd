import random

import pytest

from perfbench.ops import WORKLOADS, rounds_for
from perfbench.stats import TAIL_BEYOND, flat_at, median_ranks, tail


@pytest.mark.parametrize("n", [11, 12, 26, 33, 50, 99, 1000])
def test_tail_has_ten_samples_beyond(n):
    rng = random.Random(n)
    values = [rng.random() for _ in range(n)]
    percentile, value, rank = tail(values)
    assert sum(1 for v in values if v > value) >= TAIL_BEYOND
    assert n - 1 - rank == TAIL_BEYOND
    assert percentile == pytest.approx(100 * (rank + 1) / n)


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_pass_has_a_tail(name):
    workload = WORKLOADS[name]
    # The smallest pass a run makes: a traced run's half of min_rounds.
    assert len(workload.grammars) * workload.min_rounds >= TAIL_BEYOND + 1
    assert len(workload.grammars) * rounds_for(workload, 0) >= TAIL_BEYOND + 1


def test_median_ranks():
    assert median_ranks(5) == (2,)
    assert median_ranks(6) == (2, 3)


def test_flat_at_detects_a_step_between_plateaus():
    # Ten samples: the median averages the top of one plateau and the
    # bottom of the next.
    values = [1.0] * 5 + [2.0] * 5
    assert not flat_at(values, median_ranks(len(values)))
    # Eleven: the median rank and both its neighbours sit on the low plateau.
    values = [1.0, 1.02, 1.03, 1.05, 1.06, 1.08, 1.09] + [2.0] * 4
    assert flat_at(values, median_ranks(len(values)))
