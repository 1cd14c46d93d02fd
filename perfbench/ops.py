"""Workload definitions and seeded operation sequences.

Each operation analyses one corpus grammar. A run is a whole number of
*rounds*; every round is a seeded shuffle of the workload's grammars,
so every seed gives every grammar the same share of the samples and
only the order moves. (With independent draws, a percentile whose rank
sits between two grammar-cost plateaus flips from run to run.)

The number of rounds is fixed by ``--seconds`` and the workload's
nominal round cost in reference seconds (see :mod:`perfbench.probe`),
never by the wall clock, so the work of a run does not depend on how
fast the machine happens to be while it runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    grammars: tuple[str, ...]
    #: Reference seconds one round of untraced operations takes.
    nominal_round_s: float
    #: Floor on the rounds of one pass, so the latency tail always has
    #: at least ten samples beyond it.
    min_rounds: int
    why: str


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="search-bound",
            grammars=(
                "figure1", "figure3", "xi", "stackexc01", "stackovf01",
                "stackovf02", "stackovf07", "stackovf10", "SQL.1", "SQL.5",
                # An eleventh grammar makes the count odd, so the median
                # rank falls inside one grammar's plateau, not on the step
                # between the fifth and sixth costliest.
                "stackovf04",
            ),
            nominal_round_s=2.5,
            min_rounds=3,
            why=(
                "in-process build+explain where the unifying search is most "
                "of each op and LALR construction under a tenth"
            ),
        ),
        Workload(
            name="bv10-cold",
            grammars=(
                "C.1", "C.2", "C.3", "C.5", "Java.3", "Java.5", "Pascal.2",
                "Pascal.3", "Pascal.4", "Pascal.5", "SQL.2", "SQL.3", "SQL.4",
            ),
            nominal_round_s=4.0,
            min_rounds=2,
            why=(
                "in-process first --cache-dir --ambiguity run on an empty "
                "cache: LALR build, cache encode+write, LASG and SR walk"
            ),
        ),
        Workload(
            name="cli-warm",
            grammars=(
                "C.1", "C.5", "Java.5", "Pascal.3", "Pascal.5", "SQL.2",
                "SQL.3", "figure7", "abcd", "simp2", "eqn", "stackovf03",
                "stackovf05", "stackovf08", "nonlalr01", "nonlalr03-genuine",
                "clean-json",
            ),
            nominal_round_s=2.75,
            min_rounds=2,
            why=(
                "one CLI process per op on a warm cache: interpreter start, "
                "imports and the cache read side, no build or long search"
            ),
        ),
        Workload(
            name="service-closed",
            grammars=(
                "SQL.2", "SQL.4", "Pascal.2", "Pascal.4", "C.1", "C.5",
                "figure7", "simp2", "eqn", "stackovf07", "abcd",
            ),
            nominal_round_s=1.3,
            min_rounds=3,
            why=(
                "two closed-loop HTTP clients in lockstep against serve "
                "--workers 1: admission, queue, fork-per-attempt supervision, "
                "journal"
            ),
        ),
    )
}

#: Corpus grammars left out of every workload, with the reason. Their
#: outcome still depends on wall-clock search budgets, so a slow moment
#: of the machine would change the report (and fail the outcome check)
#: rather than just the timing.
EXCLUDED: dict[str, str] = {
    "C.4": "the unifying search times out (paper: T/L); verdict is budget-bound",
    "Java.2": "nullable-modifier explosion; the cumulative 120 s budget runs out",
    "Java.4": "mixed unifying/nonunifying/time-limit conflicts; split is budget-bound",
    "Pascal.1": "3-5 unifying / 2-4 timed out depending on machine speed",
    "java-ext1": "search times out on every conflict (T/L)",
    "java-ext2": "search times out on every conflict (T/L)",
}


def rounds_for(workload: Workload, seconds: float) -> int:
    """Rounds of one pass that take about *seconds* reference seconds."""
    return max(workload.min_rounds, round(seconds / workload.nominal_round_s))


def op_sequence(grammars: tuple[str, ...] | list[str], seed: int, rounds: int) -> list[str]:
    """The grammar of every operation: *rounds* seeded shuffles of *grammars*.

    Consecutive rounds never repeat a grammar across their boundary, so
    two closed-loop clients working through the sequence never hold the
    same grammar at once (the service would coalesce the two requests).
    """
    rng = random.Random(seed)
    sequence: list[str] = []
    for _ in range(rounds):
        order = list(grammars)
        rng.shuffle(order)
        if sequence and len(order) > 1 and order[0] == sequence[-1]:
            order.append(order.pop(0))
        sequence.extend(order)
    return sequence
