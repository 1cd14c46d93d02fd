from collections import Counter

from perfbench.ops import EXCLUDED, WORKLOADS, op_sequence, rounds_for


def test_same_seed_same_sequence():
    grammars = WORKLOADS["search-bound"].grammars
    assert op_sequence(grammars, 7, 5) == op_sequence(grammars, 7, 5)
    assert op_sequence(grammars, 7, 5) != op_sequence(grammars, 8, 5)


def test_every_round_has_each_grammar_once():
    grammars = WORKLOADS["bv10-cold"].grammars
    sequence = op_sequence(grammars, 3, 4)
    for start in range(0, len(sequence), len(grammars)):
        assert Counter(sequence[start : start + len(grammars)]) == Counter(grammars)


def test_no_grammar_repeats_across_a_round_boundary():
    grammars = WORKLOADS["service-closed"].grammars
    for seed in range(50):
        sequence = op_sequence(grammars, seed, 6)
        assert all(a != b for a, b in zip(sequence, sequence[1:]))


def test_rounds_follow_seconds_not_the_clock():
    workload = WORKLOADS["cli-warm"]
    assert rounds_for(workload, 0.0) == workload.min_rounds
    assert rounds_for(workload, 100 * workload.nominal_round_s) == 100


def test_excluded_grammars_are_in_no_workload():
    for workload in WORKLOADS.values():
        assert not set(workload.grammars) & set(EXCLUDED)
