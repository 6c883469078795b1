"""Query-loop behavior: determinism, progress, replay, oracles, protocol."""

from __future__ import annotations

import dataclasses
import io
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from splitfinder import engine, families
from splitfinder.core import validate_instance
from splitfinder.engine import (
    CostStats,
    InconsistentOracle,
    QueryBudgetExceeded,
    Step,
    gbs_tree,
    hypothesis_oracle,
    interactive_session,
    restrict,
    run_gbs,
)


def pair_instance():
    return validate_instance(
        {
            "tests": [{"id": "t"}],
            "hypotheses": [
                {"id": "a", "outcomes": "0"},
                {"id": "b", "outcomes": "1"},
            ],
        }
    )


class TestRunGbs:
    def test_every_oracle_is_identified(self, pentagon):
        for h in range(pentagon.n):
            tr = run_gbs(pentagon, hypothesis_oracle(pentagon, h), str(h))
            assert tr.identified == pentagon.hypothesis_ids[h]

    def test_some_pentagon_oracle_needs_exactly_four_queries(self, pentagon):
        counts = [
            run_gbs(pentagon, hypothesis_oracle(pentagon, h)).query_count
            for h in range(pentagon.n)
        ]
        assert min(counts) == 4

    def test_singleton_space_needs_no_queries(self):
        inst = validate_instance(
            {"tests": [{"id": "t"}], "hypotheses": [{"id": "only", "outcomes": "1"}]}
        )
        tr = run_gbs(inst, hypothesis_oracle(inst, 0))
        assert tr.query_count == 0
        assert tr.identified == "only"

    def test_box_d1r2_needs_at_most_three(self, box_d1r2):
        # Oracle: the exact optimal tree for this 5-hypothesis interval
        # family is depth 3, so the greedy runs must fit in 3 as well.
        rows = list(box_d1r2.rows)
        optimal = oracles.optimal_tree_depth(rows, frozenset(range(box_d1r2.n)))
        assert optimal == 3
        for h in range(box_d1r2.n):
            tr = run_gbs(box_d1r2, hypothesis_oracle(box_d1r2, h))
            assert tr.query_count <= 3

    def test_transcript_sizes_strictly_decrease(self, disjunction_d6m2):
        inst = disjunction_d6m2
        for h in (0, 7, 20):
            tr = run_gbs(inst, hypothesis_oracle(inst, h))
            sizes = [s.remaining for s in tr.steps]
            assert sizes[-1] == 1
            assert all(a > b for a, b in zip([inst.n] + sizes, sizes))

    def test_determinism_bit_identical(self, disjunction_d4m2):
        inst = disjunction_d4m2
        first = [run_gbs(inst, hypothesis_oracle(inst, h), "o") for h in range(inst.n)]
        second = [run_gbs(inst, hypothesis_oracle(inst, h), "o") for h in range(inst.n)]
        assert first == second

    def test_replay_reproduces_recorded_sizes(self, pentagon):
        outcomes = pentagon.outcomes
        for h in (0, 5, 13):
            tr = run_gbs(pentagon, hypothesis_oracle(pentagon, h))
            members = np.arange(pentagon.n)
            for step in tr.steps:
                members = restrict(outcomes, members, pentagon.test_index[step.test_id], step.outcome)
                assert members.size == step.remaining
            assert pentagon.hypothesis_ids[members[0]] == tr.identified

    def test_unsplittable_space_raises_budget_exceeded(self):
        # The tree's duplicate-row instance: after the first query, h1 and h2
        # remain and no test tells them apart.
        inst = duplicate_row_instance()
        with pytest.raises(QueryBudgetExceeded, match="no test splits a version space of 2"):
            run_gbs(inst, hypothesis_oracle(inst, 1))

    def test_any_answer_stream_identifies_something(self, disjunction_d4m2):
        # The greedy loop only asks tests that split the live version space,
        # so even adversarial answers can never empty it; they just converge
        # on some hypothesis.
        inst = disjunction_d4m2
        rng = random.Random(5)
        for _ in range(50):
            tr = run_gbs(inst, lambda _x: rng.randint(0, 1), "adversary")
            assert tr.identified in inst.hypothesis_index

    def test_non_binary_answer_rejected(self, disjunction_d4m2):
        with pytest.raises(InconsistentOracle, match="oracle answered 2, expected 0 or 1"):
            run_gbs(disjunction_d4m2, lambda _x: 2)

    @pytest.mark.parametrize("given", [1.7, "1", 0.2, None, 1.0])
    def test_answer_that_is_not_an_integer_is_rejected(self, given):
        # int() would have taken 1.7 and "1" as 1 and 0.2 as 0.
        inst = instance_of(["00", "01", "11"])
        with pytest.raises(InconsistentOracle, match=f"oracle answered {given!r}, expected 0 or 1"):
            run_gbs(inst, lambda _x: given)

    @pytest.mark.parametrize("yes", [True, np.int64(1), np.uint8(1), np.True_])
    def test_bool_and_numpy_answers_are_accepted(self, yes):
        inst = instance_of(["00", "01", "11"])
        no = type(yes)(0)
        assert run_gbs(inst, lambda _x: yes) == run_gbs(inst, lambda _x: 1)
        assert run_gbs(inst, lambda _x: no) == run_gbs(inst, lambda _x: 0)
        assert all(type(step.outcome) is int for step in run_gbs(inst, lambda _x: yes).steps)


class TestCostStats:
    def test_two_hypotheses_one_query(self):
        stats = gbs_tree(pair_instance())
        assert stats.worst_case == 1
        assert stats.average == 1

    def test_pentagon_sweep(self, pentagon):
        stats = gbs_tree(pentagon)
        assert set(stats.per_oracle) == set(pentagon.hypothesis_ids)
        assert stats.worst_case == max(stats.per_oracle.values())
        assert stats.average == Fraction(sum(stats.per_oracle.values()), pentagon.n)
        assert stats.average <= stats.worst_case

    def test_per_oracle_counts_are_the_loop_counts(self, disjunction_d6m2):
        inst = disjunction_d6m2
        stats = gbs_tree(inst)
        paths, least = oracles.greedy_tree(list(inst.rows))
        assert list(stats.per_oracle.values()) == [len(path) for path in paths]
        assert list(stats.per_oracle) == list(inst.hypothesis_ids)
        assert stats.min_chosen_split == least


def instance_of(rows):
    return validate_instance(
        {
            "tests": [{"id": f"t{x}"} for x in range(len(rows[0]))],
            "hypotheses": [{"id": f"h{i}", "outcomes": row} for i, row in enumerate(rows)],
        }
    )


def peel_instance(n):
    """Hypothesis i < n - 1 answers 1 only on test i; the last answers 0 everywhere.

    Every test splits off one hypothesis, so GBS peels them off one per query
    and the tree is n - 1 deep.
    """
    rows = ["".join("1" if x == i else "0" for x in range(n - 1)) for i in range(n)]
    return instance_of(rows)


def duplicate_row_instance():
    """h1 and h2 share a row: validation forbids that, so it is set directly."""
    outcomes = np.array([[0, 0], [1, 1], [1, 1]], dtype=bool)
    return dataclasses.replace(instance_of(["00", "01", "11"]), outcomes=outcomes)


def assert_matches_reference(inst):
    """`run_gbs` transcripts and `gbs_tree` equal the recursive string-oracle tree."""
    paths, least = oracles.greedy_tree(list(inst.rows))
    stats = gbs_tree(inst)
    assert tuple(stats.per_oracle.values()) == tuple(len(path) for path in paths)
    assert stats.min_chosen_split == least
    for h, path in enumerate(paths):
        transcript = run_gbs(inst, hypothesis_oracle(inst, h))
        assert transcript.steps == tuple(Step(inst.test_ids[x], y, left) for x, y, left in path)
        assert transcript.identified == inst.hypothesis_ids[h]


SMALL_FAMILY_INSTANCES = {
    "convex_polygon": lambda: families.gen_convex_polygon(7, balanced=False),
    "disjunction": lambda: families.gen_disjunction(5, 2),
    "monotone_cnf": lambda: families.gen_monotone_cnf(5, 2, 2),
    "box_localization": lambda: families.gen_box_localization((1, 2)),
    "shape_localization": lambda: families.gen_shape_localization(families.l1_ball_offsets(2, 2)),
    "discrete_linear": lambda: families.gen_discrete_linear(4, 3),
    "linear_kcase": lambda: families.gen_linear_kcase(4),
    "cx_disjunction": lambda: families.gen_counterexample_disjunction(4),
    "cx_plus": lambda: families.gen_counterexample_plus(2, 2),
}


@st.composite
def identifiable_instances(draw):
    m_tests = draw(st.integers(min_value=1, max_value=8))
    rows = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << m_tests) - 1),
            min_size=1,
            max_size=40,
            unique=True,
        )
    )
    return instance_of([format(value, f"0{m_tests}b") for value in rows])


@st.composite
def wide_instances(draw):
    """Up to 96 tests: far wider count rows than `identifiable_instances` gives."""
    m_tests = draw(st.integers(min_value=9, max_value=96))
    rows = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << m_tests) - 1),
            min_size=2,
            max_size=60,
            unique=True,
        )
    )
    return instance_of([format(value, f"0{m_tests}b") for value in rows])


def random_instance(n, m_tests=12):
    """n distinct seeded random rows: a tree of many nodes of many sizes."""
    rows = random.Random(n).sample(range(1 << m_tests), n)
    return instance_of([format(value, f"0{m_tests}b") for value in rows])


def complement(inst):
    """Every outcome flipped, which leaves every split and so the greedy tree as it was."""
    flip = str.maketrans("01", "10")
    return instance_of([row.translate(flip) for row in inst.rows])


def assert_outcomes_match_strings(inst):
    outcomes = inst.outcomes
    assert outcomes.dtype == bool and outcomes.flags.c_contiguous
    assert outcomes.tolist() == [[c == "1" for c in row] for row in inst.rows]


class TestOutcomeArray:
    @pytest.mark.parametrize("family", sorted(SMALL_FAMILY_INSTANCES))
    def test_matches_the_strings_on_every_family(self, family):
        assert_outcomes_match_strings(SMALL_FAMILY_INSTANCES[family]())

    @settings(max_examples=60, deadline=None)
    @given(identifiable_instances())
    def test_matches_the_strings_on_random_instances(self, inst):
        assert_outcomes_match_strings(inst)

    def test_is_read_only(self):
        inst = instance_of(["01", "10"])
        with pytest.raises(ValueError):
            inst.outcomes[0, 0] = True
        with pytest.raises(ValueError):
            inst.outcomes[:, 1] |= True
        assert inst.outcomes.tolist() == [[False, True], [True, False]]

    def test_two_generations_compare_equal(self):
        first, second = families.gen_disjunction(5, 2), families.gen_disjunction(5, 2)
        assert first.outcomes is not second.outcomes
        assert first == second
        assert first != families.gen_disjunction(5, 1)


class TestGbsTree:
    def test_covers_every_family(self):
        assert set(SMALL_FAMILY_INSTANCES) == set(families.FAMILIES)

    @pytest.mark.parametrize("family", sorted(SMALL_FAMILY_INSTANCES))
    def test_matches_the_loop_on_every_family(self, family):
        assert_matches_reference(SMALL_FAMILY_INSTANCES[family]())

    @settings(max_examples=80, deadline=None)
    @given(identifiable_instances())
    def test_matches_the_loop_on_random_instances(self, inst):
        assert_matches_reference(inst)

    @settings(max_examples=25, deadline=None)
    @given(wide_instances())
    def test_matches_the_loop_on_wide_random_instances(self, inst):
        assert_matches_reference(inst)

    @pytest.mark.parametrize("n", [255, 256, 257])
    def test_matches_the_loop_across_the_uint8_count_boundary(self, n):
        # Counts are uint8 up to n = 255 and uint16 past it.
        assert_matches_reference(random_instance(n))
        # Every root count of the flipped peel is n - 1, past uint8 at n = 257:
        # a count that wrapped to 0 there would leave no test that splits.
        peel = peel_instance(n)
        flipped = complement(peel)
        depths = tuple(range(1, n - 1)) + (n - 1, n - 1)
        expected = CostStats(dict(zip(peel.hypothesis_ids, depths)), Fraction(1, n))
        assert gbs_tree(flipped) == gbs_tree(peel) == expected
        assert run_gbs(flipped, hypothesis_oracle(flipped, n - 1)).query_count == n - 1

    def test_calls_the_greedy_step_once_per_depth(self, monkeypatch):
        calls = []
        step = engine.best_split_test

        def counted(ones, sizes):
            calls.append(len(sizes))
            return step(ones, sizes)

        monkeypatch.setattr(engine, "best_split_test", counted)
        stats = gbs_tree(peel_instance(70))
        assert len(calls) == stats.worst_case == 69
        assert calls == [1] * 69  # one live node per depth

    def test_disjunction_d12_m2_costs(self):
        # 4096 tests in uint8 counts; the entry point's check in CI pins the same figures.
        stats = gbs_tree(families.gen_disjunction(12, 2))
        assert (stats.worst_case, stats.average) == (7, Fraction(497, 78))

    def test_peel_deeper_than_62_levels(self):
        # Labels of the form 2 * parent + answer would overflow int64 here.
        inst = peel_instance(70)
        stats = gbs_tree(inst)
        assert max(stats.per_oracle.values()) == 69
        assert stats.min_chosen_split == Fraction(1, 70)
        assert_matches_reference(inst)

    def test_single_hypothesis_is_a_leaf_at_depth_zero(self):
        inst = instance_of(["1"])
        stats = gbs_tree(inst)
        assert stats == CostStats({"h0": 0}, None)
        assert (stats.worst_case, stats.average, stats.min_chosen_split) == (0, 0, None)

    def test_two_hypotheses(self):
        stats = gbs_tree(pair_instance())
        assert stats == CostStats({"a": 1, "b": 1}, Fraction(1, 2))

    def test_unsplittable_node_raises_budget_exceeded(self):
        # After the first split no test tells h1 and h2 apart.
        inst = duplicate_row_instance()
        with pytest.raises(QueryBudgetExceeded, match="no test splits a version space of 2"):
            gbs_tree(inst)


class TestInteractiveSession:
    def run_with_answers(self, instance, text):
        reader = io.StringIO(text)
        writer = io.StringIO()
        transcript = interactive_session(instance, reader, writer)
        return transcript, writer.getvalue()

    def test_matches_simulated_run(self, disjunction_d4m2):
        inst = disjunction_d4m2
        reference = run_gbs(inst, hypothesis_oracle(inst, 3), "interactive")
        answers = "".join(f"{s.outcome}\n" for s in reference.steps)
        transcript, output = self.run_with_answers(inst, answers)
        assert transcript == reference
        lines = output.strip().splitlines()
        assert lines[-1] == f"IDENTIFIED {reference.identified}"
        assert len([l for l in lines if l.startswith("QUERY ")]) == reference.query_count

    def test_malformed_answer_reprompts(self, disjunction_d4m2):
        inst = disjunction_d4m2
        reference = run_gbs(inst, hypothesis_oracle(inst, 0), "interactive")
        answers = "2\nmaybe\n" + "".join(f"{s.outcome}\n" for s in reference.steps)
        transcript, output = self.run_with_answers(inst, answers)
        assert transcript == reference
        queries = [l for l in output.splitlines() if l.startswith("QUERY ")]
        assert len(queries) == reference.query_count + 2  # two reprompts
        assert queries[0] == queries[1] == queries[2]

    def test_closed_channel_raises(self, disjunction_d4m2):
        with pytest.raises(InconsistentOracle, match="answer channel closed mid-session"):
            self.run_with_answers(disjunction_d4m2, "")

    def test_unsplittable_space_raises_like_run_gbs(self):
        # Validation forbids duplicate rows, so build the instance directly:
        # both hypotheses answer 0 everywhere and no query can tell them apart.
        inst = dataclasses.replace(pair_instance(), outcomes=np.zeros((2, 1), dtype=bool))
        with pytest.raises(QueryBudgetExceeded) as simulated:
            run_gbs(inst, lambda _x: 1)
        writer = io.StringIO()
        with pytest.raises(QueryBudgetExceeded) as interactive:
            interactive_session(inst, io.StringIO("1\n"), writer)
        assert str(simulated.value) == "no test splits a version space of 2 hypotheses"
        assert str(interactive.value) == str(simulated.value)
        assert writer.getvalue() == ""  # nothing was asked

    def test_query_lines_carry_metadata(self, box_d1r2):
        reference = run_gbs(box_d1r2, hypothesis_oracle(box_d1r2, 0), "interactive")
        answers = "".join(f"{s.outcome}\n" for s in reference.steps)
        _, output = self.run_with_answers(box_d1r2, answers)
        first = output.splitlines()[0]
        assert first.startswith("QUERY ")
        assert '"coords"' in first
