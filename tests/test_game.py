"""Coherence game: integer solver parity, dominance reduction, dual check."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import oracles
from splitfinder import analysis, families
from splitfinder._simplex import matrix_game_value
from splitfinder.analysis import _best_test_score, _minimal_masks, coherence
from splitfinder.core import validate_instance

ENTRIES = {
    "binary": lambda rng: rng.randint(0, 1),
    "small-int": lambda rng: rng.randint(0, 4),
    "negative": lambda rng: rng.randint(-6, 6),
    "rational": lambda rng: Fraction(rng.randint(-7, 7), rng.randint(1, 6)),
    "huge": lambda rng: rng.randint(-(10**30), 10**30),
}


def assert_optimal(matrix, value, strategy, mix):
    """Both strategies are distributions that hold the value from their side."""
    for dist in (strategy, mix):
        assert all(w >= 0 for w in dist) and sum(dist) == 1
    columns = list(zip(*matrix))
    assert min(sum(p * a for p, a in zip(strategy, col)) for col in columns) == value
    assert max(sum(q * a for q, a in zip(mix, row)) for row in matrix) == value


def solve_and_compare(matrix):
    value, strategy, mix = matrix_game_value(matrix)
    assert (value, strategy) == oracles.fraction_matrix_game_value(matrix)
    assert_optimal(matrix, value, strategy, mix)
    return value, strategy, mix


class TestIntegerSolver:
    @pytest.mark.parametrize("kind", ENTRIES)
    def test_matches_fraction_reference_on_random_games(self, kind):
        rng = random.Random(f"game-{kind}")
        for _ in range(80):
            rows, cols = rng.randint(1, 7), rng.randint(1, 9)
            solve_and_compare([[ENTRIES[kind](rng) for _ in range(cols)] for _ in range(rows)])

    @pytest.mark.parametrize(
        "matrix",
        [
            [[3]],
            [[Fraction(-5, 3)]],
            [[2, -1, 0, 7]],
            [[1], [-2], [Fraction(1, 2)]],
            [[1, 1], [1, 1]],
            [[0, 0, 0], [0, 0, 0]],
            [[1, 0], [1, 0], [0, 1], [0, 1]],
            [[1, 0, 0], [0, 1, 1], [0, 1, 1]],
            [[1, -1], [-1, 1]],
            [[0, 1, -1], [-1, 0, 1], [1, -1, 0]],
        ],
        ids=["1x1", "1x1-rational", "single-row", "single-column", "constant",
             "all-zero", "tied-rows", "tied-columns", "matching-pennies",
             "rock-paper-scissors"],
    )
    def test_small_and_tied_games(self, matrix):
        solve_and_compare(matrix)

    def test_known_values(self):
        value, strategy, mix = solve_and_compare([[1, -1], [-1, 1]])
        assert value == 0 and strategy == mix == [Fraction(1, 2)] * 2
        value, strategy, _ = solve_and_compare([[2, -1, 0, 7]])
        assert value == -1 and strategy == [1]
        value, strategy, mix = solve_and_compare([[1], [-2], [Fraction(1, 2)]])
        assert value == 1 and strategy == [1, 0, 0] and mix == [1]

    def test_rejects_ragged_or_empty_games(self):
        for matrix in ([], [[]], [[1, 2], [3]]):
            with pytest.raises(ValueError):
                matrix_game_value(matrix)


def random_instance(rng: random.Random, m: int, n: int):
    """n distinct hypotheses over m tests; may or may not reach the game."""
    rows = rng.sample(range(1 << m), n)
    return validate_instance({
        "tests": [{"id": f"t{x}"} for x in range(m)],
        "hypotheses": [
            {"id": f"h{h}", "outcomes": "".join(str((r >> x) & 1) for x in range(m))}
            for h, r in enumerate(rows)
        ],
    })


def reaches_game(instance) -> bool:
    """False when an all-0 and an all-1 test settle coherence at 1/2."""
    columns = oracles.columns_of(instance)
    return not ((1 << instance.n) - 1 in columns and 0 in columns)


def family_instances():
    yield from (families.gen_convex_polygon(m, balanced) for m in range(3, 13) for balanced in (False, True))
    for d, r in ((3, 3), (4, 3), (4, 4), (5, 2)):
        yield families.gen_discrete_linear(d, r)


def random_instances():
    rng = random.Random("coherence-sweep")
    for _ in range(40):
        m = rng.randint(2, 7)
        yield random_instance(rng, m, rng.randint(2, min(12, 1 << m)))


def capture_games(monkeypatch) -> list:
    games = []

    def recording(matrix):
        games.append(matrix)
        return matrix_game_value(matrix)

    monkeypatch.setattr(analysis, "matrix_game_value", recording)
    return games


class TestDominanceReduction:
    def test_minimal_masks_form_a_covering_antichain_in_input_order(self):
        rng = random.Random("antichain")
        for _ in range(200):
            width = rng.randint(1, 8)
            masks = rng.sample(range(1 << width), rng.randint(1, min(30, 1 << width)))
            kept = _minimal_masks(masks)
            assert kept == [m for m in masks if m in set(kept)]
            for a, b in itertools.permutations(kept, 2):
                assert a & b != a
            for mask in masks:
                assert any(k & mask == k for k in kept)

    def assert_kept_columns_are_an_antichain(self, matrix):
        kept = [frozenset(i for i, v in enumerate(col) if v) for col in zip(*matrix)]
        for a, b in itertools.permutations(kept, 2):
            assert not a <= b

    def test_family_certificates_equal_the_unreduced_fraction_game(self, monkeypatch):
        games = capture_games(monkeypatch)
        for instance in family_instances():
            assert reaches_game(instance)
            cert = coherence(instance)
            rows = [h.outcomes for h in instance.hypotheses]
            assert (cert.value, dict(cert.distribution)) == oracles.unreduced_coherence(rows)
            self.assert_kept_columns_are_an_antichain(games[-1])
        assert len(games) == 24

    def test_random_instances_keep_the_unreduced_game_value(self, monkeypatch):
        # With several optimal test distributions the reduced game may pivot
        # to another one; the value, and that the certificate achieves it, hold.
        games = capture_games(monkeypatch)
        for instance in random_instances():
            if not reaches_game(instance):
                continue
            cert = coherence(instance)
            rows = [h.outcomes for h in instance.hypotheses]
            value, _ = oracles.unreduced_coherence(rows)
            assert cert.value == value
            assert oracles.certificate_value(rows, dict(cert.distribution)) == value
            self.assert_kept_columns_are_an_antichain(games[-1])
        assert len(games) >= 30

    def test_polygon_m40_keeps_one_column_per_test(self, monkeypatch):
        games = capture_games(monkeypatch)
        cert = coherence(families.gen_convex_polygon(40, balanced=False))
        assert cert.value == Fraction(1, 40)
        assert [(len(g), len(g[0])) for g in games] == [(40, 40)]


class TestDualCheck:
    def test_optimal_response_mix_bounds_every_test_at_the_value(self, pentagon):
        # Oracle: against the five length-4 arcs each wanting outcome 0, a
        # test lies outside exactly one of them, so it scores 1/5.
        mix = {(pentagon.hypothesis_index[f"arc{s}+4"], 0): Fraction(1, 5) for s in range(5)}
        assert _best_test_score(pentagon, mix) == Fraction(1, 5) == coherence(pentagon).value

    def test_wrong_response_mix_is_rejected(self, pentagon, monkeypatch):
        def wrong_mix(matrix):
            value, strategy, mix = matrix_game_value(matrix)
            return value, strategy, [Fraction(1)] + [Fraction(0)] * (len(mix) - 1)

        monkeypatch.setattr(analysis, "matrix_game_value", wrong_mix)
        with pytest.raises(RuntimeError, match="not optimal"):
            coherence(pentagon)

    def test_achievable_but_suboptimal_value_is_rejected(self, pentagon, monkeypatch):
        # A point mass on one test achieves 0 exactly, so only the dual check
        # can tell that 0 is not the game value.
        def suboptimal(matrix):
            _, _, mix = matrix_game_value(matrix)
            return Fraction(0), [Fraction(1)] + [Fraction(0)] * (len(matrix) - 1), mix

        monkeypatch.setattr(analysis, "matrix_game_value", suboptimal)
        with pytest.raises(RuntimeError, match="not optimal"):
            coherence(pentagon)

    def test_unachieved_value_is_rejected(self, pentagon, monkeypatch):
        def overstated(matrix):
            value, strategy, mix = matrix_game_value(matrix)
            return value + 1, strategy, mix

        monkeypatch.setattr(analysis, "matrix_game_value", overstated)
        with pytest.raises(RuntimeError, match="not achieved"):
            coherence(pentagon)
