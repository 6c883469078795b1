"""Coherence game: integer solver parity, dominance reduction, quotient game, dual check."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def instance_of(rows: list[str]):
    """An instance whose hypothesis h has outcome string rows[h]."""
    return validate_instance({
        "tests": [{"id": f"t{x}"} for x in range(len(rows[0]))],
        "hypotheses": [{"id": f"h{h}", "outcomes": row} for h, row in enumerate(rows)],
    })


def outcome_rows(m: int, codes) -> list[str]:
    """Outcome strings over m tests; test x of a row is bit x of its code."""
    return ["".join(str((r >> x) & 1) for x in range(m)) for r in codes]


def random_instance(rng: random.Random, m: int, n: int):
    """n distinct hypotheses over m tests; may or may not reach the game."""
    return instance_of(outcome_rows(m, rng.sample(range(1 << m), n)))


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


def capture_calls(monkeypatch, name: str) -> list:
    """(args, result) of every call coherence makes to ``analysis.<name>``."""
    calls = []
    original = getattr(analysis, name)

    def recording(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(analysis, name, recording)
    return calls


def assert_kept_masks_are_an_antichain(kept):
    for a, b in itertools.permutations(kept, 2):
        assert a & b != a


class TestDominanceReduction:
    def test_minimal_masks_form_a_covering_antichain_in_input_order(self):
        rng = random.Random("antichain")
        for _ in range(200):
            width = rng.randint(1, 8)
            masks = rng.sample(range(1 << width), rng.randint(1, min(30, 1 << width)))
            kept = _minimal_masks(masks)
            assert kept == [m for m in masks if m in set(kept)]
            assert_kept_masks_are_an_antichain(kept)
            for mask in masks:
                assert any(k & mask == k for k in kept)

    def test_family_certificates_equal_the_unreduced_fraction_game(self, monkeypatch):
        # The quotient game may pivot to another optimal test distribution
        # than the unreduced one; the value, and that the certificate
        # achieves it, hold.
        games = capture_games(monkeypatch)
        minimal = capture_calls(monkeypatch, "_minimal_masks")
        for instance in family_instances():
            assert reaches_game(instance)
            cert = coherence(instance)
            rows = list(instance.rows)
            value, _ = oracles.unreduced_coherence(rows)
            assert cert.value == value
            assert oracles.certificate_value(rows, dict(cert.distribution)) == value
            assert_kept_masks_are_an_antichain(minimal[-1][1])
        assert len(games) == len(minimal) == 24

    def test_random_instances_keep_the_unreduced_game_value(self, monkeypatch):
        games = capture_games(monkeypatch)
        minimal = capture_calls(monkeypatch, "_minimal_masks")
        for instance in random_instances():
            if not reaches_game(instance):
                continue
            cert = coherence(instance)
            rows = list(instance.rows)
            value, _ = oracles.unreduced_coherence(rows)
            assert cert.value == value
            assert oracles.certificate_value(rows, dict(cert.distribution)) == value
            assert_kept_masks_are_an_antichain(minimal[-1][1])
        assert len(games) == len(minimal) >= 30

    def test_polygon_m40_keeps_one_column_per_test(self, monkeypatch):
        # Dominance keeps the 40 arcs of length 39 each wanting outcome 0;
        # the cycle's rotations make them, and the 40 tests, one class each.
        games = capture_games(monkeypatch)
        minimal = capture_calls(monkeypatch, "_minimal_masks")
        cert = coherence(families.gen_convex_polygon(40, balanced=False))
        assert cert.value == Fraction(1, 40)
        assert dict(cert.distribution) == {x: Fraction(1, 40) for x in range(40)}
        assert len(minimal[-1][1]) == 40
        assert [(len(g), len(g[0])) for g in games] == [(1, 1)]


@st.composite
def game_instances(draw):
    """Instances of 2-7 tests and up to 12 distinct hypotheses that reach the game."""
    m = draw(st.integers(min_value=2, max_value=7))
    codes = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=2, max_size=min(12, 1 << m), unique=True))
    instance = instance_of(outcome_rows(m, codes))
    assume(reaches_game(instance))
    return instance


def assert_uniform_on_classes(classes, weights):
    by_class: dict[int, set] = {}
    for c, w in zip(classes.tolist(), weights):
        by_class.setdefault(c, set()).add(w)
    assert all(len(ws) == 1 for ws in by_class.values())


def assert_quotient_certificate(instance):
    """The quotient game's value is the unreduced game's, its certificate
    achieves it, its partition is equitable and both lifted strategies are
    uniform on every class."""
    rows = list(instance.rows)
    with pytest.MonkeyPatch.context() as mp:
        partitions = capture_calls(mp, "_equitable_classes")
        scores = capture_calls(mp, "_best_test_score")
        cert = coherence(instance)
    value, _ = oracles.unreduced_coherence(rows)
    dist = dict(cert.distribution)
    assert cert.value == value == oracles.certificate_value(rows, dist)

    [((payoff,), (row_classes, col_classes))] = partitions
    for r in set(row_classes.tolist()):
        for c in set(col_classes.tolist()):
            block = payoff[np.ix_(row_classes == r, col_classes == c)]
            assert len(set(block.sum(axis=1).tolist())) == len(set(block.sum(axis=0).tolist())) == 1

    reps = oracles.first_tests(rows)
    assert set(dist) <= set(reps)
    assert_uniform_on_classes(row_classes, [dist.get(x, 0) for x in reps])
    [((_, response_mix), bound)] = scores
    assert bound == value
    column_of = {payoff[:, j].tobytes(): j for j in range(payoff.shape[1])}
    mix = [Fraction(0)] * payoff.shape[1]
    for (h, desired), q in response_mix.items():
        mix[column_of[(instance.outcomes[h, reps] == desired).tobytes()]] = q
    assert_uniform_on_classes(col_classes, mix)

    # Past int64: a 1/(2^64 + 1) share moved onto test 0 puts the sums on
    # Python ints, which must agree with Fraction arithmetic.
    eps = Fraction(1, 2**64 + 1)
    shifted = {x: w * (1 - eps) for x, w in dist.items()}
    shifted[0] = shifted.get(0, 0) + eps
    claimed = analysis.CoherenceCertificate(shifted, Fraction(0))
    assert analysis.verify_certificate(instance, claimed) == oracles.certificate_value(rows, shifted)
    shifted_mix = {r: q * (1 - eps) for r, q in response_mix.items()}
    shifted_mix[(0, 1)] = shifted_mix.get((0, 1), 0) + eps
    assert _best_test_score(instance, shifted_mix) == max(
        sum((q for (h, d), q in shifted_mix.items() if rows[h][x] == str(d)), Fraction(0))
        for x in range(instance.m_tests)
    )


class TestQuotientGame:
    @settings(max_examples=150, deadline=None)
    @given(game_instances())
    def test_random_instances(self, instance):
        assert_quotient_certificate(instance)

    def test_family_instances(self, pentagon, pentagon_balanced, box_d1r2, box_d2r11, cx_plus_d2l2):
        fixtures = [pentagon, pentagon_balanced, box_d1r2, box_d2r11, cx_plus_d2l2]
        for instance in [*family_instances(), *filter(reaches_game, fixtures)]:
            assert_quotient_certificate(instance)

    def test_exact_sums_switch_to_python_ints_past_int64(self):
        bits = np.array([[True, True], [True, False]])
        den, small = analysis._exact_sums(bits, {0: Fraction(1, 4), 1: Fraction(3, 4)})
        assert den == 4 and small.dtype == np.int64 and small.tolist() == [4, 1]
        den, huge = analysis._exact_sums(bits, {0: Fraction(1, 2**64), 1: Fraction(2**64 - 1, 2**64)})
        assert den == 2**64 and huge.dtype == object and huge.tolist() == [2**64, 1]


@pytest.fixture(scope="module")
def asymmetric():
    """Five hypotheses over four tests whose quotient game is 2 x 2."""
    return instance_of(["1010", "0110", "1001", "0010", "0100"])


class TestDualCheck:
    def test_optimal_response_mix_bounds_every_test_at_the_value(self, pentagon):
        # Oracle: against the five length-4 arcs each wanting outcome 0, a
        # test lies outside exactly one of them, so it scores 1/5.
        mix = {(pentagon.hypothesis_index[f"arc{s}+4"], 0): Fraction(1, 5) for s in range(5)}
        assert _best_test_score(pentagon, mix) == Fraction(1, 5) == coherence(pentagon).value

    def test_fault_instance_has_two_classes_a_side(self, asymmetric, monkeypatch):
        # The faults below act on the quotient game, so they are injected on
        # an instance whose quotient is not 1 x 1 (the pentagon's is).
        games = capture_games(monkeypatch)
        cert = coherence(asymmetric)
        assert [(len(g), len(g[0])) for g in games] == [(2, 2)]
        assert cert.value == Fraction(1, 3)
        sixth, third = Fraction(1, 6), Fraction(1, 3)
        assert dict(cert.distribution) == {0: sixth, 1: third, 2: third, 3: sixth}

    def test_wrong_response_mix_is_rejected(self, asymmetric, monkeypatch):
        def wrong_mix(matrix):
            value, strategy, mix = matrix_game_value(matrix)
            return value, strategy, [Fraction(1)] + [Fraction(0)] * (len(mix) - 1)

        monkeypatch.setattr(analysis, "matrix_game_value", wrong_mix)
        with pytest.raises(RuntimeError, match="not optimal"):
            coherence(asymmetric)

    def test_achievable_but_suboptimal_value_is_rejected(self, asymmetric, monkeypatch):
        # All weight on the first test class, t0 and t3, achieves 0 exactly
        # (h1 answers 0 on both), so only the dual check can tell that 0 is
        # not the game value.
        def suboptimal(matrix):
            _, _, mix = matrix_game_value(matrix)
            return Fraction(0), [Fraction(1)] + [Fraction(0)] * (len(matrix) - 1), mix

        monkeypatch.setattr(analysis, "matrix_game_value", suboptimal)
        with pytest.raises(RuntimeError, match="not optimal"):
            coherence(asymmetric)

    def test_unachieved_value_is_rejected(self, pentagon, monkeypatch):
        def overstated(matrix):
            value, strategy, mix = matrix_game_value(matrix)
            return value + 1, strategy, mix

        monkeypatch.setattr(analysis, "matrix_game_value", overstated)
        with pytest.raises(RuntimeError, match="not achieved"):
            coherence(pentagon)
