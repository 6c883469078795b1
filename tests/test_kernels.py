"""Subset kernels: agreement with a naive oracle and with the reference loops."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import oracles
import pytest
from oracles import prepare_masks
from splitfinder import kernels
from splitfinder.analysis import _restricted_masks, _restricted_rows, _sample_subsets
from splitfinder.core import validate_instance
from splitfinder.kernels import min_subset_split


def batch_min_split(masks: list[int], subsets: list[int]) -> tuple[int, int, int | None]:
    """``kernels.batch_min_split`` on int subsets, packed as the word rows it takes."""
    width = max(max(subsets, default=0).bit_length(), max(masks, default=0).bit_length())
    return kernels.batch_min_split(masks, kernels._words(subsets, kernels._word_count(width)))


def naive_min_subset_split(masks: list[int], width: int) -> tuple[Fraction, int | None]:
    best = Fraction(1, 2)
    witness = None
    for size in range(2, width + 1):
        for combo in itertools.combinations(range(width), size):
            s = sum(1 << k for k in combo)
            top = max(
                (min(bin(s & m).count("1"), size - bin(s & m).count("1")) for m in masks),
                default=0,
            )
            value = Fraction(top, size)
            if value < best:
                best = value
                witness = s
    return best, witness


def random_case(rng: random.Random) -> tuple[list[int], int]:
    width = rng.randint(2, 8)
    masks = prepare_masks(
        [rng.getrandbits(width) for _ in range(rng.randint(0, 10))], width
    )
    return masks, width


def test_min_subset_split_matches_naive():
    rng = random.Random(11)
    for _ in range(120):
        masks, width = random_case(rng)
        num, den, _ = min_subset_split(masks, width)
        expected, _ = naive_min_subset_split(masks, width)
        assert Fraction(num, den) == expected


def test_prepare_masks_folds_complements_and_constants():
    width = 4
    # 0b1111 and 0b0000 are constants; 0b0011 and 0b1100 are complements.
    masks = prepare_masks([0b1111, 0b0000, 0b0011, 0b1100, 0b0011], width)
    assert masks == [0b0011]


def test_batch_min_split_ignores_small_subsets():
    masks = [0b01]
    num, den, witness = batch_min_split(masks, [0b01, 0b10, 0b11])
    assert (num, den) == (1, 2)
    assert witness is None  # the only real subset splits exactly 1/2


# ---------------------------------------------------------------------------
# Bit-exact parity with the reference loops in oracles.py


def random_masks(rng: random.Random, width: int, count: int) -> list[int]:
    return prepare_masks([rng.getrandbits(width) for _ in range(count)], width)


def test_min_subset_split_matches_reference_loop():
    rng = random.Random(31)
    for _ in range(150):
        width = rng.randint(2, 9)
        masks = random_masks(rng, width, rng.randint(0, 12))
        assert min_subset_split(masks, width) == oracles.loop_min_subset_split(masks, width)


def test_batch_min_split_matches_reference_loop():
    rng = random.Random(37)
    for _ in range(150):
        width = rng.randint(2, 40)
        masks = random_masks(rng, width, rng.randint(0, 12))
        subsets = [rng.getrandbits(width) for _ in range(rng.randint(0, 60))]
        assert batch_min_split(masks, subsets) == oracles.loop_batch_min_split(masks, subsets)


def test_empty_masks_split_nothing():
    assert min_subset_split([], 5) == oracles.loop_min_subset_split([], 5) == (0, 2, 3)
    subsets = [0b1, 0b110, 0b111]
    assert batch_min_split([], subsets) == oracles.loop_batch_min_split([], subsets) == (0, 2, 0b110)


def test_results_do_not_depend_on_block_boundaries(monkeypatch):
    rng = random.Random(43)
    cases = []
    for _ in range(40):
        width = rng.randint(5, 9)
        masks = random_masks(rng, width, rng.randint(1, 12))
        subsets = [rng.getrandbits(width) for _ in range(50)]
        cases.append((width, masks, subsets))
    for cells in (1, 7, 16):
        monkeypatch.setattr(kernels, "BLOCK_CELLS", cells)
        for width, masks, subsets in cases:
            assert kernels._block_rows(len(masks), 1) < 1 << width  # several blocks
            assert min_subset_split(masks, width) == oracles.loop_min_subset_split(masks, width)
            assert batch_min_split(masks, subsets) == oracles.loop_batch_min_split(masks, subsets)


def test_many_masks_span_several_default_blocks():
    rng = random.Random(47)
    width = 11
    masks = random_masks(rng, width, 300)
    assert kernels._block_rows(len(masks), 1) < 1 << width
    assert min_subset_split(masks, width) == oracles.loop_min_subset_split(masks, width)


def test_batch_min_split_wider_than_one_word():
    rng = random.Random(53)
    for width in (64, 65, 100, 128, 129, 200):
        for _ in range(8):
            masks = random_masks(rng, width, rng.randint(0, 20))
            # Sparse subsets make splits below 1/2 likely, so witnesses matter.
            subsets = [
                sum(1 << b for b in rng.sample(range(width), rng.randint(1, 6)))
                for _ in range(80)
            ]
            assert batch_min_split(masks, subsets) == oracles.loop_batch_min_split(masks, subsets)


@pytest.mark.parametrize("width", [33, 64, 65, 97, 255, 256, 300])
def test_batch_min_split_counts_do_not_overflow(width):
    # Past 255 members a subset's size no longer fits the uint8 that one
    # word's popcount comes in; near-full subsets make sizes that large.
    # Masks inside the low byte make the full set the least split of them.
    rng = random.Random(width)
    full = (1 << width) - 1
    dense = [full] + [full ^ sum(1 << b for b in rng.sample(range(8, width), rng.randint(1, 4))) for _ in range(30)]
    sparse = [sum(1 << b for b in rng.sample(range(width), rng.randint(2, 6))) for _ in range(30)]
    random_rows = [rng.getrandbits(width) for _ in range(30)]
    for masks in (random_masks(rng, width, 12), random_masks(rng, 8, 6)):
        for subsets in (dense, dense + sparse + random_rows, random_rows):
            assert batch_min_split(masks, subsets) == oracles.loop_batch_min_split(masks, subsets)


# ---------------------------------------------------------------------------
# The one-call sampler draws what one getrandbits call per draw would


@pytest.mark.parametrize("size", [*range(2, 71), 96, 97, 128, 130])
def test_sample_subsets_match_one_draw_at_a_time(size):
    for seed in (0, 1, 2**40 + 3):
        for samples in (0, 1, 5, 100, 1000):
            rows = _sample_subsets(size, samples, seed)
            assert rows.dtype == np.dtype("<u4") and rows.shape == (samples, -(-size // 32))
            decoded = [kernels._row_int(row) for row in rows]
            assert decoded == oracles.loop_sample_subsets(seed, size, samples)


def synthetic_instance(rng: random.Random, n: int, m_tests: int):
    rows: set[str] = set()
    while len(rows) < n:
        rows.add("".join(rng.choice("01") for _ in range(m_tests)))
    return validate_instance({
        "tests": [{"id": f"t{x}"} for x in range(m_tests)],
        "hypotheses": [{"id": f"h{i}", "outcomes": row} for i, row in enumerate(sorted(rows))],
    })


def test_restricted_masks_match_bit_by_bit_loop():
    rng = random.Random(59)
    instance = synthetic_instance(rng, n=90, m_tests=40)
    assert instance.outcomes.shape == (90, 40)
    columns = oracles.columns_of(instance)
    for size in (2, 3, 17, 63, 64, 65, 70, 90):
        for _ in range(3):
            members = tuple(sorted(rng.sample(range(instance.n), size)))
            expected = oracles.loop_restricted_masks(columns, members)
            assert _restricted_masks(instance, members) == expected
            raw = [
                sum(((col >> h) & 1) << k for k, h in enumerate(members))
                for col in columns
            ]
            assert expected == prepare_masks(raw, size)
    assert _restricted_masks(instance, range(instance.n)) == prepare_masks(list(columns), instance.n)


@pytest.mark.parametrize("width", [2, 17, 33, 47, 63, 64])
def test_edge_pass_packer_matches_bit_by_bit_loop(width):
    # One block of rows, each an ascending member set; only the packer runs.
    rng = random.Random(width)
    instance = synthetic_instance(rng, n=90, m_tests=40)
    columns = oracles.columns_of(instance)
    members = np.array([sorted(rng.sample(range(instance.n), width)) for _ in range(6)])
    members[1] = members[0]  # a repeated row
    flat, ends = _restricted_rows(instance.outcomes, members)
    assert len(ends) == len(members)
    for row, start, end in zip(members.tolist(), [0, *ends], ends):
        assert flat[start:end].tolist() == oracles.loop_restricted_masks(columns, tuple(row))


def test_edge_pass_packer_drops_constant_and_repeated_columns():
    instance = validate_instance({
        "tests": [{"id": f"t{x}"} for x in range(5)],
        "hypotheses": [
            {"id": f"h{h}", "outcomes": row}
            for h, row in enumerate(["00010", "01011", "00101", "11111"])
        ],
    })
    # On members 1, 2, 3 (bit k = member k): t0 = 0b100 folds to 0b011, t1 and
    # t3 are both 0b101 and fold to 0b010, t2 = 0b110 folds to 0b001, and t4
    # is constant, so it folds to 0 and is dropped.
    flat, ends = _restricted_rows(instance.outcomes, np.array([[1, 2, 3]]))
    assert (flat.tolist(), ends) == ([0b001, 0b010, 0b011], [3])
