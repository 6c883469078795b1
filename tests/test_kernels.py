"""Subset kernels: agreement with a naive oracle."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from splitfinder.kernels import (
    batch_min_split,
    find_split_below,
    min_subset_split,
    prepare_masks,
)


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


def test_find_split_below_consistent_with_min():
    rng = random.Random(23)
    for _ in range(120):
        masks, width = random_case(rng)
        num, den, _ = min_subset_split(masks, width)
        minimum = Fraction(num, den)
        # Strictly below the minimum: nothing to find.
        assert find_split_below(masks, width, num, den) is None
        # Just above it: the minimizing subset (or an earlier one) appears.
        above = minimum + Fraction(1, 1000)
        found = find_split_below(masks, width, above.numerator, above.denominator)
        assert found is not None
        size = found.bit_count()
        top = max((min((found & m).bit_count(), size - (found & m).bit_count()) for m in masks), default=0)
        assert Fraction(top, size) < above


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
