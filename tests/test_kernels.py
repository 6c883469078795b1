"""Subset kernels: agreement with a naive oracle and with the reference loops."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
            num, den, witness = oracles.loop_min_subset_split(masks, width)
            assert min_subset_split(masks, width) == (num, den, witness)
            if 2 * num < den:
                assert kernels.first_subset_at(masks, width, num, den) == witness
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


# ---------------------------------------------------------------------------
# Batches of several blocks: rows past the first block are filtered against
# its minimum before they are scored in full


def first_block_rows(n_masks: int, width: int) -> int:
    """The scan's first block; rows past 32 members go as uint64 words."""
    return kernels._block_rows(n_masks, kernels._layout(width)[1])


def sparse_rows(rng: random.Random, width: int, count: int) -> list[int]:
    """Subsets of 2-7 members, so splits well below 1/2 are common."""
    return [
        sum(1 << b for b in rng.sample(range(width), rng.randint(2, min(7, width))))
        for _ in range(count)
    ]


def split_value(masks: list[int], subset: int) -> Fraction:
    return Fraction(*oracles.loop_batch_min_split(masks, [subset])[:2])


def glued_masks(rng: random.Random, width: int, count: int) -> list[int]:
    """Random masks on which members 1 and 6 always side with member 0, and 3 with 2."""
    out = []
    for _ in range(count):
        m = rng.getrandbits(width) & ~(1 << 1 | 1 << 3 | 1 << 6)
        out.append(m | (m & 1) * (1 << 1 | 1 << 6) | (m >> 2 & 1) << 3)
    return prepare_masks(out, width)


# Subsets no glued mask splits: 0/3, 0/2, 0/2, 0/2.
UNSPLIT = [0b1000011, 0b11, 0b1100, 0b1000001]
SMALL = [0, 0b1, 0b100000, 0b10000000]  # fewer than two members


def scored_with_filter(monkeypatch) -> list[tuple[int, int]]:
    """(rows in, rows kept) of every ``_bounded_best`` call from here on."""
    calls = []
    bounded = kernels._bounded_best

    def counted(masks, block, sizes, limit):
        kept, best = bounded(masks, block, sizes, limit)
        calls.append((block.shape[1], len(kept)))
        return kept, best

    monkeypatch.setattr(kernels, "_bounded_best", counted)
    return calls


@functools.cache
def long_batch_pool(width: int) -> tuple[tuple[int, ...], int, tuple[int, ...], tuple[Fraction, ...]]:
    """Glued masks, their first block, 4 blocks of rows splitting above 0, and each row's value.

    Every 7th row has fewer than two members (value 1/2, as the loop scores it).
    """
    rng = random.Random(width)
    masks = glued_masks(rng, width, 24)
    block = first_block_rows(len(masks), width)
    pool = [s for s in sparse_rows(rng, width, 4 * block) if split_value(masks, s) > 0]
    for k in range(0, len(pool), 7):
        pool[k] = SMALL[k % len(SMALL)]
    assert len(pool) >= 3 * block
    return tuple(masks), block, tuple(pool), tuple(split_value(masks, s) for s in pool)


def assert_batch_matches_loop(masks: list[int], subsets: list[int]) -> tuple[int, int, int | None]:
    expected = oracles.loop_batch_min_split(masks, subsets)
    assert batch_min_split(masks, subsets) == expected
    return expected


@pytest.mark.parametrize("width", [20, 40, 100])  # one uint32 word; one uint64 word; two
class TestLongBatches:
    """Batches of at least three first blocks against ``oracles.loop_batch_min_split``."""

    def test_minimum_only_after_the_first_block(self, monkeypatch, width):
        masks, block, pool, values = long_batch_pool(width)
        subsets = list(pool)
        zero = 2 * block + 5
        subsets[zero] = UNSPLIT[0]
        assert min(values[:block]) > 0
        calls = scored_with_filter(monkeypatch)
        assert assert_batch_matches_loop(masks, subsets) == (0, 3, UNSPLIT[0])
        # Later blocks are scored up to and including the one that holds the zero.
        step = kernels._block_rows(16, kernels._layout(width)[1])
        scored = min(len(subsets), block + (zero - block) // step * step + step) - block
        assert scored < len(subsets) - block  # no block past the zero's is scored
        assert sum(rows for rows, _ in calls) == scored
        assert sum(kept for _, kept in calls) < scored  # the filter dropped rows

    def test_first_of_tied_rows_after_the_first_block_is_the_witness(self, width):
        masks, block, pool, _ = long_batch_pool(width)
        subsets = list(pool)
        for k, subset in enumerate(UNSPLIT):
            subsets[block + 100 + 300 * k] = subset
        assert assert_batch_matches_loop(masks, subsets) == (0, 3, UNSPLIT[0])
        subsets[block + 100] = UNSPLIT[1]
        assert assert_batch_matches_loop(masks, subsets) == (0, 2, UNSPLIT[1])

    def test_rows_tied_with_the_first_block_minimum_keep_its_witness(self, width):
        masks, block, pool, values = long_batch_pool(width)
        # The least value that two distinct rows share: one goes in the first
        # block, the others after it, and every lower row is left out.
        low = min(v for v in set(values) if len({s for s, w in zip(pool, values) if w == v}) > 1)
        tied = list(dict.fromkeys(s for s, v in zip(pool, values) if v == low))
        subsets = [s for s, v in zip(pool, values) if v > low]
        subsets.insert(block // 2, tied[0])
        for k, subset in enumerate(tied[1:]):
            subsets.insert(block + 10 + 7 * k, subset)
        assert len(subsets) >= 3 * block
        assert assert_batch_matches_loop(masks, subsets)[2] == tied[0]

    def test_a_later_row_that_ties_the_first_block_minimum_is_dropped(self, monkeypatch, width):
        masks, block, pool, values = long_batch_pool(width)
        low = min(v for v in set(values) if len({s for s, w in zip(pool, values) if w == v}) > 1)
        first, tie = list(dict.fromkeys(s for s, v in zip(pool, values) if v == low))[:2]
        subsets = [s for s, v in zip(pool, values) if v > low]
        subsets.insert(0, first)
        subsets.insert(block + 5, tie)
        assert len(subsets) >= 3 * block
        calls = scored_with_filter(monkeypatch)
        assert assert_batch_matches_loop(masks, subsets)[2] == first
        assert sum(rows for rows, _ in calls) == len(subsets) - block
        # Only rows with fewer than two members, which never count, are kept; the tie is not.
        assert sum(kept for _, kept in calls) == sum(s.bit_count() < 2 for s in subsets[block:])

    def test_a_first_block_minimum_of_zero_scores_no_later_row(self, monkeypatch, width):
        masks, block, pool, _ = long_batch_pool(width)
        subsets = list(pool)
        subsets[5], subsets[block + 5] = UNSPLIT[0], UNSPLIT[1]
        calls = scored_with_filter(monkeypatch)
        assert assert_batch_matches_loop(masks, subsets) == (0, 3, UNSPLIT[0])
        assert calls == []

    def test_first_block_at_one_half_bounds_nothing(self, width):
        masks, block, pool, values = long_batch_pool(width)
        # Pairs that some mask separates split at exactly 1/2.
        halves = [s for s, v in zip(pool, values) if s.bit_count() == 2 and v == Fraction(1, 2)]
        head = [halves[k % len(halves)] if k % 3 else SMALL[k % 4] for k in range(block)]
        assert oracles.loop_batch_min_split(masks, head) == (1, 2, None)
        assert assert_batch_matches_loop(masks, head + list(pool[block:]))[2] is not None
        subsets = head + [halves[k % len(halves)] for k in range(2 * block + 1)]
        assert assert_batch_matches_loop(masks, subsets) == (1, 2, None)

    def test_zero_masks(self, width):
        block = first_block_rows(0, width)
        small = [SMALL[k % 4] for k in range(3 * block + 3)]
        assert assert_batch_matches_loop([], small + [0b110, 0b111, 0b11]) == (0, 2, 0b110)
        assert assert_batch_matches_loop([], small) == (1, 2, None)


# ---------------------------------------------------------------------------
# Enumerations of several blocks go through the same filter


def test_enumeration_filters_blocks_after_the_first(monkeypatch):
    rng = random.Random(61)
    width = 12
    masks = random_masks(rng, width, 40)
    later = (1 << width) - kernels._block_rows(len(masks), 1)
    calls = scored_with_filter(monkeypatch)
    num, den, witness = min_subset_split(masks, width)
    assert (num, den, witness) == oracles.loop_min_subset_split(masks, width)
    assert num > 0  # so no block is skipped
    assert sum(rows for rows, _ in calls) == later
    assert sum(kept for _, kept in calls) < later  # the filter dropped rows


@pytest.mark.parametrize("width", [33, 64, 65])  # one uint64 word; two
def test_enumeration_past_32_members_stops_at_a_zero_in_the_first_block(monkeypatch, width):
    rng = random.Random(width)
    # Members 2 and 5 always side together, so {2, 5} splits at 0; the loop shows no earlier subset does.
    raw = [rng.getrandbits(width) for _ in range(20)]
    masks = prepare_masks([m & ~(1 << 5) | (m >> 2 & 1) << 5 for m in raw], width)
    assert oracles.loop_batch_min_split(masks, list(range(64))) == (0, 2, 0b100100)
    calls = scored_with_filter(monkeypatch)
    assert min_subset_split(masks, width) == (0, 2, 0b100100)
    assert kernels.first_subset_at(masks, width, 0, 1) == 0b100100
    assert calls == []


def batch_across_blocks(recipe: tuple[int, int, int, int, int]) -> tuple[list[int], list[int]]:
    """Random masks and a batch one row short of, at or past 1, 2 or 3 first blocks.

    The first block is the one ``BLOCK_CELLS`` gives when this is called.
    """
    seed, width, n_masks, blocks, offset = recipe
    rng = random.Random(seed)
    masks = random_masks(rng, width, n_masks)
    length = max(0, blocks * first_block_rows(len(masks), width) + offset)
    kinds = (
        lambda: sparse_rows(rng, width, 1)[0],
        lambda: rng.getrandbits(width),
        lambda: rng.getrandbits(2),  # fewer than two members, or the pair {0, 1}
    )
    return masks, [kinds[rng.randrange(3)]() for _ in range(length)]


def batch_recipes(min_masks: int, max_masks: int):
    return st.tuples(
        st.integers(min_value=0, max_value=1 << 32),
        st.integers(min_value=2, max_value=130),
        st.integers(min_value=min_masks, max_value=max_masks),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([-1, 0, 1]),
    )


@settings(max_examples=15, deadline=None)
@given(batch_recipes(min_masks=16, max_masks=48))
def test_batches_across_default_block_boundaries_match_the_loop(recipe):
    assert_batch_matches_loop(*batch_across_blocks(recipe))


@pytest.mark.parametrize("cells", [1, 7, 16])
@settings(max_examples=60, deadline=None)
@given(recipe=batch_recipes(min_masks=0, max_masks=20))
def test_batches_across_small_block_boundaries_match_the_loop(cells, recipe):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BLOCK_CELLS", cells)
        assert_batch_matches_loop(*batch_across_blocks(recipe))


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


@pytest.mark.parametrize("width", [2, 16, 17, 32, 33, 47, 63, 64])
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


# ---------------------------------------------------------------------------
# Relabelled kernel inputs: canonical_input and the witness scan


def relabel(masks: list[int], width: int, order: list[int], flips: list[bool]) -> list[int]:
    """Member k of ``masks`` renamed to ``order[k]``, mask i complemented where ``flips[i]``."""
    full = (1 << width) - 1
    moved = [sum(1 << order[k] for k in range(width) if m >> k & 1) for m in masks]
    return prepare_masks([m ^ full if flip else m for m, flip in zip(moved, flips)], width)


@st.composite
def renamed_inputs(draw):
    """A kernel input of width 3-10 and a copy with its members renamed and masks complemented."""
    width = draw(st.integers(min_value=3, max_value=10))
    raw = draw(st.lists(st.integers(min_value=0, max_value=(1 << width) - 1), max_size=12))
    masks = prepare_masks(raw, width)
    order = draw(st.permutations(range(width)))
    flips = draw(st.lists(st.booleans(), min_size=len(masks), max_size=len(masks)))
    return width, masks, relabel(masks, width, order, flips)


@settings(max_examples=150, deadline=None)
@given(renamed_inputs(), renamed_inputs())
def test_equal_relabelled_masks_share_the_minimum(first, second):
    for width, masks, copy in (first, second):
        num, den, witness = min_subset_split(masks, width)
        key = kernels.canonical_input(masks, width)
        # The key is itself the input under a renaming: same minimum, same mask count.
        relabelled = np.frombuffer(key, dtype=np.uint64).tolist()
        assert relabelled == prepare_masks(relabelled, width) and len(relabelled) == len(masks)
        assert Fraction(*min_subset_split(relabelled, width)[:2]) == Fraction(num, den)
        copy_num, copy_den, copy_witness = min_subset_split(copy, width)
        assert Fraction(copy_num, copy_den) == Fraction(num, den)
        if copy_witness is not None:
            assert kernels.first_subset_at(copy, width, copy_num, copy_den) == copy_witness
    inputs = [(width, masks) for width, masks, _ in (first, second)]
    inputs += [(width, copy) for width, _, copy in (first, second)]
    for (w1, m1), (w2, m2) in itertools.combinations(inputs, 2):
        if w1 == w2 and kernels.canonical_input(m1, w1) == kernels.canonical_input(m2, w2):
            assert Fraction(*min_subset_split(m1, w1)[:2]) == Fraction(*min_subset_split(m2, w2)[:2])


def test_renamed_copies_of_a_symmetric_input_share_one_key():
    rng = random.Random(59)
    width = 8
    cycle = prepare_masks([0b11 << k | 0b11 >> (width - k) for k in range(width)], width)
    key = kernels.canonical_input(cycle, width)
    for _ in range(20):
        order = list(range(width))
        rng.shuffle(order)
        flips = [rng.random() < 0.5 for _ in cycle]
        assert kernels.canonical_input(relabel(cycle, width, order, flips), width) == key


# The edges of a 6-cycle and of two triangles as 2-member masks of width 6:
# colour refinement cannot tell them apart (every member is separated from
# its two neighbours by 2 masks and from the other three by 4), but they are
# not a renaming of each other.
CYCLE6 = prepare_masks([1 << k | 1 << (k + 1) % 6 for k in range(6)], 6)
TRIANGLES6 = prepare_masks([1 << k | 1 << (k + 1) % 3 for k in range(3)]
                           + [8 << k | 8 << (k + 1) % 3 for k in range(3)], 6)


def test_refinement_blind_pair_gets_two_keys():
    assert len(CYCLE6) == len(TRIANGLES6) == 6
    assert kernels.canonical_input(CYCLE6, 6) != kernels.canonical_input(TRIANGLES6, 6)


def test_first_subset_at_refuses_a_value_no_subset_reaches_first():
    masks, width = [0b0011, 0b0101], 4
    num, den, witness = min_subset_split(masks, width)
    assert kernels.first_subset_at(masks, width, num, den) == witness
    with pytest.raises(RuntimeError):
        kernels.first_subset_at(masks, width, 0, 1)  # below the minimum: never reached
    with pytest.raises(RuntimeError):
        kernels.first_subset_at(masks, width, 1, 2)  # the vacuous 1/2 has no witness
    with pytest.raises(RuntimeError):
        kernels.first_subset_at([0b0011], width, 1, 3)  # {0, 1} splits at 0 first


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=3, max_value=10).flatmap(
    lambda width: st.tuples(st.just(width), st.lists(st.integers(0, (1 << width) - 1), max_size=12))))
def test_inputs_of_three_or_more_members_split_at_most_a_third(recipe):
    # Each holds a 3-member subset, which no mask splits above 1/3, so a
    # relabelled hit in the edge pass always has a witness to scan for.
    width, raw = recipe
    num, den, witness = min_subset_split(prepare_masks(raw, width), width)
    assert 3 * num <= den and witness is not None


def test_the_two_width_2_inputs_are_not_renamings_of_each_other():
    # So a width-2 input, the only kind that splits at 1/2, is never a relabelled hit.
    assert kernels.canonical_input([], 2) != kernels.canonical_input([1], 2)
    assert min_subset_split([1], 2) == (1, 2, None)


def test_first_min_decides_a_float_tie_by_integers():
    # 1/3 and 2**53 / (3 * 2**53 + 1) round to one float, so argmin proposes row 0.
    best = np.array([1, 2**53])
    sizes = np.array([3, 3 * 2**53 + 1])
    assert best[0] / sizes[0] == best[1] / sizes[1]
    assert kernels._first_min(best, sizes) == (2**53, 3 * 2**53 + 1, 1)
