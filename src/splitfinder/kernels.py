"""Subset kernels over disagreement-set masks, vectorized with numpy.

A subset S of ``{0 .. width-1}`` and a mask are bitsets.  Only subsets with
at least two members count, and the "best split" of S is ``max over masks of
min(|S & m|, |S| - |S & m|)``, taken as a fraction of ``|S|`` (0 when there
are no masks).

Both kernels run on one block helper, ``_block_best``: a block of
subsets, as rows of little-endian ``uint64`` words, is ANDed against every
mask at once, ``np.bitwise_count`` gives the per-mask counts, and the folded
counts are maximized over the masks.  Blocks hold about ``BLOCK_CELLS``
subset-by-mask cells, so temporaries stay well under a megabyte whatever the
number of masks; any width works, with ``ceil(width / 64)`` words per row.

Witness rule: ``min_subset_split`` enumerates subsets as ascending integers
and ``batch_min_split`` takes them in the given order.  Fractions are
compared exactly by cross-multiplying integers, and the witness is the
first subset in that order that strictly attains the minimum (none when
every subset splits at exactly 1/2), with the ``(num, den)`` of that subset
itself.  Results are therefore reproducible bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

BACKEND = "numpy"

# Subset-by-mask-by-word cells evaluated per block.
BLOCK_CELLS = 1 << 16


def _word_count(width: int) -> int:
    return max(1, -(-width // 64))


def _words(values: Sequence[int], words: int) -> np.ndarray:
    """Non-negative ints as rows of ``words`` little-endian uint64 words."""
    if words == 1:
        return np.array(values, dtype=np.uint64).reshape(-1, 1)
    nbytes = 8 * words
    raw = b"".join(v.to_bytes(nbytes, "little") for v in values)
    return np.frombuffer(raw, dtype="<u8").reshape(-1, words)


def _block_rows(n_masks: int, words: int) -> int:
    """Rows per block: a power of two, so enumerated blocks never straddle a word."""
    return 1 << max(0, (BLOCK_CELLS // (max(n_masks, 1) * words)).bit_length() - 1)


def _block_best(block: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best split count and size of each subset row, both as int64."""
    counts = np.bitwise_count(block)
    sizes = counts[:, 0] if block.shape[1] == 1 else counts.sum(axis=1, dtype=np.int64)
    if masks.shape[0] == 0:
        return np.zeros(block.shape[0], dtype=np.int64), sizes.astype(np.int64)
    counts = np.bitwise_count(block[:, None, :] & masks)
    counts = counts[:, :, 0] if block.shape[1] == 1 else counts.sum(axis=2, dtype=np.int64)
    best = np.minimum(counts, sizes[:, None] - counts).max(axis=1)
    return best.astype(np.int64), sizes.astype(np.int64)


def _first_min(best: np.ndarray, sizes: np.ndarray) -> tuple[int, int, int] | None:
    """(best, size, row) of the first row with >= 2 members at the least best/size."""
    valid = sizes >= 2
    if not valid.any():
        return None
    # The float ratio only proposes a candidate; integers decide.
    row = int(np.where(valid, best / np.maximum(sizes, 1), np.inf).argmin())
    num, den = int(best[row]), int(sizes[row])
    while True:
        below = valid & (best * den < num * sizes)
        if not below.any():
            break
        row = int(below.argmax())
        num, den = int(best[row]), int(sizes[row])
    row = int((valid & (best * den == num * sizes)).argmax())
    return int(best[row]), int(sizes[row]), row


def _subset_blocks(width: int, rows: int) -> Iterable[tuple[int, np.ndarray]]:
    """(first subset, word rows) for consecutive blocks of 0 .. 2^width - 1."""
    words = _word_count(width)
    total = 1 << width
    for start in range(0, total, rows):
        count = min(rows, total - start)
        # start is a multiple of rows, so adding to the low word never carries.
        block = np.repeat(_words([start], words), count, axis=0)
        block[:, 0] += np.arange(count, dtype=np.uint64)
        yield start, block


def _min_over_blocks(
    blocks: Iterable[tuple[int, np.ndarray]], masks: np.ndarray
) -> tuple[int, int, int | None]:
    """Running minimum over (offset of first row, block); the witness is a row index."""
    best_num, best_den, witness = 1, 2, None
    for offset, block in blocks:
        found = _first_min(*_block_best(block, masks))
        if found is not None and found[0] * best_den < best_num * found[1]:
            best_num, best_den, witness = found[0], found[1], offset + found[2]
            if best_num == 0:
                break  # nothing splits below zero
    return best_num, best_den, witness


def min_subset_split(masks: Sequence[int], width: int) -> tuple[int, int, int | None]:
    """Minimum best-split over all subsets with >= 2 members.

    Returns ``(num, den, witness)`` where num/den is the minimal achievable
    best-split fraction and ``witness`` is the first subset (as a bitmask)
    that strictly attains it, or None when every subset splits at exactly
    1/2 (the vacuous maximum).
    """
    words = _word_count(width)
    blocks = _subset_blocks(width, _block_rows(len(masks), words))
    return _min_over_blocks(blocks, _words(masks, words))


def batch_min_split(
    masks: Sequence[int], subsets: Sequence[int]
) -> tuple[int, int, int | None]:
    """Minimum best-split over an explicit list of subsets (>= 2 members each)."""
    width = max(max(subsets, default=0).bit_length(), max(masks, default=0).bit_length())
    words = _word_count(width)
    rows = _block_rows(len(masks), words)
    blocks = (
        (start, _words(subsets[start : start + rows], words))
        for start in range(0, len(subsets), rows)
    )
    num, den, index = _min_over_blocks(blocks, _words(masks, words))
    return num, den, None if index is None else subsets[index]
