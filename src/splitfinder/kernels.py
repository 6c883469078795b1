"""Subset kernels over disagreement-set masks, vectorized with numpy.

A subset S of ``{0 .. width-1}`` and a mask are bitsets.  Only subsets with
at least two members count, and the "best split" of S is ``max over masks of
min(|S & m|, |S| - |S & m|)``, taken as a fraction of ``|S|`` (0 when there
are no masks).

Subsets are rows of ``ceil(width / 32)`` little-endian ``uint32`` words
(``_words``).  Inside the kernels they are held word-major, so each word of
a block is one contiguous row, and masks are packed to the same words.
Both kernels run on one block helper, ``_block_best``: for every word it
ANDs each mask against every subset of the block, giving a masks x rows
array, and ``np.bitwise_count`` sums the words' counts into it.  Counts stay
in the narrowest unsigned type that holds the width (``uint8`` up to 255
bits, so a sum over words past that cannot wrap), are folded in place to
``min(c, |S| - c)`` and reduced across masks by an element-wise maximum over
contiguous rows.  Blocks hold about ``BLOCK_CELLS`` mask-by-subset-by-word
cells, so temporaries stay well under a megabyte whatever the number of
masks; any width works.

``min_subset_split`` enumerates subsets as ascending integers, one block of
``uint32`` ranges at a time, and stops early once some subset splits at 0.
``batch_min_split`` takes subsets as word rows in the given order; rows
wider than one word are regrouped into ``uint64`` words, which halves the
AND and count passes (one ``uint32`` word is faster than one ``uint64``).
It fills one best/size array for the whole batch and picks the minimum
once.  Fractions are compared exactly by cross-multiplying integers, and
the witness is the first subset in that order that strictly attains the
minimum (none when every subset splits at exactly 1/2), with the
``(num, den)`` of that subset itself.  Results are therefore reproducible
bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

BACKEND = "numpy"

# Mask-by-subset-by-word cells evaluated per block.
BLOCK_CELLS = 1 << 16


def _word_count(width: int, word_bits: int = 32) -> int:
    return max(1, -(-width // word_bits))


def _words(values: Sequence[int], words: int, word_bits: int = 32) -> np.ndarray:
    """Non-negative ints as rows of ``words`` little-endian unsigned words."""
    dtype = np.dtype(f"<u{word_bits // 8}")
    if words == 1:
        return np.array(values, dtype=dtype).reshape(-1, 1)
    nbytes = dtype.itemsize * words
    raw = b"".join(v.to_bytes(nbytes, "little") for v in values)
    return np.frombuffer(raw, dtype=dtype).reshape(-1, words)


def _row_int(row: np.ndarray) -> int:
    """The int whose little-endian uint32 words are ``row``."""
    return int.from_bytes(row.astype("<u4").tobytes(), "little")


def _block_rows(n_masks: int, words: int) -> int:
    """Rows per block: a power of two, so enumerated blocks never straddle a word."""
    return 1 << max(0, (BLOCK_CELLS // (max(n_masks, 1) * words)).bit_length() - 1)


def _sizes(block: np.ndarray) -> np.ndarray:
    """Member count of each column of a words x rows block.

    The counts take the narrowest unsigned type that holds the block's bit
    width: ``uint8`` up to 255 bits, wider past it.  The kernels' counts
    per mask take the same type, so no sum over words wraps.
    """
    bits = 8 * block.dtype.itemsize * len(block)
    sizes = np.bitwise_count(block[0]).astype(np.min_scalar_type(bits))
    for k in range(1, len(block)):
        sizes += np.bitwise_count(block[k])
    return sizes


def _block_best(masks: np.ndarray, block: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Best split count of each column of ``block``, in the dtype of ``sizes``.

    ``masks`` is words x masks and ``block`` words x rows; ``sizes`` holds
    the block's member counts.
    """
    if masks.shape[1] == 0:
        return np.zeros_like(sizes)
    counts = np.bitwise_count(masks[0][:, None] & block[0]).astype(sizes.dtype, copy=False)
    for k in range(1, len(block)):
        counts += np.bitwise_count(masks[k][:, None] & block[k])
    np.minimum(counts, sizes - counts, out=counts)
    return np.maximum.reduce(counts, axis=0)


def _first_min(best: np.ndarray, sizes: np.ndarray) -> tuple[int, int, int] | None:
    """(best, size, row) of the first row with >= 2 members at the least best/size."""
    best, sizes = best.astype(np.int64), sizes.astype(np.int64)
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
    """(first subset, words x rows block) for consecutive blocks of 0 .. 2^width - 1."""
    words = _word_count(width)
    total = 1 << width
    for start in range(0, total, rows):
        count = min(rows, total - start)
        # start is a multiple of rows, so adding to the low word never carries.
        block = np.repeat(_words([start], words).T, count, axis=1)
        block[0] += np.arange(count, dtype=np.uint32)
        yield start, block


def min_subset_split(masks: Sequence[int], width: int) -> tuple[int, int, int | None]:
    """Minimum best-split over all subsets with >= 2 members.

    Returns ``(num, den, witness)`` where num/den is the minimal achievable
    best-split fraction and ``witness`` is the first subset (as a bitmask)
    that strictly attains it, or None when every subset splits at exactly
    1/2 (the vacuous maximum).
    """
    words = _word_count(width)
    mask_words = _words(masks, words).T
    best_num, best_den, witness = 1, 2, None
    for start, block in _subset_blocks(width, _block_rows(len(masks), words)):
        sizes = _sizes(block)
        found = _first_min(_block_best(mask_words, block, sizes), sizes)
        if found is not None and found[0] * best_den < best_num * found[1]:
            best_num, best_den, witness = found[0], found[1], start + found[2]
            if best_num == 0:
                break  # nothing splits below zero
    return best_num, best_den, witness


def batch_min_split(masks: Sequence[int], subsets: np.ndarray) -> tuple[int, int, int | None]:
    """Minimum best-split over subsets given as rows of little-endian uint32 words.

    Rows with fewer than two members are ignored; the witness is the first
    row, in the given order, that strictly attains the minimum, as an int.
    """
    wide = subsets
    if subsets.shape[1] > 1:
        # Regrouped into uint64 words, wider rows take half the AND and count passes.
        wide = np.pad(subsets, ((0, 0), (0, subsets.shape[1] % 2))).view("<u8")
    columns = np.ascontiguousarray(wide.T)
    words = len(columns)
    mask_words = _words(masks, words, 8 * columns.dtype.itemsize).T
    sizes = _sizes(columns)
    best = np.empty_like(sizes)
    rows = _block_rows(len(masks), words)
    for start in range(0, len(sizes), rows):
        end = start + rows
        best[start:end] = _block_best(mask_words, columns[:, start:end], sizes[start:end])
    found = _first_min(best, sizes)
    if found is None or 2 * found[0] == found[1]:
        return 1, 2, None
    return found[0], found[1], _row_int(subsets[found[2]])
