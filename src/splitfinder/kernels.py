"""Subset kernels over disagreement-set masks, vectorized with numpy.

A subset S of ``{0 .. width-1}`` and a mask are bitsets.  Only subsets with
at least two members count, and the "best split" of S is ``max over masks of
min(|S & m|, |S| - |S & m|)``, taken as a fraction of ``|S|`` (0 when there
are no masks).

Subsets are rows of little-endian words (``_layout``): one ``uint32`` word
up to 32 members, ``uint64`` words past that, which halves the AND and
count passes of wider rows (one ``uint32`` word is faster than one
``uint64``).  Inside the kernels they are held word-major, so each word of
a block is one contiguous row, and masks are packed to the same words.
``_folded_counts`` scores a block: for every word it ANDs each mask against
every subset of the block, giving a masks x rows array, and
``np.bitwise_count`` sums the words' counts into it.  Counts stay in the
narrowest unsigned type that holds the width (``uint8`` up to 255 bits, so
a sum over words past that cannot wrap) and are folded in place to
``min(c, |S| - c)``; the best split of a row is their maximum over masks.
Blocks hold about ``BLOCK_CELLS`` mask-by-subset-by-word cells, so
temporaries stay well under a megabyte whatever the number of masks; any
width works.

Every kernel is one scan, ``_scan``, over a sequence of rows.  It scores a
first block in full; the masks that rule out the most of its rows go first
from then on, and each later block goes through ``_bounded_best``, which
drops a row once some mask splits it at or above the running minimum (an
earlier row already holds that value, so the row cannot be the witness).
The scan stops after the first block whose minimum is at or below a floor:
0 for ``min_subset_split`` (every subset, as ascending integers) and
``batch_min_split`` (given word rows, in order), an already proved minimum
for ``first_subset_at``.  Fractions are compared exactly in integers, and
the witness is the first row that strictly attains the minimum (none when
every subset splits at exactly 1/2), with the ``(num, den)`` of that row
itself.  Results are therefore reproducible bit for bit, whatever the
block boundaries.

``canonical_input`` relabels a kernel input's members in an order fixed by
colour refinement; two inputs with equal relabelled masks differ only by a
renaming of members, so they share their minimum (though not their first
witness).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

BACKEND = "numpy"

# Mask-by-subset-by-word cells evaluated per block.
BLOCK_CELLS = 1 << 16

# rows(start, count): rows start .. start + count - 1 as a words x count block.
Rows = Callable[[int, int], np.ndarray]


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


def _layout(width: int) -> tuple[int, int]:
    """(bits per word, words) of a subset row of ``width`` members."""
    bits = 32 if width <= 32 else 64
    return bits, _word_count(width, bits)


def _block_rows(n_masks: int, words: int) -> int:
    """Rows per block: a power of two."""
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


def _folded_counts(masks: np.ndarray, block: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """masks x rows ``min(|S & m|, |S| - |S & m|)``, in the dtype of ``sizes``.

    ``masks`` is words x masks and ``block`` words x rows; ``sizes`` holds
    the block's member counts.
    """
    counts = np.bitwise_count(masks[0][:, None] & block[0]).astype(sizes.dtype, copy=False)
    for k in range(1, len(block)):
        counts += np.bitwise_count(masks[k][:, None] & block[k])
    np.minimum(counts, sizes - counts, out=counts)
    return counts


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


def _limit(num: int, den: int, sizes: np.ndarray) -> np.ndarray:
    """Per row, the largest best-split count strictly below num/den of the row's size."""
    return (np.maximum(num * sizes.astype(np.int64) - 1, 0) // den).astype(sizes.dtype)


def _scan(
    masks: np.ndarray, rows: Rows, total: int, floor_num: int, floor_den: int
) -> tuple[int, int, int | None]:
    """Running minimum over rows 0 .. total - 1, starting from 1/2.

    ``masks`` is words x masks, packed to the words of the rows.  The scan
    stops after the first block whose minimum is at most floor_num/floor_den.
    Returns ``(num, den, row)``: the running minimum, with ``row`` the index
    of the first row that strictly attains it, or None when no row splits
    below 1/2.
    """
    words, n_masks = masks.shape
    head = min(total, _block_rows(n_masks, words))
    block = rows(0, head)
    sizes = _sizes(block)
    counts = _folded_counts(masks, block, sizes)
    found = _first_min(counts.max(axis=0, initial=0), sizes)  # 0 with no masks
    num, den, witness = (1, 2, None) if found is None or 2 * found[0] == found[1] else found
    step = _block_rows(16, words)  # the first chunk's temporaries stay at half a block
    for start in range(head, total, step):
        if num * floor_den <= floor_num * den:
            break  # nothing below the floor is sought
        if start == head:  # the masks that rule out the most first-block rows go first
            ruled = (counts > _limit(num, den, sizes)).sum(axis=1).tolist()
            masks = masks[:, sorted(range(n_masks), key=ruled.__getitem__, reverse=True)]
        block = rows(start, min(step, total - start))
        sizes = _sizes(block)
        kept, best = _bounded_best(masks, block, sizes, _limit(num, den, sizes))
        found = _first_min(best, sizes[kept])
        if found is not None:  # every kept row of two or more members is below num/den
            num, den, witness = found[0], found[1], start + int(kept[found[2]])
    return num, den, witness


def _ascending(masks: Sequence[int], width: int) -> tuple[np.ndarray, Rows, int]:
    """``_scan``'s masks, rows and total for the subsets 0 .. 2^width - 1, in ascending order."""
    bits, words = _layout(width)
    dtype = np.dtype(f"<u{bits // 8}")

    def rows(start: int, count: int) -> np.ndarray:
        if words == 1:
            return np.arange(start, start + count, dtype=dtype)[None]
        return np.ascontiguousarray(_words(range(start, start + count), words, bits).T)

    return _words(masks, words, bits).T, rows, 1 << width


def min_subset_split(masks: Sequence[int], width: int) -> tuple[int, int, int | None]:
    """Minimum best-split over all subsets with >= 2 members.

    Returns ``(num, den, witness)`` where num/den is the minimal achievable
    best-split fraction and ``witness`` is the first subset (as a bitmask)
    that strictly attains it, or None when every subset splits at exactly
    1/2 (the vacuous maximum).
    """
    return _scan(*_ascending(masks, width), 0, 1)  # nothing splits below zero


def first_subset_at(masks: Sequence[int], width: int, num: int, den: int) -> int:
    """The witness ``min_subset_split`` gives when its minimum is num/den < 1/2.

    The scan stops in the first block that reaches num/den.  RuntimeError
    when the scan finds no subset at num/den or one below it first, so a
    wrong minimum fails loudly instead of yielding a witness.
    """
    found_num, found_den, witness = _scan(*_ascending(masks, width), num, den)
    if witness is None or found_num * den != num * found_den:
        raise RuntimeError(
            f"no subset of the {width}-member input splits first at {num}/{den}"
        )
    return witness


def canonical_input(masks: Sequence[int] | np.ndarray, width: int) -> bytes:
    """The input's masks relabelled by a member order that colour refinement fixes.

    ``sep[i][j]`` counts the masks that put members i and j on different
    sides; it ignores complements.  Member colours start equal and are
    refined until stable: a member's next colour ranks its colour and its
    row of (colour, sep) pairs, sorted.  While a colour class holds more
    than one member, the lowest-index member of the first such class is
    given a colour of its own and the colours are refined again.  Each mask
    is then moved to the final colours, folded to the smaller of itself and
    its complement, and the sorted masks' bytes are returned.  They are the
    masks themselves, not a hash: equal bytes mean the two inputs differ
    only by a renaming of members.
    """
    bits = (np.asarray(masks, dtype=np.uint64)[:, None] >> np.arange(width, dtype=np.uint64)) & 1
    ones = bits.astype(np.int64)
    sep = ones.T @ (1 - ones)
    sep += sep.T
    scale = len(ones) + 1
    colours = np.zeros(width, dtype=np.int64)
    classes = 1
    row_bytes = 4 * (width + 1)
    signature = np.empty((width, width + 1), dtype=">u4")  # big-endian: bytes sort as numbers
    while True:
        while True:  # refine until the number of classes stops growing
            signature[:, 0] = colours
            signature[:, 1:] = np.sort(colours * scale + sep, axis=1)
            raw = signature.tobytes()
            rows = [raw[k : k + row_bytes] for k in range(0, len(raw), row_bytes)]
            ranked = sorted(set(rows))
            rank = {row: k for k, row in enumerate(ranked)}
            colours = np.array([rank[row] for row in rows], dtype=np.int64)
            if len(ranked) == classes:
                break
            classes = len(ranked)
        if classes == width:
            break
        shared = int(np.flatnonzero(np.bincount(colours) > 1)[0])
        peers = colours == shared
        peers[int(peers.argmax())] = False  # the lowest-index member goes first
        colours = 2 * colours + peers
        classes += 1
    moved = bits @ (np.uint64(1) << colours.astype(np.uint64))
    np.minimum(moved, moved ^ np.uint64((1 << width) - 1), out=moved)
    moved.sort()
    return moved.tobytes()


def _bounded_best(
    masks: np.ndarray, block: np.ndarray, sizes: np.ndarray, limit: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(columns, best split counts) of the columns of ``block`` whose best is within ``limit``.

    Masks go in chunks of 8, 16, 32 ... (fewer past ``BLOCK_CELLS`` cells);
    after each chunk, columns whose running best exceeds their limit drop out.
    """
    kept = np.arange(block.shape[1])
    best = np.zeros_like(sizes)
    start, chunk = 0, 8
    while start < masks.shape[1] and len(kept):
        stop = start + max(1, min(chunk, BLOCK_CELLS // (len(kept) * len(block))))
        counts = _folded_counts(masks[:, start:stop], block, sizes)
        np.maximum(best, counts.max(axis=0), out=best)
        alive = best <= limit
        kept, best, block, sizes, limit = (
            kept[alive], best[alive], block[:, alive], sizes[alive], limit[alive]
        )
        start, chunk = stop, 2 * chunk
    return kept, best


def batch_min_split(masks: Sequence[int], subsets: np.ndarray) -> tuple[int, int, int | None]:
    """Minimum best-split over subsets given as rows of little-endian uint32 words.

    Rows with fewer than two members are ignored; the witness is the first
    row, in the given order, that strictly attains the minimum, as an int.
    """
    bits, words = _layout(32 * subsets.shape[1])
    wide = subsets
    if bits == 64:
        wide = np.pad(subsets, ((0, 0), (0, 2 * words - subsets.shape[1]))).view("<u8")
    columns = np.ascontiguousarray(wide.T)
    num, den, row = _scan(
        _words(masks, words, bits).T,
        lambda start, count: columns[:, start : start + count],
        len(subsets), 0, 1,  # nothing splits below zero
    )
    return num, den, None if row is None else _row_int(subsets[row])
