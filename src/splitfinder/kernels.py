"""Subset kernels over disagreement-set masks, vectorized with numpy.

A subset S of ``{0 .. width-1}`` and a mask are bitsets.  Only subsets with
at least two members count, and the "best split" of S is ``max over masks of
min(|S & m|, |S| - |S & m|)``, taken as a fraction of ``|S|`` (0 when there
are no masks).

Subsets are rows of ``ceil(width / 32)`` little-endian ``uint32`` words
(``_words``).  Inside the kernels they are held word-major, so each word of
a block is one contiguous row, and masks are packed to the same words.
Every kernel runs on one block helper, ``_folded_counts``: for every word
it ANDs each mask against every subset of the block, giving a masks x rows
array, and ``np.bitwise_count`` sums the words' counts into it.  Counts stay
in the narrowest unsigned type that holds the width (``uint8`` up to 255
bits, so a sum over words past that cannot wrap) and are folded in place to
``min(c, |S| - c)``; the kernels reduce them across masks by an element-wise
maximum over contiguous rows.  Blocks hold about
``BLOCK_CELLS`` mask-by-subset-by-word cells, so temporaries stay well under
a megabyte whatever the number of masks; any width works.

``min_subset_split`` enumerates subsets as ascending integers, one block of
``uint32`` ranges at a time, and stops early once some subset splits at 0.
``first_subset_at`` runs the same scan with an already proved minimum as
its floor, so it stops in the first block that reaches it, and returns the
first subset there.  ``canonical_input`` relabels a kernel input's members
in an order fixed by colour refinement; two inputs with equal relabelled
masks differ only by a renaming of members, so they share their minimum
(though not their first witness).
``batch_min_split`` takes subsets as word rows in the given order; rows
wider than one word are regrouped into ``uint64`` words, which halves the
AND and count passes (one ``uint32`` word is faster than one ``uint64``).
It scores the first block in full; that block's minimum bounds the batch
minimum from above, so a later row that some mask splits at or above it
cannot be the witness (the first block already holds a row at that value)
and is dropped unscored (``_bounded_best``); at a minimum of 0 no later
row is scored at all.  Fractions are compared exactly in integers, and the
witness is the first subset in that order that strictly attains the
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


def _scan(
    masks: Sequence[int], width: int, floor_num: int, floor_den: int
) -> tuple[int, int, int | None]:
    """Running minimum over subsets in ascending order, starting from 1/2.

    The scan stops after the first block whose minimum is at most
    floor_num/floor_den.  Returns ``(num, den, witness)``: the running
    minimum, with ``witness`` the first subset that strictly attains it, or
    None when no subset splits below 1/2.
    """
    words = _word_count(width)
    mask_words = _words(masks, words).T
    best_num, best_den, witness = 1, 2, None
    for start, block in _subset_blocks(width, _block_rows(len(masks), words)):
        sizes = _sizes(block)
        best = _folded_counts(mask_words, block, sizes).max(axis=0, initial=0)
        found = _first_min(best, sizes)
        if found is not None and found[0] * best_den < best_num * found[1]:
            best_num, best_den, witness = found[0], found[1], start + found[2]
            if best_num * floor_den <= floor_num * best_den:
                break  # nothing below the floor is sought
    return best_num, best_den, witness


def min_subset_split(masks: Sequence[int], width: int) -> tuple[int, int, int | None]:
    """Minimum best-split over all subsets with >= 2 members.

    Returns ``(num, den, witness)`` where num/den is the minimal achievable
    best-split fraction and ``witness`` is the first subset (as a bitmask)
    that strictly attains it, or None when every subset splits at exactly
    1/2 (the vacuous maximum).
    """
    return _scan(masks, width, 0, 1)  # nothing splits below zero


def first_subset_at(masks: Sequence[int], width: int, num: int, den: int) -> int:
    """The witness ``min_subset_split`` gives when its minimum is num/den < 1/2.

    The scan stops in the first block that reaches num/den.  RuntimeError
    when the scan finds no subset at num/den or one below it first, so a
    wrong minimum fails loudly instead of yielding a witness.
    """
    found_num, found_den, witness = _scan(masks, width, num, den)
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
    A row after the first block is dropped once some mask splits it at or
    above that block's minimum, masks that rule out most first-block rows
    going first.
    """
    wide = subsets
    if subsets.shape[1] > 1:
        # Regrouped into uint64 words, wider rows take half the AND and count passes.
        wide = np.pad(subsets, ((0, 0), (0, subsets.shape[1] % 2))).view("<u8")
    columns = np.ascontiguousarray(wide.T)
    words = len(columns)
    mask_words = _words(masks, words, 8 * columns.dtype.itemsize).T
    sizes = _sizes(columns)
    head = slice(0, _block_rows(len(masks), words))
    counts = _folded_counts(mask_words, columns[:, head], sizes[head])
    best = counts.max(axis=0, initial=0)  # 0 with no masks
    rows, bests = [np.arange(len(best))], [best]
    found = _first_min(best, sizes[head])
    num, den = (1, 2) if found is None else found[:2]
    if len(sizes) > len(best) and num > 0:  # nothing splits below 0
        # A count is within limit exactly when count / size < num / den: a
        # later row that only ties the first block's minimum is never the witness.
        limit = (np.maximum(num * sizes.astype(np.int64) - 1, 0) // den).astype(sizes.dtype)
        ruled = (counts > limit[head]).sum(axis=1).tolist()
        mask_words = mask_words[:, sorted(range(len(masks)), key=ruled.__getitem__, reverse=True)]
        step = _block_rows(16, words)  # the first chunk's temporaries stay at half a block
        for start in range(len(best), len(sizes), step):
            part = slice(start, start + step)
            kept, kept_best = _bounded_best(mask_words, columns[:, part], sizes[part], limit[part])
            rows.append(start + kept)
            bests.append(kept_best)
    rows = np.concatenate(rows)
    found = _first_min(np.concatenate(bests), sizes[rows])
    if found is None or 2 * found[0] == found[1]:
        return 1, 2, None
    return found[0], found[1], _row_int(subsets[rows[found[2]]])
