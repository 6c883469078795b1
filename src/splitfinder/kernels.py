"""Subset-enumeration kernels over disagreement-set masks.

Subsets of ``{0 .. width-1}`` are enumerated as ascending integers, only
subsets with at least two members count, and the "best split" of a subset S
is ``max over masks of min(|S & m|, |S| - |S & m|)`` taken as a fraction of
``|S|``.  Fractions are compared exactly by cross-multiplication, and the
witness returned is always the first subset in enumeration order that
strictly attains the minimum, so results are reproducible bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

BACKEND = "pure"


def prepare_masks(masks: Iterable[int], width: int) -> list[int]:
    """Canonicalize masks: clip to width, fold complements, dedupe, drop constants.

    A mask and its complement induce the same split on every subset, so only
    the lexicographically smaller of the pair is kept.
    """
    full = (1 << width) - 1
    out = set()
    for m in masks:
        m &= full
        m = min(m, m ^ full)
        if m:
            out.add(m)
    return sorted(out)


def _best_split_count(masks: Sequence[int], s: int, size: int) -> int:
    half = size >> 1
    best = 0
    for m in masks:
        c = (s & m).bit_count()
        if c > size - c:
            c = size - c
        if c > best:
            best = c
            if best == half:
                break
    return best


def min_subset_split(masks: Sequence[int], width: int) -> tuple[int, int, int | None]:
    """Minimum best-split over all subsets with >= 2 members.

    Returns ``(num, den, witness)`` where num/den is the minimal achievable
    best-split fraction and ``witness`` is the first subset (as a bitmask)
    that strictly attains it, or None when every subset splits at exactly
    1/2 (the vacuous maximum).
    """
    best_num, best_den = 1, 2
    witness = None
    for s in range(3, 1 << width):
        size = s.bit_count()
        if size < 2:
            continue
        best = _best_split_count(masks, s, size)
        if best * best_den < best_num * size:
            best_num, best_den, witness = best, size, s
    return best_num, best_den, witness


def find_split_below(
    masks: Sequence[int], width: int, num: int, den: int
) -> int | None:
    """First subset (>= 2 members) whose best split is strictly below num/den."""
    for s in range(3, 1 << width):
        size = s.bit_count()
        if size < 2:
            continue
        threshold = num * size  # best*den < num*size  <=>  best/size < num/den
        half = size >> 1
        best = 0
        for m in masks:
            c = (s & m).bit_count()
            if c > size - c:
                c = size - c
            if c > best:
                best = c
                if best * den >= threshold or best == half:
                    break
        if best * den < threshold:
            return s
    return None


def batch_min_split(
    masks: Sequence[int], subsets: Sequence[int]
) -> tuple[int, int, int | None]:
    """Minimum best-split over an explicit list of subsets (>= 2 members each)."""
    best_num, best_den = 1, 2
    witness = None
    for s in subsets:
        size = s.bit_count()
        if size < 2:
            continue
        best = _best_split_count(masks, s, size)
        if best * best_den < best_num * size:
            best_num, best_den, witness = best, size, s
    return best_num, best_den, witness
