"""Structural analysis: neighborliness, coherence, edge certificates, bounds.

Everything boundary-sensitive (split constants, coherence values, edge
thresholds) is exact rational arithmetic; floats appear only in the final
bound values and entropies.  Each certificate produced here is re-verified
by direct summation or enumeration before it is reported, so solver or
sampling artifacts can only understate, never overstate, a guarantee.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from ._simplex import matrix_game_value
from .core import Instance, InstanceTooLarge, MalformedInstance, parse_rational
from .engine import CostStats, QueryBudgetExceeded
from .families import MAX_OUTCOMES

VERIFIED_EXHAUSTIVE = "verified_exhaustive"
FALSIFIED_WITNESS = "falsified_witness"
UNKNOWN_SAMPLED = "unknown_sampled"

DIAG_UNVERIFIED = "unverified_edges_dominate"
DIAG_DISCONNECTED = "not_strongly_connected"

DEFAULT_EXHAUSTIVE_LIMIT = 18
DEFAULT_SAMPLES = 10_000
DEFAULT_OPTIMAL_CAP = 12
DEFAULT_AUDIT_CAP = 15

_BIT_WEIGHTS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


class NotADistribution(ValueError):
    pass


class OverstatedCertificate(ValueError):
    """A certificate claimed more coherence than it actually achieves."""


@dataclass(frozen=True)
class CoherenceCertificate:
    """A test distribution and the coherence value it provably achieves."""

    distribution: Mapping[int, Fraction]
    value: Fraction


@dataclass(frozen=True)
class EdgeReport:
    from_test: int
    to_test: int
    delta_size: int
    status: str
    edge_value: Fraction
    witness: tuple[int, ...] | None  # hypothesis indices attaining edge_value
    samples_tried: int


@dataclass(frozen=True)
class AlphaStarResult:
    value: Fraction
    diagnostic: str | None


@dataclass(frozen=True)
class BoundSet:
    lam: Fraction  # per-step contraction factor; None bounds mean "unbounded"
    nowak_worst: float | None
    split_worst: float | None
    split_average: float | None


@dataclass(frozen=True)
class AnalysisReport:
    k_min: int
    coherence: CoherenceCertificate
    edges: tuple[EdgeReport, ...]
    alpha_star: Fraction
    alpha_diagnostic: str | None
    beta: Fraction
    bounds: BoundSet
    exhaustive_limit: int
    sample_count: int
    seed: int
    edge_mode: str


@dataclass(frozen=True)
class BoundCheck:
    name: str
    bound: float | Fraction | None  # None = unbounded, passes vacuously
    observed: float | Fraction  # exact checks compare and report Fractions
    passed: bool
    margin: float | Fraction | None


@dataclass(frozen=True)
class BoundsVerdict:
    checks: tuple[BoundCheck, ...]
    conditional: bool  # some edges were not exhaustively verified
    all_passed: bool


@dataclass(frozen=True)
class SubsetSplitAudit:
    passed: bool
    beta: Fraction
    witness: tuple[int, ...] | None  # hypothesis indices with no beta-split
    subsets_checked: int


@dataclass(frozen=True)
class NeighborlyEdgeAudit:
    passed: bool
    k_min: int
    pairs_checked: int
    pairs_skipped: int
    failures: tuple[tuple[int, int, Fraction], ...]


# ---------------------------------------------------------------------------
# k-neighborliness


def min_k(instance: Instance) -> int:
    """Smallest k whose disagreement-at-most-k test graph is connected.

    That k is the bottleneck of a minimum spanning tree over pairwise
    disagreement counts, which does not depend on how ties are broken.
    Prim grows the tree from test 0 over the packed test columns
    (``_packed_columns``): ``rest`` holds the columns of the tests not yet
    joined and ``dist`` each one's least disagreement with a joined test.
    Each step joins the nearest and lowers the others' distances by one
    XOR-popcount row against it, so no m x m matrix is kept.
    """
    packed = _packed_columns(instance.outcomes)
    rest, dist = packed[1:], _disagreements(packed[0], packed[1:])
    k = 0
    while len(dist):
        x = int(dist.argmin())
        k = max(k, int(dist[x]))
        joined = rest[x].copy()
        rest[x], dist[x] = rest[-1], dist[-1]  # the last test takes the joined one's slot
        rest, dist = rest[:-1], dist[:-1]
        np.minimum(dist, _disagreements(joined, rest), out=dist)
    return k


def _disagreements(words: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """Hypotheses on which one packed test column disagrees with each row of ``packed``."""
    return np.bitwise_count(words ^ packed).sum(axis=1, dtype=np.int64)


def _packed_columns(bits: np.ndarray) -> np.ndarray:
    """Each column of a 2-d bool array as one row of little-endian uint64 words.

    Bit k of row j is ``bits[k, j]``; bits past the last row are zero.  Word
    w of every column is one exact uint64 dot product of rows 64w onward with
    the weights ``1 << k``, which numpy computes faster than ``np.packbits``
    along the rows.
    """
    out = np.empty((bits.shape[1], kernels._word_count(len(bits), 64)), dtype="<u8")
    for w in range(out.shape[1]):
        chunk = bits[64 * w : 64 * (w + 1)]
        out[:, w] = _BIT_WEIGHTS[: len(chunk)] @ chunk.astype(np.uint64)
    return out


def _column_ints(bits: np.ndarray) -> list[int]:
    """Each column of a 2-d bool array as an int whose bit k is ``bits[k, j]``."""
    words = _packed_columns(bits)
    if words.shape[1] == 1:
        return words[:, 0].tolist()
    return [int.from_bytes(row.tobytes(), "little") for row in words]


# ---------------------------------------------------------------------------
# Coherence (zero-sum game value over tests)


def coherence(instance: Instance) -> CoherenceCertificate:
    """Best provable guarantee that every hypothesis's expected outcome is central.

    If the instance has both an all-1 and an all-0 test column, half weight
    on each achieves the global maximum 1/2 directly.  Otherwise the value
    is solved as an exact matrix game; either way the reported value is
    re-verified against the certificate by direct summation.

    In the game the tests are rows and each (hypothesis, desired outcome)
    response is a 0/1 payoff column.  A column that is >= another entrywise
    never helps the minimizer, so only the minimal columns are kept; that
    keeps the value and the set of optimal test distributions.  The game is
    then solved on its quotient by the coarsest equitable partition of rows
    and columns (``_equitable_classes``; Grohe, Kersting, Mladenov and
    Selman, "Dimension reduction via colour refinement", ESA 2014): entry
    (I, J) is the share of ones in block I x J, and a quotient strategy
    spread evenly over each class earns the same against the full game.  The
    lifted response mix is checked too: no test may score above the value
    against it, which proves the value optimal, not only achievable.
    """
    outcomes = instance.outcomes
    all_one = np.flatnonzero(outcomes.all(axis=0))
    all_zero = np.flatnonzero(~outcomes.any(axis=0))
    if all_one.size and all_zero.size:
        half = Fraction(1, 2)
        cert = CoherenceCertificate({int(all_one[0]): half, int(all_zero[0]): half}, half)
        achieved = _achieved_value(instance, cert.distribution)
        if achieved != half:
            raise RuntimeError(f"value 1/2 is not achieved by the all-0/all-1 pair ({achieved})")
        return cert

    distinct: dict[int, int] = {}
    for x, col in enumerate(_column_ints(outcomes)):
        distinct.setdefault(col, x)
    reps = list(distinct.values())

    # Payoff column of each response as a mask over game rows (bit i = row i
    # pays 1), first-seen (hypothesis, desired) kept for the dual check.
    all_rows = (1 << len(reps)) - 1
    responses: dict[int, tuple[int, int]] = {}
    for h, ones in enumerate(_column_ints(outcomes[:, reps].T)):
        responses.setdefault(ones, (h, 1))
        responses.setdefault(all_rows ^ ones, (h, 0))
    kept = [responses[mask] for mask in _minimal_masks(list(responses))]
    hyps, desired = zip(*kept)
    payoff = (outcomes[list(hyps)][:, reps] == np.array(desired)[:, None]).T

    rows, cols = _equitable_classes(payoff)
    row_sizes, col_sizes = np.bincount(rows).tolist(), np.bincount(cols).tolist()
    blocks = _one_hot(rows).T @ payoff @ _one_hot(cols)
    matrix = [
        [Fraction(ones, r * c) for ones, c in zip(block_row, col_sizes)]
        for block_row, r in zip(blocks.tolist(), row_sizes)
    ]
    value, weights, mix = matrix_game_value(matrix)
    dist = {reps[i]: weights[r] / row_sizes[r] for i, r in enumerate(rows.tolist()) if weights[r]}
    achieved = _achieved_value(instance, dist)
    if achieved != value:
        raise RuntimeError(f"game value {value} is not achieved by its strategy ({achieved})")
    response_mix = {kept[j]: mix[c] / col_sizes[c] for j, c in enumerate(cols.tolist()) if mix[c]}
    bound = _best_test_score(instance, response_mix)
    if bound != value:
        raise RuntimeError(f"game value {value} is not optimal: the response mix allows {bound}")
    return CoherenceCertificate(dist, achieved)


def _equitable_classes(payoff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column classes of the coarsest equitable partition of a 0/1 matrix.

    Colour refinement: every class starts whole and is split by each
    member's count of ones in every class of the other side, until each row
    of a row class has the same counts and so does each column.  Classes are
    numbered in order of their first member.
    """
    rows = np.zeros(payoff.shape[0], dtype=np.intp)
    cols = np.zeros(payoff.shape[1], dtype=np.intp)
    while True:
        new_rows = _split_classes(rows, payoff @ _one_hot(cols))
        new_cols = _split_classes(cols, payoff.T @ _one_hot(new_rows))
        if new_rows.max() == rows.max() and new_cols.max() == cols.max():
            return rows, cols
        rows, cols = new_rows, new_cols


def _one_hot(classes: np.ndarray) -> np.ndarray:
    return np.eye(classes.max() + 1, dtype=np.int64)[classes]


def _split_classes(classes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Classes split by their members' count rows, numbered by first member."""
    ranks: dict[bytes, int] = {}
    signatures = np.column_stack([classes, counts])
    return np.array([ranks.setdefault(s.tobytes(), len(ranks)) for s in signatures], dtype=np.intp)


def _minimal_masks(masks: list[int]) -> list[int]:
    """The masks with no other mask of the list as a proper subset, in input order.

    Masks are distinct.  Visiting them by ascending popcount means every
    proper subset of a mask was visited, and kept or dropped for a kept
    subset of its own, before the mask itself.
    """
    kept: list[int] = []
    for mask in sorted(masks, key=int.bit_count):
        if all(k & mask != k for k in kept):
            kept.append(mask)
    minimal = set(kept)
    return [mask for mask in masks if mask in minimal]


def _best_test_score(
    instance: Instance, response_mix: Mapping[tuple[int, int], Fraction]
) -> Fraction:
    """Highest payoff any test earns against a mix of (hypothesis, desired) responses.

    A test earns a response's weight when the hypothesis's outcome on it is
    the desired one.  No distribution over tests can beat this score, so it
    bounds coherence from above.
    """
    hyps = [h for h, _ in response_mix]
    desired = np.array([d for _, d in response_mix], dtype=bool)
    den, scores = _exact_sums((instance.outcomes[hyps] == desired[:, None]).T, response_mix)
    return Fraction(int(scores.max()), den)


def _achieved_value(instance: Instance, dist: Mapping[int, Fraction]) -> Fraction:
    den, expected = _exact_sums(instance.outcomes[:, list(dist)], dist)
    worst = min(int(expected.min()), den - int(expected.max()))
    return min(Fraction(1, 2), Fraction(worst, den))


def _exact_sums(bits: np.ndarray, weights: Mapping) -> tuple[int, np.ndarray]:
    """(den, ``bits @ weights`` times den) of Fraction weights, summed exactly.

    The sums are integers over the weights' common denominator: int64 while
    ``den * len(weights)`` fits, Python ints past it.
    """
    den = math.lcm(*(w.denominator for w in weights.values()))
    dtype = np.int64 if den * len(weights) < 1 << 63 else object
    nums = np.array([w.numerator * (den // w.denominator) for w in weights.values()], dtype=dtype)
    return den, bits.astype(dtype) @ nums


def verify_certificate(
    instance: Instance, certificate: CoherenceCertificate
) -> Fraction:
    """Exactly recompute what a certificate achieves; never trusts its claim."""
    dist = certificate.distribution
    if any(w < 0 for w in dist.values()):
        raise NotADistribution("negative weight")
    if sum(dist.values(), Fraction(0)) != 1:
        raise NotADistribution("weights must sum to 1")
    if any(not 0 <= x < instance.m_tests for x in dist):
        raise NotADistribution("weight on unknown test index")
    achieved = _achieved_value(instance, dist)
    if achieved < certificate.value:
        raise OverstatedCertificate(
            f"certificate claims {certificate.value}, achieves {achieved}"
        )
    return achieved


# ---------------------------------------------------------------------------
# Edge certificates and the strong-connectivity threshold


def _restricted_masks(instance: Instance, members: Sequence[int]) -> list[int]:
    """Test columns restricted to `members` (bit k = members[k]), canonicalized.

    The members' rows of ``Instance.outcomes`` are gathered and packed per
    test by ``_column_ints``, so any number of members works.  A mask and
    its complement split every subset alike, so each is replaced by the
    smaller of the two; zeros are dropped and the distinct masks come back
    sorted.  The edge pass (``_edge_reports``) restricts whole blocks of
    enumerated edges of at most 64 members at once (``_restricted_rows``);
    this one-set form serves its sampled edges, one at a time, and the
    whole-instance audits.
    """
    bits = instance.outcomes[list(members)]
    # A column and its complement differ in the top bit; the one without it is smaller.
    out = set(_column_ints(bits ^ bits[-1]))
    out.discard(0)
    return sorted(out)


def _decode_subset(
    subset: int | None, members: Sequence[int]
) -> tuple[int, ...] | None:
    if subset is None:
        return None
    return tuple(members[k] for k in range(len(members)) if (subset >> k) & 1)


def _delta_sizes(packed: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Member count of each (x, x') pair's delta set, from the packed test columns."""
    sizes = np.empty(len(pairs), dtype=np.int64)
    rows = max(1, kernels.BLOCK_CELLS // packed.shape[1])
    for lo in range(0, len(pairs), rows):
        block = pairs[lo : lo + rows]
        counts = np.bitwise_count(~packed[block[:, 0]] & packed[block[:, 1]])
        sizes[lo : lo + rows] = counts.sum(axis=1)
    return sizes


def _restricted_rows(outcomes: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """``_restricted_masks`` of every row of ``members``, a pairs x width array.

    The width is at most 64.  Each test's outcomes on a row's members are
    packed into one uint64 word (bit k = member k), member by member, and
    each word is replaced by the smaller of itself and its complement.
    Each row of words is then sorted, and a word is kept where it differs
    from its left neighbour, which drops repeats and leaves at most a
    leading zero, dropped too.  Of the returned ``(flat, ends)``, row r's
    masks are ``flat[ends[r - 1]:ends[r]]`` (from 0 for the first row),
    ascending.
    """
    width = members.shape[1]
    words = outcomes[members[:, 0]].astype(np.uint64)
    for k in range(1, width):
        words |= np.left_shift(outcomes[members[:, k]], np.uint64(k), dtype=np.uint64)
    np.minimum(words, words ^ np.uint64((1 << width) - 1), out=words)
    words.sort(axis=1)
    keep = np.empty(words.shape, dtype=bool)
    np.not_equal(words[:, 1:], words[:, :-1], out=keep[:, 1:])
    keep[:, 0] = words[:, 0] != 0
    return words[keep], np.cumsum(np.count_nonzero(keep, axis=1)).tolist()


def _kernel_result(
    masks: np.ndarray, width: int, proved: dict[bytes, Fraction]
) -> tuple[Fraction, int | None]:
    """(value, first witness) of one kernel input, ``kernels.min_subset_split``'s.

    ``proved`` maps the relabelled masks (``kernels.canonical_input``) of
    the inputs enumerated so far at this width to their values.  Every
    input is relabelled; one that relabels to an enumerated input takes its
    value, since the two differ only by a renaming of members, and scans
    only as far as its own first witness at that value.
    """
    relabelled = kernels.canonical_input(masks, width)
    value = proved.get(relabelled)
    if value is None:
        num, den, wit = kernels.min_subset_split(masks.tolist(), width)
        value = proved[relabelled] = Fraction(num, den)
        return value, wit
    return value, kernels.first_subset_at(masks.tolist(), width, value.numerator, value.denominator)


def _sample_subsets(size: int, samples: int, seed: int) -> np.ndarray:
    """``samples`` seeded random subsets of ``range(size)``, each with >= 2 members.

    Rows of ``ceil(size / 32)`` little-endian uint32 words, equal to the
    draws ``random.Random(seed).getrandbits(size)`` taken one at a time,
    singletons and the empty set rejected and replaced by later draws.
    """
    rng = random.Random(seed)
    words = -(-size // 32)
    kept: list[np.ndarray] = [np.empty((0, words), dtype="<u4")]
    have = 0
    while have < samples:
        n = samples - have
        raw = rng.getrandbits(32 * words * n).to_bytes(4 * words * n, "little")
        rows = np.frombuffer(bytearray(raw), dtype="<u4").reshape(n, words)
        rows[:, -1] >>= 32 * words - size
        rows = rows.compress(kernels._sizes(rows.T) >= 2, axis=0)
        kept.append(rows)
        have += len(rows)
    return np.concatenate(kept)


def _sampled_edge(
    instance: Instance,
    x: int,
    x_prime: int,
    members: list[int],
    samples: int,
    seed: int,
    candidate_alpha: Fraction | None,
) -> EdgeReport:
    """Probe a delta set too large to enumerate, ``members``, with seeded random subsets.

    With ``size = len(members)``, the subsets are the draws of
    ``random.Random(seed).getrandbits(size)`` in order, made in one call:
    each draw uses one 32-bit generator output per uint32 word, least
    significant first, with the last shifted right to ``size`` bits, and
    ``getrandbits(32 * words * n)`` hands over the same outputs in the same
    order.  The call's bytes are viewed as n word rows, the last word of
    each row is shifted, and rows with fewer than two members are dropped
    and drawn again from the same generator.
    ``numpy.random`` is not used: importing it alone adds several MB to the
    resident set.
    """
    num, den, wit = 1, 2, None  # what the kernel returns on no subsets
    if samples:
        masks = _restricted_masks(instance, members)
        subsets = _sample_subsets(len(members), samples, seed)
        num, den, wit = kernels.batch_min_split(masks, subsets)
    value = Fraction(num, den)
    if candidate_alpha is not None and value < candidate_alpha:
        status = FALSIFIED_WITNESS
    else:
        status = UNKNOWN_SAMPLED
    witness = _decode_subset(wit, members)
    return EdgeReport(x, x_prime, len(members), status, value, witness, samples)


def _edge_reports(
    instance: Instance,
    pairs: Sequence[tuple[int, int]],
    exhaustive_limit: int,
    samples: int,
    seed: int,
    candidate_alpha: Fraction | None,
) -> list[EdgeReport]:
    """One report per (x, x') pair, in pair order: the edge pass.

    Each pair's delta size is a popcount of its packed test columns.  A
    set of at most one member is vacuous (1/2, verified), one of up to
    ``exhaustive_limit`` is enumerated, and a larger one is sampled, pair
    ``index`` with seed ``seed ^ index``.  InstanceTooLarge refuses an
    enumerated set of more than 64 members, or a first draw of more than
    ``families.MAX_OUTCOMES`` random bits (``_sample_subsets``), before
    anything runs.  The other pairs are grouped by size and taken a block
    of rows at a time, and each block's members (the set bits of its
    packed delta sets, ascending) are unpacked once.  A block's largest
    temporaries are its rows x tests restriction words, its rows x width
    members and its rows x n unpacked bits (a byte each, n rounded up to
    whole words); each holds at most ``kernels.BLOCK_CELLS // 2`` 8-byte
    words (256 KB), whatever the width.  Per width, the bytes of an
    enumerated input's masks (``_restricted_rows``) key its (value,
    witness), and on a miss ``_kernel_result`` keys the value by the
    relabelled masks, so each relabelling class is enumerated once.  Every
    pair decodes its witness through its own members.
    """
    endpoints = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    packed = _packed_columns(instance.outcomes)
    sizes = _delta_sizes(packed, endpoints)
    sampled = sizes > max(exhaustive_limit, 1)

    def edge(i: int) -> str:
        x, x_prime = pairs[i]
        return f"edge {instance.test_ids[x]!r} -> {instance.test_ids[x_prime]!r}"

    wide = np.flatnonzero(~sampled & (sizes > 64))
    if wide.size:  # 2^65 subsets and more
        i = int(wide[0])
        raise InstanceTooLarge(
            f"{edge(i)} has {sizes[i]} members; exhaustive enumeration takes at most 64"
        )
    if sampled.any():
        i = int(np.argmax(np.where(sampled, sizes, 0)))
        drawn = samples * 32 * kernels._word_count(int(sizes[i]))
        if drawn > MAX_OUTCOMES:
            raise InstanceTooLarge(
                f"{edge(i)} has {sizes[i]} members; {samples} samples of it take {drawn}"
                f" random bits, over the limit of {MAX_OUTCOMES}"
            )
    half = Fraction(1, 2)
    reports: list = [None] * len(pairs)
    for width in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = np.flatnonzero(sizes == width)
        if width < 2:
            for i in rows.tolist():
                reports[i] = EdgeReport(*pairs[i], width, VERIFIED_EXHAUSTIVE, half, None, 0)
            continue
        known: dict[bytes, tuple[Fraction, int | None]] = {}
        proved: dict[bytes, Fraction] = {}
        step = max(1, kernels.BLOCK_CELLS // (2 * max(instance.m_tests, width, 8 * packed.shape[1])))
        for lo in range(0, len(rows), step):
            block = rows[lo : lo + step]
            delta = ~packed[endpoints[block, 0]] & packed[endpoints[block, 1]]
            bits = np.unpackbits(delta.view(np.uint8), axis=1, bitorder="little")
            members = np.nonzero(bits)[1].reshape(len(block), width)
            if sampled[block[0]]:
                for i, own in zip(block.tolist(), members.tolist()):
                    reports[i] = _sampled_edge(
                        instance, *pairs[i], own, samples, seed ^ i, candidate_alpha
                    )
                continue
            flat, ends = _restricted_rows(instance.outcomes, members)
            start = 0
            for row, (i, end) in enumerate(zip(block.tolist(), ends)):
                masks = flat[start:end]
                start = end
                key = masks.tobytes()
                hit = known.get(key)
                if hit is None:
                    hit = known[key] = _kernel_result(masks, width, proved)
                value, wit = hit
                witness = None if wit is None else _decode_subset(wit, members[row].tolist())
                reports[i] = EdgeReport(*pairs[i], width, VERIFIED_EXHAUSTIVE, value, witness, 0)
    return reports


def edge_alpha(
    instance: Instance,
    x: int,
    x_prime: int,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    candidate_alpha: Fraction | None = None,
) -> EdgeReport:
    """Certify the worst split over subsets of the x -> x_prime disagreement set.

    The one-pair call of the edge pass (``_edge_reports``), which refuses
    its sizes before anything runs.  A set of up to ``exhaustive_limit``
    members is enumerated exhaustively.  Larger sets are probed with
    ``samples`` seeded random subsets (each member kept with probability
    1/2, rejecting singletons), which can falsify a candidate alpha but
    never verify one.
    """
    return _edge_reports(
        instance, [(x, x_prime)], exhaustive_limit, samples, seed, candidate_alpha
    )[0]


def _adjacency_pairs(instance: Instance) -> list[tuple[int, int]] | None:
    """Ordered neighbour pairs under the instance's natural test geometry.

    Every test is mapped to an integer point: its ``meta.coords``; else
    ``(rank,)``, its rank in the stable sort by ``meta.cycle_index``, on an
    axis that wraps modulo m; else the digits of its id, when every id is a
    0/1 string of one length.  (i, j) is a pair when test j's point is one
    unit step (+-1 on one axis) from test i's; with duplicate points the
    later test is the one found.  A digit step off {0, 1} finds no test,
    so on ids a step is a bit flip.  None when no test geometry applies.
    """
    ids, metas = instance.test_ids, instance.test_meta
    m = len(ids)
    wrap = 0
    if all(meta and "coords" in meta for meta in metas):
        points = [tuple(meta["coords"]) for meta in metas]
    elif all(meta and "cycle_index" in meta for meta in metas):
        by_cycle = sorted(range(m), key=lambda i: metas[i]["cycle_index"])
        points = [()] * m
        for rank, i in enumerate(by_cycle):
            points[i] = (rank,)
        wrap = m
    elif len(set(map(len, ids))) == 1 and not any(tid.strip("01") for tid in ids):
        points = [tuple(map(int, tid)) for tid in ids]
    else:
        return None
    index = {point: j for j, point in enumerate(points)}
    pairs = set()
    for i, point in enumerate(points):
        for axis, c in enumerate(point):
            for shifted in (c - 1, c + 1):
                if wrap:
                    shifted %= wrap
                j = index.get(point[:axis] + (shifted,) + point[axis + 1 :])
                if j is not None:
                    pairs.add((i, j))
    return sorted(pairs)


def candidate_edges(
    instance: Instance,
    mode: str | None = None,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> tuple[str, list[tuple[int, int]]]:
    """Resolve the candidate edge set: adjacency preset or all small pairs.

    Returns the mode actually used, which matters when a preset is
    requested but no adjacency structure is derivable.  An instance's
    ``edge_preset`` of null means no preset; any other value that is not a
    string is named by its JSON text.
    """
    source = "edge mode"
    if mode is None:
        mode, source = instance.params.get("edge_preset"), "edge_preset"
        if mode is None:
            mode = "all"
        elif type(mode) is not str:
            raise ValueError(f"unknown edge_preset {json.dumps(mode)}")
    if mode in ("l1", "cycle"):
        pairs = _adjacency_pairs(instance)
        if pairs is not None:
            return "l1", pairs
        mode = "all"
    if mode != "all":
        raise ValueError(f"unknown {source} {mode!r}")
    # Row i of the packed columns, negated and ANDed with every row, counts
    # the delta sets from test i to every test at once.
    packed = _packed_columns(instance.outcomes)
    pairs = []
    for i, words in enumerate(packed):
        sizes = np.bitwise_count(~words & packed).sum(axis=1, dtype=np.int64)
        pairs.extend((i, j) for j in np.flatnonzero(sizes <= exhaustive_limit).tolist() if j != i)
    return "all", pairs


def _strongly_connected(n_nodes: int, edges: Sequence[tuple[int, int]]) -> bool:
    forward: list[list[int]] = [[] for _ in range(n_nodes)]
    backward: list[list[int]] = [[] for _ in range(n_nodes)]
    for i, j in edges:
        forward[i].append(j)
        backward[j].append(i)
    for adjacency in (forward, backward):
        seen = [False] * n_nodes
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            node = stack.pop()
            for nxt in adjacency[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    count += 1
                    stack.append(nxt)
        if count != n_nodes:
            return False
    return True


def alpha_star(
    instance: Instance, reports: Sequence[EdgeReport]
) -> AlphaStarResult:
    """Largest verified edge value whose edge digraph is strongly connected.

    Only exhaustively verified edges can support the threshold; if strong
    connectivity would need unverified ones, that is reported as a
    diagnostic rather than guessed.
    """
    m = instance.m_tests
    if m == 1:
        return AlphaStarResult(Fraction(1, 2), None)
    # Bucketed by (numerator, denominator): hashing a Fraction takes a modular inverse.
    by_value: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for r in reports:
        if r.status == VERIFIED_EXHAUSTIVE:
            value = r.edge_value
            by_value.setdefault((value.numerator, value.denominator), []).append(
                (r.from_test, r.to_test)
            )
    # Walking the values down, the edges of value >= v are the buckets seen so far.
    edges: list[tuple[int, int]] = []
    for num, den in sorted(by_value, key=lambda nd: Fraction(*nd), reverse=True):
        edges.extend(by_value[num, den])
        if _strongly_connected(m, edges):
            return AlphaStarResult(Fraction(num, den), None)
    if len(edges) < len(reports):
        all_edges = [(r.from_test, r.to_test) for r in reports]
        if _strongly_connected(m, all_edges):
            return AlphaStarResult(Fraction(0), DIAG_UNVERIFIED)
    return AlphaStarResult(Fraction(0), DIAG_DISCONNECTED)


# ---------------------------------------------------------------------------
# Bound formulas


def beta_of(c: Fraction, alpha: Fraction) -> Fraction:
    """Guaranteed per-step split constant from coherence c and edge threshold alpha."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        return Fraction(0)
    return min(Fraction(c), alpha / (1 + 2 * alpha))


def binary_entropy(p: Fraction | float) -> float:
    """Entropy in bits of a coin with success probability p; H(0) = H(1) = 0."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def compute_bounds(n: int, c: Fraction, k: int, beta: Fraction) -> BoundSet:
    """Worst/average query-cost bounds from the structural constants.

    Degenerate inputs (zero coherence or zero split guarantee) yield None
    bounds, rendered as "unbounded" downstream; n = 1 needs no queries at
    all, so every bound is 0.
    """
    lam = 1 - min(Fraction(c), Fraction(1, k + 2))
    if n <= 1:
        return BoundSet(lam, 0.0, 0.0, 0.0)
    log2n = math.log2(n)
    nowak = None if lam == 1 else log2n / -math.log2(float(lam))
    beta = Fraction(beta)
    if beta == 0:
        return BoundSet(lam, nowak, None, None)
    split_worst = log2n / -math.log2(1.0 - float(beta))
    split_average = log2n / binary_entropy(beta)
    return BoundSet(lam, nowak, split_worst, split_average)


# ---------------------------------------------------------------------------
# Exhaustive oracles and audits


def optimal_worst_case(instance: Instance, n_cap: int = DEFAULT_OPTIMAL_CAP) -> int:
    """Exact optimal worst-case query count via memoized recursion over subsets."""
    if instance.n > n_cap:
        raise InstanceTooLarge(
            f"optimal_worst_case capped at n <= {n_cap}, instance has n = {instance.n}"
        )
    cols = _restricted_masks(instance, range(instance.n))
    memo: dict[int, int] = {}

    def cost(v: int) -> int:
        if v & (v - 1) == 0:
            return 0
        cached = memo.get(v)
        if cached is not None:
            return cached
        size = v.bit_count()
        lower = (size - 1).bit_length()  # ceil(log2 size)
        best: int | None = None
        seen: set[int] = set()
        for c in cols:
            a = v & c
            if a == 0 or a == v:
                continue
            key = min(a, v ^ a)
            if key in seen:
                continue
            seen.add(key)
            depth = 1 + max(cost(a), cost(v ^ a))
            if best is None or depth < best:
                best = depth
                if best == lower:
                    break
        if best is None:
            raise QueryBudgetExceeded(f"no test splits a version space of {size} hypotheses")
        memo[v] = best
        return best

    return cost((1 << instance.n) - 1)


def subset_split_audit(
    instance: Instance, beta: Fraction, n_cap: int = DEFAULT_AUDIT_CAP
) -> SubsetSplitAudit:
    """Brute-force check that every subset of >= 2 hypotheses has a beta-split.

    Enumerates all 2^n subsets, so it is capped; beta <= 0 passes vacuously.
    A failing audit's witness is the first subset, in ascending bitmask
    order, that attains the minimum split.
    """
    if instance.n > n_cap:
        raise InstanceTooLarge(
            f"subset_split_audit capped at n <= {n_cap}, instance has n = {instance.n}"
        )
    beta = Fraction(beta)
    if beta <= 0:
        return SubsetSplitAudit(True, beta, None, 0)
    n = instance.n
    checked = (1 << n) - n - 1
    num, den, witness = kernels.min_subset_split(_restricted_masks(instance, range(n)), n)
    if not checked or Fraction(num, den) >= beta:
        return SubsetSplitAudit(True, beta, None, checked)
    # With no witness every subset splits at exactly 1/2, so only a beta above
    # 1/2 gets here, and the first subset, {0, 1}, already falls short of it.
    return SubsetSplitAudit(False, beta, _decode_subset(witness or 0b11, range(n)), checked)


def neighborly_edge_audit(
    instance: Instance, exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> NeighborlyEdgeAudit:
    """Check that every k_min-disagreement pair certifies a 1/k_min edge value.

    Implication being audited: pairs connected in the k-neighborly sense
    must also be split-neighborly at 1/k.  Disagreement sets beyond the
    exhaustive limit are skipped and counted, never guessed.
    """
    k = min_k(instance)
    if k < 1:
        return NeighborlyEdgeAudit(True, k, 0, 0, ())
    threshold = Fraction(1, k)
    packed = _packed_columns(instance.outcomes)
    pairs = []
    for i in range(instance.m_tests):
        close = np.flatnonzero(_disagreements(packed[i], packed[i + 1 :]) <= k) + i + 1
        pairs.extend(p for j in close.tolist() for p in ((i, j), (j, i)))
    reports = _edge_reports(instance, pairs, exhaustive_limit, 0, 0, None)
    checked = [r for r in reports if r.status == VERIFIED_EXHAUSTIVE and r.delta_size >= 2]
    failures = tuple(
        (r.from_test, r.to_test, r.edge_value) for r in checked if r.edge_value < threshold
    )
    skipped = sum(r.status != VERIFIED_EXHAUSTIVE for r in reports)
    return NeighborlyEdgeAudit(not failures, k, len(checked), skipped, failures)


# ---------------------------------------------------------------------------
# Full-instance analysis and bound verification


def analyze_instance(
    instance: Instance,
    edge_mode: str | None = None,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> AnalysisReport:
    """Compute every structural quantity and the derived query-cost bounds."""
    k = min_k(instance)
    certificate = coherence(instance)
    mode, pairs = candidate_edges(instance, edge_mode, exhaustive_limit)
    hint = instance.params.get("alpha_hint")
    try:
        candidate_alpha = None if hint is None else parse_rational(str(hint))
    except ValueError:
        raise MalformedInstance(f"'alpha_hint' must be a rational like 1/3, got {hint!r}") from None

    reports = tuple(
        _edge_reports(instance, pairs, exhaustive_limit, samples, seed, candidate_alpha)
    )

    star = alpha_star(instance, reports)
    beta = beta_of(certificate.value, star.value)
    bounds = compute_bounds(instance.n, certificate.value, k, beta)
    return AnalysisReport(
        k_min=k,
        coherence=certificate,
        edges=reports,
        alpha_star=star.value,
        alpha_diagnostic=star.diagnostic,
        beta=beta,
        bounds=bounds,
        exhaustive_limit=exhaustive_limit,
        sample_count=samples,
        seed=seed,
        edge_mode=mode,
    )


def verify_bounds(
    instance: Instance,
    report: AnalysisReport,
    stats: CostStats,
    optimal_cap: int = DEFAULT_OPTIMAL_CAP,
) -> BoundsVerdict:
    """Compare exhaustive engine results against the report's bounds.

    Besides the query-cost bounds, the least split GBS chose at any node of
    its decision tree must be at least the report's beta, exactly: the
    per-step guarantee the split bounds rest on, checked on every version
    space GBS reaches, at any n.
    """

    def check(name: str, bound: float | None, observed: float) -> BoundCheck:
        if bound is None:
            return BoundCheck(name, None, observed, True, None)
        return BoundCheck(name, bound, observed, observed <= bound, bound - observed)

    worst = float(stats.worst_case)
    checks = [
        check("worst_case<=split_worst", report.bounds.split_worst, worst),
        check("worst_case<=nowak_worst", report.bounds.nowak_worst, worst),
        check("average<=split_average", report.bounds.split_average, float(stats.average)),
    ]
    if instance.n <= optimal_cap:
        optimal = optimal_worst_case(instance, optimal_cap)
        checks.append(check("optimal<=worst_case", worst, float(optimal)))
    chosen = stats.min_chosen_split
    if chosen is not None:  # None: n = 1, so GBS chose no split at all
        checks.append(
            BoundCheck(
                "min_chosen_split>=beta",
                report.beta,
                chosen,
                chosen >= report.beta,
                chosen - report.beta,
            )
        )
    conditional = any(e.status != VERIFIED_EXHAUSTIVE for e in report.edges)
    return BoundsVerdict(
        checks=tuple(checks),
        conditional=conditional,
        all_passed=all(c.passed for c in checks),
    )
