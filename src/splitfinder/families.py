"""Deterministic instance generators for every supported problem family.

Each generator materializes the full outcome matrix, funnels it through
``validate_instance`` (so identifiability is always asserted, not assumed),
and records enough metadata in ``params`` for downstream analysis presets:
``edge_preset`` names the adjacency structure used for candidate edges and
``alpha_hint`` carries the split constant the family is expected to certify.

Generators are pure: identical parameters produce a bit-identical instance,
including record ordering (tests sorted lexicographically by coordinates or
bit string, hypotheses by their canonical metadata encoding).

The hypercube families (disjunction, monotone_cnf, discrete_linear,
linear_kcase, cx_disjunction) build their outcome rows in numpy:
``_hypercube`` gives one int64 variable mask per test, each family evaluates
its predicate on every test at once for a block of hypotheses
(``_outcome_rows``), and ``_row_strings`` turns each bool block into the
'0'/'1' row strings.  The localization and polygon families build their
rows as strings.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction

import numpy as np

from .core import Instance, InstanceTooLarge, parse_rational, rational_text, validate_instance

# Most outcome characters (tests x hypotheses) a generator may build.  It is
# checked from the parameters alone, before anything is materialized.
MAX_OUTCOMES = 1 << 26
# Outcome cells a hypercube family evaluates per numpy block.  Its int64
# temporaries stay at 64 KB, under glibc's default mmap threshold, so each
# block reuses the heap the last one freed and none of them leaves the heap
# grown for the commands that run after ``gen`` in the same process.
_BLOCK_CELLS = 1 << 13


class BadParams(ValueError):
    """Family parameters violate the family's preconditions."""


class TooFewPoints(BadParams):
    pass


class EmptyFamily(ValueError):
    """No hypothesis satisfies the family constraints at these parameters."""


class NotAxisSymmetric(BadParams):
    pass


class NotAxisConvex(BadParams):
    pass


def _coord_id(coords: tuple[int, ...]) -> str:
    return ",".join(str(c) for c in coords)


def _check_size(family: str, tests: int, hypotheses: int) -> None:
    if tests * hypotheses > MAX_OUTCOMES:
        raise InstanceTooLarge(
            f"{family}: {tests} tests x {hypotheses} hypotheses exceeds the limit of"
            f" {MAX_OUTCOMES} outcomes"
        )


def _cube_tests(family: str, d: int) -> int:
    """2^d, the test count of a hypercube family, refused before it is even formed."""
    if d >= MAX_OUTCOMES.bit_length():
        raise InstanceTooLarge(
            f"{family}: d={d} means 2^{d} tests, over the limit of {MAX_OUTCOMES} outcomes"
        )
    return 1 << d


def _build(name, family, params, tests, hypotheses) -> Instance:
    return validate_instance(
        {
            "name": name,
            "family": family,
            "params": params,
            "tests": tests,
            "hypotheses": hypotheses,
        }
    )


# ---------------------------------------------------------------------------
# Linear classifiers on a convex polygon (cyclic-arc model)


def gen_convex_polygon(m_points: int, balanced: bool) -> Instance:
    """Linear classifiers over the vertices of a convex polygon.

    Tests are the m cycle positions; hypotheses are the contiguous positive
    arcs (each equivalence class of linear classifiers labels one arc +).
    With ``balanced`` only arcs whose positive fraction lies in [1/4, 3/4]
    are kept; otherwise every arc with both labels present.
    """
    if m_points < 3:
        raise TooFewPoints(f"convex polygon needs >= 3 points, got {m_points}")
    m = m_points
    if balanced:
        lo = -(-m // 4)  # ceil(m/4)
        lengths = range(lo, m - lo + 1)
    else:
        lengths = range(1, m)
    _check_size("convex_polygon", m, m * len(lengths))

    tests = [{"id": f"p{i}", "meta": {"cycle_index": i}} for i in range(m)]
    hypotheses = []
    for start in range(m):
        for length in lengths:
            arc = "1" * length + "0" * (m - length)
            outcomes = arc[m - start :] + arc[: m - start]  # rotated to begin at start
            hypotheses.append(
                {
                    "id": f"arc{start}+{length}",
                    "outcomes": outcomes,
                    "meta": {"arc_start": start, "arc_len": length},
                }
            )
    params = {
        "m": m,
        "balanced": balanced,
        "edge_preset": "cycle",
        "alpha_hint": "1/3",
    }
    name = f"polygon_m{m}_{'balanced' if balanced else 'all'}"
    return _build(name, "convex_polygon", params, tests, hypotheses)


# ---------------------------------------------------------------------------
# Monotone disjunctions and CNF formulas over bit-vector tests


def _hypercube(d: int) -> tuple[list[dict], np.ndarray]:
    """The 2^d bit-string tests in lexicographic id order, and an int64 array of
    one mask per test whose bit v-1 is variable v (character v-1 of the id)."""
    ranks = np.arange(1 << d, dtype=np.int64)
    masks = np.zeros_like(ranks)
    for v in range(d):
        masks |= ((ranks >> (d - 1 - v)) & 1) << v
    return [{"id": format(k, f"0{d}b")} for k in range(1 << d)], masks


def _var_mask(variables) -> int:
    return sum(1 << (v - 1) for v in variables)


def _row_strings(matrix: np.ndarray) -> list[str]:
    """The '0'/'1' string of each row of a C-contiguous bool matrix, which is
    turned into its ASCII codes in place and decoded a row at a time."""
    codes = matrix.view(np.uint8)
    codes += ord("0")
    return [str(row.data, "ascii") for row in codes]


def _outcome_rows(
    test_masks: np.ndarray, keys, predicate: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> Iterator[str]:
    """The row of each hypothesis key, in key order: ``predicate(test_masks, block)``
    is the bool matrix of a block of keys (int64 rows) against every test, and
    it is evaluated ``_BLOCK_CELLS // len(test_masks)`` keys at a time."""
    keys = np.asarray(keys, dtype=np.int64)
    step = max(1, _BLOCK_CELLS // len(test_masks))
    for start in range(0, len(keys), step):
        yield from _row_strings(predicate(test_masks, keys[start : start + step]))


def _any_variable(test_masks: np.ndarray, var_masks: np.ndarray) -> np.ndarray:
    """Per variable mask, the tests that set any of its variables."""
    return (test_masks & var_masks[:, None]) != 0


def _every_clause(test_masks: np.ndarray, clause_masks: np.ndarray) -> np.ndarray:
    """Per row of clause masks, the tests that set a variable of every clause."""
    hit = _any_variable(test_masks, clause_masks[:, 0])
    for c in range(1, clause_masks.shape[1]):
        hit &= _any_variable(test_masks, clause_masks[:, c])
    return hit


def gen_disjunction(d: int, m: int) -> Instance:
    """Monotone disjunctions of at most m of d variables; tests are all 2^d inputs."""
    if not 1 <= m <= d:
        raise BadParams(f"disjunction needs 1 <= m <= d, got d={d}, m={m}")
    cube = _cube_tests("disjunction", d)
    _check_size("disjunction", cube, sum(math.comb(d, size) for size in range(1, m + 1)))
    tests, test_masks = _hypercube(d)
    var_sets = [
        variables
        for size in range(1, m + 1)
        for variables in itertools.combinations(range(1, d + 1), size)
    ]
    rows = _outcome_rows(test_masks, [_var_mask(v) for v in var_sets], _any_variable)
    hypotheses = [
        {
            "id": "|".join(f"x{v}" for v in variables),
            "outcomes": outcomes,
            "meta": {"vars": list(variables)},
        }
        for variables, outcomes in zip(var_sets, rows)
    ]
    params = {
        "d": d,
        "m": m,
        "edge_preset": "l1",
        "alpha_hint": rational_text(Fraction(1, m + 1)),
    }
    return _build(f"disjunction_d{d}_m{m}", "disjunction", params, tests, hypotheses)


def _disjoint_clause_sets(d: int, m: int, l: int) -> list[tuple[tuple[int, ...], ...]]:
    """All unordered collections of l pairwise-disjoint m-subsets of {1..d}.

    Canonical order: clauses sorted by minimum element, enforced during the
    recursion so each collection is produced exactly once.
    """
    out: list[tuple[tuple[int, ...], ...]] = []

    def rec(available: tuple[int, ...], min_floor: int, acc: tuple) -> None:
        if len(acc) == l:
            out.append(acc)
            return
        candidates = [v for v in available if v > min_floor]
        for clause in itertools.combinations(candidates, m):
            remaining = tuple(v for v in available if v not in clause)
            rec(remaining, clause[0], acc + (clause,))

    rec(tuple(range(1, d + 1)), 0, ())
    return out


def gen_monotone_cnf(d: int, m: int, l: int) -> Instance:
    """Conjunctions of l variable-disjoint disjunctions of exactly m variables."""
    if m < 1 or l < 1 or l * m > d:
        raise BadParams(f"monotone CNF needs m,l >= 1 and l*m <= d, got d={d}, m={m}, l={l}")
    cube = _cube_tests("monotone_cnf", d)
    clause_sets = math.prod(math.comb(d - i * m, m) for i in range(l)) // math.factorial(l)
    _check_size("monotone_cnf", cube, clause_sets)
    tests, test_masks = _hypercube(d)
    formulas = _disjoint_clause_sets(d, m, l)
    rows = _outcome_rows(
        test_masks, [[_var_mask(c) for c in clauses] for clauses in formulas], _every_clause
    )
    hypotheses = [
        {
            "id": "&".join("(" + "|".join(f"x{v}" for v in clause) + ")" for clause in clauses),
            "outcomes": outcomes,
            "meta": {"clauses": [list(c) for c in clauses]},
        }
        for clauses, outcomes in zip(formulas, rows)
    ]
    params = {
        "d": d,
        "m": m,
        "l": l,
        "edge_preset": "l1",
        "alpha_hint": rational_text(Fraction(1, m + 1 + 3 * (l - 1))),
    }
    return _build(
        f"monotone_cnf_d{d}_m{m}_l{l}", "monotone_cnf", params, tests, hypotheses
    )


# ---------------------------------------------------------------------------
# Object localization on the integer grid


def box_offsets(radii: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All integer points of the axis-symmetric box with the given radii."""
    return [
        tuple(p) for p in itertools.product(*[range(-r, r + 1) for r in radii])
    ]


def l1_ball_offsets(d: int, radius: int) -> list[tuple[int, ...]]:
    """All integer points with L1 norm at most radius in d dimensions."""
    pts = []
    for p in itertools.product(range(-radius, radius + 1), repeat=d):
        if sum(abs(c) for c in p) <= radius:
            pts.append(p)
    return pts


def _check_l1_ball(d: int, radius: int) -> None:
    """Refuse an L1-ball shape instance too large to build, before its offsets exist.

    Its test grid holds (4r+3)^d points: at least 3^d, so d >= 17 is refused
    without forming the power.  The ball holds sum_k 2^k C(d,k) C(r,k) points.
    """
    if d >= 17:  # 3^17 > MAX_OUTCOMES
        raise InstanceTooLarge(
            f"shape_localization: d={d} means at least 3^{d} tests, over the limit of"
            f" {MAX_OUTCOMES} outcomes"
        )
    ball = sum(2**k * math.comb(d, k) * math.comb(radius, k) for k in range(min(d, radius) + 1))
    _check_size("shape_localization", (4 * radius + 3) ** d, ball)


def plus_offsets(d: int, l: int) -> list[tuple[int, ...]]:
    """Axis segments of radius l through the origin (a 'plus' in d dimensions)."""
    pts = {tuple([0] * d)}
    for i in range(d):
        for j in range(-l, l + 1):
            p = [0] * d
            p[i] = j
            pts.add(tuple(p))
    return sorted(pts)


def _localization_instance(
    name: str,
    family: str,
    params: dict,
    offsets: list[tuple[int, ...]],
    hypothesis_points: list[tuple[int, ...]],
    test_points: list[tuple[int, ...]],
) -> Instance:
    offset_set = set(offsets)
    tests = [{"id": _coord_id(x), "meta": {"coords": list(x)}} for x in test_points]
    hypotheses = []
    for z in hypothesis_points:
        outcomes = "".join(
            "1" if tuple(x - c for x, c in zip(pt, z)) in offset_set else "0"
            for pt in test_points
        )
        hypotheses.append(
            {"id": _coord_id(z), "outcomes": outcomes, "meta": {"coords": list(z)}}
        )
    return _build(name, family, params, tests, hypotheses)


def gen_box_localization(
    radii: tuple[int, ...] | list[int], center: tuple[int, ...] | None = None
) -> Instance:
    """Locate a hidden point sensed through an axis-symmetric box.

    Hypotheses are all centers within box reach of ``center`` (so one test
    column is all-1), and tests fill the hypothesis region dilated by
    radius+1 per dimension (so all-0 columns exist too).
    """
    radii = tuple(int(r) for r in radii)
    if not radii or any(r < 0 for r in radii):
        raise BadParams(f"box radii must be nonempty and nonnegative, got {radii!r}")
    d = len(radii)
    center = tuple(int(c) for c in (center or (0,) * d))
    if len(center) != d:
        raise BadParams("center dimension must match radii")
    _check_size(
        "box_localization",
        math.prod(4 * r + 3 for r in radii),
        math.prod(2 * r + 1 for r in radii),
    )

    hyp_points = [
        tuple(c + o for c, o in zip(center, off)) for off in box_offsets(radii)
    ]
    test_ranges = [
        range(center[i] - 2 * radii[i] - 1, center[i] + 2 * radii[i] + 2)
        for i in range(d)
    ]
    test_points = [tuple(p) for p in itertools.product(*test_ranges)]
    params = {
        "r": list(radii),
        "center": list(center),
        "d": d,
        "edge_preset": "l1",
        "alpha_hint": "1/4",
    }
    name = f"box_d{d}_r{'x'.join(str(r) for r in radii)}"
    return _localization_instance(
        name, "box_localization", params, box_offsets(radii), hyp_points, test_points
    )


def _check_shape(offsets: list[tuple[int, ...]], d: int) -> None:
    offset_set = set(offsets)
    for p in offsets:
        for i in range(d):
            q = list(p)
            q[i] = -q[i]
            if tuple(q) not in offset_set:
                raise NotAxisSymmetric(
                    f"offset {p} has no mirror through axis {i}"
                )
    lines: dict[tuple, list[int]] = {}
    for p in offsets:
        for i in range(d):
            key = (i,) + p[:i] + p[i + 1 :]
            lines.setdefault(key, []).append(p[i])
    for key, vals in lines.items():
        if max(vals) - min(vals) + 1 != len(set(vals)):
            raise NotAxisConvex(
                f"axis-{key[0]} segment through {key[1:]} has gaps"
            )


def gen_shape_localization(
    offsets: list[tuple[int, ...]], center: tuple[int, ...] | None = None
) -> Instance:
    """Localization through an arbitrary axis-symmetric, axis-convex shape."""
    offsets = sorted(tuple(int(c) for c in p) for p in offsets)
    if not offsets:
        raise BadParams("shape needs at least one offset")
    d = len(offsets[0])
    if any(len(p) != d for p in offsets):
        raise BadParams("offsets must share one dimension")
    _check_shape(offsets, d)
    center = tuple(int(c) for c in (center or (0,) * d))
    if len(center) != d:
        raise BadParams("center dimension must match offsets")

    hyp_points = [tuple(c + o for c, o in zip(center, off)) for off in offsets]
    bbox = [max(abs(p[i]) for p in offsets) for i in range(d)]
    test_ranges = [
        range(
            min(z[i] for z in hyp_points) - bbox[i] - 1,
            max(z[i] for z in hyp_points) + bbox[i] + 2,
        )
        for i in range(d)
    ]
    _check_size("shape_localization", math.prod(map(len, test_ranges)), len(hyp_points))
    test_points = [tuple(p) for p in itertools.product(*test_ranges)]
    params = {
        "offsets": [list(p) for p in offsets],
        "center": list(center),
        "d": d,
        "edge_preset": "l1",
        "alpha_hint": rational_text(Fraction(1, 4 * d + 1)),
    }
    name = f"shape_d{d}_s{len(offsets)}"
    return _localization_instance(
        name, "shape_localization", params, offsets, hyp_points, test_points
    )


# ---------------------------------------------------------------------------
# Discrete linear classifiers


def _weight_id(w: Sequence[int], b: int) -> str:
    symbols = "".join("+" if wi > 0 else "-" if wi < 0 else "0" for wi in w)
    return f"w{symbols}b{b}"


def gen_discrete_linear(d: int, r: Fraction | int) -> Instance:
    """Thresholded {-1,0,1} weight vectors with balanced over/undershoot.

    Keeps every (w, b) with w in {-1,0,1}^d, b in [-d, d] whose overshoot
    w+ - b and undershoot w- + b stay within ratio r of each other (minus a
    d/8 margin), then collapses classifiers with identical outcome rows.
    """
    r = Fraction(r)
    if d < 1 or r <= 0:
        raise BadParams(f"discrete linear needs d >= 1 and r > 0, got d={d}, r={r}")
    cube = _cube_tests("discrete_linear", d)
    margin = Fraction(d, 8)

    feasible_b: dict[tuple[int, int], list[int]] = {}
    for plus in range(d + 1):
        for minus in range(d + 1 - plus):
            bs = [
                b
                for b in range(-d, d + 1)
                if plus - b <= r * (minus + b) - margin
                and minus + b <= r * (plus - b - 1) - margin
            ]
            if bs:
                feasible_b[(plus, minus)] = bs

    if not feasible_b:
        raise EmptyFamily(f"no (w, b) satisfies the constraints at d={d}, r={r}")
    # Every feasible (w, b) builds its outcome row before duplicates are dropped.
    candidates = sum(
        math.comb(d, plus) * math.comb(d - plus, minus) * len(bs)
        for (plus, minus), bs in feasible_b.items()
    )
    _check_size("discrete_linear", cube, candidates)

    tests, test_masks = _hypercube(d)
    # Every w in {-1,0,1}^d in itertools.product order, then each feasible
    # (w, b) as a (w index, w+ mask, w- mask, b) key, b ascending within w.
    weights = np.indices((3,) * d, dtype=np.int8).reshape(d, -1).T - 1
    bits = np.int64(1) << np.arange(d, dtype=np.int64)
    plus_masks = ((weights > 0) * bits).sum(axis=1).tolist()
    minus_masks = ((weights < 0) * bits).sum(axis=1).tolist()
    keys = [
        (index, plus_masks[index], minus_masks[index], b)
        for index, (plus, minus) in enumerate(
            zip((weights > 0).sum(axis=1).tolist(), (weights < 0).sum(axis=1).tolist())
        )
        for b in feasible_b.get((plus, minus), ())
    ]

    def above_threshold(test_masks: np.ndarray, block: np.ndarray) -> np.ndarray:
        dots = np.bitwise_count(test_masks & block[:, 1:2]).astype(np.int16)
        dots -= np.bitwise_count(test_masks & block[:, 2:3])
        return dots > block[:, 3:]

    # The first (w, b) of each distinct row is kept, in key order.
    first_key: dict[str, int] = {}
    for position, outcomes in enumerate(_outcome_rows(test_masks, keys, above_threshold)):
        first_key.setdefault(outcomes, position)
    hypotheses = []
    for outcomes, position in first_key.items():
        index, _, _, b = keys[position]
        w = weights[index].tolist()
        hypotheses.append(
            {"id": _weight_id(w, b), "outcomes": outcomes, "meta": {"w": w, "b": b}}
        )

    alpha = Fraction(1, max(16, 8 * r))
    params = {
        "d": d,
        "r": rational_text(r),
        "b_range": [-d, d],
        "edge_preset": "l1",
        "alpha_hint": rational_text(alpha),
    }
    name = f"linear_d{d}_r{r.numerator}" + (
        f"_{r.denominator}" if r.denominator != 1 else ""
    )
    return _build(name, "discrete_linear", params, tests, hypotheses)


def gen_linear_kcase(d: int) -> Instance:
    """Half-ones weight vectors at threshold d/4 - 1 (the high-disagreement case)."""
    if d % 4 != 0 or d < 4:
        raise BadParams(f"linear_kcase needs d divisible by 4, got {d}")
    _check_size("linear_kcase", _cube_tests("linear_kcase", d), math.comb(d, d // 2))
    b = d // 4 - 1
    tests, test_masks = _hypercube(d)
    supports = list(itertools.combinations(range(d), d // 2))
    rows = _outcome_rows(
        test_masks,
        [sum(1 << i for i in ones) for ones in supports],
        lambda tests, block: np.bitwise_count(tests & block[:, None]) > b,
    )
    hypotheses = []
    for ones, outcomes in zip(supports, rows):
        w = [1 if i in ones else 0 for i in range(d)]
        hypotheses.append(
            {"id": _weight_id(w, b), "outcomes": outcomes, "meta": {"w": w, "b": b}}
        )
    params = {"d": d, "b": b, "edge_preset": "l1"}
    return _build(f"linear_kcase_d{d}", "linear_kcase", params, tests, hypotheses)


# ---------------------------------------------------------------------------
# Negative-certificate families


def gen_counterexample_disjunction(m: int) -> Instance:
    """d = m+1 variables, one disjunction per omitted variable.

    The family whose best full-space split is exactly 1/(m+1), certifying
    that no test reaches a 1/m split constant.
    """
    if m < 2:
        raise BadParams(f"cx_disjunction needs m >= 2, got {m}")
    d = m + 1
    _check_size("cx_disjunction", _cube_tests("cx_disjunction", d), d)
    tests, test_masks = _hypercube(d)
    var_sets = [[v for v in range(1, d + 1) if v != omitted] for omitted in range(1, d + 1)]
    rows = _outcome_rows(test_masks, [_var_mask(v) for v in var_sets], _any_variable)
    hypotheses = [
        {
            "id": "|".join(f"x{v}" for v in variables),
            "outcomes": outcomes,
            "meta": {"vars": variables, "omitted": omitted},
        }
        for omitted, (variables, outcomes) in enumerate(zip(var_sets, rows), 1)
    ]
    params = {"m": m, "d": d, "edge_preset": "l1"}
    return _build(f"cx_disjunction_m{m}", "cx_disjunction", params, tests, hypotheses)


def gen_counterexample_plus(d: int, l: int) -> Instance:
    """Plus-shaped sensing field with hypotheses at the 2d arm tips.

    Tests are restricted to the axis-aligned dilation of the arms (radius
    2l+1 per axis); on that region the best full-space split is exactly
    1/(2d), below the 1/(2d-1) threshold.  Off-axis grid points would break
    the certificate by pairing tips, so they are deliberately excluded.
    """
    if d < 2 or l < 1:
        raise BadParams(f"cx_plus needs d >= 2 and l >= 1, got d={d}, l={l}")
    # Tests: the origin and 2(2l+1) points per axis; hypotheses: the 2d arm tips.
    _check_size("cx_plus", 1 + 2 * d * (2 * l + 1), 2 * d)
    offsets = plus_offsets(d, l)
    tips = []
    for i in range(d):
        for sign in (-1, 1):
            p = [0] * d
            p[i] = sign * l
            tips.append(tuple(p))
    tips.sort()
    test_points = sorted(set(plus_offsets(d, 2 * l + 1)))
    params = {"d": d, "l": l, "edge_preset": "l1"}
    return _localization_instance(
        f"cx_plus_d{d}_l{l}", "cx_plus", params, offsets, tips, test_points
    )


# ---------------------------------------------------------------------------
# Registry and CLI-facing parameter handling


def _as_int(params: dict, key: str) -> int:
    try:
        return int(params[key])
    except KeyError:
        raise BadParams(f"missing required param {key!r}") from None
    except ValueError:
        raise BadParams(f"param {key!r} must be an integer") from None


def _as_bool(params: dict, key: str, default: bool) -> bool:
    if key not in params:
        return default
    value = str(params[key]).strip().lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise BadParams(f"param {key!r} must be a boolean, got {params[key]!r}")


def _as_int_list(params: dict, key: str) -> list[int]:
    try:
        raw = params[key]
    except KeyError:
        raise BadParams(f"missing required param {key!r}") from None
    if isinstance(raw, (list, tuple)):
        return [int(v) for v in raw]
    try:
        return [int(part) for part in str(raw).split(",") if part != ""]
    except ValueError:
        raise BadParams(f"param {key!r} must be a comma list of integers") from None


def _parse_offsets(raw: str) -> list[tuple[int, ...]]:
    try:
        return [
            tuple(int(c) for c in point.split(","))
            for point in raw.split(";")
            if point != ""
        ]
    except ValueError:
        raise BadParams("offsets must look like 'x,y;x,y;...'") from None


def _center(params: dict) -> list[int] | None:
    return _as_int_list(params, "center") if "center" in params else None


def _shape_offsets(params: dict) -> list[tuple[int, ...]]:
    if "offsets" in params:
        return _parse_offsets(str(params["offsets"]))
    if "l1_radius" in params:
        d, radius = _as_int(params, "d"), _as_int(params, "l1_radius")
        _check_l1_ball(d, radius)
        return l1_ball_offsets(d, radius)
    raise BadParams("shape_localization needs offsets=... or d= and l1_radius=")


def _ratio(params: dict) -> Fraction:
    if "r" not in params:
        raise BadParams("missing required param 'r'")
    try:
        return parse_rational(str(params["r"]))
    except ValueError:
        raise BadParams("param 'r' must be a rational like 2 or 3/2") from None


# Each family's generator, fed from CLI-style string parameters.
_GENERATORS = {
    "convex_polygon": lambda p: gen_convex_polygon(_as_int(p, "m"), _as_bool(p, "balanced", True)),
    "disjunction": lambda p: gen_disjunction(_as_int(p, "d"), _as_int(p, "m")),
    "monotone_cnf": lambda p: gen_monotone_cnf(_as_int(p, "d"), _as_int(p, "m"), _as_int(p, "l")),
    "box_localization": lambda p: gen_box_localization(_as_int_list(p, "r"), _center(p)),
    "shape_localization": lambda p: gen_shape_localization(_shape_offsets(p), _center(p)),
    # Keyword order keeps r read before d.
    "discrete_linear": lambda p: gen_discrete_linear(r=_ratio(p), d=_as_int(p, "d")),
    "linear_kcase": lambda p: gen_linear_kcase(_as_int(p, "d")),
    "cx_disjunction": lambda p: gen_counterexample_disjunction(_as_int(p, "m")),
    "cx_plus": lambda p: gen_counterexample_plus(_as_int(p, "d"), _as_int(p, "l")),
}

FAMILIES = tuple(_GENERATORS)


def generate(family: str, params: dict) -> Instance:
    """Build an instance from CLI-style string parameters."""
    generator = _GENERATORS.get(family)
    if generator is None:
        raise BadParams(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    return generator(params)
