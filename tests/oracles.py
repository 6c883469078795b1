"""Independent brute-force oracles used to compute expected test values.

Everything here works from plain outcome strings, sets, and Fractions, with
no bitsets and none of the library's indexing or kernels, so a library bug
cannot hide in its own oracle.

Two sections are references rather than independent oracles: the rational
tableau simplex that the integer game solver must match pivot for pivot,
and plain-Python loops over int bitsets that define what the vectorized
subset kernels, mask restriction (``prepare_masks``), ``min_k``, the
sampled-subset draw, the adjacency presets (``loop_adjacency_pairs``) and
the batched edge pass must return, witnesses and
unreduced ``(num, den)`` pairs included.  Their int-bitset inputs come from ``columns_of``, which
reads the outcome strings, not the library's outcome array.
``dumps_canonical_bytes`` is the one-call ``json.dumps`` encoding whose bytes
``persistence.canonical_bytes`` must reproduce.

The last section keeps the ``gen`` pipeline as it ran one character and one
record at a time: string-loop outcome rows for the hypercube families,
``loop_validate_instance``, the per-record check whose first fault (class
and message) and whose accepted instance ``validate_instance`` must match,
built from plain (id, outcomes, meta) tuples, and ``instance_to_document``,
the per-record document, zipped from the instance's columns, whose canonical
bytes ``persistence.instance_bytes`` must write.  ``report_to_document``
likewise keeps the analysis report as one dict per edge, the document whose
canonical bytes ``persistence.write_report`` must write.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

import numpy as np

from splitfinder import core


def split_of(rows: list[str], members: list[int], x: int) -> Fraction:
    ones = sum(1 for h in members if rows[h][x] == "1")
    p = Fraction(ones, len(members))
    return min(p, 1 - p)


def p_one_of(rows: list[str], members: list[int], x: int) -> Fraction:
    return Fraction(sum(1 for h in members if rows[h][x] == "1"), len(members))


def best_split(rows: list[str], members: list[int]) -> tuple[int, Fraction]:
    m_tests = len(rows[0])
    best_x, best_value = 0, Fraction(-1)
    for x in range(m_tests):
        value = split_of(rows, members, x)
        if value > best_value:
            best_x, best_value = x, value
    return best_x, best_value


def ones_per_test(rows: list[str], nodes) -> np.ndarray:
    """Per node (a list of hypotheses) and test, the members that answer 1.

    The nodes x tests counts that `engine.best_split_test` takes, by a
    plain loop over the outcome strings.
    """
    return np.array(
        [[sum(rows[h][x] == "1" for h in node) for x in range(len(rows[0]))] for node in nodes],
        dtype=np.int64,
    )


def greedy_tree(rows: list[str]) -> tuple[list[tuple[tuple[int, int, int], ...]], Fraction | None]:
    """The greedy decision tree, grown recursively from `best_split`.

    Returns, per hypothesis, its query path as (test, answer, hypotheses
    left) steps, so its depth is the path length, and the least split any
    node chose (None with a single hypothesis).  A node no test splits
    raises ValueError.
    """
    paths: dict[int, tuple[tuple[int, int, int], ...]] = {}
    least: list[Fraction] = []

    def grow(members: list[int], path: tuple[tuple[int, int, int], ...]) -> None:
        if len(members) == 1:
            paths[members[0]] = path
            return
        x, value = best_split(rows, members)
        if value == 0:
            raise ValueError(f"no test splits {members}")
        least.append(value)
        for answer in (0, 1):
            child = [h for h in members if rows[h][x] == str(answer)]
            grow(child, path + ((x, answer, len(child)),))

    grow(list(range(len(rows))), ())
    return [paths[h] for h in range(len(rows))], min(least, default=None)


def delta_members(rows: list[str], x: int, x_prime: int) -> list[int]:
    return [h for h in range(len(rows)) if rows[h][x] == "0" and rows[h][x_prime] == "1"]


def min_subset_split(rows: list[str], pool: list[int]) -> Fraction:
    """Minimum over subsets of pool (size >= 2) of the best split any test gives."""
    worst = Fraction(1, 2)
    for size in range(2, len(pool) + 1):
        for subset in itertools.combinations(pool, size):
            worst = min(worst, best_split(rows, list(subset))[1])
    return worst


def disagreement_count(rows: list[str], i: int, j: int) -> int:
    return sum(1 for row in rows if row[i] != row[j])


def connected_at_threshold(rows: list[str], k: int) -> bool:
    """Is the graph with edges 'disagreement <= k' connected?  Plain BFS."""
    m = len(rows[0])
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(m):
            if j not in seen and disagreement_count(rows, i, j) <= k:
                seen.add(j)
                frontier.append(j)
    return len(seen) == m


def loop_adjacency_pairs(instance) -> list[tuple[int, int]] | None:
    """Neighbour pairs with one loop per test geometry: grid coords, cycle, bit-string ids."""
    ids, metas = instance.test_ids, instance.test_meta
    if all(meta and "coords" in meta for meta in metas):
        index = {tuple(meta["coords"]): i for i, meta in enumerate(metas)}
        pairs = []
        for i, meta in enumerate(metas):
            coords = tuple(meta["coords"])
            for dim in range(len(coords)):
                for delta in (-1, 1):
                    shifted = list(coords)
                    shifted[dim] += delta
                    j = index.get(tuple(shifted))
                    if j is not None:
                        pairs.append((i, j))
        return sorted(set(pairs))
    if all(meta and "cycle_index" in meta for meta in metas):
        m = len(metas)
        by_cycle = sorted(range(m), key=lambda i: metas[i]["cycle_index"])
        pairs = []
        for pos in range(m):
            i, j = by_cycle[pos], by_cycle[(pos + 1) % m]
            pairs.extend([(i, j), (j, i)])
        return sorted(set(pairs))
    length = len(ids[0])
    if all(len(i) == length and not i.strip("01") for i in ids):
        index = {tid: i for i, tid in enumerate(ids)}
        pairs = []
        for i, tid in enumerate(ids):
            for pos in range(len(tid)):
                flipped = tid[:pos] + ("1" if tid[pos] == "0" else "0") + tid[pos + 1 :]
                j = index.get(flipped)
                if j is not None:
                    pairs.append((i, j))
        return sorted(set(pairs))
    return None


def strongly_connected(n_nodes: int, edges: list[tuple[int, int]]) -> bool:
    """Reachability closure from every node (deliberately not the library's method)."""
    adjacency = {i: set() for i in range(n_nodes)}
    for a, b in edges:
        adjacency[a].add(b)
    for start in range(n_nodes):
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) != n_nodes:
            return False
    return True


def optimal_tree_depth(rows: list[str], members: frozenset[int], memo=None) -> int:
    """Exact optimal worst-case depth via frozenset recursion (no bitmasks)."""
    if memo is None:
        memo = {}
    if len(members) == 1:
        return 0
    if members in memo:
        return memo[members]
    m_tests = len(rows[0])
    best = None
    for x in range(m_tests):
        yes = frozenset(h for h in members if rows[h][x] == "1")
        no = members - yes
        if not yes or not no:
            continue
        depth = 1 + max(
            optimal_tree_depth(rows, yes, memo), optimal_tree_depth(rows, no, memo)
        )
        if best is None or depth < best:
            best = depth
    memo[members] = best
    return best


def expected_outcome(rows: list[str], weights: dict[int, Fraction], h: int) -> Fraction:
    return sum((w for x, w in weights.items() if rows[h][x] == "1"), Fraction(0))


def certificate_value(rows: list[str], weights: dict[int, Fraction]) -> Fraction:
    worst = Fraction(1, 2)
    for h in range(len(rows)):
        e = expected_outcome(rows, weights, h)
        worst = min(worst, e, 1 - e)
    return worst


def count_arcs_containing(m: int, lengths: range, vertex: int, excluded: int) -> int:
    """Contiguous arcs on an m-cycle (lengths drawn from `lengths`) that contain
    `vertex` but not `excluded`."""
    count = 0
    for start in range(m):
        for length in lengths:
            arc = {(start + offset) % m for offset in range(length)}
            if vertex in arc and excluded not in arc:
                count += 1
    return count


# ---------------------------------------------------------------------------
# Reference game solver: a Fraction tableau on the unreduced coherence game


def fraction_matrix_game_value(matrix: list[list]) -> tuple[Fraction, list[Fraction]]:
    """Value and row strategy by a rational-tableau simplex with Bland's rule.

    The packing LP ``max 1'w, A w <= 1, w >= 0`` of the game shifted
    positive has optimum 1/v; the row strategy is the slack duals over that
    optimum.  Entering: first negative reduced cost; leaving: least ratio,
    ties to the smaller basic index.
    """
    rows, cols = len(matrix), len(matrix[0])
    shift = 1 - min(Fraction(v) for row in matrix for v in row)
    width = cols + rows
    tableau = [
        [Fraction(v) + shift for v in row] + [Fraction(int(i == j)) for j in range(rows)] + [Fraction(1)]
        for i, row in enumerate(matrix)
    ]
    obj = [Fraction(-1)] * cols + [Fraction(0)] * (rows + 1)
    basis = [cols + i for i in range(rows)]
    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        leaving, best_ratio = None, None
        for i in range(rows):
            coeff = tableau[i][entering]
            if coeff <= 0:
                continue
            ratio = tableau[i][width] / coeff
            if best_ratio is None or ratio < best_ratio or (
                ratio == best_ratio and basis[i] < basis[leaving]
            ):
                best_ratio, leaving = ratio, i
        pivot_row = [v / tableau[leaving][entering] for v in tableau[leaving]]
        tableau[leaving] = pivot_row
        for i in range(rows):
            if i != leaving:
                factor = tableau[i][entering]
                tableau[i] = [v - factor * r for v, r in zip(tableau[i], pivot_row)]
        factor = obj[entering]
        obj = [v - factor * r for v, r in zip(obj, pivot_row)]
        basis[leaving] = entering
    total = obj[width]
    return 1 / total - shift, [obj[cols + i] / total for i in range(rows)]


def first_tests(rows: list[str]) -> list[int]:
    """The first test of each distinct test column: the coherence game's rows."""
    first: dict[str, int] = {}
    for x in range(len(rows[0])):
        first.setdefault("".join(row[x] for row in rows), x)
    return list(first.values())


def unreduced_coherence(rows: list[str]) -> tuple[Fraction, dict[int, Fraction]]:
    """Coherence game over every distinct (hypothesis, desired) payoff column.

    Rows are the distinct test columns (first test of each kept), columns
    every distinct payoff vector in first-seen order; returns the value and
    the test distribution, solved by ``fraction_matrix_game_value``.
    """
    reps = first_tests(rows)
    payoffs: dict[tuple[int, ...], None] = {}
    for row in rows:
        for desired in "10":
            payoffs.setdefault(tuple(int(row[x] == desired) for x in reps), None)
    matrix = [list(game_row) for game_row in zip(*payoffs)]
    value, strategy = fraction_matrix_game_value(matrix)
    return value, {reps[i]: w for i, w in enumerate(strategy) if w != 0}


# ---------------------------------------------------------------------------
# Bit-exact reference loops for ``splitfinder.kernels`` and mask restriction


def prepare_masks(masks: list[int], width: int) -> list[int]:
    """Clip to width, keep the smaller of each mask and its complement, drop zeros, sort."""
    full = (1 << width) - 1
    out = set()
    for m in masks:
        m &= full
        m = min(m, m ^ full)
        if m:
            out.add(m)
    return sorted(out)


def _best_split_count(masks: list[int], s: int, size: int) -> int:
    best = 0
    for m in masks:
        c = (s & m).bit_count()
        best = max(best, min(c, size - c))
    return best


def loop_min_subset_split(masks: list[int], width: int) -> tuple[int, int, int | None]:
    """Ascending scan; the first subset strictly below the running minimum wins."""
    best_num, best_den, witness = 1, 2, None
    for s in range(3, 1 << width):
        size = s.bit_count()
        if size < 2:
            continue
        best = _best_split_count(masks, s, size)
        if best * best_den < best_num * size:
            best_num, best_den, witness = best, size, s
    return best_num, best_den, witness


def loop_batch_min_split(masks: list[int], subsets: list[int]) -> tuple[int, int, int | None]:
    best_num, best_den, witness = 1, 2, None
    for s in subsets:
        size = s.bit_count()
        if size < 2:
            continue
        best = _best_split_count(masks, s, size)
        if best * best_den < best_num * size:
            best_num, best_den, witness = best, size, s
    return best_num, best_den, witness


def loop_sample_subsets(seed: int, size: int, samples: int) -> list[int]:
    """One ``getrandbits`` call per draw; draws with fewer than two members are replaced."""
    rng = random.Random(seed)
    draws = [rng.getrandbits(size) for _ in range(samples)]
    subsets = [s for s in draws if s.bit_count() >= 2]
    while len(subsets) < samples:
        s = rng.getrandbits(size)
        if s.bit_count() >= 2:
            subsets.append(s)
    return subsets


def columns_of(instance) -> tuple[int, ...]:
    """Per test, the int whose bit h is hypothesis h's outcome, read from the strings."""
    rows = list(instance.rows)
    return tuple(int("".join(col)[::-1], 2) for col in zip(*rows))


def loop_restricted_masks(columns: tuple[int, ...], members: tuple[int, ...]) -> list[int]:
    """Gather each column's member bits one by one, then fold, dedupe and sort."""
    width = len(members)
    full = (1 << width) - 1
    out = set()
    for col in columns:
        m = 0
        for k, h in enumerate(members):
            m |= ((col >> h) & 1) << k
        m = min(m, m ^ full)
        if m:
            out.add(m)
    return sorted(out)


def loop_edge_reports(
    instance,
    pairs: list[tuple[int, int]],
    limit: int,
    samples: int,
    seed: int,
    candidate_alpha: Fraction | None,
) -> list[tuple]:
    """The edge pass one pair at a time, as ``EdgeReport`` field tuples.

    Each pair's members come from the outcome strings and its masks from
    ``loop_restricted_masks``; deltas of at most one member are vacuous,
    up to ``limit`` members ``loop_min_subset_split`` scans every subset,
    and larger ones scan ``loop_sample_subsets(seed ^ index, ...)``.
    """
    rows = list(instance.rows)
    columns = columns_of(instance)
    out = []
    for index, (x, x_prime) in enumerate(pairs):
        members = tuple(delta_members(rows, x, x_prime))
        size = len(members)
        if size <= 1:
            out.append((x, x_prime, size, "verified_exhaustive", Fraction(1, 2), None, 0))
            continue
        masks = loop_restricted_masks(columns, members)
        if size <= limit:
            num, den, subset = loop_min_subset_split(masks, size)
            status, tried = "verified_exhaustive", 0
        else:
            subsets = loop_sample_subsets(seed ^ index, size, samples)
            num, den, subset = loop_batch_min_split(masks, subsets)
            below = candidate_alpha is not None and Fraction(num, den) < candidate_alpha
            status, tried = ("falsified_witness" if below else "unknown_sampled"), samples
        witness = None if subset is None else tuple(h for k, h in enumerate(members) if subset >> k & 1)
        out.append((x, x_prime, size, status, Fraction(num, den), witness, tried))
    return out


def loop_min_k(columns: tuple[int, ...]) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Kruskal over every test pair, sorted as (weight, i, j) tuples."""
    m = len(columns)
    if m == 1:
        return 0, ()
    edges = sorted(
        ((columns[i] ^ columns[j]).bit_count(), i, j)
        for i in range(m)
        for j in range(i + 1, m)
    )
    parent = list(range(m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    picked: list[tuple[int, int, int]] = []
    k = 0
    for weight, i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        parent[ri] = rj
        picked.append((weight, i, j))
        k = weight
        if len(picked) == m - 1:
            break
    return k, tuple(picked)


def dumps_canonical_bytes(document) -> bytes:
    """The canonical encoding in one ``json.dumps`` call, all tokens joined at once."""
    return (json.dumps(document, sort_keys=True, indent=1) + "\n").encode("utf-8")


def delta_set(instance, x: int, x_prime: int) -> np.ndarray:
    """Indices, ascending, of the hypotheses answering 0 on x and 1 on x_prime, from the strings."""
    rows = list(instance.rows)
    return np.array(delta_members(rows, x, x_prime), dtype=np.intp)


# ---------------------------------------------------------------------------
# Reference copies of the ``gen`` pipeline as one record and one character at
# a time: the outcome rows of the hypercube families, ``validate_instance``
# and the instance document that ``persistence.instance_bytes`` renders.


def _cube_tests(d: int) -> list[int]:
    """One mask per test of the d-cube, in id order; bit v-1 is character v-1 of the id."""
    return [int(format(k, f"0{d}b")[::-1], 2) for k in range(1 << d)]


def _bits(variables) -> int:
    return sum(1 << (v - 1) for v in variables)


def _row(cube: list[int], predicate) -> str:
    return "".join("1" if predicate(t) else "0" for t in cube)


def loop_disjunction(d: int, m: int) -> list[tuple]:
    """(id, outcomes, meta) of every hypothesis of ``gen_disjunction(d, m)``."""
    cube = _cube_tests(d)
    out = []
    for size in range(1, m + 1):
        for variables in itertools.combinations(range(1, d + 1), size):
            mask = _bits(variables)
            out.append(("|".join(f"x{v}" for v in variables), _row(cube, lambda t: t & mask),
                        {"vars": list(variables)}))
    return out


def loop_monotone_cnf(d: int, m: int, l: int) -> list[tuple]:
    """(id, outcomes, meta) of ``gen_monotone_cnf(d, m, l)``: l disjoint m-clauses,
    each collection once, clauses ordered by least element."""
    cube = _cube_tests(d)
    clause_sets = []

    def rec(available, floor, acc):
        if len(acc) == l:
            clause_sets.append(acc)
            return
        for clause in itertools.combinations([v for v in available if v > floor], m):
            rec(tuple(v for v in available if v not in clause), clause[0], acc + (clause,))

    rec(tuple(range(1, d + 1)), 0, ())
    out = []
    for clauses in clause_sets:
        masks = [_bits(c) for c in clauses]
        out.append((
            "&".join("(" + "|".join(f"x{v}" for v in c) + ")" for c in clauses),
            _row(cube, lambda t: all(t & c for c in masks)),
            {"clauses": [list(c) for c in clauses]},
        ))
    return out


def _weight_id(w, b: int) -> str:
    return "w" + "".join("+" if wi > 0 else "-" if wi < 0 else "0" for wi in w) + f"b{b}"


def loop_discrete_linear(d: int, r: Fraction) -> list[tuple]:
    """(id, outcomes, meta) of ``gen_discrete_linear(d, r)``, the first (w, b) of each row kept."""
    margin = Fraction(d, 8)
    cube = _cube_tests(d)
    out, seen = [], set()
    for w in itertools.product((-1, 0, 1), repeat=d):
        plus, minus = w.count(1), w.count(-1)
        w_plus = sum(1 << i for i, wi in enumerate(w) if wi > 0)
        w_minus = sum(1 << i for i, wi in enumerate(w) if wi < 0)
        for b in range(-d, d + 1):
            over, under = plus - b, minus + b
            if not (over <= r * under - margin and under <= r * (over - 1) - margin):
                continue
            row = _row(cube, lambda t: (t & w_plus).bit_count() - (t & w_minus).bit_count() > b)
            if row not in seen:
                seen.add(row)
                out.append((_weight_id(w, b), row, {"w": list(w), "b": b}))
    return out


def loop_linear_kcase(d: int) -> list[tuple]:
    """(id, outcomes, meta) of ``gen_linear_kcase(d)``."""
    cube = _cube_tests(d)
    b = d // 4 - 1
    out = []
    for ones in itertools.combinations(range(d), d // 2):
        mask = sum(1 << i for i in ones)
        w = [1 if i in ones else 0 for i in range(d)]
        row = _row(cube, lambda t: (t & mask).bit_count() > b)
        out.append((_weight_id(w, b), row, {"w": w, "b": b}))
    return out


def loop_cx_disjunction(m: int) -> list[tuple]:
    """(id, outcomes, meta) of ``gen_counterexample_disjunction(m)``."""
    d = m + 1
    cube = _cube_tests(d)
    out = []
    for omitted in range(1, d + 1):
        variables = [v for v in range(1, d + 1) if v != omitted]
        mask = _bits(variables)
        out.append(("|".join(f"x{v}" for v in variables), _row(cube, lambda t: t & mask),
                    {"vars": variables, "omitted": omitted}))
    return out


def loop_validate_instance(raw):
    """``validate_instance`` as it ran one record at a time: the reference for
    the exception class and message of the first fault, in document order,
    and for the instance a valid document builds.  Only JSON's own types
    pass: lists, dicts, str, int (not bool) and null."""

    def records(key):
        entries = raw.get(key)
        if not entries:
            raise core.EmptyInstance(f"instance has no {key}")
        if type(entries) is not list:
            raise core.MalformedInstance(f"{key!r} must be a list of objects")
        for position, entry in enumerate(entries):
            if type(entry) is not dict or "id" not in entry:
                raise core.MalformedInstance(f"{key}[{position}] must be an object with an 'id'")
            if type(entry["id"]) is not str:
                raise core.MalformedInstance(f"{key}[{position}]: 'id' must be a string")
            meta = entry.get("meta")
            if meta is not None and type(meta) is not dict:
                raise core.MalformedInstance(f"{key}[{position}]: 'meta' must be an object")
        return entries

    tests_raw = records("tests")
    hyps_raw = records("hypotheses")
    tests = []  # (id, meta)
    seen_test_ids = set()
    for entry in tests_raw:
        tid = entry["id"]
        if tid in seen_test_ids:
            raise core.DuplicateId(f"duplicate test id {tid!r}")
        seen_test_ids.add(tid)
        tests.append((tid, entry.get("meta") or None))

    m_tests = len(tests)
    hypotheses = []  # (id, outcomes, meta)
    seen_hyp_ids = set()
    seen_rows = {}
    for entry in hyps_raw:
        hid = entry["id"]
        if hid in seen_hyp_ids:
            raise core.DuplicateId(f"duplicate hypothesis id {hid!r}")
        seen_hyp_ids.add(hid)
        outcomes = entry.get("outcomes")
        if type(outcomes) is not str:
            raise core.InvalidOutcome(f"hypothesis {hid!r}: outcomes must be a string")
        if len(outcomes) != m_tests:
            raise core.RowLengthMismatch(
                f"hypothesis {hid!r}: row length {len(outcomes)} != {m_tests} tests"
            )
        if any(c not in "01" for c in outcomes):
            raise core.InvalidOutcome(f"hypothesis {hid!r}: outcomes must be '0'/'1'")
        if outcomes in seen_rows:
            raise core.DuplicateOutcomeRow(
                f"hypotheses {seen_rows[outcomes]!r} and {hid!r} share an outcome row"
            )
        seen_rows[outcomes] = hid
        hypotheses.append((hid, outcomes, entry.get("meta") or None))

    dim = None
    for rid, *_, meta in (*tests, *hypotheses):
        meta = meta or {}
        if "cycle_index" in meta and type(meta["cycle_index"]) is not int:
            raise core.InvalidMeta(f"record {rid!r}: cycle_index must be an integer")
        if "coords" not in meta:
            continue
        coords = meta["coords"]
        if type(coords) is not list or not all(type(c) is int for c in coords):
            raise core.InvalidMeta(f"record {rid!r}: coords must be a list of integers")
        if dim is None:
            dim = len(coords)
        elif len(coords) != dim:
            raise core.InvalidMeta(f"record {rid!r}: coords dimension {len(coords)} != {dim}")

    params = raw.get("params")
    if params is None:
        params = {}
    if type(params) is not dict:
        raise core.MalformedInstance("'params' must be an object")
    for key in ("name", "family"):
        if type(raw.get(key, "")) is not str:
            raise core.MalformedInstance(f"{key!r} must be a string")

    test_ids, test_meta = zip(*tests)
    hypothesis_ids, rows, hypothesis_meta = zip(*hypotheses)
    outcomes = np.array([[c == "1" for c in row] for row in rows], dtype=bool)
    return core.Instance(
        name=raw.get("name", ""),
        family=raw.get("family", ""),
        params=dict(params),
        test_ids=test_ids,
        test_meta=test_meta,
        hypothesis_ids=hypothesis_ids,
        rows=rows,
        hypothesis_meta=hypothesis_meta,
        outcomes=outcomes.reshape(len(rows), m_tests),
    )


def instance_to_document(instance) -> dict:
    """The instance's JSON document, one dict per record: the reference for
    the bytes ``persistence.instance_bytes`` writes from the records."""
    return {
        "schema_version": 1,
        "name": instance.name,
        "family": instance.family,
        "params": dict(instance.params),
        "tests": [
            {"id": tid, **({"meta": dict(meta)} if meta else {})}
            for tid, meta in zip(instance.test_ids, instance.test_meta)
        ],
        "hypotheses": [
            {"id": hid, "outcomes": row, **({"meta": dict(meta)} if meta else {})}
            for hid, row, meta in zip(instance.hypothesis_ids, instance.rows, instance.hypothesis_meta)
        ],
    }


def _rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _float12(value: float | None) -> float | str:
    return "unbounded" if value is None else float(f"{value:.12g}")


def report_to_document(report, instance) -> dict:
    """The analysis report's JSON document, one dict per edge: the reference
    for the bytes ``persistence.write_report`` writes from the edge reports."""
    tests, hypotheses = instance.test_ids, instance.hypothesis_ids
    instance_bytes = dumps_canonical_bytes(instance_to_document(instance))
    return {
        "schema_version": 1,
        "kind": "analysis_report",
        "instance_name": instance.name,
        "instance_digest": hashlib.sha256(instance_bytes).hexdigest(),
        "k_min": report.k_min,
        "coherence": {
            "distribution": {
                tests[x]: _rational(w) for x, w in sorted(report.coherence.distribution.items())
            },
            "value": _rational(report.coherence.value),
        },
        "edges": [
            {
                "from": tests[e.from_test],
                "to": tests[e.to_test],
                "delta_size": e.delta_size,
                "status": e.status,
                "edge_value": _rational(e.edge_value),
                "witness": None if e.witness is None else [hypotheses[h] for h in e.witness],
                "samples_tried": e.samples_tried,
            }
            for e in report.edges
        ],
        "alpha_star": _rational(report.alpha_star),
        "alpha_diagnostic": report.alpha_diagnostic,
        "beta": _rational(report.beta),
        "lambda": _rational(report.bounds.lam),
        "bound_nowak_worst": _float12(report.bounds.nowak_worst),
        "bound_split_worst": _float12(report.bounds.split_worst),
        "bound_split_average": _float12(report.bounds.split_average),
        "knobs": {
            "exhaustive_limit": report.exhaustive_limit,
            "samples": report.sample_count,
            "seed": report.seed,
            "edge_mode": report.edge_mode,
        },
    }
