"""Greedy bisection: one run against an oracle, or the whole decision tree.

The rule is the textbook one: query the test whose positive fraction over
the live version space is closest to 1/2, with ties to the lowest test index
so runs are bit-for-bit reproducible.  `best_split_test` is its only
implementation; it picks the test of every node in a batch from the nodes'
positive counts per test.  `run_gbs` calls it once per query and keeps the
members that fit the answer (`restrict`); it serves one simulated, scripted
(any answer callable) or interactive oracle.  `gbs_tree` calls it once per
depth on every live node and returns `CostStats`: the `run_gbs` query count
of every hidden hypothesis, from which the worst case and average are read,
and the least split any node chose, the per-step quantity that the split
bounds assume is at least beta.

Both read `Instance.outcomes`, the C-contiguous hypotheses x tests array,
so gathering a node's members copies whole contiguous rows.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import IO

import numpy as np

from . import kernels
from .core import Instance


class InconsistentOracle(ValueError):
    """The answer stream broke off or gave something other than 0 or 1."""


class QueryBudgetExceeded(RuntimeError):
    """No test splits a live version space of >= 2 hypotheses.

    Identifiability rules this out on a validated instance, so it signals a
    bug, not a long run; the CLI exits 3 on it.
    """


@dataclass(frozen=True)
class Step:
    test_id: str
    outcome: int
    remaining: int  # version-space size after the update


@dataclass(frozen=True)
class Transcript:
    oracle_id: str
    steps: tuple[Step, ...]
    identified: str

    @property
    def query_count(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class CostStats:
    per_oracle: dict[str, int]  # hypothesis id -> queries until identified, in instance order
    min_chosen_split: Fraction | None  # least split chosen at any node; None when n = 1

    @property
    def worst_case(self) -> int:
        return max(self.per_oracle.values())

    @property
    def average(self) -> Fraction:
        return Fraction(sum(self.per_oracle.values()), len(self.per_oracle))


AnswerSource = Callable[[int], int]


def hypothesis_oracle(instance: Instance, hypothesis: int) -> AnswerSource:
    """Answers every test the way one fixed hypothesis would."""
    row = instance.outcomes[hypothesis]
    return lambda x: int(row[x])


def best_split_test(
    ones: np.ndarray, sizes: Sequence[int] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The greedy step for every node: its first test with the largest split.

    ``ones`` holds each node's positive count per test (nodes x tests, in an
    integer type that holds every node size), ``sizes`` each node's size.
    The counts are folded to ``min(ones, size - ones)`` in a new array, and
    ``argmax`` takes the first maximum.  Returns per node the chosen test
    and its split count, the size of the node's smaller child.
    """
    sizes = np.asarray(sizes, dtype=ones.dtype)
    folded = np.subtract(sizes[:, None], ones)
    np.minimum(folded, ones, out=folded)
    tests = folded.argmax(axis=1)
    best = folded[np.arange(sizes.size), tests]
    if not best.all():
        size = int(sizes[best == 0][0])
        raise QueryBudgetExceeded(f"no test splits a version space of {size} hypotheses")
    return tests, best


def restrict(outcomes: np.ndarray, members: np.ndarray, x: int, y: int) -> np.ndarray:
    """The members that answer y on test x."""
    return members[outcomes[members, x] == y]


def run_gbs(instance: Instance, answer: AnswerSource, oracle_id: str = "oracle") -> Transcript:
    """Query the greedy test of the live version space until one hypothesis remains.

    Every chosen test splits the space, so the run ends within n - 1
    queries.  An answer must be 0 or 1 as an integer (a bool or numpy
    integer) or numpy bool; 1.7 or "1" raises `InconsistentOracle`.
    """
    outcomes = instance.outcomes
    dtype = np.min_scalar_type(instance.n)  # every count is at most n
    members = np.arange(instance.n)
    steps: list[Step] = []
    while members.size > 1:
        tests, _ = best_split_test(outcomes[members].sum(axis=0, dtype=dtype)[None], [members.size])
        x = int(tests[0])
        given = answer(x)
        try:
            y = operator.index(given)
        except TypeError:
            y = int(given) if isinstance(given, np.bool_) else None
        if y not in (0, 1):
            raise InconsistentOracle(f"oracle answered {given!r}, expected 0 or 1")
        members = restrict(outcomes, members, x, y)
        steps.append(Step(instance.test_ids[x], y, members.size))
    return Transcript(oracle_id, tuple(steps), instance.hypothesis_ids[members[0]])


def gbs_tree(instance: Instance) -> CostStats:
    """Query counts with each hypothesis as the hidden truth, from one greedy tree.

    The tree of `run_gbs` is built once, one depth at a time.  Live nodes
    (>= 2 members) carry their counts per test, and one `best_split_test`
    call chooses a whole depth's tests.  A node of two members ends in two
    leaves.  For every other node only the smaller child's rows are summed;
    the larger child's counts are the parent's minus those (sibling
    subtraction), exact since the smaller child is a subset.  Ranked by
    smaller-child size, the smaller children of one size are one run of
    members, summed as one (nodes, size, tests) block.
    """
    n = instance.n
    if n == 1:
        return CostStats({instance.hypothesis_ids[0]: 0}, None)
    outcomes = instance.outcomes
    dtype = np.min_scalar_type(n)  # every count is at most n
    depths = np.zeros(n, dtype=np.int64)
    members = np.arange(n)  # live hypotheses, grouped by node
    sizes = np.array([n])
    ones = outcomes.sum(axis=0, dtype=dtype)[None]
    chosen_splits, node_sizes = [], []
    depth = 0
    while sizes.size:
        tests, best = best_split_test(ones, sizes)
        chosen_splits.append(best)
        node_sizes.append(sizes)
        depth += 1
        best = best.astype(np.intp)  # uint8/16 compares and sorts would load more numpy code
        nodes = np.arange(sizes.size)
        node = np.repeat(nodes, sizes)
        # Per member: does it go to the smaller child (the positive one on a tie)?
        small = outcomes[members, tests[node]] == (ones[nodes, tests] == best)[node]
        # Members sort by slot: -1 for both leaves of a two-member node, then
        # the ranked smaller children, then their larger siblings.
        split = np.flatnonzero(sizes > 2)
        ranked = split[np.argsort(best[split], kind="stable")]
        k = ranked.size
        slot = np.full((sizes.size, 2), -1)
        slot[ranked, 1] = np.arange(k)
        slot[ranked, 0] = np.arange(k, 2 * k)
        members = members[np.argsort(slot[node, small.astype(np.intp)], kind="stable")]
        per_size = np.bincount(best[ranked], minlength=2)
        singles = int(per_size[1])  # smaller children of one member are leaves
        start = 2 * (sizes.size - k)
        leaves = members[: start + singles]
        depths[leaves] = depth
        counts = np.empty((2 * k, ones.shape[1]), dtype=dtype)
        row = 0
        for s in np.flatnonzero(per_size).tolist():
            c = int(per_size[s])
            block = outcomes[members[start : start + c * s].reshape(c, s)]
            block.sum(axis=1, dtype=dtype, out=counts[row : row + c])
            start, row = start + c * s, row + c
        larger = counts[k:]
        np.take(ones, ranked, axis=0, out=larger)
        np.subtract(larger, counts[:k], out=larger)
        members = members[leaves.size :]
        ones = counts[singles:]
        sizes = np.concatenate((best[ranked], sizes[ranked] - best[ranked]))[singles:]
    num, den, _ = kernels._first_min(
        np.concatenate(chosen_splits).astype(np.int64), np.concatenate(node_sizes)
    )
    return CostStats(dict(zip(instance.hypothesis_ids, depths.tolist())), Fraction(num, den))


def interactive_session(instance: Instance, reader: IO[str], writer: IO[str]) -> Transcript:
    """Run the loop against a line channel playing the hidden hypothesis.

    Protocol: one ``QUERY <test-id> <meta-json>`` line per question, answered
    by a ``0`` or ``1`` line (anything else is re-prompted); ends with
    ``IDENTIFIED <hypothesis-id>``.
    """

    def answer(x: int) -> int:
        meta_json = json.dumps(instance.test_meta[x] or {}, sort_keys=True, separators=(",", ":"))
        while True:
            writer.write(f"QUERY {instance.test_ids[x]} {meta_json}\n")
            writer.flush()
            line = reader.readline()
            if line == "":
                raise InconsistentOracle("answer channel closed mid-session")
            token = line.strip()
            if token in ("0", "1"):
                return int(token)

    transcript = run_gbs(instance, answer, "interactive")
    writer.write(f"IDENTIFIED {transcript.identified}\n")
    writer.flush()
    return transcript
