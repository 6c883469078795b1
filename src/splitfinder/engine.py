"""Greedy bisection: one run against an oracle, or the whole decision tree.

The rule is the textbook one: query the test whose positive fraction over
the live version space is closest to 1/2, with ties to the lowest test index
so runs are bit-for-bit reproducible.  `best_split_test` is its only
implementation.  It takes a batch of nodes, each a contiguous run of
members, and picks every node's test in one numpy pass.

`run_gbs` calls it on a single node per query, then keeps the members that
fit the answer (`restrict`), until one hypothesis remains; it serves one
simulated, scripted or interactive oracle.  A scripted run is any answer
callable (test index -> 0 or 1) passed to `run_gbs`.  Query costs over
every hidden hypothesis come from `gbs_tree`, which calls it once per depth
on every live node, so each node is visited once instead of once per
hypothesis below it.  Its leaf depths equal the `run_gbs` query counts,
and it also reports the least split any node chose, the per-step quantity
that the split bounds assume is at least beta.

Both read `Instance.outcomes`, the C-contiguous hypotheses x tests array,
so gathering a node's members copies whole contiguous rows.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
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
    worst_case: int
    average: Fraction
    per_oracle: dict[str, int]
    # Least split chosen at any internal node (None when n = 1).  Not
    # serialized, so it takes no part in equality either.
    min_chosen_split: Fraction | None = field(default=None, compare=False)


@dataclass(frozen=True)
class GbsTree:
    depths: tuple[int, ...]  # per hypothesis: queries until it is identified
    min_chosen_split: Fraction | None  # None when there is no internal node


AnswerSource = Callable[[int], int]


def hypothesis_oracle(instance: Instance, hypothesis: int) -> AnswerSource:
    """Answers every test the way one fixed hypothesis would."""
    row = instance.outcomes[hypothesis]
    return lambda x: int(row[x])


def best_split_test(
    outcomes: np.ndarray, members: np.ndarray, starts: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The greedy step for every node: its first test with the largest split.

    ``outcomes`` is the hypotheses x tests bool matrix; ``members`` lists
    hypothesis rows grouped by node, and node i is the run that begins at
    ``starts[i]``.  The ones per (node, test) are summed with
    ``np.add.reduceat`` and folded to ``min(ones, size - ones)``; ``argmax``
    takes the first maximum, so ties go to the lowest test index.  Returns
    per node the chosen test, its split count and the node size.
    """
    sizes = np.diff(starts, append=len(members))
    dtype = np.min_scalar_type(outcomes.shape[0])  # every count is at most n
    ones = np.add.reduceat(outcomes[members], starts, axis=0, dtype=dtype)
    np.minimum(ones, sizes.astype(dtype)[:, None] - ones, out=ones)
    tests = ones.argmax(axis=1)
    best = ones[np.arange(len(starts)), tests]
    if not best.all():
        size = int(sizes[best == 0][0])
        raise QueryBudgetExceeded(f"no test splits a version space of {size} hypotheses")
    return tests, best, sizes


def restrict(outcomes: np.ndarray, members: np.ndarray, x: int, y: int) -> np.ndarray:
    """The members that answer y on test x."""
    return members[outcomes[members, x] == y]


def run_gbs(instance: Instance, answer: AnswerSource, oracle_id: str = "oracle") -> Transcript:
    """Query the greedy test of the live version space until one hypothesis remains.

    Every chosen test splits the space, so each answer keeps at least one
    hypothesis and the run ends within n - 1 queries.
    """
    outcomes = instance.outcomes
    members = np.arange(instance.n)
    steps: list[Step] = []
    while members.size > 1:
        tests, _, _ = best_split_test(outcomes, members, [0])
        x = int(tests[0])
        y = int(answer(x))
        if y not in (0, 1):
            raise InconsistentOracle(f"oracle answered {y!r}, expected 0 or 1")
        members = restrict(outcomes, members, x, y)
        steps.append(Step(instance.tests[x].id, y, members.size))
    return Transcript(oracle_id, tuple(steps), instance.hypotheses[members[0]].id)


def gbs_tree(instance: Instance) -> GbsTree:
    """Build the greedy decision tree of `run_gbs` once, one depth at a time.

    The live hypotheses (those in a node of >= 2 members) are kept grouped
    by node, so every node is one contiguous run and one `best_split_test`
    call chooses the tests of a whole depth.  Each member moves to the child
    its outcome on the chosen test names, and a child of one member is a
    leaf at the next depth.  Node ids are positions within one depth, so
    they stay below n however deep the tree grows.
    """
    n = instance.n
    if n == 1:
        return GbsTree((0,), None)
    outcomes = instance.outcomes
    depths = np.zeros(n, dtype=np.int64)
    members = np.arange(n)
    starts = np.zeros(1, dtype=np.intp)  # first member of each node
    chosen_splits, node_sizes = [], []
    depth = 0
    while members.size:
        tests, best, sizes = best_split_test(outcomes, members, starts)
        chosen_splits.append(best)
        node_sizes.append(sizes)
        answers = outcomes[members, np.repeat(tests, sizes)]
        child = 2 * np.repeat(np.arange(starts.size), sizes) + answers
        order = np.argsort(child, kind="stable")
        members, child = members[order], child[order]
        child_starts = np.flatnonzero(np.diff(child, prepend=-1))
        child_sizes = np.diff(child_starts, append=members.size)
        depth += 1
        live = np.repeat(child_sizes > 1, child_sizes)
        depths[members[~live]] = depth
        members = members[live]
        kept = child_sizes[child_sizes > 1]
        starts = np.cumsum(kept) - kept
    num, den, _ = kernels._first_min(
        np.concatenate(chosen_splits).astype(np.int64), np.concatenate(node_sizes)
    )
    return GbsTree(tuple(depths.tolist()), Fraction(num, den))


def run_all_oracles(instance: Instance) -> CostStats:
    """Query counts with each hypothesis as the hidden truth, from one `gbs_tree`."""
    tree = gbs_tree(instance)
    counts = tree.depths
    return CostStats(
        worst_case=max(counts),
        average=Fraction(sum(counts), len(counts)),
        per_oracle={h.id: c for h, c in zip(instance.hypotheses, counts)},
        min_chosen_split=tree.min_chosen_split,
    )


def interactive_session(instance: Instance, reader: IO[str], writer: IO[str]) -> Transcript:
    """Run the loop against a line channel playing the hidden hypothesis.

    Protocol: one ``QUERY <test-id> <meta-json>`` line per question, answered
    by a ``0`` or ``1`` line (anything else is re-prompted); ends with
    ``IDENTIFIED <hypothesis-id>``.
    """

    def answer(x: int) -> int:
        test = instance.tests[x]
        meta_json = json.dumps(test.meta or {}, sort_keys=True, separators=(",", ":"))
        while True:
            writer.write(f"QUERY {test.id} {meta_json}\n")
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
