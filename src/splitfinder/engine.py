"""Greedy bisection runs against simulated, scripted, or interactive oracles.

The loop is the textbook one: pick the test whose positive fraction over the
current version space is closest to 1/2 (ties to the lowest test index, so
runs are bit-for-bit reproducible), query, restrict, stop at a singleton.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import IO

from .core import Instance, best_split_test, full_space, restrict


class InconsistentOracle(ValueError):
    """The answer stream emptied the version space (no hypothesis fits)."""


class QueryBudgetExceeded(RuntimeError):
    """The run exceeded its query cap; on a valid instance this is a bug."""


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


AnswerSource = Callable[[int], int]


def hypothesis_oracle(instance: Instance, hypothesis: int) -> AnswerSource:
    """Answers every test the way one fixed hypothesis would."""
    row = instance.rows[hypothesis]
    return lambda x: (row >> x) & 1


def scripted_oracle(answers: Iterable[int]) -> AnswerSource:
    """Replays a fixed answer list; raises if queried past the end."""
    feed = iter(answers)

    def answer(_x: int) -> int:
        try:
            return int(next(feed))
        except StopIteration:
            raise InconsistentOracle("scripted oracle ran out of answers") from None

    return answer


def run_gbs(
    instance: Instance,
    answer: AnswerSource,
    oracle_id: str = "oracle",
    budget: int | None = None,
) -> Transcript:
    """Run the greedy splitting loop until one hypothesis remains.

    The budget (default n) is a safety cap: any identifiable instance
    resolves in fewer steps, so hitting it signals an engine bug rather
    than a long run.
    """
    if budget is None:
        budget = instance.n
    space = full_space(instance)
    steps: list[Step] = []
    queried: set[int] = set()
    while space.size > 1:
        if len(steps) >= budget:
            raise QueryBudgetExceeded(
                f"{oracle_id}: exceeded {budget} queries on {instance.name or 'instance'}"
            )
        x, _ = best_split_test(space)
        # A repeated query would have split 0 while some test splits > 0,
        # so the argmax can never pick one; asserted rather than prevented.
        assert x not in queried, f"selected already-queried test {x}"
        queried.add(x)
        y = int(answer(x))
        if y not in (0, 1):
            raise InconsistentOracle(f"oracle answered {y!r}, expected 0 or 1")
        nxt = restrict(space, x, y)
        if nxt.members == 0:
            raise InconsistentOracle(
                f"answer {y} on test {instance.tests[x].id!r} at step "
                f"{len(steps) + 1} contradicts every remaining hypothesis"
            )
        space = nxt
        steps.append(Step(instance.tests[x].id, y, space.size))
    identified = instance.hypotheses[space.member_indices()[0]].id
    return Transcript(oracle_id, tuple(steps), identified)


def run_all_oracles(instance: Instance) -> CostStats:
    """Run once per hypothesis as the hidden truth and aggregate exactly."""
    transcripts = [
        run_gbs(instance, hypothesis_oracle(instance, h), instance.hypotheses[h].id)
        for h in range(instance.n)
    ]
    per_oracle = {t.oracle_id: t.query_count for t in transcripts}
    counts = [t.query_count for t in transcripts]
    return CostStats(
        worst_case=max(counts),
        average=Fraction(sum(counts), len(counts)),
        per_oracle=per_oracle,
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
