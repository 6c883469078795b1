"""Acceptance suite: one criterion per test, one pass/fail line each.

Every expected constant below was either verified against the library's
documented formulas or computed by the independent oracles in oracles.py
before being frozen; runtime budgets are asserted, not aspirational.
"""

from __future__ import annotations

import contextlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from splitfinder import analysis, engine, families, persistence
from splitfinder.analysis import (
    VERIFIED_EXHAUSTIVE,
    analyze_instance,
    beta_of,
    binary_entropy,
    compute_bounds,
    min_k,
    neighborly_edge_audit,
    optimal_worst_case,
    subset_split_audit,
    verify_bounds,
    verify_certificate,
)


@contextlib.contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_1_pentagon_reproduction():
    with criterion(1, "pentagon reproduction", 1.0):
        pentagon = families.gen_convex_polygon(5, balanced=False)
        assert pentagon.n == 20

        transcripts = [
            engine.run_gbs(pentagon, engine.hypothesis_oracle(pentagon, h),
                           pentagon.hypothesis_ids[h])
            for h in range(pentagon.n)
        ]
        assert all(t.identified == t.oracle_id for t in transcripts)
        counts = [t.query_count for t in transcripts]
        assert 4 in counts  # one run resolves in exactly four rounds

        k = min_k(pentagon)
        bounds = compute_bounds(20, Fraction(1, 4), k, Fraction(1, 5))
        worst = max(counts)
        assert worst <= bounds.nowak_worst
        assert worst <= 13.41  # the k=3 evaluation of the same formula


def test_criterion_2_disjunction_suite():
    with criterion(2, "disjunction d=6 m=2 suite", 10.0):
        inst = families.gen_disjunction(6, 2)
        assert inst.n == 21

        report = analyze_instance(inst, edge_mode="l1")
        assert report.coherence.value == Fraction(1, 2)
        assert verify_certificate(inst, report.coherence) == Fraction(1, 2)

        assert all(e.status == VERIFIED_EXHAUSTIVE for e in report.edges)
        assert all(e.edge_value >= Fraction(1, 3) for e in report.edges)
        assert report.beta == Fraction(1, 5)

        stats = engine.gbs_tree(inst)
        worst_bound = math.log2(21) / -math.log2(4 / 5)
        average_bound = math.log2(21) / binary_entropy(Fraction(1, 5))
        assert stats.worst_case <= worst_bound
        assert float(stats.average) <= average_bound
        assert abs(report.bounds.split_worst - worst_bound) < 1e-12
        assert abs(report.bounds.split_average - average_bound) < 1e-12


def test_criterion_3_k_grows_like_sqrt_n():
    with criterion(3, "min_k >= ceil(sqrt(n))", 30.0):
        cases = [
            families.gen_disjunction(6, 2),
            families.gen_monotone_cnf(6, 2, 1),
            families.gen_linear_kcase(4),
            families.gen_linear_kcase(8),
        ]
        for inst in cases:
            k = min_k(inst)
            assert k >= math.isqrt(inst.n - 1) + 1, (inst.name, k, inst.n)


def test_criterion_4_box_localization():
    with criterion(4, "box localization d=2 r=(1,1)", 5.0):
        inst = families.gen_box_localization((1, 1))
        report = analyze_instance(inst, edge_mode="l1")
        assert all(e.status == VERIFIED_EXHAUSTIVE for e in report.edges)
        assert all(e.edge_value >= Fraction(1, 4) for e in report.edges)
        assert report.alpha_star >= Fraction(1, 4)

        stats = engine.gbs_tree(inst)
        verdict = verify_bounds(inst, report, stats)
        by_name = {c.name: c for c in verdict.checks}
        assert by_name["worst_case<=split_worst"].passed
        assert by_name["average<=split_average"].passed
        assert verdict.all_passed


def test_criterion_5_counterexample_certificates():
    with criterion(5, "counterexample certificates", 1.0):
        for inst in (families.gen_counterexample_disjunction(3), families.gen_counterexample_plus(2, 2)):
            ones = oracles.ones_per_test(list(inst.rows), [range(inst.n)])
            _, best = engine.best_split_test(ones, [inst.n])
            value = Fraction(int(best[0]), inst.n)
            assert value == Fraction(1, 4)
            assert value < Fraction(1, 3)


def test_criterion_6_subset_split_audits():
    with criterion(6, "subset split audits", 1.0):
        for inst in (families.gen_disjunction(3, 1), families.gen_box_localization((2,))):
            report = analyze_instance(inst)
            beta = beta_of(report.coherence.value, report.alpha_star)
            audit = subset_split_audit(inst, beta)
            assert audit.passed, inst.name
            assert audit.subsets_checked == 2**inst.n - inst.n - 1


def roster_instances():
    return [
        families.gen_convex_polygon(5, balanced=False),
        families.gen_convex_polygon(5, balanced=True),
        families.gen_disjunction(1, 1),
        families.gen_disjunction(3, 1),
        families.gen_disjunction(4, 2),
        families.gen_disjunction(6, 2),
        families.gen_monotone_cnf(4, 1, 2),
        families.gen_monotone_cnf(6, 2, 1),
        families.gen_box_localization((2,)),
        families.gen_box_localization((1, 1)),
        families.gen_box_localization((1, 2)),
        families.gen_shape_localization(families.l1_ball_offsets(2, 1)),
        families.gen_linear_kcase(4),
        families.gen_counterexample_disjunction(2),
        families.gen_counterexample_disjunction(3),
        families.gen_counterexample_plus(2, 2),
    ]


def test_criterion_7_neighborly_edges_are_split_edges():
    with criterion(7, "k-neighborly implies 1/k edge splits", 30.0):
        checked = 0
        for inst in roster_instances():
            if inst.n > 30:
                continue
            audit = neighborly_edge_audit(inst)
            assert audit.pairs_skipped == 0, inst.name
            assert audit.passed, (inst.name, audit.failures)
            checked += 1
        assert checked >= 10


def test_criterion_8_optimal_tree_sanity():
    with criterion(8, "optimal decision-tree sanity", 5.0):
        box = families.gen_box_localization((2,))
        assert optimal_worst_case(box) == 3

        covered = 0
        for inst in roster_instances():
            if inst.n > 12:
                continue
            optimal = optimal_worst_case(inst)
            stats = engine.gbs_tree(inst)
            assert optimal >= math.ceil(math.log2(inst.n))
            assert optimal <= stats.worst_case
            covered += 1
        assert covered >= 8


def test_criterion_9_headless_property_suites(tmp_path):
    with criterion(9, "headless property suites", 30.0):
        inst = families.gen_disjunction(4, 2)

        # Determinism: byte-identical artifacts across full re-runs.
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            persistence.write_instance(families.gen_disjunction(4, 2), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        blobs = []
        for path in (tmp_path / "ra.json", tmp_path / "rb.json"):
            persistence.write_report(analyze_instance(inst), path, inst)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

        # Transcript replay soundness against engine.restrict.
        outcomes, everyone = inst.outcomes, np.arange(inst.n)
        for h in range(inst.n):
            transcript = engine.run_gbs(inst, engine.hypothesis_oracle(inst, h))
            members = everyone
            for step in transcript.steps:
                members = engine.restrict(outcomes, members, inst.test_index[step.test_id], step.outcome)
                assert members.size == step.remaining
            assert members.tolist() == [h]

        # Restrict partition identity on assorted spaces.
        for x in range(inst.m_tests):
            ones, zeros = engine.restrict(outcomes, everyone, x, 1), engine.restrict(outcomes, everyone, x, 0)
            assert sorted(ones.tolist() + zeros.tolist()) == everyone.tolist()

        # Certificates never overstate.
        for probe in (inst, families.gen_convex_polygon(5, True)):
            cert = analysis.coherence(probe)
            assert verify_certificate(probe, cert) >= cert.value

        # Serialization round trips.
        third = tmp_path / "c.json"
        persistence.write_instance(inst, third)
        assert persistence.read_instance(third) == inst
        stats = engine.gbs_tree(inst)
        spath = tmp_path / "stats.json"
        persistence.write_report(stats, spath)
        doc = persistence.read_report_document(spath)
        assert (doc["worst_case"], Fraction(doc["average"]), doc["per_oracle"]) == (
            stats.worst_case, stats.average, stats.per_oracle
        )
