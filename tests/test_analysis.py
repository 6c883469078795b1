"""Structural constants, certificates, bounds, and exhaustive audits."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from splitfinder import analysis, engine, families, kernels
from splitfinder.analysis import (
    DIAG_DISCONNECTED,
    DIAG_UNVERIFIED,
    FALSIFIED_WITNESS,
    UNKNOWN_SAMPLED,
    VERIFIED_EXHAUSTIVE,
    CoherenceCertificate,
    EdgeReport,
    InstanceTooLarge,
    NotADistribution,
    OverstatedCertificate,
    alpha_star,
    analyze_instance,
    beta_of,
    binary_entropy,
    candidate_edges,
    coherence,
    compute_bounds,
    edge_alpha,
    min_k,
    neighborly_edge_audit,
    optimal_worst_case,
    subset_split_audit,
    verify_bounds,
    verify_certificate,
)
from splitfinder.core import validate_instance
from test_engine import SMALL_FAMILY_INSTANCES
from test_kernels import CYCLE6, TRIANGLES6, relabel


class TestMinK:
    def test_single_test_is_trivially_connected(self):
        inst = validate_instance(
            {"tests": [{"id": "t"}],
             "hypotheses": [{"id": "a", "outcomes": "0"}, {"id": "b", "outcomes": "1"}]}
        )
        assert min_k(inst) == 0

    def test_disjunction_d3m1(self, disjunction_d3m1):
        k = min_k(disjunction_d3m1)
        # Oracle: full pairwise disagreement table; flipping one assignment
        # bit changes exactly the flipped variable's hypothesis.
        rows = list(disjunction_d3m1.rows)
        assert oracles.connected_at_threshold(rows, 1)
        assert not oracles.connected_at_threshold(rows, 0)
        assert k == 1

    def test_threshold_is_tight(self, disjunction_d4m2, pentagon):
        for inst in (disjunction_d4m2, pentagon):
            k = min_k(inst)
            rows = list(inst.rows)
            assert oracles.connected_at_threshold(rows, k)
            assert not oracles.connected_at_threshold(rows, k - 1)

    def test_disjunction_d4m2_reaches_sqrt_n(self, disjunction_d4m2):
        k = min_k(disjunction_d4m2)
        assert k >= 4  # the all-zeros assignment disagrees with any
        # one-bit flip on 1 + C(3,1) = 4 hypotheses
        assert k >= math.isqrt(disjunction_d4m2.n - 1) + 1

    def test_pentagon_min_k(self, pentagon):
        # Adjacent vertices disagree on 4 + 4 nested arcs.
        assert min_k(pentagon) == 8

    def test_witness_edges_span_at_threshold(self, box_d2r11):
        assert min_k(box_d2r11) == oracles.loop_min_k(oracles.columns_of(box_d2r11))[0]

    def test_matches_the_sorted_pair_loop_on_families(self):
        for inst in (
            families.gen_disjunction(7, 2),  # n = 28: one word per column
            families.gen_convex_polygon(9, balanced=False),  # n = 72: two words
            families.gen_monotone_cnf(6, 2, 2),
            families.gen_box_localization((2, 1)),
            families.gen_discrete_linear(4, 3),
            families.gen_counterexample_plus(2, 2),
        ):
            assert min_k(inst) == oracles.loop_min_k(oracles.columns_of(inst))[0]

    def test_matches_the_sorted_pair_loop_on_random_columns(self):
        # Few hypotheses make many tied weights and repeated columns.
        rng = random.Random(61)
        for _ in range(60):
            n = rng.choice([1, 2, 3, 5, 8, 63, 64, 65, 130])
            m = rng.randint(1, 30)
            rows = {format(rng.getrandbits(m), f"0{m}b") for _ in range(n)}
            inst = validate_instance({
                "tests": [{"id": f"t{x}"} for x in range(m)],
                "hypotheses": [{"id": f"h{i}", "outcomes": r} for i, r in enumerate(sorted(rows))],
            })
            assert min_k(inst) == oracles.loop_min_k(oracles.columns_of(inst))[0]

    @pytest.mark.parametrize("cells", [1, 7, 16])
    def test_results_do_not_depend_on_block_boundaries(self, monkeypatch, cells):
        cases = (families.gen_disjunction(5, 2), families.gen_convex_polygon(9, balanced=False))
        monkeypatch.setattr(kernels, "BLOCK_CELLS", cells)
        for inst in cases:
            assert min_k(inst) == oracles.loop_min_k(oracles.columns_of(inst))[0]

    def test_disjunctions_at_scale(self):
        # 4096 tests of up to 5 packed words, past the random columns' 3.
        assert min_k(families.gen_disjunction(12, 3)) == 67
        assert min_k(families.gen_disjunction(12, 2)) == 12

    def test_keeps_no_test_by_test_matrix(self):
        inst = families.gen_disjunction(10, 2)  # 1024 tests: a 1 MB matrix of uint8
        tracemalloc.start()
        try:
            k = min_k(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k == 10
        assert peak < 1 << 20


class TestCoherence:
    def test_disjunction_two_point_certificate(self, disjunction_d6m2):
        cert = coherence(disjunction_d6m2)
        assert cert.value == Fraction(1, 2)
        ids = {disjunction_d6m2.test_ids[x] for x in cert.distribution}
        assert ids == {"000000", "111111"}
        assert all(w == Fraction(1, 2) for w in cert.distribution.values())

    def test_constant_columns_shortcut(self):
        inst = validate_instance(
            {"tests": [{"id": "zero"}, {"id": "one"}, {"id": "mix"}],
             "hypotheses": [
                 {"id": "a", "outcomes": "010"},
                 {"id": "b", "outcomes": "011"},
             ]}
        )
        cert = coherence(inst)
        assert cert.value == Fraction(1, 2)

    def test_pentagon_balanced_exact_value(self, pentagon_balanced):
        # Oracle: the uniform distribution achieves min(2/5, 1 - 3/5) = 2/5,
        # and by cyclic symmetry no distribution does better.
        rows = list(pentagon_balanced.rows)
        uniform = {x: Fraction(1, 5) for x in range(5)}
        assert oracles.certificate_value(rows, uniform) == Fraction(2, 5)
        cert = coherence(pentagon_balanced)
        assert cert.value == Fraction(2, 5)
        assert cert.value >= Fraction(1, 4)
        assert verify_certificate(pentagon_balanced, cert) == cert.value

    def test_pentagon_unbalanced_exact_value(self, pentagon):
        cert = coherence(pentagon)
        assert cert.value == Fraction(1, 5)

    def test_single_test_pair_has_zero_coherence(self):
        inst = validate_instance(
            {"tests": [{"id": "t"}],
             "hypotheses": [{"id": "a", "outcomes": "0"}, {"id": "b", "outcomes": "1"}]}
        )
        assert coherence(inst).value == 0


class TestVerifyCertificate:
    def test_uniform_on_pentagon_by_direct_summation(self, pentagon):
        uniform = {x: Fraction(1, 5) for x in range(5)}
        cert = CoherenceCertificate(uniform, Fraction(0))
        rows = list(pentagon.rows)
        expected = oracles.certificate_value(rows, uniform)
        assert expected == Fraction(1, 5)
        assert verify_certificate(pentagon, cert) == expected

    def test_point_mass_on_nonconstant_test_scores_zero(self, pentagon):
        cert = CoherenceCertificate({0: Fraction(1)}, Fraction(0))
        assert verify_certificate(pentagon, cert) == 0

    def test_disjunction_two_point_is_half(self, disjunction_d4m2):
        inst = disjunction_d4m2
        dist = {inst.test_index["0000"]: Fraction(1, 2), inst.test_index["1111"]: Fraction(1, 2)}
        assert verify_certificate(inst, CoherenceCertificate(dist, Fraction(1, 2))) == Fraction(1, 2)

    def test_rejects_non_distribution(self, pentagon):
        with pytest.raises(NotADistribution):
            verify_certificate(pentagon, CoherenceCertificate({0: Fraction(1, 2)}, Fraction(0)))
        with pytest.raises(NotADistribution):
            verify_certificate(
                pentagon,
                CoherenceCertificate({0: Fraction(3, 2), 1: Fraction(-1, 2)}, Fraction(0)),
            )

    def test_rejects_weight_on_a_test_past_the_last(self, pentagon):
        cert = CoherenceCertificate({pentagon.m_tests: Fraction(1)}, Fraction(0))
        with pytest.raises(NotADistribution, match="unknown test index"):
            verify_certificate(pentagon, cert)

    def test_rejects_overstated_value(self, pentagon):
        with pytest.raises(OverstatedCertificate):
            verify_certificate(
                pentagon,
                CoherenceCertificate({x: Fraction(1, 5) for x in range(5)}, Fraction(1, 2)),
            )

    def test_produced_certificates_never_overstate(self, pentagon, box_d2r11, disjunction_d4m2):
        for inst in (pentagon, box_d2r11, disjunction_d4m2):
            cert = coherence(inst)
            assert verify_certificate(inst, cert) >= cert.value


class TestEdgeAlpha:
    def test_tiny_delta_is_vacuous(self, disjunction_d3m1):
        inst = disjunction_d3m1
        report = edge_alpha(inst, inst.test_index["000"], inst.test_index["100"])
        assert report.delta_size == 1
        assert report.status == VERIFIED_EXHAUSTIVE
        assert report.edge_value == Fraction(1, 2)

    def test_polygon_adjacent_edge_value_third(self, pentagon):
        # Oracle: brute-force minimum over all subsets of the 4-arc
        # disagreement set, scanning every test with Fraction arithmetic.
        rows = list(pentagon.rows)
        pool = oracles.delta_members(rows, 0, 1)
        expected = oracles.min_subset_split(rows, pool)
        assert expected == Fraction(1, 3)
        report = edge_alpha(pentagon, 0, 1)
        assert report.status == VERIFIED_EXHAUSTIVE
        assert report.edge_value == expected
        assert report.edge_value >= Fraction(1, 3)

    def test_exhaustive_matches_naive_on_assorted_edges(self, box_d2r11, disjunction_d4m2):
        for inst, pairs in (
            (box_d2r11, [(10, 11), (24, 25), (3, 10)]),
            (disjunction_d4m2, [(0, 1), (0, 8), (5, 7)]),
        ):
            rows = list(inst.rows)
            for x, xp in pairs:
                report = edge_alpha(inst, x, xp)
                pool = oracles.delta_members(rows, x, xp)
                if len(pool) <= 1:
                    assert report.edge_value == Fraction(1, 2)
                else:
                    assert report.edge_value == oracles.min_subset_split(rows, pool)

    def test_full_hypothesis_set_of_counterexample(self):
        # The m=3 omitted-variable family, viewed as one big disagreement
        # set: no subset-of-everything splits better than 1/4.
        inst = families.gen_counterexample_disjunction(3)
        rows = list(inst.rows)
        assert oracles.best_split(rows, list(range(inst.n)))[1] == Fraction(1, 4)

    def test_sampled_edge_is_deterministic(self, disjunction_d6m2):
        inst = disjunction_d6m2
        x, xp = inst.test_index["000000"], inst.test_index["100000"]
        a = edge_alpha(inst, x, xp, exhaustive_limit=2, samples=500, seed=9)
        b = edge_alpha(inst, x, xp, exhaustive_limit=2, samples=500, seed=9)
        assert a == b
        assert a.status == UNKNOWN_SAMPLED
        assert a.samples_tried == 500
        exact = edge_alpha(inst, x, xp)
        assert a.edge_value >= exact.edge_value  # sampling can only overstate

    def test_sampling_falsifies_inflated_candidate(self, disjunction_d6m2):
        inst = disjunction_d6m2
        x, xp = inst.test_index["000000"], inst.test_index["100000"]
        report = edge_alpha(
            inst, x, xp, exhaustive_limit=2, samples=500, seed=9,
            candidate_alpha=Fraction(1, 2),
        )
        assert report.status == FALSIFIED_WITNESS
        assert report.witness is not None
        rows = list(inst.rows)
        assert oracles.best_split(rows, list(report.witness))[1] == report.edge_value

    def test_monotone_under_hypothesis_restriction(self, box_d2r11):
        # Dropping hypotheses shrinks the quantified domain, so a verified
        # edge value can only rise.
        inst = box_d2r11
        base = edge_alpha(inst, 10, 11)
        doc = {
            "tests": [{"id": tid, "meta": dict(meta)} for tid, meta in zip(inst.test_ids, inst.test_meta)],
            "hypotheses": [
                {"id": hid, "outcomes": row, "meta": dict(meta)}
                for i, (hid, row, meta) in enumerate(zip(inst.hypothesis_ids, inst.rows, inst.hypothesis_meta))
                if i % 3 != 0
            ],
        }
        restricted = validate_instance(doc)
        again = edge_alpha(restricted, 10, 11)
        assert again.edge_value >= base.edge_value


@st.composite
def random_instances(draw, max_rows=20):
    m_tests = draw(st.integers(min_value=1, max_value=8))
    rows = draw(
        st.lists(st.integers(min_value=0, max_value=(1 << m_tests) - 1), min_size=1, max_size=max_rows, unique=True)
    )
    return validate_instance({
        "tests": [{"id": f"t{x}"} for x in range(m_tests)],
        "hypotheses": [{"id": f"h{i}", "outcomes": format(v, f"0{m_tests}b")} for i, v in enumerate(rows)],
    })


def copies_instance(width: int, copies: list[list[int]]):
    """One delta set per kernel input in ``copies``, each of ``width`` members.

    Copy c's members are hypotheses ``c * width + k``; test j restricts to
    mask j of each copy, then come an all-0 test z and one selector test per
    copy, so the pair (z, z + 1 + c) has copy c as its delta set.  Each copy
    needs the same number of masks, and they must tell its members apart.
    """
    rows = []
    for c, masks in enumerate(copies):
        for k in range(width):
            bits = [str(m >> k & 1) for m in masks] + ["0"] + ["1" if d == c else "0" for d in range(len(copies))]
            rows.append("".join(bits))
    inst = validate_instance({
        "tests": [{"id": f"t{x}"} for x in range(len(rows[0]))],
        "hypotheses": [{"id": f"h{i}", "outcomes": row} for i, row in enumerate(rows)],
    })
    z = len(copies[0])
    return inst, [(z, z + 1 + c) for c in range(len(copies))]


@st.composite
def renamed_copies(draw):
    """2-4 renamed, complemented copies of one kernel input of width 3-10."""
    width = draw(st.integers(min_value=3, max_value=10))
    raw = draw(st.lists(st.integers(min_value=0, max_value=(1 << width) - 1), max_size=10))
    code = [sum(1 << k for k in range(width) if k >> t & 1) for t in range(width.bit_length())]
    base = oracles.prepare_masks(raw + code, width)  # the code masks tell members apart
    copies = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        order = draw(st.permutations(range(width)))
        flips = draw(st.lists(st.booleans(), min_size=len(base), max_size=len(base)))
        copies.append(relabel(base, width, order, flips))
    return width, copies


def counting_kernels(mp) -> dict[str, int]:
    """Count ``min_subset_split`` and ``first_subset_at`` calls from here on."""
    calls = dict.fromkeys(("min_subset_split", "first_subset_at"), 0)
    for name in calls:
        def counted(*args, _kernel=getattr(kernels, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)
        mp.setattr(kernels, name, counted)
    return calls


class TestEdgePass:
    """The batched edge pass against ``oracles.loop_edge_reports``, one pair at a time."""

    @pytest.mark.parametrize("limit", [0, 1, 2, 18])
    @pytest.mark.parametrize("family", sorted(SMALL_FAMILY_INSTANCES))
    def test_matches_the_per_edge_loop_on_every_family(self, family, limit):
        inst = SMALL_FAMILY_INSTANCES[family]()
        report = analyze_instance(inst, exhaustive_limit=limit, samples=40, seed=5)
        _, pairs = candidate_edges(inst, None, limit)
        hint = inst.params.get("alpha_hint")
        expected = oracles.loop_edge_reports(
            inst, pairs, limit, 40, 5, Fraction(str(hint)) if hint else None
        )
        assert [dataclasses.astuple(r) for r in report.edges] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        random_instances(max_rows=12),  # every delta set small enough for the loop to enumerate
        st.sampled_from([0, 1, 2, 18]),
        st.integers(min_value=0, max_value=1 << 20),
    )
    def test_matches_the_per_edge_loop_on_random_instances(self, inst, limit, seed):
        m = inst.m_tests
        pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
        got = analysis._edge_reports(inst, pairs, limit, 30, seed, Fraction(1, 3))
        expected = oracles.loop_edge_reports(inst, pairs, limit, 30, seed, Fraction(1, 3))
        assert [dataclasses.astuple(r) for r in got] == expected
        assert [edge_alpha(inst, i, j, limit, 30, seed ^ k, Fraction(1, 3))
                for k, (i, j) in enumerate(pairs)] == got

    @pytest.mark.parametrize("cells", [1, 7, 300])
    def test_block_size_changes_nothing(self, monkeypatch, cells):
        inst = SMALL_FAMILY_INSTANCES["discrete_linear"]()
        _, pairs = candidate_edges(inst)
        expected = analysis._edge_reports(inst, pairs, 18, 0, 0, None)
        monkeypatch.setattr(kernels, "BLOCK_CELLS", cells)
        assert analysis._edge_reports(inst, pairs, 18, 0, 0, None) == expected

    @pytest.mark.parametrize("cells", [1 << 8, 1 << 12])
    @pytest.mark.parametrize(
        "family, params, limit",
        [
            ("disjunction", {"d": "10", "m": "2"}, 18),  # 1024 tests
            ("disjunction", {"d": "10", "m": "2"}, 6),  # widths 7 to 10 sampled
            ("box_localization", {"r": "4,4"}, 18),  # 81 hypotheses, two packed words
            ("monotone_cnf", {"d": "7", "m": "2", "l": "2"}, 18),  # 105 hypotheses, sampled past 18
        ],
        ids=["disjunction-d10", "disjunction-d10-sampled", "box-r4-4", "cnf-d7"],
    )
    def test_small_blocks_match_the_loop_on_large_instances(self, monkeypatch, family, params, limit, cells):
        """At 1 << 8 cells every block is one row; at 1 << 12, a few rows.  Six
        pairs of each width, so block boundaries fall inside every width."""
        inst = families.generate(family, params)
        _, candidates = candidate_edges(inst)
        rows = list(inst.rows)
        taken: dict[int, int] = {}
        pairs = []
        for x, x_prime in candidates:
            width = len(oracles.delta_members(rows, x, x_prime))
            if taken.get(width, 0) < 6:
                taken[width] = taken.get(width, 0) + 1
                pairs.append((x, x_prime))
        assert len(taken) >= 4
        expected = oracles.loop_edge_reports(inst, pairs, limit, 20, 3, Fraction(1, 3))
        monkeypatch.setattr(kernels, "BLOCK_CELLS", cells)
        got = analysis._edge_reports(inst, pairs, limit, 20, 3, Fraction(1, 3))
        assert [dataclasses.astuple(r) for r in got] == expected

    def test_each_distinct_kernel_input_is_enumerated_once(self, monkeypatch):
        inst = SMALL_FAMILY_INSTANCES["discrete_linear"]()
        _, pairs = candidate_edges(inst)
        calls = []
        kernel = kernels.min_subset_split
        monkeypatch.setattr(
            kernels, "min_subset_split", lambda masks, width: calls.append((width, tuple(masks))) or kernel(masks, width)
        )
        reports = analysis._edge_reports(inst, pairs, 18, 0, 0, None)
        assert sum(r.delta_size >= 2 for r in reports) > len(calls) == len(set(calls)) > 0

    @settings(max_examples=60, deadline=None)
    @given(renamed_copies())
    def test_renamed_copies_match_the_loop_copy_by_copy(self, case):
        width, copies = case
        inst, pairs = copies_instance(width, copies)
        expected = oracles.loop_edge_reports(inst, pairs, 18, 0, 0, None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "BLOCK_CELLS", 4)
            calls = counting_kernels(mp)
            reports = analysis._edge_reports(inst, pairs, 18, 0, 0, None)
        assert [(r.edge_value, r.witness) for r in reports] == [(e[4], e[5]) for e in expected]
        keys = {kernels.canonical_input(masks, width) for masks in copies}
        scanned = len({tuple(masks) for masks in copies}) - len(keys)
        assert calls["min_subset_split"] == len(keys)
        assert calls["first_subset_at"] == (scanned if expected[0][4] < Fraction(1, 2) else 0)

    def test_refinement_blind_pair_is_enumerated_twice(self, monkeypatch):
        """Refinement cannot tell the cycle from the triangles, yet each is enumerated; a renamed cycle is not."""
        renamed = relabel(CYCLE6, 6, [3, 0, 4, 1, 5, 2], [False, True] * 3)
        monkeypatch.setattr(kernels, "BLOCK_CELLS", 16)
        calls = counting_kernels(monkeypatch)
        for copies, enumerated in (([CYCLE6, TRIANGLES6], 2), ([CYCLE6, renamed], 1)):
            for name in calls:
                calls[name] = 0
            inst, pairs = copies_instance(6, copies)
            reports = analysis._edge_reports(inst, pairs, 18, 0, 0, None)
            expected = oracles.loop_edge_reports(inst, pairs, 18, 0, 0, None)
            assert [(r.edge_value, r.witness) for r in reports] == [(e[4], e[5]) for e in expected]
            assert calls == {"min_subset_split": enumerated, "first_subset_at": 2 - enumerated}

    @staticmethod
    def wide_instance():
        """t0 -> t1 has 65 members and t0 -> t2 has 66; seven index bits keep the rows distinct."""
        rows = ["0" + ("1" if h else "0") + "1" + format(h, "07b") for h in range(66)]
        return validate_instance({
            "tests": [{"id": f"t{x}"} for x in range(10)],
            "hypotheses": [{"id": f"h{h}", "outcomes": row} for h, row in enumerate(rows)],
        })

    @pytest.mark.parametrize("alpha", [None, Fraction(3, 4)])
    def test_no_samples_skip_restriction_draws_and_kernel(self, monkeypatch, alpha):
        inst = families.gen_monotone_cnf(6, 2, 2)
        _, pairs = candidate_edges(inst, None, 6)  # 150 of the 384 preset pairs pass the limit
        expected = oracles.loop_edge_reports(inst, pairs, 6, 0, 0, alpha)
        for module, name in ((analysis, "_restricted_masks"), (analysis, "_sample_subsets"),
                             (kernels, "batch_min_split")):
            monkeypatch.setattr(module, name, None)  # any call fails loudly
        got = analysis._edge_reports(inst, pairs, 6, 0, 0, alpha)
        assert [dataclasses.astuple(r) for r in got] == expected

    def test_wide_exhaustive_edge_is_refused_before_enumerating(self, monkeypatch):
        inst = self.wide_instance()
        monkeypatch.setattr(kernels, "min_subset_split", None)  # any call fails loudly
        with pytest.raises(InstanceTooLarge, match="65 members"):
            edge_alpha(inst, 0, 1, exhaustive_limit=65)
        sampled = edge_alpha(inst, 0, 1, exhaustive_limit=64, samples=5)
        assert (sampled.delta_size, sampled.status) == (65, UNKNOWN_SAMPLED)

    def test_wide_exhaustive_edge_is_refused_before_any_draw(self, monkeypatch):
        inst = self.wide_instance()
        for name in ("min_subset_split", "batch_min_split"):
            monkeypatch.setattr(kernels, name, None)  # any call fails loudly
        monkeypatch.setattr(analysis, "_sample_subsets", None)
        # The sampled pair comes first in pair order.
        with pytest.raises(InstanceTooLarge, match="'t0' -> 't1' has 65 members"):
            analysis._edge_reports(inst, [(0, 2), (0, 1)], 65, 5, 0, None)

    def test_oversized_sampling_is_refused_before_any_draw(self, monkeypatch):
        inst = self.wide_instance()
        # 66 members take three 32-bit words per sample.
        monkeypatch.setattr(analysis, "MAX_OUTCOMES", 96 * 10)
        assert edge_alpha(inst, 0, 2, exhaustive_limit=0, samples=10).samples_tried == 10
        monkeypatch.setattr(analysis, "_sample_subsets", None)
        with pytest.raises(InstanceTooLarge, match="'t0' -> 't2' has 66 members; 11 samples"):
            analysis._edge_reports(inst, [(0, 1), (0, 2)], 0, 11, 0, None)

    def test_sampled_edges_of_several_blocks_match_the_loop(self, monkeypatch):
        inst = families.gen_convex_polygon(12, balanced=False)
        _, pairs = candidate_edges(inst, None, 4)
        hint = Fraction(inst.params["alpha_hint"])
        batches = []
        kernel = kernels.batch_min_split
        monkeypatch.setattr(
            kernels, "batch_min_split",
            lambda masks, subsets: batches.append((len(masks), len(subsets))) or kernel(masks, subsets),
        )
        got = analysis._edge_reports(inst, pairs, 4, 20000, 5, hint)
        # 24 sampled 11-member edges, each batch more than four first blocks long.
        assert {(r.delta_size, r.status) for r in got} == {(11, UNKNOWN_SAMPLED)} and len(got) == 24
        assert {kernels._block_rows(n_masks, 1) for n_masks, _ in batches} == {4096}
        assert {rows for _, rows in batches} == {20000}
        expected = oracles.loop_edge_reports(inst, pairs, 4, 20000, 5, hint)
        for report, row in zip(got, expected, strict=True):
            assert dataclasses.astuple(report) == row


class TestAlphaStar:
    def test_uniform_value_strongly_connected(self, disjunction_d6m2):
        _, pairs = candidate_edges(disjunction_d6m2, "l1")
        reports = [edge_alpha(disjunction_d6m2, i, j) for i, j in pairs]
        result = alpha_star(disjunction_d6m2, reports)
        assert result.value == Fraction(1, 3)
        assert result.diagnostic is None
        # Oracle: the digraph keeping edges of value >= 1/3 must really be
        # strongly connected; at 1/2 the all-zeros test loses out-edges.
        third = [(r.from_test, r.to_test) for r in reports if r.edge_value >= Fraction(1, 3)]
        assert oracles.strongly_connected(disjunction_d6m2.m_tests, third)
        half = [(r.from_test, r.to_test) for r in reports if r.edge_value >= Fraction(1, 2)]
        assert not oracles.strongly_connected(disjunction_d6m2.m_tests, half)

    def test_disconnected_clusters_yield_zero(self):
        inst = validate_instance(
            {"tests": [{"id": f"t{i}"} for i in range(4)],
             "hypotheses": [
                 {"id": "a", "outcomes": "0011"},
                 {"id": "b", "outcomes": "0111"},
                 {"id": "c", "outcomes": "1100"},
                 {"id": "d", "outcomes": "1110"},
             ]}
        )
        reports = [edge_alpha(inst, i, j) for i, j in [(0, 1), (1, 0), (2, 3), (3, 2)]]
        result = alpha_star(inst, reports)
        assert result.value == 0
        assert result.diagnostic == DIAG_DISCONNECTED

    def test_unverified_bridge_is_reported(self, disjunction_d4m2):
        _, pairs = candidate_edges(disjunction_d4m2, "l1")
        reports = [
            edge_alpha(disjunction_d4m2, i, j, exhaustive_limit=0, samples=20, seed=1)
            for i, j in pairs
        ]
        assert any(r.status != VERIFIED_EXHAUSTIVE for r in reports)
        result = alpha_star(disjunction_d4m2, reports)
        assert result.value == 0
        assert result.diagnostic == DIAG_UNVERIFIED

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_threshold_definition_on_random_reports(self, data):
        m = data.draw(st.integers(min_value=1, max_value=6))
        edge = st.builds(
            lambda i, j, value, verified: EdgeReport(
                i, j, 2, VERIFIED_EXHAUSTIVE if verified else UNKNOWN_SAMPLED, value, None, 0
            ),
            st.integers(0, m - 1),
            st.integers(0, m - 1),
            st.sampled_from([Fraction(0), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]),
            st.booleans(),
        )
        reports = data.draw(st.lists(edge, max_size=24))
        inst = validate_instance({
            "tests": [{"id": f"t{x}"} for x in range(m)],
            "hypotheses": [{"id": "h", "outcomes": "0" * m}],
        })
        verified = [r for r in reports if r.status == VERIFIED_EXHAUSTIVE]
        connected = [
            value
            for value in {r.edge_value for r in verified}
            if oracles.strongly_connected(
                m, [(r.from_test, r.to_test) for r in verified if r.edge_value >= value]
            )
        ]
        if m == 1:
            expected = (Fraction(1, 2), None)
        elif connected:
            expected = (max(connected), None)
        elif len(verified) < len(reports) and oracles.strongly_connected(
            m, [(r.from_test, r.to_test) for r in reports]
        ):
            expected = (Fraction(0), DIAG_UNVERIFIED)
        else:
            expected = (Fraction(0), DIAG_DISCONNECTED)
        result = alpha_star(inst, reports)
        assert (result.value, result.diagnostic) == expected
        assert type(result.value) is Fraction


class TestBoundFormulas:
    def test_beta_of_examples(self):
        assert beta_of(Fraction(1, 4), Fraction(1, 3)) == Fraction(1, 5)
        assert beta_of(Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 4)
        assert beta_of(Fraction(1, 2), Fraction(0)) == 0

    def test_binary_entropy_examples(self):
        assert binary_entropy(Fraction(1, 2)) == 1.0
        assert binary_entropy(0) == 0.0
        assert binary_entropy(1) == 0.0
        # Direct formula evaluation as the oracle.
        p = 0.2
        expected = -(p * math.log2(p) + 0.8 * math.log2(0.8))
        assert abs(binary_entropy(Fraction(1, 5)) - expected) < 1e-9
        assert abs(binary_entropy(Fraction(1, 5)) - 0.721928094887) < 1e-9

    def test_binary_entropy_rejects_a_probability_above_one(self):
        with pytest.raises(ValueError, match="probability out of range"):
            binary_entropy(Fraction(3, 2))

    def test_compute_bounds_examples(self):
        b = compute_bounds(10, Fraction(1, 2), 1, Fraction(1, 5))
        assert abs(b.split_worst - math.log2(10) / -math.log2(0.8)) < 1e-12
        assert abs(b.split_worst - 10.3188511585) < 1e-9

        b = compute_bounds(20, Fraction(1, 4), 3, Fraction(1, 5))
        assert b.lam == Fraction(4, 5)
        assert abs(b.nowak_worst - math.log2(20) / -math.log2(0.8)) < 1e-12
        assert abs(b.nowak_worst - 13.4251348780) < 1e-9

        b = compute_bounds(1, Fraction(1, 2), 0, Fraction(1, 2))
        assert (b.nowak_worst, b.split_worst, b.split_average) == (0.0, 0.0, 0.0)

    def test_hand_evaluable_pair_bounds(self):
        b = compute_bounds(2, Fraction(1, 2), 1, Fraction(1, 2))
        assert b.split_worst == 1.0
        assert b.split_average == 1.0

    def test_degenerate_bounds_are_unbounded(self):
        b = compute_bounds(10, Fraction(0), 5, Fraction(0))
        assert b.lam == 1
        assert b.nowak_worst is None
        assert b.split_worst is None
        assert b.split_average is None


class TestOptimalWorstCase:
    def test_pair_needs_one(self):
        inst = validate_instance(
            {"tests": [{"id": "t"}],
             "hypotheses": [{"id": "a", "outcomes": "0"}, {"id": "b", "outcomes": "1"}]}
        )
        assert optimal_worst_case(inst) == 1

    def test_box_d1r2_is_exactly_three(self, box_d1r2):
        rows = list(box_d1r2.rows)
        expected = oracles.optimal_tree_depth(rows, frozenset(range(box_d1r2.n)))
        assert expected == 3 == math.ceil(math.log2(box_d1r2.n))
        assert optimal_worst_case(box_d1r2) == expected

    def test_matches_naive_dp_on_small_instances(self, disjunction_d4m2, box_d2r11):
        for inst in (disjunction_d4m2, box_d2r11):
            rows = list(inst.rows)
            expected = oracles.optimal_tree_depth(rows, frozenset(range(inst.n)))
            assert optimal_worst_case(inst) == expected
            assert expected >= math.ceil(math.log2(inst.n))

    def test_cap_is_enforced(self, pentagon):
        with pytest.raises(InstanceTooLarge):
            optimal_worst_case(pentagon, n_cap=12)

    def test_never_beats_information_bound(self, disjunction_d3m1, cx_plus_d2l2):
        for inst in (disjunction_d3m1, cx_plus_d2l2):
            assert optimal_worst_case(inst) >= math.ceil(math.log2(inst.n))

    def test_unsplittable_space_raises_budget_exceeded(self):
        # h1 and h2 share a row, set directly since validation forbids it:
        # once h0 is split off, no test tells them apart.
        inst = validate_instance(
            {"tests": [{"id": "t0"}, {"id": "t1"}],
             "hypotheses": [{"id": f"h{i}", "outcomes": row} for i, row in enumerate(["00", "01", "11"])]}
        )
        inst = dataclasses.replace(inst, outcomes=np.array([[0, 0], [1, 1], [1, 1]], dtype=bool))
        with pytest.raises(engine.QueryBudgetExceeded, match="no test splits a version space of 2"):
            optimal_worst_case(inst)


class TestSubsetSplitAudit:
    def test_disjunction_passes_at_quarter(self, disjunction_d3m1):
        audit = subset_split_audit(disjunction_d3m1, Fraction(1, 4))
        assert audit.passed
        assert audit.subsets_checked == 2**3 - 3 - 1

    def test_zero_beta_is_vacuous(self, pentagon_balanced):
        audit = subset_split_audit(pentagon_balanced, Fraction(0))
        assert audit.passed
        assert audit.subsets_checked == 0

    def test_plus_counterexample_fails_at_third(self, cx_plus_d2l2):
        audit = subset_split_audit(cx_plus_d2l2, Fraction(1, 3))
        assert not audit.passed
        # The witness is the full four-tip set: its best split is 1/4.
        assert audit.witness == (0, 1, 2, 3)
        rows = list(cx_plus_d2l2.rows)
        assert oracles.best_split(rows, list(audit.witness))[1] == Fraction(1, 4)

    def test_cap_is_enforced(self, pentagon):
        with pytest.raises(InstanceTooLarge):
            subset_split_audit(pentagon, Fraction(1, 4), n_cap=15)

    def test_threshold_is_the_minimum_split(self):
        rng = random.Random(23)
        for _ in range(60):
            m_tests = rng.randint(1, 5)
            rows = sorted({
                "".join(rng.choice("01") for _ in range(m_tests)) for _ in range(rng.randint(2, 7))
            })
            inst = validate_instance({
                "tests": [{"id": f"t{x}"} for x in range(m_tests)],
                "hypotheses": [{"id": f"h{i}", "outcomes": row} for i, row in enumerate(rows)],
            })
            n = len(rows)
            minimum = oracles.min_subset_split(rows, list(range(n)))
            assert subset_split_audit(inst, minimum).passed
            audit = subset_split_audit(inst, minimum + Fraction(1, 1000))
            assert audit.passed == (n == 1)
            if n == 1:
                continue
            # The witness attains the minimum, and no smaller bitmask does.
            assert oracles.best_split(rows, list(audit.witness))[1] == minimum
            first = sum(1 << h for h in audit.witness)
            for subset in range(3, first):
                members = [h for h in range(n) if (subset >> h) & 1]
                if len(members) >= 2:
                    assert oracles.best_split(rows, members)[1] > minimum


class TestNeighborlyEdgeAudit:
    def test_k1_instance_is_trivial(self, disjunction_d3m1):
        audit = neighborly_edge_audit(disjunction_d3m1)
        assert audit.passed
        assert audit.k_min == 1
        assert audit.pairs_checked == 0

    def test_box_instance_passes(self, box_d2r11):
        audit = neighborly_edge_audit(box_d2r11)
        assert audit.passed
        assert audit.pairs_skipped == 0
        assert audit.pairs_checked > 0


@st.composite
def geometry_instances(draw):
    """Tests with grid coords, cycle indices or neither, and ids that may be bit strings.

    Coordinates in [-2, 2] leave gaps and repeat points; cycle indices in
    [-3, 3] tie.  The first test may lack the meta key, so the next rule
    decides.
    """
    if draw(st.booleans()):
        width = draw(st.integers(min_value=1, max_value=4))
        values = draw(st.lists(st.integers(min_value=0, max_value=(1 << width) - 1),
                               min_size=1, max_size=1 << width, unique=True))
        ids = [format(v, f"0{width}b") for v in values]
    else:
        ids = draw(st.lists(st.text("01x", min_size=1, max_size=3), min_size=1, max_size=10, unique=True))
    geometry = draw(st.sampled_from(["coords", "cycle", "none"]))
    if geometry == "coords":
        dim = draw(st.integers(min_value=1, max_value=3))
        point = st.lists(st.integers(min_value=-2, max_value=2), min_size=dim, max_size=dim)
        metas = [{"coords": draw(point)} for _ in ids]
    elif geometry == "cycle":
        metas = [{"cycle_index": draw(st.integers(min_value=-3, max_value=3))} for _ in ids]
    else:
        metas = [None] * len(ids)
    if draw(st.booleans()):
        metas[0] = None
    return geometry_instance(ids, metas)


def geometry_instance(ids, metas=None):
    """Tests with the given ids and metas, and one all-0 hypothesis."""
    metas = metas or [None] * len(ids)
    return validate_instance({
        "tests": [{"id": tid, "meta": meta} for tid, meta in zip(ids, metas)],
        "hypotheses": [{"id": "h", "outcomes": "0" * len(ids)}],
    })


class TestAdjacencyPairs:
    """The one unit-step rule against ``oracles.loop_adjacency_pairs``, one loop per geometry."""

    @settings(max_examples=300, deadline=None)
    @given(geometry_instances())
    def test_matches_the_per_geometry_loops(self, inst):
        assert analysis._adjacency_pairs(inst) == oracles.loop_adjacency_pairs(inst)

    @pytest.mark.parametrize("family", sorted(SMALL_FAMILY_INSTANCES))
    def test_matches_the_per_geometry_loops_on_every_family(self, family):
        inst = SMALL_FAMILY_INSTANCES[family]()
        assert analysis._adjacency_pairs(inst) == oracles.loop_adjacency_pairs(inst)

    @pytest.mark.parametrize(
        "ids, metas, expected",
        [
            (["a"], [{"cycle_index": 4}], [(0, 0)]),
            (["a", "b"], [{"cycle_index": 1}, {"cycle_index": -1}], [(0, 1), (1, 0)]),
            # Tests 0 and 2 share a point; the later one is the neighbour found.
            (["a", "b", "c"], [{"coords": [0]}, {"coords": [1]}, {"coords": [0]}],
             [(0, 1), (1, 2), (2, 1)]),
            (["00", "01", "11"], None, [(0, 1), (1, 0), (1, 2), (2, 1)]),
            (["0", "01"], None, None),
            (["02", "01"], None, None),
        ],
        ids=["one-test-cycle", "two-test-cycle", "duplicate-coords", "bit-flips",
             "mixed-length-ids", "non-binary-ids"],
    )
    def test_corner_cases(self, ids, metas, expected):
        assert analysis._adjacency_pairs(geometry_instance(ids, metas)) == expected


class TestVectorizedPairPaths:
    """The numpy pair paths against loops over the outcome strings."""

    @settings(max_examples=80, deadline=None)
    @given(random_instances(), st.integers(min_value=0, max_value=6))
    def test_all_mode_pairs_match_the_delta_loop(self, inst, limit):
        rows = list(inst.rows)
        m = inst.m_tests
        expected = [
            (i, j)
            for i in range(m)
            for j in range(m)
            if i != j and len(oracles.delta_members(rows, i, j)) <= limit
        ]
        assert candidate_edges(inst, "all", limit) == ("all", expected)

    @settings(max_examples=60, deadline=None)
    @given(random_instances(), st.integers(min_value=0, max_value=6))
    def test_neighborly_audit_matches_the_disagreement_loop(self, inst, limit):
        rows = list(inst.rows)
        audit = neighborly_edge_audit(inst, limit)
        k = audit.k_min
        assert k == oracles.loop_min_k(oracles.columns_of(inst))[0]
        checked, skipped, failures = 0, 0, []
        pairs = itertools.combinations(range(inst.m_tests), 2) if k >= 1 else ()
        for i, j in pairs:
            if oracles.disagreement_count(rows, i, j) > k:
                continue
            for a, b in ((i, j), (j, i)):
                pool = oracles.delta_members(rows, a, b)
                if len(pool) <= 1:
                    continue
                if len(pool) > limit:
                    skipped += 1
                    continue
                checked += 1
                value = oracles.min_subset_split(rows, pool)
                if value < Fraction(1, k):
                    failures.append((a, b, value))
        assert (audit.pairs_checked, audit.pairs_skipped) == (checked, skipped)
        assert audit.failures == tuple(failures)
        assert audit.passed == (not failures)


class TestAnalyzeAndVerify:
    def test_report_invariants(self, disjunction_d6m2):
        report = analyze_instance(disjunction_d6m2)
        assert report.beta == beta_of(report.coherence.value, report.alpha_star)
        assert report.bounds.lam == 1 - min(
            report.coherence.value, Fraction(1, report.k_min + 2)
        )
        assert report.edge_mode == "l1"

    def test_verify_bounds_passes_on_disjunction(self, disjunction_d6m2):
        report = analyze_instance(disjunction_d6m2)
        stats = engine.gbs_tree(disjunction_d6m2)
        verdict = verify_bounds(disjunction_d6m2, report, stats)
        assert verdict.all_passed
        assert not verdict.conditional
        names = [c.name for c in verdict.checks]
        assert "optimal<=worst_case" not in names  # n = 21 exceeds the cap

    def test_verify_bounds_detects_violation(self, disjunction_d4m2):
        report = analyze_instance(disjunction_d4m2)
        stats = engine.gbs_tree(disjunction_d4m2)
        doctored = analysis.AnalysisReport(
            k_min=report.k_min,
            coherence=report.coherence,
            edges=report.edges,
            alpha_star=report.alpha_star,
            alpha_diagnostic=report.alpha_diagnostic,
            beta=report.beta,
            bounds=analysis.BoundSet(report.bounds.lam, 0.5, 0.5, 0.5),
            exhaustive_limit=report.exhaustive_limit,
            sample_count=report.sample_count,
            seed=report.seed,
            edge_mode=report.edge_mode,
        )
        verdict = verify_bounds(disjunction_d4m2, doctored, stats)
        assert not verdict.all_passed
        failed = [c for c in verdict.checks if not c.passed]
        assert failed and all(c.margin < 0 for c in failed)

    def test_least_chosen_split_is_checked_exactly_against_beta(self, disjunction_d4m2):
        report = analyze_instance(disjunction_d4m2)
        stats = engine.gbs_tree(disjunction_d4m2)
        assert stats.min_chosen_split == Fraction(1, 3)
        for beta, passed in ((Fraction(1, 3), True), (Fraction(1, 3) + Fraction(1, 10**30), False)):
            doctored = dataclasses.replace(report, beta=beta)
            by_name = {c.name: c for c in verify_bounds(disjunction_d4m2, doctored, stats).checks}
            check = by_name["min_chosen_split>=beta"]
            assert (check.passed, check.observed, check.bound) == (passed, Fraction(1, 3), beta)
            assert check.margin == Fraction(1, 3) - beta

    def test_conditional_flag_with_sampled_edges(self, disjunction_d4m2):
        report = analyze_instance(disjunction_d4m2, exhaustive_limit=0, samples=20)
        stats = engine.gbs_tree(disjunction_d4m2)
        verdict = verify_bounds(disjunction_d4m2, report, stats)
        assert verdict.conditional
        # Unbounded split bounds pass vacuously; the comparison is still reported.
        by_name = {c.name: c for c in verdict.checks}
        assert by_name["worst_case<=split_worst"].bound is None
        assert by_name["worst_case<=split_worst"].passed

    def test_all_mode_subsumes_preset_alpha(self, box_d1r2):
        preset = analyze_instance(box_d1r2)
        allmode = analyze_instance(box_d1r2, edge_mode="all")
        assert allmode.alpha_star >= preset.alpha_star
