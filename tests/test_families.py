"""Generator correctness: count formulas, geometry, determinism, errors."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import delta_set
from splitfinder import families
from splitfinder.analysis import min_k
from splitfinder.engine import best_split_test
from splitfinder.families import (
    BadParams,
    EmptyFamily,
    NotAxisConvex,
    NotAxisSymmetric,
    TooFewPoints,
    gen_box_localization,
    gen_convex_polygon,
    gen_counterexample_disjunction,
    gen_counterexample_plus,
    gen_discrete_linear,
    gen_disjunction,
    gen_linear_kcase,
    gen_monotone_cnf,
    gen_shape_localization,
)
from splitfinder.persistence import instance_digest


def multinomial(d: int, parts: list[int]) -> int:
    total = math.factorial(d)
    for p in parts:
        total //= math.factorial(p)
    return total


class TestConvexPolygon:
    def test_unbalanced_pentagon_count(self, pentagon):
        assert pentagon.n == 20  # all arcs with both labels: m * (m - 1)

    def test_balanced_count_formula(self):
        for m in (3, 5, 7, 8, 11):
            inst = gen_convex_polygon(m, balanced=True)
            assert inst.n == m * (m - 2 * math.ceil(m / 4) + 1)

    def test_balanced_pentagon_adjacent_delta(self, pentagon_balanced):
        m = 5
        expected = m - 2 * math.ceil(m / 4) + 1
        assert expected == 2
        assert delta_set(pentagon_balanced, 0, 1).size == expected

    def test_balanced_arcs_have_central_fraction(self, pentagon_balanced):
        for row in pentagon_balanced.rows:
            ones = Fraction(row.count("1"), 5)
            assert Fraction(1, 4) <= ones <= Fraction(3, 4)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            gen_convex_polygon(2, balanced=False)


class TestDisjunction:
    def test_count_formula(self):
        for d, m in [(3, 1), (4, 2), (5, 3), (6, 2)]:
            inst = gen_disjunction(d, m)
            assert inst.n == sum(math.comb(d, i) for i in range(1, m + 1))

    def test_monotone_anchors(self, disjunction_d6m2):
        inst = disjunction_d6m2
        zeros = inst.test_index["000000"]
        ones = inst.test_index["111111"]
        for h in range(inst.n):
            assert inst.rows[h][zeros] == "0"
            assert inst.rows[h][ones] == "1"

    def test_single_hypothesis_family(self):
        inst = gen_disjunction(1, 1)
        assert inst.n == 1

    def test_bad_params(self):
        with pytest.raises(BadParams):
            gen_disjunction(3, 0)
        with pytest.raises(BadParams):
            gen_disjunction(3, 4)


class TestMonotoneCnf:
    def test_count_formula(self):
        for d, m, l in [(4, 1, 2), (6, 2, 2), (6, 1, 3), (6, 2, 1)]:
            inst = gen_monotone_cnf(d, m, l)
            expected = multinomial(d, [m] * l + [d - l * m]) // math.factorial(l)
            assert inst.n == expected

    def test_d4_m1_l2_direct_enumeration(self):
        # Oracle: unordered pairs of distinct singleton clauses.
        inst = gen_monotone_cnf(4, 1, 2)
        assert inst.n == math.comb(4, 2) == 6

    def test_semantics_conjunction_of_disjunctions(self):
        inst = gen_monotone_cnf(5, 2, 2)
        for row, meta in zip(inst.rows, inst.hypothesis_meta):
            clauses = meta["clauses"]
            flat = [v for clause in clauses for v in clause]
            assert len(set(flat)) == len(flat)  # disjoint clauses
            for x, tid in enumerate(inst.test_ids):
                expected = all(
                    any(tid[v - 1] == "1" for v in clause) for clause in clauses
                )
                assert (row[x] == "1") == expected

    def test_l1_exact_size_variant_vs_disjunction(self):
        # l = 1 keeps only exactly-m clauses, a strict subset of the <= m family.
        cnf = gen_monotone_cnf(5, 2, 1)
        dj = gen_disjunction(5, 2)
        assert cnf.n == math.comb(5, 2)
        assert dj.n == 5 + math.comb(5, 2)
        cnf_rows = set(cnf.rows)
        dj_rows = set(dj.rows)
        assert cnf_rows < dj_rows

    def test_bad_params(self):
        with pytest.raises(BadParams):
            gen_monotone_cnf(4, 2, 3)  # l*m > d


class TestBoxLocalization:
    def test_counts_and_span(self, box_d1r2):
        assert box_d1r2.n == 5
        coords = [meta["coords"][0] for meta in box_d1r2.test_meta]
        assert coords == list(range(-5, 6))

    def test_product_count(self):
        inst = gen_box_localization((1, 2))
        assert inst.n == 3 * 5

    def test_adjacent_edge_slab(self, box_d2r11):
        inst = box_d2r11
        # Oracle: hypotheses answering 0 at x and 1 at x + e1 form a 1 x 3 slab.
        x = inst.test_index["-3,0"]
        xp = inst.test_index["-2,0"]
        rows = list(inst.rows)
        pool = oracles.delta_members(rows, x, xp)
        assert len(pool) == 3
        assert delta_set(inst, x, xp).size == 3
        coords = [inst.hypothesis_meta[h]["coords"] for h in pool]
        assert all(c[0] == -1 for c in coords)
        assert sorted(c[1] for c in coords) == [-1, 0, 1]

    def test_constant_columns_exist(self, box_d2r11):
        columns = oracles.columns_of(box_d2r11)
        assert (1 << box_d2r11.n) - 1 in columns
        assert 0 in columns

    def test_bad_params(self):
        with pytest.raises(BadParams):
            gen_box_localization((-1,))
        with pytest.raises(BadParams):
            gen_box_localization((1, 1), center=(0,))

    @pytest.mark.parametrize("radii", [(), (1, -1)])
    def test_bad_radii_message_names_both_conditions(self, radii):
        with pytest.raises(BadParams, match=r"nonempty and nonnegative, got \("):
            gen_box_localization(radii)
        with pytest.raises(BadParams, match="nonempty and nonnegative"):
            families.generate("box_localization", {"r": ",".join(map(str, radii))})

    def test_size_is_refused_before_any_offset_exists(self, monkeypatch):
        def refuse(radii):
            raise AssertionError("box_offsets ran before the size check")

        monkeypatch.setattr(families, "box_offsets", refuse)
        with pytest.raises(families.InstanceTooLarge, match="box_localization: "):
            gen_box_localization((100000, 100000))


class TestShapeLocalization:
    @pytest.mark.parametrize(
        "radii, center",
        [
            ((1, 2), None),
            ((0,), None),
            ((0, 0), None),
            ((3,), (-4,)),
            ((0, 2), (5, -1)),
            ((2, 0), (-3, 7)),
            ((1, 0, 1), None),
            ((1, 1, 0), (-1, 2, -3)),
        ],
    )
    def test_box_offsets_match_box_generator(self, radii, center):
        box = gen_box_localization(radii, center)
        shape = gen_shape_localization(families.box_offsets(radii), center)
        assert box.test_ids == shape.test_ids
        assert box.rows == shape.rows
        assert box.test_meta == shape.test_meta
        assert (box.hypothesis_ids, box.hypothesis_meta) == (shape.hypothesis_ids, shape.hypothesis_meta)

    @pytest.mark.parametrize("d, radius", itertools.product(range(1, 5), range(4)))
    def test_l1_ball_offsets_are_the_points_within_the_radius(self, d, radius):
        points = itertools.product(range(-radius, radius + 1), repeat=d)
        expected = [p for p in points if sum(abs(c) for c in p) <= radius]
        assert families.l1_ball_offsets(d, radius) == expected

    @pytest.mark.parametrize("d", ["-1", "0"])
    def test_l1_ball_needs_a_dimension(self, d):
        with pytest.raises(BadParams, match=f"needs d >= 1, got d={d}"):
            families.generate("shape_localization", {"d": d, "l1_radius": "1"})

    def test_rejects_zero_dimensional_offsets(self):
        with pytest.raises(BadParams, match="dimension >= 1"):
            gen_shape_localization([()])

    def test_l1_ball_count(self):
        inst = gen_shape_localization(families.l1_ball_offsets(2, 1))
        assert inst.n == 5

    def test_rejects_asymmetry(self):
        with pytest.raises(NotAxisSymmetric):
            gen_shape_localization([(0, 0), (1, 0)])

    def test_rejects_axis_gaps(self):
        offsets = [(0, 0), (2, 0), (-2, 0)]  # missing +-1 on the axis
        with pytest.raises(NotAxisConvex):
            gen_shape_localization(offsets)


class TestDiscreteLinear:
    def test_d8_r2_nonempty_with_known_witness(self):
        # Constraint arithmetic: w+ = 3, w- = 2, b = 0 satisfies
        # 3 <= 2*2 - 1 and 2 <= 2*(3 - 0 - 1) - 1.
        assert Fraction(3) <= 2 * Fraction(2) - Fraction(8, 8)
        assert Fraction(2) <= 2 * Fraction(2) - Fraction(8, 8)
        inst = gen_discrete_linear(8, 2)
        assert inst.n > 0
        shapes = {(sum(1 for w in meta["w"] if w > 0), sum(1 for w in meta["w"] if w < 0), meta["b"]) for meta in inst.hypothesis_meta}
        assert (3, 2, 0) in shapes

    def test_every_kept_pair_satisfies_constraints(self):
        inst = gen_discrete_linear(8, 2)
        r, margin = Fraction(2), Fraction(8, 8)
        for meta in inst.hypothesis_meta[::97]:
            w, b = meta["w"], meta["b"]
            plus = sum(1 for v in w if v > 0)
            minus = sum(1 for v in w if v < 0)
            assert plus - b <= r * (minus + b) - margin
            assert minus + b <= r * (plus - b - 1) - margin

    def test_duplicate_rows_collapse(self):
        inst = gen_discrete_linear(4, 4)
        rows = list(inst.rows)
        assert len(rows) == len(set(rows))

    def test_tiny_dimension_is_empty(self):
        with pytest.raises(EmptyFamily):
            gen_discrete_linear(1, 1)


class TestLinearKcase:
    def test_counts(self):
        assert gen_linear_kcase(4).n == math.comb(4, 2)
        assert gen_linear_kcase(8).n == math.comb(8, 4)

    def test_semantics(self):
        inst = gen_linear_kcase(4)
        for row, meta in zip(inst.rows, inst.hypothesis_meta):
            w = meta["w"]
            for x, tid in enumerate(inst.test_ids):
                dot = sum(wi * int(bit) for wi, bit in zip(w, tid))
                assert (row[x] == "1") == (dot > meta["b"])

    def test_k_lower_bounds(self):
        k4 = min_k(gen_linear_kcase(4))
        assert k4 >= math.comb(3, 1)
        assert k4 >= math.ceil(math.sqrt(6))
        k8 = min_k(gen_linear_kcase(8))
        assert k8 >= math.comb(6, 2)
        assert k8 >= math.ceil(math.sqrt(70))

    def test_bad_params(self):
        with pytest.raises(BadParams):
            gen_linear_kcase(6)


def root_split(inst) -> Fraction:
    """The split fraction the greedy step chooses on the full version space."""
    ones = oracles.ones_per_test(list(inst.rows), [range(inst.n)])
    _, best = best_split_test(ones, [inst.n])
    return Fraction(int(best[0]), inst.n)


class TestCounterexamples:
    def test_disjunction_m3_split_exactly_quarter(self):
        inst = gen_counterexample_disjunction(3)
        assert inst.n == 4
        value = root_split(inst)
        assert value == Fraction(1, 4)
        assert value < Fraction(1, 3)

    def test_disjunction_m2_split_third(self):
        inst = gen_counterexample_disjunction(2)
        assert inst.n == 3
        assert root_split(inst) == Fraction(1, 3)

    @pytest.mark.parametrize("m", range(2, 6))
    def test_disjunction_holds_the_disjunctions_of_m_of_m_plus_1_variables(self, m):
        cx = gen_counterexample_disjunction(m)
        full = gen_disjunction(m + 1, m)
        assert (cx.test_ids, cx.test_meta) == (full.test_ids, full.test_meta)
        size_m = [(hid, row) for hid, row, meta in records_of(full) if len(meta["vars"]) == m]
        assert sorted((hid, row) for hid, row, _ in records_of(cx)) == sorted(size_m)
        for meta in cx.hypothesis_meta:
            assert meta["vars"] == [v for v in range(1, m + 2) if v != meta["omitted"]]

    def test_plus_d2l2_split_exactly_quarter(self, cx_plus_d2l2):
        inst = cx_plus_d2l2
        assert inst.n == 4
        # Oracle sweep over the axis test region.
        rows = list(inst.rows)
        assert oracles.best_split(rows, [0, 1, 2, 3])[1] == Fraction(1, 4)
        assert root_split(inst) == Fraction(1, 4) < Fraction(1, 3)

    def test_plus_has_half_coherence_anchors(self, cx_plus_d2l2):
        columns = oracles.columns_of(cx_plus_d2l2)
        assert (1 << cx_plus_d2l2.n) - 1 in columns
        assert 0 in columns

    def test_bad_params(self):
        with pytest.raises(BadParams):
            gen_counterexample_disjunction(1)
        with pytest.raises(BadParams):
            gen_counterexample_plus(1, 2)


class TestDeterminismAndDispatch:
    def test_generators_are_deterministic(self):
        builders = [
            lambda: gen_convex_polygon(6, True),
            lambda: gen_disjunction(4, 2),
            lambda: gen_monotone_cnf(4, 1, 2),
            lambda: gen_box_localization((1, 1)),
            lambda: gen_shape_localization(families.l1_ball_offsets(2, 1)),
            lambda: gen_discrete_linear(4, 4),
            lambda: gen_linear_kcase(4),
            lambda: gen_counterexample_disjunction(2),
            lambda: gen_counterexample_plus(2, 1),
        ]
        for build in builders:
            assert build() == build()

    def test_generate_dispatch(self):
        inst = families.generate("disjunction", {"d": "4", "m": "2"})
        assert inst.n == 10
        inst = families.generate("box_localization", {"r": "1,2"})
        assert inst.n == 15
        inst = families.generate("convex_polygon", {"m": "5", "balanced": "false"})
        assert inst.n == 20
        inst = families.generate(
            "shape_localization", {"offsets": "0,0;1,0;-1,0;0,1;0,-1"}
        )
        assert inst.n == 5

    @pytest.mark.parametrize(
        "family, params",
        [
            ("convex_polygon", {"m": "9", "balanced": "false"}),
            ("convex_polygon", {"m": "10"}),
            ("disjunction", {"d": "6", "m": "3"}),
            ("monotone_cnf", {"d": "7", "m": "2", "l": "3"}),
            ("box_localization", {"r": "1,2"}),
            ("discrete_linear", {"d": "5", "r": "2"}),
            ("linear_kcase", {"d": "8"}),
            ("cx_disjunction", {"m": "4"}),
            ("cx_plus", {"d": "3", "l": "2"}),
            ("shape_localization", {"offsets": "0,0;1,0;-1,0;0,1;0,-1;2,0;-2,0"}),
        ],
    )
    def test_size_check_counts_what_is_built(self, monkeypatch, family, params):
        # The size limit is checked on counts from the parameters alone;
        # they must be the built instance's sizes (discrete_linear counts
        # rows before duplicates are dropped, so it may only overcount).
        checked = []
        original = families._check_size

        def record(name, tests, hypotheses):
            checked.append((tests, hypotheses))
            original(name, tests, hypotheses)

        monkeypatch.setattr(families, "_check_size", record)
        inst = families.generate(family, params)
        [(tests, hypotheses)] = checked
        assert tests == inst.m_tests
        if family == "discrete_linear":
            assert hypotheses >= inst.n
        else:
            assert hypotheses == inst.n

    def test_hypercube_size_is_refused_before_two_to_the_d_is_formed(self):
        limit_d = families.MAX_OUTCOMES.bit_length() - 1  # 2^limit_d == MAX_OUTCOMES
        assert families._cube_tests("disjunction", limit_d) == families.MAX_OUTCOMES
        with pytest.raises(families.InstanceTooLarge, match=f"d={limit_d + 1} means"):
            families._cube_tests("disjunction", limit_d + 1)

    def test_l1_ball_is_counted_before_it_is_built(self, monkeypatch):
        # Once from d and the radius, before any offset exists, and once
        # more from the offsets; both counts are the built instance's sizes.
        checked = []
        original = families._check_size

        def record(name, tests, hypotheses):
            checked.append((tests, hypotheses))
            original(name, tests, hypotheses)

        monkeypatch.setattr(families, "_check_size", record)
        for d, radius in [(1, 0), (1, 3), (2, 2), (3, 1), (3, 2), (4, 1)]:
            checked.clear()
            inst = families.generate("shape_localization", {"d": str(d), "l1_radius": str(radius)})
            assert len(families.l1_ball_offsets(d, radius)) == inst.n
            assert checked == [(inst.m_tests, inst.n)] * 2

    def test_l1_ball_dimension_is_refused_before_three_to_the_d_is_formed(self):
        assert 3**16 <= families.MAX_OUTCOMES < 3**17
        with pytest.raises(families.InstanceTooLarge, match=r"d=17 means at least 3\^17 tests"):
            families.generate("shape_localization", {"d": "17", "l1_radius": "0"})

    def test_size_limit_admits_the_largest_benchmark_instances(self):
        assert families.generate("disjunction", {"d": "12", "m": "3"}).n == 298
        assert families.generate("convex_polygon", {"m": "80", "balanced": "false"}).n == 6320

    def test_generate_rejects_unknown(self):
        with pytest.raises(BadParams):
            families.generate("mystery", {})
        with pytest.raises(BadParams):
            families.generate("disjunction", {"d": "4"})
        with pytest.raises(BadParams):
            families.generate("disjunction", {"d": "x", "m": "1"})


@pytest.mark.parametrize(
    "family, params, digest",
    [
        ("convex_polygon", {"m": "9", "balanced": "false"},
         "31804db9cf12f359de09fa9a4363499ed999994865d779dea3920e0b43e176ec"),
        ("convex_polygon", {"m": "9"},
         "97c9128328411e80ecfefe7c3bc54e4dd34bb68bd6ad531c6227685015914ed2"),
        ("disjunction", {"d": "6", "m": "2"},
         "e91fd2515f2993e8839b2c80a4ea9e74283ad0741af7841a323b7a762b66b118"),
        ("monotone_cnf", {"d": "6", "m": "2", "l": "2"},
         "1e301b76f9476647120f9a7e658245a700a3addd18496b6769d8c3b967f37cdd"),
        ("box_localization", {"r": "1,2"},
         "66252309ec49d649387ab4e804ccc79e398403d87ca7804683707b8bde0ecae8"),
        ("shape_localization", {"d": "2", "l1_radius": "2"},
         "bfe7482f0322f4ff063680394a23535f6adde8d4536bf9fab4879afb7539615c"),
        ("discrete_linear", {"d": "6", "r": "2"},
         "e552eecdbde8b19853d759bf92034fbfe1a3624624b48c8bccd7995bce10b2fb"),
        ("linear_kcase", {"d": "8"},
         "d0630ae0f3d116c3a452bb4e6cd6ae84490363c312e707ea847a8ea6cc3d6f15"),
        ("cx_disjunction", {"m": "3"},
         "53593672d622d8cf253ffe98a9dac5b3a9365f04f1f523cc53525819b9b07200"),
        ("cx_plus", {"d": "2", "l": "2"},
         "47ff1e749aa01be65ba9a4d45fe17eb107e721addba98dec7ba1dab5cdf425fb"),
    ],
    ids=["polygon-m9-all", "polygon-m9-balanced", "disjunction-d6-m2", "cnf-d6-m2-l2", "box-r1x2",
         "shape-d2-l1r2", "linear-d6-r2", "kcase-d8", "cx-disjunction-m3", "cx-plus-d2-l2"],
)
def test_generated_instance_digest(family, params, digest):
    """Instance bytes pinned per family, so a generator rewrite that drifts fails here."""
    assert instance_digest(families.generate(family, params)) == digest


@pytest.mark.parametrize(
    "family, params, digest",
    [
        ("linear_kcase", {"d": "12"},
         "801d5f2194f9328829aefc59e04a7bbc7eabe9cb843d2c8fb70822bc5db9a40d"),
        ("discrete_linear", {"d": "8", "r": "2"},
         "a1b8375b20decfdd26fda22a261b266732c695a62a502336a60d31fc227aa1bf"),
        ("monotone_cnf", {"d": "9", "m": "2", "l": "2"},
         "5dc263a0c6dbbb5f75530cc86682f6edbc4bcb295038e05b575174d7b09a385d"),
        ("disjunction", {"d": "12", "m": "3"},
         "77cea32d1e09cfb3e5a97a4889e9cc7e2b5807e619c26baebd46ba9d58a60c62"),
    ],
    ids=["kcase-d12", "linear-d8-r2", "cnf-d9-m2-l2", "disjunction-d12-m3"],
)
def test_large_generated_instance_digest(family, params, digest):
    """Instance bytes pinned at sizes where the rows span several numpy blocks."""
    assert instance_digest(families.generate(family, params)) == digest


def records_of(instance) -> list[tuple]:
    return list(zip(instance.hypothesis_ids, instance.rows, instance.hypothesis_meta))


class TestRowsMatchTheStringLoops:
    """Each numpy-built hypercube family against its one-character-at-a-time loop in ``oracles``."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d))))
    def test_disjunction(self, dm):
        d, m = dm
        assert records_of(gen_disjunction(d, m)) == oracles.loop_disjunction(d, m)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda d: st.tuples(st.just(d), st.integers(1, d)).flatmap(
                lambda dm: st.tuples(st.just(dm[0]), st.just(dm[1]), st.integers(1, dm[0] // dm[1]))
            )
        )
    )
    def test_monotone_cnf(self, dml):
        d, m, l = dml
        assert records_of(gen_monotone_cnf(d, m, l)) == oracles.loop_monotone_cnf(d, m, l)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 6),
        st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=4),
    )
    def test_discrete_linear(self, d, r):
        expected = oracles.loop_discrete_linear(d, r)
        if not expected:
            with pytest.raises(EmptyFamily):
                gen_discrete_linear(d, r)
            return
        assert records_of(gen_discrete_linear(d, r)) == expected

    @pytest.mark.parametrize("d", [4, 8])
    def test_linear_kcase(self, d):
        assert records_of(gen_linear_kcase(d)) == oracles.loop_linear_kcase(d)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_cx_disjunction(self, m):
        assert records_of(gen_counterexample_disjunction(m)) == oracles.loop_cx_disjunction(m)

    def test_rows_span_several_blocks(self, monkeypatch):
        # Blocks of 2 hypotheses: the block seams fall inside every family.
        monkeypatch.setattr(families, "_BLOCK_CELLS", 2 * 64)
        assert records_of(gen_disjunction(6, 2)) == oracles.loop_disjunction(6, 2)
        assert records_of(gen_monotone_cnf(6, 1, 3)) == oracles.loop_monotone_cnf(6, 1, 3)
        assert records_of(gen_discrete_linear(6, 2)) == oracles.loop_discrete_linear(6, Fraction(2))
        assert records_of(gen_counterexample_disjunction(5)) == oracles.loop_cx_disjunction(5)
        monkeypatch.setattr(families, "_BLOCK_CELLS", 1)
        assert records_of(gen_linear_kcase(8)) == oracles.loop_linear_kcase(8)
