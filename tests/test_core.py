"""Instance validation, delta sets, and the arithmetic of the greedy split step."""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import delta_set
from splitfinder import core, persistence
from splitfinder.core import (
    DuplicateId,
    DuplicateOutcomeRow,
    EmptyInstance,
    InstanceError,
    InvalidMeta,
    InvalidOutcome,
    MalformedInstance,
    RowLengthMismatch,
    parse_rational,
    rational_text,
    validate_instance,
)
from splitfinder.engine import QueryBudgetExceeded, best_split_test, restrict
from test_engine import SMALL_FAMILY_INSTANCES


# The message of the walk's last line, which a refused document never reaches.
WALK_GUARD = "the bulk check refused a document in which no fault was found"
# The document-level faults, checked only after the bulk check accepts.
DOCUMENT_FAULTS = {"'params' must be an object", "'name' must be a string", "'family' must be a string"}


class Text(str):
    pass


class Whole(int):
    pass


class Coords(list):
    pass


def make_doc(rows: list[str], name: str = "adhoc") -> dict:
    return {
        "name": name,
        "family": "",
        "params": {},
        "tests": [{"id": f"t{x}"} for x in range(len(rows[0]))],
        "hypotheses": [{"id": f"h{i}", "outcomes": row} for i, row in enumerate(rows)],
    }


# A hypothesis strategy for small valid instances: distinct rows over 1..6
# tests.  Distinctness is enforced by construction, identifiability by spec.
@st.composite
def small_instances(draw):
    m_tests = draw(st.integers(min_value=1, max_value=6))
    rows = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << m_tests) - 1),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    strings = [format(value, f"0{m_tests}b")[::-1] for value in rows]
    return validate_instance(make_doc(strings))


def everyone(inst) -> np.ndarray:
    return np.arange(inst.n)


def node_counts(inst, members) -> np.ndarray:
    """The one-node counts of `best_split_test`, from a plain loop."""
    return oracles.ones_per_test(list(inst.rows), [list(members)])


def best_split(inst, members) -> tuple[int, Fraction]:
    """The greedy step on one node: its test and that test's split fraction."""
    tests, best = best_split_test(node_counts(inst, members), [len(members)])
    return int(tests[0]), Fraction(int(best[0]), len(members))


def split_of_test(inst, members, x) -> Fraction:
    """The split fraction of test x alone, through the greedy step."""
    _, best = best_split_test(node_counts(inst, members)[:, [x]], [len(members)])
    return Fraction(int(best[0]), len(members))


class TestValidateInstance:
    def test_pentagon_has_twenty_hypotheses(self, pentagon):
        assert pentagon.n == 20
        assert pentagon.m_tests == 5

    def test_duplicate_outcome_rows_rejected(self):
        with pytest.raises(DuplicateOutcomeRow):
            validate_instance(make_doc(["01", "01"]))

    def test_disjunction_d3m1_document_is_valid(self, disjunction_d3m1):
        # Oracle: the three single-variable disjunctions over three variables
        # have distinct truth tables over the 8 assignments.
        truth_tables = set()
        for v in range(3):
            table = "".join(
                "1" if format(x, "03b")[v] == "1" else "0" for x in range(8)
            )
            truth_tables.add(table)
        assert len(truth_tables) == 3
        assert disjunction_d3m1.n == 3

    def test_row_length_mismatch(self):
        doc = make_doc(["01", "10"])
        doc["hypotheses"][1]["outcomes"] = "1"
        with pytest.raises(RowLengthMismatch):
            validate_instance(doc)

    def test_duplicate_ids(self):
        doc = make_doc(["01", "10"])
        doc["hypotheses"][1]["id"] = "h0"
        with pytest.raises(DuplicateId):
            validate_instance(doc)
        doc = make_doc(["01", "10"])
        doc["tests"][1]["id"] = "t0"
        with pytest.raises(DuplicateId):
            validate_instance(doc)

    def test_empty_instance(self):
        with pytest.raises(EmptyInstance):
            validate_instance({"tests": [], "hypotheses": [{"id": "h", "outcomes": ""}]})
        with pytest.raises(EmptyInstance):
            validate_instance({"tests": [{"id": "t"}], "hypotheses": []})

    def test_bad_outcome_characters(self):
        doc = make_doc(["01", "10"])
        doc["hypotheses"][0]["outcomes"] = "0x"
        with pytest.raises(InvalidOutcome):
            validate_instance(doc)

    @pytest.mark.parametrize("bad", ["0x", "x1", "2 ", "0\u0661"])
    def test_bad_character_reported_before_a_later_duplicate_row(self, bad):
        # Each row is checked for characters before it is compared with the
        # rows seen so far, so a bad row wins over a duplicate after it.
        doc = make_doc(["10", bad, "01", "01"])
        with pytest.raises(InvalidOutcome, match="h1"):
            validate_instance(doc)
        doc = make_doc(["01", "01", bad])
        with pytest.raises(DuplicateOutcomeRow):
            validate_instance(doc)

    def test_inconsistent_coords_dimension(self):
        doc = make_doc(["01", "10"])
        doc["tests"][0]["meta"] = {"coords": [0, 0]}
        doc["tests"][1]["meta"] = {"coords": [1]}
        with pytest.raises(InvalidMeta):
            validate_instance(doc)

    def test_columns_and_rows_agree(self, disjunction_d4m2):
        inst = disjunction_d4m2
        columns = oracles.columns_of(inst)
        for h in range(inst.n):
            for x in range(inst.m_tests):
                bit = int(inst.rows[h][x])
                assert inst.outcomes[h, x] == bit
                assert ((columns[x] >> h) & 1) == bit


# Faults a document can carry, each applied at a drawn position: (kind, position
# draw, value).  Several may land in one document.
FAULTS = (
    "duplicate_test_id", "duplicate_hypothesis_id", "non_string_row", "short_row", "long_row",
    "bad_ascii_character", "non_ascii_character", "duplicate_row", "non_dict_test",
    "non_dict_hypothesis", "missing_id", "bad_meta", "bad_coords", "bad_params",
    "non_string_id", "falsy_meta", "bad_name", "falsy_params",
)


def apply_fault(doc: dict, kind: str, data) -> None:
    tests, hyps = doc["tests"], doc["hypotheses"]
    t = data.draw(st.integers(0, len(tests) - 1))
    h = data.draw(st.integers(0, len(hyps) - 1))
    other = data.draw(st.integers(0, len(hyps) - 1))
    row = hyps[h].get("outcomes") if isinstance(hyps[h], dict) else None
    if kind == "duplicate_test_id":
        tests[t]["id"] = tests[data.draw(st.integers(0, len(tests) - 1))]["id"]
    elif kind == "duplicate_hypothesis_id":
        hyps[h]["id"] = hyps[other].get("id", "h0")
    elif kind == "non_string_row":
        hyps[h]["outcomes"] = data.draw(st.sampled_from([None, 101, ["0", "1"], b"01"]))
    elif kind == "short_row" and isinstance(row, str):
        hyps[h]["outcomes"] = row[:-1]
    elif kind == "long_row" and isinstance(row, str):
        hyps[h]["outcomes"] = row + data.draw(st.sampled_from("01x"))
    elif kind in ("bad_ascii_character", "non_ascii_character") and isinstance(row, str) and row:
        alphabet = "x2 \x00" if kind == "bad_ascii_character" else "é中\u0661１😀"
        bad = data.draw(st.sampled_from(alphabet))
        at = data.draw(st.integers(0, len(row) - 1))
        hyps[h]["outcomes"] = row[:at] + bad + row[at + 1 :]
    elif kind == "duplicate_row":
        hyps[h]["outcomes"] = hyps[other].get("outcomes")
    elif kind == "non_dict_test":
        tests[t] = data.draw(st.sampled_from([None, "t", ["id"], ("id", "t")]))
    elif kind == "non_dict_hypothesis":
        hyps[h] = data.draw(st.sampled_from([None, "h", ["id"], 3]))
    elif kind == "missing_id" and isinstance(hyps[h], dict):
        hyps[h].pop("id", None)
    elif kind == "bad_meta" and isinstance(hyps[h], dict):
        hyps[h]["meta"] = data.draw(st.sampled_from([["coords"], "meta", 7]))
    elif kind == "bad_coords" and isinstance(tests[t], dict):
        tests[t]["meta"] = {"coords": data.draw(st.sampled_from([[0, 0], [1.5], "00", [True]]))}
    elif kind == "bad_params":
        doc["params"] = data.draw(st.sampled_from([["d"], "d=3", 3]))
    elif kind == "non_string_id":
        entry = tests[t] if data.draw(st.booleans()) else hyps[h]
        if isinstance(entry, dict):
            entry["id"] = data.draw(st.sampled_from([None, 0, 1.5, True, [1], {"id": "t0"}]))
    elif kind == "falsy_meta" and isinstance(tests[t], dict):
        # An empty object is no fault: it reads as no meta.
        tests[t]["meta"] = data.draw(st.sampled_from([[], 0, False, "", {}]))
    elif kind == "bad_name":
        key = data.draw(st.sampled_from(["name", "family"]))
        doc[key] = data.draw(st.sampled_from([None, 3, ["n"], {"f": 1}]))
    elif kind == "falsy_params":
        # Null and an empty object are no fault: both read as no params.
        doc["params"] = data.draw(st.sampled_from([[], 0, False, "", None, {}]))


class TestFaultyDocuments:
    """A document with faults fails with an InstanceError and no other exception."""

    @settings(max_examples=300, deadline=None)
    @given(small_instances(), st.lists(st.sampled_from(FAULTS), max_size=3), st.data())
    def test_faults_raise_instance_errors(self, inst, faults, data):
        doc = make_doc(list(inst.rows))
        # Entries are replaced by non-objects last, so every other fault finds an object.
        for kind in sorted(faults, key=lambda kind: kind.startswith("non_dict")):
            apply_fault(doc, kind, data)
        try:
            validated = validate_instance(doc)
        except InstanceError:
            assert faults
        else:
            # A fault can land as a no-op, such as an id copied onto itself.
            rows = [h["outcomes"] for h in doc["hypotheses"]]
            assert validated.outcomes.tolist() == [[c == "1" for c in row] for row in rows]

    @pytest.mark.parametrize("row", ["é1", "0é", "\u0661\u0660", "01\x00"[:2] + "\x00"])
    def test_non_ascii_and_nul_rows(self, row):
        doc = make_doc(["10", "01", "11"[: len(row)]])
        doc["hypotheses"][1]["outcomes"] = row
        with pytest.raises((InvalidOutcome, RowLengthMismatch)):
            validate_instance(doc)

    def test_string_subclass_rows_are_refused(self):
        doc = make_doc(["10", "01"])
        doc["hypotheses"][0]["outcomes"] = Text("10")
        with pytest.raises(InvalidOutcome) as raised:
            validate_instance(doc)
        assert str(raised.value) == "hypothesis 'h0': outcomes must be a string"


class TestBulkValidation:
    """``validate_instance`` checks in bulk and walks only a document that fails;
    ``oracles.loop_validate_instance`` checks one record at a time."""

    @staticmethod
    def assert_validates_like_the_loop(doc):
        try:
            expected = oracles.loop_validate_instance(doc)
        except InstanceError as exc:
            with pytest.raises(InstanceError) as raised:
                validate_instance(doc)
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
            return
        got = validate_instance(doc)
        assert (got.name, got.family, got.params) == (expected.name, expected.family, expected.params)
        assert (got.test_ids, got.hypothesis_ids) == (expected.test_ids, expected.hypothesis_ids)
        assert got.rows == expected.rows
        assert (got.test_meta, got.hypothesis_meta) == (expected.test_meta, expected.hypothesis_meta)
        assert np.array_equal(got.outcomes, expected.outcomes)
        expected_bytes = oracles.dumps_canonical_bytes(oracles.instance_to_document(expected))
        assert persistence.instance_bytes(got) == expected_bytes
        assert got == expected

    @settings(max_examples=300, deadline=None)
    @given(small_instances(), st.lists(st.sampled_from(FAULTS), max_size=3), st.data())
    def test_faulty_documents_fail_like_the_loop(self, inst, faults, data):
        doc = make_doc(list(inst.rows))
        for kind in sorted(faults, key=lambda kind: kind.startswith("non_dict")):
            apply_fault(doc, kind, data)
        self.assert_validates_like_the_loop(doc)

    @settings(max_examples=300, deadline=None)
    @given(small_instances(), st.lists(st.sampled_from(FAULTS), max_size=3), st.data())
    def test_only_the_bulk_check_accepts(self, inst, faults, data):
        # The bulk check refuses a document exactly when validate_instance
        # raises for one of its records; params, name and family are checked
        # after it, on a document it accepted.  The walk's guard never raises.
        doc = make_doc(list(inst.rows))
        for kind in sorted(faults, key=lambda kind: kind.startswith("non_dict")):
            apply_fault(doc, kind, data)
        columns = core._bulk_columns(doc)
        try:
            validate_instance(doc)
        except InstanceError as exc:
            assert str(exc) != WALK_GUARD
            assert (columns is None) == (str(exc) not in DOCUMENT_FAULTS)
        else:
            assert columns is not None

    def test_the_walk_guard_raises_when_no_fault_is_found(self, monkeypatch):
        # Reached only if the bulk check refused a valid document.
        monkeypatch.setattr(core, "_bulk_columns", lambda raw: None)
        with pytest.raises(MalformedInstance) as raised:
            validate_instance(make_doc(["01", "10"]))
        assert str(raised.value) == WALK_GUARD

    @pytest.mark.parametrize(
        "doctor, error, message",
        [
            (lambda doc: doc.update(tests=tuple(doc["tests"])),
             MalformedInstance, "'tests' must be a list of objects"),
            (lambda doc: doc["hypotheses"].__setitem__(0, MappingProxyType(doc["hypotheses"][0])),
             MalformedInstance, "hypotheses[0] must be an object with an 'id'"),
            (lambda doc: doc["tests"].__setitem__(1, OrderedDict(doc["tests"][1])),
             MalformedInstance, "tests[1] must be an object with an 'id'"),
            (lambda doc: doc["hypotheses"][1].update(id=Text("h1")),
             MalformedInstance, "hypotheses[1]: 'id' must be a string"),
            (lambda doc: doc["hypotheses"][2].update(meta=OrderedDict(coords=[1])),
             MalformedInstance, "hypotheses[2]: 'meta' must be an object"),
            (lambda doc: doc["tests"][1].update(meta={"coords": Coords([1])}),
             InvalidMeta, "record 't1': coords must be a list of integers"),
            (lambda doc: doc["tests"][1].update(meta={"coords": [Whole(1)]}),
             InvalidMeta, "record 't1': coords must be a list of integers"),
            (lambda doc: doc["tests"][0].update(meta={"cycle_index": Whole(0)}),
             InvalidMeta, "record 't0': cycle_index must be an integer"),
            (lambda doc: doc.update(params=OrderedDict()),
             MalformedInstance, "'params' must be an object"),
            (lambda doc: doc.update(name=Text("n")),
             MalformedInstance, "'name' must be a string"),
        ],
        ids=["tuple-tests", "mapping-entry", "dict-subclass-entry", "str-subclass-id", "dict-subclass-meta",
             "list-subclass-coords", "int-subclass-coord", "int-subclass-cycle-index", "dict-subclass-params",
             "str-subclass-name"],
    )
    def test_values_of_other_than_json_types_are_refused(self, doctor, error, message):
        doc = make_doc(["01", "10", "11"])
        doctor(doc)
        with pytest.raises(error) as raised:
            validate_instance(doc)
        assert (type(raised.value), str(raised.value)) == (error, message)
        self.assert_validates_like_the_loop(doc)

    @pytest.mark.parametrize("family", sorted(SMALL_FAMILY_INSTANCES))
    def test_a_valid_plain_document_is_not_walked(self, monkeypatch, family):
        def walked(raw):
            raise AssertionError("walked a valid document")

        monkeypatch.setattr(core, "_raise_first_fault", walked)
        instance = SMALL_FAMILY_INSTANCES[family]()
        doc = oracles.instance_to_document(instance)
        assert validate_instance(doc) == instance

    @pytest.mark.parametrize("value", [None, 0, 1.5, True, [1], {"id": "t0"}])
    def test_non_string_ids_are_refused(self, value):
        doc = make_doc(["0001", "0010"])
        doc["tests"][3]["id"] = value
        with pytest.raises(MalformedInstance) as raised:
            validate_instance(doc)
        assert str(raised.value) == "tests[3]: 'id' must be a string"
        doc = make_doc(["01", "10"])
        doc["hypotheses"][1]["id"] = value
        with pytest.raises(MalformedInstance, match=r"^hypotheses\[1\]: 'id' must be a string$"):
            validate_instance(doc)

    def test_null_id_no_longer_collides_with_the_string_none(self):
        doc = make_doc(["01", "10"])
        doc["hypotheses"][0]["id"], doc["hypotheses"][1]["id"] = None, "None"
        with pytest.raises(MalformedInstance, match=r"hypotheses\[0\]: 'id' must be a string"):
            validate_instance(doc)

    @pytest.mark.parametrize("key", ["name", "family"])
    @pytest.mark.parametrize("value", [None, 3, ["n"], {"f": 1}])
    def test_non_string_name_and_family_are_refused(self, key, value):
        doc = make_doc(["01", "10"])
        doc[key] = value
        with pytest.raises(MalformedInstance, match=f"^'{key}' must be a string$"):
            validate_instance(doc)
        del doc[key]
        assert getattr(validate_instance(doc), key) == ""

    @pytest.mark.parametrize("meta", [[], 0, False, ""])
    def test_falsy_non_object_meta_is_refused(self, meta):
        doc = make_doc(["01", "10"])
        doc["tests"][1]["meta"] = meta
        with pytest.raises(MalformedInstance, match=r"^tests\[1\]: 'meta' must be an object$"):
            validate_instance(doc)

    @pytest.mark.parametrize("meta", [None, {}])
    def test_null_and_empty_meta_read_as_no_meta(self, meta):
        doc = make_doc(["01", "10"])
        doc["tests"][1]["meta"] = meta
        assert validate_instance(doc).test_meta == (None, None)

    @pytest.mark.parametrize("params", [[], 0, False, ""])
    def test_falsy_non_object_params_are_refused(self, params):
        doc = make_doc(["01", "10"])
        doc["params"] = params
        with pytest.raises(MalformedInstance, match=r"^'params' must be an object$"):
            validate_instance(doc)

    @pytest.mark.parametrize("params", [None, {}])
    def test_null_and_empty_params_read_as_no_params(self, params):
        doc = make_doc(["01", "10"])
        doc["params"] = params
        assert validate_instance(doc).params == {}
        del doc["params"]
        assert validate_instance(doc).params == {}


class TestSplitProbability:
    def test_disjunction_single_bit_test(self, disjunction_d3m1):
        inst = disjunction_d3m1
        x = inst.test_index["100"]
        ones = restrict(inst.outcomes, everyone(inst), x, 1).size
        # Oracle: only x1 fires on assignment 100.
        rows = list(inst.rows)
        assert oracles.p_one_of(rows, [0, 1, 2], x) == Fraction(1, 3)
        assert Fraction(ones, inst.n) == Fraction(1, 3)
        assert split_of_test(inst, everyone(inst), x) == Fraction(1, 3)

    def test_constant_column_splits_zero(self, disjunction_d3m1):
        inst = disjunction_d3m1
        x = inst.test_index["000"]
        rows = list(inst.rows)
        assert oracles.split_of(rows, [0, 1, 2], x) == 0
        with pytest.raises(QueryBudgetExceeded, match="no test splits a version space of 3"):
            split_of_test(inst, everyone(inst), x)

    def test_pair_with_distinguishing_test(self):
        inst = validate_instance(make_doc(["01", "10"]))
        assert split_of_test(inst, everyone(inst), 0) == Fraction(1, 2)


class TestBestSplitTest:
    def test_prefers_half_split(self):
        # t0 and t2 each split off one of the 4 hypotheses; t1 halves them
        # and must win over the lower index.
        inst = validate_instance(make_doc(["100", "000", "010", "011"]))
        rows = list(inst.rows)
        x, value = best_split(inst, everyone(inst))
        assert (x, value) == oracles.best_split(rows, [0, 1, 2, 3])
        assert (x, value) == (1, Fraction(1, 2))

    def test_singleton_space_has_no_split(self, disjunction_d3m1):
        with pytest.raises(QueryBudgetExceeded, match="no test splits a version space of 1"):
            best_split(disjunction_d3m1, [0])

    def test_tie_breaks_to_lowest_index(self):
        # Tests 0 and 1 are constant; tests 2, 3, 5 all achieve the best
        # split 1/3, so the argmax must land on index 2.
        doc = {
            "tests": [{"id": f"t{x}"} for x in range(6)],
            "hypotheses": [
                {"id": "a", "outcomes": "001001"},
                {"id": "b", "outcomes": "000000"},
                {"id": "c", "outcomes": "000100"},
            ],
        }
        inst = validate_instance(doc)
        rows = list(inst.rows)
        splits = [oracles.split_of(rows, [0, 1, 2], x) for x in range(6)]
        assert splits[2] == splits[5] == Fraction(1, 3) == max(splits)
        assert best_split(inst, everyone(inst)) == (2, Fraction(1, 3))

    def test_identifiability_floor(self, disjunction_d4m2):
        # For |V| >= 2 some test must split off at least one hypothesis.
        _, value = best_split(disjunction_d4m2, everyone(disjunction_d4m2))
        assert value >= Fraction(1, disjunction_d4m2.n)

    def test_nodes_of_one_call_are_chosen_independently(self, disjunction_d4m2):
        inst = disjunction_d4m2
        nodes = [[0, 3, 4, 9], [1, 2], [5, 6, 7, 8]]
        rows = list(inst.rows)
        ones = oracles.ones_per_test(rows, nodes)
        tests, best = best_split_test(ones, [len(node) for node in nodes])
        for i, node in enumerate(nodes):
            x, value = oracles.best_split(rows, node)
            assert (int(tests[i]), Fraction(int(best[i]), len(node))) == (x, value)
            assert best_split(inst, node) == (x, value)


class TestRestrict:
    def test_positive_side_size(self, pentagon):
        rows = list(pentagon.rows)
        kept = restrict(pentagon.outcomes, everyone(pentagon), 0, 1)
        assert kept.size == oracles.p_one_of(rows, list(range(pentagon.n)), 0) * pentagon.n

    def test_contradiction_empties(self, pentagon):
        outcomes = pentagon.outcomes
        assert restrict(outcomes, restrict(outcomes, everyone(pentagon), 0, 0), 0, 1).size == 0

    def test_disjunction_restrict_example(self, disjunction_d3m1):
        inst = disjunction_d3m1
        kept = restrict(inst.outcomes, everyone(inst), inst.test_index["100"], 1)
        assert [inst.hypothesis_ids[h] for h in kept] == ["x1"]


class TestDeltaSet:
    def test_self_delta_empty(self, pentagon):
        assert delta_set(pentagon, 2, 2).size == 0

    def test_disjunction_delta(self, disjunction_d3m1):
        inst = disjunction_d3m1
        members = delta_set(inst, inst.test_index["000"], inst.test_index["100"])
        assert [inst.hypothesis_ids[h] for h in members] == ["x1"]

    def test_pentagon_adjacent_delta_size(self, pentagon):
        # Oracle: arcs of length 1..4 on the 5-cycle containing vertex 1 but
        # not vertex 0 - one per length.
        expected = oracles.count_arcs_containing(5, range(1, 5), vertex=1, excluded=0)
        assert expected == 4
        assert delta_set(pentagon, 0, 1).size == 4

    def test_delta_pair_decomposition(self, disjunction_d4m2):
        inst = disjunction_d4m2
        rows = list(inst.rows)
        for x, xp in [(0, 1), (3, 9), (5, 10)]:
            fwd = delta_set(inst, x, xp).tolist()
            bwd = delta_set(inst, xp, x).tolist()
            assert fwd == oracles.delta_members(rows, x, xp)
            assert set(fwd).isdisjoint(bwd)
            disagree = [h for h in range(inst.n) if rows[h][x] != rows[h][xp]]
            assert sorted(fwd + bwd) == disagree


def member_subset(inst, data) -> np.ndarray:
    mask = data.draw(st.integers(min_value=1, max_value=(1 << inst.n) - 1))
    return np.array([h for h in range(inst.n) if (mask >> h) & 1])


@settings(max_examples=60, deadline=None)
@given(small_instances(), st.data())
def test_restrict_partitions_every_space(inst, data):
    x = data.draw(st.integers(min_value=0, max_value=inst.m_tests - 1))
    members = member_subset(inst, data)
    ones = restrict(inst.outcomes, members, x, 1)
    zeros = restrict(inst.outcomes, members, x, 0)
    assert set(ones.tolist()).isdisjoint(zeros.tolist())
    assert sorted(ones.tolist() + zeros.tolist()) == members.tolist()
    assert ones.size + zeros.size == members.size


@settings(max_examples=60, deadline=None)
@given(small_instances(), st.data())
def test_split_range_and_definition(inst, data):
    x = data.draw(st.integers(min_value=0, max_value=inst.m_tests - 1))
    members = member_subset(inst, data)
    rows = list(inst.rows)
    p_one = oracles.p_one_of(rows, members.tolist(), x)
    assert Fraction(restrict(inst.outcomes, members, x, 1).size, members.size) == p_one
    if 0 < p_one < 1:
        split = split_of_test(inst, members, x)
        assert 0 < split <= Fraction(1, 2)
        assert split == min(p_one, 1 - p_one) == oracles.split_of(rows, members.tolist(), x)
    else:
        with pytest.raises(QueryBudgetExceeded):
            split_of_test(inst, members, x)


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_best_split_beats_identifiability_floor(inst):
    if inst.n < 2:
        return
    _, value = best_split(inst, everyone(inst))
    assert value >= Fraction(1, inst.n)


@settings(max_examples=40, deadline=None)
@given(small_instances(), st.data())
def test_delta_sets_partition_disagreements(inst, data):
    x = data.draw(st.integers(min_value=0, max_value=inst.m_tests - 1))
    xp = data.draw(st.integers(min_value=0, max_value=inst.m_tests - 1))
    fwd = delta_set(inst, x, xp).tolist()
    bwd = delta_set(inst, xp, x).tolist()
    assert set(fwd).isdisjoint(bwd)
    columns = oracles.columns_of(inst)
    assert sum(1 << h for h in fwd + bwd) == columns[x] ^ columns[xp]


class TestRationals:
    @pytest.mark.parametrize(
        "text, value",
        [("3", Fraction(3)), ("-1/3", Fraction(-1, 3)), ("0.25", Fraction(1, 4)),
         (" 1/3 ", Fraction(1, 3)), (0.5, Fraction(1, 2)), (7, Fraction(7))],
    )
    def test_accepts_integers_decimals_and_num_den(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "value",
        ["1/0", "1e10000000", "1E5", "2.5e-3", "abc", "", "1" * 5000,
         float("inf"), float("-inf"), float("nan")],
        ids=["zero-denominator", "exponent", "upper-exponent", "decimal-exponent", "a-word",
             "empty", "past-the-digit-limit", "inf", "minus-inf", "nan"],
    )
    def test_refuses_with_value_error(self, value):
        with pytest.raises(ValueError):
            parse_rational(value)

    def test_writes_num_den(self):
        assert rational_text(Fraction(-6, 4)) == "-3/2"
        assert rational_text(Fraction(5)) == "5/1"
        assert parse_rational(rational_text(Fraction(2, 7))) == Fraction(2, 7)
