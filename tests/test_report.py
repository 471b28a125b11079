import csv
import io
import json

import pytest

from circiso.classify import confirm_with_oracle, enumerate_type2
from circiso.graphs import ConnectionSet
from circiso.report import (
    CSV_HEADER,
    ThetaTableRow,
    census_document,
    emit_census,
    parse_census_json,
    render_theta_table,
    theta_table_rows,
    write_census_json,
)

from reference_data import THETA_TABLES_24


@pytest.fixture(scope="module")
def census16():
    return enumerate_type2(16, 3, 8)


def test_json_round_trip(census16):
    text = emit_census(census16, format="json")
    back = parse_census_json(text)
    assert back.pairs == census16.pairs
    assert back.witnesses == census16.witnesses
    assert back.counts == census16.counts


def test_json_round_trip_with_oracle_flags():
    census = enumerate_type2(16, 3, 3)
    confirm_with_oracle(census)
    back = parse_census_json(emit_census(census, format="json"))
    assert back.oracle_confirmed == census.oracle_confirmed


def test_canonical_json_is_byte_deterministic(census16):
    a = emit_census(census16, format="json", canonical=True)
    b = emit_census(census16, format="json", canonical=True)
    assert a == b
    assert "generated_at" not in a
    assert "generated_at" in emit_census(census16, format="json")


def test_json_schema_fields(census16):
    doc = json.loads(emit_census(census16, format="json", canonical=True))
    assert doc["schema_version"] == 1
    assert doc["n"] == 16
    assert doc["pair_count"] == 8 == len(doc["pairs"])
    assert doc["counts_by_size"] == {"3": 2, "4": 4, "5": 2}
    first = doc["pairs"][0]
    assert set(first) == {"left", "right", "witnesses", "oracle_confirmed"}


def test_parse_rejects_unknown_schema(census16):
    doc = json.loads(emit_census(census16, format="json"))
    doc["schema_version"] = 99
    with pytest.raises(ValueError):
        parse_census_json(json.dumps(doc))


@pytest.mark.parametrize(
    "key, tamper",
    [
        ("pair_count", lambda doc: doc.update(pair_count=7)),
        ("counts_by_size", lambda doc: doc.update(counts_by_size={"3": 2, "4": 4, "5": 1})),
        ("counts_by_size", lambda doc: doc.update(counts_by_size={})),
        ("pair_count", lambda doc: doc["pairs"].__setitem__(1, doc["pairs"][0])),
    ],
    ids=["pair-count", "counts-by-size", "counts-by-size-empty", "repeated-pair"],
)
def test_parse_rejects_counts_that_disagree_with_the_pairs(census16, key, tamper):
    doc = json.loads(emit_census(census16, format="json"))
    tamper(doc)
    with pytest.raises(ValueError, match=key):
        parse_census_json(json.dumps(doc))


def _swap_first_pair(doc):
    first = doc["pairs"][0]
    first["left"], first["right"] = first["right"], first["left"]


def _add_swapped_copy_of_first_pair(doc):
    first = doc["pairs"][0]
    doc["pairs"].append({**first, "left": first["right"], "right": first["left"]})
    doc["pair_count"] += 1
    doc["counts_by_size"][str(len(first["left"]))] += 1


@pytest.mark.parametrize(
    "key, tamper",
    [
        ("outside", lambda doc: doc.update(size_max=3)),
        ("outside", lambda doc: doc.update(size_min=4)),
        ("left-before-right", _swap_first_pair),
        ("left-before-right", _add_swapped_copy_of_first_pair),
    ],
    ids=["size-max", "size-min", "right-before-left", "repeated-swap"],
)
def test_parse_rejects_rows_that_the_census_cannot_hold(census16, key, tamper):
    # each tampered document keeps its counts consistent with its rows
    doc = json.loads(emit_census(census16, format="json"))
    tamper(doc)
    with pytest.raises(ValueError, match=key):
        parse_census_json(json.dumps(doc))


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _first_row_without_witnesses(doc):
    del doc["pairs"][0]["witnesses"]
    return doc


def _first_row_with_int_left(doc):
    doc["pairs"][0]["left"] = 3
    return doc


@pytest.mark.parametrize(
    "tamper",
    [
        _without("n"),
        _without("pairs"),
        _without("counts_by_size"),
        _first_row_without_witnesses,
        lambda doc: {**doc, "pairs": 5},
        _first_row_with_int_left,
        lambda doc: {**doc, "n": "16"},
        lambda doc: {**doc, "size_min": "3"},
        lambda doc: [doc],
    ],
    ids=[
        "no-n",
        "no-pairs",
        "no-counts-by-size",
        "row-without-witnesses",
        "pairs-not-a-list",
        "left-not-a-list",
        "string-n",
        "string-size-min",
        "top-level-list",
    ],
)
def test_parse_refuses_malformed_documents_with_value_error(census16, tamper):
    # a KeyError, TypeError or AttributeError at the parent
    doc = tamper(json.loads(emit_census(census16, format="json")))
    with pytest.raises(ValueError, match="malformed census document"):
        parse_census_json(json.dumps(doc))


def test_csv_shape(census16):
    text = emit_census(census16, format="csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 8
    assert rows[1][0] == "16"
    left = [r[1] for r in rows[1:]]
    assert "1,2,7" in left
    m_witnesses = {r[3] for r in rows[1:]}
    assert m_witnesses == {"2"}


def test_text_mode(census16):
    text = emit_census(census16, format="text")
    assert text.splitlines()[0].endswith("8")
    assert "C_16(1,2,7), C_16(2,3,5)" in text


def test_empty_census_documents():
    census = enumerate_type2(9, 3, 4)
    assert census.pairs == ()
    doc = json.loads(emit_census(census, format="json"))
    assert doc["pair_count"] == 0 and doc["pairs"] == []
    assert len(emit_census(census, format="csv").splitlines()) == 1
    back = parse_census_json(emit_census(census, format="json"))
    assert back.pairs == ()


@pytest.mark.parametrize(
    "header",
    [
        {"n": "nine", "size_min": []},
        {"n": -5, "size_max": 100},
        {"n": 3, "size_min": 1, "size_max": 1},
        {"n": True},
        {"size_max": 9},
        {"size_min": 0},
        {"size_min": 4, "size_max": 3},
        {"size_min": 3.0},
    ],
    ids=[
        "string-n",
        "negative-n",
        "order-3",
        "bool-n",
        "size-max-above-half",
        "size-min-0",
        "empty-range",
        "float-size-min",
    ],
)
def test_parse_refuses_census_headers_out_of_range(census16, header):
    # checked before the rows: the empty n = 9 census has no row to fail,
    # and the n = 16 census fails on its header, not on a row
    for census in (enumerate_type2(9, 3, 4), census16):
        doc = {**json.loads(emit_census(census, format="json")), **header}
        with pytest.raises(ValueError, match="is not the range of a census"):
            parse_census_json(json.dumps(doc))


def _written(doc) -> str:
    out = io.StringIO()
    write_census_json(doc, out)
    return out.getvalue()


def test_direct_writer_matches_json_dumps_at_every_order_up_to_40():
    # every size 1..n/2, so the empty censuses and the n = 40 census of
    # 9,216 pairs are both written
    for n in range(4, 41):
        doc = census_document(enumerate_type2(n, 1, n // 2, allow_small=True), canonical=True)
        assert _written(doc) == json.dumps(doc, sort_keys=True, indent=2), n


def test_direct_writer_matches_json_dumps_on_flags_timestamps_diagnostics_and_extra_fields():
    confirmed = confirm_with_oracle(enumerate_type2(16, 3, 3))
    confirmed.oracle_confirmed[confirmed.pairs[0]] = False  # both flags appear
    docs = [
        census_document(confirmed, canonical=True),
        census_document(enumerate_type2(24)),  # generated_at: one dict on both sides
        census_document(enumerate_type2(9, 3, 4), canonical=True),
        census_document(confirmed),
        census_document(enumerate_type2(16, 3, 3), canonical=True),
    ]
    docs[3]["diagnostics"] = ['quote " and backslash \\ in a note', "non-ASCII: é, ≅, 🙂", ""]
    # The writer reads the layout off the values, so a field the schema
    # does not name comes out as json.dumps writes it.
    docs[-1]["pairs"][0]["note"] = {"b": [1.5, True, [], {}], "a": (2, "x"), "c": {}}
    docs[-1]["extra"] = [[], {"k": None}, -3]
    for doc in docs:
        assert _written(doc) == json.dumps(doc, sort_keys=True, indent=2)
    assert "generated_at" in docs[1] and docs[2]["pairs"] == []


def test_unknown_format_rejected(census16):
    with pytest.raises(ValueError):
        emit_census(census16, format="yaml")


@pytest.mark.parametrize("jumps", sorted(THETA_TABLES_24))
def test_table_rows_match_published_tables(jumps):
    rows = theta_table_rows(ConnectionSet(24, jumps), 2)
    expected = THETA_TABLES_24[jumps]
    assert len(rows) == len(expected) == 11
    for row, (t, images, (verdict, unit)) in zip(rows, expected):
        assert row.t == t
        assert row.images == images
        assert row.verdict == verdict
        assert row.unit == unit


def test_table_rows_are_immutable_with_fixed_fields():
    row = theta_table_rows(ConnectionSet(24, (1, 2, 3)), 2)[5]
    assert row == ThetaTableRow(t=6, images=row.images, verdict="type1", unit=11)
    assert ThetaTableRow._fields == ("t", "images", "verdict", "unit")
    with pytest.raises(AttributeError):
        row.verdict = "not"


def test_render_theta_table_text():
    text = render_theta_table(ConnectionSet(24, (1, 2, 3)), 2)
    lines = text.splitlines()
    assert len(lines) == 2 + 11
    assert "Yes (Type-1, x=11)" in lines[2 + 6 - 1]
    assert lines[2].endswith("Not")


def test_render_theta_table_marks_self_rows():
    text = render_theta_table(ConnectionSet(24, (2, 3, 9)), 2)
    assert "Yes (same)" in text
