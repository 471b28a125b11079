"""Serialization of censuses and text rendering of shift tables.

The JSON document is schema-versioned and byte-deterministic in canonical
mode (sorted keys, no timestamp) so golden-file tests can assert exact
output.  CSV puts one pair per row; text mode mirrors the numbered-list
style used when quoting pairs by hand.
"""

from __future__ import annotations

import csv
import io
import json
from json.encoder import encode_basestring_ascii as _string
from datetime import datetime, timezone
from typing import NamedTuple, Optional

from .classify import PairCensus, circulant_records, require_admissible_m
from .graphs import ConnectionSet

SCHEMA_VERSION = 1
CSV_HEADER = ["n", "left", "right", "m_witnesses", "t_witnesses", "oracle_confirmed"]


def _jumps_str(c: ConnectionSet) -> str:
    return ",".join(str(j) for j in c.jumps)


def census_document(census: PairCensus, canonical: bool = False) -> dict:
    """The census as a plain JSON-ready dict (schema_version 1).  The
    "diagnostics" list of the schema is always empty."""
    pairs = []
    for (left, right), probes in census.witnesses.items():
        confirmed = None
        if census.oracle_confirmed is not None:
            confirmed = census.oracle_confirmed.get((left, right))
        pairs.append(
            {
                "left": list(left.jumps),
                "right": list(right.jumps),
                "witnesses": [[m, t] for m, t in probes],
                "oracle_confirmed": confirmed,
            }
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": census.n,
        "size_min": census.size_min,
        "size_max": census.size_max,
        "pair_count": len(census.witnesses),
        "counts_by_size": {str(k): v for k, v in sorted(census.counts.items())},
        "pairs": pairs,
        "diagnostics": [],
    }
    if not canonical:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return doc


def _indented(value, indent: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2) for a value whose first
    line sits at `indent` (a newline and two spaces per level).  Nonempty
    lists and dicts with string keys are laid out here, without json's
    pure-Python indenting encoder; strings are escaped by json's own
    encoder."""
    inner = indent + "  "
    if type(value) is dict and value:
        items = [f"{_string(key)}: {_indented(value[key], inner)}" for key in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    if type(value) is list and value:
        items = [str(x) if type(x) is int else _indented(x, inner) for x in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    if type(value) is str:
        return _string(value)
    if value is None:  # the oracle flag of every pair of an unconfirmed census
        return "null"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", indent)


def write_census_json(doc: dict, out) -> None:
    """Write a `census_document` to the text stream `out`, byte for byte
    as json.dumps(doc, sort_keys=True, indent=2), one item of each list
    (one pair of "pairs") at a time."""
    for i, key in enumerate(sorted(doc)):
        out.write(f"{',' if i else '{'}\n  {_string(key)}: ")
        value = doc[key]
        if type(value) is list and value:
            for j, item in enumerate(value):
                out.write(",\n    " if j else "[\n    ")
                out.write(_indented(item, "\n    "))
            out.write("\n  ]")
        else:
            out.write(_indented(value, "\n  "))
    out.write("\n}" if doc else "{}")


def emit_census(census: PairCensus, format: str = "json", canonical: bool = False) -> str:
    """Render a census as json, csv, or text."""
    if format == "json":
        buf = io.StringIO()
        write_census_json(census_document(census, canonical=canonical), buf)
        return buf.getvalue()
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for (left, right), probes in census.witnesses.items():
            confirmed = ""
            if census.oracle_confirmed is not None:
                confirmed = str(census.oracle_confirmed.get((left, right), "")).lower()
            writer.writerow(
                [
                    census.n,
                    _jumps_str(left),
                    _jumps_str(right),
                    ";".join(str(m) for m in sorted({m for m, _ in probes})),
                    ";".join(str(t) for t in sorted({t for _, t in probes})),
                    confirmed,
                ]
            )
        return buf.getvalue()
    if format == "text":
        lines = [
            f"Type-2 pairs of order {census.n} "
            f"(set sizes {census.size_min}..{census.size_max}): {len(census.witnesses)}"
        ]
        for idx, ((left, right), probes) in enumerate(census.witnesses.items(), start=1):
            witness_str = ", ".join(f"m={m},t={t}" for m, t in probes)
            suffix = ""
            if census.oracle_confirmed is not None:
                verdict = census.oracle_confirmed.get((left, right))
                suffix = "  [oracle ok]" if verdict else "  [ORACLE MISMATCH]"
            lines.append(f"({idx}) {left}, {right}  [{witness_str}]{suffix}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r}")


def parse_census_json(text: str) -> PairCensus:
    """Inverse of emit_census(..., 'json'): rebuild the census object.
    A document is refused when a pair is not written left before right
    (jump lists in ascending lexicographic order, as the census orders
    them), when a jump set's size lies outside [size_min, size_max], or
    when "pair_count" or "counts_by_size" disagrees with its distinct
    "pairs".  A document whose fields are missing or of the wrong JSON
    type is refused with a ValueError too; "n", "size_min" and "size_max"
    are checked before the rows: integers with n >= 4 and
    1 <= size_min <= size_max <= n // 2, as `enumerate_type2` requires.
    The witnesses are taken as written."""
    try:
        doc = json.loads(text)
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
        n, size_min, size_max = doc["n"], doc["size_min"], doc["size_max"]
        integers = all(type(v) is int for v in (n, size_min, size_max))
        if not (integers and n >= 4 and 1 <= size_min <= size_max <= n // 2):
            raise ValueError(
                f"malformed census document: n={n!r}, size_min={size_min!r}, "
                f"size_max={size_max!r} is not the range of a census"
            )
        witnesses = {}
        confirmed = {}
        for row in doc["pairs"]:
            left, right = row["left"], row["right"]
            if not left < right:
                raise ValueError(f"pair {left} / {right} is not in left-before-right order")
            if not size_min <= len(left) <= size_max or not size_min <= len(right) <= size_max:
                raise ValueError(
                    f"pair {left} / {right} has a jump set size outside [{size_min}, {size_max}]"
                )
            pair = (ConnectionSet(n, tuple(left)), ConnectionSet(n, tuple(right)))
            witnesses[pair] = tuple((m, t) for m, t in row["witnesses"])
            if row.get("oracle_confirmed") is not None:
                confirmed[pair] = row["oracle_confirmed"]
        census = PairCensus(
            n=n,
            size_min=size_min,
            size_max=size_max,
            witnesses=witnesses,
            oracle_confirmed=confirmed or None,
        )
        if doc["pair_count"] != len(witnesses):
            raise ValueError(f"pair_count {doc['pair_count']} but {len(witnesses)} distinct pairs")
        counts = {str(k): v for k, v in census.counts.items()}
        if doc["counts_by_size"] != counts:
            raise ValueError(f"counts_by_size {doc['counts_by_size']} but the pairs give {counts}")
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed census document: {type(exc).__name__}: {exc}") from exc
    return census


class ThetaTableRow(NamedTuple):
    """One shift table row: the elementwise images and the verdict."""

    t: int
    images: tuple[int, ...]
    verdict: str  # 'not' | 'self' | 'type1' | 'type2'
    unit: Optional[int] = None  # type1 witness


def theta_table_rows(c: ConnectionSet, m: int) -> list[ThetaTableRow]:
    """Elementwise images of the symmetric jump set for t = 1 .. n/m - 1.

    Each cell is s + (s mod m)*t*m (mod n), the shift map applied to one
    s of +-R; the cells are built one column per s and zipped into rows.
    The verdict and Type-1 unit of each row t = q, 2q, ... come from the
    `classify_pair` record that `classify.circulant_records` gives for
    it.  Every other row is 'not': the image is circulant iff q divides t
    (`theta._least_period`).  An m that divides gcd(n, r) for no jump r
    is refused with `require_admissible_m`'s message.
    """
    require_admissible_m(c, m)
    n = c.n
    verdicts = ["not"] * (n // m - 1)
    units = [None] * (n // m - 1)
    for rec in circulant_records(c, m):
        verdicts[rec.t - 1] = rec.kind
        units[rec.t - 1] = rec.unit
    ts = range(1, n // m)
    steps = [(s, s % m * m) for s in c.symmetric_jumps()]
    columns = [[(s + k * t) % n for t in ts] for s, k in steps]
    return list(map(ThetaTableRow, ts, zip(*columns), verdicts, units))


def render_theta_table(c: ConnectionSet, m: int) -> str:
    """Text table of elementwise shift images, one row per t in [1, n/m - 1]."""
    sym = c.symmetric_jumps()
    rows = theta_table_rows(c, m)
    width = max(3, len(str(c.n - 1)) + 1)
    row_format = f"%{width}d" * len(sym)  # one right-aligned cell per element of +-R
    lines = [
        f"Shift images of the symmetric jump set of {c} (m={m})",
        f"{'t':>4} |{row_format % sym} | equidistant from 0?",
    ]
    verdict_text = {
        "not": "Not",
        "self": "Yes (same)",
        "type2": "Yes (Type-2)",
    }
    for row in rows:
        if row.verdict == "type1":
            verdict = f"Yes (Type-1, x={row.unit})"
        else:
            verdict = verdict_text[row.verdict]
        lines.append(f"{row.t:>4} |{row_format % row.images} | {verdict}")
    return "\n".join(lines) + "\n"
