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
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

from .classify import PairCensus, classify_pair, require_admissible_m
from .graphs import ConnectionSet
from .theta import ThetaMap

SCHEMA_VERSION = 1
CSV_HEADER = ["n", "left", "right", "m_witnesses", "t_witnesses", "oracle_confirmed"]


def _jumps_str(c: ConnectionSet) -> str:
    return ",".join(str(j) for j in c.jumps)


def census_document(census: PairCensus, canonical: bool = False) -> dict:
    """The census as a plain JSON-ready dict (schema_version 1)."""
    pairs = []
    for left, right in census.pairs:
        confirmed = None
        if census.oracle_confirmed is not None:
            confirmed = census.oracle_confirmed.get((left, right))
        pairs.append(
            {
                "left": list(left.jumps),
                "right": list(right.jumps),
                "witnesses": [[m, t] for m, t in census.witnesses[(left, right)]],
                "oracle_confirmed": confirmed,
            }
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": census.n,
        "size_min": census.size_min,
        "size_max": census.size_max,
        "pair_count": len(census.pairs),
        "counts_by_size": {str(k): v for k, v in sorted(census.counts.items())},
        "pairs": pairs,
        "diagnostics": list(census.diagnostics),
    }
    if not canonical:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return doc


def emit_census(census: PairCensus, format: str = "json", canonical: bool = False) -> str:
    """Render a census as json, csv, or text."""
    if format == "json":
        return json.dumps(census_document(census, canonical=canonical), sort_keys=True, indent=2)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for left, right in census.pairs:
            probes = census.witnesses[(left, right)]
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
            f"(set sizes {census.size_min}..{census.size_max}): {len(census.pairs)}"
        ]
        for idx, (left, right) in enumerate(census.pairs, start=1):
            probes = census.witnesses[(left, right)]
            witness_str = ", ".join(f"m={m},t={t}" for m, t in probes)
            suffix = ""
            if census.oracle_confirmed is not None:
                verdict = census.oracle_confirmed.get((left, right))
                suffix = "  [oracle ok]" if verdict else "  [ORACLE MISMATCH]"
            lines.append(f"({idx}) {left}, {right}  [{witness_str}]{suffix}")
        for diag in census.diagnostics:
            lines.append(f"diagnostic: {diag}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r}")


def parse_census_json(text: str) -> PairCensus:
    """Inverse of emit_census(..., 'json'): rebuild the census object."""
    doc = json.loads(text)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    n = doc["n"]
    pairs = []
    witnesses = {}
    confirmed = {}
    any_confirmed = False
    for row in doc["pairs"]:
        left = ConnectionSet(n, tuple(row["left"]))
        right = ConnectionSet(n, tuple(row["right"]))
        pair = (left, right)
        pairs.append(pair)
        witnesses[pair] = tuple((m, t) for m, t in row["witnesses"])
        if row.get("oracle_confirmed") is not None:
            confirmed[pair] = row["oracle_confirmed"]
            any_confirmed = True
    return PairCensus(
        n=n,
        size_min=doc["size_min"],
        size_max=doc["size_max"],
        pairs=tuple(pairs),
        witnesses=witnesses,
        counts={int(k): v for k, v in doc["counts_by_size"].items()},
        oracle_confirmed=confirmed if any_confirmed else None,
        diagnostics=tuple(doc.get("diagnostics", ())),
    )


@dataclass(frozen=True)
class ThetaTableRow:
    """One shift table row: the elementwise images and the verdict."""

    t: int
    images: tuple[int, ...]
    verdict: str  # 'not' | 'self' | 'type1' | 'type2'
    unit: Optional[int] = None  # type1 witness


def theta_table_rows(c: ConnectionSet, m: int) -> list[ThetaTableRow]:
    """Elementwise images of the symmetric jump set for t = 1 .. n/m - 1.

    Each row's verdict and Type-1 unit come from `classify_pair` (its
    'not-circulant' reads 'not' here), so an m that divides gcd(n, r) for
    no jump r is refused with `classify_pair`'s message.
    """
    require_admissible_m(c, m)
    sym = c.symmetric_jumps()
    rows = []
    for t in range(1, c.n // m):
        rec = classify_pair(c, m, t)
        apply = ThetaMap(c.n, m, t).apply
        verdict = "not" if rec.kind == "not-circulant" else rec.kind
        rows.append(
            ThetaTableRow(t=t, images=tuple(apply(s) for s in sym), verdict=verdict, unit=rec.unit)
        )
    return rows


def render_theta_table(c: ConnectionSet, m: int) -> str:
    """Text table of elementwise shift images, one row per t in [1, n/m - 1]."""
    sym = c.symmetric_jumps()
    rows = theta_table_rows(c, m)
    width = max(3, len(str(c.n - 1)) + 1)
    header_cells = "".join(f"{s:>{width}}" for s in sym)
    lines = [
        f"Shift images of the symmetric jump set of {c} (m={m})",
        f"{'t':>4} |{header_cells} | equidistant from 0?",
    ]
    verdict_text = {
        "not": "Not",
        "self": "Yes (same)",
        "type2": "Yes (Type-2)",
    }
    for row in rows:
        cells = "".join(f"{x:>{width}}" for x in row.images)
        if row.verdict == "type1":
            verdict = f"Yes (Type-1, x={row.unit})"
        else:
            verdict = verdict_text[row.verdict]
        lines.append(f"{row.t:>4} |{cells} | {verdict}")
    return "\n".join(lines) + "\n"
