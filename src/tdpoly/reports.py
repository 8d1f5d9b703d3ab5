"""Report containers for verification suites and extremal scans.

A report is its rows. A scan's columns are its rows' keys, in the order
the rows list them; a failed identity check is one graph/param/lhs/rhs row.
JSON serialization keeps exact integers as decimal strings so values
survive any consumer; key order is fixed by construction, so equal inputs
serialize to identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any

from .graph import Graph, to_edge_list
from .polynomial import IntPoly


@dataclass
class VerificationReport:
    """Outcome of an identity suite: instance count plus any failures."""

    suite: str
    params: dict[str, Any] = field(default_factory=dict)
    instances: int = 0
    # one {"graph", "param", "lhs", "rhs"} row per failed check: the instance's
    # edge-list text, the vertex/edge/order it used, the exact side, the side under test
    failures: list[dict[str, Any]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, graph: Graph | str, param: str, lhs: IntPoly, rhs: IntPoly) -> None:
        self.record_check(graph, param, lhs == rhs, lhs, rhs)

    def record_check(self, graph: Graph | str, param: str, ok: bool, lhs: Any, rhs: Any) -> None:
        """Tally one instance judged by the caller.

        The instance is its edge-list text, or a Graph that ``to_edge_list``
        formats only when the check fails: most checks pass, and their text
        would be dropped unread.
        """
        self.instances += 1
        if not ok:
            text = graph if isinstance(graph, str) else to_edge_list(graph)
            self.failures.append({"graph": text, "param": param, "lhs": lhs, "rhs": rhs})

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "params": _jsonable(self.params),
            "instances": self.instances,
            "passed": self.passed,
            "failures": _jsonable(self.failures),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


@dataclass
class ScanReport:
    """Per-instance records of an extremal scan plus a summary block.

    Every row carries the numeric facts its own flags were derived from, so
    a reader can recompute `holds`/`equality` from the row alone. The
    columns are the first row's keys; every row lists the same keys in the
    same order. The scan passes when every summary flag named in `checks`
    holds.
    """

    suite: str
    params: dict[str, Any] = field(default_factory=dict)
    rows: list[dict[str, Any]] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)
    checks: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(self.summary[key] for key in self.checks)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "params": _jsonable(self.params),
            "columns": list(self.rows[0]) if self.rows else [],
            "rows": _jsonable(self.rows),
            "summary": _jsonable(self.summary),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(self.rows[0]) if self.rows else [])
        for row in self.rows:
            writer.writerow(map(_csv_cell, row.values()))
        return buf.getvalue()


def _jsonable(value: Any) -> Any:
    # bools are ints in Python; test them first
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        try:
            return str(value)
        except ValueError:  # past Python's int-to-str limit; Decimal has none, same digits
            from decimal import Decimal  # imported here: only such a value needs it

            return str(Decimal(value))
    if isinstance(value, IntPoly):
        return value.to_coeff_strings()
    if isinstance(value, complex):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _csv_cell(value: Any) -> str:
    value = _jsonable(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(map(str, value))
    # keep one physical line per record: edge-list cells carry newlines
    return str(value).replace("\n", "; ")
