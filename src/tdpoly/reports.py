"""Report containers for verification suites and extremal scans.

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


@dataclass(frozen=True)
class IdentityFailure:
    """One instance where the two sides of an identity disagreed."""

    graph: str  # edge-list text of the instance
    param: str  # which vertex/edge/order the instance used
    lhs: Any  # exact side (IntPoly, int, or number)
    rhs: Any  # side under test


@dataclass
class VerificationReport:
    """Outcome of an identity suite: instance count plus any failures."""

    suite: str
    params: dict[str, Any] = field(default_factory=dict)
    instances: int = 0
    failures: list[IdentityFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, graph: Graph | str, param: str, lhs: IntPoly, rhs: IntPoly) -> None:
        self.record_check(graph, param, lhs == rhs, lhs, rhs)

    def record_check(self, graph: Graph | str, param: str, ok: bool, lhs: Any, rhs: Any) -> None:
        """Tally one instance judged by the caller (approximate comparisons).

        The instance is its edge-list text, or a Graph that ``to_edge_list``
        formats only when the check fails: most checks pass, and their text
        would be dropped unread.
        """
        self.instances += 1
        if not ok:
            text = graph if isinstance(graph, str) else to_edge_list(graph)
            self.failures.append(IdentityFailure(text, param, lhs, rhs))

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "instances": self.instances,
            "passed": self.passed,
            "failures": [
                {
                    "graph": f.graph,
                    "param": f.param,
                    "lhs": _jsonable(f.lhs),
                    "rhs": _jsonable(f.rhs),
                }
                for f in self.failures
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


@dataclass
class ScanReport:
    """Per-instance records of an extremal scan plus a summary block.

    Every row carries the numeric facts its own flags were derived from, so
    a reader can recompute `holds`/`equality` from the row alone. The scan
    passes when every summary flag named in `checks` holds.
    """

    suite: str
    params: dict[str, Any] = field(default_factory=dict)
    columns: tuple[str, ...] = ()
    rows: list[dict[str, Any]] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)
    checks: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(self.summary[key] for key in self.checks)

    def add_row(self, **values: Any) -> None:
        if tuple(values) != self.columns:
            raise ValueError(f"row keys {tuple(values)} do not match columns {self.columns}")
        self.rows.append(values)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "columns": list(self.columns),
            "rows": [{k: _jsonable(v) for k, v in row.items()} for row in self.rows],
            "summary": {k: _jsonable(v) for k, v in self.summary.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_csv_cell(row[c]) for c in self.columns])
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
