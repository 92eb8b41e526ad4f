"""Persisted benchmark results and baseline regression detection.

Every benchmark run that should outlive its process goes through a
:class:`BenchStore`:

* **persist** -- :meth:`BenchStore.save` serialises a set of
  :class:`~repro.analysis.records.ExperimentReport` sweeps to
  ``BENCH_<name>.json`` (sorted keys, ``inf``-safe, deterministic modulo
  the ``created`` stamp and whatever wall-clock extras the caller put in
  ``meta``).
* **round-trip** -- :meth:`BenchRecord.to_reports` reconstructs the
  reports, so rendered tables are *derived from the store* instead of
  hand-maintained.
* **compare** -- :meth:`BenchStore.compare` diffs a run against a stored
  baseline row by row with configurable relative tolerances and returns
  a :class:`RegressionReport`; a regression (e.g. a +20% round count)
  makes :attr:`RegressionReport.exit_code` non-zero, which CI's
  benchmark smoke job turns into a red build.

Rows are matched on ``(experiment, params)``; the compared quantity is
``measured`` (rounds for most sweeps) where *larger is worse*.  Rows
present on only one side are reported but are not regressions -- adding
a sweep must not fail CI, removing one is visible in review.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..analysis.records import ExperimentReport, Measurement

INF = float("inf")


def atomic_write_text(path: Path, text: str) -> None:
    """Write *text* to *path* atomically: full content to a same-directory
    temp file, then ``os.replace``.

    A reader (a concurrent tolerance compare, a later CI step after an
    interrupted run) therefore observes either the previous complete file
    or the new complete file -- never a truncated one.  The temp name
    embeds the pid so two writers cannot trample each other's staging
    file; the losing ``os.replace`` simply installs its complete version
    second.
    """
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        # Only reached with tmp still present when write_text/replace
        # failed; never leave staging litter behind.
        if tmp.exists():
            tmp.unlink()


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        if value != value:
            return {"$float": "nan"}
        if value == INF:
            return {"$float": "inf"}
        if value == -INF:
            return {"$float": "-inf"}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _from_jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"$float"}:
            return float(value["$float"])
        return {k: _from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    return value


RowKey = Tuple[str, str]


@dataclass
class BenchRecord:
    """One persisted benchmark run: metadata plus flattened report rows."""

    name: str
    created: str
    meta: Dict[str, Any] = field(default_factory=dict)
    #: ``{"experiment", "description", "params", "measured", "bound",
    #: "extra"}`` dicts, in sweep order.
    rows: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def from_reports(cls, name: str, reports: Iterable[ExperimentReport],
                     *, created: str = "",
                     meta: Optional[Dict[str, Any]] = None) -> "BenchRecord":
        rows = []
        for rep in reports:
            for m in rep.rows:
                rows.append({
                    "experiment": rep.experiment,
                    "description": rep.description,
                    "params": dict(m.params),
                    "measured": m.measured,
                    "bound": m.bound,
                    "extra": dict(m.extra),
                })
        return cls(name=name, created=created, meta=dict(meta or {}),
                   rows=rows)

    def to_reports(self) -> List[ExperimentReport]:
        """Reconstruct the reports (grouped by experiment, row order
        preserved) -- the rendering round-trip."""
        reports: Dict[str, ExperimentReport] = {}
        for row in self.rows:
            exp = row["experiment"]
            rep = reports.get(exp)
            if rep is None:
                rep = reports[exp] = ExperimentReport(
                    exp, row.get("description", ""))
            rep.rows.append(Measurement(
                exp, dict(row["params"]), row["measured"],
                row.get("bound"), dict(row.get("extra", {}))))
        return [reports[k] for k in sorted(reports)]

    def row_index(self) -> Dict[RowKey, Dict[str, Any]]:
        """Rows keyed by (experiment, canonical params JSON).  Duplicate
        keys keep the *last* row (sweeps that revisit a parameter point
        report the final measurement)."""
        out: Dict[RowKey, Dict[str, Any]] = {}
        for row in self.rows:
            key = (row["experiment"],
                   json.dumps(_jsonable(row["params"]), sort_keys=True))
            out[key] = row
        return out

    def as_dict(self) -> Dict[str, Any]:
        return {
            "format": 1,
            "name": self.name,
            "created": self.created,
            "meta": _jsonable(self.meta),
            "rows": _jsonable(self.rows),
        }


@dataclass
class RegressionDelta:
    """One row-level comparison against the baseline."""

    experiment: str
    params: Dict[str, Any]
    baseline: float
    current: float
    tolerance: float

    @property
    def ratio(self) -> Optional[float]:
        return None if not self.baseline else self.current / self.baseline

    @property
    def regressed(self) -> bool:
        """Larger-is-worse with relative slack: current may exceed the
        baseline by at most ``tolerance`` (fraction) plus an absolute
        slack of 0 -- an exactly-equal run is always clean."""
        return self.current > self.baseline * (1.0 + self.tolerance)

    @property
    def improved(self) -> bool:
        return self.current < self.baseline * (1.0 - self.tolerance)


@dataclass
class RegressionReport:
    """The outcome of one baseline comparison."""

    baseline_name: str
    current_name: str
    tolerance: float
    deltas: List[RegressionDelta] = field(default_factory=list)
    only_in_baseline: List[RowKey] = field(default_factory=list)
    only_in_current: List[RowKey] = field(default_factory=list)

    @property
    def regressions(self) -> List[RegressionDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> List[RegressionDelta]:
        return [d for d in self.deltas if d.improved]

    @property
    def clean(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def render(self) -> str:
        from ..analysis.tables import render_table

        lines = [f"baseline: {self.baseline_name}   "
                 f"current: {self.current_name}   "
                 f"tolerance: +{self.tolerance:.0%}"]
        lines.append(f"compared {len(self.deltas)} rows: "
                     f"{len(self.regressions)} regressed, "
                     f"{len(self.improvements)} improved, "
                     f"{len(self.deltas) - len(self.regressions) - len(self.improvements)} unchanged (within tolerance)")
        flagged = self.regressions + self.improvements
        if flagged:
            rows = []
            for d in sorted(flagged, key=lambda d: -(d.ratio or 0)):
                rows.append((d.experiment,
                             " ".join(f"{k}={v}" for k, v in d.params.items()),
                             d.baseline, d.current,
                             f"{d.ratio:.3f}" if d.ratio is not None else "-",
                             "REGRESSED" if d.regressed else "improved"))
            lines.append(render_table(
                ["experiment", "params", "baseline", "current", "ratio",
                 "verdict"], rows))
        if self.only_in_baseline:
            lines.append(f"rows only in baseline (removed?): "
                         f"{len(self.only_in_baseline)}")
        if self.only_in_current:
            lines.append(f"rows only in current (new): "
                         f"{len(self.only_in_current)}")
        lines.append("RESULT: " + ("clean" if self.clean else
                                   f"{len(self.regressions)} regression(s)"))
        return "\n".join(lines)


class BenchStore:
    """Filesystem store of benchmark records (``<root>/BENCH_<name>.json``)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, name: str) -> Path:
        if not name or any(c in name for c in "/\\"):
            raise ValueError(f"bad benchmark record name {name!r}")
        return self.root / f"BENCH_{name}.json"

    def names(self) -> List[str]:
        return sorted(p.stem[len("BENCH_"):]
                      for p in self.root.glob("BENCH_*.json"))

    def exists(self, name: str) -> bool:
        return self.path_for(name).exists()

    def save(self, name: str, reports: Iterable[ExperimentReport], *,
             created: str = "", meta: Optional[Dict[str, Any]] = None) -> Path:
        """Persist *reports* under *name*; returns the written path.

        ``created`` defaults to the current UTC time; pass an explicit
        value (including ``""``) for byte-reproducible records.
        """
        if created == "":
            import datetime
            created = datetime.datetime.now(
                datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        record = BenchRecord.from_reports(name, reports, created=created,
                                          meta=meta)
        return self.save_record(record)

    def save_record(self, record: BenchRecord) -> Path:
        path = self.path_for(record.name)
        self.root.mkdir(parents=True, exist_ok=True)
        # Atomic temp+replace: an interrupted campaign or gate run
        # must never leave a truncated BENCH_*.json that breaks
        # every later tolerance compare.
        atomic_write_text(path, json.dumps(record.as_dict(), sort_keys=True,
                                           indent=1) + "\n")
        return path

    def load(self, name: str) -> BenchRecord:
        path = self.path_for(name)
        data = json.loads(path.read_text())
        if data.get("format") != 1:
            raise ValueError(
                f"{path}: unknown benchmark record format "
                f"{data.get('format')!r}")
        return BenchRecord(
            name=data["name"], created=data.get("created", ""),
            meta=_from_jsonable(data.get("meta", {})),
            rows=_from_jsonable(data["rows"]))

    def _resolve(self, record: Union[str, BenchRecord]) -> BenchRecord:
        return self.load(record) if isinstance(record, str) else record

    def compare(self, baseline: Union[str, BenchRecord],
                current: Union[str, BenchRecord], *,
                tolerance: float = 0.1,
                tolerances: Optional[Dict[str, float]] = None
                ) -> RegressionReport:
        """Diff *current* against *baseline*.

        ``tolerance`` is the default relative slack; ``tolerances`` maps
        experiment ids to per-experiment overrides (e.g. ``{"E18":
        0.5}`` for the noisier fault sweeps).
        """
        if tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance}")
        base = self._resolve(baseline)
        cur = self._resolve(current)
        base_rows = base.row_index()
        cur_rows = cur.row_index()
        report = RegressionReport(base.name, cur.name, tolerance)
        for key, brow in base_rows.items():
            crow = cur_rows.get(key)
            if crow is None:
                report.only_in_baseline.append(key)
                continue
            tol = (tolerances or {}).get(brow["experiment"], tolerance)
            report.deltas.append(RegressionDelta(
                experiment=brow["experiment"], params=dict(brow["params"]),
                baseline=float(brow["measured"]),
                current=float(crow["measured"]), tolerance=tol))
        report.only_in_current = [k for k in cur_rows if k not in base_rows]
        return report
