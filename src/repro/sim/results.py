"""Result containers and table rendering for experiment sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.tables import format_markdown_table, format_table


@dataclass(frozen=True)
class RunRecord:
    """One algorithm run on one scenario.

    ``status`` is ``"ok"`` for a successful validated run; non-strict
    pipeline runs (:class:`repro.scenario.pipeline.SolvePipeline`) also
    produce ``"error"`` (the solver raised) and ``"invalid"`` (the output
    failed :func:`repro.network.validate.validate_deployment`).
    """

    algorithm: str
    served: int
    runtime_s: float
    num_users: int
    num_uavs: int
    params: dict = field(default_factory=dict)
    status: str = "ok"
    error: "str | None" = None

    @property
    def served_fraction(self) -> float:
        return self.served / self.num_users if self.num_users else 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        """JSON-ready representation (progress-ledger / resume payload)."""
        return {
            "algorithm": self.algorithm,
            "served": self.served,
            "runtime_s": self.runtime_s,
            "num_users": self.num_users,
            "num_uavs": self.num_uavs,
            "params": _json_safe_params(self.params),
            "status": self.status,
            "error": self.error,
        }

    @staticmethod
    def from_dict(data: dict) -> "RunRecord":
        # Ledgers written before the solver watchdog was removed carry an
        # "attempts" trail; it is ignored.
        return RunRecord(
            algorithm=data["algorithm"],
            served=int(data["served"]),
            runtime_s=float(data["runtime_s"]),
            num_users=int(data["num_users"]),
            num_uavs=int(data["num_uavs"]),
            params=dict(data.get("params", {})),
            status=data.get("status", "ok"),
            error=data.get("error"),
        )


def _json_safe_params(params: dict) -> dict:
    """Solve params restricted to JSON-representable values (a prebuilt
    context or checkpoint object is process-local state, not a result)."""
    out: dict = {}
    for key, value in params.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = [v for v in value
                        if isinstance(v, (str, int, float, bool))]
        elif isinstance(value, dict):
            out[key] = _json_safe_params(value)
        else:
            out[key] = repr(value)
    return out


@dataclass
class SweepResult:
    """A table of runs over a swept parameter, mirroring one paper figure."""

    name: str                # e.g. "fig4"
    sweep_param: str          # e.g. "K"
    records: list = field(default_factory=list)
    specs: list = field(default_factory=list)   # the ScenarioSpecs run

    def add(self, sweep_value: object, record: RunRecord) -> None:
        self.records.append((sweep_value, record))

    def algorithms(self) -> list:
        seen: dict = {}
        for _, rec in self.records:
            seen.setdefault(rec.algorithm, None)
        return list(seen)

    def sweep_values(self) -> list:
        seen: dict = {}
        for value, _ in self.records:
            seen.setdefault(value, None)
        return list(seen)

    def samples(self, metric: str = "served") -> dict:
        """algorithm -> {sweep_value: [raw samples]} across repetitions."""
        out: dict = {}
        for value, rec in self.records:
            out.setdefault(rec.algorithm, {}).setdefault(value, []).append(
                getattr(rec, metric)
            )
        return out

    def series(self, metric: str = "served") -> dict:
        """algorithm -> {sweep_value: metric} (mean over repetitions)."""
        return {
            alg: {value: sum(vals) / len(vals) for value, vals in points.items()}
            for alg, points in self.samples(metric).items()
        }

    def series_std(self, metric: str = "served") -> dict:
        """algorithm -> {sweep_value: sample standard deviation} (0 for a
        single repetition)."""
        import math

        out: dict = {}
        for alg, points in self.samples(metric).items():
            out[alg] = {}
            for value, vals in points.items():
                if len(vals) < 2:
                    out[alg][value] = 0.0
                    continue
                mean = sum(vals) / len(vals)
                var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
                out[alg][value] = math.sqrt(var)
        return out

    def rows(self, metric: str = "served") -> "tuple[list, list]":
        """(headers, rows): sweep value per row, one column per algorithm."""
        algorithms = self.algorithms()
        table = self.series(metric)
        headers = [self.sweep_param] + algorithms
        rows = []
        for value in self.sweep_values():
            row = [value]
            for alg in algorithms:
                cell = table.get(alg, {}).get(value)
                row.append("-" if cell is None else round(cell, 3))
            rows.append(row)
        return headers, rows

    def to_text(self, metric: str = "served", title: "str | None" = None) -> str:
        headers, rows = self.rows(metric)
        return format_table(headers, rows, title=title or f"{self.name} ({metric})")

    def to_markdown(self, metric: str = "served") -> str:
        headers, rows = self.rows(metric)
        return format_markdown_table([str(h) for h in headers], rows)

    def to_csv(self, metric: str = "served") -> str:
        """Comma-separated rendering (RFC-4180-ish: values here never need
        quoting — numbers and identifier-like names only)."""
        headers, rows = self.rows(metric)
        lines = [",".join(str(h) for h in headers)]
        lines.extend(",".join(str(c) for c in row) for row in rows)
        return "\n".join(lines) + "\n"
