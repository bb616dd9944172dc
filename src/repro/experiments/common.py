"""Shared experiment scaffolding: typed tables, ASCII rendering, and
batched execution over instance/seed sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro._util.parallel import map_jobs

__all__ = ["ExperimentTable", "fmt", "parallel_map"]


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    n_workers: Optional[int] = None,
) -> List[Any]:
    """Order-preserving map over experiment configurations.

    The experiment-side face of the batched execution API (see
    :func:`repro.simulator.runtime.run_many` / ``sweep``): drivers map
    a per-configuration kernel over their sweep values and get results
    in input order — serially by default, or on a warm process pool
    with ``n_workers > 1`` (the kernel must then be a module-level
    function, or a :func:`functools.partial` of one, and
    configurations/results must pickle).  Deterministic results are
    identical either way; kernels that *time themselves* must run
    serially, since concurrent processes oversubscribing cores inflate
    wall clocks.
    """
    return map_jobs(fn, list(items), n_workers)


def fmt(value: Any) -> str:
    """Human-friendly cell formatting."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator} ({float(value):.3f})"
    if isinstance(value, float):
        return f"{value:.3f}"
    if value is None:
        return "—"
    return str(value)


@dataclass
class ExperimentTable:
    """A rendered-comparable experiment outcome.

    ``rows`` are dicts keyed by column name; missing keys render as
    "—".  ``notes`` carry the qualitative claims being checked (and
    whether they held), so a rendered table is self-contained.
    """

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **cells: Any) -> None:
        unknown = set(cells) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}")
        self.rows.append(cells)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        cells = [
            [fmt(row.get(col)) for col in self.columns] for row in self.rows
        ]
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(self.columns)
        ]
        sep = "+".join("-" * (w + 2) for w in widths)
        header = " | ".join(col.ljust(w) for col, w in zip(self.columns, widths))
        lines = [
            f"[{self.experiment_id}] {self.title}",
            header,
            sep,
        ]
        for r in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
        for note in self.notes:
            lines.append(f"  * {note}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable view of the table (for ``--json`` CLIs).

        Cells keep their type when JSON has one (bool/int/float/str/
        null); Fractions become ``"p/q"`` strings, everything else
        falls back to ``str``.  Consumers that plot should prefer the
        numeric columns.
        """

        def cell(value: Any) -> Any:
            if value is None or isinstance(value, (bool, int, float, str)):
                return value
            if isinstance(value, Fraction):
                return f"{value.numerator}/{value.denominator}"
            return str(value)

        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [
                {col: cell(row.get(col)) for col in self.columns if col in row}
                for row in self.rows
            ],
            "notes": list(self.notes),
        }

    def to_markdown(self) -> str:
        lines = [
            f"### {self.experiment_id}: {self.title}",
            "",
            "| " + " | ".join(self.columns) + " |",
            "|" + "|".join("---" for _ in self.columns) + "|",
        ]
        for row in self.rows:
            lines.append(
                "| " + " | ".join(fmt(row.get(c)) for c in self.columns) + " |"
            )
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"- {note}")
        return "\n".join(lines)
