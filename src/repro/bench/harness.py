"""Small experiment harness: timing, tables, paper-vs-measured records."""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field


def time_call(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``fn()``.

    One untimed call runs first: plan compilation, table builds and the
    native backend's load are set-up, not the operation being measured.
    """
    fn()
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Table:
    """A printable result table for one experiment.

    Rows are dicts keyed by column name; ``render`` produces the aligned
    ASCII table that the benches print and EXPERIMENTS.md embeds.
    """

    title: str
    columns: Sequence[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, **values) -> None:
        missing = set(self.columns) - set(values)
        if missing:
            raise ValueError(f"row missing columns {sorted(missing)}")
        self.rows.append(values)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> list:
        return [r[name] for r in self.rows]

    def render(self) -> str:
        def fmt(v) -> str:
            if isinstance(v, float):
                return f"{v:.4g}"
            return str(v)

        header = [str(c) for c in self.columns]
        body = [[fmt(r[c]) for c in self.columns] for r in self.rows]
        widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h) for i, h in enumerate(header)]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for n in self.notes:
            lines.append(f"note: {n}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def saving(before: float, after: float) -> float:
    """Percentage saved going from ``before`` to ``after``."""
    if before <= 0:
        return 0.0
    return 100.0 * (1.0 - after / before)
