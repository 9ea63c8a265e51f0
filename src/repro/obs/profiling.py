"""cProfile helpers: hotspot listings for ``--profile`` runs."""

from __future__ import annotations

import cProfile
import io
import pstats
from contextlib import contextmanager

__all__ = ["profile_block", "top_functions"]


@contextmanager
def profile_block(sort: str = "cumulative", limit: int = 20, stream=None):
    """Profile the enclosed block and print the hottest functions.

    >>> with profile_block(limit=10):
    ...     solver.run(100)
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        out = stream or io.StringIO()
        stats = pstats.Stats(profiler, stream=out)
        stats.sort_stats(sort).print_stats(limit)
        if stream is None:
            print(out.getvalue())


def _func_label(func: tuple) -> str:
    """Readable label for a pstats function key.

    Builtins come through as ``('~', 0, "<built-in method numpy.dot>")``
    — strip the useless ``~:0:`` prefix and the angle-bracket wrapper so
    they sort and read like any other entry.
    """
    filename, lineno, name = func
    if filename == "~" and lineno == 0:
        label = name
        if label.startswith("<") and label.endswith(">"):
            label = label[1:-1]
        return label
    return f"{filename}:{lineno}:{name}"


def top_functions(profiler: cProfile.Profile, limit: int = 10,
                  sort: str = "cumulative"
                  ) -> list[tuple[str, float, int, int]]:
    """Hottest entries as ``(label, seconds, ncalls, primitive_calls)``.

    ``sort="cumulative"`` ranks by cumulative time (callees included);
    ``sort="tottime"`` ranks by time spent in the function itself —
    the view that finds the actual hot kernels rather than their
    callers. ``ncalls`` counts every invocation; ``primitive_calls``
    excludes recursive re-entries (they differ only for recursion).
    """
    if sort not in ("cumulative", "tottime"):
        raise ValueError(
            f"sort must be 'cumulative' or 'tottime', got {sort!r}")
    stats = pstats.Stats(profiler)
    rows = []
    for func, (cc, nc, tt, ct, _callers) in stats.stats.items():  # type: ignore[attr-defined]
        seconds = tt if sort == "tottime" else ct
        rows.append((_func_label(func), seconds, nc, cc))
    rows.sort(key=lambda r: -r[1])
    return rows[:limit]
