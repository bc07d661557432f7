"""cProfile helpers shared by ``TrialRunner(profile_dir=...)``, the CLI
``--profile`` flag, and ``make profile``.

Stdlib only.  :mod:`repro.runtime.runner` imports it lazily, so
``python -m repro.runtime.profiles`` is not already in ``sys.modules``
when it runs as ``__main__``.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from collections.abc import Callable
from typing import Any, Optional


def profile_call(fn: Callable[..., Any], *args: Any, out: str,
                 **kwargs: Any) -> Any:
    """Run ``fn(*args, **kwargs)`` under cProfile, dump stats to ``out``
    (a ``.prof`` file readable by ``pstats``/``snakeviz``), and return
    the call's result."""
    profiler = cProfile.Profile()
    try:
        return profiler.runcall(fn, *args, **kwargs)
    finally:
        profiler.dump_stats(out)


def top_functions(path: str, limit: int = 25,
                  sort: str = "cumulative") -> str:
    """Render the top ``limit`` functions of a ``.prof`` dump as text —
    what ``make profile`` prints after the run."""
    stream = io.StringIO()
    stats = pstats.Stats(path, stream=stream)
    stats.strip_dirs().sort_stats(sort).print_stats(limit)
    return stream.getvalue()


def main(argv: Optional[list] = None) -> int:
    """``python -m repro.runtime.profiles dump.prof [--limit N] [--sort KEY]``"""
    import argparse

    parser = argparse.ArgumentParser(
        description="Pretty-print a cProfile dump produced by --profile "
                    "or make profile")
    parser.add_argument("path", help=".prof file to read")
    parser.add_argument("--limit", type=int, default=25)
    parser.add_argument("--sort", default="cumulative",
                        help="pstats sort key (cumulative, tottime, calls)")
    args = parser.parse_args(argv)
    print(top_functions(args.path, limit=args.limit, sort=args.sort))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
