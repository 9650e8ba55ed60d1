"""Stdlib line-coverage measurement for the tier-1 suite.

Runs the full pytest suite in-process with a line tracer restricted to
``src/repro`` and reports per-module and total line coverage: executed
lines over the executable-line universe derived from each module's
compiled code objects (``co_lines``).  No third-party coverage package
is required — this is the tool that calibrates the ``--cov-fail-under``
floor in ``.github/workflows/ci.yml`` on machines where ``pytest-cov``
is not installed.  The number it reports is a close stand-in for
coverage.py's (same universe construction, modulo docstring handling),
so set the CI floor a point or two *below* the figure printed here and
never above it.

Calibration procedure (run whenever a PR adds or removes enough code to
move the figure — new subsystems, large test batteries):

1. ``python scripts/measure_coverage.py --no-modules`` on a clean
   checkout of the branch.  The suite must pass; a failing run prints
   no meaningful figure.
2. Take the printed TOTAL percentage and subtract 1–2 points of head
   room — the stdlib tracer and coverage.py disagree slightly on
   docstring/`` if TYPE_CHECKING``-style lines, and forked pool
   workers are untraced under both tools, so the CI figure jitters
   around this one.
3. Set ``--cov-fail-under`` in the ``coverage`` job of
   ``.github/workflows/ci.yml`` to that floored value.  Raise the
   floor when the measured figure rises; never lower it just to make a
   PR pass — a genuine drop needs the offending code tested or the
   drop justified in the PR.
4. For a local gate without editing CI:
   ``python scripts/measure_coverage.py --floor <value> --no-modules``.

On Python 3.12+ the measurement uses ``sys.monitoring`` (PEP 669) with
per-location disarming, which costs a few percent of runtime.  On older
interpreters it falls back to ``sys.settrace`` with per-code-object
disarming once a code object is fully covered; expect the suite to run
a few times slower than untraced.

Subprocess workers (``workers=2`` tests) are not traced, matching the
default pytest-cov configuration the CI job uses.

Run:  python scripts/measure_coverage.py [pytest args...]
      python scripts/measure_coverage.py --floor 86   # gate, don't list
"""

import argparse
import os
import sys
import threading
import types

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
PKG_DIR = os.path.join(SRC_DIR, "repro")


def executable_lines(path: str) -> set:
    """The executable-line universe of one module: every line number
    mentioned by the compiled module's code objects, recursively."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        for _, _, lineno in code.co_lines():
            if lineno is not None and lineno > 0:
                lines.add(lineno)
        stack.extend(const for const in code.co_consts
                     if isinstance(const, types.CodeType))
    return lines


def package_universe() -> dict:
    universe = {}
    for dirpath, _, filenames in os.walk(PKG_DIR):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                universe[path] = executable_lines(path)
    return universe


class MonitoringTracer:
    """sys.monitoring (3.12+): LINE events, disarmed per location after
    the first hit — near-zero steady-state overhead."""

    def __init__(self):
        self.executed = {}

    def _on_line(self, code, lineno):
        filename = code.co_filename
        if filename.startswith(PKG_DIR):
            self.executed.setdefault(filename, set()).add(lineno)
        return sys.monitoring.DISABLE

    def __enter__(self):
        mon = sys.monitoring
        mon.use_tool_id(mon.COVERAGE_ID, "measure_coverage")
        mon.register_callback(mon.COVERAGE_ID, mon.events.LINE,
                              self._on_line)
        mon.set_events(mon.COVERAGE_ID, mon.events.LINE)
        return self

    def __exit__(self, *exc):
        mon = sys.monitoring
        mon.set_events(mon.COVERAGE_ID, 0)
        mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, None)
        mon.free_tool_id(mon.COVERAGE_ID)


class SettraceTracer:
    """sys.settrace fallback: frames outside src/repro are never locally
    traced, and a code object whose lines are all covered stops being
    traced on subsequent calls."""

    def __init__(self, universe: dict):
        self.executed = {}
        self._remaining = {}
        self._universe = universe

    def _trace(self, frame, event, arg):
        code = frame.f_code
        if event == "call":
            filename = code.co_filename
            if not filename.startswith(PKG_DIR):
                return None
            if code not in self._remaining:
                self._remaining[code] = {
                    lineno for _, _, lineno in code.co_lines()
                    if lineno is not None and lineno > 0}
            return self._trace if self._remaining[code] else None
        if event == "line":
            remaining = self._remaining.get(code)
            if remaining is not None:
                remaining.discard(frame.f_lineno)
                self.executed.setdefault(code.co_filename,
                                         set()).add(frame.f_lineno)
                if not remaining:
                    return None
        return self._trace

    def __enter__(self):
        threading.settrace(self._trace)
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def report(universe: dict, executed: dict, list_modules: bool) -> float:
    total_lines = total_hit = 0
    rows = []
    for path in sorted(universe):
        lines = universe[path]
        hit = executed.get(path, set()) & lines
        total_lines += len(lines)
        total_hit += len(hit)
        if lines:
            rows.append((os.path.relpath(path, SRC_DIR), len(lines),
                         len(lines) - len(hit),
                         100.0 * len(hit) / len(lines)))
    if list_modules:
        width = max(len(name) for name, *_ in rows)
        print(f"{'module'.ljust(width)}  lines  miss   cover")
        for name, n_lines, n_miss, pct in rows:
            print(f"{name.ljust(width)}  {n_lines:5d} {n_miss:5d} "
                  f"{pct:6.1f}%")
    percent = 100.0 * total_hit / max(total_lines, 1)
    print(f"TOTAL: {total_hit}/{total_lines} executable lines covered "
          f"= {percent:.1f}%")
    return percent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--floor", type=float, default=None,
                        help="fail if total coverage is below this percent")
    parser.add_argument("--no-modules", action="store_true",
                        help="print only the total, not the per-module table")
    parser.add_argument("pytest_args", nargs="*",
                        help="extra arguments forwarded to pytest")
    args = parser.parse_args(argv)

    # mirror `python -m pytest` run from the repo root: the package from
    # src/, and the repo root itself so tests can import helper modules
    # from other test packages (tests.simulation.…)
    sys.path.insert(0, SRC_DIR)
    sys.path.insert(0, REPO_ROOT)
    import pytest

    universe = package_universe()
    n_lines = sum(len(lines) for lines in universe.values())
    print(f"tracing {len(universe)} modules, {n_lines} executable lines "
          f"({'sys.monitoring' if hasattr(sys, 'monitoring') else 'sys.settrace'})",
          flush=True)

    if hasattr(sys, "monitoring"):
        tracer = MonitoringTracer()
    else:
        tracer = SettraceTracer(universe)
    pytest_args = ["-x", "-q", *args.pytest_args]
    with tracer:
        exit_code = pytest.main(pytest_args)
    if exit_code != 0:
        print(f"FAIL: pytest exited {exit_code}; coverage not meaningful")
        return int(exit_code)

    percent = report(universe, tracer.executed, not args.no_modules)
    if args.floor is not None and percent < args.floor:
        print(f"FAIL: coverage {percent:.1f}% is below the "
              f"{args.floor:.0f}% floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
