"""List the ``src/repro`` functions that no documented user path calls.

Runs each user path in a fresh interpreter under ``sys.setprofile``,
records every Python function it enters, and prints the functions of
``src/repro`` that none of the paths entered, grouped by module with
their line spans.  The paths are:

- ``scripts/generate_experiments_report.py smoke`` (every stage of the
  reproduction, both platforms);
- every ``examples/*.py``;
- perfbench's model build (``perfbench/workloads.py --mode build``),
  then each of its four workloads in ``--mode measure`` (seed 0).

A function on the list is reached by tests alone, or by nothing: a
candidate for deletion, or for a user path that should call it.  The
list is a report, not a gate: the script exits 0 whenever every path
ran, and 1 only when a path itself failed.  Forked pool workers are not
traced, so code that only runs inside them would be listed; every path
here runs at the default ``workers=1``.

Run:  python scripts/measure_reachability.py   (a few minutes)
"""

import glob
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import types

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
PKG_DIR = os.path.join(SRC_DIR, "repro")

#: perfbench's one-repetition entry point (paths are relative to the
#: repo root, where every path runs)
BENCH = os.path.join("perfbench", "workloads.py")
WORKLOADS = ("repro_ci", "campaign_small", "serve_stateless",
             "serve_stateful")


def user_paths():
    """``(label, script, args)`` of every path, in run order."""
    paths = [("report smoke", os.path.join(
        "scripts", "generate_experiments_report.py"), ["smoke"])]
    for example in sorted(glob.glob(os.path.join(REPO_ROOT, "examples",
                                                 "*.py"))):
        rel = os.path.relpath(example, REPO_ROOT)
        paths.append((rel, rel, []))
    paths.append(("perfbench build", BENCH, ["--mode", "build"]))
    for workload in WORKLOADS:
        paths.append((f"perfbench {workload}", BENCH,
                      ["--workload", workload, "--seed", "0",
                       "--mode", "measure"]))
    return paths


def _key(code):
    """A code object's identity across interpreters."""
    return [os.path.realpath(code.co_filename), code.co_firstlineno,
            getattr(code, "co_qualname", code.co_name)]


def child(out_path, script, args):
    """Run *script* as ``__main__`` under the profiler; write the keys of
    the ``src/repro`` functions it entered to *out_path*; exit with the
    script's status."""
    entered = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered[id(code)] = code  # keeps it alive, so ids stay unique

    sys.argv = [script, *args]
    sys.path[0] = os.path.dirname(os.path.abspath(script))
    status = 0
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        runpy.run_path(script, run_name="__main__")
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else int(
            exc.code is not None)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        pkg = os.path.realpath(PKG_DIR) + os.sep
        keys = [_key(code) for code in entered.values()
                if os.path.realpath(code.co_filename).startswith(pkg)]
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(keys, fh)
    sys.exit(status)


def package_functions():
    """``key -> line span`` of every named function and method in
    ``src/repro`` (module and class bodies, lambdas and comprehensions
    are left out: they run with their enclosing code)."""
    functions = {}
    for path in sorted(glob.glob(os.path.join(PKG_DIR, "**", "*.py"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            code = stack.pop()
            nested = [const for const in code.co_consts
                      if isinstance(const, types.CodeType)]
            stack.extend(nested)
            if (code.co_flags & 0x1  # CO_OPTIMIZED: a function body
                    and not code.co_name.startswith("<")):
                last = code.co_firstlineno
                inner = [code]
                while inner:
                    part = inner.pop()
                    last = max([last] + [line for _, _, line
                                         in part.co_lines() if line])
                    inner.extend(const for const in part.co_consts
                                 if isinstance(const, types.CodeType))
                functions[tuple(_key(code))] = (code.co_firstlineno, last)
    return functions


def main() -> int:
    env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONHASHSEED="0")
    env.pop("REPRO_WORKERS", None)
    reached = set()
    failed = []
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        for i, (label, script, args) in enumerate(user_paths()):
            out_path = os.path.join(scratch, f"{i}.json")
            boot = ("import sys; sys.path.insert(0, sys.argv[1]); "
                    "import measure_reachability as m; "
                    "m.child(sys.argv[2], sys.argv[3], sys.argv[4:])")
            command = [sys.executable, "-c", boot,
                       os.path.dirname(os.path.abspath(__file__)), out_path,
                       script, *args]
            print(f"== {label}", flush=True)
            proc = subprocess.run(command, cwd=REPO_ROOT, env=env,
                                  stdout=subprocess.DEVNULL)
            if proc.returncode != 0 or not os.path.exists(out_path):
                failed.append(label)
                continue
            with open(out_path, encoding="utf-8") as fh:
                reached.update(tuple(key) for key in json.load(fh))

    functions = package_functions()
    unreached = sorted(key for key in functions if key not in reached)
    by_module = {}
    for key in unreached:
        by_module.setdefault(key[0], []).append(key)
    lines = 0
    for path, keys in by_module.items():
        print(os.path.relpath(path, SRC_DIR))
        for key in sorted(keys, key=lambda k: functions[k]):
            first, last = functions[key]
            lines += last - first + 1
            print(f"  {first:5d}-{last:<5d} {key[2]}")
    print(f"{len(unreached)} of {len(functions)} functions in src/repro "
          f"({lines} lines) are entered by no user path")
    if failed:
        print("FAILED paths (their calls are missing from the list): "
              + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
