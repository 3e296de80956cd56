#!/usr/bin/env python3
"""Which functions under src/repro does no entry point run?

    python3 tools/call_census.py [--skip 'systems|domains|...']

runs every entry point of the repository as a subprocess — the four
end-to-end workloads (traced and untraced), every example, the chaos
harness (seeds 11 and 23), each script bench with ``--smoke`` and the
pytest bench modules with ``--benchmark-disable`` — with a temporary
``sitecustomize`` first on ``PYTHONPATH``.  It installs
``sys.setprofile`` and ``threading.setprofile`` hooks that record every
code object entered on a ``call`` event and, at interpreter exit, write
those under ``src/repro/`` to a temporary directory, one directory per
entry point.  The census then parses every module under ``src/repro/``
and prints, per file, the functions no entry point entered; after that,
per entry point, the functions that it alone entered.  Those are the
ones a run can gain or lose when that entry point takes another path
(a pump that happens to quarantine, a retry that happens to fire), so a
count that drifts between two runs of unchanged code is attributed by
diffing that second list.  Packages matched by ``--skip`` (the survey
packages, passed by ``make census``) are left out, and so are
``@abstractmethod`` and ``Protocol`` stubs, which are never run.

Blind spot: forked exec workers leave through ``os._exit``, so what they
enter is never written; ``exec/worker.py`` is reported as untraced, not
as uncalled.

Nothing is written into the repository: each entry point runs with
``PYTHONDONTWRITEBYTECODE=1``, and ``git status --porcelain --ignored``
is compared before and after; a difference is printed and fails the run.
The run takes several minutes.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
UNTRACED = {"exec/worker.py": "forked exec workers leave through os._exit"}

WORKLOADS = ("capture_saturated", "capture_paced", "handoff_mix",
             "audit_restart")
SCRIPT_BENCHES = ("perf_hotpath", "shard_scaling", "persist", "ingest",
                  "sync", "exec", "obs", "gateway")
PYTEST_BENCHES = ("bench_eval_*.py", "bench_fig*.py", "bench_table*.py")

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_seen = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    src = os.environ["CENSUS_SRC"]
    lines = {f"{c.co_filename}:{c.co_firstlineno}\\n"
             for c in list(_seen.values()) if c.co_filename.startswith(src)}
    path = os.path.join(os.environ["CENSUS_OUT"], f"{os.getpid()}.txt")
    with open(path, "a") as fh:
        fh.writelines(sorted(lines))


sys.setprofile(_profile)
threading.setprofile(_profile)
atexit.register(_dump)
'''


def entry_points() -> list[tuple[str, list[str]]]:
    py = sys.executable
    runs = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            runs.append((f"e2e {workload} trace={trace}",
                         [py, "benchmarks/e2e/run.py", "--workload",
                          workload, "--seconds", "1", "--trace",
                          str(trace)]))
    for example in sorted((ROOT / "examples").glob("*.py")):
        runs.append((f"example {example.name}",
                     [py, str(example.relative_to(ROOT))]))
    runs.append(("chaos seeds 11,23",
                 [py, "-m", "repro.chaos", "--seeds", "11,23"]))
    for bench in SCRIPT_BENCHES:
        runs.append((f"bench_{bench} --smoke",
                     [py, f"benchmarks/bench_{bench}.py", "--smoke"]))
    modules = sorted(str(p.relative_to(ROOT)) for pattern in PYTEST_BENCHES
                     for p in (ROOT / "benchmarks").glob(pattern))
    runs.append((f"pytest {len(modules)} bench modules",
                 pytest_argv(modules)))
    return runs


def pytest_argv(modules: list[str]) -> list[str]:
    """The pytest run of ``modules``.  ``--benchmark-disable`` runs each
    ``benchmark(...)`` / ``benchmark.pedantic(...)`` target once, as a
    plain call; timed, pytest-benchmark would call it between
    ``sys.setprofile(None)`` and the restore, out of the hook's sight."""
    return [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--benchmark-disable", *modules]


def _stubs(tree: ast.Module) -> set[int]:
    """Definition lines of @abstractmethod and Protocol-class methods."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(base).split(".")[-1] == "Protocol"
                for base in node.bases):
            lines.update(item.lineno for item in node.body
                         if isinstance(item, (ast.FunctionDef,
                                              ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and any(ast.unparse(d).split(".")[-1] == "abstractmethod"
                        for d in node.decorator_list):
            lines.add(node.lineno)
    return lines


def functions(path: Path) -> list[tuple[int, str]]:
    """``(first line of its code object, qualified name)`` of every
    function defined in ``path``, stubs left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stubs = _stubs(tree)
    found: list[tuple[int, str]] = []

    def walk(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if child.lineno not in stubs:
                    # A decorated function's code starts at its first
                    # decorator.
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found.append((first, name))
                walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return sorted(found)


def _git_status() -> str:
    try:
        return subprocess.run(
            ["git", "status", "--porcelain", "--ignored"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return ""


def run_census(out_dir: str) -> list[str]:
    """Run every entry point; returns the labels of those that failed."""
    hook_dir = Path(out_dir) / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
    records = Path(out_dir) / "records"
    records.mkdir()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               CENSUS_SRC=str(SRC) + os.sep,
               PYTHONPATH=os.pathsep.join([str(hook_dir), str(ROOT / "src")]))
    failed = []
    for label, argv in entry_points():
        t0 = time.perf_counter()
        out = records / label
        out.mkdir()
        proc = subprocess.run(argv, cwd=ROOT,
                              env=dict(env, CENSUS_OUT=str(out)),
                              capture_output=True, text=True)
        status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
        if status == "ok" and not any(out.iterdir()):
            status = "no trace"
        print(f"  {label:<40} {status:>8} {time.perf_counter() - t0:7.1f} s",
              flush=True)
        if status != "ok":
            failed.append(label)
            print(proc.stderr[-2000:], file=sys.stderr)
    return failed


def entered_by(out_dir: str) -> dict[tuple[str, int], set[str]]:
    """Each ``(file, first line)`` entered, with the entry points that
    entered it: the names of the record directories holding it."""
    by: dict[tuple[str, int], set[str]] = {}
    for path in (Path(out_dir) / "records").rglob("*.txt"):
        for line in path.read_text().splitlines():
            filename, _, lineno = line.rpartition(":")
            by.setdefault((filename, int(lineno)), set()).add(
                path.parent.name)
    return by


def entered(out_dir: str) -> set[tuple[str, int]]:
    return set(entered_by(out_dir))


def _modules(skip: str):
    """``(path, path relative to src/repro)`` of each module reported."""
    skipped = re.compile(rf"^({skip})/") if skip else None
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if skipped is None or not skipped.match(rel):
            yield path, rel


def report(seen: set[tuple[str, int]], skip: str) -> int:
    total = files = 0
    for path, rel in _modules(skip):
        if rel in UNTRACED:
            print(f"\nsrc/repro/{rel}: untraced ({UNTRACED[rel]})")
            continue
        missing = [(line, name) for line, name in functions(path)
                   if (str(path), line) not in seen]
        if missing:
            files += 1
            total += len(missing)
            print(f"\nsrc/repro/{rel}: {len(missing)}")
            for line, name in missing:
                print(f"    {line:>5}  {name}")
    print(f"\n{total} functions in {files} files were entered by no entry "
          f"point")
    return total


def report_sole(by: dict[tuple[str, int], set[str]], skip: str) -> int:
    """Print, per entry point, the functions no other entry point
    entered; returns how many there are."""
    sole: dict[str, list[str]] = {}
    for path, rel in _modules(skip):
        if rel in UNTRACED:
            continue
        for line, name in functions(path):
            labels = by.get((str(path), line), ())
            if len(labels) == 1:
                [label] = labels
                sole.setdefault(label, []).append(
                    f"src/repro/{rel}:{line}  {name}")
    print("\nfunctions exactly one entry point entered:")
    for label in sorted(sole):
        print(f"\n{label}: {len(sole[label])}")
        for entry in sole[label]:
            print(f"    {entry}")
    total = sum(len(entries) for entries in sole.values())
    print(f"\n{total} functions were entered by exactly one entry point")
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--skip", default="",
                        help="regex of package dirs under src/repro to "
                             "leave out of the report (e.g. the survey "
                             "packages)")
    args = parser.parse_args()
    before = _git_status()
    with tempfile.TemporaryDirectory(prefix="call-census-") as out_dir:
        print("entry points:")
        failed = run_census(out_dir)
        by = entered_by(out_dir)
    after = _git_status()
    report(set(by), args.skip)
    report_sole(by, args.skip)
    code = 0
    if failed:
        print(f"\nincomplete: {len(failed)} entry points failed: "
              f"{', '.join(failed)}")
        code = 1
    if after != before:
        new = sorted(set(after.splitlines()) - set(before.splitlines()))
        print("\nentry points wrote into the repository:\n  "
              + "\n  ".join(new or ["(status changed)"]))
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
