"""tools/call_census.py: what it counts as a function, and what its
profile hook records."""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "call_census", ROOT / "tools" / "call_census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

MODULE = textwrap.dedent('''\
    from abc import ABC, abstractmethod
    from typing import Protocol


    def top():
        def inner():
            return 1
        return inner()


    class Port(Protocol):
        def send(self) -> None: ...


    class Base(ABC):
        @abstractmethod
        def run(self): ...

        @staticmethod
        def helper():
            return 2


    def unused():
        return 3
''')


def _write(tmp_path, text=MODULE):
    path = tmp_path / "mod.py"
    path.write_text(text)
    return path


def test_functions_skip_stubs_and_start_at_the_first_decorator(tmp_path):
    found = census.functions(_write(tmp_path))
    assert [name for _, name in found] == [
        "top", "top.<locals>.inner", "Base.helper", "unused"]
    lines = dict((name, line) for line, name in found)
    assert MODULE.splitlines()[lines["Base.helper"] - 1].strip() \
        == "@staticmethod"


def _hook_env(tmp_path, src):
    """The environment the census runs an entry point in, with its own
    sitecustomize first on the path and ``src`` importable."""
    hook = tmp_path / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(census.SITECUSTOMIZE)
    records = tmp_path / "records"
    records.mkdir()
    return dict(os.environ, CENSUS_OUT=str(records),
                CENSUS_SRC=str(src) + os.sep,
                PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=os.pathsep.join([str(hook), str(src)]))


def test_hook_records_the_code_objects_entered(tmp_path):
    # The census's own sitecustomize, run on a tiny module: what the
    # child enters is written out and maps back onto functions().
    src = tmp_path / "src"
    src.mkdir()
    path = _write(src)
    subprocess.run([sys.executable, "-c",
                    "import mod; mod.top(); mod.Base.helper()"],
                   env=_hook_env(tmp_path, src), check=True, timeout=60)
    seen = census.entered(str(tmp_path))
    entered = {name for line, name in census.functions(path)
               if (str(path), line) in seen}
    assert entered == {"top", "top.<locals>.inner", "Base.helper"}


def test_pytest_benches_are_seen_inside_benchmark_pedantic(tmp_path):
    # A timed pytest-benchmark run calls its target with the profile
    # hook switched off; the census's pytest run must still see it.
    src = tmp_path / "src"
    src.mkdir()
    path = _write(src)
    bench = tmp_path / "bench_mod.py"
    bench.write_text(textwrap.dedent('''\
        import mod


        def test_top(benchmark):
            assert benchmark.pedantic(mod.top, rounds=1, iterations=1) == 1
    '''))
    subprocess.run(census.pytest_argv([str(bench)]), cwd=tmp_path,
                   env=_hook_env(tmp_path, src), check=True, timeout=120,
                   capture_output=True)
    seen = census.entered(str(tmp_path))
    entered = {name for line, name in census.functions(path)
               if (str(path), line) in seen}
    assert entered == {"top", "top.<locals>.inner"}


def test_report_sole_names_the_one_entry_point_that_entered(
        tmp_path, monkeypatch, capsys):
    # Two entry points on the tiny module, each recording into its own
    # directory as run_census does.  What both entered is not listed;
    # what one alone entered is listed under that one's name.
    src = tmp_path / "src"
    src.mkdir()
    path = _write(src)
    bench = tmp_path / "bench_mod.py"
    bench.write_text(textwrap.dedent('''\
        import mod


        def test_top(benchmark):
            assert benchmark.pedantic(mod.top, rounds=1, iterations=1) == 1
            assert mod.unused() == 3
    '''))
    env = _hook_env(tmp_path, src)
    runs = {"script": [sys.executable, "-c",
                       "import mod; mod.top(); mod.Base.helper()"],
            "bench": census.pytest_argv([str(bench)])}
    for label, argv in runs.items():
        out = tmp_path / "records" / label
        out.mkdir()
        subprocess.run(argv, cwd=tmp_path, env=dict(env, CENSUS_OUT=str(out)),
                       check=True, timeout=120, capture_output=True)
    monkeypatch.setattr(census, "SRC", src)
    assert census.report_sole(census.entered_by(str(tmp_path)), "") == 2
    out = capsys.readouterr().out
    lines = {name: line for line, name in census.functions(path)}
    assert f"\nbench: 1\n    src/repro/mod.py:{lines['unused']}  unused\n" \
        in out
    assert (f"\nscript: 1\n    src/repro/mod.py:{lines['Base.helper']}  "
            f"Base.helper\n") in out
    assert "  top" not in out


def test_entered_reads_every_record(tmp_path):
    records = tmp_path / "records"
    records.mkdir()
    (records / "1.txt").write_text("/a/b.py:3\n/a/c.py:10\n")
    (records / "2.txt").write_text("/a/b.py:3\n/a/b.py:7\n")
    assert census.entered(str(tmp_path)) == {
        ("/a/b.py", 3), ("/a/b.py", 7), ("/a/c.py", 10)}


def test_report_lists_only_what_no_entry_point_entered(capsys):
    path = census.SRC / "network" / "node.py"
    found = census.functions(path)
    seen = {(str(path), line) for line, _ in found[1:]}
    assert census.report(seen, "") >= 1
    out = capsys.readouterr().out
    section = out.split("src/repro/network/node.py: ")[1].split("\n\n")[0]
    assert section.splitlines()[0] == "1"
    assert section.splitlines()[1].split() == [str(found[0][0]),
                                               found[0][1]]


def test_report_skips_survey_packages_and_names_the_untraced(capsys):
    census.report(set(), "network|chain")
    out = capsys.readouterr().out
    assert "src/repro/network/" not in out
    assert "src/repro/chain/" not in out
    assert "src/repro/exec/worker.py: untraced" in out


def test_entry_points_cover_every_example_and_workload():
    labels = [label for label, _ in census.entry_points()]
    examples = sorted(p.name for p in (ROOT / "examples").glob("*.py"))
    assert [f"example {name}" for name in examples] == [
        label for label in labels if label.startswith("example ")]
    for workload in census.WORKLOADS:
        assert f"e2e {workload} trace=0" in labels
        assert f"e2e {workload} trace=1" in labels
    assert "chaos seeds 11,23" in labels
    for bench in census.SCRIPT_BENCHES:
        assert (ROOT / "benchmarks" / f"bench_{bench}.py").exists()
