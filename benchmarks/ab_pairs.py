#!/usr/bin/env python3
"""Interleaved A/B pairs of one end-to-end workload (choosing-metrics §8).

    python3 benchmarks/ab_pairs.py --base <rev> --workload capture_saturated \\
        --pairs 10

checks ``--base`` (a git revision) and the candidate (``--cand``: a
revision, or ``.`` — the default — for the working tree as it stands,
tracked and untracked-unignored files) out into two temporary directories,
then runs each side's own, unmodified ``benchmarks/e2e/run.py --workload W
--seed S --seconds N --trace 0`` once per pair, alternating which side goes
first; pair ``i`` uses seed ``--seed + i`` on both sides.  It prints, per
metric the run reports, each side's median and quartiles, the pairs the
candidate won (ties count for neither), whether that meets the rule for
claiming a gain (ten pairs or more, >= 9/10 of them won, medians further
apart than the base's own quartile distance), and ``host.cpu_probe_ms``
per side so a host that changed speed between sides is visible.  Nothing
is written but the temporary directories, which are removed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from harness import quartiles  # noqa: E402 - the acceptance rule's own


def checkout(rev: str, dest: Path) -> None:
    """The files of ``rev`` (``.``: of the working tree) under ``dest``."""
    dest.mkdir(parents=True)
    if rev != ".":
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive,
                       check=True)
        return
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], cwd=ROOT, check=True,
        capture_output=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():                # a deleted file is still listed
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_once(tree: Path, workload: str, seed: int,
             seconds: float | None) -> dict[str, float]:
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload",
               workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{tree.name}: run.py exited {proc.returncode}")
    facts, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    if not result["correct"]:
        raise SystemExit(f"{tree.name}: run was not correct: "
                         f"{facts['failures']}")
    values = dict(facts["end_to_end"])
    values.update({name: row["value"]
                   for name, row in result["metrics"].items()})
    values["failed_ops_ratio"] = result["failed"] / max(1, result["attempted"])
    values["host.cpu_probe_ms"] = sum(facts["host"]["cpu_probe_ms"]) / 2
    return values


def report(base: list[dict], cand: list[dict], better: dict[str, str]) -> None:
    pairs = len(base)
    print(f"{'metric':28s} {'side':5s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s}  pairs won by cand")
    for name in base[0]:
        b = [run[name] for run in base]
        c = [run[name] for run in cand]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        won = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        lost = sum(sign * (y - x) < 0 for x, y in zip(b, c))
        bq1, bmid, bq3 = quartiles(b)
        cq1, cmid, cq3 = quartiles(c)
        gain = (pairs >= 10 and won >= 0.9 * pairs
                and sign * (cmid - bmid) > bq3 - bq1
                and not name.startswith("host."))
        change = (cmid - bmid) / bmid if bmid else 0.0
        print(f"{name:28s} {'base':5s} {bmid:12.4f} {bq1:12.4f} {bq3:12.4f}")
        print(f"{'':28s} {'cand':5s} {cmid:12.4f} {cq1:12.4f} {cq3:12.4f}"
              f"  {won}/{pairs} (lost {lost}), median {change:+.1%}"
              f"{', meets the gain rule' if gain else ''}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("--cand", default=".",
                        help="git revision, or . for the working tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json's run_seconds")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    work = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    try:
        trees = {"base": work / "base", "cand": work / "cand"}
        checkout(args.base, trees["base"])
        checkout(args.cand, trees["cand"])
        runs: dict[str, list[dict]] = {"base": [], "cand": []}
        for i in range(args.pairs):
            order = ("base", "cand") if i % 2 == 0 else ("cand", "base")
            for side in order:
                values = run_once(trees[side], args.workload,
                                  args.seed + i, args.seconds)
                runs[side].append(values)
                print(f"pair {i + 1}/{args.pairs} {side}: "
                      f"setup_s={values['setup_s']:.4f} "
                      f"cpu_probe_ms={values['host.cpu_probe_ms']:.2f}",
                      flush=True)
        print(f"\n{args.workload}: base={args.base} cand={args.cand} "
              f"pairs={args.pairs} seeds {args.seed}.."
              f"{args.seed + args.pairs - 1}")
        report(runs["base"], runs["cand"], better)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
