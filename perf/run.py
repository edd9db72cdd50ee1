#!/usr/bin/env python3
"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perf/run.py --workload filter --seed 1 --seconds 30 --trace 0
        one workload in this process; the last line of standard output is
        {"correct": .., "attempted": .., "failed": .., "metrics": {..}} with
        the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1)
    python3 perf/run.py
        the three workloads one after another, traced and untraced, every
        metric printed by name with its unit
    python3 perf/run.py --quick
        tenth-size smoke run of the three workloads with every check on
    python3 perf/run.py --repeat 10 --out perf/out/parent.json
        ten runs (seeds 1..10) per workload, values kept for --compare
    python3 perf/run.py --compare OLD.json NEW.json
    python3 perf/run.py --selfcheck
        two sets of ten runs of the same code must agree (see perf/README.md)

A mismatch with the oracle prints ``INCORRECT: ..`` and exits 2 without
numbers.  Files are written under ``perf/out/`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
REPO = PERF.parent
OUT = PERF / "out"
RUN_SECONDS = 30
#: a child run measures for --seconds and then does its counted cycle
CHILD_TIMEOUT = 180


def _bootstrap() -> str | None:
    """Make ``perf`` and ``repro`` importable; an error line when ``repro`` is missing."""
    if not (REPO / "src" / "repro").is_dir():
        return f"perf/run.py: no src/repro beside {PERF}: the benchmark needs the repository it measures"
    # `perf/` itself must not be on the path: perf/trace.py would shadow the
    # standard library's `trace`
    sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != PERF]
    for entry in (str(REPO), str(REPO / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    return None


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` (the script starts no process)."""
    try:
        head = (REPO / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        loose = REPO / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()[:12]
        for line in (REPO / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def _fingerprint() -> dict:
    return {
        "git": _git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "load_1min": round(os.getloadavg()[0], 2),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }


# -- one workload, in this process ---------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> tuple[int, dict | None]:
    """Measure one workload, print its numbers; ``(exit code, result line)``."""
    from perf import harness, metrics
    from perf.workloads import WORKLOADS

    try:
        measured = harness.measure(WORKLOADS[name], seed, seconds, trace, scale)
    except harness.Incorrect as problem:
        print(f"INCORRECT: {problem}")
        return 2, None
    values = measured["per_layer"] if trace else measured["end_to_end"]
    print("detail: " + json.dumps({**measured["detail"], **_fingerprint()}))
    _print_metrics(name, values)
    if trace:
        _write_trace(name, seed, measured["tracer"])
    result = {
        "correct": True,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {metric: {"value": value, "unit": metrics.UNITS[metric]} for metric, value in values.items()},
    }
    return 0, result


def _print_metrics(name: str, values: dict[str, float]) -> None:
    from perf import metrics

    for metric, value in values.items():
        print(f"{name:7s} {metric:42s} {value:16.6f} {metrics.UNITS[metric]}")


def _write_trace(name: str, seed: int, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    phases = {
        phase: {**total, "spans": {span: {"self_s": s, "calls": c} for span, (s, c) in total["spans"].items()}}
        for phase, total in tracer.phases.items()
    }
    document = {"workload": name, "seed": seed, "phases": phases, "first_spans": tracer.samples}
    (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(document) + "\n")


# -- many runs, one child process each --------------------------------------------------


def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One driver-form run in a fresh process (its own peak RSS); the result line."""
    command = [sys.executable, str(PERF / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def collect(names: list[str], seeds: list[int], seconds: float, label: str) -> dict:
    """``{workload: {metric: [value per seed]}}`` of untraced runs."""
    runs: dict = {}
    for name in names:
        for seed in seeds:
            result = run_child(name, seed, seconds, trace=False)
            if result["failed"]:
                raise SystemExit(f"{name} seed {seed}: {result['failed']} operations failed")
            for metric, entry in result["metrics"].items():
                runs.setdefault(name, {}).setdefault(metric, []).append(entry["value"])
            print(f"{label} {name} seed {seed}: " + " ".join(
                f"{metric}={entry['value']:.5g}" for metric, entry in result["metrics"].items()), flush=True)
    return runs


def _save(path: Path, runs: dict, seeds: list[int], seconds: float) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"meta": {**_fingerprint(), "seeds": seeds, "seconds": seconds}, "runs": runs}, indent=1) + "\n")


def _all_workloads(names: list[str], seed: int, seconds: float) -> int:
    for name in names:
        for trace in (False, True):
            result = run_child(name, seed, seconds, trace)
            print(f"# {name} (trace {int(trace)}): {result['attempted']} operations, {result['failed']} failed")
            _print_metrics(name, {metric: entry["value"] for metric, entry in result["metrics"].items()})
    return 0


def _selfcheck(names: list[str], seconds: float) -> int:
    from perf import report

    seeds = list(range(1, 11))
    sets = []
    for label in ("set-1", "set-2"):
        runs = collect(names, seeds, seconds, label)
        _save(OUT / f"selfcheck-{label}.json", runs, seeds, seconds)
        sets.append(runs)
    rows, failures = report.selfcheck(*sets)
    print(report.table(rows))
    for failure in failures:
        print(f"SELFCHECK FAILED: {failure}")
    print("selfcheck " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def _compare(old_path: str, new_path: str) -> int:
    from perf import report

    old = json.loads(Path(old_path).read_text())["runs"]
    new = json.loads(Path(new_path).read_text())["runs"]
    rows = report.compare(old, new)
    print(report.table(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def main(argv: list[str] | None = None) -> int:
    problem = _bootstrap()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 1
    from perf.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run this workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tenth-size smoke run, one cycle per workload")
    parser.add_argument("--repeat", type=int, metavar="N", help="N runs per workload, seeds 1..N")
    parser.add_argument("--out", metavar="FILE", help="where --repeat keeps its values (under perf/out/)")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)

    if args.compare:
        return _compare(*args.compare)
    if args.selfcheck:
        return _selfcheck(names, args.seconds)
    if args.repeat:
        seeds = list(range(1, args.repeat + 1))
        out = Path(args.out) if args.out else OUT / "runs.json"
        if OUT not in out.resolve().parents:
            parser.error(f"--out must be under {OUT}")
        _save(out, collect(names, seeds, args.seconds, "run"), seeds, args.seconds)
        print(f"wrote {out}")
        return 0
    if args.quick:
        for name in names:
            code, _ = run_one(name, args.seed, 0.0, bool(args.trace), scale=0.1)
            if code:
                return code
        return 0
    if args.workload:
        code, result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        if result is not None:
            print(json.dumps(result))
        return code
    return _all_workloads(names, args.seed, args.seconds)


if __name__ == "__main__":
    if "PYTHONHASHSEED" not in os.environ:
        # str hashes decide set and dict orders inside the system; pin them so
        # that one seed means one execution.  exec replaces this process.
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    raise SystemExit(main())
