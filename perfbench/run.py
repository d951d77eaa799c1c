"""kglogic benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload rank-el-U --seed 3 --seconds 15 --trace 0

Run from the repository root.  The inputs are generated from the seed (once;
later runs of the seed reuse them), set-up is timed in fresh interpreters,
then the workload command runs in a closed loop in one fresh interpreter for
`--seconds`.  Every output is checked against references in checks.py.  The
last line of stdout is one JSON object: with `--trace 0` the end-to-end
metrics, with `--trace 1` the per-layer metrics of a traced run.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

import checks
from tracing import EXACT_COUNTERS, PER_LAYER_METRICS, ROOT, TIME_METRICS
from workloads import BISIM_HEAD, BISIM_ROUNDS, WORK_DIR, WORKLOADS

ROOT_DIR = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 7  # fresh interpreters per run; setup_s is their median
HASH_SEED = "0"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
}


def worker(*args, timeout: float) -> str:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(ROOT_DIR / "src"))
    proc = subprocess.run(
        [sys.executable, str(WORKER), *map(str, args)],
        cwd=ROOT_DIR, env=env, stdout=subprocess.PIPE, timeout=timeout, check=True,
        text=True,
    )
    return proc.stdout


def source_hash(argv: list[str]) -> str:
    h = hashlib.sha256("\0".join(argv).encode())
    for path in sorted((ROOT_DIR / "src" / "kglogic").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_checks(w, seed: int) -> tuple[int, int, int, dict]:
    """Reference check of the last run's output: (attempted, failed, items, extra)."""
    out = ROOT_DIR / w.out_dir()
    data = ROOT_DIR / w.input.dirname(seed) if w.input else None
    try:
        if w.check == "gen":
            return (*checks.check_gen(out), {})
        if w.check == "rank":
            attempted, failed, items, hit1 = checks.check_rank(out / "report.txt", data)
            return attempted, failed, items, {"hit1": hit1}
        return (*checks.check_bisim(
            out / "bisim.tsv", data / "triples.tsv", BISIM_HEAD, BISIM_ROUNDS), {})
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        print(f"# {w.name}: output check could not read the output: {exc!r}")
        return 1, 1, 1, {}


def digest_failures(w, seed: int, runs: list[dict]) -> tuple[int, int]:
    """Every run exits 0 with the first run's digest, which matches earlier
    invocations of the same seed and source."""
    first = runs[0]["digest"]
    failed = sum(r["rc"] != 0 or r["digest"] != first for r in runs)
    record = ROOT_DIR / WORK_DIR / "digests" / f"{w.name}-s{seed}-{source_hash(w.argv(seed))}"
    if record.exists():
        return len(runs) + 1, failed + (record.read_text() != first)
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(first)
    return len(runs), failed


def trace_failures(traced: list[dict]) -> tuple[int, int]:
    """Exact counters repeat across traced runs; in each traced run the self
    times of all spans add up to the one cli.main root span, which lies
    within the run's measured wall time."""
    counters = [{k: r["metrics"][k] for k in EXACT_COUNTERS} for r in traced]
    failed = sum(c != counters[0] for c in counters[1:])
    for r in traced:
        roots = r["roots"]
        ok = (
            len(roots) == 1
            and roots[0][0] == ROOT
            and abs(r["self_total"] - roots[0][1]) < 1e-6
            and 0 <= r["wall"] - roots[0][1] < 1e-3
        )
        failed += not ok
    return len(traced), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT_DIR / "src" / "kglogic" / "cli.py").is_file():
        print(f"error: no kglogic sources under {ROOT_DIR / 'src'}", file=sys.stderr)
        return 2
    w, seed = WORKLOADS[args.workload], args.seed
    timeout = args.seconds + 150

    if w.input and not (ROOT_DIR / w.input.dirname(seed)).is_dir():
        worker("input", w.name, seed, timeout=600)
    setup = [
        json.loads(worker("setup", w.name, seed, timeout=60))["setup_s"]
        for _ in range(0 if args.trace else SETUP_REPEATS)
    ]
    result_file = ROOT_DIR / WORK_DIR / f"result-{w.name}.json"
    result_file.parent.mkdir(parents=True, exist_ok=True)
    result_file.unlink(missing_ok=True)
    worker("measure", w.name, seed, args.seconds, args.trace, result_file,
           timeout=timeout)
    result = json.loads(result_file.read_text())
    runs, traced = result["runs"], result["traced"]

    attempted, failed = digest_failures(w, seed, runs + traced)
    c_attempted, c_failed, items, extra = run_checks(w, seed)
    t_attempted, t_failed = trace_failures(traced) if traced else (0, 0)
    attempted += c_attempted + t_attempted
    failed += c_failed + t_failed

    wall = median(r["wall"] for r in runs)
    if args.trace:
        # the traced run with the median wall time
        chosen = sorted(traced, key=lambda r: r["wall"])[(len(traced) - 1) // 2]
        values = dict(chosen["metrics"], **{"trace.overhead_s": chosen["wall"] - wall})
        units = {m: "s" if m in TIME_METRICS or m == "trace.overhead_s" else "count"
                 for m in PER_LAYER_METRICS}
    else:
        values = {
            "setup_s": median(setup),
            "wall_s": wall,
            "cpu_s": median(r["cpu"] for r in runs),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "items_per_s": items / wall,
        }
        units = END_TO_END_UNITS
    summary = {
        "workload": w.name, "seed": seed, "runs": len(runs), "traced_runs": len(traced),
        "items": items, "items_are": w.items, "error_rate": failed / attempted, **extra,
    }
    print("# " + json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
