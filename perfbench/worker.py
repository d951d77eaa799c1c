"""The side of the benchmark that imports `kglogic`; run.py starts it.

    worker.py input   WORKLOAD SEED          generate the workload's input
    worker.py setup   WORKLOAD SEED          time import + input load once
    worker.py measure WORKLOAD SEED SECONDS TRACE RESULT
                                             closed loop of the command

Each invocation is a fresh interpreter.  `measure` runs the workload command
through `kglogic.cli.main(argv)` back to back, one at a time, until its time
is used, and writes per-run wall and CPU times, output digests, the process's
peak RSS and, with TRACE=1, the per-layer metrics of traced runs to RESULT.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

from workloads import WORK_DIR, WORKLOADS

MIN_RUNS = 3  # untraced runs per measurement, whatever the time
MIN_TRACED_RUNS = 2  # so the exact counters can be compared


def make_input(name: str, seed: int) -> None:
    from kglogic.synthgen import SynthConfig, gen_dataset, write_dataset

    cfg = WORKLOADS[name].input
    dest = Path(cfg.dirname(seed))
    tmp = dest.with_name(dest.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    dataset = gen_dataset(
        SynthConfig(cfg.kind, cfg.instances, seed=seed, decoys=cfg.decoys)
    )
    write_dataset(dataset, tmp)
    os.replace(tmp, dest)


def time_setup(name: str, seed: int) -> float:
    """Import kglogic and load the input the way the command does."""
    argv = WORKLOADS[name].argv(seed)
    start = perf_counter()
    import kglogic.cli  # noqa: F401  the entry point every workload runs through
    from kglogic.store import load_store
    from kglogic.synthgen import load_dataset

    if "--data" in argv:
        load_dataset(argv[argv.index("--data") + 1])
    if "--kg" in argv:
        load_store(Path(argv[argv.index("--kg") + 1]).read_text())
    return perf_counter() - start


def digest(out: Path, stdout: str, rc: int) -> str:
    h = hashlib.sha256(f"{rc}\n{stdout}".encode())
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(f"\n{path.relative_to(out)}\n".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_loop(argv, out: Path, budget: float, min_runs: int, tracer=None) -> list[dict]:
    """Run the command back to back for `budget` seconds (at least `min_runs`
    times); start another run only if at least half of it fits in the budget,
    so that on average the loop lasts `budget`."""
    import kglogic.cli

    runs: list[dict] = []
    begin = perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        if tracer is not None:
            tracer.reset()
        captured = io.StringIO()
        with redirect_stdout(captured):
            c0, t0 = process_time(), perf_counter()
            rc = kglogic.cli.main(argv)
            t1, c1 = perf_counter(), process_time()
        run = {"wall": t1 - t0, "cpu": c1 - c0, "rc": rc,
               "digest": digest(out, captured.getvalue(), rc)}
        if tracer is not None:
            run["metrics"] = tracer.metrics()
            run["spans"] = tracer.spans
            run["self_total"] = tracer.self_time_total()
            run["roots"] = tracer.roots()
        runs.append(run)
        elapsed = perf_counter() - begin
        if len(runs) >= min_runs and elapsed * (len(runs) + 0.5) / len(runs) > budget:
            return runs


def measure(name: str, seed: int, seconds: float, trace: bool, result: Path) -> None:
    import kglogic.cli  # noqa: F401  imported before any timing

    w = WORKLOADS[name]
    argv, out = w.argv(seed), Path(w.out_dir())
    begin = perf_counter()
    runs = run_loop(argv, out, seconds / 2 if trace else seconds, MIN_RUNS)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {"runs": runs, "peak_rss_kb": peak_rss_kb, "traced": []}
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        remaining = seconds - (perf_counter() - begin)
        report["traced"] = run_loop(argv, out, remaining, MIN_TRACED_RUNS, tracer)
        spans_file = Path(WORK_DIR) / f"spans-{name}-s{seed}.json"
        spans_file.write_text(json.dumps([r.pop("spans") for r in report["traced"]]))
    result.write_text(json.dumps(report))


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "input":
        make_input(name, seed)
    elif mode == "setup":
        print(json.dumps({"setup_s": time_setup(name, seed)}))
    elif mode == "measure":
        measure(name, seed, float(argv[3]), argv[4] == "1", Path(argv[5]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
