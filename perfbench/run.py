"""nlbox benchmark: seeded batches of CLI jobs, end-to-end and per layer.

    python3 perfbench/run.py --workload epsrank --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout that has src/nlbox.  The workload
runs in a fresh single-threaded interpreter (perfbench/worker.py) as one
closed-loop client.  With --trace 0 the last line reports the end-to-end
metrics of a timed phase of about --seconds; with --trace 1 it runs each
distinct job once untraced and then once traced and reports the
per-layer metrics.  The lines before it are a readable report; the full
record goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0
RESULTS = ROOT / ".bench_out" / "results"
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                  "NUMBA_NUM_THREADS")}


class Harness:
    def __init__(self, workload: str):
        self.workload = workload
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
        self.worker = [sys.executable, str(HERE / "worker.py"), "--workload", workload]

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise SystemExit("benchmark ran out of time")
        return left

    def setup_seconds(self) -> float:
        """Fresh interpreter until nlbox is imported and its caches are warm."""
        t0 = time.perf_counter()
        with subprocess.Popen(self.worker + ["--setup-only"], stdout=subprocess.PIPE,
                              env=self.env, cwd=ROOT, text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                seconds = time.perf_counter() - t0
                proc.wait(timeout=self._left())
            except BaseException:
                proc.kill()
                raise
        if line != "ready" or proc.returncode:
            raise SystemExit(f"set-up probe failed (exit {proc.returncode})")
        return seconds

    def run_worker(self, extra: list[str]) -> dict:
        try:
            proc = subprocess.run(self.worker + extra, capture_output=True, text=True,
                                  env=self.env, cwd=ROOT, timeout=self._left())
        except subprocess.TimeoutExpired:
            raise SystemExit("workload exceeded the time limit") from None
        if proc.returncode:
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit(f"worker failed with exit code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res: dict, setup: list[float]) -> tuple[dict, str]:
    """Job figures from each distinct job's median run."""
    per_job = [stats.median(r) for r in res["job_runs_s"]]
    lat_ms = [s * 1000.0 for s in per_job]
    tail, pct, beyond = stats.tail(lat_ms)
    metrics = {
        "jobs_per_s": len(per_job) / sum(per_job),
        "job_p50_ms": stats.median(lat_ms),
        "job_tail_ms": tail,
        "setup_s": stats.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    runs = sorted(len(r) for r in res["job_runs_s"])
    note = (f"job_tail_ms is p{pct:g} of {len(lat_ms)} distinct jobs, {beyond} beyond it; "
            f"each job timed as the median of its {runs[0]} to {runs[-1]} runs, "
            f"{sum(runs)} runs in {res['rounds']} rounds, {res['wall_s']:.1f} s")
    return metrics, note


def previous_counts(workload: str, seed: int, facts: dict) -> dict | None:
    """Work counts of the latest earlier traced run of this seed and facts."""
    if not RESULTS.is_dir():
        return None
    for path in sorted(RESULTS.glob(f"{workload}-seed{seed}-trace1-*.json"), reverse=True):
        old = json.loads(path.read_text())
        if old["facts"] == facts:
            return {k: old["metrics"][k] for k in layers.WORK_COUNTS}
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                    help=f"input seed (default {workloads.DEFAULT_SEED}; "
                         f"held-out seed {workloads.HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="length of the timed phase (default 25); it always runs "
                         "workloads.MIN_ROUNDS rounds, which take longer on epsrank "
                         "and compile-audit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "nlbox" / "__init__.py").is_file():
        print(f"error: no nlbox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    h = Harness(args.workload)
    h.setup_seconds()  # untimed: compiles bytecode, fills the page cache
    base = ["--seed", str(args.seed)]
    units = {name: unit for name, unit, _b, _f in layers.METRICS}
    if args.trace:
        base.append("--once")
        plain = h.run_worker(base)
        traced = h.run_worker(base + ["--trace"])
        if plain["facts"] != traced["facts"]:
            raise SystemExit("facts changed between the untraced and traced run")
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        units["trace.overhead_s"] = "s"
        runs = [plain, traced]
        old = previous_counts(args.workload, args.seed, plain["facts"])
        drift = [k for k in layers.WORK_COUNTS if old is not None and old[k] != metrics[k]]
        metrics["trace.count_drift"] = len(drift)
        units["trace.count_drift"] = "count"
        notes = [f"spans recorded: {traced['spans']}",
                 "work counts: " + ("no earlier traced run of this seed" if old is None else
                                    f"DIFFER from the earlier run: {drift}" if drift else
                                    "identical to the earlier run of this seed")]
    else:
        # set-ups before and after the timed phase, so the median spans it
        setup = [h.setup_seconds() for _ in range(SETUP_REPEATS // 2)]
        plain = h.run_worker(base + ["--seconds", str(args.seconds)])
        setup += [h.setup_seconds() for _ in range(SETUP_REPEATS - len(setup))]
        metrics, note = end_to_end(plain, setup)
        units.update(jobs_per_s="1/s", job_p50_ms="ms", job_tail_ms="ms", setup_s="s",
                     peak_rss_mb="MB")
        runs = [plain]
        notes = [note, f"setup_s is the median of {setup}"]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": plain["facts"], "rounds": plain["rounds"],
        "wall_s": plain["wall_s"],
        "distinct_jobs": plain["distinct_jobs"], "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "failure_types": {k: sum(r["failure_types"].get(k, 0) for r in runs)
                          for r0 in runs for k in r0["failure_types"]},
        "failures": [f for r in runs for f in r["failures"]][:20],
        "digests_checked": plain["digests_checked"], "metrics": metrics, "notes": notes,
        "job_argv": [" ".join(j.argv) for j in workloads.build(args.workload, args.seed).jobs],
        "job_runs_s": plain["job_runs_s"], "order": plain["order"],
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  {plain['rounds']} rounds of "
          f"{plain['distinct_jobs']} distinct jobs  record {path.relative_to(ROOT)}")
    print("facts " + json.dumps(plain["facts"], sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(f"  error_rate {failed}/{attempted} (jobs failed, raised or gave a wrong output; "
          f"{plain['digests_checked']} stdout digests compared)")
    for f in record["failures"][:5]:
        print(f"  FAILED {' '.join(f['argv'])}: {f['reason']}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
