"""Run one workload in this process and print a JSON summary as the last line.

Started by run.py in a fresh interpreter.  Steps: import nlbox from the
checkout's src/ and warm its lazy caches (set-up); run the warm-up probe
and compare its stdout digests with the recorded ones; run the timed
phase, rounds of the seeded plan (workloads.Plan.round), each job
starting when the previous one returns; then check every output.

The timed phase does at least MIN_ROUNDS rounds and starts another only
while it is expected to end within --seconds; --once runs each distinct
job once instead, in plan order (the traced run and digest recording).

    python3 perfbench/worker.py --setup-only --workload epsrank
    python3 perfbench/worker.py --workload sweep-sample --seed 1 --seconds 25
    python3 perfbench/worker.py --workload epsrank --once --trace
    python3 perfbench/worker.py --record-digests
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT = ROOT / ".bench_out"


def import_nlbox():
    src = ROOT / "src"
    if not (src / "nlbox" / "__init__.py").is_file():
        raise SystemExit(f"no nlbox sources under {src}")
    sys.path.insert(0, str(src))
    from nlbox import cli
    return cli


def warm(workload: str) -> None:
    import workloads
    from nlbox import epsrank
    for shape in workloads.SETUP_SHAPES.get(workload, ()):
        epsrank.enumerate_ranks(*shape)


def machine_facts() -> dict:
    import numpy
    from nlbox import gf2
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "gf2_have_numba": gf2.HAVE_NUMBA,
        "nlbox_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("NLBOX_")},
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Outcome:
    __slots__ = ("seconds", "code", "error", "stdout")

    def __init__(self, seconds, code, error, stdout):
        self.seconds, self.code, self.error, self.stdout = seconds, code, error, stdout


def run_job(cli, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(argv)
    except (Exception, SystemExit) as exc:  # a job must never abort the run
        error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=4)}"
    seconds = time.perf_counter() - t0
    return Outcome(seconds, code, error, out.getvalue())


class Verdicts:
    """Failures by job, with the exception types seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples: list[dict] = []
        self.types: dict[str, int] = {}

    def add(self, job, reason: str | None, error_type: str | None = None) -> None:
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        if error_type:
            self.types[error_type] = self.types.get(error_type, 0) + 1
        if len(self.examples) < 20:
            self.examples.append({"argv": job.argv, "reason": reason})


def first_failure(o: Outcome) -> tuple[str | None, str | None]:
    if o.error is not None:
        return o.error.splitlines()[0], o.error.split(":")[0]
    if o.code != 0:
        return f"exit code {o.code}", f"exit {o.code}"
    return None, None


def judge(jobs, outcomes: list[Outcome], wd: Path, reference: dict, keys: list,
          seen: dict) -> list[str | None]:
    """Check one output per job; returns a reason (or None) per job."""
    import checks
    reasons: list[str | None] = []
    ranks = []
    for job, o, key in zip(jobs, outcomes, keys):
        reason, _ = first_failure(o)
        value = None
        if reason is None:
            reason, value = checks.check_job(job, o.stdout, wd)
        if reason is None and job.exact and key is not None:
            seen[key] = digest(o.stdout)
            if key in reference and reference[key] != seen[key]:
                reason = f"stdout digest {seen[key]} differs from the recorded {reference[key]}"
        reasons.append(reason)
        ranks.append((job, value if job.check == "epsrank" else None))
    for i, reason in checks.check_monotone(ranks).items():
        reasons[i] = reasons[i] or reason
    return reasons


def more_rounds(args, done: int, elapsed: float, shortest: float) -> bool:
    """Whether the timed phase starts another round.  After MIN_ROUNDS, a
    round is started only if one as short as the shortest so far (a round
    of light jobs only) ends within --seconds."""
    import workloads
    if args.once:
        return done < 1
    return done < workloads.MIN_ROUNDS or elapsed + shortest <= args.seconds


def run(args, check_digests: bool = True) -> dict:
    import workloads
    cli = import_nlbox()
    tracer = None
    if args.trace:
        import layers
        import tracing
        tracer = tracing.Tracer()
        layers.install(tracer)
        tracer.active = True
    warm(args.workload)
    setup_counts = {}
    if tracer is not None:
        tracer.active = False
        setup_counts = dict(tracer.counters)
        tracer.counters.clear()
    reference = {}
    if check_digests and DIGESTS.exists():
        reference = json.loads(DIGESTS.read_text()).get(args.workload, {})
    seen: dict[str, str] = {}
    verdicts = Verdicts()
    base = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    home = Path.cwd()
    try:
        # warm-up probe: fixed inputs whose stdout digests were recorded
        probe_plan = workloads.build(args.workload, workloads.PROBE_SEED)
        probe = probe_plan.probe_jobs()
        probe_dir = base / "probe"
        probe_dir.mkdir(parents=True)
        probe_plan.write(probe_dir)
        os.chdir(probe_dir)
        outcomes = [run_job(cli, j.argv) for j in probe]
        keys = [f"probe:{i}" for i in range(len(probe))]
        for job, o, reason in zip(probe, outcomes, judge(probe, outcomes, probe_dir,
                                                         reference, keys, seen)):
            verdicts.add(job, reason, first_failure(o)[1])

        plan = workloads.build(args.workload, args.seed)
        run_dir = base / "run"
        run_dir.mkdir()
        plan.write(run_dir)
        os.chdir(run_dir)
        index = {id(j): i for i, j in enumerate(plan.jobs)}
        runs: list[list[Outcome]] = [[] for _ in plan.jobs]
        order: list[int] = []  # plan index of every job run, in order
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        rounds = 0
        shortest = 0.0
        while more_rounds(args, rounds, time.perf_counter() - t0, shortest):
            r0 = time.perf_counter()
            for job in plan.jobs if args.once else plan.round(rounds):
                i = index[id(job)]
                if tracer is not None:
                    tracer.job_id = len(order)
                runs[i].append(run_job(cli, job.argv))
                order.append(i)
            took = time.perf_counter() - r0
            shortest = min(shortest, took) if rounds else took
            rounds += 1
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False

        # each job's first run is checked; its later runs must print the same
        keys = [j.key for j in plan.jobs]
        first = [r[0] for r in runs]
        reasons = judge(plan.jobs, first, run_dir, reference, keys, seen)
        for job, outcomes, reason in zip(plan.jobs, runs, reasons):
            verdicts.add(job, reason, first_failure(outcomes[0])[1])
            for o in outcomes[1:]:
                failure, error_type = first_failure(o)
                if failure is None and o.stdout != outcomes[0].stdout:
                    failure = "stdout differs from the job's first run"
                verdicts.add(job, failure or reason, error_type)
    finally:
        os.chdir(home)
        shutil.rmtree(base, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "distinct_jobs": len(plan.jobs),
        "wall_s": wall,
        "job_runs_s": [[o.seconds for o in r] for r in runs],
        "order": order,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "failures": verdicts.examples,
        "failure_types": verdicts.types,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": machine_facts(),
        "digests_checked": sum(1 for k in seen if k in reference),
        "digests_seen": seen,
    }
    if tracer is not None:
        import layers
        import tracing
        ctx = {"jobs": tracing.summarize(tracer), "setup": tracing.summarize(tracer, setup=True),
               "counts": dict(tracer.counters), "setup_counts": setup_counts}
        result["layers"] = layers.layer_metrics(ctx)
        result["spans"] = len(tracer)
        tracer.unwrap_all()
    return result


def record_digests() -> None:
    """Write the stdout digests of the probe and of the seed-independent
    jobs of every workload, failing if any output is wrong."""
    import workloads
    table = {}
    for w in workloads.WORKLOADS:
        ns = argparse.Namespace(workload=w, seed=workloads.DEFAULT_SEED, seconds=0.0,
                                once=True, trace=False)
        res = run(ns, check_digests=False)
        if res["failed"]:
            raise SystemExit(f"{w}: {res['failed']} failed jobs, not recording: "
                             f"{res['failures'][:3]}")
        table[w] = dict(sorted(res["digests_seen"].items()))
        print(f"{w}: {len(table[w])} digests", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main() -> None:
    import workloads
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="length of the timed phase (default 25)")
    ap.add_argument("--once", action="store_true",
                    help="run each distinct job once instead of timed rounds")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="import nlbox, warm its caches, print 'ready' and exit")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if args.record_digests:
        record_digests()
        return
    if not args.workload:
        ap.error("--workload is required")
    if args.setup_only:
        import_nlbox()
        warm(args.workload)
        print("ready", flush=True)
        return
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
