"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import random
import types
from collections import Counter
from fractions import Fraction

import pytest

import checks
import stats
import tracing
import worker
import workloads
from refs import disj_circuit, gf2_rank, tree_circuit

cli = worker.import_nlbox()


# --- percentile rule ---


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert stats.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0, 10)
    assert stats.tail([float(v) for v in range(1, 100)]) == (75.0, 75.0, 24)
    assert stats.tail([float(v) for v in range(1, 1001)]) == (990.0, 99.0, 10)
    assert stats.tail([float(v) for v in range(1, 1000)])[1] == 95.0


def test_tail_with_too_few_samples_reports_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert stats.tail([float(v) for v in range(20)]) == (9.0, 50.0, 10)


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    assert stats.quartile_spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(1.5 / 10.0)


def test_end_to_end_times_each_job_by_its_median_run():
    import run
    res = {"job_runs_s": [[0.001, 0.005, 0.0009], [0.002, 0.004], [0.003]],
           "rounds": 3, "wall_s": 0.02, "peak_rss_mb": 50.0}
    metrics, _note = run.end_to_end(res, [0.5, 0.4, 0.6])
    assert metrics["jobs_per_s"] == pytest.approx(3 / 0.007)
    assert metrics["job_p50_ms"] == pytest.approx(3.0)
    assert metrics["job_tail_ms"] == pytest.approx(3.0)
    assert metrics["setup_s"] == 0.5


# --- spans and self time ---


def test_self_time_on_a_synthetic_tree():
    #   root [0, 10]: a [1, 4] (with g [2, 3]), b [3, 6] overlapping a,
    #   c [8, 12] running past the root's end.  Recorded out of order.
    start = [0.0, 3.0, 1.0, 2.0, 8.0]
    end = [10.0, 6.0, 4.0, 3.0, 12.0]
    parent = [-1, 0, 0, 2, 0]
    assert tracing.self_times(start, end, parent) == pytest.approx(
        [10 - (5 + 2), 3.0, 3 - 1, 1.0, 4.0])


def test_spans_nest_and_recursion_is_counted_once():
    mod = types.SimpleNamespace()

    def fact(n):
        return 1 if n <= 1 else n * mod.fact(n - 1)

    def outer(n):
        return mod.fact(n)

    mod.fact, mod.outer = fact, outer
    tr = tracing.Tracer()
    tr.wrap(mod, "fact", "m.fact", hook=lambda c, a, k, r: c.__setitem__("m.n", c["m.n"] + a[0]))
    tr.wrap(mod, "outer", "m.outer")
    tr.active = True
    tr.job_id = 0
    assert mod.outer(3) == 6
    tr.active = False
    assert mod.outer(2) == 2  # inactive: no spans
    summary = tracing.summarize(tr)
    assert summary["m.fact"]["calls"] == 3
    assert summary["m.outer"]["calls"] == 1
    assert list(tr.parent) == [-1, 0, 1, 2]
    assert summary["m.fact"]["incl_s"] == pytest.approx(tr.end[1] - tr.start[1])
    assert summary["m.outer"]["self_s"] + summary["m.fact"]["self_s"] == pytest.approx(
        tr.end[0] - tr.start[0])
    assert tr.counters["m.n"] == 3 + 2 + 1
    tr.unwrap_all()
    assert mod.fact is fact


def test_errors_are_counted_per_layer():
    mod = types.SimpleNamespace(boom=lambda: 1 / 0)
    tr = tracing.Tracer()
    tr.wrap(mod, "boom", "layer.boom")
    tr.active = True
    with pytest.raises(ZeroDivisionError):
        mod.boom()
    assert tr.counters["layer.errors"] == 1
    assert tr.end[0] >= tr.start[0]


def test_every_site_is_a_callable_nlbox_name():
    import importlib

    import layers
    for module, attr, _span, _hook in layers.SITES:
        assert callable(getattr(importlib.import_module(f"nlbox.{module}"), attr))


# --- seeds ---


def _signature(job):
    e = job.expect
    c = e.get("circuit")
    return (job.check, e.get("rank"), e.get("eps"), e.get("count"), e.get("nx"),
            e.get("ny"), e.get("method"), e.get("func"), e.get("dim"), e.get("what"),
            e.get("samples"), c.boxes() if c else None, job.exact)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_mix_is_the_same_for_every_seed(workload):
    ref = workloads.build(workload, workloads.DEFAULT_SEED)
    mix = Counter(_signature(j) for j in ref.jobs)
    for seed in (workloads.HELD_OUT_SEED, 2, 3):
        plan = workloads.build(workload, seed)
        assert Counter(_signature(j) for j in plan.jobs) == mix
    for seed in (workloads.HELD_OUT_SEED, 2, 3):
        plan = workloads.build(workload, seed)
        assert len({tuple(j.argv) for j in plan.jobs}) == len({tuple(j.argv) for j in ref.jobs})
    again = workloads.build(workload, workloads.DEFAULT_SEED)
    assert again.files == ref.files
    assert [j.argv for j in again.jobs] == [j.argv for j in ref.jobs]


def test_epsrank_cells_and_panel():
    plan = workloads.build("epsrank", 5)
    runs = Counter(tuple(j.argv) for j in plan.jobs)
    distinct = list({tuple(j.argv): j for j in plan.jobs}.values())
    cells = Counter((j.expect["rank"], j.expect["eps"]) for j in distinct)
    for rank, count in ((1, workloads.RANK1_TABLES), (2, 2), (3, 1), (4, 1)):
        for eps in workloads.EPS:
            assert cells[(rank, eps)] == count
    assert cells[(None, "1/4")] == len(workloads.CORR_PANEL)
    assert set(runs.values()) == {1}
    for j in distinct:
        if j.expect["rank"] == 1:
            assert gf2_rank(j.expect["rows"], 4) == 1
        assert j.role == ("light" if workloads._light_epsrank(j.expect) else "heavy")


def test_rounds_run_heavy_jobs_once_among_light_jobs_that_run_every_time():
    first = [workloads.Job(["f0"], "rank", role="first")]
    light = [workloads.Job([f"l{i}"], "rank") for i in range(4)]
    heavy = [workloads.Job([f"h{i}"], "rank", role="heavy") for i in range(5)]
    plan = workloads.Plan("t", 0, first + light + heavy, {})
    order = [[j.argv[0] for j in plan.round(r)] for r in range(workloads.MIN_ROUNDS + 1)]
    assert order == [["f0", "l0", "h0", "l1", "l2", "h3", "l3"],
                     ["l0", "h1", "l1", "l2", "h4", "l3"],
                     ["l0", "l1", "h2", "l2", "l3"],
                     ["l0", "l1", "l2", "l3"]]
    with pytest.raises(ValueError):
        workloads.Plan("t", 0, heavy + light, {})


def test_timed_phase_does_min_rounds_then_stops_in_time():
    import argparse
    timed = argparse.Namespace(once=False, seconds=30.0)
    assert worker.more_rounds(timed, workloads.MIN_ROUNDS - 1, 100.0, 5.0)
    assert worker.more_rounds(timed, workloads.MIN_ROUNDS, 20.0, 10.0)
    assert not worker.more_rounds(timed, workloads.MIN_ROUNDS, 20.0, 10.5)
    once = argparse.Namespace(once=True, seconds=1e9)
    assert worker.more_rounds(once, 0, 1e9, 1e9)
    assert not worker.more_rounds(once, 1, 0.0, 0.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_files_are_written_before_they_are_read(workload):
    plan = workloads.build(workload, 3)
    for jobs in (plan.round(0), workloads.build(workload, workloads.PROBE_SEED).probe_jobs()):
        written = set(plan.files)
        for j in jobs:
            for flag in ("-i", "-p"):
                if flag in j.argv:
                    assert j.argv[j.argv.index(flag) + 1] in written, j.argv
            if "-o" in j.argv:
                written.add(j.argv[j.argv.index("-o") + 1])


def test_tree_circuit_box_count_matches_nlbox():
    from nlbox import compilers
    rng = random.Random(4)
    for nx, ny, leaves, andor in workloads.CIRCUIT_SLOTS * 3:
        c = tree_circuit(rng, nx, ny, leaves, andor)
        assert c.boxes() == leaves + 2 * andor
        p = compilers.circuit_to_nlb(cli.parse_circuit(c.text()))
        assert p.t == c.boxes()
    assert disj_circuit(4).boxes() == 10


# --- checkers ---


def _probe_outputs(workload, tmp_path):
    plan = workloads.build(workload, workloads.PROBE_SEED)
    plan.write(tmp_path)
    home = os.getcwd()
    os.chdir(tmp_path)
    try:
        return [(j, worker.run_job(cli, j.argv).stdout) for j in plan.probe_jobs()]
    finally:
        os.chdir(home)


def _replace(stdout: str, key: str, value: str) -> str:
    lines = stdout.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith(key + ": "):
            lines[i] = f"{key}: {value}\n"
            return "".join(lines)
    raise AssertionError(f"{key} not in {stdout!r}")


def _bump(stdout: str, key: str) -> str:
    value = next(ln.split(": ", 1)[1] for ln in stdout.splitlines() if ln.startswith(key + ": "))
    return _replace(stdout, key, str(int(value) + 1))


def _first_key(stdout: str, prefix: str) -> str:
    return next(ln.split(": ")[0] for ln in stdout.splitlines() if ln.startswith(prefix))


def _flip_key(stdout: str, prefix: str) -> str:
    key = _first_key(stdout, prefix)
    head, a, b = key.rsplit(" ", 2)
    return stdout.replace(key + ": ", f"{head} {a} {1 - int(b)}: ", 1)


def _edit(stdout: str, key: str, fn) -> str:
    value = next(ln.split(": ", 1)[1] for ln in stdout.splitlines() if ln.startswith(key + ": "))
    return _replace(stdout, key, fn(value))


def _reweigh(value: str) -> str:
    w, grid = value.split(" ", 1)
    num, den = w.split("/")
    return f"{int(num) + int(den)}/{den} {grid}"


def _flip_first(value: str) -> str:
    return ("1" if value[0] == "0" else "0") + value[1:]


CORRUPT = {
    "epsrank": [lambda s: _replace(s, "witness-verified", "False"),
                lambda s: _edit(s, "witness 0", _reweigh),
                lambda s: _edit(s, "eps-rank", lambda v: "4" if v == "1" else "1")],
    "rank": [lambda s: _bump(s, "rank")],
    "factorize": [lambda s: _edit(s, "factor 0", _flip_first)],
    "spectrum": [lambda s: _replace(s, "l1", "0.123")],
    "synth": [lambda s: _bump(s, "boxes"), lambda s: _replace(s, "worst-error", "1/2")],
    "lib": [lambda s: _replace(s, "worst-error", "1/7")],
    "compile": [lambda s: _bump(s, "boxes" if "boxes: " in s else "calls"),
                lambda s: _bump(s, "source-size")],
    "audit": [lambda s: _replace(s, "audit", "FAIL")],
    "exec-exact": [lambda s: _flip_key(s, "p ")],
    "exec-samples": [lambda s: _bump(s, _first_key(s, "count ")),
                     lambda s: _replace(s, "samples", "1")],
    "rt": [lambda s: _replace(s, "coupled-violations", "1")],
}


def test_every_checker_has_a_corruption_and_a_probe_or_test():
    probed = {j.check for w in workloads.WORKLOADS for j in workloads.build(w, 0).jobs
              if j.probe}
    assert probed | {"sweep"} == set(checks.CHECKERS)
    assert set(CORRUPT) == probed


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checkers_accept_real_output_and_reject_corrupted_output(workload, tmp_path):
    for job, stdout in _probe_outputs(workload, tmp_path):
        reason, _ = checks.check_job(job, stdout, tmp_path)
        assert reason is None, (job.argv, reason)
        for corrupt in CORRUPT[job.check]:
            bad = corrupt(stdout)
            assert bad != stdout
            reason, _ = checks.check_job(job, bad, tmp_path)
            assert reason is not None, (job.argv, bad)


def test_synth_checker_reads_the_emitted_protocol(tmp_path):
    for job, stdout in _probe_outputs("sweep-sample", tmp_path):
        if job.check == "synth" and "boxes: 0" not in stdout:
            path = tmp_path / job.expect["out"]
            text = path.read_text()
            i = text.index("qbox 0:\n") + len("qbox 0:\n")
            path.write_text(text[:i] + ("1" if text[i] == "0" else "0") + text[i + 1:])
            reason, _ = checks.check_job(job, stdout, tmp_path)
            assert reason is not None
            return
    raise AssertionError("no synth job with boxes in the probe")


def test_sweep_checker():
    job = workloads.Job(["sweep"], "sweep")
    good = "functions: 65536\nrank-mismatches: 0\ninexact-protocols: 0\nmax-boxes: 4\n"
    assert checks.check_job(job, good, None)[0] is None
    assert checks.check_job(job, good.replace("max-boxes: 4", "max-boxes: 5"), None)[0]
    assert checks.check_job(job, good.replace("mismatches: 0", "mismatches: 1"), None)[0]


def test_monotone_check_flags_a_rank_that_grows_with_eps():
    def job(eps):
        return workloads.Job([], "epsrank", {"eps": eps, "group": "t"})
    ok = [(job("0"), 3), (job("1/8"), 2), (job("1/2"), 1)]
    assert checks.check_monotone(ok) == {}
    bad = [(job("0"), 2), (job("1/4"), 3), (job("1/2"), 1)]
    assert list(checks.check_monotone(bad)) == [1]


def test_a_job_that_raises_is_recorded_not_fatal():
    class Raises:
        @staticmethod
        def dispatch(argv):
            raise RuntimeError("boom")
    o = worker.run_job(Raises, ["x"])
    assert o.code is None
    assert worker.first_failure(o) == ("RuntimeError: boom", "RuntimeError")
    o = worker.run_job(cli, ["rank", "-f", "no-such-file.tt"])
    assert worker.first_failure(o)[0] == "exit code 2"
    v = worker.Verdicts()
    v.add(workloads.Job(["x"], "rank"), "exit code 2", "exit 2")
    v.add(workloads.Job(["y"], "rank"), None)
    assert (v.attempted, v.failed, v.types) == (2, 1, {"exit 2": 1})


def test_fractions_in_corr_files_are_canonical():
    plan = workloads.build("epsrank", 1)
    for name, text in plan.files.items():
        if name.endswith(".corr"):
            for tok in text.split()[3:]:
                num, den = tok.split("/")
                assert f"{Fraction(int(num), int(den)).numerator}/" \
                       f"{Fraction(int(num), int(den)).denominator}" == tok
