"""Seeded job lists for the three workloads.

A plan is a list of distinct CLI jobs plus the input files they read.
The seed decides the input files and the order of independent jobs; the
number of jobs of each kind, the table shapes, the (rank, eps) cells and
the box counts are the same for every seed.

The timed phase runs the plan in rounds (``Plan.round``).  Each job has
a role: ``first`` jobs run once, at the start of round 0; ``heavy`` jobs
(seconds each) run once, spread over the first MIN_ROUNDS rounds;
``light`` jobs run in every round.  Rounds repeat until the run's time is
spent, so each light job is timed several times across the whole run
and reported as the median of its runs.

This module does not import nlbox: the program sees only the files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from refs import Circuit, disj_circuit, gf2_rank, table_text, tree_circuit

WORKLOADS = ("epsrank", "compile-audit", "sweep-sample")
DEFAULT_SEED = 1
HELD_OUT_SEED = 9173  # never used while tuning; for confirming a claimed gain
PROBE_SEED = 0  # the warm-up probe's inputs, whose digests are recorded
# Lazy caches warmed in set-up: eps-rank candidate enumeration per shape.
SETUP_SHAPES = {"epsrank": ((4, 4),)}

# Every heavy job runs within the first MIN_ROUNDS rounds, and every light
# job at least MIN_ROUNDS times, however short --seconds is.
MIN_ROUNDS = 3
ROLES = ("first", "light", "heavy")

EPS = ("0", "1/8", "1/4", "1/2")
TMAX = "4"
RANK1_TABLES = 8
# Light epsrank jobs: rank 1, eps 1/2, and rank 2 at eps 1/8 and 1/4.  The
# tail percentile (p75 of 50 jobs, the 13th slowest) then falls among those
# four rank-2 jobs, below the ten heavy jobs and well above the rest.
PROBE_TABLES = ("r1_0.tt", "r1_1.tt")
# The eps-rank inputs are a fixed panel and the seed only orders the light
# jobs: the exact LP's cost varies 2-10x between tables of one rank (and
# between row/column permutations of one table), so seeded tables would
# make the epsrank figures track the draw instead of the program.  The
# rank-1 tables are a fixed draw; each rank 2-3 table and correlation
# matrix was taken near the median cost of random inputs of its kind,
# the rank-4 table among the cheapest of eight, to keep the heavy jobs short.
EPS_PANEL = {
    2: ((14, 14, 14, 6), (2, 13, 0, 15)),
    3: ((7, 3, 0, 1),),
    4: ((14, 15, 5, 6),),
}
CORR_PANEL = (
    ((2, 1, 3, 0), (4, 2, 0, 1), (1, 3, 4, 2), (0, 2, 1, 3)),
    ((3, 0, 1, 4), (1, 2, 2, 0), (4, 1, 0, 2), (2, 4, 3, 1)),
)  # entries in quarters
CORR_EPS = ("1/4",)

# Tables per (nx, ny).  With the sample jobs, the counts put the median
# job inside the cluster of small-table jobs and the tail percentile (p95
# of 397 jobs, the 20th slowest) inside the cluster of about forty 40-55 ms
# jobs (the 24 6x6 synth jobs and the 16 execs of the OT form), so neither
# hops between job kinds from run to run.
SWEEP_TABLES = {(2, 2): 10, (2, 4): 10, (3, 3): 10, (4, 2): 10, (4, 4): 10, (5, 5): 6,
                (6, 6): 12}

# (nx, ny, leaves, and/or gates): a tree circuit costs leaves + 2 * gates
# boxes.  disj-det -n 4 brings the 10-box case.
CIRCUIT_SLOTS = ((2, 2, 2, 1), (3, 3, 3, 2), (3, 3, 4, 2), (4, 4, 4, 2), (4, 4, 3, 2))
DISJ_SIZES = (2, 3, 4)
# Distinct exact-exec inputs per protocol: twenty on each output of the
# disj-det -n 3 circuit, four on the others.  The 215 distinct jobs then
# put the median among the 14 ms execs of that circuit's XOR-normalized
# protocol, a fixed circuit, and the tail percentile at p95, the 11th
# slowest job, inside the cluster of the 10-box OT execs and the 7-8-box
# audits (250-300 ms).  With fewer jobs the tail is p90, where that
# cluster meets a sparser one, and moves twice as much from run to run.
EXEC_PAIRS = 4
MEDIAN_EXEC_PAIRS = 20
# Audits of the circuits with 4-bit inputs and at least 8 boxes take
# 0.5-5 s; they are the heavy jobs.
HEAVY_AUDIT_BITS = 4
HEAVY_AUDIT_BOXES = 8

SAMPLES = 1000
# exec --samples jobs per protocol; the 16 on the OT form, the slowest,
# sit in the sweep-sample tail cluster.
SAMPLE_PAIRS = {"ip4.nlb": 8, "dr3.mix": 8, "dr4.mix": 8, "dd3.nlb": 8, "dd3.ot": 16}
RT_TRIALS = 20000
RT_DIMS = (3, 5, 8)


@dataclass
class Job:
    argv: list[str]
    check: str
    expect: dict = field(default_factory=dict)
    exact: bool = True  # stdout is a function of the input files alone
    key: str | None = None  # stable name when the inputs ignore the seed
    probe: bool = False  # part of the warm-up probe
    role: str = "light"  # first, light or heavy: see Plan.round


@dataclass
class Plan:
    workload: str
    seed: int
    jobs: list[Job]  # distinct jobs: the first ones, the light ones, the heavy ones
    files: dict[str, str]

    def __post_init__(self):
        order = [ROLES.index(j.role) for j in self.jobs]
        if order != sorted(order):
            raise ValueError("plan jobs must be listed first, light, heavy")

    def write(self, directory) -> None:
        for name, text in self.files.items():
            (directory / name).write_text(text, encoding="utf-8")

    def probe_jobs(self) -> list[Job]:
        """The warm-up probe: each job marked ``probe`` once, in plan order."""
        return [j for j in self.jobs if j.probe]

    def round(self, r: int) -> list[Job]:
        """Round r of the timed phase: in round 0 the first jobs, then in
        every round the light jobs, with every MIN_ROUNDS-th heavy job
        spaced evenly among them in the first MIN_ROUNDS rounds, so that
        the runs of each light job are spread over the whole run.  A plan
        whose heavy jobs read files lists the light jobs that write them
        first."""
        first = [j for j in self.jobs if j.role == "first"] if r == 0 else []
        light = [j for j in self.jobs if j.role == "light"]
        heavy = [j for j in self.jobs if j.role == "heavy"][r::MIN_ROUNDS] \
            if r < MIN_ROUNDS else []
        out, k = first, 0
        step = len(light) / (len(heavy) + 1)
        for i, job in enumerate(light, 1):
            out.append(job)
            while k < len(heavy) and i >= round((k + 1) * step):
                out.append(heavy[k])
                k += 1
        return out + heavy[k:]


def build(workload: str, seed: int) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, seed)


def frac_text(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


# --- epsrank ---


def _epsrank(rng: random.Random, seed: int) -> Plan:
    files: dict[str, str] = {}
    jobs: list[Job] = []

    def add_table(name: str, rows, rank: int) -> None:
        if gf2_rank(rows, 4) != rank:
            raise ValueError(f"panel table {rows} is not of rank {rank}")
        files[name] = table_text(2, 2, rows)
        for eps in EPS:
            jobs.append(Job(
                ["epsrank", "-f", name, "--eps", eps, "--tmax", TMAX], "epsrank",
                {"nx": 2, "ny": 2, "rows": list(rows), "rank": rank, "eps": eps,
                 "group": name},
                key=f"epsrank {name} eps {eps}", probe=name in PROBE_TABLES))

    draw = random.Random("epsrank rank-1 panel")
    for i in range(RANK1_TABLES):
        p, q = draw.randrange(1, 16), draw.randrange(1, 16)
        add_table(f"r1_{i}.tt", tuple(q if (p >> x) & 1 else 0 for x in range(4)), 1)
    for rank, tables in EPS_PANEL.items():
        for i, rows in enumerate(tables):
            add_table(f"r{rank}_{i}.tt", rows, rank)
    for i, quarters in enumerate(CORR_PANEL):
        name = f"corr_{i}.corr"
        entries = [[Fraction(v, 4) for v in row] for row in quarters]
        files[name] = "corr 4 4\n" + "\n".join(
            " ".join(frac_text(v) for v in row) for row in entries) + "\n"
        for eps in CORR_EPS:
            jobs.append(Job(
                ["epsrank", "--corr", name, "--eps", eps, "--tmax", TMAX], "epsrank",
                {"entries": [[frac_text(v) for v in row] for row in entries],
                 "eps": eps, "rank": None, "group": None},
                key=f"epsrank {name} eps {eps}"))
    light: list[Job] = []
    heavy: list[Job] = []
    for j in jobs:
        j.role = "light" if _light_epsrank(j.expect) else "heavy"
        (light if j.role == "light" else heavy).append(j)
    # The heavy jobs keep the panel's order: the process's peak RSS depends
    # on which large LP runs first (54 or 59 MB), so a seeded order would
    # make peak_rss_mb follow the seed.
    rng.shuffle(light)
    return Plan("epsrank", seed, light + heavy, files)


def _light_epsrank(expect: dict) -> bool:
    return (expect["rank"] == 1 or expect["eps"] == "1/2"
            or (expect["rank"] == 2 and expect["eps"] != "0"))


# --- sweep-sample ---


def _sweep_jobs(rng: random.Random) -> tuple[list[Job], dict[str, str]]:
    """The table jobs: rank, factorize, spectrum and two synths per table."""
    files: dict[str, str] = {}
    small = []
    for k, ((nx, ny), count) in enumerate(SWEEP_TABLES.items()):
        for i in range(count):
            rows = [rng.randrange(1 << (1 << ny)) for _ in range(1 << nx)]
            name = f"t{nx}x{ny}_{i}.tt"
            files[name] = table_text(nx, ny, rows)
            expect = {"nx": nx, "ny": ny, "rows": rows}
            probe = k == 0
            small.append(Job(["rank", "-f", name], "rank", expect, probe=probe))
            small.append(Job(["factorize", "-f", name], "factorize", expect, probe=probe))
            small.append(Job(["spectrum", "-f", name], "spectrum", expect, probe=probe))
            for method in ("rank", "vandam"):
                out = f"{name}.{method}.nlb"
                small.append(Job(["synth", "-f", name, "--method", method, "-o", out],
                                 "synth", dict(expect, method=method, out=out),
                                 probe=probe))
    return small, files


# --- compile-audit ---


def _pairs(rng: random.Random, c: Circuit, count: int) -> list[tuple[int, int]]:
    """Distinct inputs, as many for every seed."""
    return [divmod(v, 1 << c.ny) for v in rng.sample(range(1 << (c.nx + c.ny)), count)]


def _circuit_jobs(name: str, c: Circuit, rng: random.Random, fixed: bool, probe: bool,
                  pairs: int) -> tuple[list[Job], list[Job]]:
    """The circuit's compiles and execs, and its audits."""
    t = c.boxes()
    key = (lambda s: f"{name} {s}") if fixed else (lambda s: None)
    src = f"{name}.circ"
    nlb, xnlb, ot = f"{name}.nlb", f"{name}.x.nlb", f"{name}.ot"
    cexp = {"circuit": c}
    light = [
        Job(["compile", "--from", "circuit", "-i", src, "-o", nlb], "compile",
            dict(cexp, count=("boxes", t), source_size=len(c.gates)),
            key=key("compile"), probe=probe),
        Job(["compile", "--from", "circuit", "--normalize-xor", "-i", src, "-o", xnlb],
            "compile", dict(cexp, count=("boxes", t + 2), source_size=len(c.gates)),
            key=key("compile-xor"), probe=probe),
        Job(["compile", "--from", "ordered-to-ot", "-i", nlb, "-o", ot], "compile",
            dict(cexp, count=("calls", t), source_size=t),
            key=key("ordered-to-ot"), probe=probe),
    ]
    heavy = c.nx >= HEAVY_AUDIT_BITS and t >= HEAVY_AUDIT_BOXES
    role = "heavy" if heavy else "light"
    audits = [
        Job(["audit", "-p", nlb, "--nonsignaling"], "audit", {"what": "nonsignaling"},
            key=key("audit-ns"), probe=probe, role=role),
        Job(["audit", "-p", ot, "--privacy-ot"], "audit", {"what": "privacy-ot"},
            key=key("audit-ot"), probe=probe, role=role),
    ]
    for path in (nlb, xnlb, ot):
        for x, y in _pairs(rng, c, pairs):
            light.append(Job(["exec", "-p", path, "-x", str(x), "-y", str(y), "--exact"],
                             "exec-exact", dict(cexp, x=x, y=y), probe=probe))
    return light, audits


def _compile_audit(rng: random.Random, seed: int) -> Plan:
    """The lib builds first, then the compiles, then the execs and light
    audits, with the heavy audits among them in the first rounds."""
    files: dict[str, str] = {}
    libs: list[Job] = []
    light: list[Job] = []
    audits: list[Job] = []
    for n in DISJ_SIZES:
        c = disj_circuit(n)
        name = f"disj{n}"
        files[f"{name}.circ"] = c.text()
        probe = n == 2
        pairs = MEDIAN_EXEC_PAIRS if n == 3 else EXEC_PAIRS
        lib = f"lib_{name}.nlb"
        libs.append(Job(["lib", "disj-det", "-n", str(n), "-o", lib], "lib",
                        {"name": "disj-det", "count": ("boxes", c.boxes()),
                         "worst": "0/1"}, key=f"lib disj-det {n}", probe=probe))
        for x, y in _pairs(rng, c, pairs):
            light.append(Job(["exec", "-p", lib, "-x", str(x), "-y", str(y), "--exact"],
                             "exec-exact", {"circuit": c, "x": x, "y": y},
                             probe=probe))
        more_light, more_audits = _circuit_jobs(name, c, rng, True, probe, pairs)
        light += more_light
        audits += more_audits
    for k, (nx, ny, leaves, gates) in enumerate(CIRCUIT_SLOTS):
        c = tree_circuit(rng, nx, ny, leaves, gates)
        name = f"slot{k}"
        files[f"{name}.circ"] = c.text()
        more_light, more_audits = _circuit_jobs(name, c, rng, False, k == 0, EXEC_PAIRS)
        light += more_light
        audits += more_audits
    for j in libs:
        j.role = "first"
    # the compiles write the files the others read; the rest run in a
    # seeded order, so each kind of job is spread over the round
    writers = [j for j in light if j.check == "compile"]
    rest = [j for j in light if j.check != "compile"] + [j for j in audits if j.role == "light"]
    rng.shuffle(rest)
    heavy = [j for j in audits if j.role == "heavy"]
    return Plan("compile-audit", seed, libs + writers + rest + heavy, files)


def _sample_jobs(rng: random.Random) -> tuple[list[Job], list[Job]]:
    """The jobs that write the sampled protocols, and the sampling jobs."""
    writers = [
        Job(["lib", "ip", "-n", "4", "-o", "ip4.nlb"], "lib",
            {"name": "ip", "count": ("boxes", 4), "worst": "0/1"}, key="lib ip 4"),
        Job(["lib", "disj-rand", "-n", "3", "-o", "dr3.mix"], "lib",
            {"name": "disj-rand", "count": ("boxes", 3), "worst": "1/3"},
            key="lib disj-rand 3"),
        Job(["lib", "disj-rand", "-n", "4", "-o", "dr4.mix"], "lib",
            {"name": "disj-rand", "count": ("boxes", 4), "worst": "1/3"},
            key="lib disj-rand 4"),
        Job(["lib", "disj-det", "-n", "3", "-o", "dd3.nlb"], "lib",
            {"name": "disj-det", "count": ("boxes", 7), "worst": "0/1"},
            key="lib disj-det 3"),
        Job(["compile", "--from", "ordered-to-ot", "-i", "dd3.nlb", "-o", "dd3.ot"],
            "compile", {"count": ("calls", 7), "source_size": 7},
            key="ordered-to-ot dd3"),
    ]
    jobs = []
    for path, func, n, exact in (("ip4.nlb", "ip", 4, True),
                                 ("dr3.mix", "disj", 3, False),
                                 ("dr4.mix", "disj", 4, False),
                                 ("dd3.nlb", "disj", 3, True),
                                 ("dd3.ot", "disj", 3, True)):
        for v in rng.sample(range(1 << (2 * n)), SAMPLE_PAIRS[path]):
            x, y = divmod(v, 1 << n)
            s = rng.randrange(1 << 30)
            jobs.append(Job(["exec", "-p", path, "-x", str(x), "-y", str(y),
                             "--samples", str(SAMPLES), "--seed", str(s)],
                            "exec-samples",
                            {"func": func, "n": n, "x": x, "y": y, "samples": SAMPLES,
                             "seed": s, "error": "0" if exact else "1/3"},
                            exact=False))
    for dim in RT_DIMS:
        s = rng.randrange(1 << 30)
        jobs.append(Job(["rt", "--dim", str(dim), "--trials", str(RT_TRIALS),
                         "--seed", str(s)], "rt",
                        {"dim": dim, "trials": RT_TRIALS, "seed": s}, exact=False))
    # the probe: the writers, the first exec on each protocol and the first rt
    seen = set()
    for job in writers + jobs:
        kind = job.argv[2] if job.argv[0] == "exec" else job.argv[0]
        job.probe = job in writers or kind not in seen
        seen.add(kind)
    return writers, jobs


def _sweep_sample(rng: random.Random, seed: int) -> Plan:
    """The exhaustive sweep (heavy), then in every round the protocol
    writers of the sampling jobs, and the table and sampling jobs in a
    seeded order.  Each part draws its inputs from its own stream."""
    tables, files = _sweep_jobs(random.Random(f"sweep:{seed}"))
    writers, sampling = _sample_jobs(random.Random(f"sample:{seed}"))
    mixed = tables + sampling
    rng.shuffle(mixed)
    sweep = Job(["sweep"], "sweep", key="sweep", role="heavy")
    return Plan("sweep-sample", seed, writers + mixed + [sweep], files)


_BUILDERS = {
    "epsrank": _epsrank,
    "compile-audit": _compile_audit,
    "sweep-sample": _sweep_sample,
}
