"""Output checkers.  Each returns None for a correct output or a one-line
reason.  References come from ``refs``, never from nlbox."""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from pathlib import Path

from refs import bits_of_rows, gf2_rank, gf2_rank_dense, parallel_xor_table, walsh_l1


class Bad(Exception):
    pass


def _kv(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise Bad(f"unparsable line {line!r}")
        if key in out:
            raise Bad(f"repeated key {key!r}")
        out[key] = value
    return out


def _want(kv: dict[str, str], key: str, value) -> None:
    if kv.get(key) != str(value):
        raise Bad(f"{key}: expected {value!r}, got {kv.get(key)!r}")


def _frac(text: str) -> Fraction:
    num, sep, den = text.partition("/")
    if not sep:
        raise Bad(f"not a fraction: {text!r}")
    return Fraction(int(num), int(den))


def _hash_of(path: Path) -> str:
    return hashlib.sha256(path.read_text(encoding="utf-8").encode()).hexdigest()[:16]


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _entry(rows, x: int, y: int) -> int:
    return (rows[x] >> y) & 1


# --- per-job checkers ---


def check_epsrank(job, stdout: str, wd: Path) -> int:
    """Returns the eps-rank so the round check can test monotonicity."""
    e = job.expect
    kv = _kv(stdout)
    src = _arg(job.argv, "-f") if "-f" in job.argv else _arg(job.argv, "--corr")
    _want(kv, "input-hash", _hash_of(wd / src))
    eps = Fraction(e["eps"])
    _want(kv, "eps", f"{eps.numerator}/{eps.denominator}")
    if "rows" in e:
        target = [[Fraction(_entry(e["rows"], x, y)) for y in range(4)] for x in range(4)]
    else:
        target = [[_frac(v) for v in row] for row in e["entries"]]
    if not kv.get("eps-rank", "").isdigit():
        raise Bad(f"eps-rank: {kv.get('eps-rank')!r} (4x4 always fits tmax 4)")
    t = int(kv["eps-rank"])
    if e["rank"] is not None:
        if eps == 0 and t != e["rank"]:
            raise Bad(f"eps=0 rank {t} != GF(2) rank {e['rank']}")
        if t > e["rank"]:
            raise Bad(f"eps-rank {t} exceeds the exact rank {e['rank']}")
    if eps == Fraction(1, 2) and t > 1:
        raise Bad(f"eps-rank {t} > 1 at eps 1/2")
    _want(kv, "witness-verified", "True")
    witness = []
    i = 0
    while f"witness {i}" in kv:
        w_text, _, grid_text = kv[f"witness {i}"].partition(" ")
        grid = [[int(c) for c in row] for row in grid_text.split(";")]
        if len(grid) != 4 or any(len(row) != 4 or set(row) - {0, 1} for row in grid):
            raise Bad(f"witness {i}: malformed grid {grid_text!r}")
        witness.append((_frac(w_text), grid))
        i += 1
    if len(kv) != 4 + len(witness) or not witness:
        raise Bad("unexpected or missing witness lines")
    if sum(w for w, _ in witness) != 1 or any(w <= 0 for w, _ in witness):
        raise Bad("witness weights are not a convex combination")
    for w, grid in witness:
        if gf2_rank_dense(grid) > t:
            raise Bad(f"witness matrix of rank {gf2_rank_dense(grid)} > {t}")
    for x in range(4):
        for y in range(4):
            v = sum((w * g[x][y] for w, g in witness), Fraction(0))
            if abs(v - target[x][y]) > eps:
                raise Bad(f"witness misses entry ({x},{y}) by {abs(v - target[x][y])}")
    return t


def check_sweep(job, stdout: str, wd: Path) -> None:
    want = "functions: 65536\nrank-mismatches: 0\ninexact-protocols: 0\nmax-boxes: 4\n"
    if stdout != want:
        raise Bad(f"sweep report differs: {stdout!r}")


def _table_kv(job, stdout: str, wd: Path):
    e = job.expect
    kv = _kv(stdout)
    _want(kv, "input-hash", _hash_of(wd / _arg(job.argv, "-f")))
    return e, kv, gf2_rank(e["rows"], 1 << e["ny"])


def check_rank(job, stdout: str, wd: Path) -> None:
    _e, kv, rank = _table_kv(job, stdout, wd)
    _want(kv, "rank", rank)
    if len(kv) != 2:
        raise Bad("unexpected lines")


def check_factorize(job, stdout: str, wd: Path) -> None:
    e, kv, rank = _table_kv(job, stdout, wd)
    _want(kv, "rank", rank)
    _want(kv, "reconstruction-exact", "True")
    xs, ys = 1 << e["nx"], 1 << e["ny"]
    acc = [[0] * ys for _ in range(xs)]
    for i in range(rank):
        p, sep, q = kv.get(f"factor {i}", "").partition(" x ")
        if not sep or len(p) != xs or len(q) != ys:
            raise Bad(f"factor {i} malformed")
        for x in range(xs):
            for y in range(ys):
                acc[x][y] ^= int(p[x]) & int(q[y])
    if len(kv) != 3 + rank:
        raise Bad("factor count differs from the rank")
    if acc != bits_of_rows(e["rows"], ys):
        raise Bad("factors do not XOR to the table")


def check_spectrum(job, stdout: str, wd: Path) -> None:
    e, kv, _rank = _table_kv(job, stdout, wd)
    ref = walsh_l1(e["nx"], e["ny"], e["rows"])
    try:
        l1, defect = float(kv["l1"]), float(kv["parseval-defect"])
    except (KeyError, ValueError):
        raise Bad("spectrum lines missing") from None
    if not math.isclose(l1, ref, rel_tol=1e-9, abs_tol=1e-12):
        raise Bad(f"l1 {l1} != reference {ref}")
    if not 0 <= defect <= 1e-9:
        raise Bad(f"parseval defect {defect}")


def check_synth(job, stdout: str, wd: Path) -> None:
    e, kv, rank = _table_kv(job, stdout, wd)
    _want(kv, "method", e["method"])
    boxes = rank if e["method"] == "rank" else sum(1 for r in e["rows"] if r)
    _want(kv, "boxes", boxes)
    _want(kv, "worst-error", "0/1")
    nx, ny, t, table = parallel_xor_table((wd / e["out"]).read_text(encoding="utf-8"))
    if (nx, ny, t) != (e["nx"], e["ny"], boxes):
        raise Bad(f"emitted protocol has shape {(nx, ny, t)}")
    if table.tolist() != bits_of_rows(e["rows"], 1 << ny):
        raise Bad("emitted protocol does not compute the table")


def check_lib(job, stdout: str, wd: Path) -> None:
    e = job.expect
    kv = _kv(stdout)
    _want(kv, "name", e["name"])
    _want(kv, e["count"][0], e["count"][1])
    _want(kv, "worst-error", e["worst"])


def check_compile(job, stdout: str, wd: Path) -> None:
    e = job.expect
    kv = _kv(stdout)
    _want(kv, "input-hash", _hash_of(wd / _arg(job.argv, "-i")))
    _want(kv, "source-size", e["source_size"])
    _want(kv, e["count"][0], e["count"][1])


def check_audit(job, stdout: str, wd: Path) -> None:
    kv = _kv(stdout)
    _want(kv, "check", job.expect["what"])
    _want(kv, "audit", "ok")


def check_exec_exact(job, stdout: str, wd: Path) -> None:
    e = job.expect
    kv = _kv(stdout)
    _want(kv, "x", e["x"])
    _want(kv, "y", e["y"])
    f = e["circuit"].value(e["x"], e["y"])
    total = Fraction(0)
    for key, value in kv.items():
        if key.startswith("p "):
            a, b = (int(v) for v in key.split()[1:])
            p = _frac(value)
            if p > 0 and a ^ b != f:
                raise Bad(f"output parity {a ^ b} has probability {p}, circuit gives {f}")
            total += p
    if total != 1:
        raise Bad(f"probabilities sum to {total}")


def _func(name: str, x: int, y: int) -> int:
    if name == "ip":
        return bin(x & y).count("1") & 1
    return 1 if x & y else 0


def check_exec_samples(job, stdout: str, wd: Path) -> None:
    e = job.expect
    kv = _kv(stdout)
    for key in ("x", "y", "samples", "seed"):
        _want(kv, key, e[key])
    f = _func(e["func"], e["x"], e["y"])
    total = wrong = 0
    for key, value in kv.items():
        if key.startswith("count "):
            a, b = (int(v) for v in key.split()[1:])
            total += int(value)
            wrong += int(value) if a ^ b != f else 0
    if total != e["samples"]:
        raise Bad(f"counts sum to {total}")
    n = e["samples"]
    if e["error"] == "0":
        if wrong:
            raise Bad(f"{wrong} samples of an exact protocol have the wrong parity")
    elif abs(wrong / n - 1 / 3) > 4 / math.sqrt(n):
        raise Bad(f"error {wrong / n:.4f} is not within 4/sqrt(N) of 1/3")


def check_rt(job, stdout: str, wd: Path) -> None:
    e = job.expect
    kv = _kv(stdout)
    for key in ("dim", "trials", "seed"):
        _want(kv, key, e[key])
    _want(kv, "coupled-violations", 0)
    _want(kv, "boxes-per-run", 3)


CHECKERS = {
    "epsrank": check_epsrank,
    "sweep": check_sweep,
    "rank": check_rank,
    "factorize": check_factorize,
    "spectrum": check_spectrum,
    "synth": check_synth,
    "lib": check_lib,
    "compile": check_compile,
    "audit": check_audit,
    "exec-exact": check_exec_exact,
    "exec-samples": check_exec_samples,
    "rt": check_rt,
}


def check_job(job, stdout: str, wd: Path):
    """(reason or None, value the checker returned)."""
    try:
        return None, CHECKERS[job.check](job, stdout, wd)
    except Bad as exc:
        return str(exc), None
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc})", None


def check_monotone(results: list[tuple[object, int]]) -> dict[int, str]:
    """Eps-rank must be nonincreasing in eps for each table.

    ``results`` pairs each epsrank job with its checked rank (or None);
    returns {index into results: reason} for the offending jobs.
    """
    groups: dict[str, list[tuple[Fraction, int, int]]] = {}
    for i, (job, t) in enumerate(results):
        if t is not None and job.expect.get("group"):
            groups.setdefault(job.expect["group"], []).append(
                (Fraction(job.expect["eps"]), t, i))
    bad = {}
    for name, rows in groups.items():
        rows.sort()
        for (e0, t0, _i0), (e1, t1, i1) in zip(rows, rows[1:]):
            if t1 > t0:
                bad[i1] = f"{name}: eps-rank {t1} at eps {e1} exceeds {t0} at eps {e0}"
    return bad
