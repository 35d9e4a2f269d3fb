"""Command-line front end.

Reports are line-oriented ``key: value`` pairs with rationals printed as
``num/den``; identical argv (and seed) produce byte-identical standard
output.  Wall time goes to standard error to keep stdout deterministic.

Exit codes: 0 success, 1 usage, 2 validation error, 3 audit failure,
4 resource limit.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from fractions import Fraction

import numpy as np

from . import compilers, correlations, engine, epsrank, library
from . import gf2
from . import truthtable as tt
from .serialize import parse as parse_protocol
from .serialize import serialize as serialize_protocol
from .protocols import (KIND_NAMES, AndProtocol, GeneralNlbProtocol,
                        OneWayProtocol, OrderedNlbProtocol, OtProtocol,
                        ParallelXorProtocol, ProtocolMixture, TwoWayTree)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_AUDIT = 3
EXIT_RESOURCE = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures to exit code 1
        raise UsageError(message)


def _frac(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _fmt(v) -> str:
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}"


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _load_table(path: str) -> tt.TruthTable:
    return tt.parse_truth_table(_read(path))


def _emit_protocol(p, path: str | None, provenance: str) -> None:
    text = serialize_protocol(p, provenance=provenance)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# tokens on each kind of circuit line, its keywords included
_CIRCUIT_TOKENS = {"input a": 3, "input b": 3, "input ab": 4, "and": 3,
                   "or": 3, "xor": 3, "not": 2, "output": 2}


def _circuit_number(tok: str, ln: str) -> int:
    """A width, bit or wire index: ASCII decimal digits only, where int()
    alone would also take a sign, underscores or other scripts' digits."""
    if not tt.DECIMAL.fullmatch(tok):
        raise ValueError(f"circuit line {ln!r}: {tok!r} is not a decimal number")
    return int(tok)


def parse_circuit(text: str) -> compilers.DistributedCircuit:
    """Circuit text format: header "circuit nx ny"; then one line per
    wire — "input a BIT", "input b BIT", "input ab ABIT BBIT", gates
    "and W1 W2" / "or W1 W2" / "xor W1 W2" / "not W"; final "output W".
    Numbers are ASCII decimal digits.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    head = lines[0].split() if lines else []
    if len(head) != 3 or head[0] != "circuit":
        raise ValueError("circuit file must start with 'circuit nx ny'")
    nx, ny = (_circuit_number(tok, lines[0]) for tok in head[1:])
    inputs: list[compilers.InputWire] = []
    gates: list[tuple] = []
    output = None
    for ln in lines[1:]:
        toks = ln.split()
        kind = " ".join(toks[:2]) if toks[0] == "input" else toks[0]
        if kind not in _CIRCUIT_TOKENS:
            raise ValueError(f"unknown circuit line {ln!r}")
        if len(toks) != _CIRCUIT_TOKENS[kind]:
            raise ValueError(f"circuit line {ln!r} needs "
                             f"{_CIRCUIT_TOKENS[kind]} tokens")
        nums = [_circuit_number(tok, ln) for tok in toks[len(kind.split()):]]
        if toks[0] == "input":
            if gates:
                raise ValueError("inputs must precede gates")
            if kind == "input a":
                inputs.append(compilers.InputWire(nums[0], None))
            elif kind == "input b":
                inputs.append(compilers.InputWire(None, nums[0]))
            else:
                inputs.append(compilers.InputWire(*nums))
        elif kind == "output":
            output = nums[0]
        else:
            gates.append((kind, *nums))
    if output is None:
        raise ValueError("circuit has no output line")
    return compilers.DistributedCircuit(nx, ny, tuple(inputs), tuple(gates), output)


def _count_key(p) -> tuple[str, int]:
    if isinstance(p, OtProtocol):
        return "calls", p.t
    if isinstance(p, AndProtocol):
        return "gates", p.t
    return "boxes", p.t


def _require_valid(p) -> None:
    errs = engine.validate(p)
    if errs:
        raise ValueError("invalid protocol: " + "; ".join(errs))


def build_parser() -> _Parser:
    ap = _Parser(prog="nlbox", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("rank", help="GF(2) rank of a truth table")
    sp.add_argument("-f", "--function", required=True)

    sp = sub.add_parser("factorize", help="rank-revealing GF(2) factorization")
    sp.add_argument("-f", "--function", required=True)

    sp = sub.add_parser("epsrank", help="approximate rank over GF(2)")
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("-f", "--function")
    src.add_argument("--corr")
    sp.add_argument("--eps", required=True)
    sp.add_argument("--tmax", type=int, default=4)

    sp = sub.add_parser("spectrum", help="Walsh spectrum L1 diagnostic")
    sp.add_argument("-f", "--function", required=True)

    sp = sub.add_parser("synth", help="synthesize a strict XOR protocol")
    sp.add_argument("-f", "--function", required=True)
    sp.add_argument("--method", choices=("rank", "vandam"), default="rank")
    sp.add_argument("-o", "--out")

    sp = sub.add_parser("compile", help="compile between protocol models")
    sp.add_argument("--from", dest="source", required=True,
                    choices=("oneway", "twoway", "circuit", "ordered-to-ot",
                             "and-from-oneway", "oneway-from-and"))
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("-f", "--function",
                    help="truth table (oneway-from-and only)")
    sp.add_argument("--normalize-xor", action="store_true",
                    help="XOR-normalize the compiled protocol")
    sp.add_argument("-o", "--out")

    sp = sub.add_parser("exec", help="run a protocol on one input pair")
    sp.add_argument("-p", "--protocol", required=True)
    sp.add_argument("-x", type=int, required=True)
    sp.add_argument("-y", type=int, required=True)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)

    sp = sub.add_parser("audit", help="non-signaling / privacy audits")
    sp.add_argument("-p", "--protocol", required=True)
    kind = sp.add_mutually_exclusive_group(required=True)
    kind.add_argument("--nonsignaling", action="store_true")
    kind.add_argument("--privacy-and", action="store_true")
    kind.add_argument("--privacy-ot", action="store_true")
    sp.add_argument("-f", "--function", help="truth table (privacy-and)")

    sp = sub.add_parser("lib", help="named protocols")
    sp.add_argument("name", choices=("ip", "disj-det", "disj-rand", "chsh",
                                     "vandam"))
    sp.add_argument("-n", type=int, default=2)
    sp.add_argument("--flip", default="1/3",
                    help="output-flip weight for disj-rand")
    sp.add_argument("-f", "--function", help="truth table (vandam)")
    sp.add_argument("-o", "--out")

    sp = sub.add_parser("rt", help="3-box measurement-simulation trials")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)

    sub.add_parser("sweep", help="exhaustive 2x2-bit rank-synthesis sweep")
    return ap


def _cmd_rank(args) -> int:
    f = _load_table(args.function)
    print(f"input-hash: {_hash(tt.format_truth_table(f))}")
    print(f"rank: {gf2.gf2_rank(f)}")
    return EXIT_OK


def _cmd_factorize(args) -> int:
    f = _load_table(args.function)
    fac = gf2.gf2_factorize(f)
    print(f"input-hash: {_hash(tt.format_truth_table(f))}")
    print(f"rank: {fac.t}")
    for i in range(fac.t):
        p = "".join(str((fac.row_factors[i] >> x) & 1) for x in range(f.n_rows))
        q = "".join(str((fac.col_factors[i] >> y) & 1) for y in range(f.n_cols))
        print(f"factor {i}: {p} x {q}")
    print(f"reconstruction-exact: {fac.reconstruct() == f}")
    return EXIT_OK


def _cmd_epsrank(args) -> int:
    if args.function is not None:
        target = _load_table(args.function)
        digest = _hash(tt.format_truth_table(target))
    else:
        target = correlations.parse_correlation(_read(args.corr))
        digest = _hash(correlations.format_correlation(target))
    q = epsrank.EpsRankQuery(target, _frac(args.eps), args.tmax)
    res = epsrank.eps_rank(q)
    print(f"input-hash: {digest}")
    print(f"eps: {_fmt(q.eps)}")
    if res.exceeded:
        print(f"eps-rank: exceeds tmax {args.tmax}")
        return EXIT_OK
    print(f"eps-rank: {res.t}")
    ok = epsrank.verify_witness(target, q.eps, res.witness)
    for i, (w, grid) in enumerate(res.witness):
        rows = ";".join("".join(str(v) for v in row) for row in grid)
        print(f"witness {i}: {_fmt(w)} {rows}")
    print(f"witness-verified: {ok}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    f = _load_table(args.function)
    rep = gf2.fourier_l1(f)
    print(f"input-hash: {_hash(tt.format_truth_table(f))}")
    print(f"l1: {rep.l1!r}")
    print(f"parseval-defect: {rep.parseval_defect()!r}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    f = _load_table(args.function)
    p = compilers.synth_rank(f) if args.method == "rank" else \
        compilers.synth_vandam(f)
    prof = engine.error_profile(p, f)
    print(f"input-hash: {_hash(tt.format_truth_table(f))}")
    print(f"method: {args.method}")
    print(f"boxes: {p.t}")
    print(f"worst-error: {_fmt(prof.worst)}")
    _emit_protocol(p, args.out,
                   f"synth --method {args.method} source {_hash(tt.format_truth_table(f))}")
    return EXIT_OK


def _cmd_compile(args) -> int:
    if args.function and args.source != "oneway-from-and":
        raise ValueError(f"-f applies to --from oneway-from-and only, not {args.source}")
    src_text = _read(args.input)
    digest = _hash(src_text)
    if args.source == "circuit":
        circuit = parse_circuit(src_text)
        result = compilers.circuit_to_nlb(circuit)
        src_size = len(circuit.gates)
    else:
        src = parse_protocol(src_text)
        _require_valid(src)
        if args.source == "oneway":
            if not isinstance(src, OneWayProtocol):
                raise ValueError("--from oneway requires a oneway protocol file")
            result = compilers.oneway_to_parallel(src)
        elif args.source == "twoway":
            if not isinstance(src, TwoWayTree):
                raise ValueError("--from twoway requires a twoway protocol file")
            result = compilers.twoway_to_parallel(src)
        elif args.source == "ordered-to-ot":
            result = compilers.ordered_to_ot(src)
        elif args.source == "and-from-oneway":
            if not isinstance(src, OneWayProtocol):
                raise ValueError("--from and-from-oneway requires a oneway protocol")
            result = compilers.and_from_oneway(src)
        else:  # oneway-from-and
            if not isinstance(src, AndProtocol):
                raise ValueError("--from oneway-from-and requires an AND protocol")
            if not args.function:
                raise ValueError("oneway-from-and requires -f with the target function")
            result = compilers.oneway_from_and(src, _load_table(args.function))
        src_size = src.t
    if args.normalize_xor:
        if isinstance(result, (OrderedNlbProtocol, GeneralNlbProtocol)):
            result = compilers.xor_normalize_general(result)
        elif isinstance(result, ParallelXorProtocol):
            result = compilers.xor_normalize_parallel(result)
        else:
            raise ValueError("--normalize-xor applies to parallel-xor, ordered or "
                             f"general results, not {KIND_NAMES[type(result)]}")
    key, count = _count_key(result)
    print(f"input-hash: {digest}")
    print(f"source-size: {src_size}")
    print(f"{key}: {count}")
    _emit_protocol(result, args.out, f"compile --from {args.source} source {digest}")
    return EXIT_OK


def _cmd_exec(args) -> int:
    if not args.exact:
        if args.seed is None:
            raise UsageError("--samples requires an explicit --seed")
        if args.samples < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
    text = _read(args.protocol)
    p = parse_protocol(text)
    _require_valid(p)
    for name, v, bits in (("x", args.x, p.nx), ("y", args.y, p.ny)):
        if not 0 <= v < 1 << bits:
            raise ValueError(f"-{name} {v} is outside [0, {1 << bits})")
    # the result first, so that a resource limit leaves stdout empty
    if args.exact:
        dist = engine.exec_exact(p, args.x, args.y)
        report = [f"p {a} {b}: {_fmt(dist.probs[(a, b)])}" for (a, b) in sorted(dist.probs)]
    else:
        counts = engine.sample_counts(p, args.x, args.y, args.seed, args.samples)
        report = [f"samples: {args.samples}", f"seed: {args.seed}",
                  *(f"count {a} {b}: {counts[(a, b)]}" for (a, b) in sorted(counts))]
    print(f"input-hash: {_hash(text)}")
    print(f"x: {args.x}")
    print(f"y: {args.y}")
    print("\n".join(report))
    return EXIT_OK


def _cmd_audit(args) -> int:
    text = _read(args.protocol)
    p = parse_protocol(text)
    _require_valid(p)
    print(f"input-hash: {_hash(text)}")
    if args.nonsignaling:
        bad = engine.nonsignaling_audit(p)
        print("check: nonsignaling")
    elif args.privacy_and:
        if not args.function:
            raise ValueError("--privacy-and requires -f with the target function")
        if not isinstance(p, AndProtocol):
            raise ValueError("--privacy-and requires an AND protocol")
        bad = engine.privacy_audit_and(p, _load_table(args.function))
        print("check: privacy-and")
    else:
        if not isinstance(p, OtProtocol):
            raise ValueError("--privacy-ot requires an OT protocol")
        bad = engine.privacy_audit_ot(p)
        print("check: privacy-ot")
    if bad is None:
        print("audit: ok")
        return EXIT_OK
    print("audit: FAIL")
    print(f"violation: {bad}")
    return EXIT_AUDIT


def _cmd_lib(args) -> int:
    if args.name == "chsh":
        print(f"classical-optimum: {_fmt(library.chsh_classical_optimum())}")
        p = library.chsh_box_protocol()
        prof = engine.error_profile(p, tt.and_table())
        print(f"nlb-success: {_fmt(1 - prof.worst)}")
        return EXIT_OK
    if args.name == "ip":
        p = library.ip_protocol(args.n)
        f = tt.ip_table(args.n)
    elif args.name == "disj-det":
        p = library.disj_det_protocol(args.n)
        f = tt.disj_table(args.n)
    elif args.name == "disj-rand":
        p = library.disj_rand_parallel(args.n, _frac(args.flip))
        f = tt.disj_table(args.n)
    else:  # vandam
        if not args.function:
            raise ValueError("lib vandam requires -f with the target function")
        f = _load_table(args.function)
        p = library.vandam_protocol(f)
    prof = engine.error_profile(p, f)
    key, count = _count_key(p)
    print(f"name: {args.name}")
    print(f"{key}: {count}")
    print(f"worst-error: {_fmt(prof.worst)}")
    _emit_protocol(p, args.out, f"lib {args.name} n={args.n}")
    return EXIT_OK


def _cmd_rt(args) -> int:
    a_c, b_c, a_n, b_n = correlations.rt_trials(args.dim, args.trials,
                                                args.seed)
    mism = int(((a_c * b_c) != (a_n * b_n)).sum())
    print(f"dim: {args.dim}")
    print(f"trials: {args.trials}")
    print(f"seed: {args.seed}")
    print(f"e-a: {float(a_n.mean())!r}")
    print(f"e-b: {float(b_n.mean())!r}")
    print(f"e-ab: {float((a_n * b_n).mean())!r}")
    print(f"coupled-violations: {mism}")
    print("boxes-per-run: 3")
    return EXIT_OK


def _cmd_sweep(_args) -> int:
    """Every 2x2-bit function's synth_rank protocol, checked by chunked batch
    kernels: its box count, the number of factors, against the rank of an
    independent elimination, and its error table (as engine._xor_errors
    builds it: f XOR each column factor in the rows its row factor selects)
    against 0.  Acceptance criterion 1 checks the same through the protocol
    path."""
    mismatches = 0
    inexact = 0
    max_boxes = 0
    for lo in range(0, 1 << 16, gf2._CHUNK):
        codes = np.arange(lo, min(lo + gf2._CHUNK, 1 << 16), dtype=np.int64)
        t, ps, qs = gf2.factorize_batch_masks(codes, 4, 4)
        mismatches += int((t != gf2.rank_batch_masks(codes, 4, 4)).sum())
        rebuilt = np.zeros_like(codes)
        for x in range(4):
            row = np.bitwise_xor.reduce(((ps >> x) & 1) * qs, axis=1)
            rebuilt |= row << (4 * x)
        inexact += int((rebuilt != codes).sum())
        max_boxes = max(max_boxes, int(t.max()))
    print("functions: 65536")
    print(f"rank-mismatches: {mismatches}")
    print(f"inexact-protocols: {inexact}")
    print(f"max-boxes: {max_boxes}")
    return EXIT_OK


_HANDLERS = {
    "rank": _cmd_rank,
    "factorize": _cmd_factorize,
    "epsrank": _cmd_epsrank,
    "spectrum": _cmd_spectrum,
    "synth": _cmd_synth,
    "compile": _cmd_compile,
    "exec": _cmd_exec,
    "audit": _cmd_audit,
    "lib": _cmd_lib,
    "rt": _cmd_rt,
    "sweep": _cmd_sweep,
}


def dispatch(argv) -> int:
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        code = _HANDLERS[args.cmd](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (engine.ResourceLimitError, epsrank.DimensionLimitError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError, engine.ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"wall-time: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
