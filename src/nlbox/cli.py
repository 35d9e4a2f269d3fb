"""Command-line front end.

Reports are line-oriented ``key: value`` pairs with rationals printed as
``num/den``; identical argv (and seed) produce byte-identical standard
output.  Wall time goes to standard error to keep stdout deterministic.

Exit codes: 0 success, 1 usage, 2 validation error, 3 audit failure,
4 resource limit.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time
from fractions import Fraction

import numpy as np

from . import compilers, correlations, engine, epsrank, gf2, library
from . import truthtable as tt
from .serialize import parse as parse_protocol
from .serialize import serialize as serialize_protocol
from .protocols import (KIND_NAMES, NLB_KINDS, AndProtocol, GeneralNlbProtocol,
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


def _frac(text: str, option: str) -> Fraction:
    """--eps or --flip: a rational n/d, or an integer n for n/1."""
    if tt.DECIMAL.fullmatch(text.removeprefix("-")):
        return Fraction(int(text))
    return tt.parse_fraction(text, option)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _hash(text: str | bytes) -> str:
    """The hash of a text, or of a file's bytes as _read reads them: UTF-8
    with CRLF and CR line ends made LF, so bytes with no CR hash as they are."""
    if isinstance(text, bytes) and b"\r" in text:
        text = text.decode().replace("\r\n", "\n").replace("\r", "\n")
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()[:16]


def _load_table(path: str) -> tuple[tt.TruthTable, str]:
    """A truth table and the hash of its canonical text."""
    f = tt.parse_truth_table(_read(path))
    return f, _hash(tt.format_truth_table(f))


def _load_protocol(path: str):
    """A protocol, valid once parsed, and the hash of its file, both
    from the file's bytes, read once."""
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_protocol(data), _hash(data)


def _load_source(path: str):
    """A valid protocol to compile, the hash of its file, and its t."""
    p, digest = _load_protocol(path)
    return p, digest, p.t


def _load_circuit(path: str):
    """A circuit to compile, the hash of its file, and its gate count."""
    text = _read(path)
    c = parse_circuit(text)
    return c, _hash(text), len(c.gates)


def _emit_protocol(p, path: str | None, provenance: str) -> None:
    text = serialize_protocol(p, provenance=provenance)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# tokens on each kind of circuit line, its keywords included
_CIRCUIT_TOKENS = {"input a": 3, "input b": 3, "input ab": 4, "output": 2,
                   **{gate: arity + 1 for gate, arity in compilers._GATE_ARITY.items()}}
# an input wire's (a bit, b bit) from the numbers on its line
_INPUT_BITS = {"input a": lambda a: (a, None), "input b": lambda b: (None, b),
               "input ab": lambda a, b: (a, b)}


def parse_circuit(text: str) -> compilers.DistributedCircuit:
    """Circuit text format: header "circuit nx ny"; then one line per
    wire — "input a BIT", "input b BIT", "input ab ABIT BBIT", gates
    "and W1 W2" / "or W1 W2" / "xor W1 W2" / "not W"; then one "output W"
    line, the last.
    Numbers are ASCII decimal digits.
    """
    lines = tt.content_lines(text)
    head = lines[0].split() if lines else []
    if len(head) != 3 or head[0] != "circuit":
        raise ValueError("circuit file must start with 'circuit nx ny'")
    nx, ny = (tt.parse_decimal(tok, f"circuit line {lines[0]!r}:") for tok in head[1:])
    inputs: list[compilers.InputWire] = []
    gates: list[tuple] = []
    output = None
    for ln in lines[1:]:
        if output is not None:
            raise ValueError("the output line must be the circuit's last line")
        toks = ln.split()
        kind = " ".join(toks[:2]) if toks[0] == "input" else toks[0]
        if kind not in _CIRCUIT_TOKENS:
            raise ValueError(f"unknown circuit line {ln!r}")
        if len(toks) != _CIRCUIT_TOKENS[kind]:
            raise ValueError(f"circuit line {ln!r} needs "
                             f"{_CIRCUIT_TOKENS[kind]} tokens")
        nums = [tt.parse_decimal(tok, f"circuit line {ln!r}:")
                for tok in toks[len(kind.split()):]]
        if toks[0] == "input":
            if gates:
                raise ValueError("inputs must precede gates")
            inputs.append(compilers.InputWire(*_INPUT_BITS[kind](*nums)))
        elif kind == "output":
            output = nums[0]
        else:
            gates.append((kind, *nums))
    if output is None:
        raise ValueError("circuit has no output line")
    return compilers.DistributedCircuit(nx, ny, tuple(inputs), tuple(gates), output)


# Each choice below maps the protocol kinds it takes to the name of the
# function it calls on them, looked up when the command runs: a tracer
# may wrap the module attribute after this module is imported.

# compile --from S: the loader of its input file, {kind: compilers
# function}, and whether that function also takes the -f truth table
_SOURCES = {
    "oneway": (_load_source, {OneWayProtocol: "oneway_to_parallel"}, False),
    "twoway": (_load_source, {TwoWayTree: "twoway_to_parallel"}, False),
    "circuit": (_load_circuit, {compilers.DistributedCircuit: "circuit_to_nlb"}, False),
    "ordered-to-ot": (_load_source, {OrderedNlbProtocol: "ordered_to_ot"}, False),
    "and-from-oneway": (_load_source, {OneWayProtocol: "and_from_oneway"}, False),
    "oneway-from-and": (_load_source, {AndProtocol: "oneway_from_and"}, True),
}

# compile --normalize-xor: {kind of the compiled result: compilers function}
_NORMALIZE = {ParallelXorProtocol: "xor_normalize_parallel",
              OrderedNlbProtocol: "xor_normalize_general",
              GeneralNlbProtocol: "xor_normalize_general"}

# audit --CHECK: {kind: engine function}, and whether it takes the -f table
_AUDITS = {
    "nonsignaling": (dict.fromkeys((*NLB_KINDS, ProtocolMixture), "nonsignaling_audit"),
                     False),
    "privacy-and": ({AndProtocol: "privacy_audit_and"}, True),
    "privacy-ot": ({OtProtocol: "privacy_audit_ot"}, False),
}

# what a compile or lib report counts in t, by kind (boxes otherwise)
_COUNTED = {OtProtocol: "calls", AndProtocol: "gates"}
# every kind a protocol file can hold, by name
_KINDS = {**KIND_NAMES, ProtocolMixture: "mixture"}


def _pick(calls: dict, p, what: str) -> str:
    """The name of the function ``what`` calls on p's kind."""
    if type(p) not in calls:
        want = " or ".join(_KINDS[k] for k in calls)
        raise ValueError(f"{what} requires kind {want}, not {_KINDS[type(p)]}")
    return calls[type(p)]


def _required_table(args, what: str) -> tt.TruthTable:
    """The -f truth table of a choice that reads one; nothing prints its hash."""
    if not args.function:
        raise ValueError(f"{what} requires -f with the target function")
    return tt.parse_truth_table(_read(args.function))


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process."""
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
    sp.add_argument("--from", dest="source", required=True, choices=tuple(_SOURCES))
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("-f", "--function", help="truth table (oneway-from-and only)")
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
    check = sp.add_mutually_exclusive_group(required=True)
    for name in _AUDITS:
        check.add_argument(f"--{name}", dest="check", action="store_const", const=name)
    sp.add_argument("-f", "--function", help="truth table (privacy-and)")

    sp = sub.add_parser("lib", help="named protocols")
    sp.add_argument("name", choices=tuple(_LIB))
    sp.add_argument("-n", type=int)
    sp.add_argument("--flip", help="output-flip weight for disj-rand (default 1/3)")
    sp.add_argument("-f", "--function", help="truth table (vandam)")
    sp.add_argument("-o", "--out")

    sp = sub.add_parser("rt", help="3-box measurement-simulation trials")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)

    sub.add_parser("sweep", help="exhaustive 2x2-bit rank-synthesis sweep")
    return ap


def _cmd_rank(args) -> int:
    f, digest = _load_table(args.function)
    print(f"input-hash: {digest}")
    print(f"rank: {gf2.gf2_rank(f)}")
    return EXIT_OK


def _cmd_factorize(args) -> int:
    f, digest = _load_table(args.function)
    fac = gf2.gf2_factorize(f)
    print(f"input-hash: {digest}")
    print(f"rank: {fac.t}")
    for i in range(fac.t):
        p = tt.bit_string(fac.row_factors[i], f.n_rows)
        q = tt.bit_string(fac.col_factors[i], f.n_cols)
        print(f"factor {i}: {p} x {q}")
    print(f"reconstruction-exact: {fac.reconstruct() == f}")
    return EXIT_OK


def _cmd_epsrank(args) -> int:
    if args.function is not None:
        target, digest = _load_table(args.function)
    else:
        target = correlations.parse_correlation(_read(args.corr))
        digest = _hash(correlations.format_correlation(target))
    q = epsrank.EpsRankQuery(target, _frac(args.eps, "--eps"), args.tmax)
    res = epsrank.eps_rank(q)
    print(f"input-hash: {digest}")
    print(f"eps: {tt.format_fraction(q.eps)}")
    if res.exceeded:
        print(f"eps-rank: exceeds tmax {args.tmax}")
        return EXIT_OK
    print(f"eps-rank: {res.t}")
    ok = epsrank.verify_witness(target, q.eps, res.witness)
    for i, (w, grid) in enumerate(res.witness):
        rows = ";".join("".join(str(v) for v in row) for row in grid)
        print(f"witness {i}: {tt.format_fraction(w)} {rows}")
    print(f"witness-verified: {ok}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    f, digest = _load_table(args.function)
    rep = gf2.fourier_l1(f)
    print(f"input-hash: {digest}")
    print(f"l1: {rep.l1!r}")
    print(f"parseval-defect: {rep.parseval_defect()!r}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    f, digest = _load_table(args.function)
    p = getattr(compilers, f"synth_{args.method}")(f)
    prof = engine.error_profile(p, f)
    print(f"input-hash: {digest}")
    print(f"method: {args.method}")
    print(f"boxes: {p.t}")
    print(f"worst-error: {tt.format_fraction(prof.worst)}")
    _emit_protocol(p, args.out, f"synth --method {args.method} source {digest}")
    return EXIT_OK


def _cmd_compile(args) -> int:
    load, calls, reads_f = _SOURCES[args.source]
    if args.function and not reads_f:
        raise ValueError(f"-f applies to --from oneway-from-and only, not {args.source}")
    what = f"--from {args.source}"
    table = (_required_table(args, what),) if reads_f else ()
    src, digest, size = load(args.input)
    result = getattr(compilers, _pick(calls, src, what))(src, *table)
    if args.normalize_xor:
        result = getattr(compilers, _pick(_NORMALIZE, result, "--normalize-xor"))(result)
    print(f"input-hash: {digest}")
    print(f"source-size: {size}")
    print(f"{_COUNTED.get(type(result), 'boxes')}: {result.t}")
    _emit_protocol(result, args.out, f"compile --from {args.source} source {digest}")
    return EXIT_OK


def _cmd_exec(args) -> int:
    if args.exact and args.seed is not None:
        raise ValueError("--seed applies to --samples only, not --exact")
    if not args.exact:
        if args.seed is None:
            raise UsageError("--samples requires an explicit --seed")
        if args.samples < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
    p, digest = _load_protocol(args.protocol)
    for name, v, bits in (("x", args.x, p.nx), ("y", args.y, p.ny)):
        if not 0 <= v < 1 << bits:
            raise ValueError(f"-{name} {v} is outside [0, {1 << bits})")
    # the result first, so that a resource limit leaves stdout empty
    if args.exact:
        dist = engine.exec_exact(p, args.x, args.y)
        report = [f"p {a} {b}: {tt.format_fraction(dist.probs[(a, b)])}"
                  for (a, b) in sorted(dist.probs)]
    else:
        counts = engine.sample_counts(p, args.x, args.y, args.seed, args.samples)
        report = [f"samples: {args.samples}", f"seed: {args.seed}",
                  *(f"count {a} {b}: {counts[(a, b)]}" for (a, b) in sorted(counts))]
    print(f"input-hash: {digest}")
    print(f"x: {args.x}")
    print(f"y: {args.y}")
    print("\n".join(report))
    return EXIT_OK


def _cmd_audit(args) -> int:
    calls, reads_f = _AUDITS[args.check]
    what = f"--{args.check}"
    if args.function and not reads_f:
        raise ValueError(f"-f applies to --privacy-and only, not {what}")
    table = (_required_table(args, what),) if reads_f else ()
    p, digest = _load_protocol(args.protocol)
    # the verdict first, so that an error or resource limit leaves stdout empty
    bad = getattr(engine, _pick(calls, p, what))(p, *table)
    print(f"input-hash: {digest}")
    print(f"check: {args.check}")
    if bad is None:
        print("audit: ok")
        return EXIT_OK
    print("audit: FAIL")
    print(f"violation: {bad}")
    return EXIT_AUDIT


def _lib_report(args, p, f) -> None:
    prof = engine.error_profile(p, f)
    print(f"name: {args.name}")
    print(f"{_COUNTED.get(type(p), 'boxes')}: {p.t}")
    print(f"worst-error: {tt.format_fraction(prof.worst)}")
    _emit_protocol(p, args.out, f"lib {args.name} n={args.n}")


def _chsh_report(_args, p, f) -> None:
    print(f"classical-optimum: {tt.format_fraction(library.chsh_classical_optimum())}")
    print(f"nlb-success: {tt.format_fraction(1 - engine.error_profile(p, f).worst)}")


def _disj_rand(args):
    flip = Fraction(1, 3) if args.flip is None else _frac(args.flip, "--flip")
    return library.disj_rand_parallel(args.n, flip), tt.disj_table(args.n)


def _vandam(args):
    f = _required_table(args, "lib vandam")
    return library.vandam_protocol(f), f


# lib NAME: its protocol and the function it computes, built from the
# arguments (library's functions looked up at call time, as above), and
# the report printed for it
_LIB = {
    "ip": (lambda a: (library.ip_protocol(a.n), tt.ip_table(a.n)), _lib_report),
    "disj-det": (lambda a: (library.disj_det_protocol(a.n), tt.disj_table(a.n)),
                 _lib_report),
    "disj-rand": (_disj_rand, _lib_report),
    "chsh": (lambda a: (library.chsh_box_protocol(), tt.and_table()), _chsh_report),
    "vandam": (_vandam, _lib_report),
}


def _cmd_lib(args) -> int:
    checks = (("-n", args.n is not None, "ip or disj-det or disj-rand"),
              ("-f", args.function, "vandam"),
              ("--flip", args.flip is not None, "disj-rand"),
              ("-o", args.out, "ip or disj-det or disj-rand or vandam"))
    for option, given, readers in checks:
        if given and args.name not in readers.split(" or "):
            raise ValueError(f"{option} applies to {readers} only, not {args.name}")
    if args.n is None:  # defaulted only now, so that a given -n is told apart
        args.n = 2
    build, report = _LIB[args.name]
    report(args, *build(args))
    return EXIT_OK


def _cmd_rt(args) -> int:
    a_c, b_c, a_n, b_n = correlations.rt_trials(args.dim, args.trials, args.seed)
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
    except engine.ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"wall-time: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
