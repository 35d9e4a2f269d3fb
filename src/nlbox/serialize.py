"""Line-oriented text serialization for protocols.

Header "protocol <kind> nx=<..> ny=<..> t=<..>", then named sections,
each a bitstring table in row-major input order.  Mixtures are written
as one "mix <k> <num>/<den>" header per component, wrapping the k
serialized components.  Blank lines and '#' comments are ignored.
"""

from __future__ import annotations

from fractions import Fraction

from .protocols import (AndProtocol, GeneralNlbProtocol, OneWayProtocol,
                        OrderedNlbProtocol, OtProtocol, ParallelProtocol,
                        ParallelXorProtocol, ProtocolMixture, Protocol,
                        TwoWayTree)

KIND_NAMES = {
    ParallelXorProtocol: "parallel-xor",
    ParallelProtocol: "parallel",
    OrderedNlbProtocol: "ordered",
    GeneralNlbProtocol: "general",
    OneWayProtocol: "oneway",
    TwoWayTree: "twoway",
    AndProtocol: "and",
    OtProtocol: "ot",
}


class ParseError(ValueError):
    pass


def _bits(vals) -> str:
    return "".join("1" if v else "0" for v in vals)


def _fmt_frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def serialize(p: Protocol, provenance: str | None = None) -> str:
    lines: list[str] = []
    if provenance:
        lines.append(f"# provenance: {provenance}")
    _emit(p, lines)
    return "\n".join(lines) + "\n"


def _emit(p: Protocol, lines: list[str]) -> None:
    if isinstance(p, ProtocolMixture):
        k = len(p.components)
        for w, comp in p.components:
            lines.append(f"mix {k} {_fmt_frac(w)}")
            _emit(comp, lines)
        return
    kind = KIND_NAMES[type(p)]
    lines.append(f"protocol {kind} nx={p.nx} ny={p.ny} t={p.t}")
    if isinstance(p, (ParallelXorProtocol, ParallelProtocol, AndProtocol)):
        for i in range(p.t):
            lines.append(f"pbox {i}:")
            lines.append(_bits(p.pbox[i]))
        for i in range(p.t):
            lines.append(f"qbox {i}:")
            lines.append(_bits(p.qbox[i]))
    if isinstance(p, ParallelXorProtocol):
        lines.append("localA:")
        lines.append(_bits(p.local_a))
        lines.append("localB:")
        lines.append(_bits(p.local_b))
    if isinstance(p, (ParallelProtocol, OrderedNlbProtocol, GeneralNlbProtocol)):
        lines.append("outA:")
        lines.extend(_bits(row) for row in p.out_a)
        lines.append("outB:")
        lines.extend(_bits(row) for row in p.out_b)
    if isinstance(p, AndProtocol):
        lines.append("outA:")
        lines.extend(_bits(row) for row in p.out_a)
    if isinstance(p, (OrderedNlbProtocol, GeneralNlbProtocol)):
        if isinstance(p, GeneralNlbProtocol):
            lines.append("schedA: " + " ".join(map(str, p.sched_a)))
            lines.append("schedB: " + " ".join(map(str, p.sched_b)))
        for name, steps in (("stepA", p.step_a), ("stepB", p.step_b)):
            for i in range(p.t):
                lines.append(f"{name} {i}:")
                lines.extend(_bits(row) for row in steps[i])
    if isinstance(p, OneWayProtocol):
        lines.append("msg: " + " ".join(map(str, p.msg)))
        lines.append("outA:")
        lines.append(_bits(p.out_a))
        lines.append("outB:")
        lines.extend(_bits(row) for row in p.out_b)
    if isinstance(p, TwoWayTree):
        for r in range(p.t):
            lines.append(f"dir {r}:")
            lines.append(_bits(p.direction[r]))
            lines.append(f"bit {r}:")
            lines.extend(_bits(row) for row in p.bit[r])
        lines.append("outA:")
        lines.extend(_bits(row) for row in p.out_a)
        lines.append("outB:")
        lines.extend(_bits(row) for row in p.out_b)
    if isinstance(p, OtProtocol):
        lines.append("rweights: " + " ".join(_fmt_frac(w) for w in p.r_weights))
        for i in range(p.t):
            lines.append(f"inA {i}:")
            for x in range(1 << p.nx):
                lines.append(" ".join(f"{s0}{s1}" for s0, s1 in p.in_a[i][x]))
            lines.append(f"inB {i}:")
            lines.extend(_bits(row) for row in p.in_b[i])
        lines.append("outA:")
        lines.extend(_bits(row) for row in p.out_a)
        lines.append("outB:")
        lines.extend(_bits(row) for row in p.out_b)


class _Cursor:
    def __init__(self, text: str):
        self.lines = [ln.strip() for ln in text.splitlines()]
        self.lines = [ln for ln in self.lines if ln and not ln.startswith("#")]
        self.pos = 0

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self) -> str:
        ln = self.peek()
        if ln is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return ln

    def expect(self, prefix: str) -> str:
        ln = self.take()
        if not ln.startswith(prefix):
            raise ParseError(f"expected {prefix!r}, found {ln!r}")
        return ln

    def bit_line(self, width: int) -> tuple[int, ...]:
        ln = self.take()
        if len(ln) != width or any(c not in "01" for c in ln):
            raise ParseError(f"expected {width}-bit line, found {ln!r}")
        return tuple(int(c) for c in ln)

    def bit_block(self, rows: int, width: int) -> tuple[tuple[int, ...], ...]:
        return tuple(self.bit_line(width) for _ in range(rows))


def parse(text: str) -> Protocol:
    cur = _Cursor(text)
    p = _parse_one(cur)
    if cur.peek() is not None:
        raise ParseError(f"trailing content: {cur.peek()!r}")
    return p


def _parse_frac(tok: str) -> Fraction:
    try:
        num, den = tok.split("/")
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad fraction {tok!r}") from None


def _mix_header(line: str) -> tuple[int, Fraction]:
    head = line.split()
    try:
        if head[0] != "mix" or len(head) != 3:
            raise ValueError
        return int(head[1]), _parse_frac(head[2])
    except ValueError:
        raise ParseError(f"bad mixture header {line!r}") from None


def _parse_one(cur: _Cursor):
    line = cur.take()
    if not line.startswith("mix"):
        cur.pos -= 1
        return _parse_body(cur)
    k, w = _mix_header(line)
    comps = [(w, _parse_body(cur))]
    for _ in range(k - 1):
        k2, w = _mix_header(cur.take())
        if k2 != k:
            raise ParseError("inconsistent mixture headers")
        comps.append((w, _parse_body(cur)))
    return ProtocolMixture(tuple(comps))


def _parse_body(cur: _Cursor):
    line = cur.take()
    head = line.split()
    try:
        if head[0] != "protocol" or len(head) < 2:
            raise ValueError
        fields = dict(kv.split("=") for kv in head[2:])
        nx, ny, t = int(fields["nx"]), int(fields["ny"]), int(fields["t"])
        xs, ys = 1 << nx, 1 << ny
    except (ValueError, KeyError):
        raise ParseError(f"bad header {line!r}") from None
    kind = head[1]

    def boxes():
        pbox, qbox = [], []
        for i in range(t):
            cur.expect(f"pbox {i}:")
            pbox.append(cur.bit_line(xs))
        for i in range(t):
            cur.expect(f"qbox {i}:")
            qbox.append(cur.bit_line(ys))
        return tuple(pbox), tuple(qbox)

    if kind == "parallel-xor":
        pbox, qbox = boxes()
        cur.expect("localA:")
        la = cur.bit_line(xs)
        cur.expect("localB:")
        lb = cur.bit_line(ys)
        return ParallelXorProtocol(nx, ny, t, pbox, qbox, la, lb)
    if kind == "parallel":
        pbox, qbox = boxes()
        cur.expect("outA:")
        oa = cur.bit_block(xs, 1 << t)
        cur.expect("outB:")
        ob = cur.bit_block(ys, 1 << t)
        return ParallelProtocol(nx, ny, t, pbox, qbox, oa, ob)
    if kind == "and":
        pbox, qbox = boxes()
        cur.expect("outA:")
        oa = cur.bit_block(xs, 1 << t)
        return AndProtocol(nx, ny, t, pbox, qbox, oa)
    if kind in ("ordered", "general"):
        cur.expect("outA:")
        oa = cur.bit_block(xs, 1 << t)
        cur.expect("outB:")
        ob = cur.bit_block(ys, 1 << t)
        sched_a = sched_b = None
        if kind == "general":
            sched_a = tuple(int(v) for v in cur.expect("schedA:").split()[1:])
            sched_b = tuple(int(v) for v in cur.expect("schedB:").split()[1:])
        steps = {}
        for name, dom in (("stepA", xs), ("stepB", ys)):
            tabs = []
            for i in range(t):
                cur.expect(f"{name} {i}:")
                tabs.append(cur.bit_block(dom, 1 << i))
            steps[name] = tuple(tabs)
        if kind == "ordered":
            return OrderedNlbProtocol(nx, ny, t, steps["stepA"], steps["stepB"], oa, ob)
        return GeneralNlbProtocol(nx, ny, t, sched_a, steps["stepA"],
                                  sched_b, steps["stepB"], oa, ob)
    if kind == "oneway":
        msg = tuple(int(v) for v in cur.expect("msg:").split()[1:])
        cur.expect("outA:")
        oa = cur.bit_line(xs)
        cur.expect("outB:")
        ob = cur.bit_block(1 << t, ys)
        return OneWayProtocol(nx, ny, t, msg, oa, ob)
    if kind == "twoway":
        direction, bit = [], []
        for r in range(t):
            cur.expect(f"dir {r}:")
            d = cur.bit_line(1 << r)
            direction.append(d)
            cur.expect(f"bit {r}:")
            bit.append(tuple(cur.bit_line(xs if d[pre] else ys)
                             for pre in range(1 << r)))
        cur.expect("outA:")
        oa = cur.bit_block(1 << t, xs)
        cur.expect("outB:")
        ob = cur.bit_block(1 << t, ys)
        return TwoWayTree(nx, ny, t, tuple(direction), tuple(bit), oa, ob)
    if kind == "ot":
        rw = tuple(_parse_frac(v) for v in cur.expect("rweights:").split()[1:])
        nr = len(rw)
        in_a, in_b = [], []
        for i in range(t):
            cur.expect(f"inA {i}:")
            rows = []
            for _x in range(xs):
                toks = cur.take().split()
                if len(toks) != nr or any(len(tk) != 2 or set(tk) - set("01") for tk in toks):
                    raise ParseError("bad OT pair row")
                rows.append(tuple((int(tk[0]), int(tk[1])) for tk in toks))
            in_a.append(tuple(rows))
            cur.expect(f"inB {i}:")
            in_b.append(cur.bit_block(ys, 1 << i))
        cur.expect("outA:")
        oa = cur.bit_block(xs, nr)
        cur.expect("outB:")
        ob = cur.bit_block(ys, 1 << t)
        return OtProtocol(nx, ny, t, rw, tuple(in_a), tuple(in_b), oa, ob)
    raise ParseError(f"unknown protocol kind {kind!r}")
