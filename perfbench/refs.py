"""Reference computations written independently of nlbox.

Dense lists instead of bit-packed rows, matrix products instead of
butterflies, and a direct circuit evaluator: agreement with nlbox's
output is evidence, not an echo of the same code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np


def bits_of_rows(rows, n_cols: int) -> list[list[int]]:
    return [[(r >> y) & 1 for y in range(n_cols)] for r in rows]


def gf2_rank_dense(matrix: list[list[int]]) -> int:
    """Rank over GF(2) by row reduction on a dense 0/1 matrix."""
    m = [list(row) for row in matrix]
    rank = 0
    n_cols = len(m[0]) if m else 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                m[r] = [a ^ b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def gf2_rank(rows, n_cols: int) -> int:
    """Rank of a table given as bit-packed rows (bit y of rows[x])."""
    return gf2_rank_dense(bits_of_rows(rows, n_cols))


def table_text(nx: int, ny: int, rows) -> str:
    lines = [f"{nx} {ny}"]
    lines += ["".join(str((r >> y) & 1) for y in range(1 << ny)) for r in rows]
    return "\n".join(lines) + "\n"


def _hadamard(n: int) -> np.ndarray:
    h = np.ones((1, 1))
    for _ in range(n):
        h = np.block([[h, h], [h, -h]])
    return h


def walsh_l1(nx: int, ny: int, rows) -> float:
    """L1 norm of the Walsh spectrum of the +/-1 encoding, as H_X F H_Y."""
    signs = 1.0 - 2.0 * np.array(bits_of_rows(rows, 1 << ny), dtype=np.float64)
    coeffs = _hadamard(nx) @ signs @ _hadamard(ny) / float(1 << (nx + ny))
    return float(np.abs(coeffs).sum())


def parallel_xor_table(text: str) -> tuple[int, int, int, np.ndarray]:
    """Parse a serialized parallel-xor protocol; return (nx, ny, t, F)
    where F[x, y] is the output parity on (x, y)."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    head = lines[0].split()
    if head[:2] != ["protocol", "parallel-xor"]:
        raise ValueError(f"not a parallel-xor protocol: {lines[0]!r}")
    fields = dict(tok.split("=") for tok in head[2:])
    nx, ny, t = int(fields["nx"]), int(fields["ny"]), int(fields["t"])
    sections: dict[str, str] = {}
    for label, value in zip(lines[1::2], lines[2::2]):
        sections[label.rstrip(":")] = value

    def vec(label: str, width: int) -> np.ndarray:
        bits = sections[label]
        if len(bits) != width or set(bits) - {"0", "1"}:
            raise ValueError(f"bad section {label!r}")
        return np.array([int(c) for c in bits], dtype=np.int64)

    xs, ys = 1 << nx, 1 << ny
    p = np.array([vec(f"pbox {i}", xs) for i in range(t)]).reshape(t, xs)
    q = np.array([vec(f"qbox {i}", ys) for i in range(t)]).reshape(t, ys)
    table = (p.T @ q) & 1
    table ^= vec("localA", xs)[:, None] ^ vec("localB", ys)[None, :]
    return nx, ny, t, table


# --- distributed circuits ---

ZERO, ONE, VAR = "0", "1", "v"


@dataclass
class Circuit:
    """Same text format as ``nlbox compile --from circuit`` reads.

    ``inputs`` holds (a_bit, b_bit) pairs, None for an absent share;
    gate k's output is wire len(inputs) + k.
    """

    nx: int
    ny: int
    inputs: list[tuple[int | None, int | None]]
    gates: list[tuple]
    output: int

    def text(self) -> str:
        lines = [f"circuit {self.nx} {self.ny}"]
        for a, b in self.inputs:
            if b is None:
                lines.append(f"input a {a}")
            elif a is None:
                lines.append(f"input b {b}")
            else:
                lines.append(f"input ab {a} {b}")
        lines += [" ".join(map(str, g)) for g in self.gates]
        lines.append(f"output {self.output}")
        return "\n".join(lines) + "\n"

    def value(self, x: int, y: int) -> int:
        wires = [((x >> a) & 1 if a is not None else 0) ^ ((y >> b) & 1 if b is not None else 0)
                 for a, b in self.inputs]
        for g in self.gates:
            if g[0] == "not":
                wires.append(wires[g[1]] ^ 1)
            elif g[0] == "xor":
                wires.append(wires[g[1]] ^ wires[g[2]])
            elif g[0] == "and":
                wires.append(wires[g[1]] & wires[g[2]])
            else:
                wires.append(wires[g[1]] | wires[g[2]])
        return wires[self.output]

    def boxes(self) -> int:
        """Box count of the parity compilation: each AND/OR gate costs one
        box per cross term (Alice's share of one operand times Bob's share
        of the other) unless a factor is identically zero.

        Shares are tracked as zero, one or variable; a variable share is
        taken to stay variable under XOR, which holds when the operands
        come from disjoint subtrees (as in the tree circuits built here).
        """
        shares = [(VAR if a is not None else ZERO, VAR if b is not None else ZERO)
                  for a, b in self.inputs]
        count = 0
        for g in self.gates:
            if g[0] == "not":
                a, b = shares[g[1]]
                shares.append(({ZERO: ONE, ONE: ZERO}.get(a, VAR), b))
                continue
            (a1, b1), (a2, b2) = shares[g[1]], shares[g[2]]
            if g[0] == "xor":
                shares.append((_xor(a1, a2), _xor(b1, b2)))
                continue
            cross = int(a1 != ZERO and b2 != ZERO) + int(a2 != ZERO and b1 != ZERO)
            count += cross
            if cross:
                shares.append((VAR, VAR))
            else:
                op = _and if g[0] == "and" else _or
                shares.append((op(a1, a2), op(b1, b2)))
        return count


def _xor(s: str, u: str) -> str:
    if s == ZERO:
        return u
    if u == ZERO:
        return s
    if s == ONE and u == ONE:
        return ZERO
    return VAR


def _and(s: str, u: str) -> str:
    if ZERO in (s, u):
        return ZERO
    return u if s == ONE else s if u == ONE else VAR


def _or(s: str, u: str) -> str:
    if ONE in (s, u):
        return ONE
    return u if s == ZERO else s if u == ZERO else VAR


def disj_circuit(n: int) -> Circuit:
    """Disjointness: leaf products x_i AND y_i under a balanced OR tree."""
    inputs = [(i, None) for i in range(n)] + [(None, i) for i in range(n)]
    gates: list[tuple] = [("and", i, n + i) for i in range(n)]
    layer = list(range(2 * n, 3 * n))
    while len(layer) > 1:
        nxt = []
        for j in range(0, len(layer) - 1, 2):
            gates.append(("or", layer[j], layer[j + 1]))
            nxt.append(2 * n + len(gates) - 1)
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return Circuit(n, n, inputs, gates, layer[0])


def tree_circuit(rng: random.Random, nx: int, ny: int, leaves: int,
                 andor: int) -> Circuit:
    """Random tree circuit with ``leaves + 2 * andor`` boxes.

    Each leaf ANDs or ORs one of Alice's bits with one of Bob's (either
    possibly negated); the leaves are joined pairwise in random order by
    ``andor`` AND/OR gates and ``leaves - 1 - andor`` XOR gates, with
    optional negations.
    """
    if not 0 <= andor <= leaves - 1:
        raise ValueError("need 0 <= andor <= leaves - 1")
    inputs = [(i, None) for i in range(nx)] + [(None, i) for i in range(ny)]
    gates: list[tuple] = []

    def add(*gate) -> int:
        gates.append(gate)
        return len(inputs) + len(gates) - 1

    def maybe_not(w: int) -> int:
        return add("not", w) if rng.random() < 0.3 else w

    live = []
    for _ in range(leaves):
        a = maybe_not(rng.randrange(nx))
        b = maybe_not(nx + rng.randrange(ny))
        live.append(add(rng.choice(("and", "or")), a, b))
    ops = ["and/or"] * andor + ["xor"] * (leaves - 1 - andor)
    rng.shuffle(ops)
    for op in ops:
        i, j = rng.sample(range(len(live)), 2)
        w1, w2 = live[i], live[j]
        live = [w for k, w in enumerate(live) if k not in (i, j)]
        kind = rng.choice(("and", "or")) if op == "and/or" else "xor"
        live.append(maybe_not(add(kind, w1, w2)))
    return Circuit(nx, ny, inputs, gates, live[0])
