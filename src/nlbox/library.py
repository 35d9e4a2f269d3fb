"""Named protocols with exact parameterizations.

Inner product, deterministic and randomized Disjointness, the van Dam
baseline, and the CHSH game with its classical optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import truthtable as tt
from .compilers import (DistributedCircuit, InputWire, circuit_to_nlb,
                        synth_vandam)
from .protocols import (OrderedNlbProtocol, ParallelXorProtocol,
                        ProtocolMixture)


def ip_protocol(n: int) -> ParallelXorProtocol:
    """Inner product mod 2 with n boxes: box i's inputs are (x_i, y_i)."""
    if not 1 <= n <= 8:
        raise ValueError("n must be in 1..8")
    bits = _input_bits(n)
    zero = np.zeros(1 << n, np.uint8)
    return ParallelXorProtocol(n, n, n, bits, bits, zero, zero)


def _input_bits(n: int) -> np.ndarray:
    """Row i: bit i of each n-bit input."""
    return ((np.arange(1 << n) >> np.arange(n)[:, None]) & 1).astype(np.uint8)


def disj_circuit(n: int) -> DistributedCircuit:
    """Leaf products x_i AND y_i, then a balanced OR tree."""
    inputs = tuple(InputWire(i, None) for i in range(n)) \
        + tuple(InputWire(None, i) for i in range(n))
    gates = [("and", i, n + i) for i in range(n)]
    layer = list(range(2 * n, 2 * n + n))
    while len(layer) > 1:
        nxt = []
        for j in range(0, len(layer) - 1, 2):
            gates.append(("or", layer[j], layer[j + 1]))
            nxt.append(2 * n + len(gates) - 1)
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return DistributedCircuit(n, n, inputs, tuple(gates), layer[0])


def disj_det_protocol(n: int) -> OrderedNlbProtocol:
    """Deterministic Disjointness in parity; at most 3n boxes."""
    if not 1 <= n <= 4:
        raise ValueError("n must be in 1..4")
    return circuit_to_nlb(disj_circuit(n))


def disj_rand_parallel(n: int, p: Fraction) -> ProtocolMixture:
    """Randomized parallel Disjointness with n boxes per component.

    Shared randomness picks a mask r and runs inner product on the
    masked inputs; with probability p the output pair is instead a fixed
    parity-1 pair, trading one-sided for two-sided error.  At p = 1/3
    the error is exactly 1/3 on every input.
    """
    if not 1 <= n <= 4:
        raise ValueError("n must be in 1..4")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("flip weight must be in [0, 1]")
    size = 1 << n
    zero, ones = np.zeros(size, np.uint8), np.ones(size, np.uint8)
    bits = _input_bits(n)
    comps = []
    if p < 1:
        w = (1 - p) / size
        for r in range(size):
            # box i reads bit i of the input masked by r
            masked = bits & bits[:, r:r + 1]
            comps.append((w, ParallelXorProtocol(n, n, n, masked, masked,
                                                 zero, zero)))
    if p > 0:
        dead = np.zeros((n, size), np.uint8)
        comps.append((p / 2, ParallelXorProtocol(n, n, n, dead, dead,
                                                 ones, zero)))
        comps.append((p / 2, ParallelXorProtocol(n, n, n, dead, dead,
                                                 zero, ones)))
    return ProtocolMixture(tuple(comps))


def vandam_protocol(f: tt.TruthTable) -> ParallelXorProtocol:
    """Baseline synthesis: one box per nonzero row of the truth table."""
    return synth_vandam(f)


@dataclass(frozen=True)
class ChshStrategy:
    """Deterministic local strategy for the CHSH game."""

    a_map: tuple[int, int]
    b_map: tuple[int, int]

    def success(self) -> Fraction:
        wins = sum(1 for x in (0, 1) for y in (0, 1)
                   if (self.a_map[x] ^ self.b_map[y]) == (x & y))
        return Fraction(wins, 4)


def chsh_classical_optimum() -> Fraction:
    """Best average CHSH success over all 16 deterministic strategies."""
    return max(ChshStrategy((a0, a1), (b0, b1)).success()
               for a0 in (0, 1) for a1 in (0, 1)
               for b0 in (0, 1) for b1 in (0, 1))


def chsh_box_protocol() -> ParallelXorProtocol:
    """The one-box strategy: wins the CHSH game with probability 1."""
    return ip_protocol(1)
