"""Correlation matrices, their exact simulation, and the Regev-Toner
3-box simulation of two-outcome measurements on entangled states.

Correlation matrices are exact rationals end to end; the measurement
simulation uses double-precision reals internally but every asserted
equality there is on discrete outputs (signs and bits), never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import truthtable as tt
from .compilers import synth_rank
from .engine import ResourceLimitError, derive_seed
from .protocols import ParallelXorProtocol, ProtocolMixture

UNIT_TOL = 1e-9

# Cap on trials x dim for rt_trials, whose arrays grow with that product:
# 200,000 trials of dim 10 raise peak memory by about 130 MB.
_MAX_RT_ENTRIES = 2_000_000


@dataclass(frozen=True)
class CorrelationMatrix:
    """Table of Pr[a XOR b = 1 | x, y] for a uniform-marginal binary
    non-signaling distribution."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ValueError("empty correlation matrix")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise ValueError("ragged correlation matrix")
            if any(not 0 <= v <= 1 for v in row):
                raise ValueError("entries must lie in [0, 1]")

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0])


def correlation_of_table(m: tt.TruthTable) -> CorrelationMatrix:
    return CorrelationMatrix(tuple(tuple(map(Fraction, row)) for row in m.bits().tolist()))


def parse_correlation(text: str) -> CorrelationMatrix:
    lines = tt.content_lines(text)
    if not lines:
        raise ValueError("empty correlation file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "corr":
        raise ValueError("header must be 'corr |X| |Y|'")
    rows, cols = (tt.parse_decimal(tok, "corr size") for tok in head[1:])
    toks = " ".join(lines[1:]).split()
    if len(toks) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(toks)}")
    entries = [tt.parse_fraction(tok, "entry") for tok in toks]
    return CorrelationMatrix(tuple(tuple(entries[x * cols:(x + 1) * cols])
                                   for x in range(rows)))


def format_correlation(c: CorrelationMatrix) -> str:
    out = [f"corr {c.n_rows} {c.n_cols}"]
    for row in c.entries:
        out.append(" ".join(map(tt.format_fraction, row)))
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class BooleanMixture:
    """Convex combination of Boolean matrices averaging to a target."""

    components: tuple[tuple[Fraction, tt.TruthTable], ...]

    def reconstruct(self) -> CorrelationMatrix:
        acc = sum(w * m.bits().astype(object) for w, m in self.components)
        return CorrelationMatrix(tuple(map(tuple, acc.tolist())))


def layercake_decompose(c: CorrelationMatrix) -> BooleanMixture:
    """Write c as a convex combination of its threshold matrices.

    Sorting the distinct positive levels u_1 < ... < u_k, the matrix
    [c >= u_j] receives weight u_j - u_{j-1}; the all-zero matrix soaks
    up the remaining 1 - u_k so weights always sum to one.
    """
    nx, ny = (c.n_rows - 1).bit_length(), (c.n_cols - 1).bit_length()
    if c.n_rows != 1 << nx or c.n_cols != 1 << ny:
        raise ValueError("correlation dimensions must be powers of two")
    levels = sorted({v for row in c.entries for v in row if v > 0})
    comps = []
    prev = Fraction(0)
    for u in levels:
        m = tt.from_entries(nx, ny, [[v >= u for v in row] for row in c.entries])
        comps.append((u - prev, m))
        prev = u
    if prev < 1:
        comps.append((1 - prev, tt.TruthTable(nx, ny, (0,) * (1 << nx))))
    return BooleanMixture(tuple(comps))


def _pad_boxes(p: ParallelXorProtocol, t: int) -> ParallelXorProtocol:
    if p.t == t:
        return p
    dead_p = ((0,) * (1 << p.nx),) * (t - p.t)
    dead_q = ((0,) * (1 << p.ny),) * (t - p.t)
    return ParallelXorProtocol(p.nx, p.ny, t, (*p.pbox, *dead_p), (*p.qbox, *dead_q),
                               p.local_a, p.local_b)


def simulate_distribution(c: CorrelationMatrix) -> ProtocolMixture:
    """Protocol mixture whose output parity reproduces c entrywise.

    Each layer-cake component is rank-synthesized; a shared random flip
    of both outputs (applied as a half-weight twin with inverted local
    terms) makes each player's marginal exactly uniform.
    """
    mix = layercake_decompose(c)
    protos = [(w, synth_rank(m)) for w, m in mix.components]
    t = max(p.t for _w, p in protos)
    comps = []
    for w, p in protos:
        p = _pad_boxes(p, t)
        flipped = ParallelXorProtocol(
            p.nx, p.ny, p.t, p.pbox, p.qbox,
            p.local_a ^ 1, p.local_b ^ 1)
        comps.append((w / 2, p))
        comps.append((w / 2, flipped))
    return ProtocolMixture(tuple(comps))


# --- Regev-Toner measurement simulation ---


def _gram_schmidt(g: np.ndarray) -> np.ndarray:
    """Orthonormalize in place the rows of each matrix of g, an
    (n, k, dim) float64 array, by modified Gram-Schmidt; returns g."""
    for i in range(g.shape[1]):
        for j in range(i):
            g[:, i] -= np.einsum("td,td->t", g[:, i], g[:, j])[:, None] * g[:, j]
        g[:, i] /= np.linalg.norm(g[:, i], axis=1, keepdims=True)
    return g


@dataclass(frozen=True)
class RtContext:
    """Projection context for the 3-box measurement simulation.

    ``g`` projects onto a random 3-dimensional subspace.  Unit vectors
    are projected as they are: the exact quantum correlation needs a
    transformation of them defined elsewhere, so only discrete-output
    identities are asserted against this context.
    """

    dim: int
    g: np.ndarray
    seed: int

    def __post_init__(self):
        if self.g.shape != (3, self.dim):
            raise ValueError("projector must be 3 x dim")
        defect = np.abs(self.g @ self.g.T - np.eye(3)).max()
        if defect > UNIT_TOL:
            raise ValueError("projector rows must be orthonormal")


def make_context(dim: int, seed: int, g: np.ndarray | None = None) -> RtContext:
    if g is None:
        rng = np.random.default_rng(derive_seed(seed, 0))
        g = _gram_schmidt(rng.standard_normal((1, 3, dim)))[0]
    return RtContext(dim, g, seed)


def _project(v: np.ndarray, ctx: RtContext) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (ctx.dim,):
        raise ValueError(f"vector must have dimension {ctx.dim}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-6:
        raise ValueError("input must be a unit vector")
    return ctx.g @ v


BOX_LABELS = ((1, -1), (-1, 1), (-1, -1))


def _rt_kernel(x2: np.ndarray, y2: np.ndarray, box_bits: np.ndarray):
    """Both simulations on rows of projected vectors (n x 3 each) with
    Alice's three box outcomes per row (n x 3 bits); sgn(0) = +1.

    The communication simulation: Alice sends her sign pattern and Bob
    answers the sign of his vector against it.  The three-box one
    replaces the message: Alice raises the box matching her pattern
    (none for (+1,+1)), Bob inputs whether receiving that pattern would
    flip his answer relative to (+1,+1), and both XOR their outcomes
    into their outputs.  Returns (a_comm, b_comm, a_nlb, b_nlb) of +/-1.
    """
    alpha = np.where(x2 >= 0, 1, -1)
    c1, c2 = alpha[:, 0] * alpha[:, 1], alpha[:, 0] * alpha[:, 2]
    a_comm = alpha[:, 0]
    b_comm = np.where(y2[:, 0] + c1 * y2[:, 1] + c2 * y2[:, 2] >= 0, 1, -1)
    b_ref = np.where(y2.sum(axis=1) >= 0, 1, -1)
    labels = np.array(BOX_LABELS)
    p = ((c1[:, None] == labels[None, :, 0])
         & (c2[:, None] == labels[None, :, 1])).astype(np.int64)
    s = np.where(y2[:, None, 0] + labels[None, :, 0] * y2[:, None, 1]
                 + labels[None, :, 1] * y2[:, None, 2] >= 0, 1, -1)
    q = (1 - s * b_ref[:, None]) // 2
    b_bits = box_bits ^ (p & q)
    a_nlb = a_comm * (-1) ** (box_bits.sum(axis=1) & 1)
    b_nlb = b_ref * (-1) ** (b_bits.sum(axis=1) & 1)
    return a_comm, b_comm, a_nlb, b_nlb


def _rt_one(x, y, ctx: RtContext, box_bits: np.ndarray):
    """One row of ``_rt_kernel`` on unit vectors x, y of the context."""
    rows = _rt_kernel(_project(x, ctx)[None], _project(y, ctx)[None], box_bits)
    return tuple(int(v[0]) for v in rows)


def rt_comm(x, y, ctx: RtContext) -> tuple[int, int]:
    """Two-bit-communication simulation: Alice sends her sign pattern."""
    return _rt_one(x, y, ctx, np.zeros((1, 3), dtype=np.int64))[:2]


def rt_nlb(x, y, ctx: RtContext, box_seed: int) -> tuple[int, int]:
    """Three-box simulation replacing the two-bit message of rt_comm,
    with the box outcomes drawn from ``box_seed``."""
    rng = np.random.default_rng(derive_seed(box_seed, 1))
    return _rt_one(x, y, ctx, rng.integers(0, 2, size=(1, 3)))[2:]


def rt_trials(dim: int, n_trials: int, seed: int):
    """Vectorized coupled trials with fresh G, x, y per trial.

    Returns arrays (a_comm, b_comm, a_nlb, b_nlb) of +/-1 values; the
    products a*b of the two simulations agree trial by trial for any
    transform (here: identity), which is the transport identity the
    3-box construction guarantees.
    """
    if dim < 3:
        raise ValueError(f"dim must be at least 3, got {dim}")
    if n_trials < 1:
        raise ValueError(f"trials must be at least 1, got {n_trials}")
    if n_trials * dim > _MAX_RT_ENTRIES:
        raise ResourceLimitError(
            f"trials x dim = {n_trials * dim} exceeds the {_MAX_RT_ENTRIES} cap")
    rng = np.random.default_rng(derive_seed(seed, 2))
    xs = rng.standard_normal((n_trials, dim))
    ys = rng.standard_normal((n_trials, dim))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    g = _gram_schmidt(rng.standard_normal((n_trials, 3, dim)))
    x2 = np.einsum("tkd,td->tk", g, xs)
    y2 = np.einsum("tkd,td->tk", g, ys)
    return _rt_kernel(x2, y2, rng.integers(0, 2, size=(n_trials, 3)))
