"""Monte Carlo survival estimates from the grid walk's vertex-visit chain.

The graph Brownian motion observed on a spatial grid is a simple chain:
interior grid points step to either neighbor with probability 1/2, and
a vertex v moves to the first grid point of edge e with probability
q_e = m_v p_v(e)/step_e, where

    m_v = 1 / sum over edges of p_v(e)/step_e

is the mean local time that one visit to v accrues.  That local time is
exponential and independent of the exit direction, so killing at rate
kappa per unit local time contributes an exact factor
f_v = 1/(1 + kappa*m_v) per visit.  The product of those factors over a
trajectory's visits to active vertices has the survival probability as
its mean; no Bernoulli killing and no step-size extrapolation are
involved.

Only vertex visits change the product, so the walk is sampled at its
vertices alone.  Started at node 1 of an edge with n_e substeps, the
simple walk reaches the far end before coming back with probability
1/n_e (gambler's ruin).  From v, an excursion therefore leaves by edge e
with probability q_e/n_e and otherwise returns to v, with probability
s_v.  The edge it leaves by has probability proportional to p_v(e)/l_e,
independent of the geometric number R of returns and of the step.  A
start at interior node j of an edge reaches the edge's second endpoint
first with probability j/n_e.

The sojourn factor.  A sojourn at v, the visit with its R returns,
multiplies the product by f_v**(R+1).  Given the vertices a trajectory
passes through, the sojourns are independent, so each factor is replaced
by its conditional mean

    E f_v**(R+1) = f_v (1 - s_v)/(1 - s_v f_v) = 1/(1 + kappa*M_v),
    M_v = m_v/(1 - s_v) = 1 / sum over edges of p_v(e)/l_e,

where M_v is the mean local time of a whole sojourn.  The estimate stays
unbiased and its variance cannot rise (Rao-Blackwell; Robert & Casella,
*Monte Carlo Statistical Methods*, 2004, section 4.7).  The returns are
not simulated, and neither the sojourn factors nor the edge law depend
on the step: from a vertex the estimate is the same at every step, bit
for bit.  A walker multiplies in the sojourn factor of its start vertex
and of every vertex it arrives at, so the running product of a capped
walker counts the sojourn it is in.  Where kappa*M_v overflows a float,
the factor is s/(s + M_v) with s = 1/kappa, the scaling of
``kac.survival_on_active``.

Dead-end branches.  Repeatedly strip a vertex of degree 1 that is not
active, not an exit and not the start.  What goes is a forest of inert
branches, each hanging off a kept vertex v by one edge.  A walker that
crosses into one always comes back to v (the branch is finite and
holds nothing that absorbs) and its product does not change there, so
the excursion is one more return to v.  The returns to v before it
leaves by a kept edge are geometric, and the same conditional mean
gives the sojourn factor 1/(1 + kappa*M'_v) with

    M'_v = 1 / sum over kept edges of p_v(e)/l_e,

while the walker leaves by kept edge e with probability proportional to
p_v(e)/l_e.  The estimate stays unbiased and its variance cannot rise,
by the same argument.  The start is kept, and for a start inside an
edge both of its endpoints, with the path that joins them to the rest.
Folding a start would be exact too, since its walk reaches v before
anything else happens, but it would start the walk at v: from a start
like ``path_site``'s, every product would then be the one constant
1/(1 + kappa*M'_c), right only up to rounding and with a standard error
of 0, which no 4-sigma window can hold.  A leaf is not stripped where v
would be left with no kept edge of positive weight, nor, through that
rule, a branch whose walk could not come back; there the walk is the
unfolded one.  ``steps_mean``, ``steps_max`` and ``step_cap`` count the
moves of the folded chain.  Keeping every vertex gives the unfolded
walk, so the estimates change only where a dead-end branch is folded.

The edge draw.  Row v of ``cum`` is the cumulative leave distribution,
padded with 1.0 up to the largest degree, and a uniform u leaves by the
column that counts the row's entries at or below u.  The weights are
nonnegative, so a row never decreases and those entries come first.  A
Chen-Asau guide table (indexed search, 1974) finds the column without
reading the row.  Each row is cut into K = 2**s >= 4*width buckets, and
the table holds, for every bucket b, the count of entries at or below
its lower edge b/K.
A draw starts from the count of its bucket floor(u*K) and steps past the
entries that lie inside that bucket; ``passes``, the largest number of
entries inside one bucket over all rows, is never more than width - 1.
K is a power of two and the comparisons are made on the 53-bit integer
m = u * 2**53 against ceil(c * 2**53), so the bucket, the scaled edges
and every comparison are exact: each u leaves by the same edge as the
full count gives, and the estimates are those of a scan of every column,
bit for bit.  The cost of a transition grows with the entries that share
a bucket, not with the largest degree.

Randomness: per-trajectory SplitMix64 streams.  Draw k of trajectory i
is mix64(key_i + (k+1)*GAMMA), with key_i derived from the master seed
and i.  Move t of a walk takes draw t and no other: a vertex transition
draws the edge it leaves by, and the first move from an interior start,
move 0, draws the end it reaches first.  Results are bit-identical for a
given (seed, N, step), however the trajectories are blocked.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PreconditionError
from .graph import EdgeWeights, MetricGraph, PointOnGraph, locate, require_valid
from .harmonic import flux_coefficients, vertex_mask
from .kac import KappaSpec

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_BLOCK = 1 << 17  # trajectories per block, which bounds memory
_CHUNK = 1 << 12  # edge draws made at once, shared by the walkers still out
_COMPACT = 4  # drop the absorbed walkers once they are a quarter
_NODE_TOL = 1e-9  # how far off a grid node a point may be, relative to its edge


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, computed in place: z must be a temporary."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _stream_keys(seed: int, lo: int, hi: int) -> np.ndarray:
    idx = np.arange(lo, hi, dtype=np.uint64)
    base = np.uint64(seed & _MASK64)
    return _mix64(base ^ _mix64((idx + np.uint64(1)) * _GAMMA))


def _draws(keys: np.ndarray, ks: Sequence[int]) -> np.ndarray:
    """Draws ks of every stream, one row per k: mix64(key + (k+1)*GAMMA)."""
    counters = (np.asarray(ks, dtype=np.uint64) + np.uint64(1)) * _GAMMA
    return _mix64(keys[None, :] + counters[:, None])


def _uniform(bits: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) from the top 53 bits of each word."""
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters: target grid step, trajectory count, seed.

    ``step_cap`` caps the vertex transitions of one trajectory.
    """

    step: float
    trajectories: int
    seed: int
    step_cap: int = 5_000_000

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise PreconditionError(f"step must be positive, got {self.step!r}")
        if self.trajectories < 1:
            raise PreconditionError("need at least one trajectory")
        if self.step_cap < 1:
            raise PreconditionError("step_cap must be >= 1")


@dataclass(frozen=True)
class SimEstimate:
    """Mean and standard error of the survival product, plus the vertex
    transitions per trajectory."""

    mean: float
    standard_error: float
    trajectories: int
    capped: int
    steps_mean: float
    steps_max: int

    @property
    def biased(self) -> bool:
        """True when some trajectories hit the transition cap before absorbing."""
        return self.capped > 0


@dataclass(frozen=True, eq=False)
class GridChain:
    """Vertex-visit chain of the graph diffusion on a spatial grid.

    Grid nodes are numbered vertices first (in graph vertex order), then
    the interior nodes of each edge, source to target; only the vertices
    carry tables, one row each with a column per half-edge.  ``cum`` is
    the cumulative leave distribution and ``nbr`` the far vertices.
    ``sojourn_mean[v]`` is M_v, the mean local time of a sojourn at v with
    its returns, and 0 at the absorbing vertices.  ``rates`` holds
    p_v(e)/l_e for every half-edge of ``graph.half_edge_table``.  These
    are the tables of the unfolded walk; an estimate walks the folded one
    (``walk``).  The step decides only which points are grid nodes
    (``substeps``, ``deltas``); the tables do not depend on it.
    """

    graph: MetricGraph
    step: float
    substeps: tuple[int, ...]
    deltas: tuple[float, ...]
    cum: np.ndarray
    nbr: np.ndarray
    absorbing: np.ndarray
    sojourn_mean: np.ndarray
    rates: np.ndarray
    edge_base: tuple[int, ...]
    size: int

    @cached_property
    def _hangs_from(self) -> np.ndarray:
        """The vertex that each vertex of a dead-end branch hangs from,
        and -1 at the others: the branches that fold when no start is
        kept (see the module docstring).  Built at the first estimate."""
        g = self.graph
        t = g.half_edge_table
        nv = len(g.vertex_ids)
        first = np.searchsorted(t.source, np.arange(nv + 1)).tolist()
        pairs = np.argsort(t.edge, kind="stable").reshape(-1, 2)
        twin = np.empty_like(pairs.ravel())
        twin[pairs] = pairs[:, ::-1]
        positive = self.rates > 0
        # the kept edges of positive weight out of each vertex
        ways_out = np.bincount(t.source, positive, nv).astype(np.intp)
        degree = np.bincount(t.source, minlength=nv).tolist()
        fixed = (vertex_mask(g, g.active_vertices) | self.absorbing).tolist()
        target, twin, positive, ways_out = (
            a.tolist() for a in (t.target, twin, positive, ways_out))
        parent = [-1] * nv
        leaves = [x for x in range(nv) if degree[x] == 1 and not fixed[x]]
        while leaves:
            x = leaves.pop()
            h = next(h for h in range(first[x], first[x + 1]) if parent[target[h]] < 0)
            v, back = target[h], twin[h]
            if positive[back] and ways_out[v] == 1:
                continue  # v would be left with no way out but into its branches
            parent[x] = v
            degree[v] -= 1
            ways_out[v] -= positive[back]
            if degree[v] == 1 and not fixed[v]:
                leaves.append(v)
        return np.array(parent)

    @cached_property
    def _walks(self) -> dict[bytes, _Walk]:
        """The folded walks asked for so far, one per kept-vertex set."""
        return {}

    def walk(self, start: int) -> _Walk:
        """The walk from grid node ``start`` with the dead-end branches
        folded, but not the start or its edge's endpoints.  Its tables
        are built at the first estimate that keeps the same vertices."""
        parent = self._hangs_from
        kept = parent < 0
        nv = len(kept)
        if start < nv:
            ends = [start]
        else:
            edge = self.graph.edges[self._edge_at(start)]
            ends = [self.graph.vertex_index[v] for v in edge.endpoints]
        for v in ends:
            while not kept[v]:
                kept[v] = True
                v = parent[v]
        key = kept.tobytes()
        if key not in self._walks:
            if kept.all():
                cum, nbr, sojourn = self.cum, self.nbr, self.sojourn_mean
            else:
                t = self.graph.half_edge_table
                out = kept[t.source] & kept[t.target] & ~self.absorbing[t.source]
                cum, nbr, sojourn = _leave_tables(nv, t.source[out], t.target[out], self.rates[out])
            self._walks[key] = _Walk(kept, _EdgeGuide.of(cum),
                                     np.append(nbr.ravel(), np.full(nbr.shape[1], nv)), sojourn)
        return self._walks[key]

    def _edge_at(self, node: int) -> int:
        """The edge of an interior grid node."""
        return bisect.bisect_right(self.edge_base, node) - 1

    def node_index(self, x: PointOnGraph | str) -> int:
        """Grid node at a point; errors if the point is off-grid."""
        x = locate(self.graph, x)
        index = self.graph.vertex_index
        if x.is_vertex:
            return index[x.vertex]
        e = self.graph.edges[x.edge]
        d = self.deltas[x.edge]
        j = round(x.offset / d)
        if abs(x.offset - j * d) > _NODE_TOL * max(1.0, e.length):
            raise PreconditionError(
                f"offset {x.offset!r} is not a grid node (step {d})"
            )
        if j <= 0:
            return index[e.endpoints[0]]
        if j >= self.substeps[x.edge]:
            return index[e.endpoints[1]]
        return self.edge_base[x.edge] + (j - 1)


@dataclass(frozen=True, eq=False)
class _Walk:
    """The walk on a kept-vertex set: the guide table over its ``cum``,
    its far vertices with a sink row after the vertices, and its sojourn
    means M'_v."""

    kept: np.ndarray
    guide: _EdgeGuide
    nbr: np.ndarray
    sojourn_mean: np.ndarray


def _leave_tables(
    nv: int, row: np.ndarray, far: np.ndarray, leave: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``cum``, ``nbr`` and the sojourn means of the walk that leaves
    vertex row[h] by half-edge h toward far[h] at rate leave[h]; the
    half-edges come vertex by vertex."""
    degree = np.bincount(row, minlength=nv)
    total = np.bincount(row, leave, nv)
    if np.count_nonzero(total) < np.count_nonzero(degree):
        raise PreconditionError("every vertex but an exit needs a positive edge weight")
    width = int(degree.max())
    col = np.arange(len(row)) - (np.cumsum(degree) - degree)[row]
    p = np.zeros((nv, width))
    p[row, col] = leave / total[row]
    nbr = np.zeros((nv, width), dtype=np.intp)
    nbr[row, col] = far
    return (
        # exact top from the last half-edge on, so that u < 1 stays in the row
        np.where(np.arange(width) >= degree[:, None] - 1, 1.0, p.cumsum(axis=1)),
        nbr,
        np.divide(1.0, total, out=np.zeros(nv), where=degree > 0),
    )


def build_grid(g: MetricGraph, w: EdgeWeights, step: float) -> GridChain:
    """Subdivide every edge into equal steps close to the target step.

    Edge e gets n_e = max(1, round(l_e/step)) substeps of size l_e/n_e.
    Exit vertices absorb; every other vertex gets its leave tables and
    its sojourn mean.
    """
    require_valid(g)
    lengths = [e.length for e in g.edges]
    if not (0 < step <= min(lengths)):
        raise PreconditionError(
            f"step {step!r} must be in (0, min edge length {min(lengths)}]"
        )

    substeps = tuple(max(1, int(math.floor(length / step + 0.5))) for length in lengths)
    nv = len(g.vertex_ids)

    # the half-edges out of the non-exit vertices, vertex by vertex
    t = g.half_edge_table
    exits = vertex_mask(g, g.exit_vertices)
    out = ~exits[t.source]
    row, edge = t.source[out], t.edge[out]
    # p_v(e)/l_e: the rate p_v(e)/step_e into edge e times the chance 1/n_e
    # of crossing it
    rates = flux_coefficients(g, w)
    leave = rates[out]
    if not 0.0 <= leave.min(initial=0.0) <= leave.max(initial=0.0) < math.inf:
        # the edge draw needs rows of cum that never decrease
        raise PreconditionError("edge weights must be finite and nonnegative")
    cum, nbr, sojourn = _leave_tables(nv, row, t.target[out], leave)
    # M_v/m_v = 1/(1 - s_v), a mean of the n_e: from 2**53 on, s_v is 1 in
    # floats, and the grid walk that the factors stand for never leaves v
    rate = np.bincount(row, leave * np.array(substeps, dtype=float)[edge], nv)
    if np.any(rate * sojourn >= 2.0**53):
        raise PreconditionError(f"step {step!r} is too fine for a float grid")

    return GridChain(
        graph=g,
        step=step,
        substeps=substeps,
        deltas=tuple(length / n for length, n in zip(lengths, substeps)),
        cum=cum,
        nbr=nbr,
        absorbing=exits,
        sojourn_mean=sojourn,
        rates=rates,
        edge_base=tuple(itertools.accumulate((n - 1 for n in substeps[:-1]), initial=nv)),
        size=nv + sum(substeps) - len(substeps),
    )


def _sojourn_factors(g: MetricGraph, sojourn: np.ndarray, ks: KappaSpec) -> np.ndarray:
    factor = np.ones(len(g.vertex_ids))
    active = g.active_vertices
    for vid, kappa in zip(active, ks.values(active).tolist() if active else ()):
        i = g.vertex_index[vid]
        m = float(sojourn[i])
        # 1/(1 + kappa*m); past overflow s/(s + m) with s = 1/kappa, which
        # is 0 at an infinite kappa
        km = kappa * m
        factor[i] = 1.0 / (1.0 + km) if km < math.inf else (1.0 / kappa) / (1.0 / kappa + m)
    return factor


@dataclass(frozen=True)
class _EdgeGuide:
    """Chen-Asau guide table over the rows of ``cum`` and a sink row
    after them (see the module docstring).  A draw is m = u * 2**53;
    each row has 2**shift buckets, ``guide`` holds the flat leave index
    at the bottom of each, and ``least`` the smallest m that passes each
    entry of ``cum``."""

    shift: int
    guide: np.ndarray
    least: np.ndarray
    passes: int

    @classmethod
    def of(cls, cum: np.ndarray) -> _EdgeGuide:
        nv, width = cum.shape
        rows = nv + 1  # and the sink, which stays in its first column
        shift = max(2, (4 * width - 1).bit_length())
        k = 1 << shift
        inner = cum[:, :-1] * k  # exact: k is a power of two
        # an inner entry c counts from bucket ceil(c) on, and one strictly
        # inside bucket floor(c) may take a pass there
        row, col = np.nonzero(inner <= k - 1)
        guide = np.bincount(row * k + np.ceil(inner[row, col]).astype(np.intp), minlength=rows * k)
        table = guide.reshape(rows, k)  # filled in place: k grows with the width
        np.cumsum(table, axis=1, out=table)
        table += width * np.arange(rows)[:, None]
        row, col = np.nonzero((inner < k) & (inner != np.floor(inner)))
        _, per_bucket = np.unique(row * k + inner[row, col].astype(np.intp), return_counts=True)
        least = np.append(np.ceil(cum * 2.0**53).astype(np.intp), np.full(width, 2**53))
        return cls(shift, guide, least, int(per_bucket.max(initial=0)))

    def leave(self, state: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Flat index of the leave column of each walker for draws m."""
        idx = self.guide[(state << self.shift) + (m >> (53 - self.shift))]
        for _ in range(self.passes):
            idx += m >= self.least[idx]
        return idx


def _simulate_block(
    grid: GridChain,
    walk: _Walk,
    factor: np.ndarray,
    start: int,
    seed: int,
    lo: int,
    hi: int,
    cap: int,
    weights_out: np.ndarray,
    steps_out: np.ndarray,
) -> int:
    nv = len(factor)
    keys = _stream_keys(seed, lo, hi)
    local = np.arange(hi - lo)
    t = 0
    if start >= nv:
        # interior node j of edge k: the second endpoint first w.p. j/n_k
        k = grid._edge_at(start)
        j = start - grid.edge_base[k] + 1
        a, b = (grid.graph.vertex_index[v] for v in grid.graph.edges[k].endpoints)
        state = np.where(_uniform(_draws(keys, [0])[0]) * grid.substeps[k] < j, b, a)
        t = 1
    else:
        state = np.full(hi - lo, start)

    # the tables get one more vertex, the sink, where absorbed walkers
    # wait until the next compaction
    sink = nv
    fac = np.append(factor, 1.0)
    stop = np.append(grid.absorbing | (factor == 0.0), False)
    edges, nbr = walk.guide, walk.nbr

    def retire(state, weight, local) -> int:
        """Record and park the walkers that reached an absorbing vertex."""
        hit = stop[state]
        if not hit.any():
            return 0
        fin = hit.nonzero()[0]
        weights_out[lo + local[fin]] = weight[fin]
        steps_out[lo + local[fin]] = t
        state[fin] = sink
        return fin.size

    # the sojourn at the vertex each walker is on is counted on arrival
    weight = fac[state]
    parked = retire(state, weight, local)
    draws = np.empty((0, hi - lo))
    while True:
        if parked and (_COMPACT * parked >= state.size or t >= cap):
            kept = state != sink
            local, state, weight, keys = local[kept], state[kept], weight[kept], keys[kept]
            draws, parked = draws[:, kept], 0
        if not local.size or t >= cap:
            break
        if not len(draws):
            # the edge draws k = t of the next transitions, a row each, as
            # m = u * 2**53
            span = min(max(1, _CHUNK // local.size), cap - t)
            draws = (_draws(keys, range(t, t + span)) >> np.uint64(11)).view(np.intp)
        state = nbr[edges.leave(state, draws[0])]
        draws = draws[1:]
        t += 1
        weight *= fac[state]
        parked += retire(state, weight, local)
    weights_out[lo + local] = weight
    steps_out[lo + local] = t
    return local.size


def estimate_survival(
    grid: GridChain, ks: KappaSpec, x: PointOnGraph | str, cfg: SimConfig
) -> SimEstimate:
    """Run cfg.trajectories walks from x and average the products of
    their sojourn factors.

    Deterministic for a given (seed, trajectories, grid): trajectory i
    always consumes its own SplitMix64 stream, and the reduction is a
    single pairwise sum over the per-trajectory results in index order.
    Trajectories hitting the transition cap contribute their running
    product and are counted in ``capped``.
    """
    start = grid.node_index(x)
    walk = grid.walk(start)
    factor = _sojourn_factors(grid.graph, walk.sojourn_mean, ks)
    n = cfg.trajectories
    weights = np.empty(n)
    steps = np.zeros(n, dtype=np.int64)
    capped = sum(
        _simulate_block(grid, walk, factor, start, cfg.seed, lo, min(lo + _BLOCK, n),
                        cfg.step_cap, weights, steps)
        for lo in range(0, n, _BLOCK)
    )
    return SimEstimate(
        mean=float(np.mean(weights)),
        # a product that is the same on every trajectory has no error,
        # though np.std of its copies may not be exactly 0
        standard_error=(float(np.std(weights, ddof=1) / math.sqrt(n))
                        if weights.min() < weights.max() else 0.0),
        trajectories=n,
        capped=capped,
        steps_mean=float(np.mean(steps)),
        steps_max=int(np.max(steps)),
    )


def simulate(
    g: MetricGraph,
    w: EdgeWeights,
    ks: KappaSpec,
    x: PointOnGraph | str,
    cfg: SimConfig,
) -> SimEstimate:
    """Convenience wrapper: build the grid at cfg.step and estimate."""
    return estimate_survival(build_grid(g, w, cfg.step), ks, x, cfg)


def estimate_csv(kappa: float, est: SimEstimate, cfg: SimConfig) -> str:
    """One CSV row per estimate: kappa, mean, se, n, delta, seed."""
    lines = ["kappa,mean,se,n,delta,seed"]
    lines.append(
        f"{kappa:.12g},{est.mean:.12g},{est.standard_error:.12g},"
        f"{est.trajectories},{cfg.step:.12g},{cfg.seed}"
    )
    return "\n".join(lines) + "\n"
