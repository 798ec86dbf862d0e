"""Monte Carlo survival estimates from the vertex-visit chain.

Graph Brownian motion watched at its vertices is a Markov chain, and the
estimates sample that chain alone, on no spatial grid.  Why its killing
factors are exact shows on a grid, where the motion is a simple chain
and the chain at the vertices comes out the same at every step:
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
involved.  Started at node 1 of an edge with n_e substeps, the simple
walk reaches the far end before coming back with probability 1/n_e
(gambler's ruin).  From v, an excursion
therefore leaves by edge e with probability q_e/n_e and otherwise
returns to v, with probability s_v.  The edge it leaves by has
probability proportional to p_v(e)/l_e, independent of the geometric
number R of returns and of the step.

A start can be any point of the graph.  At offset a of an edge of
length l, 0 < a < l, the motion reaches the edge's second endpoint
before its first with probability a/l, by the same gambler's ruin; an
offset of 0 or l is a start at that endpoint.

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
on a step, so none is read: ``SimConfig.step`` is checked and
``build_grid`` ignores its step.  A walker multiplies in the sojourn
factor of its start vertex and of every vertex it arrives at, so the
running product of a capped walker counts the sojourn it is in.  Where
kappa*M_v overflows a float, the factor is s/(s + M_v) with
s = 1/kappa, the scaling of ``kac.survival_on_active``.

The censored walk.  The product changes only at the active vertices,
and a walk ends at an exit, so an estimate watches the walk only on a
set S of states: the active vertices, the exits and the start, where a
start inside an edge puts both ends of its edge in S.  The walk watched
on S, the censored chain, is again a Markov chain (Kemeny & Snell,
*Finite Markov Chains*, 1960, section 6).  Its out-rates come from
the vertex chain's, r_ij = sum over the edges from i to j of
p_i(e)/l_e, by state reduction: eliminating a vertex k adds

    r_ik r_kj / s_k,    s_k = sum over j != k of r_kj,

to r_ij for every i and j other than k.  No step subtracts, so every
rate keeps its relative accuracy (Grassmann, Taksar & Heyman, *Oper.
Res.* 33:1107, 1985: GTH).  An i -> i entry that this makes is an
excursion from i through eliminated vertices back to i, where the
product does not change: one more return to i, and it is dropped.  The
vertices go in min-degree order, fewest neighbours first, so dead-end
branches peel from their leaves and a tree makes no fill.  On a graph
with many cycles the fill grows toward a dense matrix: reduced in full,
a 5000-vertex tree with 2500 chords took 35 s on a shared 2-vCPU host,
where 256 uncensored walks took 1 s.  So a vertex goes only while it has at most
``_MAX_DEGREE`` rates in and out; once every vertex left has more, they
all stay states.  The bound pays even where the full reduction is
quick, since a wide row costs every move from it guide passes: from the
injection of perfbench's ``random_graph_doc(default_rng(3), 10_000,
1000)`` at kappa 1, 1024 walks kept 1068 states with 4.0 rates a row (at
most 28) and 4 passes and took 0.9-1.3 s with the bound of 16, and with
no bound 1004 states with 224.9 a row (at most 553) and 453 passes, 24.7
s, on the same host.  Censoring onto more states is exact too.  The returns
to a state v before the walk moves to another state are geometric, and
the same conditional mean gives the sojourn factor 1/(1 + kappa*M''_v)
with

    M''_v = 1 / sum over states j != v of r''_vj,

while the walk moves to state j with probability proportional to
r''_vj.  The estimate stays unbiased and its variance cannot rise, by
the same argument.  Where only dead-end branches go, r''_vj is r_vj on
every edge that stays and M''_v is the sum over those edges, the same
floats as summing them directly.  Every rate out of a vertex other than
an exit is positive (``flux_coefficients`` checks it) and every vertex
of a valid graph has a path to an exit, so no set of vertices holds the
walk, and every state but an exit keeps a way out.  The start stays a
state: censoring it away would be exact too, since its walk reaches S
before anything else happens, but it would start the walk on S, and
from a start like ``path_site``'s every product would then be the one
constant 1/(1 + kappa*M''_c), right only up to rounding and with a
standard error of 0, which no 4-sigma window can hold.  ``steps_mean``,
``steps_max`` and ``step_cap`` count the moves of the censored chain.
With every vertex a state the walk is the uncensored one, so the
estimates change only where a vertex is eliminated.

The edge draw.  Row i of ``cum`` is the cumulative distribution of
state i's next state, padded with 1.0 up to the largest row, and a
uniform u moves to the column that counts the row's entries at or below
u.  The weights are
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
and every comparison are exact: each u moves to the same state as the
full count gives, and the estimates are those of a scan of every column,
bit for bit.  The cost of a move grows with the entries that share a
bucket, not with the longest row.

Randomness: per-trajectory SplitMix64 streams.  Draw k of trajectory i
is mix64(key_i + (k+1)*GAMMA), with key_i derived from the master seed
and i.  Move t of a walk takes draw t and no other: a move from a state
draws the state it moves to, and the first move from a start inside an
edge, move 0, draws the end it reaches first, the second when u*l < a.
Results are bit-identical for a given (seed, N), however the
trajectories are blocked.

Blocks.  The walkers of a block of ``_BLOCK`` move together, one numpy
pass per move.  A walker carries its state as a code, state << shift,
the first bucket of its row of the guide table, and a move does only
this: it takes the next row of draws, walks the guide (and its
``passes``) to the leave column, looks up the next state's code there,
multiplies in that state's sojourn factor, and counts the walkers that
arrived at a stopping state, an exit or a zero factor.  A move into a
stopping state takes its factor and leads straight to a sink that leads
to itself with factor 1, so an arrived walker's product is final and it
stays, parked, in the arrays.  The tables a move reads hold one entry per
column, (states + 1) * width of them, made for each estimate; a table
per bucket would be 2**11 entries a row at a hub.  No walker counts its
own moves: an arrival at move t adds t to a running sum, and a capped
walker adds the cap, so ``steps_mean`` is that integer sum over n, the
float that the mean of the counts gives while the sum stays below
2**53, and ``steps_max`` is the last move with an arrival, or the cap.

Once the parked walkers are half the block (``_COMPACT``), the block
writes every product out, parked or not, gathers the live walkers by
one ``flatnonzero`` index and takes every array with it, the block of
draws among them; a live walker's product is written again later.  A
boolean mask gather costs numpy about 5 ns an element when the mask is
random, against ~1 ns for an integer take.  A parked walker costs only
its share of a move's few elementwise operations, and a compaction
costs the write, the index and five takes, so fewer compactions pay
for the parked walkers that they carry longer.  On a 2-vCPU Xeon,
mc-oracle's three estimates (``path_site``, ``chain_m3``, ``tree50``;
the sum of each one's best over 600 rounds in one process, alternating
with the earlier loop) took 5.35-5.78 ms when a move retired its
arrivals at once and compacted at a quarter, 4.50-4.76 ms with this
move and compaction at a quarter, and 4.22-4.47 ms with compaction at
half.  Over 200 rounds, compaction at a third read 4.65 ms, and
``_COMPACT`` = 1, which compacts only once every walker is parked,
13.2 ms.  Larger draw blocks gain nothing: ``_CHUNK`` = 1 << 14 read
within 3% of 1 << 12, either way.
"""

from __future__ import annotations

import heapq
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .graph import (
    EdgeWeights,
    HalfEdgeTable,
    MetricGraph,
    PointOnGraph,
    locate,
    require_valid,
)
from .harmonic import flux_coefficients
from .kac import KappaSpec

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_BLOCK = 1 << 17  # trajectories per block, which bounds memory
_CHUNK = 1 << 12  # edge draws made at once, shared by the walkers still out
_COMPACT = 2  # drop the parked walkers once they are half the block
_MAX_DEGREE = 16  # the most rates in and out of a vertex that is eliminated


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
    base = np.uint64(int(seed) & _MASK64)
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
    """Simulation parameters: step, trajectory count, seed.

    ``step`` must be finite and positive but is not read: the walk does
    not depend on a step (see the module docstring).  ``step_cap`` caps
    the moves of one trajectory's censored walk, from state to state.
    """

    step: float
    trajectories: int
    seed: int
    step_cap: int = 5_000_000

    def __post_init__(self):
        # a bool is an Integral; a float fails only inside the walk
        for name in ("trajectories", "seed", "step_cap"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise PreconditionError(f"{name} must be an integer, got {value!r}")
        if not (isinstance(self.step, numbers.Real) and math.isfinite(self.step)
                and self.step > 0):
            raise PreconditionError(f"step must be positive, got {self.step!r}")
        if self.trajectories < 2:
            # one product has no spread to estimate a standard error from
            raise PreconditionError("need at least two trajectories")
        if self.step_cap < 1:
            raise PreconditionError("step_cap must be >= 1")


@dataclass(frozen=True)
class SimEstimate:
    """Mean and standard error of the survival product, plus the moves of
    the censored walk per trajectory."""

    mean: float
    standard_error: float
    trajectories: int
    capped: int
    steps_mean: float
    steps_max: int

    @property
    def biased(self) -> bool:
        """True when some trajectories hit the move cap before absorbing."""
        return self.capped > 0


@dataclass(frozen=True, eq=False)
class GridChain:
    """Vertex-visit chain of the graph diffusion under the weights: from
    v it leaves by half-edge e at rate p_v(e)/l_e (flux_coefficients),
    and the exits absorb.  An estimate walks the censored chain of its
    start (``walk``)."""

    graph: MetricGraph
    weights: EdgeWeights

    def walk(self, x: PointOnGraph) -> _Walk:
        """The censored walk from x, a vertex or a point inside an edge:
        its states are the sites, the exits and x, or both ends of x's
        edge, and any vertex that the degree bound keeps (see the module
        docstring).  Its tables are built once per graph, weights and
        state set, by ``graph.memo``."""
        g, w = self.graph, self.weights
        keep = g.site_mask | g.exit_mask
        ends = (x.vertex,) if x.is_vertex else g.edges[x.edge].endpoints
        keep[[g.vertex_index[v] for v in ends]] = True
        return g.memo(w, ("walk", keep.tobytes()), lambda: _Walk.of(len(keep), *_censor(
            g.half_edge_table, flux_coefficients(g, w), g.exit_mask, keep)))


def _censor(
    t: HalfEdgeTable, rates: np.ndarray, absorbing: np.ndarray, keep: np.ndarray
) -> tuple[list[int], list[dict[int, float]]]:
    """GTH state reduction of the vertex chain onto the vertices ``keep``
    marks, which include the exits (see the module docstring).

    Returns the states, in vertex order, and each state's out-rates as
    {vertex: rate}: positive, none to itself, and none at an exit.  A
    row lists the half-edges that stay in half-edge order, merged per far
    vertex, then the fill in the order it was made.
    """
    nv = len(keep)
    out: list = [{} for _ in range(nv)]
    into: list = [set() for _ in range(nv)]  # the vertices with a rate to each
    for i, j, r in zip(t.source.tolist(), t.target.tolist(), rates.tolist()):
        if not absorbing[i]:
            out[i][j] = out[i].get(j, 0.0) + r
            into[j].add(i)
    fixed = keep.tolist()
    # min-degree order; an entry whose degree is stale is skipped, since
    # a fresh one was pushed when the degree changed
    heap = [(len(out[k]) + len(into[k]), k) for k in range(nv) if not fixed[k]]
    heapq.heapify(heap)
    while heap:
        d, k = heapq.heappop(heap)
        row, came = out[k], into[k]
        if row is None or d != len(row) + len(came):
            continue
        if d > _MAX_DEGREE:
            break  # every vertex left stays a state
        total = math.fsum(row.values())
        for i in came:
            ri = out[i]
            share = ri.pop(k) / total
            for j, r in row.items():
                if j != i:  # an i -> i entry is a return, and is dropped
                    ri[j] = ri.get(j, 0.0) + share * r
                    into[j].add(i)
        for j in row:
            into[j].discard(k)
        out[k] = into[k] = None
        for v in came | row.keys():
            if not fixed[v]:
                heapq.heappush(heap, (len(out[v]) + len(into[v]), v))
    states = [v for v in range(nv) if out[v] is not None]
    return states, [out[v] for v in states]


@dataclass(frozen=True, eq=False)
class _Walk:
    """The censored walk on a state set.  ``states`` holds the vertex of
    each state, in vertex order, and ``state`` the state of each vertex,
    -1 where it is eliminated.  ``cum`` is the cumulative law of the next
    state, one row per state, with the guide table over it; ``nbr`` holds
    the next states, flat, with a sink row after the states; and
    ``sojourn_mean`` holds M''_v, 0 at the exits."""

    states: np.ndarray
    state: np.ndarray
    cum: np.ndarray
    guide: _EdgeGuide
    nbr: np.ndarray
    sojourn_mean: np.ndarray

    @classmethod
    def of(cls, nv: int, states: list[int], rows: list[dict[int, float]]) -> _Walk:
        """The tables of the walk that moves from states[i] to vertex j
        at rate rows[i][j], on a graph of nv vertices."""
        ns = len(states)
        index = dict(zip(states, range(ns)))
        width = max(1, max(map(len, rows), default=0))
        # every row's entries in order, at their flat places in the padded rows
        partial, partial_at, to, to_at, mean = [], [], [], [], []
        for i, row in enumerate(rows):
            rates = list(row.values())
            total = run = 0.0
            for r in rates:  # one add at a time: sum() compensates from Python 3.12
                total += r
            for r in rates[:-1]:
                run += r / total
                partial.append(run)
            partial_at += range(i * width, i * width + len(rates) - 1)
            to += map(index.__getitem__, row)
            to_at += range(i * width, i * width + len(rates))
            mean.append(1.0 / total if rates else 0.0)
        # exact top from the last entry on, so that u < 1 stays in the row
        cum = np.ones(ns * width)
        cum[partial_at] = partial
        nbr = np.full((ns + 1) * width, ns)  # and the sink row
        nbr[to_at] = to
        state = np.full(nv, -1)
        state[states] = range(ns)
        cum = cum.reshape(ns, width)
        return cls(np.array(states, dtype=np.intp), state, cum, _EdgeGuide.of(cum), nbr,
                   np.array(mean))


def build_grid(g: MetricGraph, w: EdgeWeights, step: float) -> GridChain:
    """The vertex-visit chain of g under the weights w, which
    flux_coefficients checks; ``step`` is not read (see the module
    docstring)."""
    require_valid(g)
    flux_coefficients(g, w)
    return GridChain(g, w)


def _sojourn_factors(g: MetricGraph, walk: _Walk, ks: KappaSpec) -> np.ndarray:
    factor = np.ones(len(walk.states))
    for i, kappa in zip(walk.state[g.site_mask].tolist(), ks.values(g.active_vertices).tolist()):
        m = float(walk.sojourn_mean[i])
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
        shift = max(2, (4 * width - 1).bit_length())
        k = 1 << shift
        # row i's buckets are i*k to i*k + k - 1, the sink's nv*k on.  An
        # entry c counts from bucket ceil(c*k) of its row on, and the last
        # column, 1.0, from the next row's first, so a running count over
        # all the buckets is the flat leave index.  c*k is exact, k being a
        # power of two, and an entry strictly inside a bucket may take a pass
        scaled = cum * k
        low = scaled.astype(np.intp)
        inside = low != scaled
        low += np.arange(0, nv * k, k)[:, None]
        guide = np.bincount((low + inside).ravel(), minlength=(nv + 1) * k).cumsum()
        least = np.full((nv + 1) * width, 2**53)
        least[: nv * width] = np.ceil(cum * 2.0**53).ravel()
        return cls(shift, guide, least, int(np.bincount(low[inside]).max(initial=0)))

    def leave(self, code: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Flat index of the leave column of each walker for draws m; a
        walker's code is its row's first bucket, state << shift."""
        idx = self.guide[code + (m >> (53 - self.shift))]
        for _ in range(self.passes):
            idx += m >= self.least[idx]
        return idx


def _simulate_block(
    grid: GridChain,
    walk: _Walk,
    factor: np.ndarray,
    start: PointOnGraph,
    seed: int,
    lo: int,
    hi: int,
    cap: int,
    weights_out: np.ndarray,
) -> tuple[int, int, int]:
    """Walk trajectories lo to hi - 1 and write their products into
    ``weights_out``.  Returns the walkers that reached the cap, the sum of
    every walker's moves and the most moves of one."""
    keys = _stream_keys(seed, lo, hi)
    slot = np.arange(lo, hi)
    t = 0
    index = grid.graph.vertex_index
    if start.is_vertex:
        state = np.full(hi - lo, walk.state[index[start.vertex]])
    else:
        # offset a of an edge of length l: the second endpoint first w.p. a/l
        e = grid.graph.edges[start.edge]
        first, second = (walk.state[index[v]] for v in e.endpoints)
        state = np.where(_uniform(_draws(keys, [0])[0]) * e.length < start.offset, second, first)
        t = 1

    # a walker carries the code of its state; a move into an exit or a
    # zero factor takes that state's factor and lands in the sink, which
    # leads to itself
    edges = walk.guide
    sink = len(factor)
    stop = np.append(grid.graph.exit_mask[walk.states] | (factor == 0.0), False)
    fac = np.append(factor, 1.0)
    after = np.where(stop, sink, np.arange(sink + 1)) << edges.shift
    to, gain, arrive = after[walk.nbr], fac[walk.nbr], stop[walk.nbr]
    parked_code = sink << edges.shift

    # the sojourn at the vertex each walker is on is counted on arrival
    weight = fac[state]
    code = after[state]
    parked = int(np.count_nonzero(stop[state]))
    steps_sum, steps_max = t * parked, t if parked else 0
    draws = np.empty((0, hi - lo), dtype=np.intp)
    while True:
        if parked and _COMPACT * parked >= code.size:
            # a parked walker's product is final
            weights_out[slot] = weight
            kept = np.flatnonzero(code != parked_code)
            slot, code, weight, keys = (a.take(kept) for a in (slot, code, weight, keys))
            draws, parked = draws.take(kept, axis=1), 0
        if not code.size or t >= cap:
            break
        if not len(draws):
            # the draws k = t of the next moves, a row each, as
            # m = u * 2**53
            span = min(max(1, _CHUNK // code.size), cap - t)
            draws = (_draws(keys, range(t, t + span)) >> np.uint64(11)).view(np.intp)
        idx = edges.leave(code, draws[0])
        draws = draws[1:]
        t += 1
        code = to[idx]
        weight *= gain[idx]
        arrived = int(np.count_nonzero(arrive[idx]))
        if arrived:
            parked += arrived
            steps_sum += t * arrived
            steps_max = t
    weights_out[slot] = weight
    capped = code.size - parked
    if capped:
        steps_sum += t * capped
        steps_max = t
    return capped, steps_sum, steps_max


def estimate_survival(
    grid: GridChain, ks: KappaSpec, x: PointOnGraph | str, cfg: SimConfig
) -> SimEstimate:
    """Run cfg.trajectories walks from x and average the products of
    their sojourn factors.

    x may be any point of the graph; ``locate`` makes an edge end its
    vertex.  Deterministic for a given (seed, trajectories, graph,
    weights): trajectory i always consumes its own SplitMix64 stream,
    and the reduction is a single pairwise sum over the per-trajectory
    results in index order.  Trajectories hitting the
    move cap contribute their running product and are counted in
    ``capped``.
    """
    start = locate(grid.graph, x)
    walk = grid.walk(start)
    factor = _sojourn_factors(grid.graph, walk, ks)
    n = cfg.trajectories
    weights = np.empty(n)
    capped = steps_sum = steps_max = 0
    for lo in range(0, n, _BLOCK):
        c, s, most = _simulate_block(grid, walk, factor, start, cfg.seed, lo,
                                     min(lo + _BLOCK, n), cfg.step_cap, weights)
        capped, steps_sum, steps_max = capped + c, steps_sum + s, max(steps_max, most)
    return SimEstimate(
        mean=float(np.mean(weights)),
        # a product that is the same on every trajectory has no error,
        # though np.std of its copies may not be exactly 0
        standard_error=(float(np.std(weights, ddof=1) / math.sqrt(n))
                        if weights.min() < weights.max() else 0.0),
        trajectories=n,
        capped=capped,
        # the sum of integers below 2**53 is exact, so this is np.mean of
        # the per-walker counts, as a float
        steps_mean=steps_sum / n,
        steps_max=steps_max,
    )


def simulate(
    g: MetricGraph,
    w: EdgeWeights,
    ks: KappaSpec,
    x: PointOnGraph | str,
    cfg: SimConfig,
) -> SimEstimate:
    """Convenience wrapper: build the chain and estimate."""
    return estimate_survival(build_grid(g, w, cfg.step), ks, x, cfg)
