"""Deterministic Monte Carlo estimation of truncated limsup sets.

Determinism contract
--------------------
Sample i's point in [0,1)^n is a pure function of (seed, i).  Any partition
of the sample-index range across workers therefore aggregates to identical
results, and re-runs with the same seed reproduce bit-identically; worker
count affects throughput only.

Generator: ``splitmix64-v1``.  Draw k of a stream is
``mix64(seed + (k+1) * 0x9E3779B97F4A7C15)`` with the SplitMix64 finalizer;
coordinate j of sample i consumes draw k = i*dim + j, and doubles take the
top 53 bits of the 64-bit word.  Estimates record the generator id and seed.

Performance note: the first-hit scan tests the live samples against the
next m = max(1, chunk // live) values of q in one pass, so a pass covers
about a chunk's worth of (q, sample) pairs and the pass count falls as
samples retire.  Points and distances are held coordinate-major, so each
ufunc's inner loop runs along the samples and max mode aggregates with
column-wise ``np.maximum``.  A chunk allocates its work arrays once, 64-byte
aligned, and runs every pass on views of them with ``out=`` ufuncs;
retired samples are swapped out, not copied away (fresh arrays per pass
re-faulted their pages, which above ~10,000 samples cost more than the
arithmetic).  A pass takes only plain distances, |z - rint(z)| for z = q*x,
which filter coprime membership (``||qx||' >= ||qx||`` coordinatewise); its
candidate (q, sample) pairs wait in a window that ``_resolve`` decides in
one vector call (see ``_scan_chunk``).  Every pair goes through the same
float operations whatever its block or window.  Pair sums come from
per-sample depths (see ``depth_counts``), in O(samples) memory.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .arith import dist_nearest, dist_nearest_coprime, nearest_coprime_distance, range_array
from .errors import ResourceBudgetError
from .measure import MeasureEstimate
from .psi import ApproxFunction, family_from_spec

__all__ = [
    "ExperimentConfig",
    "GENERATOR_ID",
    "depth_counts",
    "estimate_pairwise_intersection",
    "estimate_union_measure",
    "linear_forms_count",
    "membership",
    "mix64",
    "sample_points",
    "solution_count",
    "solution_counts",
]

GENERATOR_ID = "splitmix64-v1"

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit word (scalar reference path)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def sample_points(seed: int, start: int, stop: int, dim: int) -> np.ndarray:
    """Points for sample indices [start, stop), shape (stop-start, dim)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if stop < start:
        raise ValueError("empty or negative index range")
    idx = np.arange(start, stop, dtype=np.uint64)
    seed_u = np.uint64(seed & _MASK64)
    out = np.empty((stop - start, dim), dtype=np.float64)
    for j in range(dim):
        counter = idx * np.uint64(dim) + np.uint64(j + 1)
        state = seed_u + counter * np.uint64(_GOLDEN)
        out[:, j] = (_mix64_array(state) >> np.uint64(11)) * 2.0**-53
    return out


# ---------------------------------------------------------------------------
# membership


def membership(
    x: Sequence[float],
    q: int,
    f: ApproxFunction,
    mode: str = "product",
    coprime: bool = False,
    strict: bool = True,
) -> bool:
    """Strict-inequality membership of x in the q-slice (non-strict optional).

    Scalar distances; the aggregate comes from the array form the vector
    path uses, since ``float ** n`` can differ from it in the last bit.
    """
    if mode not in ("product", "max"):
        raise ValueError(f"unknown mode {mode!r}")
    psi_q = f(q)
    if not math.isfinite(psi_q):
        raise ValueError(f"psi({q}) must be finite for membership tests")
    dist = dist_nearest_coprime if coprime else dist_nearest
    agg = float(_aggregate(np.array([[dist(q, xi)] for xi in x]), mode)[0])
    return agg < psi_q if strict else agg <= psi_q


def _plain_distances(z: np.ndarray, out=None) -> np.ndarray:
    """Distances of each entry of z to the nearest integer, into ``out`` if given.

    z - rint(z) is exact for every float, so this is the true distance; z is left as it was.
    """
    d = np.rint(z, out=out)
    np.subtract(z, d, out=d)
    return np.abs(d, out=d)


def _aggregate(d: np.ndarray, mode: str, out=None) -> np.ndarray:
    """Product, or max to the n-th power, over the n coordinates on d's first axis.

    Column by column: ``np.max`` over a short axis costs about 40x more per entry.
    """
    n = d.shape[0]
    if n == 1:
        return d[0]
    combine = np.multiply if mode == "product" else np.maximum
    agg = combine(d[0], d[1], out=out)
    for j in range(2, n):
        combine(agg, d[j], out=agg)
    if mode == "max":
        agg **= n
    return agg


def _coprime_distances(y: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    """``nearest_coprime_distance(y[i], modulus[i])`` for every i, all at once.

    Only for entries whose rounding shares a factor with their modulus: the
    scan starts at k = 1, near side first, as the scalar search does, and
    resolved entries drop out.
    """
    p0 = np.rint(y)
    delta = y - p0
    near = np.where(delta > 0, 1, -1)
    delta, p0 = np.abs(delta), p0.astype(np.int64)
    out, idx, k = np.empty_like(delta), np.arange(y.size), 0
    while idx.size:
        k += 1
        if k > modulus.max():
            raise RuntimeError("no coprime integer found within the proven bound")
        step = near * k
        hit_near = np.gcd(p0 + step, modulus) == 1
        hit = hit_near | (np.gcd(p0 - step, modulus) == 1)
        out[idx[hit]] = np.where(hit_near, k - delta, k + delta)[hit]
        miss = ~hit
        idx, p0, near, delta, modulus = idx[miss], p0[miss], near[miss], delta[miss], modulus[miss]
    return out


def _aligned(size: int, dtype=np.float64) -> np.ndarray:
    """Empty 1-D array of ``size`` entries that starts on a 64-byte boundary.

    On an AVX-512 host, passes over buffers starting mid-cache-line ran up to 30% slower.
    """
    nbytes = size * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(dtype)


class _Work:
    """Work buffers for ``_member_rows`` over up to ``size`` (q, point) pairs in n dimensions."""

    def __init__(self, size: int, n: int):
        self.z, self.d = _aligned(n * size), _aligned(n * size)
        self.agg, self.member = _aligned(size), _aligned(size, bool)


def _member_rows(
    xt: np.ndarray, qs: np.ndarray, psis: np.ndarray, mode: str, coprime: bool, strict: bool,
    work: _Work | None = None,
) -> np.ndarray:
    """Membership of every point in every q-slice of a block: a (len(qs), points) mask.

    xt holds the points coordinate-major, shape (n, points), and so do the
    (n, len(qs), points) distance arrays, so each ufunc's inner loop runs
    along the points and each coordinate's distances are one contiguous
    block.  Plain distances of z = q*x filter; the coprime variant sends the
    candidate (q, point) pairs to ``_resolve``.  Results live in ``work``'s
    buffers, fresh ones when it is not given.
    """
    n, points = xt.shape
    m = qs.size
    size = m * points
    work = work or _Work(size, n)
    shape = (n, m, points)
    qf = qs.astype(np.float64)[:, None]
    z = np.multiply(xt[:, None, :], qf, out=work.z[: n * size].reshape(shape))
    d = _plain_distances(z, work.d[: n * size].reshape(shape))
    compare = np.less if strict else np.less_equal
    member = compare(
        _aggregate(d, mode, work.agg[:size].reshape(m, points)), psis[:, None],
        out=work.member[:size].reshape(m, points),
    )
    if coprime and member.any():
        j, r = np.divmod(np.flatnonzero(member), points)
        member[j, r] = _resolve(xt[:, r], qs[j], psis[j], mode, compare)
    return member


def _resolve(xc: np.ndarray, qc: np.ndarray, psic: np.ndarray, mode: str, compare) -> np.ndarray:
    """Coprime membership of plain candidates: point xc[:, i] in the qc[i]-slice at level psic[i].

    z = q*x is recomputed with the pass's float operations; rounded numerators
    go through a vectorized gcd, and those sharing a factor with q take the
    outward coprime search.
    """
    z = qc.astype(np.float64) * xc
    d = _plain_distances(z)
    bad = np.gcd(np.rint(z).astype(np.int64), qc) != 1
    if bad.any():
        c, k = np.nonzero(bad)
        d[c, k] = _coprime_distances(z[c, k], qc[k])
    return compare(_aggregate(d, mode), psic)


# ---------------------------------------------------------------------------
# experiment configuration


def _geometric_grid(Q0: int, Q: int) -> tuple[int, ...]:
    """Q0, 2 Q0, 4 Q0, ... below Q, then Q."""
    grid = []
    g = Q0
    while g < Q:
        grid.append(int(g))
        g *= 2
    return (*grid, Q)


@dataclass(frozen=True)
class ExperimentConfig:
    """A self-describing union-measure experiment."""

    family: ApproxFunction
    n: int
    Q: int
    samples: int
    seed: int
    mode: str = "product"
    coprime: bool = False
    Q0: int = 1
    q_grid: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 1 <= self.Q0 <= self.Q:
            raise ValueError("need 1 <= Q0 <= Q")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.mode not in ("product", "max"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.q_grid is not None:
            grid = tuple(int(g) for g in self.q_grid)
            if list(grid) != sorted(grid):
                raise ValueError("q_grid must be sorted")
            if grid and (grid[0] < self.Q0 or grid[-1] > self.Q):
                raise ValueError("q_grid must lie within [Q0, Q]")
            object.__setattr__(self, "q_grid", grid)

    @property
    def checkpoints(self) -> tuple[int, ...]:
        if self.q_grid:
            return self.q_grid
        return _geometric_grid(self.Q0, self.Q)

    def to_dict(self) -> dict:
        return {
            "family": self.family.spec_dict(),
            "n": self.n,
            "mode": self.mode,
            "coprime": self.coprime,
            "Q0": self.Q0,
            "Q": self.Q,
            "samples": self.samples,
            "seed": self.seed,
            "q_grid": list(self.q_grid) if self.q_grid else None,
            "generator": GENERATOR_ID,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        grid = d.get("q_grid")
        return cls(
            family=family_from_spec(d["family"]),
            n=int(d["n"]),
            mode=d.get("mode", "product"),
            coprime=bool(d.get("coprime", False)),
            Q0=int(d.get("Q0", 1)),
            Q=int(d["Q"]),
            samples=int(d["samples"]),
            seed=int(d["seed"]),
            q_grid=tuple(grid) if grid else None,
        )

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# estimators


def _scan_chunk(
    seed: int, start: int, stop: int, n: int, qs: np.ndarray, psis: np.ndarray, mode: str, coprime: bool,
) -> np.ndarray:
    """First hitting q per sample in [start, stop); 0 when never a member.

    Each pass tests the ``live`` samples against the next m = max(1, chunk //
    live) values of q in plain distances, on one set of work buffers, and
    adds its candidate (q, column) pairs to the window.  The window closes at
    live // 16 pairs or when q runs out: one ``_resolve`` call decides its
    coprime pairs, each column's smallest member q is its first hit, and the
    hit samples retire.  Until then the columns stay put, and each hit sample
    still live holds a pair, so they are under 1/16 of a pass.  The live
    samples are the first ``live`` columns of x, and the live columns past
    the new end fill the slots of the hits, so retiring costs O(hits).
    """
    size = stop - start
    x = _aligned(n * size).reshape(n, size)
    x[...] = sample_points(seed, start, stop, n).T
    first_hit = np.zeros(size, dtype=np.int64)
    orig = np.arange(size)
    positive = psis > 0.0
    qs, psis = qs[positive], psis[positive]
    work = _Work(size, n)
    live, i, w0, count, pending = size, 0, 0, 0, []
    while live and i < qs.size:
        block = slice(i, i + max(1, size // live))
        i = block.stop
        member = _member_rows(x[:, :live], qs[block], psis[block], mode, False, True, work)
        pending.append(np.flatnonzero(member) + (block.start - w0) * live)
        count += pending[-1].size
        if count < live // 16 and i < qs.size:
            continue
        if count:
            j, c = np.divmod(np.concatenate(pending), live)
            j += w0
            if coprime:
                true = _resolve(x[:, c], qs[j], psis[j], mode, np.less)
                j, c = j[true], c[true]
            order = np.argsort(c, kind="stable")  # each column's pairs stay in q order
            c, j = c[order], j[order]
            first = np.ones(c.size, dtype=bool)
            first[1:] = c[1:] != c[:-1]
            cols = c[first]
            first_hit[orig[cols]] = qs[j[first]]
            hit = np.zeros(live, dtype=bool)
            hit[cols] = True
            live -= cols.size
            holes, movers = cols[cols < live], live + np.flatnonzero(~hit[live:])
            x[:, holes], orig[holes] = x[:, movers], orig[movers]
        w0, count, pending = i, 0, []
    return first_hit


def _map_chunks(run: Callable[[int, int], object], samples: int, workers: int) -> list:
    """run(start, stop) over up to ``workers`` contiguous chunks of [0, samples), in chunk order."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    bounds = [samples * w // workers for w in range(workers + 1)]
    chunks = [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if workers == 1:
        return [run(a, b) for a, b in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run, a, b) for a, b in chunks]
        return [f.result() for f in futures]


def estimate_union_measure(
    cfg: ExperimentConfig, workers: int = 1
) -> list[tuple[int, MeasureEstimate]]:
    """Union-measure estimates at each checkpoint of cfg.

    Each sample records the smallest q of the family's ``support_range(Q0, Q)``
    whose slice contains it; checkpoint estimates are hit fractions with 95%
    confidence intervals.  A checkpoint below every q with positive psi has
    an empty union by the strict inequality, reported as an exact zero.
    """
    qs = range_array(cfg.family.support_range(cfg.Q0, cfg.Q))
    psis = cfg.family.values(qs)
    if not np.all(np.isfinite(psis)):
        raise ValueError("family must evaluate finite on [Q0, Q]")
    first = int(qs[np.argmax(psis > 0.0)]) if np.any(psis > 0.0) else cfg.Q + 1  # the first q with psi > 0

    def run(start: int, stop: int) -> np.ndarray:
        return _scan_chunk(cfg.seed, start, stop, cfg.n, qs, psis, cfg.mode, cfg.coprime)

    first_hit = np.concatenate(_map_chunks(run, cfg.samples, workers))
    out = []
    for qc in cfg.checkpoints:
        hits = int(np.count_nonzero((first_hit > 0) & (first_hit <= qc)))
        est = MeasureEstimate.monte_carlo(hits, cfg.samples, cfg.seed, GENERATOR_ID)
        out.append((qc, MeasureEstimate.exact(0.0) if qc < first else est))
    return out


def depth_counts(
    qs: Sequence[int], f: ApproxFunction, n: int, mode: str, coprime: bool,
    samples: int, seed: int, workers: int,
) -> tuple[list[int], list[int]]:
    """Hits h_k and new ordered pairs 2 sum_{x in E_k} N_{k-1}(x) of each slice k of qs, N the depth before it.

    Their prefix sums are the trace and the off-diagonal sum of each leading block of the pair hit table,
    sum_x N_k and sum_x N_k (N_k - 1).  A chunk walks the slices in q order on one set of work buffers and
    one int64 depth per sample; Python-int sums over chunks are the same for any worker count."""
    psis = f.values(np.asarray(qs, dtype=np.int64)).tolist()
    if not all(math.isfinite(p) for p in psis):
        raise ValueError("psi must be finite at every q")

    def run(start: int, stop: int) -> tuple[list[int], list[int]]:
        xt = sample_points(seed, start, stop, n).T
        work = _Work(stop - start, n)  # one set of buffers serves every slice of the chunk
        depth = np.zeros(stop - start, dtype=np.int64)
        hits, new = [], []
        for q, psi_q in zip(qs, psis):
            idx = np.flatnonzero(_member_rows(xt, np.array([q]), np.array([psi_q]), mode, coprime, True, work)[0])
            hits.append(idx.size)
            new.append(2 * int(depth[idx].sum()))
            depth[idx] += 1
        return hits, new

    hits, new = [0] * len(psis), [0] * len(psis)
    for h, p in _map_chunks(run, samples, workers):
        hits, new = [a + b for a, b in zip(hits, h)], [a + b for a, b in zip(new, p)]
    return hits, new


def estimate_pairwise_intersection(
    q: int,
    r: int,
    f: ApproxFunction,
    n: int,
    mode: str = "product",
    coprime: bool = False,
    samples: int = 10_000,
    seed: int = 0,
    workers: int = 1,
) -> MeasureEstimate:
    """Monte Carlo measure of the intersection of the q- and r-slices: q's hits, or half of r's new pairs after q."""
    if min(q, r) < 1:
        raise ValueError(f"{'q' if q < 1 else 'r'} must be >= 1")
    hits, new = depth_counts([q] if r == q else [q, r], f, n, mode, coprime, samples, seed, workers)
    return MeasureEstimate.monte_carlo(hits[0] if r == q else new[1] // 2, samples, seed, GENERATOR_ID)


def solution_count(
    x: Sequence[float],
    f: ApproxFunction,
    Q: int,
    mode: str = "product",
    coprime: bool = False,
    strict: bool = True,
) -> int:
    """#{q <= Q : x is in the q-slice}; the finite truncation counter."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    return solution_counts(x, f, [Q], mode, coprime, strict)[0][1]


def solution_counts(
    x: Sequence[float],
    f: ApproxFunction,
    grid: Sequence[int],
    mode: str = "product",
    coprime: bool = False,
    strict: bool = True,
) -> list[tuple[int, int]]:
    """solution_count at each checkpoint of grid, from one membership pass."""
    grid = sorted(set(int(g) for g in grid))
    if not grid or grid[0] < 1:
        raise ValueError("grid checkpoints must be >= 1")
    Q = grid[-1]
    xv = np.asarray(x, dtype=np.float64)
    # psi = 0 admits a distance of exactly 0 to a non-strict inequality: only a strict count skips q off the support
    support = f.support_range(1, Q) if strict else range(1, Q + 1)
    qs = range_array(support)
    psis = f.values(qs)
    if not np.all(np.isfinite(psis)):
        raise ValueError("family must evaluate finite on [1, Q]")
    member = _member_rows(xv[:, None], qs, psis, mode, coprime, strict)
    cum = np.concatenate(([0], np.cumsum(member[:, 0])))
    return [(g, int(cum[bisect_right(support, g)])) for g in grid]


def linear_forms_count(
    X,
    Psi: ApproxFunction | Callable,
    Qbound: int,
    coprime: bool = False,
    budget: int = 200_000,
) -> int:
    """Solutions of the linear-forms inequality with integer vectors |q|_inf <= Qbound.

    X is an m x n matrix over [0,1]; q runs over nonzero integer row vectors;
    each q is counted once with the numerator vector p chosen per coordinate
    to minimize |(qX)_i + p_i|.  With ``coprime`` the p_i are constrained to
    gcd(p_i, g) = 1 where g is the gcd of the components of q.  When Psi is
    an ApproxFunction it is applied to the sup norm of q, read from one
    ``values`` table over 1..Qbound.
    """
    import itertools

    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be an m x n matrix")
    m, n = X.shape
    total = (2 * Qbound + 1) ** m - 1
    if total > budget:
        raise ResourceBudgetError(
            f"enumeration of {total} vectors exceeds budget={budget}; raise it explicitly"
        )
    if isinstance(Psi, ApproxFunction):
        table = Psi.values(np.arange(1, Qbound + 1, dtype=np.int64)).tolist()
        psi_of = lambda qv: table[int(np.max(np.abs(qv))) - 1]
    else:
        psi_of = lambda qv: float(Psi(tuple(int(c) for c in qv)))
    count = 0
    for q_tuple in itertools.product(range(-Qbound, Qbound + 1), repeat=m):
        if not any(q_tuple):
            continue
        qv = np.array(q_tuple, dtype=np.float64)
        y = qv @ X
        if coprime:
            g = 0
            for c in q_tuple:
                g = math.gcd(g, abs(c))
            prod = 1.0
            for yi in y:
                prod *= nearest_coprime_distance(float(yi), g)
        else:
            prod = 1.0
            for yi in y:
                prod *= abs(yi - round(yi))
        if prod < psi_of(qv):
            count += 1
    return count
