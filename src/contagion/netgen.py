"""Directed scale-free network generation by degree-preferential attachment.

Grows a simple directed graph one link at a time from a two-node seed. Each
step either adds a new borrower node, a new lender node, or a link between
existing nodes; attachment targets are drawn proportionally to current
in-degree (plus a smoothing offset ``delta_in``) and sources proportionally
to current out-degree (plus ``delta_out``). The graph is kept simple
throughout: a link-only step that draws an already-linked pair is discarded,
and a step that draws source == target resamples the target a bounded number
of times before being discarded, so neither parallel links nor self-links
are ever recorded. A finished :class:`DirectedGraph` holds its links as one
sorted, read-only ``(m, 2)`` integer array, which its consumers read as is.

Each preferential draw costs O(log n): the in- and out-weights
``degree + delta`` live in two Fenwick trees, and a draw descends one of
them for the number of prefix sums <= ``u * (m + n * delta)``, the weight
sum of the ``n`` existing nodes and ``m`` links. Uniforms come from the
generator in blocks, in the order scalar ``rng.random()`` calls would give
them. With integer or dyadic offsets every weight and partial sum is an
exact float, so the draws, and the graphs, are those of a per-draw
``cumsum`` + ``searchsorted(side="right")`` at the same seed; with other
offsets the law is the same and a draw can differ only where rounding moves
a boundary. ``augment_random_links`` likewise draws its node ids in blocks
that equal scalar ``rng.integers(n)`` calls.

Also provides the closed-form limit exponents of the in/out degree
distributions, the one-parameter family of attachment parameters used to
trade credit concentration against debt concentration at fixed mean degree,
and a random-link augmentation step for building denser, less concentrated
variants of a given graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

__all__ = [
    "GenParams",
    "CurvePoint",
    "ExponentPair",
    "DirectedGraph",
    "generate",
    "params_from_delta_in",
    "limit_exponents",
    "constraint_curve",
    "augment_random_links",
    "write_edge_list",
    "read_edge_list",
]

# Bounded retries when a link-only step picks source == target.
_SELF_LINK_RETRIES = 16


@dataclass(frozen=True)
class GenParams:
    """Parameters of the directed preferential-attachment process.

    ``alpha`` is the probability of adding a new node with an out-link,
    ``gamma`` the probability of adding a new node with an in-link, and
    ``beta`` the probability of adding a link between existing nodes.
    ``delta_in``/``delta_out`` are smoothing offsets added to every node's
    degree during target/source selection. Growth stops once the node count
    reaches ``n_target``.
    """

    alpha: float
    beta: float
    gamma: float
    delta_in: float
    delta_out: float
    n_target: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-12:
            raise ValueError(
                "alpha + beta + gamma must equal 1 within 1e-12, got "
                f"{self.alpha + self.beta + self.gamma!r}"
            )
        offsets = (self.delta_in, self.delta_out)
        if not all(math.isfinite(d) and d >= 0.0 for d in offsets):
            raise ValueError("delta_in and delta_out must be finite and non-negative")
        if self.n_target < 2:
            raise ValueError(f"n_target must be >= 2, got {self.n_target}")


@dataclass(frozen=True)
class CurvePoint:
    """Attachment parameters without a size: a point on the constraint curve.

    Points satisfy ``alpha + gamma = 0.75`` (so ``beta = 0.25``) and
    ``delta_in + delta_out = 4``, leaving one degree of freedom.
    """

    alpha: float
    beta: float
    gamma: float
    delta_in: float
    delta_out: float

    def with_size(self, n_target: int, seed: int) -> GenParams:
        """Attach a target size and seed, yielding full generation params."""
        return GenParams(
            alpha=self.alpha,
            beta=self.beta,
            gamma=self.gamma,
            delta_in=self.delta_in,
            delta_out=self.delta_out,
            n_target=n_target,
            seed=seed,
        )


@dataclass(frozen=True)
class ExponentPair:
    """Limit exponents of the in- and out-degree power-law tails."""

    x_in: float
    x_out: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_in) and math.isfinite(self.x_out)):
            raise ValueError("exponents must be finite")
        if self.x_in <= 1.0 or self.x_out <= 1.0:
            raise ValueError("exponents must exceed 1")


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Finalized simple digraph: deduplicated links plus degree tallies.

    ``links`` is a read-only ``(m, 2)`` int64 array with one
    ``(source, target)`` row per directed link, sorted by source, then
    target, without duplicates; a link i -> j is an obligation of i to j.
    """

    n: int
    links: np.ndarray
    in_degree: np.ndarray
    out_degree: np.ndarray

    @classmethod
    def from_links(
        cls, n: int, links: Iterable[tuple[int, int]] | np.ndarray
    ) -> "DirectedGraph":
        """Build a finalized graph from a link collection.

        Deduplicates links, rejects self-links and out-of-range ids, and
        recounts degrees from the deduplicated set. ``links`` is any
        iterable of ``(source, target)`` pairs, or a ``(k, 2)`` integer
        array. The error names the first offending link in input order.
        The stored links are sorted by (source, target).
        """
        if n < 1:
            raise ValueError("graph needs at least one node")
        if not isinstance(links, np.ndarray):
            links = list(links)
        pairs = np.asarray(links, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("links must be (source, target) pairs")
        src, dst = pairs[:, 0], pairs[:, 1]
        self_link = src == dst
        bad = self_link | (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if bad.any():
            first = int(np.argmax(bad))
            s, t = int(src[first]), int(dst[first])
            if self_link[first]:
                raise ValueError(f"self-link at node {s}")
            raise ValueError(f"link ({s}, {t}) outside node range [0, {n})")
        # Codes s * n + t sort in (source, target) order.
        return cls._from_codes(n, np.unique(src * n + dst))

    @classmethod
    def _from_codes(cls, n: int, codes: np.ndarray) -> "DirectedGraph":
        """Finalize from sorted, unique, valid link codes ``s * n + t``."""
        links = np.column_stack(np.divmod(codes, n))
        kin = np.bincount(links[:, 1], minlength=n).astype(np.int64, copy=False)
        kout = np.bincount(links[:, 0], minlength=n).astype(np.int64, copy=False)
        for arr in (links, kin, kout):
            arr.setflags(write=False)
        return cls(n=n, links=links, in_degree=kin, out_degree=kout)

    @property
    def link_count(self) -> int:
        return len(self.links)

    @property
    def mean_degree(self) -> float:
        """Mean total degree: (in + out) summed over nodes, over n."""
        return 2.0 * len(self.links) / self.n


class _WeightTree:
    """Fenwick tree over node weights ``degree + delta`` for one side.

    Slot ``i`` (1-based) holds the weight sum of nodes
    ``[i - lowbit(i), i)``. Every node's ``delta`` is in place from the
    start; nodes beyond the current count are never read, because
    :meth:`pick` only visits slots ``<= n``, and each such slot covers
    existing nodes only. The tree keeps no total: with ``m`` links the
    first ``n`` weights sum to ``m + n * delta``. The slots are a plain list
    because scalar indexing of a Python list is faster than of a numpy array.
    """

    def __init__(self, size: int, delta: float) -> None:
        self.size = size
        # Descent steps, from the highest power of two <= size down to 1.
        self.steps = [1 << k for k in range(size.bit_length() - 1, -1, -1)]
        self.slots = [0.0] + [delta * (i & -i) for i in range(1, size + 1)]

    def add(self, node: int, weight: float) -> None:
        """Add ``weight`` to the weight of ``node``."""
        slots, size = self.slots, self.size
        i = node + 1
        while i <= size:
            slots[i] += weight
            i += i & -i

    def pick(self, x: float, n: int) -> int:
        """Number of the first ``n`` nodes' prefix sums that are ``<= x``.

        This is ``searchsorted(cumsum(weights[:n]), x, side="right")``;
        when every weight and partial sum is an exact float (integer or
        dyadic weights) it returns the same index. The result is clamped to
        ``n - 1`` for when rounding puts ``x`` at or above the tree's sum of
        the first ``n`` weights; that needs ``delta > 0``, so node ``n - 1``
        is never a zero-weight pick.
        """
        slots = self.slots
        acc = 0.0
        pos = 0
        for step in self.steps:
            nxt = pos + step
            if nxt <= n:
                s = acc + slots[nxt]
                if s <= x:
                    pos = nxt
                    acc = s
        return pos if pos < n else n - 1


def _uniforms(rng: np.random.Generator, block: int = 4096) -> Iterator[float]:
    """The stream of ``rng.random()`` values, drawn ``block`` at a time.

    ``rng.random(k).tolist()`` yields the same doubles as ``k`` scalar
    ``rng.random()`` calls, so consumers see the scalar stream.
    """
    while True:
        yield from rng.random(block).tolist()


def generate(params: GenParams) -> DirectedGraph:
    """Grow a simple directed graph by preferential attachment.

    Starts from the two-node seed graph 0 -> 1, 1 -> 0. Each step adds one
    link: with probability ``alpha`` a new node with an out-link to a target
    picked by in-degree preference; with probability ``beta`` a link between
    an existing source picked by out-degree preference and an existing
    target picked by in-degree preference; with probability ``gamma`` a new
    node with an in-link from a source picked by out-degree preference.
    Growth stops at the first step where the node count reaches
    ``n_target``. Deterministic in ``params.seed``.

    A link-only step that picks source == target resamples the target a
    bounded number of times and is discarded if the collision persists; one
    that picks an already-linked pair is discarded outright. Discarded steps
    record nothing, so degrees and selection weights always refer to the
    current simple graph.

    Each preferential draw costs O(log n): the in- and out-weights live in
    two Fenwick trees, a uniform is scaled by the weight sum
    ``m + n * delta`` of the ``n`` existing nodes and ``m`` links, and the
    draw descends one tree.

    Args:
        params: validated generation parameters.

    Returns:
        The finalized simple digraph with exactly ``n_target`` nodes.
    """
    if params.n_target > 2 and params.alpha + params.gamma == 0.0:
        raise ValueError(
            "alpha + gamma = 0: no step can add a node, so the node count "
            f"can never reach n_target = {params.n_target}"
        )
    draw = _uniforms(np.random.default_rng(params.seed)).__next__
    cap = params.n_target
    new_source, new_target = params.alpha, params.alpha + params.beta
    d_in, d_out = params.delta_in, params.delta_out
    w_in, w_out = _WeightTree(cap, d_in), _WeightTree(cap, d_out)
    # Link s -> t is stored as the code s * cap + t.
    links = {1, cap}
    for node in (0, 1):
        w_in.add(node, 1.0)
        w_out.add(node, 1.0)
    n = m = 2

    while n < cap:
        # Below alpha node n is the source, from alpha + beta on the target.
        u = draw()
        if u < new_source:
            source = n
        else:
            source = w_out.pick(draw() * (m + n * d_out), n)
        if u >= new_target:
            target = n
        else:
            target = w_in.pick(draw() * (m + n * d_in), n)
            retries = 0
            while target == source and retries < _SELF_LINK_RETRIES:
                target = w_in.pick(draw() * (m + n * d_in), n)
                retries += 1
        code = source * cap + target
        if target == source or code in links:
            continue
        links.add(code)
        w_out.add(source, 1.0)
        w_in.add(target, 1.0)
        m += 1
        if source == n or target == n:
            n += 1

    codes = np.fromiter(links, dtype=np.int64, count=len(links))
    return DirectedGraph._from_codes(cap, np.sort(codes))


def params_from_delta_in(delta_in: float) -> CurvePoint:
    """Attachment parameters on the one-degree-of-freedom constraint curve.

    For ``delta_in`` in (0, 4) returns the point with
    alpha = (12 - 3 delta_in) / 16, beta = 1/4, gamma = 3 delta_in / 16 and
    delta_out = 4 - delta_in, which keeps alpha + gamma = 0.75 and
    delta_in + delta_out = 4 while sweeping the in/out exponent pair.
    """
    if not 0.0 < delta_in < 4.0:
        raise ValueError(f"delta_in must lie in (0, 4), got {delta_in}")
    return CurvePoint(
        alpha=(12.0 - 3.0 * delta_in) / 16.0,
        beta=0.25,
        gamma=3.0 * delta_in / 16.0,
        delta_in=delta_in,
        delta_out=4.0 - delta_in,
    )


def limit_exponents(params: GenParams | CurvePoint) -> ExponentPair:
    """Closed-form limit exponents of the degree-distribution tails.

    x_in  = 1 + (1 + delta_in  * (alpha + gamma)) / (alpha + beta)
    x_out = 1 + (1 + delta_out * (alpha + gamma)) / (beta + gamma)

    Requires alpha + beta > 0 and beta + gamma > 0.
    """
    ab = params.alpha + params.beta
    bg = params.beta + params.gamma
    if ab <= 0.0 or bg <= 0.0:
        raise ValueError(
            "limit exponents undefined: need alpha + beta > 0 and "
            "beta + gamma > 0"
        )
    node_rate = params.alpha + params.gamma
    return ExponentPair(
        x_in=1.0 + (1.0 + params.delta_in * node_rate) / ab,
        x_out=1.0 + (1.0 + params.delta_out * node_rate) / bg,
    )


def constraint_curve(x_in: float) -> float:
    """Out-exponent implied by an in-exponent on the constraint curve.

    x_out = (x_in + 15) / (x_in - 1); valid for x_in > 1.
    """
    if x_in <= 1.0:
        raise ValueError("x_in must exceed 1")
    return (x_in + 15.0) / (x_in - 1.0)


def augment_random_links(
    graph: DirectedGraph, target_mean_degree: float, seed: int
) -> DirectedGraph:
    """Densify a graph with uniformly random links up to a mean degree.

    Adds directed links between uniformly random distinct node pairs,
    skipping self-links and existing links, until the mean total degree
    2 * links / n reaches ``target_mean_degree`` within one link's
    granularity. Returns the input unchanged if the target is already met.
    """
    n = graph.n
    current = graph.mean_degree
    if target_mean_degree < current - 1e-9:
        raise ValueError(
            f"target mean degree {target_mean_degree} below current {current}"
        )
    needed_links = math.ceil(target_mean_degree * n / 2.0 - 1e-9)
    max_links = n * (n - 1)
    if needed_links > max_links:
        raise ValueError(
            f"target mean degree {target_mean_degree} unreachable: complete "
            f"digraph on {n} nodes has mean degree {2.0 * (n - 1)}"
        )
    if needed_links <= graph.link_count:
        return graph

    rng = np.random.default_rng(seed)
    # Link s -> t is stored as the code s * n + t.
    link_set = set((graph.links[:, 0] * n + graph.links[:, 1]).tolist())
    missing = needed_links - len(link_set)
    misses = 0
    ids: list[int] = []
    used = 0
    while missing > 0 and misses < 200:
        if used == len(ids):
            # Block draws give the same ids as scalar rng.integers(n) calls;
            # the state before the block lets the dense fallback rewind.
            block_state = rng.bit_generator.state
            ids = rng.integers(n, size=4096).tolist()
            used = 0
        s, t = ids[used], ids[used + 1]
        used += 2
        code = s * n + t
        if s == t or code in link_set:
            misses += 1
            continue
        link_set.add(code)
        missing -= 1
        misses = 0
    codes = np.fromiter(link_set, dtype=np.int64, count=len(link_set))
    del link_set  # frees memory before the graph is rebuilt
    if missing > 0:
        # Dense regime: sample absent pairs without replacement, in
        # row-major order, from the generator state that scalar draws in
        # the loop above would have left.
        rng.bit_generator.state = block_state
        rng.integers(n, size=used)
        absent = np.ones(n * n, dtype=bool)
        absent[codes] = False
        absent[:: n + 1] = False
        candidates = np.flatnonzero(absent)
        picks = rng.choice(len(candidates), size=missing, replace=False)
        codes = np.concatenate((codes, candidates[picks]))
    return DirectedGraph._from_codes(n, np.sort(codes))


def write_edge_list(graph: DirectedGraph, path: str | Path, seed: int) -> None:
    """Write a graph as ``source,target`` lines under a ``# nodes= seed=`` header."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# nodes={graph.n} seed={seed}\n")
        fh.writelines(f"{s},{t}\n" for s, t in graph.links.tolist())


def read_edge_list(path: str | Path) -> DirectedGraph:
    """Read a graph written by :func:`write_edge_list`.

    Lines starting with ``#`` are headers; a ``nodes=<n>`` field, when
    present, fixes the node count (otherwise max id + 1 is used).

    Raises:
        ValueError: naming the file and line of the first line that is
            neither a header nor a ``source,target`` pair of integers.
    """
    n_header: Optional[int] = None
    ids: list[int] = []
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    for field in line[1:].split():
                        if field.startswith("nodes="):
                            n_header = int(field.split("=", 1)[1])
                    continue
                s_str, t_str = line.split(",")
                ids += (int(s_str), int(t_str))
            except ValueError:
                raise ValueError(
                    f"{path}:{line_no}: malformed edge-list line {line!r}"
                ) from None
    links = np.array(ids, dtype=np.int64).reshape(-1, 2)
    if n_header is None:
        n_header = 1 + (int(links.max()) if ids else 0)
    return DirectedGraph.from_links(n_header, links)
