"""Directed scale-free network generation by degree-preferential attachment.

Grows a simple directed graph one link at a time from a two-node seed. Each
step either adds a new borrower node, a new lender node, or a link between
existing nodes; attachment targets are drawn proportionally to current
in-degree (plus a smoothing offset ``delta_in``) and sources proportionally
to current out-degree (plus ``delta_out``). The graph is kept simple
throughout: a link-only step that draws an already-linked pair is discarded,
and a step that draws source == target resamples the target a bounded number
of times before being discarded, so neither parallel links nor self-links
are ever recorded.

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
from typing import Callable, Iterable, Optional, Sequence

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
        if self.delta_in < 0.0 or self.delta_out < 0.0:
            raise ValueError("delta_in and delta_out must be non-negative")
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

    ``links`` holds one ``(source, target)`` pair per directed link, sorted;
    a link i -> j is an obligation of i to j. ``raw_link_count`` is the
    number of links recorded during growth; it equals the finalized count
    because growth never records parallel or self-links.
    """

    n: int
    links: tuple[tuple[int, int], ...]
    in_degree: np.ndarray
    out_degree: np.ndarray
    raw_link_count: int

    @classmethod
    def from_links(
        cls,
        n: int,
        links: Iterable[tuple[int, int]],
        raw_link_count: Optional[int] = None,
    ) -> "DirectedGraph":
        """Build a finalized graph from a link collection.

        Deduplicates links, rejects self-links and out-of-range ids, and
        recounts degrees from the deduplicated set.
        """
        if n < 1:
            raise ValueError("graph needs at least one node")
        link_set = set()
        for s, t in links:
            s, t = int(s), int(t)
            if s == t:
                raise ValueError(f"self-link at node {s}")
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"link ({s}, {t}) outside node range [0, {n})")
            link_set.add((s, t))
        ordered = tuple(sorted(link_set))
        kin = np.zeros(n, dtype=np.int64)
        kout = np.zeros(n, dtype=np.int64)
        for s, t in ordered:
            kout[s] += 1
            kin[t] += 1
        kin.setflags(write=False)
        kout.setflags(write=False)
        raw = len(ordered) if raw_link_count is None else int(raw_link_count)
        return cls(
            n=n,
            links=ordered,
            in_degree=kin,
            out_degree=kout,
            raw_link_count=raw,
        )

    @property
    def link_count(self) -> int:
        return len(self.links)

    @property
    def mean_degree(self) -> float:
        """Mean total degree: (in + out) summed over nodes, over n."""
        return 2.0 * len(self.links) / self.n

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Link endpoints as (sources, targets) integer arrays."""
        if not self.links:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        arr = np.asarray(self.links, dtype=np.int64)
        return arr[:, 0], arr[:, 1]


def _pick_preferential(
    rng: np.random.Generator,
    degrees: np.ndarray,
    n: int,
    m: int,
    delta: float,
    probe: Optional[Callable[[str, float, int, int, float], None]],
    kind: str,
) -> int:
    """Draw one of the first ``n`` nodes with weight degree + delta.

    The weights over the n candidates sum to m + n * delta, where m is the
    current multigraph link count.
    """
    cum = np.cumsum(degrees[:n] + delta)
    total = cum[-1]
    if probe is not None:
        probe(kind, float(total), m, n, delta)
    if total <= 0.0:
        # delta == 0 with no links cannot happen after the seed graph.
        raise RuntimeError("degenerate selection: all weights zero")
    x = rng.random() * total
    return int(np.searchsorted(cum, x, side="right"))


def generate(
    params: GenParams,
    probe: Optional[Callable[[str, float, int, int, float], None]] = None,
) -> DirectedGraph:
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

    Args:
        params: validated generation parameters.
        probe: optional instrumentation hook, called at every preferential
            draw with (kind, weight_total, link_count, node_count, delta).

    Returns:
        The finalized simple digraph with exactly ``n_target`` nodes.
    """
    if params.n_target > 2 and params.alpha + params.gamma == 0.0:
        raise ValueError(
            "alpha + gamma = 0: no step can add a node, so the node count "
            f"can never reach n_target = {params.n_target}"
        )
    rng = np.random.default_rng(params.seed)
    cap = params.n_target
    kin = np.zeros(cap, dtype=np.float64)
    kout = np.zeros(cap, dtype=np.float64)
    links: set[tuple[int, int]] = {(0, 1), (1, 0)}
    kout[0] = kin[1] = 1.0
    kout[1] = kin[0] = 1.0
    n = 2
    m = 2

    while n < params.n_target:
        u = rng.random()
        if u < params.alpha:
            # New node n with a link n -> target.
            target = _pick_preferential(
                rng, kin, n, m, params.delta_in, probe, "in"
            )
            links.add((n, target))
            kout[n] += 1.0
            kin[target] += 1.0
            n += 1
            m += 1
        elif u < params.alpha + params.beta:
            # Link between existing nodes; resample the target on a
            # self-collision, discard the step on a repeat pair.
            source = _pick_preferential(
                rng, kout, n, m, params.delta_out, probe, "out"
            )
            target = _pick_preferential(
                rng, kin, n, m, params.delta_in, probe, "in"
            )
            retries = 0
            while target == source and retries < _SELF_LINK_RETRIES:
                target = _pick_preferential(
                    rng, kin, n, m, params.delta_in, probe, "in"
                )
                retries += 1
            if target == source or (source, target) in links:
                continue
            links.add((source, target))
            kout[source] += 1.0
            kin[target] += 1.0
            m += 1
        else:
            # New node n with a link source -> n.
            source = _pick_preferential(
                rng, kout, n, m, params.delta_out, probe, "out"
            )
            links.add((source, n))
            kout[source] += 1.0
            kin[n] += 1.0
            n += 1
            m += 1

    return DirectedGraph.from_links(params.n_target, links, raw_link_count=m)


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
    link_set = set(graph.links)
    missing = needed_links - len(link_set)
    misses = 0
    while missing > 0 and misses < 200:
        s = int(rng.integers(n))
        t = int(rng.integers(n))
        if s == t or (s, t) in link_set:
            misses += 1
            continue
        link_set.add((s, t))
        missing -= 1
        misses = 0
    if missing > 0:
        # Dense regime: enumerate absent pairs and sample without replacement.
        absent = [
            (s, t)
            for s in range(n)
            for t in range(n)
            if s != t and (s, t) not in link_set
        ]
        picks = rng.choice(len(absent), size=missing, replace=False)
        for idx in picks:
            link_set.add(absent[int(idx)])

    added = len(link_set) - graph.link_count
    return DirectedGraph.from_links(
        n, link_set, raw_link_count=graph.raw_link_count + added
    )


def write_edge_list(graph: DirectedGraph, path: str | Path, seed: int) -> None:
    """Write a graph as ``source,target`` lines under a ``# nodes= seed=`` header."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# nodes={graph.n} seed={seed}\n")
        for s, t in graph.links:
            fh.write(f"{s},{t}\n")


def read_edge_list(path: str | Path) -> DirectedGraph:
    """Read a graph written by :func:`write_edge_list`.

    Lines starting with ``#`` are headers; a ``nodes=<n>`` field, when
    present, fixes the node count (otherwise max id + 1 is used).

    Raises:
        ValueError: naming the file and line of the first line that is
            neither a header nor a ``source,target`` pair of integers.
    """
    n_header: Optional[int] = None
    links: list[tuple[int, int]] = []
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
                links.append((int(s_str), int(t_str)))
            except ValueError:
                raise ValueError(
                    f"{path}:{line_no}: malformed edge-list line {line!r}"
                ) from None
    if n_header is None:
        n_header = 1 + max((max(s, t) for s, t in links), default=0)
    return DirectedGraph.from_links(n_header, links)
