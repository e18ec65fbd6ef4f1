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
``degree + delta`` live in two frontier Fenwick trees, and a draw descends
one of them for the number of prefix sums <= ``u * (m + n * delta)``, the
weight sum of the ``n`` existing nodes and ``m`` links. Only grown nodes
have slots; every slot past the frontier holds ``+inf``, so a descent
never passes it, and a new node's slot is opened from the slots it covers
(about one addition on average). The descent subtracts each slot it takes
from the scaled uniform and adds the new link's 1 to each slot it passes:
those are exactly the grown slots that cover the pick, so an accepted link
needs no second walk. Where rounding puts the scaled uniform at or past
the tree's sum of the ``n`` weights (offsets neither integer nor dyadic
only), the descent ends past the last node, having passed only ``+inf``
slots; the pick is clamped to node ``n - 1``, whose weight is at least
``delta > 0``, and its one grown slot, slot ``n``, gets the 1. A link-only
step takes that 1 back with a walk up the tree when its target draw hits
the source and is redrawn, and for both picks when the step is discarded;
node steps are never discarded. Uniforms come from the generator in
blocks, in the order scalar ``rng.random()`` calls would give them. With
integer or dyadic offsets every weight, slot sum, subtraction and
``+-1`` is exact, so the tree holds exactly what per-link updates would
give and the draws, and the graphs, are those of a per-draw ``cumsum`` +
``searchsorted(side="right")`` at the same seed; with other offsets the
law is the same and a draw can differ only where rounding moves a
boundary, or where a take-back ``(v + 1) - 1`` left a slot one ulp away
from ``v``.

Also provides the closed-form limit exponents of the in/out degree
distributions, the one-parameter family of attachment parameters used to
trade credit concentration against debt concentration at fixed mean degree,
and a random-link augmentation step for building denser, less concentrated
variants of a given graph.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace
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
# Most node pairs one augmentation block draws.
_AUGMENT_BLOCK = 1 << 20
# Most nodes whose link codes ``s * n + t``, at most ``n * n - 1``, fit in int64.
_MAX_NODES = math.isqrt(2**63)


def _require(obj, kind: type, *names: str) -> None:
    """Refuse each named field that is a bool or no Python or numpy ``kind``."""
    want = "an integer" if kind is numbers.Integral else "a number"
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{name} must be {want}, got {value!r}")


def _require_finite(v: np.ndarray, message: str) -> None:
    """Raise ``ValueError`` ending ``message`` with the first non-finite index."""
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"{message} {int(bad[0])}")


def _run_heads(xs: np.ndarray) -> np.ndarray:
    """Mask of the first of each run of equal values in the sorted ``xs``.

    Selects the distinct values as ``np.unique`` would, without its hash
    path, which imports ``numpy.ma``.
    """
    head = np.ones(xs.size, dtype=bool)
    np.not_equal(xs[1:], xs[:-1], out=head[1:])
    return head


@dataclass(frozen=True)
class GenParams:
    """Parameters of the directed preferential-attachment process.

    ``alpha`` is the probability of adding a new node with an out-link,
    ``gamma`` the probability of adding a new node with an in-link, and
    ``beta`` the probability of adding a link between existing nodes.
    ``delta_in``/``delta_out`` are smoothing offsets added to every node's
    degree during target/source selection. Growth stops once the node count
    reaches ``n_target``, which is at most 3,037,000,499 (the bound of
    :meth:`DirectedGraph.from_links`).
    """

    alpha: float
    beta: float
    gamma: float
    delta_in: float
    delta_out: float
    n_target: int
    seed: int

    def __post_init__(self) -> None:
        _require(self, numbers.Integral, "n_target", "seed")
        _require(self, numbers.Real, "alpha", "beta", "gamma", "delta_in", "delta_out")
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
        # Refused before generate allocates its n_target-sized tallies.
        if self.n_target > _MAX_NODES:
            raise ValueError(f"n_target must be at most {_MAX_NODES}, got {self.n_target}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


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
        return GenParams(**asdict(self), n_target=n_target, seed=seed)


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
        The stored links are sorted by (source, target). ``n`` is at most
        3,037,000,499, so that each link's code ``source * n + target``
        fits in 64 bits; a larger ``n`` is refused before any allocation.
        """
        if n < 1:
            raise ValueError("graph needs at least one node")
        if n > _MAX_NODES:
            raise ValueError(f"graph needs at most {_MAX_NODES} nodes, got {n}")
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
        codes = np.sort(src * n + dst)
        return cls._from_codes(n, codes[_run_heads(codes)])

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


def _uniforms(rng: np.random.Generator, block: int = 4096) -> Iterator[float]:
    """The stream of ``rng.random()`` values, drawn ``block`` at a time.

    ``rng.random(k).tolist()`` yields the same doubles as ``k`` scalar
    ``rng.random()`` calls, so consumers see the scalar stream.
    """
    # iter(f, None) calls f forever, since no block equals None.
    return itertools.chain.from_iterable(iter(lambda: rng.random(block).tolist(), None))


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

    Each preferential draw costs O(log n); the module docstring gives the
    Fenwick trees, the take-back and the rounding contract. The descent is
    written out in the loop, since a call per draw costs more than it.

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
    cap = int(params.n_target)
    new_source, new_target = params.alpha, params.alpha + params.beta
    d_in, d_out = params.delta_in, params.delta_out
    # Slot i of a tree holds the weight sum of nodes [i - lowbit(i), i) once
    # node i - 1 has grown, and +inf before: a descent never passes the
    # frontier, so it needs no bound test. A descent steps from the highest
    # power of two <= n down to 1, so it reaches every node and no slot past
    # the padding to a power of two >= cap. Slot 0 is never read.
    size = 1 << (cap - 1).bit_length()
    steps = [2, 1]
    t_in, t_out = [math.inf] * (size + 1), [math.inf] * (size + 1)
    t_in[1], t_out[1] = 1.0 + d_in, 1.0 + d_out
    t_in[2], t_out[2] = 1.0 + d_in + t_in[1], 1.0 + d_out + t_out[1]
    # Link s -> t is stored as the code s * cap + t.
    links = {1, cap}
    n = m = 2

    while n < cap:
        # Below alpha node n is the source, from alpha + beta on the target.
        # A descent takes slot pos + step while its sum fits in what is left
        # of x; it ends on the number of prefix sums <= x, clamped to n - 1.
        # A slot it passes covers [pos, pos + step), which holds the pick:
        # the slots passed are the pick's grown slots (and +inf ones), so
        # the descent adds the link's 1 to them as it goes. A pick clamped
        # to n - 1 passed only +inf slots; its one grown slot is slot n.
        u = draw()
        if u < new_source:
            source = n
        else:
            x = draw() * (m + n * d_out)
            pos = 0
            for step in steps:
                i = pos + step
                v = t_out[i]
                if v <= x:
                    pos = i
                    x -= v
                else:
                    t_out[i] = v + 1.0
            if pos < n:
                source = pos
            else:
                source = n - 1
                t_out[n] += 1.0
        if u >= new_target:
            target = n
        else:
            retries = 0
            while True:
                x = draw() * (m + n * d_in)
                pos = 0
                for step in steps:
                    i = pos + step
                    v = t_in[i]
                    if v <= x:
                        pos = i
                        x -= v
                    else:
                        t_in[i] = v + 1.0
                if pos < n:
                    target = pos
                else:
                    target = n - 1
                    t_in[n] += 1.0
                if target != source or retries == _SELF_LINK_RETRIES:
                    break
                _take_back(t_in, target, n)
                retries += 1
        code = source * cap + target
        if target == source or code in links:
            # Only a link-only step, whose endpoints both exist, gets here.
            _take_back(t_out, source, n)
            _take_back(t_in, target, n)
            continue
        links.add(code)
        m += 1
        if source == n or target == n:
            # Open node n's slots: its own weight plus the slots they cover.
            if source == n:
                v_in, v_out = d_in, 1.0 + d_out
            else:
                v_in, v_out = 1.0 + d_in, d_out
            n += 1
            low, j = n & -n, 1
            while j < low:
                v_in += t_in[n - j]
                v_out += t_out[n - j]
                j <<= 1
            t_in[n], t_out[n] = v_in, v_out
            if not n & (n - 1):
                steps = [n] + steps

    codes = np.fromiter(links, dtype=np.int64, count=len(links))
    return DirectedGraph._from_codes(cap, np.sort(codes))


def _take_back(tree: list[float], node: int, n: int) -> None:
    """Subtract the 1 a descent added for ``node`` from its ``n`` grown slots."""
    i = node + 1
    while i <= n:
        tree[i] -= 1.0
        i += i & -i


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

    The target density picks the sampler. A dense target, one of more than
    half the n * (n - 1) possible links, lists the absent pairs in
    row-major order and lets ``rng.choice`` draw the missing links from
    them without replacement. A sparse target draws node ids in blocks that
    equal scalar ``rng.integers(n)`` calls, tests a whole block's pairs at
    once and keeps, in draw order, the first pairs that are new links; as
    at most half the pairs are links, each draw is one with probability at
    least (n - 1) / (2n). Both give a uniformly random set of absent pairs.

    Raises:
        ValueError: if ``seed`` is no non-negative integer, or the target
            is no finite number, below the current mean degree, or above
            that of the complete digraph.
    """
    args = SimpleNamespace(target_mean_degree=target_mean_degree, seed=seed)
    _require(args, numbers.Real, "target_mean_degree")
    _require(args, numbers.Integral, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    n = graph.n
    current = graph.mean_degree
    if not math.isfinite(target_mean_degree):
        raise ValueError(f"target mean degree {target_mean_degree} is not finite")
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
    # Link s -> t is stored as the code s * n + t; graph links are sorted,
    # so their codes are too.
    codes = graph.links[:, 0] * n + graph.links[:, 1]
    missing = needed_links - codes.size
    if 2 * needed_links > max_links:
        absent = np.ones(n * n, dtype=bool)
        absent[codes] = False
        absent[:: n + 1] = False
        added = rng.choice(np.flatnonzero(absent), size=missing, replace=False)
        return DirectedGraph._from_codes(n, np.sort(np.concatenate((codes, added))))
    while missing > 0:
        # Block draws give the same ids as scalar rng.integers(n) calls, for
        # any block size. A drawn pair is a hit if it is no self-link and
        # its code is neither a link yet nor drawn before in this block
        # (only a first occurrence can count).
        pairs = min(missing + missing // 4 + 256, _AUGMENT_BLOCK)
        s, t = rng.integers(n, size=2 * pairs).reshape(pairs, 2).T
        hit = s != t
        drawn = s * n
        drawn += t
        del s, t  # each temporary is freed once read: a block can be large
        # Each distinct code is looked up once, at its first draw. A
        # sentinel past every code keeps each position in range.
        distinct, at = np.unique(drawn, return_index=True)
        known = np.append(codes, n * n)
        new = np.zeros(pairs, dtype=bool)
        new[at[known[known.searchsorted(distinct)] != distinct]] = True
        hit &= new
        hits = np.flatnonzero(hit)[:missing]
        missing -= hits.size
        codes = np.sort(np.concatenate((codes, drawn[hits])))
    return DirectedGraph._from_codes(n, codes)


def write_edge_list(graph: DirectedGraph, path: str | Path, seed: int) -> None:
    """Write a graph as ``source,target`` lines under a ``# nodes= seed=`` header."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# nodes={graph.n} seed={seed}\n")
        fh.writelines(f"{s},{t}\n" for s, t in graph.links.tolist())


def _text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(line number, stripped line)`` of each non-blank line of an ASCII file.

    Raises ``ValueError`` naming the file and line of the first non-ASCII byte.
    """
    # A strict decoder would fail on a whole chunk, not knowing the line.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                raise ValueError(f"{path}:{line_no}: not ASCII text")
            line = line.strip()
            if line:
                yield line_no, line


def _int64(text: str) -> int:
    """``int(text)``, refused with ``ValueError`` when it needs more than 64 bits."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} does not fit in 64 bits")
    return value


def read_edge_list(path: str | Path) -> DirectedGraph:
    """Read a graph written by :func:`write_edge_list`.

    Lines starting with ``#`` are headers; a ``nodes=<n>`` field, when
    present, fixes the node count (otherwise max id + 1 is used), which
    may not pass 3,037,000,499 (see :meth:`DirectedGraph.from_links`).

    Raises:
        ValueError: naming the file and line of the first line that is
            neither a header nor a ``source,target`` pair of 64-bit
            integers or holds a non-ASCII byte, or the file and its invalid
            node count or first invalid link.
        MemoryError: naming the file, when its node count cannot be
            allocated.
    """
    n_header: Optional[int] = None
    ids: list[int] = []
    for line_no, line in _text_lines(path):
        try:
            if line.startswith("#"):
                for field in line[1:].split():
                    if field.startswith("nodes="):
                        n_header = _int64(field.split("=", 1)[1])
                continue
            s_str, t_str = line.split(",")
            ids += (_int64(s_str), _int64(t_str))
        except ValueError:
            raise ValueError(
                f"{path}:{line_no}: malformed edge-list line {line!r}"
            ) from None
    links = np.array(ids, dtype=np.int64).reshape(-1, 2)
    if n_header is None:
        n_header = 1 + (int(links.max()) if ids else 0)
    try:
        return DirectedGraph.from_links(n_header, links)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except MemoryError as exc:  # a node count within the bound, too large for memory
        raise MemoryError(f"{path}: {exc}") from None
