"""Quivers, paths, and admissible monomial ideals.

Paths store their arrows in application order (first applied first), so
a composite written alpha_l ... alpha_1 in the usual right-to-left
notation is the tuple (alpha_1, ..., alpha_l) here.  A path is in a
monomial ideal exactly when some generator occurs as a contiguous run of
its arrow tuple.  Admissibility, that is finitely many nonzero paths, is
proved exactly, on cyclic quivers too: ``nonzero_paths`` either ends or
exhibits a nonzero path with a loop that pumps.

The enumeration order (length, then lexicographic on the arrow-name tuple,
then source vertex for trivial paths) fixes every downstream basis and is
part of the file-format contract.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

__all__ = [
    "Cyclic",
    "NotAdmissible",
    "UnknownArrow",
    "Arrow",
    "Path",
    "Quiver",
    "MonomialIdeal",
    "make_path",
    "MAX_PATHS",
    "nonzero_paths",
    "opposite_bound_quiver",
]


MAX_PATHS = 10_000  # nonzero paths that nonzero_paths lists before giving up


class Cyclic(ValueError):
    """An operation requiring an acyclic quiver met a directed cycle."""


class NotAdmissible(ValueError):
    """The ideal leaves infinitely many nonzero paths: kQ/I is infinite-dimensional."""


class UnknownArrow(KeyError):
    """An arrow name that the quiver does not define."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass(frozen=True, order=True)
class Path:
    """A composable chain of arrows, or a trivial path at a vertex.

    ``arrows`` holds names in application order.  Ordering is by
    (length, arrow tuple, source), the canonical basis order.
    """

    sort_index: tuple = field(init=False, repr=False)
    source: int = field(compare=False)
    target: int = field(compare=False)
    arrows: tuple[str, ...] = field(compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sort_index", (len(self.arrows), self.arrows, self.source))

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def __str__(self) -> str:
        if self.is_trivial:
            return f"e{self.source}"
        return "*".join(reversed(self.arrows))


class Quiver:
    """A finite quiver on vertices 1..n with named arrows.

    With ``acyclic=True`` the constructor rejects directed cycles and
    normalizes vertex labels so that every arrow goes from a larger label
    to a smaller one (relabeling deterministically when the given labels
    violate this); ``vertex_relabeling`` records the applied map.
    """

    def __init__(self, n: int, arrows: list[Arrow] | tuple[Arrow, ...], acyclic: bool = False):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arrows = tuple(arrows)
        names = [a.name for a in arrows]
        if len(set(names)) != len(names):
            raise ValueError("arrow names must be unique")
        for a in arrows:
            if not (1 <= a.source <= n and 1 <= a.target <= n):
                raise ValueError(f"arrow {a.name} endpoints outside 1..{n}")
        self.n = n
        self.vertex_relabeling: dict[int, int] = {v: v for v in range(1, n + 1)}
        if acyclic:
            order = _sink_first_order(n, arrows)
            if order is None:
                raise Cyclic("quiver has a directed cycle")
            if any(a.source <= a.target for a in arrows):
                relabel = {v: i + 1 for i, v in enumerate(order)}
                arrows = tuple(
                    Arrow(a.name, relabel[a.source], relabel[a.target]) for a in arrows
                )
                self.vertex_relabeling = relabel
        self.arrows = arrows
        self._by_name = {a.name: a for a in arrows}
        self._into: dict[int, tuple[Arrow, ...]] = {
            v: tuple(a for a in arrows if a.target == v) for v in range(1, n + 1)
        }
        self._out: dict[int, tuple[Arrow, ...]] = {
            v: tuple(a for a in arrows if a.source == v) for v in range(1, n + 1)
        }

    # -- lookup ---------------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def arrow(self, name: str) -> Arrow:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownArrow(name) from None

    def arrows_into(self, v: int) -> tuple[Arrow, ...]:
        return self._into[v]

    def arrows_out_of(self, v: int) -> tuple[Arrow, ...]:
        return self._out[v]

    def trivial_path(self, v: int) -> Path:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} outside 1..{self.n}")
        return Path(v, v, ())

    # -- structure --------------------------------------------------------

    def is_acyclic(self) -> bool:
        return _sink_first_order(self.n, self.arrows) is not None

    def source_vertices(self) -> list[int]:
        """Vertices with no incoming arrow (requires acyclicity)."""
        if not self.is_acyclic():
            raise Cyclic("source vertices are defined for acyclic quivers")
        return [v for v in self.vertices if not self._into[v]]

    def opposite(self) -> "Quiver":
        rev = [Arrow(a.name, a.target, a.source) for a in self.arrows]
        return Quiver(self.n, rev)

    def delete_vertex(self, v: int) -> tuple["Quiver", dict[int, int]]:
        """Quiver with vertex v removed; labels above v shift down by one."""
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} outside 1..{self.n}")
        relabel = {w: (w if w < v else w - 1) for w in self.vertices if w != v}
        kept = [
            Arrow(a.name, relabel[a.source], relabel[a.target])
            for a in self.arrows
            if a.source != v and a.target != v
        ]
        return Quiver(self.n - 1, kept), relabel

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.n == other.n and self.arrows == other.arrows

    def __repr__(self) -> str:
        arr = ", ".join(f"{a.name}:{a.source}->{a.target}" for a in self.arrows)
        return f"Quiver({self.n}; {arr})"


def _sink_first_order(n: int, arrows: tuple[Arrow, ...]) -> list[int] | None:
    """Kahn order listing each vertex after all targets of its out-arrows.

    Ties break toward the smallest original label.  None when cyclic.
    """
    out_deg = {v: 0 for v in range(1, n + 1)}
    into: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for a in arrows:
        out_deg[a.source] += 1
        into[a.target].append(a.source)
    ready = sorted(v for v, d in out_deg.items() if d == 0)
    order: list[int] = []
    heapq.heapify(ready)
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in into[v]:
            out_deg[w] -= 1
            if out_deg[w] == 0:
                heapq.heappush(ready, w)
    return order if len(order) == n else None


def make_path(quiver: Quiver, arrow_names: list[str] | tuple[str, ...], vertex: int | None = None) -> Path:
    """Build a path from arrow names in application order; validates composability.

    For an empty name list, ``vertex`` names the trivial path's vertex.
    """
    if not arrow_names:
        if vertex is None:
            raise ValueError("a trivial path needs its vertex")
        return quiver.trivial_path(vertex)
    arrows = [quiver.arrow(name) for name in arrow_names]
    for early, late in zip(arrows, arrows[1:]):
        if late.source != early.target:
            raise ValueError(
                f"arrows {early.name} then {late.name} do not compose "
                f"({late.name} starts at {late.source}, {early.name} ends at {early.target})"
            )
    return Path(arrows[0].source, arrows[-1].target, tuple(a.name for a in arrows))


class MonomialIdeal:
    """An ideal of the path algebra generated by paths of length >= 2.

    Membership is monomial: a path lies in the ideal iff some generator
    occurs as a contiguous subpath.
    """

    def __init__(self, quiver: Quiver, generators: list[Path] | tuple[Path, ...]):
        gens = tuple(sorted(set(generators)))
        for g in gens:
            if g.length < 2:
                raise ValueError(f"ideal generator {g} has length {g.length} < 2")
            make_path(quiver, g.arrows)  # re-validate against this quiver
        self.quiver = quiver
        self.generators = gens
        self._gen_arrows = tuple(g.arrows for g in gens)

    def contains(self, path: Path) -> bool:
        seq = path.arrows
        n = len(seq)
        for g in self._gen_arrows:
            k = len(g)
            if k > n:
                continue
            for start in range(n - k + 1):
                if seq[start : start + k] == g:
                    return True
        return False

    def kills_extension(self, seq: tuple[str, ...]) -> bool:
        """Whether a generator ends exactly at the last arrow of ``seq``."""
        n = len(seq)
        return any(len(g) <= n and seq[n - len(g) :] == g for g in self._gen_arrows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.quiver == other.quiver and self.generators == other.generators

    def __repr__(self) -> str:
        return f"MonomialIdeal({', '.join(str(g) for g in self.generators)})"


def nonzero_paths(quiver: Quiver, ideal: MonomialIdeal) -> list[Path]:
    """All paths outside the ideal, trivial ones included, in canonical order.

    Admissibility is decided exactly.  With g the longest generator length,
    whether a nonzero path extends by an arrow depends only on its last
    m = max(g-1, 1) arrows.  So when a nonzero path ends with a window of m
    arrows that it ran through before, the loop between the two can be
    pumped forever, and NotAdmissible names that path.  With w nonzero
    paths of length m, every nonzero path of length w+m repeats a window,
    so otherwise the search ends by itself, though perhaps only after
    exponentially many paths: past ``MAX_PATHS`` it stops with a ValueError
    (not NotAdmissible, since the algebra may be finite).
    """
    span = max((g.length - 1 for g in ideal.generators), default=1)  # m; generators have length >= 2
    frontier = [quiver.trivial_path(v) for v in quiver.vertices]
    found: list[Path] = list(frontier)
    while frontier:
        nxt: list[Path] = []
        for p in frontier:
            for a in quiver.arrows_out_of(p.target):
                seq = p.arrows + (a.name,)
                if ideal.kills_extension(seq):
                    continue
                q = Path(p.source, a.target, seq)
                last = len(seq) - span
                if last > 0 and seq[last:] in {seq[i : i + span] for i in range(last)}:
                    raise NotAdmissible(
                        f"the nonzero path {q} runs twice through a window of {span} "
                        f"arrow(s), so the loop between the two never dies"
                    )
                nxt.append(q)
                if len(found) + len(nxt) > MAX_PATHS:
                    raise ValueError(f"more than {MAX_PATHS} nonzero paths")
        found.extend(nxt)
        frontier = nxt
    return sorted(found)


def opposite_bound_quiver(quiver: Quiver, ideal: MonomialIdeal) -> tuple[Quiver, MonomialIdeal]:
    """Reverse all arrows and generators; labels and arrow names are kept,
    so applying it twice restores the original data."""
    opp = quiver.opposite()
    gens = [
        Path(g.target, g.source, tuple(reversed(g.arrows)))
        for g in ideal.generators
    ]
    return opp, MonomialIdeal(opp, gens)
