"""Concrete structure definitions: subsets, orderings, matchings, trees.

Each class realizes one greedy recursion over the shared interface in
``core``: repeatedly take per-partition minima of the perturbed input and
shrink the problem.  Each writes its own ``split``, ``map`` and ``combine``;
the recursion starts from every key, with the root's auxiliary state from
``initial_aux`` (none unless a kind overrides it), and ends when ``map``
returns the empty key set.  A graph kind rejects an infeasible graph when
it is built.  All of them have the property that the recursion's inputs
stay independent exponentials given the winners so far, which is what
makes their trace probabilities exact.

Keys are dense integers internally; ``key_labels`` carries the
caller-facing names (item indices, matrix cells, edge tuples).  Structure
values are expressed in label space.

Each class also owns its config kind and its JSON form: the ``kind``
name, ``from_config``, ``encode_value`` (what the CLI writes) and
``decode_value`` (its inverse).  A value is valid when the recursion can
produce it, which ``core``'s one ``validate_value`` decides from the
utilities each kind's ``favour`` states.  ``KINDS`` maps each kind name to
its class.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from typing import Iterable, Optional

from .core import StructureDefinition
from .errors import (
    ConfigError,
    InfeasibleGraphError,
    InvalidArgumentError,
    InvalidParameterError,
    as_count,
    as_int,
    as_path,
    bounded_repr,
)

TreeNode = namedtuple("TreeNode", ["key", "left", "right"])


_label = partial(as_int, field="each label")  # reads a decoded value's labels


def _json_list(doc, what: str) -> list:
    """``doc`` if it is a JSON list; a string is never read as a sequence."""
    if not isinstance(doc, list):
        raise ConfigError(f"{what} must be a JSON list, got {bounded_repr(doc)}")
    return doc


def _edges_from_json(doc) -> frozenset:
    edges = (_json_list(edge, "each edge") for edge in _json_list(doc, "the list of edges"))
    return frozenset((_label(u), _label(v)) for u, v in edges)


class _SetValued(StructureDefinition):
    """A structure whose value is a set of labels, written as a sorted tuple,
    and favoured by utility 0 on its members and 1 on the rest."""

    def finish(self, value):
        return value if value is not None else frozenset()

    def encode_value(self, value):
        return tuple(sorted(value))

    def favour(self, value):
        return dict.fromkeys(value, 0)


class TopK(_SetValued):
    """The k smallest of d items, as an unordered subset.

    One partition per level (everything still in play); the winner leaves
    the pool, and after the k-th winner ``map`` drops the keys left, so the
    trace is the selection order while the value forgets it.
    """

    kind = "top_k"

    def __init__(self, d: int, k: int):
        if not 1 <= k <= d:
            raise InvalidParameterError(f"need 1 <= k <= d, got k={k}, d={d}")
        self.d = d
        self.k = k
        self.key_labels = tuple(range(d))

    @classmethod
    def from_config(cls, spec):
        return cls(as_count(spec["d"], "structure.d"), as_count(spec["k"], "structure.k"))

    def split(self, K, R):
        return [tuple(sorted(K))]

    def map(self, K, R, winners):
        rest = K - {winners[0]}
        return (rest if len(rest) > self.d - self.k else frozenset()), None

    def combine(self, child, K, R, winners):
        return (child or frozenset()) | {winners[0]}

    def decode_value(self, doc):
        return frozenset(map(_label, _json_list(doc, "the list of labels")))


class Argsort(StructureDefinition):
    """All d items ordered by increasing perturbed value.

    Identical control flow to TopK with k = d, but the winner order is
    kept, so the value and the trace carry the same information.
    """

    kind = "argsort"

    def __init__(self, d: int):
        if d < 1:
            raise InvalidParameterError(f"need d >= 1, got {d}")
        self.d = d
        self.key_labels = tuple(range(d))

    @classmethod
    def from_config(cls, spec):
        return cls(as_count(spec["d"], "structure.d"))

    def split(self, K, R):
        return [tuple(sorted(K))]

    def map(self, K, R, winners):
        return K - {winners[0]}, None

    def combine(self, child, K, R, winners):
        return (winners[0],) + (child or ())

    def decode_value(self, doc):
        return tuple(map(_label, _json_list(doc, "the list of labels")))

    def favour(self, value):
        return {label: position for position, label in enumerate(value)}


class Matching(_SetValued):
    """A perfect matching between the rows and columns of an n-by-n grid.

    The minimum surviving cell joins the matching and its whole row and
    column drop out; after n rounds every row and column is used once.
    """

    kind = "matching"

    def __init__(self, n: int):
        if n < 1:
            raise InvalidParameterError(f"need n >= 1, got {n}")
        self.n = n
        self.key_labels = tuple((r, c) for r in range(n) for c in range(n))

    @classmethod
    def from_config(cls, spec):
        return cls(as_count(spec["n"], "structure.n"))

    def split(self, K, R):
        return [tuple(sorted(K))]

    def map(self, K, R, winners):
        row, col = self.key_labels[winners[0]]
        keep = frozenset(
            k for k in K
            if self.key_labels[k][0] != row and self.key_labels[k][1] != col
        )
        return keep, None

    def combine(self, child, K, R, winners):
        return (child or frozenset()) | {self.key_labels[winners[0]]}

    def decode_value(self, doc):
        return _edges_from_json(doc)


class BinaryTree(StructureDefinition):
    """A binary tree over n tokens whose in-order traversal is 0..n-1.

    The auxiliary state is the list of surviving token spans.  Each span's
    minimum becomes a parent; the tokens to its left and right form the
    child spans of the next level.  Empty child spans are simply skipped;
    ``combine`` re-derives which side was empty from the winners, so the
    child values stay aligned without placeholders.
    """

    kind = "binary_tree"

    def __init__(self, n: int):
        if n < 1:
            raise InvalidParameterError(f"need n >= 1, got {n}")
        self.n = n
        self.key_labels = tuple(range(n))

    @classmethod
    def from_config(cls, spec):
        return cls(as_count(spec["n"], "structure.n"))

    def initial_aux(self):
        return ((0, self.n - 1),)

    def split(self, K, R):
        return [tuple(range(lo, hi + 1)) for lo, hi in R]

    def map(self, K, R, winners):
        spans = []
        for (lo, hi), w in zip(R, winners):
            if w > lo:
                spans.append((lo, w - 1))
            if w < hi:
                spans.append((w + 1, hi))
        return K - frozenset(winners), tuple(spans)

    def combine(self, child, K, R, winners):
        subtrees = iter(child or ())
        out = []
        for (lo, hi), w in zip(R, winners):
            left = next(subtrees) if w > lo else None
            right = next(subtrees) if w < hi else None
            out.append(TreeNode(w, left, right))
        return tuple(out)

    def finish(self, value):
        return value[0] if value else None

    def decode_value(self, doc):
        if doc is None:
            return None
        key, left, right = _json_list(doc, "each tree node")
        return TreeNode(_label(key), self.decode_value(left), self.decode_value(right))

    def favour(self, value):
        # Each node's depth: a subtree's root is the strict minimum of its span.
        depth, stack = {}, [(value, 0)]
        while stack:
            node, d = stack.pop()
            if node is not None:
                key, left, right = node
                depth[key] = d
                stack += [(left, d + 1), (right, d + 1)]
        return depth


def _reached(root, edges) -> set:
    """The vertices that the directed ``edges`` reach from ``root``."""
    out = {}
    for u, v in edges:
        out.setdefault(u, []).append(v)
    reached, frontier = {root}, [root]
    while frontier:
        for v in out.get(frontier.pop(), ()):
            if v not in reached:
                reached.add(v)
                frontier.append(v)
    return reached


def _add_edge(seen: set, u, v, known, directed: bool) -> None:
    """The one edge rule of every graph reader: add the edge ``(u, v)`` to
    ``seen`` if both endpoints are in ``known``, it is no undirected
    self-loop and it is not in ``seen`` yet.  An undirected edge is stored
    smaller endpoint first."""
    if u not in known or v not in known:
        raise InvalidParameterError(f"edge {bounded_repr((u, v))} has unknown endpoint")
    if u == v and not directed:
        raise InvalidParameterError(f"self-loop on vertex {bounded_repr(u)}")
    edge = (u, v) if directed or u <= v else (v, u)
    if edge in seen:
        raise InvalidParameterError(f"duplicate edge {bounded_repr(edge)}")
    seen.add(edge)


def _graph_of(cls, spec, directed: bool):
    """The graph file that ``structure.graph`` names, as (n_vertices, edges,
    root); ``cls`` needs it directed if ``directed``, else undirected."""
    is_directed, n_vertices, edges, root = parse_graph_file(
        as_path(spec["graph"], "structure.graph"))
    if is_directed != directed:
        raise ConfigError(f"{cls.kind} needs {'a directed' if directed else 'an undirected'} graph")
    return n_vertices, edges, root


def parse_graph_file(path: str):
    """Parse the line-oriented graph format.

    Header ``graph <directed|undirected> <num_vertices>``, one ``u v`` edge
    per line with 0-based ids, each checked by ``_add_edge``, at most one
    ``root r`` line for directed graphs.  Blank lines and ``#`` comments are
    ignored.  A file with fewer than ``num_vertices - 1`` edges, which no spanning
    tree or arborescence can use, is rejected before any work per vertex.
    Returns (directed, n_vertices, edges, root).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read graph file {path}: {exc}") from exc
    directed = None
    n_vertices = None
    root = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if directed is None:
            if len(fields) != 3 or fields[0] != "graph" or fields[1] not in (
                "directed",
                "undirected",
            ):
                raise ConfigError(
                    f"{path}:{lineno}: expected header 'graph <directed|undirected> <num_vertices>'"
                )
            directed = fields[1] == "directed"
            try:
                n_vertices = int(fields[2])
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: vertex count is not an integer")
            if n_vertices < 1:
                raise ConfigError(f"{path}:{lineno}: need at least one vertex")
            continue
        if fields[0] == "root":
            if not directed:
                raise ConfigError(f"{path}:{lineno}: root line in an undirected graph")
            if root is not None:
                raise ConfigError(f"{path}:{lineno}: second root line")
            if len(fields) != 2:
                raise ConfigError(f"{path}:{lineno}: expected 'root <r>'")
            try:
                root = int(fields[1])
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: root is not an integer")
            if not 0 <= root < n_vertices:
                raise ConfigError(f"{path}:{lineno}: root {bounded_repr(root)} out of range")
            continue
        if len(fields) != 2:
            raise ConfigError(f"{path}:{lineno}: expected 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: edge endpoints are not integers")
        try:
            _add_edge(seen, u, v, range(n_vertices), directed)
        except InvalidParameterError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        edges.append((u, v))
    if directed is None:
        raise ConfigError(f"{path}: empty graph file")
    if len(edges) < n_vertices - 1:
        raise ConfigError(f"{path}: {len(edges)} edges cannot connect "
                          f"{bounded_repr(n_vertices)} vertices")
    return directed, n_vertices, edges, root


class SpanningTree(_SetValued):
    """A spanning tree of a connected undirected graph, grown greedily
    edge by edge; a disconnected graph is rejected when it is built.

    The auxiliary state is the tuple of component labels: ``R[i]`` is the
    label of the vertex at position ``i`` of ``vertices`` (the position of
    the component's smallest vertex).  The minimum surviving edge merges
    two components under the smaller label; edges that become internal
    disappear.  On a connected graph the key set empties exactly when one
    component is left, which is where the walk ends.
    ``_u``/``_v`` hold each edge's endpoint positions.
    """

    kind = "spanning_tree"

    def __init__(self, vertices: Iterable, edges: Iterable):
        self.vertices = tuple(sorted(set(vertices)))
        if not self.vertices:
            raise InvalidParameterError("need at least one vertex")
        position = {x: i for i, x in enumerate(self.vertices)}
        labels = set()
        for u, v in edges:
            _add_edge(labels, u, v, position, False)
        reached = _reached(self.vertices[0], [*labels, *((v, u) for u, v in labels)])
        apart = [x for x in self.vertices if x not in reached]
        if apart:
            raise InfeasibleGraphError(f"graph is disconnected: vertices {bounded_repr(apart)} are "
                                       f"not connected to vertex {bounded_repr(self.vertices[0])}")
        self.key_labels = tuple(sorted(labels))
        self._u = [position[u] for u, _ in self.key_labels]
        self._v = [position[v] for _, v in self.key_labels]

    @classmethod
    def from_config(cls, spec):
        n_vertices, edges, _root = _graph_of(cls, spec, False)
        return cls(range(n_vertices), edges)

    def initial_aux(self):
        return tuple(range(len(self.vertices)))

    def split(self, K, R):
        return [tuple(sorted(K))]

    def map(self, K, R, winners):
        u, v = self._u, self._v
        a, b = R[u[winners[0]]], R[v[winners[0]]]
        merged, dropped = min(a, b), max(a, b)
        new = tuple([merged if x == dropped else x for x in R])
        keep = frozenset([k for k in K if new[u[k]] != new[v[k]]])
        return keep, new

    def combine(self, child, K, R, winners):
        return (child or frozenset()) | {self.key_labels[winners[0]]}

    def decode_value(self, doc):
        return frozenset((min(u, v), max(u, v)) for u, v in _edges_from_json(doc))


class Arborescence(_SetValued):
    """A directed spanning tree with all edges oriented away from a root.

    Every non-root super-node competes over its incoming edges at once.
    If the winners are cycle-free they are the answer; otherwise the first
    cycle (in canonical vertex order) is contracted into one super-node,
    its internal edges drop out, and the recursion resolves the smaller
    graph.  Winners that survive a contraction keep their utility at
    exactly 0, so they win again deterministically until the recursion
    unwinds.  As the constructor checks that the root reaches every vertex,
    some edge from outside enters each contracted loop and is still a key.

    Expansion reads only the child's heads.  The deepest level's winners
    are the tree.  Above it, the child is an arborescence of the contracted
    graph: one of its edges enters each super-node of this level, except
    that a single edge enters the whole contracted loop.  So a super-node
    keeps its own winner exactly when no child edge has its head in it.

    The auxiliary state is the tuple of competing super-nodes, each a
    frozenset of vertices, ordered by smallest vertex.  The root is in none
    of them: no edge enters it and no cycle passes through it.
    ``_tail``/``_head`` hold each edge's endpoint vertices.
    """

    kind = "arborescence"

    def __init__(self, vertices: Iterable, edges: Iterable, root):
        known = set(vertices)
        if root not in known:
            raise InvalidParameterError(f"root {bounded_repr(root)} is not a vertex")
        self.vertices, self.root = tuple(sorted(known)), root
        seen = set()
        for u, v in edges:
            _add_edge(seen, u, v, known, True)
        # An edge into the root or a self-loop can never join an arborescence.
        self.key_labels = tuple(sorted((u, v) for u, v in seen if v != root and u != v))
        self._tail = [u for u, _ in self.key_labels]
        self._head = [v for _, v in self.key_labels]
        reached = _reached(root, self.key_labels)
        unreachable = [v for v in self.vertices if v not in reached]
        if unreachable:
            raise InfeasibleGraphError(f"vertices {bounded_repr(unreachable)} are unreachable "
                                       f"from root {bounded_repr(root)}")

    @classmethod
    def from_config(cls, spec):
        n_vertices, edges, root = _graph_of(cls, spec, True)
        if "root" in spec:
            root = as_int(spec["root"], "structure.root")
        if root is None:
            raise ConfigError(f"{cls.kind} needs a root (file or config)")
        return cls(range(n_vertices), edges, root)

    def initial_aux(self):
        return tuple(frozenset((v,)) for v in self.vertices if v != self.root)

    def split(self, K, R):
        slot = {v: i for i, S in enumerate(R) for v in S}
        buckets = [[] for _ in R]
        head = self._head
        for k in sorted(K):
            buckets[slot[head[k]]].append(k)
        return [tuple(b) for b in buckets]

    def _find_cycle(self, R, winners) -> Optional[list]:
        """First winner-pointer cycle in canonical super-node order, as a
        list of indices into R.

        Each super-node points to the super-node holding its winning edge's
        tail; a winner from the root gives no pointer, so no cycle passes
        through the root.  The pointers are walked from each start in turn,
        each super-node marked with the start that reached it first: a walk
        that returns to its own mark has closed a cycle.
        """
        slot = {v: i for i, S in enumerate(R) for v in S}
        tail = self._tail
        pointer = {i: slot[tail[w]] for i, w in enumerate(winners) if tail[w] in slot}
        mark = {}
        for start in range(len(R)):
            node = start
            while node in pointer and node not in mark:
                mark[node] = start
                node = pointer[node]
            if mark.get(node) == start:
                cycle = [node]
                while pointer[cycle[-1]] != node:
                    cycle.append(pointer[cycle[-1]])
                return cycle
        return None

    def map(self, K, R, winners):
        cycle = self._find_cycle(R, winners)
        if cycle is None:
            return frozenset(), R
        loop_vertices = frozenset().union(*(R[i] for i in cycle))
        tail, head = self._tail, self._head
        keep = frozenset([
            k for k in K if not (tail[k] in loop_vertices and head[k] in loop_vertices)
        ])
        in_cycle = set(cycle)
        merged = [S for i, S in enumerate(R) if i not in in_cycle]
        merged.append(loop_vertices)
        merged.sort(key=min)
        return keep, tuple(merged)

    def combine(self, child, K, R, winners):
        labels = self.key_labels
        child = child or frozenset()
        heads = {v for _u, v in child}
        return child | {labels[w] for S, w in zip(R, winners) if heads.isdisjoint(S)}

    def decode_value(self, doc):
        return _edges_from_json(doc)


KINDS = {
    cls.kind: cls
    for cls in (TopK, Argsort, Matching, BinaryTree, SpanningTree, Arborescence)
}


def _tree_links(tree) -> frozenset:
    links = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.left is not None:
            links.add((node.key, node.left.key, "L"))
            stack.append(node.left)
        if node.right is not None:
            links.add((node.key, node.right.key, "R"))
            stack.append(node.right)
    return frozenset(links)


def hamming_distance(a, b) -> int:
    """Number of differing components between two structure values.

    Set-valued structures compare by symmetric difference, permutations
    position by position, binary trees by their (parent, child, side)
    link sets.  A tree compares only with a tree.
    """
    a_tree, b_tree = isinstance(a, TreeNode), isinstance(b, TreeNode)
    if a_tree and b_tree:
        return len(_tree_links(a) ^ _tree_links(b))
    if isinstance(a, (frozenset, set)) and isinstance(b, (frozenset, set)):
        return len(frozenset(a) ^ frozenset(b))
    if isinstance(a, tuple) and isinstance(b, tuple) and not (a_tree or b_tree):
        if len(a) != len(b):
            raise InvalidArgumentError("sequences of different length")
        return sum(x != y for x, y in zip(a, b))
    raise InvalidArgumentError(
        f"cannot compare values of types {type(a).__name__} and {type(b).__name__}"
    )
