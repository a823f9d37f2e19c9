"""Concrete structure definitions: subsets, orderings, matchings, trees.

Each class realizes one greedy recursion over the shared interface in
``core``: repeatedly take per-partition minima of the perturbed input and
shrink the problem.  All of them have the property that the recursion's
inputs stay independent exponentials given the winners so far, which is
what makes their trace probabilities exact.

Keys are dense integers internally; ``key_labels`` carries the
caller-facing names (item indices, matrix cells, edge tuples).  Structure
values are expressed in label space.

Each class also owns its config kind and its JSON form: the ``kind``
name, ``from_config``, ``encode_value`` (what the CLI writes),
``decode_value`` (its inverse) and ``validate_value``.  ``KINDS`` maps
each kind name to its class.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional

from .core import StructureDefinition
from .errors import (
    ConfigError,
    InfeasibleGraphError,
    InvalidArgumentError,
    InvalidParameterError,
    as_int,
    as_path,
    bounded_repr,
)

TreeNode = namedtuple("TreeNode", ["key", "left", "right"])


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _fail(reason: str) -> ValidationResult:
    return ValidationResult(False, reason)


_OK = ValidationResult(True)


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
    """A structure whose value is a set of labels, written as a sorted tuple."""

    def finish(self, value):
        return value if value is not None else frozenset()

    def encode_value(self, value):
        return tuple(sorted(value))


class TopK(_SetValued):
    """The k smallest of d items, as an unordered subset.

    One partition per level (everything still in play); the winner leaves
    the pool and the remaining count decrements, so the trace is the
    selection order while the value forgets it.
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
        return cls(as_int(spec["d"], "structure.d"), as_int(spec["k"], "structure.k"))

    def initial_state(self):
        return frozenset(range(self.d)), self.k

    def stop(self, K, R):
        return R == 0 or not K

    def split(self, K, R):
        return [tuple(sorted(K))]

    def map(self, K, R, winners):
        return K - {winners[0]}, R - 1

    def combine(self, child, K, R, winners):
        return (child or frozenset()) | {winners[0]}

    def decode_value(self, doc):
        return frozenset(map(_label, _json_list(doc, "the list of labels")))

    def validate_value(self, value):
        if len(value) != self.k:
            return _fail(f"subset has {len(value)} elements, expected {self.k}")
        unknown = set(value) - set(self.key_labels)
        if unknown:
            return _fail(f"subset contains unknown keys {unknown!r}")
        return _OK


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
        return cls(as_int(spec["d"], "structure.d"))

    def initial_state(self):
        return frozenset(range(self.d)), None

    def stop(self, K, R):
        return not K

    def split(self, K, R):
        return [tuple(sorted(K))]

    def map(self, K, R, winners):
        return K - {winners[0]}, None

    def combine(self, child, K, R, winners):
        return (winners[0],) + (child or ())

    def decode_value(self, doc):
        return tuple(map(_label, _json_list(doc, "the list of labels")))

    def validate_value(self, value):
        if len(value) != self.d:
            return _fail(f"permutation has {len(value)} entries, expected {self.d}")
        if sorted(value) != list(self.key_labels):
            return _fail("permutation is not a bijection on the keys")
        return _OK


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
        return cls(as_int(spec["n"], "structure.n"))

    def initial_state(self):
        return frozenset(range(self.n * self.n)), None

    def stop(self, K, R):
        return not K

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

    def validate_value(self, value):
        if sorted(r for r, _ in value) != list(range(self.n)):
            return _fail("rows are not each used exactly once")
        if sorted(c for _, c in value) != list(range(self.n)):
            return _fail("columns are not each used exactly once")
        return _OK


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
        return cls(as_int(spec["n"], "structure.n"))

    def initial_state(self):
        return frozenset(range(self.n)), ((0, self.n - 1),)

    def stop(self, K, R):
        return not K

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

    def validate_value(self, value):
        if value is None:
            return _fail("tree is empty")
        inorder = _tree_nodes_inorder(value)
        if len(inorder) != self.n or len(set(inorder)) != self.n:
            return _fail(f"tree holds {len(inorder)} nodes, expected {self.n} distinct")
        if inorder != list(range(self.n)):
            return _fail("in-order traversal does not recover the token order")
        return _OK


def _tree_nodes_inorder(tree) -> list:
    out = []
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if node is None:
            continue
        if expanded:
            out.append(node.key)
        else:
            stack.append((node.right, False))
            stack.append((node, True))
            stack.append((node.left, False))
    return out


def _graph_of(spec):
    """Parse the graph file a config spec names in ``structure.graph``."""
    return parse_graph_file(as_path(spec["graph"], "structure.graph"))


def parse_graph_file(path: str):
    """Parse the line-oriented graph format.

    Header ``graph <directed|undirected> <num_vertices>``, one ``u v`` edge
    per line with 0-based ids, at most one ``root r`` line for directed
    graphs.  Blank lines and ``#`` comments are ignored.  A file with fewer
    than ``num_vertices - 1`` edges, which no spanning tree or arborescence
    can use, is rejected before any work per vertex.  Returns (directed,
    n_vertices, edges, root).
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
        for x in (u, v):
            if not 0 <= x < n_vertices:
                raise ConfigError(f"{path}:{lineno}: vertex id {bounded_repr(x)} out of range")
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate edge {bounded_repr((u, v))}")
        seen.add(key)
        edges.append((u, v))
    if directed is None:
        raise ConfigError(f"{path}: empty graph file")
    if len(edges) < n_vertices - 1:
        raise ConfigError(f"{path}: {len(edges)} edges cannot connect "
                          f"{bounded_repr(n_vertices)} vertices")
    return directed, n_vertices, edges, root


class SpanningTree(_SetValued):
    """A spanning tree of an undirected graph, grown greedily edge by edge.

    The auxiliary state is ``(labels, count)``: ``labels[i]`` is the
    component label of the vertex at position ``i`` of ``vertices`` (the
    position of the component's smallest vertex) and ``count`` is the
    number of components.  The minimum surviving edge merges two
    components under the smaller label; edges that become internal
    disappear.  ``_u``/``_v`` hold each edge's endpoint positions.  A
    partition that empties while several components remain means the
    graph was disconnected.
    """

    kind = "spanning_tree"

    def __init__(self, vertices: Iterable, edges: Iterable):
        self.vertices = tuple(sorted(set(vertices)))
        if not self.vertices:
            raise InvalidParameterError("need at least one vertex")
        seen = set()
        labels = []
        for u, v in edges:
            if u == v:
                raise InvalidParameterError(f"self-loop on vertex {u!r}")
            if u not in self.vertices or v not in self.vertices:
                raise InvalidParameterError(f"edge ({u!r}, {v!r}) has unknown endpoint")
            edge = (u, v) if u <= v else (v, u)
            if edge in seen:
                raise InvalidParameterError(f"duplicate edge {edge!r}")
            seen.add(edge)
            labels.append(edge)
        self.key_labels = tuple(sorted(labels))
        position = {x: i for i, x in enumerate(self.vertices)}
        self._u = [position[u] for u, _ in self.key_labels]
        self._v = [position[v] for _, v in self.key_labels]

    @classmethod
    def from_config(cls, spec):
        directed, n_vertices, edges, _root = _graph_of(spec)
        if directed:
            raise ConfigError(f"{cls.kind} needs an undirected graph")
        return cls(range(n_vertices), edges)

    def initial_state(self):
        n = len(self.vertices)
        return frozenset(range(len(self.key_labels))), (tuple(range(n)), n)

    def stop(self, K, R):
        return R[1] <= 1

    def split(self, K, R):
        if not K:
            raise InfeasibleGraphError(
                f"graph is disconnected: {R[1]} components remain and no edge joins them"
            )
        return [tuple(sorted(K))]

    def map(self, K, R, winners):
        labels, count = R
        u, v = self._u, self._v
        a, b = labels[u[winners[0]]], labels[v[winners[0]]]
        merged, dropped = min(a, b), max(a, b)
        new = tuple([merged if x == dropped else x for x in labels])
        keep = frozenset([k for k in K if new[u[k]] != new[v[k]]])
        return keep, (new, count - 1)

    def combine(self, child, K, R, winners):
        return (child or frozenset()) | {self.key_labels[winners[0]]}

    def decode_value(self, doc):
        return frozenset((min(u, v), max(u, v)) for u, v in _edges_from_json(doc))

    def validate_value(self, value):
        vertices = self.vertices
        if len(value) != len(vertices) - 1:
            return _fail(f"{len(value)} edges for {len(vertices)} vertices")
        roots = {v: v for v in vertices}

        def find(x):
            while roots[x] != x:
                roots[x] = roots[roots[x]]
                x = roots[x]
            return x

        for u, v in value:
            if u not in roots or v not in roots:
                return _fail(f"edge ({u!r}, {v!r}) has an unknown endpoint")
            ru, rv = find(u), find(v)
            if ru == rv:
                return _fail(f"edge ({u!r}, {v!r}) closes a cycle")
            roots[ru] = rv
        if len({find(v) for v in vertices}) != 1:
            return _fail("edges do not span all vertices")
        return _OK


class Arborescence(_SetValued):
    """A directed spanning tree with all edges oriented away from a root.

    Every non-root super-node competes over its incoming edges at once.
    If the winners are cycle-free they are the answer; otherwise the first
    cycle (in canonical vertex order) is contracted into one super-node,
    its internal edges drop out, and the recursion resolves the smaller
    graph.  Winners that survive a contraction keep their utility at
    exactly 0, so they win again deterministically until the recursion
    unwinds.  A contraction that leaves no edge to enter the loop is
    infeasible, and ``map`` says so.

    Expansion reads only the child's heads.  The deepest level's winners
    are the tree.  Above it, the child is an arborescence of the contracted
    graph: one of its edges enters each super-node of this level, except
    that a single edge enters the whole contracted loop.  So a super-node
    keeps its own winner exactly when no child edge has its head in it.

    The auxiliary state is the tuple of super-nodes, each a frozenset of
    vertices, ordered by smallest vertex; the root's super-node stays
    ``{root}``, since no cycle passes through the root.  ``_tail``/``_head``
    hold each edge's endpoint vertices.
    """

    kind = "arborescence"

    def __init__(self, vertices: Iterable, edges: Iterable, root):
        self.vertices = tuple(sorted(set(vertices)))
        if root not in self.vertices:
            raise InvalidParameterError(f"root {root!r} is not a vertex")
        self.root = root
        seen = set()
        labels = []
        for u, v in edges:
            if u not in self.vertices or v not in self.vertices:
                raise InvalidParameterError(f"edge ({u!r}, {v!r}) has unknown endpoint")
            if (u, v) in seen:
                raise InvalidParameterError(f"duplicate edge ({u!r}, {v!r})")
            seen.add((u, v))
            if v == root or u == v:
                continue  # can never join an arborescence
            labels.append((u, v))
        self.key_labels = tuple(sorted(labels))
        self._tail = [u for u, _ in self.key_labels]
        self._head = [v for _, v in self.key_labels]
        heads = set(self._head)
        for v in self.vertices:
            if v != root and v not in heads:
                raise InfeasibleGraphError(f"vertex {v!r} has no incoming edges")

    @classmethod
    def from_config(cls, spec):
        directed, n_vertices, edges, root = _graph_of(spec)
        if not directed:
            raise ConfigError(f"{cls.kind} needs a directed graph")
        if "root" in spec:
            root = as_int(spec["root"], "structure.root")
        if root is None:
            raise ConfigError(f"{cls.kind} needs a root (file or config)")
        return cls(range(n_vertices), edges, root)

    def initial_state(self):
        supernodes = tuple(frozenset((v,)) for v in self.vertices)
        return frozenset(range(len(self.key_labels))), supernodes

    def stop(self, K, R):
        return not K or len(R) == 1

    def split(self, K, R):
        targets = [S for S in R if self.root not in S]
        slot = {v: i for i, S in enumerate(targets) for v in S}
        buckets = [[] for _ in targets]
        head = self._head
        for k in sorted(K):
            buckets[slot[head[k]]].append(k)
        return [tuple(b) for b in buckets]

    def _find_cycle(self, R, winners) -> Optional[list]:
        """First winner-pointer cycle in canonical super-node order, as a
        list of indices into R.

        Each non-root super-node points to the super-node holding its
        winning edge's tail; the root has no pointer, so no cycle passes
        through it.  The pointers are walked from each start in turn, each
        super-node marked with the start that reached it first: a walk that
        returns to its own mark has closed a cycle.
        """
        slot = {v: i for i, S in enumerate(R) for v in S}
        nonroot = [i for i, S in enumerate(R) if self.root not in S]
        tail = self._tail
        pointer = {i: slot[tail[w]] for i, w in zip(nonroot, winners)}
        mark = {}
        for start in nonroot:
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
        if not any(head[k] in loop_vertices for k in keep):
            # Only the new loop can lose every entering edge: just its own go.
            raise InfeasibleGraphError(
                f"no surviving edge enters the vertex group {sorted(loop_vertices)!r}"
            )
        in_cycle = set(cycle)
        merged = [S for i, S in enumerate(R) if i not in in_cycle]
        merged.append(loop_vertices)
        merged.sort(key=min)
        return keep, tuple(merged)

    def combine(self, child, K, R, winners):
        labels = self.key_labels
        if child is None:
            return frozenset(labels[w] for w in winners)
        heads = {v for _u, v in child}
        targets = (S for S in R if self.root not in S)
        return child | {labels[w] for S, w in zip(targets, winners) if heads.isdisjoint(S)}

    def decode_value(self, doc):
        return _edges_from_json(doc)

    def validate_value(self, value):
        vertices, root = self.vertices, self.root
        indeg = {v: 0 for v in vertices}
        for u, v in value:
            if u not in indeg or v not in indeg:
                return _fail(f"edge ({u!r}, {v!r}) has an unknown endpoint")
            indeg[v] += 1
        if indeg[root] != 0:
            return _fail(f"root {root!r} has in-degree {indeg[root]}")
        for v in vertices:
            if v != root and indeg[v] != 1:
                return _fail(f"vertex {v!r} has in-degree {indeg[v]}, expected 1")
        children = {}
        for u, v in value:
            children.setdefault(u, []).append(v)
        reached = {root}
        frontier = [root]
        while frontier:
            u = frontier.pop()
            for v in children.get(u, ()):
                if v not in reached:
                    reached.add(v)
                    frontier.append(v)
        if reached != set(vertices):
            return _fail(f"vertices {set(vertices) - reached!r} unreachable from the root")
        return _OK


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
    link sets.
    """
    if isinstance(a, TreeNode) and isinstance(b, TreeNode):
        return len(_tree_links(a) ^ _tree_links(b))
    if isinstance(a, frozenset) or isinstance(a, set):
        return len(frozenset(a) ^ frozenset(b))
    if isinstance(a, tuple) and isinstance(b, tuple):
        if len(a) != len(b):
            raise InvalidArgumentError("sequences of different length")
        return sum(x != y for x, y in zip(a, b))
    raise InvalidArgumentError(
        f"cannot compare values of types {type(a).__name__} and {type(b).__name__}"
    )
