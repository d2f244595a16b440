"""Presented groupoids on directed graphs, orbit presentations under a graph
action, vertex group presentations via a spanning tree, and abelian
invariants by integer Smith normal form.

A word is a sequence of signed edge letters in traversal order; an edge e
from x to y contributes the letter (e, +1) traversing x -> y and (e, -1)
traversing y -> x.  Free reduction cancels adjacent inverse letters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _ensure, classes


@dataclass(frozen=True)
class Word:
    """A path word: letters in traversal order with its endpoints."""

    letters: tuple          # tuple of (edge name, +1 | -1)
    source: str
    target: str

    def __str__(self):
        if not self.letters:
            return f"1_{self.source}"
        return ".".join(e if s > 0 else f"-{e}" for e, s in self.letters)

    def inverse(self):
        return Word(tuple((e, -s) for e, s in reversed(self.letters)),
                    self.target, self.source)


class DirectedGraph:
    """Vertices, edges and their endpoint maps, the maps kept as given (see
    the core module docstring)."""

    def __init__(self, vertices, edges, source, target, name="graph"):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.source = source
        self.target = target
        self.name = name
        vertex_set = set(self.vertices)
        if len(vertex_set) != len(self.vertices):
            raise ValueError(f"{name}: duplicate vertex names")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError(f"{name}: duplicate edge names")
        for e in self.edges:
            if self.source[e] not in vertex_set or \
                    self.target[e] not in vertex_set:
                raise ValueError(f"{name}: edge {e} has an unknown endpoint")

    def word(self, tokens):
        """Build a word from signed edge tokens like ["e1", "-e2"]."""
        letters = []
        for tok in tokens:
            sign = -1 if tok.startswith("-") else 1
            e = tok[1:] if sign < 0 else tok
            if e not in self.source:
                raise ValueError(f"{self.name}: unknown edge {e}")
            letters.append((e, sign))
        if not letters:
            raise ValueError("empty token list needs an explicit basepoint")
        src = self._ends(letters[0])[0]
        at = src
        for letter in letters:
            begin, end = self._ends(letter)
            if begin != at:
                raise ValueError(
                    f"{self.name}: letters do not chain at {at}")
            at = end
        return Word(tuple(letters), src, at)

    def _ends(self, letter):
        e, s = letter
        if s > 0:
            return self.source[e], self.target[e]
        return self.target[e], self.source[e]


def free_reduce(word):
    """Cancel adjacent mutually inverse letters until none remain."""
    stack = []
    for letter in word.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return Word(tuple(stack), word.source, word.target)


class PresentedGroupoid:
    """A directed graph with a set of relator words, each a loop."""

    def __init__(self, graph, relators, name=None):
        self.graph = graph
        self.relators = tuple(relators)
        self.name = name or f"{graph.name}-presented"
        for w in self.relators:
            if w.source != w.target:
                raise ValueError(
                    f"{self.name}: relator {w} is not a loop "
                    f"({w.source} -> {w.target})")


class GroupPresentation:
    """Generators and relator words over a one-vertex graph."""

    def __init__(self, generators, relators, name="presentation"):
        self.generators = tuple(generators)
        self.relators = tuple(relators)   # tuples of (generator, sign)
        self.name = name
        if len(set(self.generators)) != len(self.generators):
            raise ValueError(f"{name}: duplicate generator names")
        gens = set(self.generators)
        for r in self.relators:
            for g, s in r:
                if g not in gens:
                    raise ValueError(f"{name}: relator uses unknown generator {g}")


@dataclass(frozen=True)
class AbelianInvariants:
    """Free rank and torsion coefficients in ascending divisibility order."""

    free_rank: int
    torsion: tuple

    def __str__(self):
        if not self.torsion:
            return f"rank {self.free_rank}"
        return (f"rank {self.free_rank}, torsion "
                + " ".join(str(d) for d in self.torsion))


class GraphAction:
    """A group acting on a directed graph.

    act_vertex maps (g, v) to a vertex; act_edge maps (g, e) to a signed
    edge token: "f" if g carries e to f preserving direction, "-f" if it
    reverses direction.  The maps are kept as given (see the core module
    docstring); validate_graph_action keeps its verdict on the action.
    """

    def __init__(self, group, graph, act_vertex, act_edge, name="graph-action",
                 group_groupoid=None):
        self.group = group
        self.graph = graph
        self.act_vertex = act_vertex
        self.act_edge = act_edge
        self.name = name
        # one-object groupoid the group was read from, kept for re-emission
        self.group_groupoid = group_groupoid
        self._problems = None     # validate_graph_action's verdict

    def edge_image(self, g, e):
        tok = self.act_edge[(g, e)]
        if tok.startswith("-"):
            return tok[1:], -1
        return tok, 1


def validate_graph_action(act):
    """Return a list of violated graph action axioms; empty means valid.

    As with validate_action, the verdict is computed on the first call and
    kept on the action; later calls return a fresh copy of it.
    """
    if act._problems is None:
        act._problems = tuple(_graph_action_problems(act))
    return list(act._problems)


def _graph_action_problems(act):
    """validate_graph_action's check itself, run once per action."""
    problems = []
    G, gr = act.group, act.graph
    vset, eset = set(gr.vertices), set(gr.edges)
    for g in G.elements:
        for v in gr.vertices:
            if (g, v) not in act.act_vertex:
                problems.append(f"missing vertex image: {g} on {v}")
            elif act.act_vertex[(g, v)] not in vset:
                problems.append(f"vertex image out of range: {g} on {v}")
        for e in gr.edges:
            if (g, e) not in act.act_edge:
                problems.append(f"missing edge image: {g} on {e}")
                continue
            f, s = act.edge_image(g, e)
            if f not in eset:
                problems.append(f"edge image out of range: {g} on {e}")
    if problems:
        return problems
    for v in gr.vertices:
        if act.act_vertex[(G.identity, v)] != v:
            problems.append(f"identity moves vertex {v}")
    for e in gr.edges:
        if act.edge_image(G.identity, e) != (e, 1):
            problems.append(f"identity moves edge {e}")
    for g in G.elements:
        for h in G.elements:
            gh = G.prod(g, h)
            for v in gr.vertices:
                if act.act_vertex[(g, act.act_vertex[(h, v)])] != \
                        act.act_vertex[(gh, v)]:
                    problems.append(
                        f"vertex action not multiplicative: g={g}, h={h}, v={v}")
            for e in gr.edges:
                f1, s1 = act.edge_image(h, e)
                f2, s2 = act.edge_image(g, f1)
                f3, s3 = act.edge_image(gh, e)
                if (f2, s1 * s2) != (f3, s3):
                    problems.append(
                        f"edge action not multiplicative: g={g}, h={h}, e={e}")
    for g in G.elements:
        for e in gr.edges:
            f, s = act.edge_image(g, e)
            ends = (act.act_vertex[(g, gr.source[e])],
                    act.act_vertex[(g, gr.target[e])])
            want = (gr.source[f], gr.target[f]) if s > 0 else \
                (gr.target[f], gr.source[f])
            if ends != want:
                problems.append(f"edge image breaks incidence: {g} on {e}")
    return problems


def orbit_presentation(act):
    """Presentation of the quotient graph with relators for inverted orbits.

    Vertices and edges are orbit classes named "[rep]".  An edge orbit is
    inverted when some group element carries its representative to a
    reversed copy of an edge in the same orbit; such an orbit class E gets
    the relator E.E (the class squares to an identity).
    """
    problems = validate_graph_action(act)
    if problems:
        raise ValueError(f"{act.name}: invalid graph action: {problems[0]}")
    G, gr = act.group, act.graph
    # the action is valid, so the orbit of v or e is its image under each g;
    # each class is named "[rep]", rep its first member in input order
    vfirst = classes(gr.vertices, lambda v: (
        act.act_vertex[(g, v)] for g in G.elements))
    vlabel = {v: f"[{vfirst[v]}]" for v in gr.vertices}
    efirst = classes(gr.edges, lambda e: (
        act.edge_image(g, e)[0] for g in G.elements))
    elabel = {e: f"[{efirst[e]}]" for e in gr.edges}
    reps = [e for e in gr.edges if efirst[e] == e]
    source = {elabel[e]: vlabel[gr.source[e]] for e in reps}
    target = {elabel[e]: vlabel[gr.target[e]] for e in reps}
    inverted = [elabel[e] for e in reps if any(
        act.edge_image(g, e) == (e, -1) for g in G.elements)]
    name = f"{gr.name}-orbits"
    qgraph = DirectedGraph(
        [vlabel[v] for v in gr.vertices if vfirst[v] == v],
        [elabel[e] for e in reps], source, target, name=name)
    relators = []
    for label in inverted:
        # an inverted class must be a loop class in the quotient
        _ensure(source[label] == target[label],
                f"inverted edge class {label} is not a loop")
        relators.append(Word(((label, 1), (label, 1)),
                             source[label], source[label]))
    return PresentedGroupoid(qgraph, relators, name=name), elabel, vlabel


def _tree_walk(graph, root):
    """Breadth-first spanning tree of root's component, edges in input order:
    (tree edges, word_to_root), word_to_root[v] the word along tree edges
    from v to root, for exactly the vertices of that component."""
    incident = {v: [] for v in graph.vertices}
    for e in graph.edges:
        incident[graph.source[e]].append((e, 1))
        incident[graph.target[e]].append((e, -1))
    word_to_root = {root: Word((), root, root)}
    tree = []
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for (e, s) in incident[v]:
                w = graph.target[e] if s > 0 else graph.source[e]
                if w in word_to_root:
                    continue
                tree.append(e)
                # traversing e from w toward v has sign -s
                word_to_root[w] = Word(((e, -s),) + word_to_root[v].letters,
                                       w, root)
                nxt.append(w)
        frontier = nxt
    return tree, word_to_root


def vertex_group_presentation(pres, vertex):
    """Presentation of the vertex group of a presented groupoid.

    Generators are the non-tree edges of the vertex's component; each
    relator in that component is rewritten around the tree (conjugated to
    the basepoint, tree letters dropped) and freely reduced.  Relators in
    other components are skipped.
    """
    gr = pres.graph
    if vertex not in set(gr.vertices):
        raise ValueError(f"{gr.name}: unknown vertex {vertex}")
    tree, to_root = _tree_walk(gr, vertex)
    tree_set = set(tree)
    generators = [e for e in gr.edges
                  if gr.source[e] in to_root and e not in tree_set]
    relators = []
    for w in pres.relators:
        if w.source not in to_root:
            continue
        # conjugate to the basepoint: walk root -> w.source, the relator,
        # then w.source -> root, all in traversal order
        path = (to_root[w.source].inverse().letters
                + w.letters
                + to_root[w.source].letters)
        dropped = tuple(l for l in path if l[0] not in tree_set)
        reduced = free_reduce(Word(dropped, vertex, vertex))
        if reduced.letters:
            relators.append(tuple(reduced.letters))
    return GroupPresentation(generators, relators,
                             name=f"{pres.name}@{vertex}")


def direct_product_presentation(p1, p2):
    """Presentation of a direct product: disjoint generators suffixed _1 and
    _2, both relator sets, plus commutators of cross pairs."""
    gens = [f"{g}_1" for g in p1.generators] + \
           [f"{g}_2" for g in p2.generators]
    relators = []
    for r in p1.relators:
        relators.append(tuple((f"{g}_1", s) for g, s in r))
    for r in p2.relators:
        relators.append(tuple((f"{g}_2", s) for g, s in r))
    for a in p1.generators:
        for b in p2.generators:
            relators.append(((f"{a}_1", 1), (f"{b}_2", 1),
                             (f"{a}_1", -1), (f"{b}_2", -1)))
    return GroupPresentation(gens, relators, name=f"{p1.name}x{p2.name}")


def symmetric_square_presentation(pres):
    """Presentation of the symmetric square: the direct product of two copies
    with the swapped coordinates identified (g_1 = g_2 for every generator)."""
    square = direct_product_presentation(pres, pres)
    relators = list(square.relators)
    for g in pres.generators:
        relators.append(((f"{g}_1", 1), (f"{g}_2", -1)))
    return GroupPresentation(square.generators, relators,
                             name=f"{pres.name}-sym2")


def presentation_relation_matrix(pres):
    """Exponent-sum matrix of the relators, one row per relator."""
    index = {g: i for i, g in enumerate(pres.generators)}
    rows = []
    for r in pres.relators:
        row = [0] * len(pres.generators)
        for g, s in r:
            row[index[g]] += s
        rows.append(row)
    return rows


def smith_normal_form(matrix):
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the nonzero diagonal entries, each dividing the next; their
    count is the rank.  Exact integer arithmetic throughout.  Each round
    takes the nonzero entry of least absolute value, first in row-major
    order, as pivot and reduces the other rows and columns by it; a nonzero
    remainder starts the next round, an entry the pivot does not divide is
    added into the pivot row, and otherwise the pivot is recorded and its
    row and column deleted.
    """
    m = [list(row) for row in matrix]
    diag = []
    while True:
        nonzero = [(abs(v), i, j) for i, row in enumerate(m)
                   for j, v in enumerate(row) if v]
        if not nonzero:
            return diag
        _, pi, pj = min(nonzero)
        top, p = m[pi], m[pi][pj]
        for row in m:
            q = row[pj] // p
            if q and row is not top:
                row[:] = [v - q * t for v, t in zip(row, top)]
        for j, q in enumerate([v // p for v in top]):
            if q and j != pj:
                for row in m:
                    row[j] -= q * row[pj]
        if any(top[:pj] + top[pj + 1:]) or \
                any(row[pj] for row in m if row is not top):
            continue
        stray = next((row for row in m for v in row if v % p), None)
        if stray is not None:
            top[:] = [v + s for v, s in zip(top, stray)]
            continue
        diag.append(abs(p))
        del m[pi]
        for row in m:
            del row[pj]


def abelian_invariants(pres):
    """Abelian invariants of a presented group from its relation matrix."""
    diag = smith_normal_form(presentation_relation_matrix(pres))
    torsion = tuple(d for d in diag if d > 1)
    return AbelianInvariants(len(pres.generators) - len(diag), torsion)


def describe_vertex_group(pres, vertex):
    """One-line summary of a vertex group: trivial, free, or abelianized."""
    vp = vertex_group_presentation(pres, vertex)
    if not vp.generators:
        return "trivial"
    if not vp.relators:
        return f"free of rank {len(vp.generators)}"
    inv = abelian_invariants(vp)
    return (f"{len(vp.generators)} generators, {len(vp.relators)} relators, "
            f"abelianized {inv}")
