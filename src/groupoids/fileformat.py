"""Plain-text input format for groupoids, actions, graphs, presentations,
and morphisms.

A file is a sequence of blocks.  A block starts with a header line and runs
until the next header or the end of the file:

    groupoid NAME
    objects x y
    arrow a : x -> y
    inverse a b
    compose v u = w

    action NAME on TARGET by GROUP
    obj g : x -> y
    arr g : a -> b
    act g : e -> -f

    graph NAME
    vertex x y
    edge e : x -> y
    relator e -f ...

    presentation NAME
    generators a b
    relator a b -a -b

    morphism NAME : SRC -> DST
    obj x -> y
    arr a -> b

Identity arrows are implicit: every object x owns id_x, and the id_ prefix
is reserved.  Compositions implied by the identity and inverse laws are
implied too; every other composable pair must be listed, and a missing one
is a load error naming the pair.  Groups are one-object groupoid blocks; an
action's GROUP names one, and its element names are that block's arrow
names.  Unlisted action pairs are fixed, except identity arrows, which
follow the object map.  '#' starts a comment; names must be free of
whitespace and '#', and edge and generator names may not start with '-',
which marks an inverse letter.  Every entity is validated on load, and
blocks may only refer to entities defined earlier in the file.

The emitter writes this same format back, skipping everything implied, so
emitting a parsed emission is byte-identical.
"""

from __future__ import annotations

from .actions import GroupoidAction, validate_action
from .catalog import group_of_one_object_groupoid, groupoid_from_group
from .core import (FiniteGroupoid, GroupoidMorphism, validate_groupoid,
                   validate_morphism)
from .presented import (DirectedGraph, GraphAction, GroupPresentation,
                        PresentedGroupoid, validate_graph_action)

_HEADERS = ("groupoid", "action", "graph", "presentation", "morphism")


class ParseError(ValueError):
    def __init__(self, path, line, col, message):
        self.path = path
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"{path}:{line}:{col}: {message}")


class UnreadableInput(ValueError):
    """An input file that cannot be opened or is not UTF-8 text; the
    message is "path: reason"."""


class ParsedFile:
    """Entities of one input file, in definition order."""

    def __init__(self, path):
        self.path = path
        self.order = []
        self.kinds = {}
        self.entities = {}

    def add(self, name, kind, entity, line):
        if name in self.entities:
            raise ParseError(self.path, line, 1,
                             f"duplicate entity name {name}")
        self.order.append(name)
        self.kinds[name] = kind
        self.entities[name] = entity

    def of_kind(self, kind):
        return [n for n in self.order if self.kinds[n] == kind]

    def get(self, name, kind=None):
        if name not in self.entities:
            raise ValueError(f"{self.path}: no entity named {name}")
        if kind is not None and self.kinds[name] != kind:
            raise ValueError(
                f"{self.path}: {name} is a {self.kinds[name]}, not a {kind}")
        return self.entities[name]

    def pick(self, kind, name=None):
        """The named entity, or the unique one of its kind."""
        if name is not None:
            return self.get(name, kind)
        names = self.of_kind(kind)
        if len(names) == 1:
            return self.entities[names[0]]
        if not names:
            raise ValueError(f"{self.path}: no {kind} defined")
        raise ValueError(
            f"{self.path}: {len(names)} {kind}s defined "
            f"({', '.join(names)}); pick one by name")


def parse_input(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UnreadableInput(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise UnreadableInput(
            f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_text(text, path=path)


def parse_text(text, path="<input>"):
    parsed = ParsedFile(path)
    block = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        tokens = line.split()
        if not tokens:
            continue
        col = len(line) - len(line.lstrip()) + 1
        if tokens[0] in _HEADERS:
            if block is not None:
                block.finish()
            block = _BLOCKS[tokens[0]](parsed, tokens, line_no, col)
        elif block is None:
            raise ParseError(path, line_no, col,
                             f"expected a block header, got {tokens[0]}")
        else:
            block.line(tokens, line_no, col)
    if block is not None:
        block.finish()
    return parsed


def _expect(tokens, pattern, path, line_no, col, usage):
    """Match fixed tokens in pattern against the line; '*' matches any."""
    if len(tokens) != len(pattern) or any(
            p != "*" and t != p for t, p in zip(tokens, pattern)):
        raise ParseError(path, line_no, col, f"expected: {usage}")


def _check_name(name, path, line_no, col, what):
    if name.startswith("id_"):
        raise ParseError(path, line_no, col,
                         f"{what} {name} uses the reserved id_ prefix")


def _check_letter(name, path, line_no, col, what):
    if name.startswith("-"):
        raise ParseError(path, line_no, col,
                         f"{what} {name} starts with '-', which marks an "
                         f"inverse letter")


class _GroupoidBlock:
    def __init__(self, parsed, tokens, line_no, col):
        _expect(tokens, ("groupoid", "*"), parsed.path, line_no, col,
                "groupoid NAME")
        self.parsed = parsed
        self.name = tokens[1]
        self.head = line_no
        self.objects = []
        self.arrows = []          # (name, src, tgt)
        self.source = {}
        self.target = {}
        self.inverse = {}
        self.compose_lines = []   # (v, u, w, line, col)

    def line(self, tokens, line_no, col):
        path = self.parsed.path
        word = tokens[0]
        if word == "objects":
            for x in tokens[1:]:
                if x in self.objects:
                    raise ParseError(path, line_no, col,
                                     f"duplicate object {x}")
                _check_name(x, path, line_no, col, "object")
                self.objects.append(x)
        elif word == "arrow":
            _expect(tokens, ("arrow", "*", ":", "*", "->", "*"),
                    path, line_no, col, "arrow NAME : SRC -> TGT")
            name, src, tgt = tokens[1], tokens[3], tokens[5]
            _check_name(name, path, line_no, col, "arrow")
            if name in self.source:
                raise ParseError(path, line_no, col,
                                 f"duplicate arrow {name}")
            for x in (src, tgt):
                if x not in self.objects:
                    raise ParseError(path, line_no, col,
                                     f"unknown object {x}")
            self.arrows.append(name)
            self.source[name] = src
            self.target[name] = tgt
        elif word == "inverse":
            _expect(tokens, ("inverse", "*", "*"), path, line_no, col,
                    "inverse A B")
            a, b = tokens[1], tokens[2]
            for u in (a, b):
                if u not in self.source:
                    raise ParseError(path, line_no, col,
                                     f"unknown arrow {u}")
            if self.source[a] != self.target[b] or \
                    self.target[a] != self.source[b]:
                raise ParseError(path, line_no, col,
                                 f"inverse pair {a} {b} has mismatched "
                                 f"endpoints")
            for u, v in ((a, b), (b, a)):
                if self.inverse.get(u, v) != v:
                    raise ParseError(path, line_no, col,
                                     f"conflicting inverse for {u}")
                self.inverse[u] = v
        elif word == "compose":
            _expect(tokens, ("compose", "*", "*", "=", "*"),
                    path, line_no, col, "compose V U = W")
            v, u, w = tokens[1], tokens[2], tokens[4]
            for a in (v, u, w):
                if a not in self.source and not self._is_identity_name(a):
                    raise ParseError(path, line_no, col,
                                     f"unknown arrow {a}")
            self.compose_lines.append((v, u, w, line_no, col))
        else:
            raise ParseError(path, line_no, col,
                             f"unexpected {word} in a groupoid block")

    def _is_identity_name(self, u):
        return u.startswith("id_") and u[3:] in self.objects

    def finish(self):
        path = self.parsed.path
        identity_of = {x: f"id_{x}" for x in self.objects}
        idents = [identity_of[x] for x in self.objects]
        source = {identity_of[x]: x for x in self.objects}
        target = {identity_of[x]: x for x in self.objects}
        source.update(self.source)
        target.update(self.target)
        inverse = {identity_of[x]: identity_of[x] for x in self.objects}
        for u in self.arrows:
            if u not in self.inverse:
                raise ParseError(path, self.head, 1,
                                 f"arrow {u} has no declared inverse")
        inverse.update(self.inverse)
        arrows = idents + self.arrows

        compose = {}
        for u in arrows:
            compose[(u, identity_of[source[u]])] = u
            compose[(identity_of[target[u]], u)] = u
            compose[(u, inverse[u])] = identity_of[target[u]]
            compose[(inverse[u], u)] = identity_of[source[u]]
        for (v, u, w, line_no, col) in self.compose_lines:
            if target[u] != source[v]:
                raise ParseError(path, line_no, col,
                                 f"compose {v} {u}: not composable")
            if compose.get((v, u), w) != w:
                raise ParseError(path, line_no, col,
                                 f"compose {v} {u} = {w} contradicts an "
                                 f"implied composition")
            compose[(v, u)] = w

        gpd = FiniteGroupoid(self.objects, arrows, source, target,
                             identity_of, inverse, compose, name=self.name)
        problems = validate_groupoid(gpd)
        if problems:
            raise ParseError(path, self.head, 1,
                             f"{self.name}: {problems[0]}")
        self.parsed.add(self.name, "groupoid", gpd, self.head)


class _ActionBlock:
    def __init__(self, parsed, tokens, line_no, col):
        _expect(tokens, ("action", "*", "on", "*", "by", "*"),
                parsed.path, line_no, col, "action NAME on TARGET by GROUP")
        self.parsed = parsed
        self.name = tokens[1]
        self.head = line_no
        try:
            self.space = parsed.get(tokens[3])
            self.space_kind = parsed.kinds[tokens[3]]
        except ValueError:
            raise ParseError(parsed.path, line_no, col,
                             f"unknown target {tokens[3]}") from None
        if self.space_kind not in ("groupoid", "graph"):
            raise ParseError(parsed.path, line_no, col,
                             f"{tokens[3]} is not a groupoid or graph")
        try:
            group_block = parsed.get(tokens[5], "groupoid")
        except ValueError as exc:
            raise ParseError(parsed.path, line_no, col, str(exc)) from None
        if len(group_block.objects) != 1:
            raise ParseError(parsed.path, line_no, col,
                             f"group block {tokens[5]} must have exactly "
                             f"one object")
        self.group_groupoid = group_block
        self.group = group_of_one_object_groupoid(group_block)
        self.obj_lines = {}
        self.arr_lines = {}
        self.act_lines = {}

    def _element(self, g, line_no, col):
        if g not in self.group.index:
            raise ParseError(self.parsed.path, line_no, col,
                             f"unknown group element {g}")
        if g == self.group.identity:
            raise ParseError(self.parsed.path, line_no, col,
                             "the identity element acts trivially; remove "
                             "this line")
        return g

    def line(self, tokens, line_no, col):
        path = self.parsed.path
        word = tokens[0]
        if word == "obj":
            _expect(tokens, ("obj", "*", ":", "*", "->", "*"),
                    path, line_no, col, "obj G : X -> Y")
            g = self._element(tokens[1], line_no, col)
            x, y = tokens[3], tokens[5]
            names = self.space.objects if self.space_kind == "groupoid" \
                else self.space.graph.vertices
            for v in (x, y):
                if v not in names:
                    raise ParseError(path, line_no, col,
                                     f"unknown object {v}")
            if (g, x) in self.obj_lines:
                raise ParseError(path, line_no, col,
                                 f"duplicate image for {g} on {x}")
            self.obj_lines[(g, x)] = y
        elif word == "arr":
            if self.space_kind != "groupoid":
                raise ParseError(path, line_no, col,
                                 "arr lines need a groupoid target; use act "
                                 "lines for graph edges")
            _expect(tokens, ("arr", "*", ":", "*", "->", "*"),
                    path, line_no, col, "arr G : A -> B")
            g = self._element(tokens[1], line_no, col)
            a, b = tokens[3], tokens[5]
            for u in (a, b):
                if u not in self.space.arrow_index:
                    raise ParseError(path, line_no, col,
                                     f"unknown arrow {u}")
            if self.space.is_identity_arrow(a):
                raise ParseError(path, line_no, col,
                                 "identity arrow images follow the object "
                                 "map; remove this line")
            if (g, a) in self.arr_lines:
                raise ParseError(path, line_no, col,
                                 f"duplicate image for {g} on {a}")
            self.arr_lines[(g, a)] = b
        elif word == "act":
            if self.space_kind != "graph":
                raise ParseError(path, line_no, col,
                                 "act lines need a graph target; use arr "
                                 "lines for groupoid arrows")
            _expect(tokens, ("act", "*", ":", "*", "->", "*"),
                    path, line_no, col, "act G : E -> F or act G : E -> -F")
            g = self._element(tokens[1], line_no, col)
            e, tok = tokens[3], tokens[5]
            f = tok[1:] if tok.startswith("-") else tok
            graph = self.space.graph
            for edge in (e, f):
                if edge not in graph.source:
                    raise ParseError(path, line_no, col,
                                     f"unknown edge {edge}")
            if (g, e) in self.act_lines:
                raise ParseError(path, line_no, col,
                                 f"duplicate image for {g} on {e}")
            self.act_lines[(g, e)] = tok
        else:
            raise ParseError(path, line_no, col,
                             f"unexpected {word} in an action block")

    def finish(self):
        path = self.parsed.path
        G = self.group
        if self.space_kind == "groupoid":
            sp = self.space
            act_obj = {}
            for g in G.elements:
                for x in sp.objects:
                    act_obj[(g, x)] = self.obj_lines.get((g, x), x)
            act_arrow = {}
            for g in G.elements:
                for a in sp.arrows:
                    if sp.is_identity_arrow(a):
                        moved = act_obj[(g, sp.source[a])]
                        act_arrow[(g, a)] = sp.identity_of[moved]
                    else:
                        act_arrow[(g, a)] = self.arr_lines.get((g, a), a)
            act = GroupoidAction(G, sp, act_obj, act_arrow, name=self.name,
                                 group_groupoid=self.group_groupoid)
            problems = validate_action(act)
        else:
            graph = self.space.graph
            act_vertex = {}
            for g in G.elements:
                for v in graph.vertices:
                    act_vertex[(g, v)] = self.obj_lines.get((g, v), v)
            act_edge = {}
            for g in G.elements:
                for e in graph.edges:
                    act_edge[(g, e)] = self.act_lines.get((g, e), e)
            act = GraphAction(G, graph, act_vertex, act_edge, name=self.name,
                              group_groupoid=self.group_groupoid)
            problems = validate_graph_action(act)
        if problems:
            raise ParseError(path, self.head, 1,
                             f"{self.name}: {problems[0]}")
        self.parsed.add(self.name, "action", act, self.head)


class _GraphBlock:
    def __init__(self, parsed, tokens, line_no, col):
        _expect(tokens, ("graph", "*"), parsed.path, line_no, col,
                "graph NAME")
        self.parsed = parsed
        self.name = tokens[1]
        self.head = line_no
        self.vertices = []
        self.edges = []
        self.source = {}
        self.target = {}
        self.relator_lines = []

    def line(self, tokens, line_no, col):
        path = self.parsed.path
        word = tokens[0]
        if word == "vertex":
            for v in tokens[1:]:
                if v in self.vertices:
                    raise ParseError(path, line_no, col,
                                     f"duplicate vertex {v}")
                self.vertices.append(v)
        elif word == "edge":
            _expect(tokens, ("edge", "*", ":", "*", "->", "*"),
                    path, line_no, col, "edge NAME : SRC -> TGT")
            name, src, tgt = tokens[1], tokens[3], tokens[5]
            _check_letter(name, path, line_no, col, "edge")
            if name in self.source:
                raise ParseError(path, line_no, col,
                                 f"duplicate edge {name}")
            for v in (src, tgt):
                if v not in self.vertices:
                    raise ParseError(path, line_no, col,
                                     f"unknown vertex {v}")
            self.edges.append(name)
            self.source[name] = src
            self.target[name] = tgt
        elif word == "relator":
            if len(tokens) < 2:
                raise ParseError(path, line_no, col,
                                 "relator needs at least one edge token")
            self.relator_lines.append((tokens[1:], line_no, col))
        else:
            raise ParseError(path, line_no, col,
                             f"unexpected {word} in a graph block")

    def finish(self):
        path = self.parsed.path
        graph = DirectedGraph(self.vertices, self.edges, self.source,
                              self.target, name=self.name)
        relators = []
        for (tokens, line_no, col) in self.relator_lines:
            try:
                word = graph.word(tokens)
            except ValueError as exc:
                raise ParseError(path, line_no, col, str(exc)) from None
            if word.source != word.target:
                raise ParseError(path, line_no, col,
                                 f"relator is not a loop "
                                 f"({word.source} -> {word.target})")
            relators.append(word)
        entity = PresentedGroupoid(graph, relators, name=self.name)
        self.parsed.add(self.name, "graph", entity, self.head)


class _PresentationBlock:
    def __init__(self, parsed, tokens, line_no, col):
        _expect(tokens, ("presentation", "*"), parsed.path, line_no, col,
                "presentation NAME")
        self.parsed = parsed
        self.name = tokens[1]
        self.head = line_no
        self.generators = []
        self.relators = []

    def line(self, tokens, line_no, col):
        path = self.parsed.path
        word = tokens[0]
        if word == "generators":
            for g in tokens[1:]:
                _check_letter(g, path, line_no, col, "generator")
                if g in self.generators:
                    raise ParseError(path, line_no, col,
                                     f"duplicate generator {g}")
                self.generators.append(g)
        elif word == "relator":
            if len(tokens) < 2:
                raise ParseError(path, line_no, col,
                                 "relator needs at least one token")
            letters = []
            for tok in tokens[1:]:
                sign = -1 if tok.startswith("-") else 1
                g = tok[1:] if sign < 0 else tok
                if g not in self.generators:
                    raise ParseError(path, line_no, col,
                                     f"unknown generator {g}")
                letters.append((g, sign))
            self.relators.append(tuple(letters))
        else:
            raise ParseError(path, line_no, col,
                             f"unexpected {word} in a presentation block")

    def finish(self):
        entity = GroupPresentation(self.generators, self.relators,
                                   name=self.name)
        self.parsed.add(self.name, "presentation", entity, self.head)


class _MorphismBlock:
    def __init__(self, parsed, tokens, line_no, col):
        _expect(tokens, ("morphism", "*", ":", "*", "->", "*"),
                parsed.path, line_no, col, "morphism NAME : SRC -> DST")
        self.parsed = parsed
        self.name = tokens[1]
        self.head = line_no
        try:
            self.dom = parsed.get(tokens[3], "groupoid")
            self.cod = parsed.get(tokens[5], "groupoid")
        except ValueError as exc:
            raise ParseError(parsed.path, line_no, col, str(exc)) from None
        self.object_map = {}
        self.arrow_map = {}

    def line(self, tokens, line_no, col):
        path = self.parsed.path
        word = tokens[0]
        if word == "obj":
            _expect(tokens, ("obj", "*", "->", "*"), path, line_no, col,
                    "obj X -> Y")
            x, y = tokens[1], tokens[3]
            if x not in self.dom.object_index:
                raise ParseError(path, line_no, col, f"unknown object {x}")
            if y not in self.cod.object_index:
                raise ParseError(path, line_no, col, f"unknown object {y}")
            if x in self.object_map:
                raise ParseError(path, line_no, col,
                                 f"duplicate image for object {x}")
            self.object_map[x] = y
        elif word == "arr":
            _expect(tokens, ("arr", "*", "->", "*"), path, line_no, col,
                    "arr A -> B")
            a, b = tokens[1], tokens[3]
            if a not in self.dom.arrow_index:
                raise ParseError(path, line_no, col, f"unknown arrow {a}")
            if b not in self.cod.arrow_index:
                raise ParseError(path, line_no, col, f"unknown arrow {b}")
            if self.dom.is_identity_arrow(a):
                raise ParseError(path, line_no, col,
                                 "identity arrow images follow the object "
                                 "map; remove this line")
            if a in self.arrow_map:
                raise ParseError(path, line_no, col,
                                 f"duplicate image for arrow {a}")
            self.arrow_map[a] = b
        else:
            raise ParseError(path, line_no, col,
                             f"unexpected {word} in a morphism block")

    def finish(self):
        path = self.parsed.path
        for x in self.dom.objects:
            if x not in self.object_map:
                raise ParseError(path, self.head, 1,
                                 f"object {x} has no image")
        for a in self.dom.arrows:
            if self.dom.is_identity_arrow(a):
                x = self.dom.source[a]
                self.arrow_map[a] = \
                    self.cod.identity_of[self.object_map[x]]
            elif a not in self.arrow_map:
                raise ParseError(path, self.head, 1,
                                 f"arrow {a} has no image")
        f = GroupoidMorphism(self.dom, self.cod, self.object_map,
                             self.arrow_map, name=self.name)
        problems = validate_morphism(f)
        if problems:
            raise ParseError(path, self.head, 1,
                             f"{self.name}: {problems[0]}")
        self.parsed.add(self.name, "morphism", f, self.head)


_BLOCKS = {
    "groupoid": _GroupoidBlock,
    "action": _ActionBlock,
    "graph": _GraphBlock,
    "presentation": _PresentationBlock,
    "morphism": _MorphismBlock,
}


def _token(name, what):
    if not name or any(ch.isspace() for ch in name) or "#" in name:
        raise ValueError(f"{what} {name!r} cannot be written to the text "
                         f"format (whitespace or '#')")
    if what in ("edge", "generator") and name.startswith("-"):
        raise ValueError(f"{what} {name!r} cannot be written to the text "
                         f"format (a leading '-' marks an inverse letter)")
    return name


class _Emitter:
    def __init__(self):
        self.chunks = []
        self.seen_ids = {}
        self.names = {}

    def text(self):
        return "\n\n".join(self.chunks) + "\n"

    def emit(self, entity):
        if id(entity) in self.seen_ids:
            return self.seen_ids[id(entity)]
        if isinstance(entity, FiniteGroupoid):
            name = self._register(entity, entity.name)
            self.chunks.append(self._groupoid(entity, name))
        elif isinstance(entity, GroupoidAction):
            name = self._action(entity)
        elif isinstance(entity, GraphAction):
            name = self._graph_action(entity)
        elif isinstance(entity, PresentedGroupoid):
            name = self._register(entity, entity.name)
            # references to the bare underlying graph resolve to this block
            self.seen_ids.setdefault(id(entity.graph), name)
            self.chunks.append(self._graph(entity.graph, entity.relators,
                                           name))
        elif isinstance(entity, DirectedGraph):
            name = self._register(entity, entity.name)
            self.chunks.append(self._graph(entity, (), name))
        elif isinstance(entity, GroupPresentation):
            name = self._register(entity, entity.name)
            self.chunks.append(self._presentation(entity, name))
        elif isinstance(entity, GroupoidMorphism):
            name = self._morphism(entity)
        else:
            raise ValueError(
                f"cannot emit {type(entity).__name__} to the text format")
        return name

    def _register(self, entity, name):
        name = _token(name, "entity name")
        if name in self.names:
            raise ValueError(f"two entities would be emitted as {name}")
        self.names[name] = entity
        self.seen_ids[id(entity)] = name
        return name

    def _groupoid(self, g, name):
        lines = [f"groupoid {name}"]
        lines.append("objects " + " ".join(
            _token(x, "object") for x in g.objects))
        non_identity = [u for u in g.arrows if not g.is_identity_arrow(u)]
        for u in non_identity:
            _token(u, "arrow")
            lines.append(f"arrow {u} : {g.source[u]} -> {g.target[u]}")
        for u in non_identity:
            v = g.inverse_of[u]
            if g.arrow_index[u] <= g.arrow_index[v]:
                lines.append(f"inverse {u} {v}")
        for v in g.arrows:
            for u in g.arrows:
                if g.target[u] != g.source[v]:
                    continue
                if g.is_identity_arrow(v) or g.is_identity_arrow(u):
                    continue
                if v == g.inverse_of[u]:
                    continue
                lines.append(f"compose {v} {u} = {g.compose[(v, u)]}")
        return "\n".join(lines)

    def _group_block(self, act):
        if act.group_groupoid is not None:
            return self.emit(act.group_groupoid), act.group.identity
        gpd = groupoid_from_group(act.group, name=f"{act.group.name}-gpd")
        return self.emit(gpd), act.group.identity

    def _action(self, act):
        sp = act.space
        space_name = self.emit(sp)
        group_name, identity = self._group_block(act)
        name = self._register(act, act.name)
        lines = [f"action {name} on {space_name} by {group_name}"]
        for g in act.group.elements:
            if g == identity:
                continue
            for x in sp.objects:
                y = act.act_obj[(g, x)]
                if y != x:
                    lines.append(f"obj {g} : {x} -> {y}")
        for g in act.group.elements:
            if g == identity:
                continue
            for a in sp.arrows:
                if sp.is_identity_arrow(a):
                    continue
                b = act.act_arrow[(g, a)]
                if b != a:
                    lines.append(f"arr {g} : {a} -> {b}")
        self.chunks.append("\n".join(lines))
        return name

    def _graph_action(self, act):
        graph_name = self.emit(act.graph)
        group_name, identity = self._group_block(act)
        name = self._register(act, act.name)
        lines = [f"action {name} on {graph_name} by {group_name}"]
        for g in act.group.elements:
            if g == identity:
                continue
            for v in act.graph.vertices:
                w = act.act_vertex[(g, v)]
                if w != v:
                    lines.append(f"obj {g} : {v} -> {w}")
        for g in act.group.elements:
            if g == identity:
                continue
            for e in act.graph.edges:
                tok = act.act_edge[(g, e)]
                if tok != e:
                    lines.append(f"act {g} : {e} -> {tok}")
        self.chunks.append("\n".join(lines))
        return name

    def _graph(self, graph, relators, name):
        lines = [f"graph {name}"]
        if graph.vertices:
            lines.append("vertex " + " ".join(
                _token(v, "vertex") for v in graph.vertices))
        for e in graph.edges:
            _token(e, "edge")
            lines.append(f"edge {e} : {graph.source[e]} -> {graph.target[e]}")
        for w in relators:
            lines.append("relator " + " ".join(
                (e if s > 0 else f"-{e}") for (e, s) in w.letters))
        return "\n".join(lines)

    def _presentation(self, pres, name):
        lines = [f"presentation {name}"]
        if pres.generators:
            lines.append("generators " + " ".join(
                _token(g, "generator") for g in pres.generators))
        for r in pres.relators:
            lines.append("relator " + " ".join(
                (g if s > 0 else f"-{g}") for (g, s) in r))
        return "\n".join(lines)

    def _morphism(self, f):
        dom_name = self.emit(f.dom)
        cod_name = self.emit(f.cod)
        name = self._register(f, f.name)
        lines = [f"morphism {name} : {dom_name} -> {cod_name}"]
        for x in f.dom.objects:
            lines.append(f"obj {x} -> {f.object_map[x]}")
        for a in f.dom.arrows:
            if not f.dom.is_identity_arrow(a):
                lines.append(f"arr {a} -> {f.arrow_map[a]}")
        self.chunks.append("\n".join(lines))
        return name


def render_entities(entities):
    """Serialize entities (with their prerequisites) to the text format."""
    emitter = _Emitter()
    for entity in entities:
        emitter.emit(entity)
    return emitter.text()
