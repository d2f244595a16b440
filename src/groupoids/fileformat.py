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
follow the object map.  An action's graph block may not have relators.
'#' starts a comment; names must be free of whitespace and '#', and edge
and generator names may not start with '-', which marks an inverse letter.
Every entity is validated on load, and blocks may only refer to entities
defined earlier in the file.  An error in a line points at that line; a
problem of the whole block (a missing inverse, composition or image, a
failed axiom, a duplicate entity name) points at the block's header line,
column 1.  A clean groupoid or action block (one space between tokens, no
comment, line kinds in the order above, the last line with or without its
newline) is read in bulk, and any other block, or a clean one on any doubt,
line by line, with the same tables and errors.  The bulk reader matches
each line kind in runs of at most 1024 lines, so the regex engine holds no
state for more lines than that, and puts a groupoid's compose lines into
its table in one update.

The emitter writes this same format back, skipping everything implied, so
emitting a parsed emission is byte-identical.  It runs every check first and
then streams the text to a handle, a block's head and a compose row at a
time (entity_writer); render_entities gives the same text as a string.
"""

from __future__ import annotations

import io
import re
from itertools import chain
from operator import itemgetter

from .actions import GroupoidAction, validate_action
from .catalog import group_of_one_object_groupoid, groupoid_from_group
from .core import (FiniteGroupoid, GroupoidMorphism, validate_groupoid,
                   validate_morphism)
from .presented import (DirectedGraph, GraphAction, GroupPresentation,
                        PresentedGroupoid, validate_graph_action)


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
        problem = self._problem(name, kind)
        if problem:
            raise ValueError(f"{self.path}: {problem}")
        return self.entities[name]

    def _problem(self, name, kind):
        """Why name names no entity of this kind (of any kind if kind is
        None), or None."""
        if name not in self.entities:
            return f"no entity named {name}"
        if kind is not None and self.kinds[name] != kind:
            return f"{name} is a {self.kinds[name]}, not a {kind}"
        return None

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
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise UnreadableInput(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise UnreadableInput(
            f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_text(text, path=path)


def parse_text(text, path="<input>"):
    """The entities that text defines, read as the file path.  Clean groupoid
    and action blocks are read in bulk (see _Block.bulk), any other block, or
    a clean one again on any doubt, line by line; only the line reader raises
    errors, so the tables, or the error and its place, are the same."""
    parsed = ParsedFile(path)
    block = line = None
    at = line_no = 0
    while at <= len(text):
        line_no += 1
        stop = text.find("\n", at) + 1 or len(text) + 1
        raw, at = text[at:stop - 1], stop
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0] in _BLOCKS:
            if block is not None:
                block.finish()
            block = _BLOCKS[tokens[0]](parsed, text, tokens, line_no)
            end = block.bulk(at)
            if end is not None:
                line_no += text.count("\n", at, end)
                at, block = end, None
                continue
            block = _BLOCKS[tokens[0]](parsed, text, tokens, line_no)
            line = block.line
        elif block is None:
            raise ParseError(path, line_no, _column(raw),
                             f"expected a block header, got {tokens[0]}")
        else:
            line(tokens, line_no)
    if block is not None:
        block.finish()
    return parsed


def _column(line):
    """The column of the first token of line."""
    return len(line) - len(line.lstrip()) + 1


# Prefixes that a new name of this kind may not start with, and why: as
# the parser words it, and as the emitter does.
_RESERVED = ("id_", "uses the reserved id_ prefix",
             "the id_ prefix is reserved")
_INVERSE_MARK = ("-", "starts with '-', which marks an inverse letter",
                 "a leading '-' marks an inverse letter")
_BANNED = {"object": _RESERVED, "arrow": _RESERVED,
           "edge": _INVERSE_MARK, "generator": _INVERSE_MARK}

_IDENTITY_IMAGE = "identity arrow images follow the object map; remove " \
    "this line"


def _getter(positions):
    """A function of a sequence (a token list, a compose row) that gives its
    items at positions in a sequence; a bare itemgetter would give a single
    item unwrapped."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions
                      else slice(0))


def _rule(usage, handler=None):
    """Compile a usage string into (arity, fixed tokens, their getter,
    the wildcards' getter, usage, handler).  Upper-case words are
    wildcards, a final "..." takes any number of further tokens (arity
    None), and an "or" clause only shows in the error message.  The first
    word is left out of the fixed tokens, since it chose the rule."""
    words = usage.split(" or ")[0].split()
    if words[-1] == "...":
        return None, [], _getter(()), itemgetter(slice(1, None)), usage, \
            handler
    get_fixed = _getter([i for i, w in enumerate(words)
                         if i and not w.isupper()])
    get_slots = _getter([i for i, w in enumerate(words) if w.isupper()])
    return len(words), get_fixed(words), get_fixed, get_slots, usage, handler


class _Block:
    """A block: the header line, the body lines, and at the end the entity.

    A subclass gives the header's usage (its first word is the block kind,
    its first wildcard the entity name) and one usage per line kind; a line
    starting with WORD goes to do_WORD with the line's wildcard tokens.  The
    header is matched as a line too, and start() takes its other wildcards;
    build() returns the entity and its validator's problems.

    Errors point at the current line, and during build() at the header line,
    column 1, or at the line a record of it names.  Only the line number is
    kept: the column is worked out from the input text when the error is
    raised.
    """

    header = ""
    grammar = ()
    fill = None               # fills the tables from clean lines' tokens

    def __init_subclass__(cls):
        cls.kind = cls.header.split()[0]
        # a line starting with the kind word opens a new block, so the
        # header's rule is reached only from __init__
        cls.rules = {cls.kind: _rule(cls.header, cls.do_header)}
        for usage in cls.grammar:
            word = usage.split()[0]
            cls.rules[word] = _rule(usage, getattr(cls, f"do_{word}"))
        article = "an" if cls.kind[0] in "aeiou" else "a"
        cls.unexpected = f"in {article} {cls.kind} block"

    def __init__(self, parsed, text, tokens, line_no):
        self.parsed = parsed
        self.text = text
        self.head = line_no
        self.line(tokens, line_no)

    def do_header(self, name, *refs):
        self.name = name
        self.start(*refs)

    def fail(self, message, line_no=None):
        """Raise at line_no, else at the current line, or at the header
        line, column 1, when there is none (during build())."""
        line_no = line_no or self.at
        if line_no is None:
            at = (self.head, 1)
        else:
            at = (line_no, _column(self.text.split("\n")[line_no - 1]))
        raise ParseError(self.parsed.path, *at, message) from None

    def line(self, tokens, line_no):
        self.at = line_no
        rule = self.rules.get(tokens[0])
        if rule is None:
            self.fail(f"unexpected {tokens[0]} {self.unexpected}")
        arity, fixed, get_fixed, get_slots, usage, handler = rule
        if (arity is None or len(tokens) == arity) and \
                get_fixed(tokens) == fixed:
            return handler(self, *get_slots(tokens))
        self.fail(f"expected: {usage}")

    def known(self, what, pool, *names):
        for name in names:
            if name not in pool:
                self.fail(f"unknown {what} {name}")

    def fresh(self, what, pool, name):
        """Check that name may be introduced as a new what."""
        if name in pool:
            self.fail(f"duplicate {what} {name}")
        banned = _BANNED.get(what)
        if banned and name.startswith(banned[0]):
            self.fail(f"{what} {name} {banned[1]}")

    def entity(self, name, kind):
        problem = self.parsed._problem(name, kind)
        if problem:
            self.fail(problem)
        return self.parsed.entities[name]

    def bulk(self, pos):
        """Read the body from pos and finish the block, if the body is clean
        (so reading kind by kind is reading in file order) and fill(), given
        each kind's tokens by wildcard, finds the names good.  Return where
        the body ends, or None on any doubt; the line reader then reads the
        block again, on a fresh block object.

        The body is each kind's clean lines in grammar order, matched a run
        of at most 1024 lines at a time (self.runs), so the regex engine
        holds no state for more lines than that; then blank lines, and a
        header or the end.  The last line may lack its newline."""
        if not self.fill:
            return None
        text, at, spans = self.text, pos, []
        for run in self.runs:
            start, match = at, re.compile(run).match
            while (end := match(text, at).end()) > at:
                at = end
            spans.append((start, at))
        body = re.compile(_BODY_END).match(text, at)
        if not body or text.find("#", pos, body.end()) >= 0:
            return None
        try:
            # no name holds the lines or lists, so they go after fill()
            if self.fill(*[
                    [re.findall(r" (\S+)", lines)] if w[-1] == "..." else
                    [tokens[i::len(w)] for i, x in enumerate(w) if x.isupper()]
                    for (start, end), usage in zip(spans, self.grammar)
                    for lines in [text[start:end]]
                    for w in [usage.split(" or ")[0].split()]
                    for tokens in [lines.split()]]):
                self.finish()
                return body.end()
        except ParseError:
            pass
        return None

    def finish(self):
        self.at = None
        entity, problems = self.build()
        if problems:
            self.fail(f"{self.name}: {problems[0]}")
        self.parsed.add(self.name, self.kind, entity, self.head)


class _GroupoidBlock(_Block):
    header = "groupoid NAME"
    grammar = ("objects ...", "arrow NAME : SRC -> TGT", "inverse A B",
               "compose V U = W")

    def start(self):
        self.objects = {}         # object -> None, in order
        self.arrows = []          # non-identity arrows
        self.names = set()        # all arrow names, identities included
        self.source = {}
        self.target = {}
        self.inverse = {}
        self.compose_lines = []   # (v, u, w, line)
        self.columns = None       # fill()'s compose columns v, u, w

    def do_objects(self, *names):
        for x in names:
            self.fresh("object", self.objects, x)
            self.objects[x] = None
            self.names.add(f"id_{x}")

    def do_arrow(self, name, src, tgt):
        self.fresh("arrow", self.source, name)
        self.known("object", self.objects, src, tgt)
        self.arrows.append(name)
        self.names.add(name)
        self.source[name] = src
        self.target[name] = tgt

    def do_inverse(self, a, b):
        self.known("arrow", self.source, a, b)
        if self.source[a] != self.target[b] or \
                self.target[a] != self.source[b]:
            self.fail(f"inverse pair {a} {b} has mismatched endpoints")
        for u, v in ((a, b), (b, a)):
            if self.inverse.get(u, v) != v:
                self.fail(f"conflicting inverse for {u}")
            self.inverse[u] = v

    def do_compose(self, v, u, w):
        self.known("arrow", self.names, v, u, w)
        self.compose_lines.append((v, u, w, self.at))

    def fill(self, objects, arrows, inverses, composes):
        """Name lines go to the handlers; compose lines are checked as sets
        and kept as their three columns, for build() to put in the table
        whole."""
        self.do_objects(*objects[0])
        for line in zip(*arrows):
            self.do_arrow(*line)
        for line in zip(*inverses):
            self.do_inverse(*line)
        self.columns = composes
        return all(map(self.names.issuperset, composes))

    def build(self):
        identity_of = {x: f"id_{x}" for x in self.objects}
        idents = [identity_of[x] for x in self.objects]
        source = {identity_of[x]: x for x in self.objects}
        target = {identity_of[x]: x for x in self.objects}
        source.update(self.source)
        target.update(self.target)
        inverse = {identity_of[x]: identity_of[x] for x in self.objects}
        for u in self.arrows:
            if u not in self.inverse:
                self.fail(f"arrow {u} has no declared inverse")
        inverse.update(self.inverse)
        arrows = idents + self.arrows

        compose = {}
        for u in arrows:
            compose[(u, identity_of[source[u]])] = u
            compose[(identity_of[target[u]], u)] = u
            compose[(u, inverse[u])] = identity_of[target[u]]
            compose[(inverse[u], u)] = identity_of[source[u]]
        if self.columns is not None:
            # read in bulk: an entry given twice, or also implied, shows as
            # a short table, and a pair that does not compose as a problem
            # of validate_groupoid; either sends the block to the line
            # reader, which words it
            vs, us, ws = self.columns
            implied = len(compose)
            compose.update(zip(zip(vs, us), ws))
            if len(compose) != implied + len(ws):
                self.fail("a compose line repeats an entry")
        for (v, u, w, line) in self.compose_lines:
            if target[u] != source[v]:
                self.fail(f"compose {v} {u}: not composable", line)
            if compose.setdefault((v, u), w) != w:
                self.fail(f"compose {v} {u} = {w} contradicts an implied "
                          f"composition", line)
        # the line records are freed before the groupoid is validated
        self.compose_lines = self.columns = None
        gpd = FiniteGroupoid(self.objects, arrows, source, target,
                             identity_of, inverse, compose, name=self.name)
        return gpd, validate_groupoid(gpd)


def _with_fixed(group, names, listed):
    """The image of every (g, name): the listed one, else name itself."""
    return {(g, x): listed.get((g, x), x)
            for g in group.elements for x in names}


def _refuse(message):
    """A rule that takes a line of any shape and fails with message."""
    def handler(self, *_tokens):
        self.fail(message)
    return _rule("...", handler)


class _ActionBlock(_Block):
    header = "action NAME on TARGET by GROUP"
    grammar = ("obj G : X -> Y", "arr G : A -> B",
               "act G : E -> F or act G : E -> -F")

    def start(self, target, group):
        self.target_kind = self.parsed.kinds.get(target)
        if self.target_kind is None:
            self.fail(f"unknown target {target}")
        if self.target_kind not in ("groupoid", "graph"):
            self.fail(f"{target} is not a groupoid or graph")
        space = self.parsed.entities[target]
        if self.target_kind == "graph":
            if space.relators:
                self.fail(f"graph {target} has relators; an action needs a "
                          f"graph without relators")
            space = space.graph
            self.rules = self.graph_rules
            self.cells = (space.vertices, space.edges)
            self.points = set(space.vertices)
            # every edge letter an act line may name as an image
            self.letters = {*space.edges, *(f"-{e}" for e in space.edges)}
        else:
            self.rules = self.groupoid_rules
            self.cells = (space.objects, space.arrows)
            self.points = space.object_index
            self.moving = space.arrow_index.keys() - space.identity_of.values()
        self.space = space
        self.group_groupoid = self.entity(group, "groupoid")
        if len(self.group_groupoid.objects) != 1:
            self.fail(f"group block {group} must have exactly one object")
        self.group = group_of_one_object_groupoid(self.group_groupoid)
        self.acting = self.group.index.keys() - {self.group.identity}
        self.obj_lines = {}
        self.arr_lines = {}       # arr or act lines, by the target's kind

    def do_obj(self, g, x, y):
        self.element(g)
        self.known("object", self.points, x, y)
        self.image(self.obj_lines, g, x, y)

    def do_arr(self, g, a, b):
        self.element(g)
        self.known("arrow", self.space.arrow_index, a, b)
        if a not in self.moving:
            self.fail(_IDENTITY_IMAGE)
        self.image(self.arr_lines, g, a, b)

    def do_act(self, g, e, f):
        self.element(g)
        self.known("edge", self.space.source, e, f.removeprefix("-"))
        self.image(self.arr_lines, g, e, f)

    def element(self, g):
        """Fail unless g is an element of the group other than the
        identity."""
        self.known("group element", self.group.index, g)
        if g == self.group.identity:
            self.fail("the identity element acts trivially; remove this "
                      "line")

    def image(self, images, g, a, b):
        """Record that g carries a to b."""
        if (g, a) in images:
            self.fail(f"duplicate image for {g} on {a}")
        images[(g, a)] = b

    def fill(self, objs, arrs, acts):
        """Each name must be in its pool, each (g, a) come once, and no line
        be of the kind that the target refuses."""
        lines, pools = (acts, (self.space.source, self.letters)) \
            if self.target_kind == "graph" else \
            (arrs, (self.moving, self.space.arrow_index))
        self.obj_lines = dict(zip(zip(*objs[:2]), objs[2]))
        self.arr_lines = dict(zip(zip(*lines[:2]), lines[2]))
        pools = (self.acting, self.points, self.points, self.acting, *pools)
        return len(self.obj_lines) + len(self.arr_lines) == len(objs[0]) + \
            len(arrs[0]) + len(acts[0]) and all(
                all(map(pool.__contains__, names))
                for pool, names in zip(pools, objs + lines))

    def build(self):
        G, sp = self.group, self.space
        points, arrows = self.cells
        act_obj = _with_fixed(G, points, self.obj_lines)
        if self.target_kind == "graph":
            kind, validate = GraphAction, validate_graph_action
        else:
            kind, validate = GroupoidAction, validate_action
            # identity arrows follow the object map
            for (g, x), y in act_obj.items():
                self.arr_lines[(g, sp.identity_of[x])] = sp.identity_of[y]
        act = kind(G, sp, act_obj, _with_fixed(G, arrows, self.arr_lines),
                   name=self.name, group_groupoid=self.group_groupoid)
        return act, validate(act)


# lines that do not fit the target's kind fail whatever their shape
_ActionBlock.graph_rules = {
    **_ActionBlock.rules,
    "arr": _refuse("arr lines need a groupoid target; use act lines for "
                   "graph edges")}
_ActionBlock.groupoid_rules = {
    **_ActionBlock.rules,
    "act": _refuse("act lines need a graph target; use arr lines for "
                   "groupoid arrows")}


class _GraphBlock(_Block):
    header = "graph NAME"
    grammar = ("vertex ...", "edge NAME : SRC -> TGT", "relator ...")

    def start(self):
        self.vertices = {}        # vertex -> None, in order
        self.edges = []
        self.source = {}
        self.target = {}
        self.relator_lines = []   # (tokens, line)

    def do_vertex(self, *names):
        for v in names:
            self.fresh("vertex", self.vertices, v)
            self.vertices[v] = None

    def do_edge(self, name, src, tgt):
        self.fresh("edge", self.source, name)
        self.known("vertex", self.vertices, src, tgt)
        self.edges.append(name)
        self.source[name] = src
        self.target[name] = tgt

    def do_relator(self, *tokens):
        if not tokens:
            self.fail("relator needs at least one edge token")
        self.relator_lines.append((tokens, self.at))

    def build(self):
        graph = DirectedGraph(self.vertices, self.edges, self.source,
                              self.target, name=self.name)
        relators = []
        for (tokens, line) in self.relator_lines:
            try:
                word = graph.word(tokens)
            except ValueError as exc:
                self.fail(str(exc), line)
            if word.source != word.target:
                self.fail(f"relator is not a loop "
                          f"({word.source} -> {word.target})", line)
            relators.append(word)
        return PresentedGroupoid(graph, relators, name=self.name), ()


class _PresentationBlock(_Block):
    header = "presentation NAME"
    grammar = ("generators ...", "relator ...")

    def start(self):
        self.gens = {}            # generator -> None, in order
        self.relators = []

    def do_generators(self, *names):
        for g in names:
            self.fresh("generator", self.gens, g)
            self.gens[g] = None

    def do_relator(self, *tokens):
        if not tokens:
            self.fail("relator needs at least one token")
        letters = tuple((t.removeprefix("-"), -1 if t.startswith("-") else 1)
                        for t in tokens)
        self.known("generator", self.gens, *(g for g, _sign in letters))
        self.relators.append(letters)

    def build(self):
        return GroupPresentation(self.gens, self.relators,
                                 name=self.name), ()


class _MorphismBlock(_Block):
    header = "morphism NAME : SRC -> DST"
    grammar = ("obj X -> Y", "arr A -> B")

    def start(self, src, dst):
        self.dom = self.entity(src, "groupoid")
        self.cod = self.entity(dst, "groupoid")
        self.object_map = {}
        self.arrow_map = {}

    def do_obj(self, x, y):
        self.known("object", self.dom.object_index, x)
        self.known("object", self.cod.object_index, y)
        if x in self.object_map:
            self.fail(f"duplicate image for object {x}")
        self.object_map[x] = y

    def do_arr(self, a, b):
        self.known("arrow", self.dom.arrow_index, a)
        self.known("arrow", self.cod.arrow_index, b)
        if self.dom.is_identity_arrow(a):
            self.fail(_IDENTITY_IMAGE)
        if a in self.arrow_map:
            self.fail(f"duplicate image for arrow {a}")
        self.arrow_map[a] = b

    def build(self):
        for x in self.dom.objects:
            if x not in self.object_map:
                self.fail(f"object {x} has no image")
        for a in self.dom.arrows:
            if self.dom.is_identity_arrow(a):
                x = self.dom.source[a]
                self.arrow_map[a] = \
                    self.cod.identity_of[self.object_map[x]]
            elif a not in self.arrow_map:
                self.fail(f"arrow {a} has no image")
        f = GroupoidMorphism(self.dom, self.cod, self.object_map,
                             self.arrow_map, name=self.name)
        return f, validate_morphism(f)


_BLOCKS = {cls.kind: cls for cls in (_GroupoidBlock, _ActionBlock, _GraphBlock,
                                     _PresentationBlock, _MorphismBlock)}
# A clean body (see _Block.bulk): the clean lines of each kind in grammar
# order (tokens one space apart, no other whitespace), blank lines, then a
# header or the end.
for kind in _BLOCKS.values():
    kind.runs = ["(?:%s(?:\n|\\Z)){0,1024}" % " ".join(
        r"\S+" if w.isupper() else w
        for w in usage.split(" or ")[0].split()).replace(" ...", r"(?: \S+)*")
        for usage in kind.grammar]
_BODY_END = rf"\n*(?=\Z|(?:{'|'.join(_BLOCKS)}) )"


def _unwritable(what, name, why):
    return ValueError(f"{what} {name!r} cannot be written to the text "
                      f"format ({why})")


def _token(name, what):
    """name, if the parser reads it back unchanged as a new what."""
    # str.split cuts at exactly the characters str.isspace accepts, and a
    # name it leaves whole is one nonempty token
    if name.split() != [name] or "#" in name:
        raise _unwritable(what, name, "whitespace or '#'")
    banned = _BANNED.get(what)
    if banned and name.startswith(banned[0]):
        raise _unwritable(what, name, banned[2])
    return name


def _relator(letters):
    return "relator " + " ".join(
        (e if s > 0 else f"-{e}") for (e, s) in letters)


def _compose_rows(g, arrows, identities):
    """The compose lines of each of arrows, one string per row, a newline
    before each line; an entry that the identity or inverse laws imply is
    left out.  Each row is one join over (separator, "u = ", v + u)
    triples, with "u = " made once per source object."""
    inverse, into = g.inverse_of, {}
    for v in arrows:
        y = g.source[v]
        if y not in into:
            costar = g.costar(y)
            keep = [k for k, u in enumerate(costar) if u not in identities]
            into[y] = ([f"{costar[k]} = " for k in keep], _getter(keep),
                       {costar[k]: 3 * i for i, k in enumerate(keep)})
        heads, get, slot = into[y]
        parts = [f"\ncompose {v} "] * (3 * len(heads))
        parts[1::3] = heads
        parts[2::3] = get(g.compose_row(v))
        # v + (-v) is implied
        at = slot[inverse[v]]
        del parts[at:at + 3]
        yield "".join(parts)


class _Emitter:
    """Entities in the text format, in two passes.  emit() runs every check
    that can fail (names, the id_x rule, two blocks under one name) and
    keeps each block as a function that renders it; write() then writes
    the blocks as they are rendered, so an error leaves nothing written and
    the text is never held whole."""

    def __init__(self):
        # id of each emitted entity -> (the entity, its name); holding the
        # entity keeps a freed temporary's id from being reused
        self.seen = {}
        # name -> a function giving its block's chunks, in emission order
        self.blocks = {}

    def write(self, handle):
        """Write the blocks to handle, a blank line between two and a
        newline after the last."""
        sep = ""
        for block in self.blocks.values():
            handle.write(sep)
            handle.writelines(block())
            sep = "\n\n"
        handle.write("\n")

    def emit(self, entity):
        if id(entity) in self.seen:
            return self.seen[id(entity)][1]
        if isinstance(entity, FiniteGroupoid):
            name = self._register(entity, self._groupoid, entity)
        elif isinstance(entity, (GroupoidAction, GraphAction)):
            name = self._action(entity)
        elif isinstance(entity, PresentedGroupoid):
            name = self._register(entity, self._graph, entity.graph,
                                  entity.relators)
            if not entity.relators:
                # references to the bare underlying graph resolve to this
                # block; an action may not name a block with relators
                self.seen.setdefault(id(entity.graph), (entity.graph, name))
        elif isinstance(entity, DirectedGraph):
            name = self._register(entity, self._graph, entity, ())
        elif isinstance(entity, GroupPresentation):
            name = self._register(entity, self._presentation, entity)
        elif isinstance(entity, GroupoidMorphism):
            name = self._morphism(entity)
        else:
            raise ValueError(
                f"cannot emit {type(entity).__name__} to the text format")
        return name

    def _register(self, entity, render, *args):
        """Keep render(*args, name), the block's chunks, under the entity's
        name, which only an identical block may already hold (so equal
        groups share one).  render checks the block's names when called
        and may leave its chunks to be computed as they are read; only two
        blocks under one name are rendered whole, to compare them."""
        name = _token(entity.name, "entity name")
        chunks = render(*args, name)
        if name not in self.blocks:
            self.blocks[name] = lambda: render(*args, name)
        elif "".join(self.blocks[name]()) != "".join(chunks):
            raise ValueError(f"two entities would be emitted as {name}")
        self.seen[id(entity)] = (entity, name)
        return name

    def _groupoid(self, g, name):
        """The head (header, objects, arrow and inverse lines), checked and
        joined now, then the compose rows, computed as they are read."""
        lines = [f"groupoid {name}"]
        if g.objects:
            lines.append("objects " + " ".join(
                _token(x, "object") for x in g.objects))
        for x, u in g.identity_of.items():
            if u != f"id_{x}":
                raise _unwritable("arrow", u, f"the identity at {x} must be "
                                  f"named id_{x}")
        identities = set(g.identity_of.values())
        non_identity = [u for u in g.arrows if u not in identities]
        for u in non_identity:
            _token(u, "arrow")
            lines.append(f"arrow {u} : {g.source[u]} -> {g.target[u]}")
        inverse, at = g.inverse_of, g.arrow_index
        lines += [f"inverse {u} {inverse[u]}" for u in non_identity
                  if at[u] <= at[inverse[u]]]
        return chain(("\n".join(lines),),
                     _compose_rows(g, non_identity, identities))

    def _action(self, act):
        if isinstance(act, GraphAction):
            space = act.graph
            maps = (("obj", space.vertices, act.act_vertex),
                    ("act", space.edges, act.act_edge))
        else:
            space = act.space
            maps = (("obj", space.objects, act.act_obj),
                    ("arr", [a for a in space.arrows
                             if not space.is_identity_arrow(a)],
                     act.act_arrow))
        space_name = self.emit(space)
        group_name = self.emit(act.group_groupoid or groupoid_from_group(
            act.group, name=f"{act.group.name}-gpd"))

        def block(name):
            # no name to check: the block is made when it is written
            lines = [f"action {name} on {space_name} by {group_name}"]
            for word, names, image in maps:
                for g in act.group.elements:
                    if g == act.group.identity:
                        continue
                    for x in names:
                        y = image[(g, x)]
                        if y != x:
                            lines.append(f"{word} {g} : {x} -> {y}")
            yield "\n".join(lines)
        return self._register(act, block)

    def _graph(self, graph, relators, name):
        lines = [f"graph {name}"]
        if graph.vertices:
            lines.append("vertex " + " ".join(
                _token(v, "vertex") for v in graph.vertices))
        for e in graph.edges:
            _token(e, "edge")
            lines.append(f"edge {e} : {graph.source[e]} -> {graph.target[e]}")
        lines.extend(_relator(w.letters) for w in relators)
        # as small as its input: made whole with its checks
        return ("\n".join(lines),)

    def _presentation(self, pres, name):
        lines = [f"presentation {name}"]
        if pres.generators:
            lines.append("generators " + " ".join(
                _token(g, "generator") for g in pres.generators))
        lines.extend(_relator(r) for r in pres.relators)
        return ("\n".join(lines),)

    def _morphism(self, f):
        dom_name = self.emit(f.dom)
        cod_name = self.emit(f.cod)

        def block(name):
            # as for an action, made when it is written
            lines = [f"morphism {name} : {dom_name} -> {cod_name}"]
            for x in f.dom.objects:
                lines.append(f"obj {x} -> {f.object_map[x]}")
            for a in f.dom.arrows:
                if not f.dom.is_identity_arrow(a):
                    lines.append(f"arr {a} -> {f.arrow_map[a]}")
            yield "\n".join(lines)
        return self._register(f, block)


def entity_writer(entities):
    """Check that entities (with their prerequisites) can be written in the
    text format, and return a function that writes them to a text handle.
    Every ValueError is raised here, before a byte is written, and the
    writer never holds the whole text: a groupoid block goes out a compose
    row at a time."""
    emitter = _Emitter()
    for entity in entities:
        emitter.emit(entity)
    return emitter.write


def render_entities(entities):
    """Serialize entities (with their prerequisites) to the text format."""
    out = io.StringIO()
    entity_writer(entities)(out)
    return out.getvalue()
