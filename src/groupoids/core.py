"""Finite groupoids, group tables, morphisms, and structural predicates.

Composition is written additively and runs right to left: ``compose[(v, u)]``
is ``v + u``, the arrow that traverses ``u`` first and then ``v``.  It is
defined exactly when ``target(u) == source(v)``.

Objects and arrows are opaque strings.  Input order is the canonical order and
is used for every deterministic tie-break in this package; no operation ever
iterates an unordered set to produce output.

The entity constructors (FiniteGroupoid, GroupTable, GroupoidMorphism, and
GroupoidAction, DirectedGraph and GraphAction elsewhere) keep the mappings
they are given, not copies, and store objects, arrows and elements as tuples.
A table once handed over is not written to; no code in this package does so.
So a verdict on an entity depends on that entity alone, and two are computed
once and kept on it: validate_action's (and validate_graph_action's) list of
problems, and the generating set _generators picks for a groupoid.  A caller
who wants different tables builds a new entity.  Two derived tables are
computed on lookup, not stored, each a _Table: direct_product_group's and
K(x)'s in constructions.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from itertools import product, repeat
from operator import itemgetter


class SizeCapError(ValueError):
    """An operation was asked to exceed one of its documented size caps."""


# Soft cap for isomorphism search; inputs above this raise SizeCapError.
ISO_ARROW_CAP = 64


class FiniteGroupoid:
    """A finite groupoid given by explicit enumeration of its tables.

    Fields mirror the data: objects, arrows, source/target maps, one identity
    arrow per object, an inverse involution, and a composition table keyed by
    ``(v, u)`` with value ``v + u``.  The constructor only stores and indexes;
    run validate_groupoid to check the axioms.  The tables are kept as given
    (see the module docstring).
    """

    def __init__(self, objects, arrows, source, target, identity_of,
                 inverse_of, compose, name="G"):
        self.name = name
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        self.source = source
        self.target = target
        self.identity_of = identity_of
        self.inverse_of = inverse_of
        self.compose = compose
        self.object_index = {x: i for i, x in enumerate(self.objects)}
        self.arrow_index = {u: i for i, u in enumerate(self.arrows)}
        if len(self.object_index) != len(self.objects):
            raise ValueError(f"{name}: duplicate object names")
        if len(self.arrow_index) != len(self.arrows):
            raise ValueError(f"{name}: duplicate arrow names")
        self._identities = set(self.identity_of.values())
        self._hom, self._star, self._costar = \
            _index(self.arrows, self.source, self.target)
        self._gens = None      # _generators(self), once picked

    def is_identity_arrow(self, u):
        return u in self._identities

    def hom(self, x, y):
        """Arrows x -> y in input order."""
        return tuple(self._hom.get((x, y), ()))

    def loops(self, x):
        return self.hom(x, x)

    def costar(self, x):
        """Arrows with target x, in input order."""
        return tuple(self._costar.get(x, ()))

    def compose_row(self, v):
        """v + u for the arrows u ending at the source of v, in costar
        order: here a tuple, one map of the table's lookup over the keys
        (v, u), and a missing entry raises KeyError."""
        return tuple(map(self.compose.__getitem__,
                         zip(repeat(v), self._costar.get(self.source[v], ()))))

    def __repr__(self):
        return (f"FiniteGroupoid({self.name!r}, {len(self.objects)} objects, "
                f"{len(self.arrows)} arrows)")


def _index(arrows, source, target):
    """Arrows by (source, target), by source and by target, in given order."""
    hom, out, into = {}, {}, {}
    for u in arrows:
        key = (source.get(u), target.get(u))
        hom.setdefault(key, []).append(u)
        out.setdefault(key[0], []).append(u)
        into.setdefault(key[1], []).append(u)
    return hom, out, into


def star(g, x):
    """All arrows with source x, in input order."""
    if x not in g.object_index:
        raise ValueError(f"{g.name}: unknown object {x}")
    return tuple(g._star.get(x, ()))


def classes(items, members_of):
    """Map each item to the first item of its class, in items order.

    Classes open in items order: an item not yet placed opens one, whose
    members are the item and members_of(item).  A class that meets an
    earlier class raises ValueError naming the first members of both.
    """
    first = {}
    for x in items:
        if x in first:
            continue
        first[x] = x
        for y in members_of(x):
            if first.setdefault(y, x) != x:
                raise ValueError(f"the classes of {first[y]} and {x} overlap")
    return {x: first[x] for x in items}


def blocks_by(items, key):
    """Group items by key[item]: lists in order of their first member, each
    in items order."""
    blocks = {}
    for x in items:
        blocks.setdefault(key[x], []).append(x)
    return list(blocks.values())


def components(g, arrows=None):
    """Partition of the objects into connected components.

    Only the given arrows of g (default: all) join objects.  Blocks are
    ordered by their first object in input order; members keep input order.
    """
    adjacent = {x: [] for x in g.objects}
    for u in g.arrows if arrows is None else arrows:
        adjacent[g.source[u]].append(g.target[u])
        adjacent[g.target[u]].append(g.source[u])

    def reach(x):
        seen = {x}
        queue = deque([x])
        while queue:
            for z in adjacent[queue.popleft()]:
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
        return seen
    return blocks_by(g.objects, classes(g.objects, reach))


def is_connected(g):
    return len(components(g)) <= 1


def is_discrete(g):
    """Only identity arrows."""
    return all(g.is_identity_arrow(u) for u in g.arrows)


def is_tree_groupoid(g):
    """Connected with exactly one arrow between each ordered pair of objects."""
    if not is_connected(g):
        return False
    return all(len(g.hom(x, y)) == 1 for x in g.objects for y in g.objects)


def validate_groupoid(g):
    """Return a list of violated invariants; empty means valid.

    The composition table is checked on rows: each arrow's row is read
    once (_table_rows), and the table holds when every row reads through
    to arrows with the right endpoints and the entries are as many as the
    composable pairs.  The scans of every entry and of every pair run only
    when that fails, to word the problems.  Associativity is checked with
    Light's test (A. H. Clifford and G. B. Preston, The Algebraic Theory
    of Semigroups I, 1961, section 1.2) on the same rows: only triples
    whose middle arrow lies in a generating set are tried.  The scan of
    every composable triple runs only to report failures, when Light's
    test finds one or an identity or inverse law already failed.  So the
    list is always the full scans'.
    """
    problems = []
    for x in g.objects:
        e = g.identity_of.get(x)
        if e is None:
            problems.append(f"no identity arrow at {x}")
        elif e not in g.arrow_index:
            problems.append(f"identity at {x} is not an arrow: {e}")
        elif g.source.get(e) != x or g.target.get(e) != x:
            problems.append(f"identity at {x} is not a loop at {x}")
    for u in g.arrows:
        if g.source.get(u) not in g.object_index:
            problems.append(f"arrow {u} has unknown source {g.source.get(u)}")
        if g.target.get(u) not in g.object_index:
            problems.append(f"arrow {u} has unknown target {g.target.get(u)}")
        v = g.inverse_of.get(u)
        if v is None or v not in g.arrow_index:
            problems.append(f"arrow {u} has no inverse")
        else:
            if g.source.get(v) != g.target.get(u) or g.target.get(v) != g.source.get(u):
                problems.append(f"inverse of {u} has wrong endpoints")
            if g.inverse_of.get(v) != u:
                problems.append(f"inverse is not an involution at {u}")
    if problems:
        return problems

    rows = _table_rows(g)
    if rows is None:
        # composition table keyed exactly by the composable pairs
        for (v, u), w in g.compose.items():
            if v not in g.arrow_index or u not in g.arrow_index:
                problems.append(f"compose({v}, {u}) involves unknown arrows")
                continue
            if g.target[u] != g.source[v]:
                problems.append(
                    f"compose({v}, {u}) defined but not composable")
                continue
            if w not in g.arrow_index:
                problems.append(f"compose({v}, {u}) = {w} is not an arrow")
            elif g.source[w] != g.source[u] or g.target[w] != g.target[v]:
                problems.append(
                    f"compose({v}, {u}) = {w} has wrong endpoints")
        for v in g.arrows:
            for u in g._costar.get(g.source[v], ()):
                if (v, u) not in g.compose:
                    problems.append(f"missing composition: compose {v} {u}")
        if problems:
            return problems

    for u in g.arrows:
        x, y = g.source[u], g.target[u]
        if g.compose[(u, g.identity_of[x])] != u:
            problems.append(f"{u} + id_{x} != {u}")
        if g.compose[(g.identity_of[y], u)] != u:
            problems.append(f"id_{y} + {u} != {u}")
        v = g.inverse_of[u]
        if g.compose[(u, v)] != g.identity_of[y]:
            problems.append(f"{u} + inverse({u}) is not the identity at {y}")
        if g.compose[(v, u)] != g.identity_of[x]:
            problems.append(f"inverse({u}) + {u} is not the identity at {x}")
    if problems or not _generators_associate(g, rows):
        problems.extend(_associativity_failures(g))
    return problems


def _table_rows(g):
    """Every arrow's row (compose_row, as a tuple), or None unless the
    table holds: every row reads through, its entry at u is an arrow from
    the source of u to the target of the row's arrow, and the table has
    as many entries as the rows, so no key off the composable pairs.  Each
    row is checked in one map over it of the number of each arrow's
    hom-set, compared with the numbers it should have (-1 for an empty
    hom-set, which no entry matches).  Expects known endpoints."""
    source, target, costar = g.source, g.target, g._costar
    hom = {}
    hom_of = {u: hom.setdefault((source[u], target[u]), len(hom))
              for u in g.arrows}
    rows, want, entries = {}, {}, 0
    for v in g.arrows:
        y, z = source[v], target[v]
        if (y, z) not in want:
            want[y, z] = [hom.get((source[u], z), -1)
                          for u in costar.get(y, ())]
        try:
            row = rows[v] = tuple(g.compose_row(v))
        except KeyError:
            return None
        if list(map(hom_of.get, row)) != want[y, z]:
            return None
        entries += len(row)
    return rows if len(g.compose) == entries else None


def _generators(g):
    """Arrows of g, in input order, that give every arrow of g from the
    identities under composition.

    An arrow joins when it is not yet a product of the identities and the
    earlier generators.  Expects a complete table with the right endpoints.
    The list is picked on the first call and kept on g, whose tables are
    not written once handed over (see the module docstring); every later
    call returns that same list, which callers only read.
    """
    if g._gens is None:
        g._gens = _pick_generators(g)
    return g._gens


def _pick_generators(g):
    """_generators' pick itself, run once per groupoid."""
    compose, source, target = g.compose, g.source, g.target
    products = set(g._identities)     # closed under w -> s + w, s in gens
    gens, gens_from = [], {}          # gens_from: object -> gens leaving it
    for s in g.arrows:
        if s in products:
            continue
        gens.append(s)
        gens_from.setdefault(source[s], []).append(s)
        fresh = [compose[(s, w)] for w in g._costar.get(source[s], ())
                 if w in products]
        while fresh:
            w = fresh.pop()
            if w in products:
                continue
            products.add(w)
            fresh.extend(compose[(t, w)] for t in gens_from.get(target[w], ()))
    return gens


def _generators_associate(g, rows=None):
    """Light's test: whether (w + s) + u == w + (s + u) for every s of
    _generators(g) and every composable w and u.

    The arrows s for which this holds are closed under composition, and
    contain the identities when the identity laws hold, so checking a
    generating set is enough.  The test compares rows: each arrow's row
    (compose_row, as a tuple) lists v + u over the costar of its source;
    rows maps arrows to them, as validate_groupoid has read them, and
    when it is None the rows needed are read here, once each.  For s from
    x to y, the row of w + s lists (w + s) + u over the costar of x; w's
    row, read at the positions in the costar of y of the entries s + u of
    s's row, lists w + (s + u).  So one itemgetter per s makes each w a
    single tuple comparison.  Expects a complete table with the right
    endpoints."""
    gens = _generators(g)
    costar, star = g._costar, g._star
    ends = {x for s in gens for x in (g.source[s], g.target[s])}
    if rows is None:
        rows = {w: tuple(g.compose_row(w))
                for x in ends for w in star.get(x, ())}
    position = {x: {u: i for i, u in enumerate(costar.get(x, ()))}
                for x in ends}
    for s in gens:
        at = position[g.target[s]]
        places = [at[su] for su in rows[s]]
        # a slice keeps a single place a tuple
        read = itemgetter(*places) if len(places) > 1 else \
            itemgetter(slice(places[0], places[0] + 1))
        k = at[s]
        for w in star.get(g.target[s], ()):
            row = rows[w]
            if rows[row[k]] != read(row):
                return False
    return True


def _associativity_failures(g):
    """Every composable triple (w, v, u) with (w + v) + u != w + (v + u)."""
    problems = []
    for (v, u), vu in g.compose.items():
        for w in g._star.get(g.target[v], ()):
            if g.compose[(g.compose[(w, v)], u)] != g.compose[(w, vu)]:
                problems.append(f"associativity fails on ({w}, {v}, {u})")
    return problems


class GroupTable:
    """A finite group as an explicit multiplication table.

    elements keep input order; ``mul`` maps (g, h) to gh.  identity and
    inverses are derived from the table when not supplied.  The tables are
    kept as given (see the module docstring).
    """

    def __init__(self, elements, mul, name="G", identity=None, inv=None):
        self.name = name
        self.elements = tuple(elements)
        self.mul = mul
        self.index = {x: i for i, x in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError(f"{name}: duplicate element names")
        if identity is None:
            for e in self.elements:
                if all(self.mul.get((e, x)) == x and self.mul.get((x, e)) == x
                       for x in self.elements):
                    identity = e
                    break
            else:
                raise ValueError(f"{name}: no identity element found")
        self.identity = identity
        if inv is None:
            inv = {}
            for x in self.elements:
                for y in self.elements:
                    if (self.mul.get((x, y)) == identity
                            and self.mul.get((y, x)) == identity):
                        inv[x] = y
                        break
                else:
                    raise ValueError(f"{name}: element {x} has no inverse")
        self.inv = inv

    @property
    def order(self):
        return len(self.elements)

    def prod(self, a, b):
        return self.mul[(a, b)]

    def __repr__(self):
        return f"GroupTable({self.name!r}, order {self.order})"


def element_order(gt, x):
    k = 1
    y = x
    while y != gt.identity:
        y = gt.prod(y, x)
        k += 1
    return k


def is_abelian_group(gt):
    return all(gt.prod(a, b) == gt.prod(b, a)
               for a in gt.elements for b in gt.elements)


def _span(gt, candidates):
    """(gens, members) for the subgroup of gt the candidates generate: a
    candidate joins gens, in order, when it lies outside the subgroup of the
    earlier ones, and the set members stays closed under w -> s w for s in
    gens, which in a finite group is that subgroup.  A name that is not an
    element raises ValueError."""
    mul = gt.mul
    gens, members = [], {gt.identity}
    for s in candidates:
        if s in members:
            continue
        if s not in gt.index:
            raise ValueError(f"{gt.name}: unknown element {s}")
        gens.append(s)
        fresh = [mul[(s, w)] for w in members]
        while fresh:
            w = fresh.pop()
            if w not in members:
                members.add(w)
                fresh.extend(mul[(t, w)] for t in gens)
    return gens, members


def subgroup_closure(gt, gens):
    """Elements of the subgroup generated by gens, in ambient element order."""
    members = _span(gt, gens)[1]
    return tuple(x for x in gt.elements if x in members)


def _group_generators(gt):
    """Generators of gt, by _span in element order: at most log2 |gt|."""
    return _span(gt, gt.elements)[0]


def is_normal_subgroup(gt, members):
    """Whether members is closed under conjugation by every element of gt:
    the full scan over all of gt and all of members, kept as the reference
    that quotient_map's check on generators is tested against."""
    mset = set(members)
    return all(gt.prod(gt.prod(g, n), gt.inv[g]) in mset
               for g in gt.elements for n in members)


def quotient_map(gt, members, name=None):
    """Quotient of gt by a normal subgroup given as an element subset, and
    the map sending each element of gt to its coset.

    Cosets are named "[r]" after their first element in input order.  A name
    that is not an element raises ValueError.  Normality is checked as
    g n g^-1 in N for g among the generators of gt and n among those of N:
    conjugation by g is a homomorphism, so it maps N into N when it maps
    N's generators there, and the g that do so are closed under product,
    which in a finite group makes them a subgroup, all of gt.
    """
    mset, (gens, span) = set(members), _span(gt, members)
    members = tuple(x for x in gt.elements if x in mset)
    if gt.identity not in mset:
        raise ValueError(f"{gt.name}: subgroup misses the identity")
    if span != mset:
        raise ValueError(f"{gt.name}: subset not closed under product")
    if gens and not all(gt.prod(gt.prod(g, n), gt.inv[g]) in mset
                        for g in _group_generators(gt) for n in gens):
        raise ValueError(f"{gt.name}: subgroup is not normal")
    first = classes(gt.elements, lambda x: [gt.prod(x, n) for n in members])
    coset = {x: f"[{first[x]}]" for x in gt.elements}
    reps = [x for x in gt.elements if first[x] == x]
    mul = {(coset[a], coset[b]): coset[gt.prod(a, b)]
           for a in reps for b in reps}
    return GroupTable([coset[x] for x in reps], mul,
                      name=name or f"{gt.name}/N", identity=coset[gt.identity],
                      inv={coset[a]: coset[gt.inv[a]] for a in reps}), coset


def quotient_group(gt, members, name=None):
    """Quotient of gt by a normal subgroup given as an element subset.

    Cosets are named "[r]" after their first element in input order.
    """
    return quotient_map(gt, members, name)[0]


def fresh_name(name, taken):
    """name with primes appended until taken lacks it, added to taken.

    Pair names "(x,y)" are not injective when names hold commas; this keeps
    them distinct.
    """
    while name in taken:
        name += "'"
    taken.add(name)
    return name


class _Table(Mapping):
    """A read-only table over keys whose entry at (v, u) is entry(v, u),
    computed when read, which raises KeyError off the table.  Nothing is
    stored per entry; keys go in the order of a dict built row by row."""

    def __init__(self, keys, entry):
        self._keys, self._entry = tuple(keys), entry

    def __getitem__(self, key):
        try:
            v, u = key
            if isinstance(key, tuple):
                return self._entry(v, u)
        except (KeyError, TypeError, ValueError):
            pass
        raise KeyError(key)

    def __iter__(self):
        return product(self._keys, repeat=2)

    def __len__(self):
        return len(self._keys) ** 2


def direct_product_group(a, b, name=None):
    """The direct product of group tables a and b.

    Its elements are the pairs (x, y), x in a's order and, for each x, y
    in b's, named "(x,y)" made fresh (fresh_name).  Its multiplication
    table is a read-only _Table that multiplies componentwise on lookup,
    so the square of an order-n group costs O(n^2) to build, not O(n^4).
    """
    taken = set()
    name_of = {(x, y): fresh_name(f"({x},{y})", taken)
               for x in a.elements for y in b.elements}
    pair, amul, bmul = {u: xy for xy, u in name_of.items()}, a.mul, b.mul

    def entry(v, u):
        (x1, y1), (x2, y2) = pair[v], pair[u]
        return name_of[(amul[(x1, x2)], bmul[(y1, y2)])]

    return GroupTable(
        name_of.values(), _Table(name_of.values(), entry),
        name=name or f"{a.name}x{b.name}",
        identity=name_of[(a.identity, b.identity)],
        inv={u: name_of[(a.inv[x], b.inv[y])] for (x, y), u in name_of.items()})


class GroupoidMorphism:
    """A morphism of finite groupoids: an object map and an arrow map, kept
    as given (see the module docstring)."""

    def __init__(self, dom, cod, object_map, arrow_map, name="f"):
        self.name = name
        self.dom = dom
        self.cod = cod
        self.object_map = object_map
        self.arrow_map = arrow_map

    def __repr__(self):
        return f"GroupoidMorphism({self.name!r}: {self.dom.name} -> {self.cod.name})"


def validate_morphism(f):
    """Return a list of violated morphism conditions; empty means valid.

    Expects f.dom and f.cod to be valid groupoids (validate_groupoid).
    Images, endpoints and identities are checked everywhere, but
    f(s + u) == f(s) + f(u) only for s in _generators(f.dom) and every u
    ending at the source of s.  The arrows s for which it holds contain the
    identities, once those are preserved, and are closed under composition
    by associativity in f.dom and f.cod, so they are every arrow.  The scan
    of every composition entry runs only to list the failures, so the list
    is always the full scan's.
    """
    return _morphism_problems(f, _generators(f.dom))


def _morphism_problems(f, gens):
    """validate_morphism with gens a generating set of f.dom, as
    _generators picks it."""
    problems = []
    for x in f.dom.objects:
        y = f.object_map.get(x)
        if y is None:
            problems.append(f"object {x} has no image")
        elif y not in f.cod.object_index:
            problems.append(f"object {x} maps to unknown object {y}")
    for u in f.dom.arrows:
        w = f.arrow_map.get(u)
        if w is None:
            problems.append(f"arrow {u} has no image")
        elif w not in f.cod.arrow_index:
            problems.append(f"arrow {u} maps to unknown arrow {w}")
    if problems:
        return problems
    for u in f.dom.arrows:
        w = f.arrow_map[u]
        if f.cod.source[w] != f.object_map[f.dom.source[u]]:
            problems.append(f"image of {u} has wrong source")
        if f.cod.target[w] != f.object_map[f.dom.target[u]]:
            problems.append(f"image of {u} has wrong target")
    for x in f.dom.objects:
        if f.arrow_map[f.dom.identity_of[x]] != \
                f.cod.identity_of[f.object_map[x]]:
            problems.append(f"identity at {x} is not preserved")
    if problems:
        return problems
    dom, image, cod_compose = f.dom, f.arrow_map, f.cod.compose
    if all(cod_compose[(image[s], image[u])] == image[su]
           for s in gens
           for u, su in zip(dom._costar.get(dom.source[s], ()),
                            dom.compose_row(s))):
        return problems
    for (v, u), w in dom.compose.items():
        if cod_compose[(image[v], image[u])] != image[w]:
            problems.append(f"composition not preserved on ({v}, {u})")
    return problems


class _InternalError(AssertionError):
    """A failed postcondition: a bug in this package, not in its input."""


def _ensure(holds, message, problems=()):
    """A postcondition that python -O keeps: unless holds, raise
    _InternalError with message and the first of problems."""
    if not holds:
        raise _InternalError(": ".join((message, *problems[:1])))


def _checked_morphism(f):
    """f, once validate_morphism passes (see _ensure)."""
    problems = validate_morphism(f)
    _ensure(not problems, f"{f.name} is not a morphism", problems)
    return f


class WideSubgroupoid:
    """A wide subgroupoid of an ambient groupoid, stored as an arrow subset.

    Its arrows keep ambient order, and hom, star and costar read an index
    of them built once.  The constructor verifies that they contain every
    identity and are closed under inverse and composition, and verifies
    normality when the flag is set; a failure names the first offending
    arrow or pair in ambient order.
    """

    def __init__(self, ambient, arrows, normal=False, name=None):
        self.ambient = ambient
        self.name = name or f"{ambient.name}-sub"
        given = dict.fromkeys(arrows)
        missing = [u for u in given if u not in ambient.arrow_index]
        if missing:
            raise ValueError(f"{self.name}: unknown arrows {missing}")
        aset = set(given)
        aset.update(ambient.identity_of[x] for x in ambient.objects)
        self.arrows = tuple(u for u in ambient.arrows if u in aset)
        self.arrow_set = aset
        self._hom, self._star, self._costar = \
            _index(self.arrows, ambient.source, ambient.target)
        for u in self.arrows:
            if ambient.inverse_of[u] not in aset:
                raise ValueError(f"{self.name}: not closed under inverse at {u}")
        for v in self.arrows:
            for u in self.costar(ambient.source[v]):
                if ambient.compose[(v, u)] not in aset:
                    raise ValueError(
                        f"{self.name}: not closed under composition "
                        f"at ({v}, {u})")
        self.normal = bool(normal)
        if self.normal and not is_normal_subgroupoid(self):
            raise ValueError(f"{self.name}: claimed normal but is not")

    def contains(self, u):
        return u in self.arrow_set

    def hom(self, x, y):
        """Arrows x -> y of the subgroupoid, in ambient order."""
        return tuple(self._hom.get((x, y), ()))

    def star(self, x):
        """Arrows of the subgroupoid with source x, in ambient order."""
        return tuple(self._star.get(x, ()))

    def costar(self, x):
        """Arrows of the subgroupoid with target x, in ambient order."""
        return tuple(self._costar.get(x, ()))

    def at(self, x):
        """Loops of the subgroupoid at x, in ambient order."""
        return self.hom(x, x)

    def as_groupoid(self):
        return subgroupoid(self.ambient, self.ambient.objects, self.arrows,
                           self.name)

    def __repr__(self):
        flag = "normal" if self.normal else "wide"
        return f"WideSubgroupoid({self.name!r}, {len(self.arrows)} arrows, {flag})"


def is_normal_subgroupoid(n):
    """Conjugation-stability of a wide subgroupoid by every ambient arrow."""
    g = n.ambient
    return all(g.compose[(g.compose[(a, h)], g.inverse_of[a])] in n.arrow_set
               for a in g.arrows for h in n.at(g.source[a]))


def kernel(f):
    """Arrows sent to identities; returned as a verified normal subgroupoid."""
    arrows = [u for u in f.dom.arrows
              if f.cod.is_identity_arrow(f.arrow_map[u])]
    return WideSubgroupoid(f.dom, arrows, normal=True, name=f"Ker({f.name})")


def is_quotient_morphism(f):
    """Surjective on objects and full on every hom-set."""
    if set(f.object_map[x] for x in f.dom.objects) != set(f.cod.objects):
        return False
    for x in f.dom.objects:
        for y in f.dom.objects:
            images = {f.arrow_map[u] for u in f.dom.hom(x, y)}
            needed = set(f.cod.hom(f.object_map[x], f.object_map[y]))
            if not needed <= images:
                return False
    return True


def _star_images(f, x):
    """The images of star(x) under f, in input order, and star(f x)."""
    return ([f.arrow_map[u] for u in star(f.dom, x)],
            set(star(f.cod, f.object_map[x])))


def is_fibration(f):
    """The induced map star(x) -> star(f x) is surjective for every x."""
    for x in f.dom.objects:
        images, needed = _star_images(f, x)
        if not needed <= set(images):
            return False
    return True


def is_covering(f):
    """The induced map star(x) -> star(f x) is bijective for every x."""
    for x in f.dom.objects:
        images, needed = _star_images(f, x)
        if len(images) != len(set(images)) or set(images) != needed:
            return False
    return True


def subgroupoid(g, objects, arrows, name):
    """The tables of g restricted to objects and arrows of g, given in input
    order and closed under identities, inverses and composition."""
    aset = set(arrows)
    compose = {(v, u): w for (v, u), w in g.compose.items()
               if v in aset and u in aset}
    return FiniteGroupoid(
        objects, arrows,
        {u: g.source[u] for u in arrows},
        {u: g.target[u] for u in arrows},
        {x: g.identity_of[x] for x in objects},
        {u: g.inverse_of[u] for u in arrows},
        compose, name=name)


def full_subgroupoid(g, objects, name=None):
    """The full subgroupoid on a subset of objects (all arrows between them)."""
    unknown = set(objects) - set(g.objects)
    if unknown:
        raise ValueError(f"{g.name}: unknown objects {sorted(unknown)}")
    oset = set(objects)
    objs = tuple(x for x in g.objects if x in oset)
    arrows = tuple(u for u in g.arrows
                   if g.source[u] in oset and g.target[u] in oset)
    return subgroupoid(g, objs, arrows, name or f"{g.name}|{len(objs)}")


def disjoint_union(a, b, name=None):
    if set(a.objects) & set(b.objects):
        raise ValueError("object names collide in disjoint union")
    if set(a.arrows) & set(b.arrows):
        raise ValueError("arrow names collide in disjoint union")
    return FiniteGroupoid(
        a.objects + b.objects, a.arrows + b.arrows,
        {**a.source, **b.source}, {**a.target, **b.target},
        {**a.identity_of, **b.identity_of},
        {**a.inverse_of, **b.inverse_of},
        {**a.compose, **b.compose}, name=name or f"{a.name}+{b.name}")


def object_group(g, x):
    """The group of loops at x under composition."""
    if x not in g.object_index:
        raise ValueError(f"{g.name}: unknown object {x}")
    loops = g.loops(x)
    mul = {(p, q): g.compose[(p, q)] for p in loops for q in loops}
    return GroupTable(loops, mul, name=f"{g.name}({x})",
                      identity=g.identity_of[x],
                      inv={u: g.inverse_of[u] for u in loops})


def _check_iso_cap(*sizes):
    if max(sizes) > ISO_ARROW_CAP:
        raise SizeCapError(
            f"isomorphism search capped at {ISO_ARROW_CAP} arrows")


def group_isomorphism(a, b):
    """An isomorphism of group tables a -> b as an element dict, or None.

    Only the images of a generating set are searched (G. L. Miller, "On the
    n^log n isomorphism technique", STOC 1978).  The generators are
    _group_generators(a), at most log2 of the order.  Images of the same
    element order are tried in element order.  A choice for the first k
    generators is extended along left multiplication by them, phi(s x) =
    phi(s) phi(x), and kept when that is well defined and injective: then
    it is an injective homomorphism on the subgroup they generate.  Groups
    above ISO_ARROW_CAP elements raise SizeCapError, as in search_isomorphism.
    """
    _check_iso_cap(a.order, b.order)
    if a.order != b.order:
        return None
    gens = _group_generators(a)

    def search(images):
        phi = {a.identity: b.identity}
        queue = deque(phi)
        while queue:
            x = queue.popleft()
            for s, t in zip(gens, images):
                z, w = a.prod(s, x), b.prod(t, phi[x])
                if z not in phi:
                    phi[z] = w
                    queue.append(z)
                elif phi[z] != w:
                    return None
        if len(set(phi.values())) < len(phi):
            return None
        if len(images) == len(gens):
            return phi
        k = element_order(a, gens[len(images)])
        found = (search(images + [t]) for t in b.elements
                 if element_order(b, t) == k)
        return next((phi for phi in found if phi is not None), None)
    return search([])


def search_isomorphism(a, b):
    """An isomorphism a -> b by the structure theorem, or None.

    Each component is a tree groupoid times its object group.  In input
    order, each component of a takes the first unused component of b with
    as many objects and an isomorphic object group (phi) at its first
    object; with x and y those first objects, objects pair in input order.
    Then u: z -> z' goes to s_z' + phi(-t_z' + u + t_z) - s_z, where t_z
    and s_z are the first arrows from x to z and from y to its image.
    Inputs above ISO_ARROW_CAP arrows are rejected.
    """
    _check_iso_cap(len(a.arrows), len(b.arrows))
    if len(a.objects) != len(b.objects) or len(a.arrows) != len(b.arrows):
        return None
    unused = components(b)
    object_map, arrow_map = {}, {}
    for block in components(a):
        x = block[0]
        group = object_group(a, x)
        for image in unused:
            phi = len(image) == len(block) and group_isomorphism(
                group, object_group(b, image[0]))
            if phi:
                break
        else:
            return None
        unused.remove(image)
        object_map.update(zip(block, image))
        t = {z: a.hom(x, z)[0] for z in block}
        s = {z: b.hom(image[0], object_map[z])[0] for z in block}
        for z in block:
            for u in star(a, z):
                z2 = a.target[u]
                loop = a.compose[(a.inverse_of[t[z2]], a.compose[(u, t[z])])]
                arrow_map[u] = b.compose[
                    (s[z2], b.compose[(phi[loop], b.inverse_of[s[z]])])]
    return _checked_morphism(GroupoidMorphism(
        a, b, object_map, arrow_map, name=f"{a.name}~{b.name}"))
