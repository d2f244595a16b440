"""Groupoid constructions: semidirect products, normal closures, quotient
groupoids, and orbit groupoids of group actions.

The semidirect product of an action has the same objects as the acted-on
groupoid; an arrow x -> y is a pair (a, g) where a runs from g.x to y.
Addition is (b, h) + (a, g) = (b + h.a, hg) and the negative of (a, g) is
(g^-1.(-a), g^-1).  The orbit groupoid is the quotient of the semidirect
product by the normal closure of the pairs (identity at g.x, g), and its
canonical morphism from the acted-on groupoid is constant on orbits and
universal among such morphisms.

Both quotients are assembled by one helper from the structure theorem (P. J.
Higgins, Categories and Groupoids, 1971): for N normal and wide in K, each
component of K/N is a tree on the components of N it meets times K(x)/N(x),
x a base object.  quotient_groupoid reads K(x) and N(x) off its arguments.
orbit_groupoid never composes in the product: by Armstrong's theorem (M. A.
Armstrong, "The fundamental group of the orbit space of a discontinuous
group", Proc. Cambridge Philos. Soc. 64, 1968), on a G-orbit of components
of the space with first object x, K(x) is the group of pairs (a, g) with
a: g.x -> x, and N(x) is generated by F(x), the elements of G with fixed
points lifted to K(x) (see _fixer_pairs).  K(x)'s table is a core._Table,
which computes each product when it is read, and quotient_map checks
normality on generators only, so neither stores nor scans anything
quadratic in |K(x)|.  The semidirect verb and the semidirect-laws check
read the product's composition table, but no entry of it is stored:
_PairTable computes each entry from integer positions when it is read, and
a whole row, one per product arrow, in the order the emitter writes it,
through compose_row.

Results come back as dataclasses: SemidirectProduct (groupoid, projection,
action, name_of), QuotientGroupoid (groupoid, morphism), OrbitGroupoid
(groupoid, morphism, and the semidirect product, which orbit_groupoid does
not build: it is built on first read, from the action, together with its
pair names and position tables, and still no entry is stored), and the
RestrictOrbitReport and RegularCoverReport check reports.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

from .actions import (GroupoidAction, fixed_subgroupoid, is_free_action,
                      object_orbits, restrict_action, validate_action)
from .catalog import bundle, group_isomorphic, groupoid_from_group
from .core import (FiniteGroupoid, GroupoidMorphism, GroupTable,
                   WideSubgroupoid, _Table, _checked_morphism, _ensure,
                   _group_generators, blocks_by,
                   components, fresh_name, full_subgroupoid, is_covering,
                   is_fibration, is_quotient_morphism, is_tree_groupoid,
                   object_group, quotient_group, quotient_map, star,
                   subgroup_closure, validate_groupoid, validate_morphism)


@dataclass
class SemidirectProduct:
    """A semidirect product groupoid and its projection onto the group."""

    groupoid: FiniteGroupoid
    projection: GroupoidMorphism
    action: GroupoidAction
    name_of: dict               # (arrow, group element) -> arrow name


def _pair_names(act):
    """The semidirect arrows of a valid action, ((a, g), name) in name order.

    Identities first, id_x for (id_x, 1), then the pairs (a, g) by a in the
    space's order and g in the group's, "(a,g)" with primes added where
    names holding commas collide.  A name depends only on the pairs before
    it, so a caller may stop the walk early.  An invalid action raises
    ValueError before any pair is named: validate_action runs here, so an
    action never validated is still checked, and one validated before (as
    every parsed action is) costs only the kept verdict.
    """
    problems = validate_action(act)
    if problems:
        raise ValueError(f"{act.name}: invalid action: {problems[0]}")
    G, sp = act.group, act.space
    ids = {sp.identity_of[x]: f"id_{x}" for x in sp.objects}
    taken = set(ids.values())
    return chain((((a, G.identity), u) for a, u in ids.items()),
                 (((a, g), fresh_name(f"({a},{g})", taken))
                  for a in sp.arrows for g in G.elements
                  if g != G.identity or a not in ids))


class _PairTable(Mapping):
    """The composition table of a _PairGroupoid, each entry computed when
    read; nothing is stored per entry.

    The pair (a, g) is numbered index(a)|G| + index(g) in names.  Each
    pair v = (b, h) keeps (row, ha, hg): row maps the arrow position of
    every c ending at the source of b to that of b + c, ha lists the arrow
    positions of h.a and hg the element positions of hg, in input order.
    Each pair u = (a, k) keeps the positions i of a and j of k.  Then
    v + u = (b + h.a, hk) is names[row[ha[i]]|G| + hg[j]], and row has no
    entry for h.a exactly when u does not end at the source of v.  Rows go
    in name_of order, each over the pairs ending at the row's source, also
    in name_of order: _pair_names lists (id_y, 1) first, then the pairs
    (a, k) by a in the space's order, k in the group's.  So a row is read a
    block of |G| entries per arrow a ending there, with (id_y, 1) moved to
    the front.  row() keeps, on first use, those arrow positions per object
    and, per element h, names permuted by k -> hk, so that each block is
    one slice: at most |G| lists of |A||G| names, built only when rows are
    read.
    """

    def __init__(self, act, name_of, source):
        G, sp = act.group, act.space
        n, a_at, g_at = len(G.elements), sp.arrow_index, G.index
        plus = {b: {a_at[c]: a_at[sp.compose[(b, c)]]
                    for c in sp.costar(sp.source[b])} for b in sp.arrows}
        act_at = {h: [a_at[act.act_arrow[(h, a)]] for a in sp.arrows]
                  for h in G.elements}
        mul_at = {h: [g_at[G.mul[(h, g)]] for g in G.elements]
                  for h in G.elements}
        self._names = names = [None] * (len(sp.arrows) * n)
        self._n, self._source = n, source
        self._space, self._unit = sp, g_at[G.identity]
        self._blocks, self._by = {}, {}   # by object, by element position
        self._left, self._right = {}, {}
        for (a, g), u in name_of.items():
            names[a_at[a] * n + g_at[g]] = u
            self._left[u] = (plus[a], act_at[g], mul_at[g])
            self._right[u] = (a_at[a], g_at[g])

    def take_costar(self, into):
        """Read the pairs ending at each object from the product's own
        costar index, which its groupoid builds after this table."""
        self._into = into
        self._len = sum(len(into[self._source[v]]) for v in self._left)

    def __getitem__(self, key):
        try:
            v, u = key
            row, ha, hg = self._left[v]
            i, j = self._right[u]
            if isinstance(key, tuple):
                return self._names[row[ha[i]] * self._n + hg[j]]
        except (KeyError, TypeError, ValueError):
            pass
        raise KeyError(key)

    def __iter__(self):
        into, source = self._into, self._source
        return chain.from_iterable(zip(repeat(v), into[source[v]])
                                   for v in self._left)

    def __len__(self):
        return self._len

    def row(self, v):
        """v + u for every pair u ending at the source of v, in order: for
        v = (b, h) and each arrow a ending there, the names of the pairs
        (b + h.a, hk), k in the group's order."""
        row, ha, hg = self._left[v]
        y, h, n = self._source[v], self._right[v][1], self._n
        if y not in self._blocks:
            into = self._space.costar(y)
            self._blocks[y] = (
                [self._space.arrow_index[a] for a in into],
                into.index(self._space.identity_of[y]) * n + self._unit)
        by_h = self._by.get(h)
        if by_h is None:
            names = self._names
            by_h = self._by[h] = [names[c + k]
                                  for c in range(0, len(names), n)
                                  for k in hg]
        at, first = self._blocks[y]
        cells = []
        for i in at:
            c = row[ha[i]] * n
            cells += by_h[c:c + n]
        cells.insert(0, cells.pop(first))
        return cells

    def items(self):
        return _RowItems(self)


class _RowItems(ItemsView):
    """The entries of a _PairTable in its order, read a row at a time."""

    def __iter__(self):
        table = self._mapping
        into, source = table._into, table._source
        return chain.from_iterable(
            zip(zip(repeat(v), into[source[v]]), table.row(v))
            for v in table._left)


class _PairGroupoid(FiniteGroupoid):
    """The semidirect product groupoid on the pairs named by name_of.

    Its composition table, (b, h) + (a, g) = (b + h.a, hg), has about
    |A|^2|G|^2/n entries, none of them stored: compose is a _PairTable,
    built with the groupoid and handed to its constructor, that computes
    each entry from position tables when it is read, and compose_row reads
    a whole row the same way.  An orbit groupoid builds the product, and
    with it the position tables, only when it is read.
    """

    def __init__(self, act, name_of):
        G, sp = act.group, act.space
        source, target, inverse = {}, {}, {}
        for (a, g), u in name_of.items():
            ginv = G.inv[g]
            source[u] = act.act_obj[(ginv, sp.source[a])]
            target[u] = sp.target[a]
            inverse[u] = name_of[(act.act_arrow[(ginv, sp.inverse_of[a])],
                                  ginv)]
        table = _PairTable(act, name_of, source)
        super().__init__(sp.objects, name_of.values(), source, target,
                         {x: f"id_{x}" for x in sp.objects}, inverse, table,
                         name=f"{sp.name}x{G.name}")
        table.take_costar(self._costar)

    def compose_row(self, v):
        return self.compose.row(v)


def _semidirect(act):
    """The semidirect product of an action, its projection not checked."""
    G, name_of = act.group, dict(_pair_names(act))
    gpd = _PairGroupoid(act, name_of)
    cod = groupoid_from_group(G, name=f"{G.name}-gpd")
    projection = GroupoidMorphism(
        gpd, cod, {x: "pt" for x in gpd.objects},
        {u: "id_pt" if g == G.identity else g
         for (_a, g), u in name_of.items()},
        name=f"proj-{gpd.name}")
    return SemidirectProduct(gpd, projection, act, name_of)


def semidirect_product(act):
    """The semidirect product groupoid of an action, with its projection.

    The projection onto the one-object groupoid of the acting group sends
    (a, g) to g; it is always a fibration.  validate_morphism checks it on
    generators, which takes the product to be a groupoid, as it is for a
    valid action; the semidirect-laws check validates the corpus products.
    """
    sd = _semidirect(act)
    _checked_morphism(sd.projection)
    _ensure(is_fibration(sd.projection),
            f"{sd.projection.name} is not a fibration")
    return sd


def _saturate(g, arrows, normal):
    """Arrow set of the least wide (normal, if normal) subgroupoid of g
    containing arrows.  An arrow that joins brings its inverse, its
    composites with the members already found at each end, and, if normal
    and it is a loop at x, its conjugates by star(g, x): every composable
    pair is composed when its later arrow joins, so the set is closed."""
    work = list(g.identity_of.values())
    for u in arrows:
        if u not in g.arrow_index:
            raise ValueError(f"{g.name}: unknown arrow {u}")
        work.append(u)
    members, into, out = set(), {}, {}     # object -> members ending/starting
    while work:
        u = work.pop()
        if u in members:
            continue
        members.add(u)
        x, y = g.source[u], g.target[u]
        into.setdefault(y, []).append(u)
        out.setdefault(x, []).append(u)
        work.append(g.inverse_of[u])
        work.extend(g.compose[(u, w)] for w in into.get(x, ()))
        work.extend(g.compose[(v, u)] for v in out.get(y, ()))
        if normal and x == y:
            work.extend(g.compose[(g.compose[(k, u)], g.inverse_of[k])]
                        for k in star(g, x))
    return members


def generated_wide_subgroupoid(g, arrows):
    """Saturate a set of arrows with identities, inverses, and compositions."""
    members = _saturate(g, arrows, normal=False)
    return WideSubgroupoid(g, members, name=f"W{len(members)}")


def normal_closure(g, arrows, name=None):
    """Smallest normal wide subgroupoid containing the given arrows: one
    saturation that also adds conjugates of loops, checked normal by the
    WideSubgroupoid constructor."""
    members = _saturate(g, arrows, normal=True)
    return WideSubgroupoid(g, members, normal=True,
                           name=name or f"N{len(members)}")


@dataclass
class QuotientGroupoid:
    """A quotient groupoid and the morphism sending everything to its class."""

    groupoid: FiniteGroupoid
    morphism: GroupoidMorphism


def _assemble(objects, blocks, keyed, name):
    """The quotient with these components, and the name of each class.

    blocks lists each component's objects with its vertex group K(x)/N(x),
    x its base.  keyed yields, in input order, arrows u with their keys
    (Y, c, Z): u runs Y -> Z and is in the coset c after transport to x.
    Each key is a class, named after its first arrow, id_Y for
    (Y, identity, Y) and [u] otherwise; keyed is read only until every
    class has its name, and running out first is an _InternalError.  The
    quotient lists the identity classes first.
    """
    ids = {(y, vg.identity, y) for objs, vg in blocks for y in objs}
    wanted = sum(len(objs) ** 2 * len(vg.elements) for objs, vg in blocks)
    label = {}
    for u, key in keyed:
        if key not in label:
            label[key] = f"id_{key[0]}" if key in ids else f"[{u}]"
            if len(label) == wanted:
                break
    _ensure(len(label) == wanted, f"{name}: a class has no arrow")
    shape = bundle(objects, blocks, lambda y, v, z, _vg: label[(y, v, z)],
                   name)
    arrows = sorted(label.values(), key=lambda u: not u.startswith("id_"))
    gpd = FiniteGroupoid(shape.objects, arrows, shape.source, shape.target,
                         shape.identity_of, shape.inverse_of, shape.compose,
                         name=name)
    problems = validate_groupoid(gpd)
    _ensure(not problems, f"{name} is not a groupoid", problems)
    return gpd, label


def quotient_groupoid(k, n, name=None):
    """Quotient of a groupoid by a normal wide subgroupoid.

    Objects are the components of n, named "[x]" after their first object;
    arrows are the equivalence classes under a ~ m + a + n', named "[a]"
    after their first member.  With x the first object of a's component of
    k, a: y -> z goes to the coset of -t_z + a + t_y in k(x)/n(x), where t_y
    runs from x to the first object of y's component of n, then in n.
    """
    if not isinstance(n, WideSubgroupoid) or n.ambient is not k:
        raise ValueError("quotient needs a wide subgroupoid of the same groupoid")
    if not n.normal:
        raise ValueError(f"{n.name}: not normal; quotient is undefined")
    name = name or f"{k.name}/{n.name}"

    first = {y: block[0] for block in components(k, n.arrows) for y in block}
    obj_class = {y: f"[{y0}]" for y, y0 in first.items()}
    blocks, coset_of, transport = [], {}, {}
    for comp in components(k):
        x = comp[0]
        vg, coset = quotient_map(object_group(k, x), n.at(x))
        blocks.append((list(dict.fromkeys(obj_class[y] for y in comp)), vg))
        for y in comp:
            coset_of[y] = coset
            transport[y] = k.compose[(n.hom(first[y], y)[0],
                                      k.hom(x, first[y])[0])]
    key_of = {}
    for a in k.arrows:
        y, z = k.source[a], k.target[a]
        loop = k.compose[(k.inverse_of[transport[z]],
                          k.compose[(a, transport[y])])]
        key_of[a] = (obj_class[y], coset_of[y][loop], obj_class[z])

    gpd, label = _assemble(list(dict.fromkeys(obj_class.values())), blocks,
                           key_of.items(), name)
    morphism = _checked_morphism(GroupoidMorphism(
        k, gpd, obj_class, {a: label[key] for a, key in key_of.items()},
        name=f"cls-{name}"))
    _ensure(is_quotient_morphism(morphism),
            f"{morphism.name} is not a quotient morphism")
    return QuotientGroupoid(gpd, morphism)


@dataclass
class OrbitGroupoid:
    """An orbit groupoid, its canonical morphism and its semidirect product,
    which is built on first read, from the action: its pair names (most of
    which orbit_groupoid never makes) and its position tables; still no
    entry of its composition table is stored."""

    groupoid: FiniteGroupoid
    morphism: GroupoidMorphism
    _action: GroupoidAction = field(repr=False, compare=False)

    @cached_property
    def semidirect(self):
        return _semidirect(self._action)


def _constant_on_orbits(act, f):
    """Whether the morphism f out of act.space is constant on orbits, for
    a valid action.

    Checked for g among the generators of G only: if f(s.a) = f(a) for
    every generator s, then f(st.a) = f(s.(t.a)) = f(t.a) by the action
    law, which validate_action has checked, and every element of a finite
    group is a product of generators.  oracle._constant_on_orbits is the
    full scan over G that this is tested against.
    """
    gens, sp = _group_generators(act.group), act.space
    return all(f.object_map[act.act_obj[(g, x)]] == f.object_map[x]
               for g in gens for x in sp.objects) and \
        all(f.arrow_map[act.act_arrow[(g, a)]] == f.arrow_map[a]
            for g in gens for a in sp.arrows)


def _loop_group(act, x):
    """K(x): the object group at x of the semidirect product, built alone.

    Its elements are the pairs (a, g) with a: g.x -> x, in input order of
    a and then of g, under (b, h)(a, g) = (b + h.a, hg).  Its table is a
    core._Table, which computes each product on lookup, so K(x) costs its
    |K| pairs, not |K|^2 table entries.  The pair rule also composes some
    pairs outside K(x), so the entry checks that both are members.
    """
    G, sp = act.group, act.space
    pairs = [(a, g) for a in sp.costar(x) for g in G.elements
             if act.act_obj[(g, x)] == sp.source[a]]
    inverse = {(a, g): (act.act_arrow[(G.inv[g], sp.inverse_of[a])],
                        G.inv[g]) for (a, g) in pairs}
    members, compose, act_arrow, mul = \
        set(pairs), sp.compose, act.act_arrow, G.mul

    def entry(v, u):
        if v not in members or u not in members:
            raise KeyError((v, u))
        (b, h), (a, g) = v, u
        return compose[(b, act_arrow[(h, a)])], mul[(h, g)]

    return GroupTable(pairs, _Table(pairs, entry), name=f"K({x})",
                      identity=(sp.identity_of[x], G.identity), inv=inverse)


def _fixer_pairs(act, x):
    """F(x): the pairs (-b + g.b, g) of K(x), for every b in star(x) and
    every g that fixes the target of b."""
    G, sp = act.group, act.space
    return [(sp.compose[(sp.inverse_of[b], act.act_arrow[(g, b)])], g)
            for b in star(sp, x) for g in G.elements
            if act.act_obj[(g, sp.target[b])] == sp.target[b]]


def orbit_groupoid(act):
    """The orbit groupoid of an action, with its canonical morphism.

    The quotient of the semidirect product by the normal closure of the
    pairs (identity at g.x, g), computed per G-orbit of components of the
    space as a tree on the object orbits times K(x)/<F(x)> (see the module
    docstring), and named as quotient_groupoid names it, after the
    semidirect names of the pairs.  Each pair u: y -> z goes to
    -t_z + u + t_y in K(x), where the transport t_y: x -> y is
    (identity, k) + t_y0 for y = k.y0, y0 the first object of y's orbit.
    The canonical morphism sends an arrow a to the class of (a, 1); it is
    constant on orbits, surjective, and a fibration, and its objects
    correspond to the object orbits.  Pairs are named and keyed in name
    order only until every class has its first pair, and the morphism keys
    the pairs (a, 1): Z12 rotating the 12-object tree names 265 of its 1728
    pairs.  The semidirect product is built when the result's semidirect
    field is first read.
    """
    G, sp = act.group, act.space
    pairs = _pair_names(act)
    orbits = object_orbits(act)

    # base[c] = (x, h): x the first object of the G-orbit of the space's
    # component c, and h.x lies in c
    comp = {y: i for i, block in enumerate(components(sp)) for y in block}
    base = {}
    for x in sp.objects:
        for h in G.elements:
            base.setdefault(comp[act.act_obj[(h, x)]], (x, h))
    # per object y: its orbit's name, its base, and t_y = (c, h), c: h.x -> y
    orbit_of, base_of, transport, names_at = {}, {}, {}, {}
    for block in orbits:
        y0 = block[0]
        x, h = base[comp[y0]]
        names_at.setdefault(x, []).append(f"[{y0}]")
        c = sp.hom(act.act_obj[(h, x)], y0)[0]
        for k in G.elements:
            y = act.act_obj[(k, y0)]
            if y not in transport:
                orbit_of[y], base_of[y] = f"[{y0}]", x
                transport[y] = (act.act_arrow[(k, c)], G.mul[(k, h)])
    blocks, coset = [], {}
    for x, names in names_at.items():
        loops = _loop_group(act, x)
        members = subgroup_closure(loops, _fixer_pairs(act, x))
        # quotient_map raises unless <F(x)> is normal
        vg, coset[x] = quotient_map(loops, members)
        blocks.append((names, vg))

    def key(a, g):
        y, z = act.act_obj[(G.inv[g], sp.source[a])], sp.target[a]
        (cy, hy), (cz, hz) = transport[y], transport[z]
        back = G.inv[hz]
        loop = (act.act_arrow[(back, sp.compose[(
                    sp.inverse_of[cz],
                    sp.compose[(a, act.act_arrow[(g, cy)])])])],
                G.mul[(G.mul[(back, g)], hy)])
        return (orbit_of[y], coset[base_of[y]][loop], orbit_of[z])

    gpd, label = _assemble([f"[{block[0]}]" for block in orbits], blocks,
                           ((u, key(a, g)) for (a, g), u in pairs),
                           f"{sp.name}//{G.name}")
    arrow_map = {a: label[key(a, G.identity)] for a in sp.arrows}
    morphism = _checked_morphism(GroupoidMorphism(
        sp, gpd, orbit_of, arrow_map, name=f"orbit-{act.name}"))

    name = morphism.name
    _ensure(_constant_on_orbits(act, morphism),
            f"{name} is not constant on orbits")
    _ensure(blocks_by(sp.objects, morphism.object_map) == object_orbits(act),
            f"{name}: object fibres are not the object orbits")
    _ensure(set(morphism.object_map.values()) == set(gpd.objects),
            f"{name} is not onto the objects")
    _ensure(set(morphism.arrow_map.values()) == set(gpd.arrows),
            f"{name} is not onto the arrows")
    _ensure(is_fibration(morphism), f"{name} is not a fibration")
    return OrbitGroupoid(gpd, morphism, act)


def orbit_kernel_generators(act):
    """Arrows a - g.a for g stabilizing the source of a, deduplicated.

    These generate the kernel of the orbit morphism as a wide subgroupoid;
    the suite's orbit-kernel check compares the two.
    """
    sp = act.space
    gens = []
    seen = set()
    for a in sp.arrows:
        x = sp.source[a]
        for g in act.group.elements:
            if act.act_obj[(g, x)] != x:
                continue
            moved = act.act_arrow[(g, a)]
            diff = sp.compose[(a, sp.inverse_of[moved])]
            if diff not in seen:
                seen.add(diff)
                gens.append(diff)
    return tuple(gens)


def tree_orbit_group(act):
    """Orbit object group of an action on a tree groupoid, computed as G/K.

    K is the subgroup generated by the elements with a fixed object; it is
    normal (quotient_group raises otherwise), and the suite's tree-orbit-groups
    check compares the quotient with every object group of the orbit groupoid.
    On a tree this is orbit_groupoid's route with K(x) = G, but it does not
    call that route's helpers: the check would then compare them with
    themselves.
    """
    G, sp = act.group, act.space
    if not is_tree_groupoid(sp):
        raise ValueError(f"{sp.name}: not a tree groupoid")
    fixers = [g for g in G.elements
              if any(act.act_obj[(g, x)] == x for x in sp.objects)]
    members = subgroup_closure(G, fixers)
    return quotient_group(G, members, name=f"{G.name}/K")


def _induced(orbit, cod, object_map, arrow_map, name):
    """(phi, []) with phi: orbit.groupoid -> cod and phi after orbit.morphism
    equal to the given maps, or (None, problems) if they do not factor."""
    f = orbit.morphism
    obj_map, arr_map, problems = {}, {}, []
    for x in f.dom.objects:
        cls = f.object_map[x]
        if obj_map.setdefault(cls, object_map[x]) != object_map[x]:
            problems.append(f"{name} object map not well defined at {cls}")
    for a in f.dom.arrows:
        cls = f.arrow_map[a]
        if arr_map.setdefault(cls, arrow_map[a]) != arrow_map[a]:
            problems.append(f"{name} arrow map not well defined at {cls}")
    if problems:
        return None, problems
    phi = GroupoidMorphism(orbit.groupoid, cod, obj_map, arr_map, name=name)
    problems = validate_morphism(phi)
    if problems:
        return None, [f"{name} map not a morphism: {problems[0]}"]
    return phi, []


@dataclass
class RestrictOrbitReport:
    """Outcome of restricting an orbit groupoid to an invariant object set."""

    hypothesis_ok: bool
    hypothesis_failures: tuple
    embedding_ok: bool
    details: tuple

    @property
    def ok(self):
        return self.hypothesis_ok and self.embedding_ok


def restrict_orbit_full_subgroupoid(act, objects):
    """Check that the orbit groupoid of the full subgroupoid on an invariant
    object set embeds as a full subgroupoid of the whole orbit groupoid.

    Stated hypothesis: for each group element g, the object set meets every
    component of the substructure of the space fixed by g (g = identity makes
    this "meets every component of the space").  A violated hypothesis is
    reported, not raised; a non-invariant object set is an error.
    """
    sp = act.space
    oset = set(objects)
    unknown = oset - set(sp.objects)
    if unknown:
        raise ValueError(f"{sp.name}: unknown objects {sorted(unknown)}")

    hypothesis_failures = []
    for g in act.group.elements:
        fixed = fixed_subgroupoid(act, elements=(g,))
        for block in components(fixed):
            if not (set(block) & oset):
                hypothesis_failures.append(
                    f"object set misses a fixed component of {g}: "
                    f"{{{' '.join(block)}}}")
    hypothesis_ok = not hypothesis_failures

    sub_act = restrict_action(act, objects)   # raises if not invariant
    sub_orbit = orbit_groupoid(sub_act)
    whole = orbit_groupoid(act)

    # the canonical map sends the sub-orbit class of an arrow of the full
    # subgroupoid to its class in the whole orbit groupoid
    canonical, details = _induced(sub_orbit, whole.groupoid,
                                  whole.morphism.object_map,
                                  whole.morphism.arrow_map, "canonical")
    if canonical is not None:
        image_objects = set(canonical.object_map.values())
        image_arrows = set(canonical.arrow_map.values())
        if len(image_objects) != len(sub_orbit.groupoid.objects):
            details.append("canonical map not injective on objects")
        if len(image_arrows) != len(sub_orbit.groupoid.arrows):
            details.append("canonical map not injective on arrows")
        if not details and image_arrows != set(
                full_subgroupoid(whole.groupoid, image_objects).arrows):
            details.append("image is not the full subgroupoid on the image objects")
    embedding_ok = not details
    if embedding_ok:
        details.append(f"embeds as the full subgroupoid on "
                       f"{len(image_objects)} objects")
    return RestrictOrbitReport(hypothesis_ok, tuple(hypothesis_failures),
                               embedding_ok, tuple(details))


@dataclass
class RegularCoverReport:
    """Outcome of checking a covering morphism against the orbit construction."""

    orbit_iso_ok: bool
    object_group_iso_ok: bool
    details: tuple

    @property
    def ok(self):
        return self.orbit_iso_ok and self.object_group_iso_ok


def regular_cover_orbit_check(p, deck):
    """Verify that a covering morphism with a free deck action is the orbit
    morphism of that action.

    Preconditions (errors): p is a covering morphism; deck is a valid, free
    action on the source of p; p is constant on deck orbits.  Checks: the
    orbit groupoid of the deck action is isomorphic to the target over p, and
    the target object group at p(x) is isomorphic to the object group of the
    semidirect product at x, K(x), for every x.
    """
    problems = validate_morphism(p)
    if problems:
        raise ValueError(f"{p.name}: not a morphism: {problems[0]}")
    if not is_covering(p):
        raise ValueError(f"{p.name}: not a covering morphism")
    if deck.space is not p.dom:
        raise ValueError("deck action must act on the source of the morphism")
    orbit = orbit_groupoid(deck)
    if not is_free_action(deck):
        raise ValueError(f"{deck.name}: deck action is not free")
    if not _constant_on_orbits(deck, p):
        raise ValueError(f"{p.name}: not constant on deck orbits")

    induced, details = _induced(orbit, p.cod, p.object_map, p.arrow_map,
                                "induced")
    if induced is not None and not (
            sorted(induced.object_map.values()) == sorted(p.cod.objects)
            and sorted(induced.arrow_map.values()) == sorted(p.cod.arrows)):
        details.append("induced map is not an isomorphism")
    orbit_iso_ok = not details
    if orbit_iso_ok:
        details.append("orbit groupoid of the deck action matches the target")

    object_group_iso_ok = True
    for x in p.dom.objects:
        target_group = object_group(p.cod, p.object_map[x])
        lifted_group = _loop_group(deck, x)
        if not group_isomorphic(target_group, lifted_group):
            object_group_iso_ok = False
            details.append(
                f"object group at {p.object_map[x]} does not match the "
                f"semidirect object group at {x}")
    if object_group_iso_ok:
        details.append("target object groups match the semidirect object groups")
    return RegularCoverReport(orbit_iso_ok, object_group_iso_ok,
                              tuple(details))
