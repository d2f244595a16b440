"""Groupoid constructions: semidirect products, normal closures, quotient
groupoids, and orbit groupoids of group actions.

The semidirect product of an action has the same objects as the acted-on
groupoid; an arrow x -> y is a pair (a, g) where a runs from g.x to y.
Addition is (b, h) + (a, g) = (b + h.a, hg) and the negative of (a, g) is
(g^-1.(-a), g^-1).  The orbit groupoid is the quotient of the semidirect
product by the normal closure of the pairs (identity at g.x, g), and its
canonical morphism from the acted-on groupoid is constant on orbits and
universal among such morphisms.

orbit_groupoid computes that quotient without composing in the product, one
G-orbit of components of the space at a time, by Armstrong's theorem (M. A.
Armstrong, "The fundamental group of the orbit space of a discontinuous
group", Proc. Cambridge Philos. Soc. 64, 1968).  With x the first object of
such an orbit, K(x) is the group of pairs (a, g) with a: g.x -> x, and F(x)
holds the pairs (-b + g.b, g) for every b in star(x) and every g fixing the
target of b, the elements with fixed points lifted to the universal cover.
F(x) is closed under conjugation, so the subgroup it generates is normal,
and the orbit component is a tree on the object orbits times K(x)/<F(x)>.
The semidirect verb and the semidirect-laws check still compute the
product's whole composition table.

Results come back as dataclasses: SemidirectProduct (groupoid, projection,
action, name_of), QuotientGroupoid (groupoid, morphism), OrbitGroupoid
(groupoid, morphism, and the semidirect product, whose composition table
is computed on first read), and the RestrictOrbitReport and
RegularCoverReport check reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .actions import (GroupoidAction, fixed_subgroupoid, is_free_action,
                      object_orbits, restrict_action, validate_action)
from .catalog import bundle, group_isomorphic, groupoid_from_group
from .core import (FiniteGroupoid, GroupoidMorphism, GroupTable,
                   WideSubgroupoid, blocks_by, classes, components,
                   fresh_name, full_subgroupoid, is_covering, is_fibration,
                   is_quotient_morphism, is_tree_groupoid, object_group,
                   quotient_group, quotient_map, star, subgroup_closure,
                   validate_groupoid, validate_morphism)


@dataclass
class SemidirectProduct:
    """A semidirect product groupoid and its projection onto the group."""

    groupoid: FiniteGroupoid
    projection: GroupoidMorphism
    action: GroupoidAction
    name_of: dict               # (arrow, group element) -> arrow name


def _pair_names(act):
    """Names of the semidirect arrows of a valid action, keyed by pair.

    Identities first, id_x for (id_x, 1), then the pairs (a, g) in input
    order, "(a,g)" with primes added where names holding commas collide.
    An invalid action raises ValueError.
    """
    problems = validate_action(act)
    if problems:
        raise ValueError(f"{act.name}: invalid action: {problems[0]}")
    G, sp = act.group, act.space
    name_of = {(sp.identity_of[x], G.identity): f"id_{x}" for x in sp.objects}
    taken = set(name_of.values())
    for a in sp.arrows:
        for g in G.elements:
            if (a, g) not in name_of:
                name_of[(a, g)] = fresh_name(f"({a},{g})", taken)
    return name_of


class _PairGroupoid(FiniteGroupoid):
    """The semidirect product groupoid on the pairs named by name_of.

    Its composition table, (b, h) + (a, g) = (b + h.a, hg), has about
    |A|^2|G|^2/n entries; it is computed on first read, so that the orbit
    groupoid can carry the product without paying for its compositions.
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
        super().__init__(sp.objects, name_of.values(), source, target,
                         {x: f"id_{x}" for x in sp.objects}, inverse, {},
                         name=f"{sp.name}x{G.name}")
        del self.compose        # the empty table; the property fills it
        self._act, self._name_of = act, name_of

    @cached_property
    def compose(self):
        act, name_of = self._act, self._name_of
        G, sp = act.group, act.space
        into = {}       # object -> the pairs ending there, in order
        for (a, g), u in name_of.items():
            into.setdefault(sp.target[a], []).append((a, g, u))
        return {(v, u): name_of[(sp.compose[(b, act.act_arrow[(h, a)])],
                                 G.mul[(h, g)])]
                for (b, h), v in name_of.items()
                for (a, g, u) in into[self.source[v]]}


def _semidirect(act, name_of):
    """The semidirect product of a valid action on the named pairs, its
    composition table not yet computed and its projection not checked."""
    G = act.group
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
    (a, g) to g; it is always a fibration.
    """
    sd = _semidirect(act, _pair_names(act))
    sd.groupoid.compose     # the whole table, here rather than in a reader
    assert validate_morphism(sd.projection) == []
    assert is_fibration(sd.projection)
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


def quotient_groupoid(k, n, name=None):
    """Quotient of a groupoid by a normal wide subgroupoid.

    Objects are the components of n, named "[x]" after their first object;
    arrows are the equivalence classes under a ~ m + a + n', named "[a]"
    after their first member.  Class addition picks the first connecting
    arrow of n in input order; the result is independent of that choice.
    """
    if not isinstance(n, WideSubgroupoid) or n.ambient is not k:
        raise ValueError("quotient needs a wide subgroupoid of the same groupoid")
    if not n.normal:
        raise ValueError(f"{n.name}: not normal; quotient is undefined")
    name = name or f"{k.name}/{n.name}"

    blocks = components(k, n.arrows)
    obj_class = {x: f"[{block[0]}]" for block in blocks for x in block}
    # arrow classes: [a] = { m + a + n' : m, n' in n }, each represented by
    # its first member in input order; the class of a is an identity class
    # exactly when a is in n
    first = classes(k.arrows, lambda a: (
        k.compose[(m, k.compose[(a, nn)])]
        for nn in n.costar(k.source[a]) for m in n.star(k.target[a])))
    label = {a: f"id_{obj_class[k.source[a]]}" if n.contains(a) else f"[{a}]"
             for a in k.arrows if first[a] == a}
    arrow_class = {u: label[first[u]] for u in k.arrows}
    # identities first, then the rest, each in opening order
    reps = sorted(label, key=lambda a: not n.contains(a))

    source = {label[a]: obj_class[k.source[a]] for a in reps}
    target = {label[a]: obj_class[k.target[a]] for a in reps}
    identity_of = {obj_class[x]: arrow_class[k.identity_of[x]]
                   for x in k.objects}
    inverse = {label[a]: arrow_class[k.inverse_of[a]] for a in reps}
    compose = {}
    for k2 in reps:
        for k1 in reps:
            if target[label[k1]] == source[label[k2]]:
                link = n.hom(k.target[k1], k.source[k2])[0]
                compose[(label[k2], label[k1])] = arrow_class[
                    k.compose[(k.compose[(k2, link)], k1)]]

    gpd = FiniteGroupoid([f"[{block[0]}]" for block in blocks],
                         [label[a] for a in reps], source, target,
                         identity_of, inverse, compose, name=name)
    problems = validate_groupoid(gpd)
    assert problems == [], f"quotient is not a groupoid: {problems[0]}"
    morphism = GroupoidMorphism(k, gpd, obj_class, arrow_class,
                                name=f"cls-{name}")
    assert validate_morphism(morphism) == []
    assert is_quotient_morphism(morphism)
    return QuotientGroupoid(gpd, morphism)


@dataclass
class OrbitGroupoid:
    """An orbit groupoid, its canonical morphism and its semidirect product,
    whose composition table is computed on first read."""

    groupoid: FiniteGroupoid
    morphism: GroupoidMorphism
    semidirect: SemidirectProduct


def _constant_on_orbits(act, f):
    """Whether the morphism f out of act.space is constant on orbits."""
    G, sp = act.group, act.space
    return all(f.object_map[act.act_obj[(g, x)]] == f.object_map[x]
               for g in G.elements for x in sp.objects) and \
        all(f.arrow_map[act.act_arrow[(g, a)]] == f.arrow_map[a]
            for g in G.elements for a in sp.arrows)


def _loop_group(act, x):
    """K(x): the object group at x of the semidirect product, built alone.

    Its elements are the pairs (a, g) with a: g.x -> x, in input order of
    a and then of g, under (b, h)(a, g) = (b + h.a, hg).
    """
    G, sp = act.group, act.space
    pairs = [(a, g) for a in sp.costar(x) for g in G.elements
             if act.act_obj[(g, x)] == sp.source[a]]
    mul = {(v, u): (sp.compose[(v[0], act.act_arrow[(v[1], u[0])])],
                    G.mul[(v[1], u[1])])
           for v in pairs for u in pairs}
    inverse = {(a, g): (act.act_arrow[(G.inv[g], sp.inverse_of[a])],
                        G.inv[g]) for (a, g) in pairs}
    return GroupTable(pairs, mul, name=f"K({x})",
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
    docstring).  Names are the quotient's: the object [x] for each object
    orbit, x its first object; id_[x] for each identity class, first; and
    [u] for every other class, u the semidirect name of its first pair,
    in that order.  One pass over the pairs finds them: each pair u: y -> z
    goes to -t_z + u + t_y in K(x), where the transport t_y: x -> y is
    (identity, k) + t_y0 for y = k.y0, y0 the first object of y's orbit.
    The canonical morphism sends an arrow a to the class of (a, 1); it is
    constant on orbits, surjective, and a fibration, and its objects
    correspond to the object orbits.  The semidirect product comes along
    with its composition table not yet computed.
    """
    G, sp = act.group, act.space
    name_of = _pair_names(act)
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
    quotient, coset = {}, {}
    for x in names_at:
        loops = _loop_group(act, x)
        members = subgroup_closure(loops, _fixer_pairs(act, x))
        # quotient_map raises unless <F(x)> is normal
        quotient[x], coset[x] = quotient_map(loops, members)

    label, arrow_map = {}, {}
    for (a, g), u in name_of.items():
        y, z = act.act_obj[(G.inv[g], sp.source[a])], sp.target[a]
        (cy, hy), (cz, hz) = transport[y], transport[z]
        back = G.inv[hz]
        loop = (act.act_arrow[(back, sp.compose[(
                    sp.inverse_of[cz],
                    sp.compose[(a, act.act_arrow[(g, cy)])])])],
                G.mul[(G.mul[(back, g)], hy)])
        x = base_of[y]
        key = (orbit_of[y], coset[x][loop], orbit_of[z])
        if key not in label:
            label[key] = f"id_{key[0]}" if key[0] == key[2] and \
                key[1] == quotient[x].identity else f"[{u}]"
        if g == G.identity:
            arrow_map[a] = label[key]

    name = f"{sp.name}//{G.name}"
    shape = bundle([f"[{block[0]}]" for block in orbits],
                   [(names_at[x], quotient[x]) for x in names_at],
                   lambda y, v, z, _q: label[(y, v, z)], name)
    # the quotient's arrow order: the classes as the pass opened them
    gpd = FiniteGroupoid(shape.objects, label.values(), shape.source,
                         shape.target, shape.identity_of, shape.inverse_of,
                         shape.compose, name=name)
    problems = validate_groupoid(gpd)
    if problems:
        raise AssertionError(f"orbit groupoid is not a groupoid: "
                             f"{problems[0]}")
    morphism = GroupoidMorphism(sp, gpd, orbit_of, arrow_map,
                                name=f"orbit-{act.name}")
    assert validate_morphism(morphism) == []

    assert _constant_on_orbits(act, morphism)
    assert blocks_by(sp.objects, morphism.object_map) == object_orbits(act)
    assert set(morphism.object_map.values()) == set(gpd.objects)
    assert set(morphism.arrow_map.values()) == set(gpd.arrows)
    assert is_fibration(morphism)
    return OrbitGroupoid(gpd, morphism, _semidirect(act, name_of))


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
