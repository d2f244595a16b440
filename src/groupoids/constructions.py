"""Groupoid constructions: semidirect products, normal closures, quotient
groupoids, and orbit groupoids of group actions.

The semidirect product of an action has the same objects as the acted-on
groupoid; an arrow x -> y is a pair (a, g) where a runs from g.x to y.
Addition is (b, h) + (a, g) = (b + h.a, hg) and the negative of (a, g) is
(g^-1.(-a), g^-1).  The orbit groupoid is the quotient of the semidirect
product by the normal closure of the pairs (identity at g.x, g), and its
canonical morphism from the acted-on groupoid is constant on orbits and
universal among such morphisms.

Results come back as dataclasses: SemidirectProduct (groupoid, projection,
action, name_of), QuotientGroupoid (groupoid, morphism), OrbitGroupoid
(groupoid, morphism, semidirect), and the RestrictOrbitReport and
RegularCoverReport check reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import (GroupoidAction, fixed_subgroupoid, is_free_action,
                      object_orbits, restrict_action, validate_action)
from .catalog import group_isomorphic, groupoid_from_group
from .core import (FiniteGroupoid, GroupoidMorphism, WideSubgroupoid,
                   components, compose_morphisms, full_subgroupoid,
                   is_covering, is_fibration, is_quotient_morphism,
                   is_tree_groupoid, object_group, quotient_group, star,
                   subgroup_closure, validate_groupoid, validate_morphism)


@dataclass
class SemidirectProduct:
    """A semidirect product groupoid and its projection onto the group."""

    groupoid: FiniteGroupoid
    projection: GroupoidMorphism
    action: GroupoidAction
    name_of: dict               # (arrow, group element) -> arrow name


def semidirect_product(act):
    """The semidirect product groupoid of an action, with its projection.

    The projection onto the one-object groupoid of the acting group sends
    (a, g) to g; it is always a fibration.
    """
    problems = validate_action(act)
    if problems:
        raise ValueError(f"{act.name}: invalid action: {problems[0]}")
    G, sp = act.group, act.space
    name = f"{sp.name}x{G.name}"

    name_of = {}
    order = []
    for x in sp.objects:
        pair = (sp.identity_of[x], G.identity)
        name_of[pair] = f"id_{x}"
        order.append(pair)
    for a in sp.arrows:
        for g in G.elements:
            pair = (a, g)
            if pair in name_of:
                continue
            name_of[pair] = f"({a},{g})"
            order.append(pair)

    source = {}
    target = {}
    for (a, g) in order:
        u = name_of[(a, g)]
        source[u] = act.act_obj[(G.inv[g], sp.source[a])]
        target[u] = sp.target[a]

    inverse = {}
    for (a, g) in order:
        ginv = G.inv[g]
        inverse[name_of[(a, g)]] = \
            name_of[(act.act_arrow[(ginv, sp.inverse_of[a])], ginv)]

    into = {}       # object -> the pairs ending there, in order
    for (a, g) in order:
        into.setdefault(sp.target[a], []).append((a, g, name_of[(a, g)]))
    compose = {}
    for (b, h) in order:
        v = name_of[(b, h)]
        for (a, g, u) in into[source[v]]:
            compose[(v, u)] = \
                name_of[(sp.compose[(b, act.act_arrow[(h, a)])], G.mul[(h, g)])]

    gpd = FiniteGroupoid(
        sp.objects, [name_of[p] for p in order], source, target,
        {x: f"id_{x}" for x in sp.objects}, inverse, compose, name=name)

    cod = groupoid_from_group(G, name=f"{G.name}-gpd")
    projection = GroupoidMorphism(
        gpd, cod, {x: "pt" for x in sp.objects},
        {name_of[(a, g)]: "id_pt" if g == G.identity else g
         for (a, g) in order},
        name=f"proj-{name}")
    assert validate_morphism(projection) == []
    assert is_fibration(projection)
    return SemidirectProduct(gpd, projection, act, name_of)


def generated_wide_subgroupoid(g, arrows):
    """Saturate a set of arrows with identities, inverses, and compositions."""
    current = set(g.identity_of.values())
    for u in arrows:
        if u not in g.arrow_index:
            raise ValueError(f"{g.name}: unknown arrow {u}")
        current.add(u)
    changed = True
    while changed:
        changed = False
        for u in list(current):
            v = g.inverse_of[u]
            if v not in current:
                current.add(v)
                changed = True
        for v in list(current):
            for u in list(current):
                if g.target[u] == g.source[v]:
                    w = g.compose[(v, u)]
                    if w not in current:
                        current.add(w)
                        changed = True
    ordered = [u for u in g.arrows if u in current]
    return WideSubgroupoid(g, ordered, normal=False, name=f"W{len(ordered)}")


def normal_closure(g, arrows, name=None):
    """Smallest normal wide subgroupoid containing the given arrows.

    Built as the subgroupoid generated by the plain closure of the arrows
    together with all conjugates of its loops; a single conjugation round
    suffices, and the WideSubgroupoid constructor checks the result normal.
    """
    first = generated_wide_subgroupoid(g, arrows)
    conjugates = []
    for h in first.arrows:
        x = g.source[h]
        if g.target[h] != x:
            continue
        for k in star(g, x):
            conjugates.append(g.compose[(g.compose[(k, h)], g.inverse_of[k])])
    closed = generated_wide_subgroupoid(g, list(first.arrows) + conjugates)
    return WideSubgroupoid(g, closed.arrows, normal=True,
                           name=name or f"N{len(closed.arrows)}")


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
    obj_class = {}
    class_objects = []
    for block in blocks:
        label = f"[{block[0]}]"
        class_objects.append(label)
        for x in block:
            obj_class[x] = label

    # arrow classes: [a] = { m + a + n' : m, n' in n }
    by_source = {}
    by_target = {}
    for u in n.arrows:
        by_source.setdefault(k.source[u], []).append(u)
        by_target.setdefault(k.target[u], []).append(u)
    arrow_class = {}
    # classes are disjoint, so the first arrow of a class in input order is
    # the one that opens it; it represents the class
    rep_of = {}
    for a in k.arrows:
        if a in arrow_class:
            continue
        members = set()
        for nn in by_target.get(k.source[a], ()):
            mid = k.compose[(a, nn)]
            for m in by_source.get(k.target[a], ()):
                members.add(k.compose[(m, mid)])
        is_identity_class = any(k.is_identity_arrow(u) for u in members)
        label = (f"id_{obj_class[k.source[a]]}"
                 if is_identity_class else f"[{a}]")
        for u in members:
            assert u not in arrow_class, "equivalence classes overlap"
            arrow_class[u] = label
        rep_of[label] = a

    source = {label: obj_class[k.source[a]] for label, a in rep_of.items()}
    target = {label: obj_class[k.target[a]] for label, a in rep_of.items()}
    identity_of = {obj_class[x]: arrow_class[k.identity_of[x]]
                   for x in k.objects}
    inverse = {label: arrow_class[k.inverse_of[a]]
               for label, a in rep_of.items()}

    # identities first, then the rest, each in opening order
    arrows = [lbl for lbl in rep_of if lbl.startswith("id_")] + \
        [lbl for lbl in rep_of if not lbl.startswith("id_")]

    compose = {}
    for v in arrows:
        for u in arrows:
            if target[u] != source[v]:
                continue
            k2 = rep_of[v]
            k1 = rep_of[u]
            link = next(l for l in k.hom(k.target[k1], k.source[k2])
                        if n.contains(l))
            compose[(v, u)] = arrow_class[
                k.compose[(k.compose[(k2, link)], k1)]]

    gpd = FiniteGroupoid(class_objects, arrows, source, target,
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
    """An orbit groupoid, its canonical morphism and its semidirect product."""

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


def orbit_groupoid(act):
    """The orbit groupoid of an action, with its canonical morphism.

    Quotient of the semidirect product by the normal closure of the pairs
    (identity at g.x, g).  The canonical morphism sends an arrow a to the
    class of (a, 1); it is constant on orbits, surjective, and a fibration,
    and its objects correspond to the object orbits.
    """
    G, sp = act.group, act.space
    sd = semidirect_product(act)
    relations = []
    seen = set()
    for a, g in ((sp.identity_of[x], g) for x in sp.objects
                 for g in G.elements):
        moved = act.act_arrow[(g, a)]
        label = sd.name_of[(moved, g)]
        if label not in seen:
            seen.add(label)
            relations.append(label)
    n = normal_closure(sd.groupoid, relations, name="N-orbit")
    q = quotient_groupoid(sd.groupoid, n, name=f"{sp.name}//{G.name}")
    embed = GroupoidMorphism(
        sp, sd.groupoid, {x: x for x in sp.objects},
        {a: sd.name_of[(a, G.identity)] for a in sp.arrows},
        name="unit-embed")
    assert validate_morphism(embed) == []
    morphism = compose_morphisms(q.morphism, embed, name=f"orbit-{act.name}")

    assert _constant_on_orbits(act, morphism)
    orbit_blocks = {frozenset(block) for block in object_orbits(act)}
    fiber = {}
    for x in sp.objects:
        fiber.setdefault(morphism.object_map[x], []).append(x)
    assert {frozenset(v) for v in fiber.values()} == orbit_blocks
    assert set(morphism.object_map.values()) == set(q.groupoid.objects)
    assert set(morphism.arrow_map.values()) == set(q.groupoid.arrows)
    assert is_fibration(morphism)
    return OrbitGroupoid(q.groupoid, morphism, sd)


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

    Preconditions (errors): p is a covering morphism; deck acts freely on the
    source of p; p is constant on deck orbits.  Checks: the orbit groupoid of
    the deck action is isomorphic to the target over p, and the target object
    group at p(x) is isomorphic to the object group of the semidirect product
    at x, for every x.
    """
    problems = validate_morphism(p)
    if problems:
        raise ValueError(f"{p.name}: not a morphism: {problems[0]}")
    if not is_covering(p):
        raise ValueError(f"{p.name}: not a covering morphism")
    if deck.space is not p.dom:
        raise ValueError("deck action must act on the source of the morphism")
    problems = validate_action(deck)
    if problems:
        raise ValueError(f"{deck.name}: invalid action: {problems[0]}")
    if not is_free_action(deck):
        raise ValueError(f"{deck.name}: deck action is not free")
    if not _constant_on_orbits(deck, p):
        raise ValueError(f"{p.name}: not constant on deck orbits")

    orbit = orbit_groupoid(deck)
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
        lifted_group = object_group(orbit.semidirect.groupoid, x)
        if not group_isomorphic(target_group, lifted_group):
            object_group_iso_ok = False
            details.append(
                f"object group at {p.object_map[x]} does not match the "
                f"semidirect object group at {x}")
    if object_group_iso_ok:
        details.append("target object groups match the semidirect object groups")
    return RegularCoverReport(orbit_iso_ok, object_group_iso_ok,
                              tuple(details))
