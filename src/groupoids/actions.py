"""Actions of a finite group on a finite groupoid by automorphisms."""

from __future__ import annotations

from .core import (GroupoidMorphism, _generators, _group_generators,
                   _morphism_problems, blocks_by, classes, full_subgroupoid,
                   subgroupoid)


class GroupoidAction:
    """A group acting on a groupoid.

    act_obj maps (g, object) to an object, act_arrow maps (g, arrow) to an
    arrow; both are total.  The constructor only stores, keeping the maps
    as given (see the core module docstring); validate_action checks the
    axioms: each element acts by a morphism, unit, composition, and keeps
    its verdict on the action.
    """

    def __init__(self, group, space, act_obj, act_arrow, name="act",
                 group_groupoid=None):
        self.name = name
        self.group = group
        self.space = space
        self.act_obj = act_obj
        self.act_arrow = act_arrow
        # optional: the one-object groupoid the group was read from, kept so
        # emitting the action reproduces the original block byte for byte
        self.group_groupoid = group_groupoid
        self._problems = None     # validate_action's verdict, once computed

    def __repr__(self):
        return (f"GroupoidAction({self.name!r}: {self.group.name} on "
                f"{self.space.name})")


def validate_action(act):
    """Return a list of violated action axioms; empty means valid.

    The verdict is computed on the first call and kept on the action, so
    later calls return a fresh copy of it without checking again: the
    tables of an action are not written once handed over (see the core
    module docstring).
    """
    if act._problems is None:
        act._problems = tuple(_action_problems(act))
    return list(act._problems)


def _action_problems(act):
    """validate_action's check itself, run once per action.

    Expects act.space to be a valid groupoid and act.group a group (an
    associative table).  Each g must act by a morphism (validate_morphism,
    on the space's generators, picked once), then the unit and composition
    axioms are checked on arrows only: g. sends id_x to id_(g.x) and
    identities of distinct objects differ, so e.id_x = id_x gives e.x = x
    and g.(h.id_x) = (gh).id_x gives g.(h.x) = (gh).x.  Once the unit axiom
    holds, the g with g.(h.a) = (gh).a for every h and a contain e and are
    closed under products, so composition is checked for g in a generating
    set S of G only.

    Once the maps are total, a certificate on S comes first:
    (a) g.id_x = id_(g.x) for every g and object x;
    (b) the unit axiom on arrows;
    (c) each s in S acts by a morphism;
    (d) s.(h.a) = (sh).a for every s in S, h and a.
    A pass proves every axiom.  By (b) and (d), composition holds for every
    g, by the closure argument above, so g = s1...sk acts on arrows as the
    composite F of the morphisms by which s1, ..., sk act, by (c), and e
    acts as the identity.  The morphism F sends id_x to id_F(x), and by (a)
    g sends id_x to id_(g.x); identities of distinct objects differ, so
    F(x) = g.x, and g acts by the morphism F.  When the certificate fails,
    every check runs, and every triple is tried only to list the failures,
    so the list is always the full check's.
    """
    problems = []
    G, sp = act.group, act.space
    for g in G.elements:
        for x in sp.objects:
            y = act.act_obj.get((g, x))
            if y is None:
                problems.append(f"missing object image ({g}, {x})")
            elif y not in sp.object_index:
                problems.append(f"({g}, {x}) maps to unknown object {y}")
        for a in sp.arrows:
            b = act.act_arrow.get((g, a))
            if b is None:
                problems.append(f"missing arrow image ({g}, {a})")
            elif b not in sp.arrow_index:
                problems.append(f"({g}, {a}) maps to unknown arrow {b}")
    if problems:
        return problems
    gens = _generators(sp)
    if _certified(act, gens):
        return []
    return _axiom_problems(act, gens)


def _acting(act, g):
    """The maps of g, as a morphism of the space to itself."""
    sp = act.space
    return GroupoidMorphism(
        sp, sp, {x: act.act_obj[(g, x)] for x in sp.objects},
        {a: act.act_arrow[(g, a)] for a in sp.arrows}, name=g)


def _certified(act, gens):
    """Whether a total action passes validate_action's certificate, gens
    the space's generators."""
    G, sp = act.group, act.space
    act_obj, act_arrow, identity_of = act.act_obj, act.act_arrow, \
        sp.identity_of
    if any(act_arrow[(g, identity_of[x])] != identity_of[act_obj[(g, x)]]
           for g in G.elements for x in sp.objects):
        return False
    if any(act_arrow[(G.identity, a)] != a for a in sp.arrows):
        return False
    group_gens = _group_generators(G)
    return not any(_morphism_problems(_acting(act, s), gens)
                   for s in group_gens) and \
        not any(_composition_failures(act, group_gens))


def _axiom_problems(act, gens):
    """Every violated axiom of a total action, as validate_action lists
    them."""
    problems = []
    G, sp = act.group, act.space
    for g in G.elements:
        problems += [f"g={g}: {p}"
                     for p in _morphism_problems(_acting(act, g), gens)]
    if problems:
        return problems

    problems += [f"unit axiom fails on arrow {a}" for a in sp.arrows
                 if act.act_arrow[(G.identity, a)] != a]
    if problems or any(_composition_failures(act, _group_generators(G))):
        problems += [f"composition axiom fails on arrows: g={g}, h={h}, a={a}"
                     for g, h, a in _composition_failures(act, G.elements)]
    return problems


def _composition_failures(act, elements):
    """The triples (g, h, a), g among elements, with g.(h.a) != (gh).a."""
    G, act_arrow = act.group, act.act_arrow
    for g in elements:
        for h in G.elements:
            gh = G.prod(g, h)
            for a in act.space.arrows:
                if act_arrow[(g, act_arrow[(h, a)])] != act_arrow[(gh, a)]:
                    yield g, h, a


def object_orbits(act):
    """Orbit partition of the objects, blocks ordered by first member.

    Overlapping orbits, which only an invalid action has, raise ValueError.
    """
    sp = act.space
    return blocks_by(sp.objects, classes(sp.objects, lambda x: (
        act.act_obj[(g, x)] for g in act.group.elements)))


def is_free_action(act):
    """No non-identity element fixes any object."""
    e = act.group.identity
    return all(act.act_obj[(g, x)] != x
               for g in act.group.elements if g != e
               for x in act.space.objects)


def fixed_subgroupoid(act, elements=None):
    """The substructure fixed by every listed group element (default: all).

    Returned as a plain FiniteGroupoid on the fixed objects and fixed arrows;
    it is generally not wide in the ambient groupoid, and it may be empty
    (no fixed objects at all).
    """
    sp = act.space
    if elements is None:
        elements = act.group.elements
    objs = tuple(x for x in sp.objects
                 if all(act.act_obj[(g, x)] == x for g in elements))
    oset = set(objs)
    arrows = tuple(a for a in sp.arrows
                   if sp.source[a] in oset and sp.target[a] in oset
                   and all(act.act_arrow[(g, a)] == a for g in elements))
    return subgroupoid(sp, objs, arrows, f"{sp.name}^fix")


def trivial_action(group, space, name=None):
    act_obj = {(g, x): x for g in group.elements for x in space.objects}
    act_arrow = {(g, a): a for g in group.elements for a in space.arrows}
    return GroupoidAction(group, space, act_obj, act_arrow,
                          name=name or f"trivial-{group.name}")


def action_from_object_map(group, space, act_obj, name="act"):
    """Derive the arrow map when every hom-set has at most one arrow.

    Works for discrete groupoids, tree groupoids, and their disjoint unions,
    where an automorphism is determined by what it does to objects.
    """
    act_arrow = {}
    for g in group.elements:
        for a in space.arrows:
            x = act_obj[(g, space.source[a])]
            y = act_obj[(g, space.target[a])]
            hom = space.hom(x, y)
            if len(hom) != 1:
                raise ValueError(
                    f"{space.name}: hom({x}, {y}) is not a singleton; "
                    f"the arrow map is not determined")
            act_arrow[(g, a)] = hom[0]
    return GroupoidAction(group, space, act_obj, act_arrow, name=name)


def restrict_action(act, objects):
    """Restrict to the full subgroupoid on an invariant object subset."""
    oset = set(objects)
    for g in act.group.elements:
        for x in objects:
            if act.act_obj[(g, x)] not in oset:
                raise ValueError(
                    f"{act.name}: object set is not invariant "
                    f"({g} moves {x} outside)")
    sub = full_subgroupoid(act.space, objects,
                           name=f"{act.space.name}|{len(oset)}")
    act_obj = {(g, x): act.act_obj[(g, x)]
               for g in act.group.elements for x in sub.objects}
    act_arrow = {(g, a): act.act_arrow[(g, a)]
                 for g in act.group.elements for a in sub.arrows}
    return GroupoidAction(act.group, sub, act_obj, act_arrow,
                          name=f"{act.name}|A",
                          group_groupoid=act.group_groupoid)
