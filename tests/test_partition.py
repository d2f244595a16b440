"""The class partition helpers, and the quotients checked against the
hand-written loops and the class scan they replaced."""

import random
from collections import deque

import pytest

from groupoids import (FiniteGroupoid, GroupoidMorphism, WideSubgroupoid,
                       alternating_group, components, connected_groupoid,
                       dihedral_group, disjoint_union, normal_closure,
                       object_orbits, quaternion_group, quotient_group,
                       quotient_groupoid, render_entities, semidirect_product,
                       symmetric_group, validate_groupoid, validate_morphism)
from groupoids.constructions import QuotientGroupoid
from groupoids.core import (blocks_by, classes, is_normal_subgroup,
                            is_quotient_morphism, subgroup_closure)
from groupoids.corpus import (_group_pool, named_actions, random_actions,
                              random_orbit_instances,
                              random_quotient_instances)


# --- references: the loops the helpers replaced --------------------------

def _reference_object_orbits(act):
    sp = act.space
    seen = set()
    blocks = []
    for x in sp.objects:
        if x in seen:
            continue
        block = {x} | {act.act_obj[(g, x)] for g in act.group.elements}
        seen |= block
        blocks.append(sorted(block, key=sp.object_index.__getitem__))
    return blocks


def _reference_components(g, arrows=None):
    adjacent = {x: [] for x in g.objects}
    for u in g.arrows if arrows is None else arrows:
        adjacent[g.source[u]].append(g.target[u])
        adjacent[g.target[u]].append(g.source[u])
    seen = set()
    blocks = []
    for x in g.objects:
        if x in seen:
            continue
        queue = deque([x])
        seen.add(x)
        block = []
        while queue:
            y = queue.popleft()
            block.append(y)
            for z in adjacent[y]:
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
        blocks.append(sorted(block, key=g.object_index.__getitem__))
    return blocks


def _reference_quotient_group(gt, members):
    """(elements, mul, identity, inv) of gt/members, cosets labelled by the
    coset map of the earlier quotient_group."""
    coset_of = {}
    reps = []
    for x in gt.elements:
        if x in coset_of:
            continue
        label = f"[{x}]"
        reps.append((x, label))
        for n in members:
            coset_of[gt.prod(x, n)] = label
    elements = [label for _, label in reps]
    rep_of = {label: x for x, label in reps}
    mul = {(la, lb): coset_of[gt.prod(rep_of[la], rep_of[lb])]
           for la in elements for lb in elements}
    return (tuple(elements), mul, coset_of[gt.identity],
            {la: coset_of[gt.inv[rep_of[la]]] for la in elements})


def _reference_coset_blocks(gt, members):
    mset = set(members)
    seen = set()
    blocks = []
    for g in gt.elements:
        if g in seen:
            continue
        block = tuple(x for x in gt.elements
                      if x in {gt.prod(g, m) for m in mset})
        seen.update(block)
        blocks.append(block)
    return blocks


def _reference_arrow_classes(k, n):
    """The class map and the arrow order of the earlier quotient_groupoid."""
    obj_class = {x: f"[{b[0]}]" for b in _reference_components(k, n.arrows)
                 for x in b}
    arrow_class = {}
    rep_of = {}
    for a in k.arrows:
        if a in arrow_class:
            continue
        members = {k.compose[(m, k.compose[(a, nn)])]
                   for nn in n.costar(k.source[a])
                   for m in n.star(k.target[a])}
        label = (f"id_{obj_class[k.source[a]]}"
                 if any(k.is_identity_arrow(u) for u in members)
                 else f"[{a}]")
        for u in members:
            assert u not in arrow_class
            arrow_class[u] = label
        rep_of[label] = a
    arrows = [lbl for lbl in rep_of if lbl.startswith("id_")] + \
        [lbl for lbl in rep_of if not lbl.startswith("id_")]
    return arrow_class, arrows


def reference_quotient_groupoid(k, n, name=None):
    """quotient_groupoid as it was before it read the structure theorem: a
    class scan over m + a + n', then every pair of class representatives
    composed through the first connecting arrow of n in input order."""
    if not isinstance(n, WideSubgroupoid) or n.ambient is not k:
        raise ValueError("quotient needs a wide subgroupoid of the same groupoid")
    if not n.normal:
        raise ValueError(f"{n.name}: not normal; quotient is undefined")
    name = name or f"{k.name}/{n.name}"

    blocks = components(k, n.arrows)
    obj_class = {x: f"[{block[0]}]" for block in blocks for x in block}
    first = classes(k.arrows, lambda a: (
        k.compose[(m, k.compose[(a, nn)])]
        for nn in n.costar(k.source[a]) for m in n.star(k.target[a])))
    label = {a: f"id_{obj_class[k.source[a]]}" if n.contains(a) else f"[{a}]"
             for a in k.arrows if first[a] == a}
    arrow_class = {u: label[first[u]] for u in k.arrows}
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
    assert validate_groupoid(gpd) == []
    morphism = GroupoidMorphism(k, gpd, obj_class, arrow_class,
                                name=f"cls-{name}")
    assert validate_morphism(morphism) == []
    assert is_quotient_morphism(morphism)
    return QuotientGroupoid(gpd, morphism)


# --- the helpers ----------------------------------------------------------

def test_classes_are_named_after_their_first_member():
    parts = {"a": "ca", "b": "db", "e": "e"}
    first = classes("abcde", lambda x: parts[x])
    assert first == {"a": "a", "b": "b", "c": "a", "d": "b", "e": "e"}
    assert list(first) == list("abcde")


def test_an_item_is_always_in_its_own_class():
    assert classes("ab", lambda x: ()) == {"a": "a", "b": "b"}
    assert classes("ab", lambda x: "b") == {"a": "a", "b": "a"}


def test_overlapping_classes_raise_naming_both_first_members():
    parts = {"a": "ab", "c": "cb"}
    with pytest.raises(ValueError, match="classes of a and c overlap"):
        classes("abc", lambda x: parts[x])


def test_blocks_by_orders_blocks_by_first_member_and_keeps_item_order():
    key = {"p": 2, "q": 1, "r": 2, "s": 1, "t": 3}
    assert blocks_by("pqrst", key) == [["p", "r"], ["q", "s"], ["t"]]
    assert blocks_by((), {}) == []


# --- the quotients against their references -------------------------------

def _actions():
    return ([act for _name, act in named_actions()] + random_actions()
            + random_orbit_instances())


def test_orbits_and_components_match_the_earlier_loops():
    for act in _actions():
        assert object_orbits(act) == _reference_object_orbits(act), act.name
        sp = act.space
        assert components(sp) == _reference_components(sp), act.name
        loops = [u for u in sp.arrows if sp.source[u] == sp.target[u]]
        assert components(sp, loops) == _reference_components(sp, loops)


def _quotient_instances():
    """(groupoid, normal wide subgroupoid) pairs for the reference copy."""
    out = [(k, normal_closure(k, gens))
           for k, gens in random_quotient_instances()]
    for _name, act in named_actions():
        sd = semidirect_product(act)
        g, sp = sd.groupoid, act.space
        relations = [sd.name_of[(act.act_arrow[(h, sp.identity_of[x])], h)]
                     for x in sp.objects for h in act.group.elements]
        out += [(g, normal_closure(g, g.arrows[-2:])),
                (g, normal_closure(g, relations))]
    rng = random.Random(5)
    for act in _actions():
        sp = act.space
        for size in range(4):
            out.append((sp, normal_closure(
                sp, rng.sample(sp.arrows, min(size, len(sp.arrows))))))
    # vertex groups that are not abelian, cut by arrows that are not loops
    k = disjoint_union(
        disjoint_union(connected_groupoid(("s0", "s1"), symmetric_group(3)),
                       connected_groupoid(("q0", "q1"), quaternion_group())),
        connected_groupoid(("d0", "d1", "d2"), dihedral_group(3)), name="u")
    rng = random.Random(9)
    bridges = [u for u in k.arrows if k.source[u] != k.target[u]]
    out += [(k, normal_closure(k, rng.sample(bridges, size)))
            for size in (0, 1, 1, 2, 2, 3, 3, 4)]
    empty = FiniteGroupoid((), (), {}, {}, {}, {}, {}, name="empty")
    return out + [(empty, normal_closure(empty, ()))]


def test_quotient_groupoid_matches_its_reference_copy_byte_for_byte():
    # the text holds the compose and inverse tables as well as the classes
    instances = _quotient_instances()
    assert len(instances) >= 380
    for k, n in instances:
        new, old = quotient_groupoid(k, n), reference_quotient_groupoid(k, n)
        assert render_entities([new.groupoid, new.morphism]) == \
            render_entities([old.groupoid, old.morphism]), (k.name, n.arrows)


def test_quotient_groupoids_match_the_earlier_loops():
    for k, gens in random_quotient_instances():
        assert components(k) == _reference_components(k), k.name
        n = normal_closure(k, gens)
        assert components(k, n.arrows) == \
            _reference_components(k, n.arrows), k.name
        quot = quotient_groupoid(k, n)
        arrow_class, arrows = _reference_arrow_classes(k, n)
        assert quot.morphism.arrow_map == arrow_class, k.name
        assert list(quot.groupoid.arrows) == arrows, k.name


@pytest.mark.parametrize("group", [symmetric_group(3), dihedral_group(4),
                                   quaternion_group(), alternating_group(4)],
                         ids=lambda g: g.name)
def test_quotient_group_matches_the_earlier_coset_map(group):
    subgroups = {subgroup_closure(group, (a, b))
                 for a in group.elements for b in group.elements}
    normal = [h for h in subgroups if is_normal_subgroup(group, h)]
    assert len(normal) >= 3
    for members in normal:
        q = quotient_group(group, members)
        assert (q.elements, q.mul, q.identity, q.inv) == \
            _reference_quotient_group(group, members)


def test_corpus_cosets_match_the_earlier_coset_blocks():
    for G, subgroups, _chars in _group_pool(6):
        for h in subgroups:
            first = classes(G.elements, lambda g: [G.prod(g, m) for m in h])
            assert [tuple(b) for b in blocks_by(G.elements, first)] == \
                _reference_coset_blocks(G, h)
