"""The class partition helpers, and every quotient built on them checked
against the hand-written loop it replaced."""

from collections import deque

import pytest

from groupoids import (alternating_group, components, dihedral_group,
                       normal_closure, object_orbits, quaternion_group,
                       quotient_group, quotient_groupoid, symmetric_group)
from groupoids.core import (blocks_by, classes, is_normal_subgroup,
                            subgroup_closure)
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
