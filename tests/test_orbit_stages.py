"""Orbit groupoids in stages: for N normal in G, (X//N)//(G/N) is X//G over X.

G/N acts on X//N: the coset of g acts by the morphism that x |-> [g.x] out
of X induces, which constructions._induced gives.  Both X//G and
(X//N)//(G/N) are universal among the morphisms out of X that are constant
on G-orbits, so X -> X//N -> (X//N)//(G/N) induces an isomorphism out of
X//G.  This holds orbit_groupoid to itself above oracle.MAX_SOURCE_ARROWS,
where the orbit-universal check stops, without the semidirect route.
"""

import random

import pytest

from groupoids import (GroupoidAction, GroupTable, action_from_object_map,
                       cyclic_group, orbit_groupoid, oracle, tree_groupoid,
                       validate_action)
from groupoids.constructions import _induced
from groupoids.core import is_normal_subgroup, quotient_map, subgroup_closure
from groupoids.corpus import (named_actions, random_actions,
                              random_orbit_instances)


def _proper_normal_subgroups(G):
    """The members of every proper normal subgroup of G, in element order,
    the subgroups ordered by their members' positions."""
    found, work = set(), [(G.identity,)]
    while work:
        h = work.pop()
        if h not in found:
            found.add(h)
            work += [subgroup_closure(G, h + (g,)) for g in G.elements
                     if g not in h]
    return sorted((h for h in found
                   if len(h) < G.order and is_normal_subgroup(G, h)),
                  key=lambda h: [G.index[g] for g in h])


def _restricted(act, members):
    """The action of the subgroup with these members."""
    G = act.group
    N = GroupTable(members, {(a, b): G.mul[(a, b)]
                             for a in members for b in members},
                   name=f"{G.name}|{len(members)}", identity=G.identity,
                   inv={a: G.inv[a] for a in members})
    return GroupoidAction(
        N, act.space,
        {(g, x): act.act_obj[(g, x)] for g in members
         for x in act.space.objects},
        {(g, a): act.act_arrow[(g, a)] for g in members
         for a in act.space.arrows}, name=f"{act.name}|N")


def _induced_action(act, members, orbit):
    """G/N acting on X//N, orbit the orbit groupoid of N's action."""
    G, sp = act.group, act.space
    quotient, coset = quotient_map(G, members)
    q, space = orbit.morphism, orbit.groupoid
    act_obj, act_arrow = {}, {}
    for g in G.elements:
        c = coset[g]
        if (c, space.objects[0]) in act_obj:
            continue
        phi, problems = _induced(
            orbit, space,
            {x: q.object_map[act.act_obj[(g, x)]] for x in sp.objects},
            {a: q.arrow_map[act.act_arrow[(g, a)]] for a in sp.arrows}, c)
        assert problems == []
        act_obj.update(((c, y), z) for y, z in phi.object_map.items())
        act_arrow.update(((c, u), w) for u, w in phi.arrow_map.items())
    return GroupoidAction(quotient, space, act_obj, act_arrow,
                          name=f"{act.name}/N")


def _check_stages(act, members):
    by_n = orbit_groupoid(_restricted(act, members))
    upper = _induced_action(act, members, by_n)
    assert validate_action(upper) == []
    staged = orbit_groupoid(upper)
    whole = orbit_groupoid(act)
    sp, q, r = act.space, by_n.morphism, staged.morphism
    psi, problems = _induced(
        whole, staged.groupoid,
        {x: r.object_map[q.object_map[x]] for x in sp.objects},
        {a: r.arrow_map[q.arrow_map[a]] for a in sp.arrows}, "stages")
    assert problems == []
    # psi is a morphism, and a bijection on objects and on arrows
    for ours, theirs, image in (
            (whole.groupoid.objects, staged.groupoid.objects,
             psi.object_map.values()),
            (whole.groupoid.arrows, staged.groupoid.arrows,
             psi.arrow_map.values())):
        assert len(ours) == len(set(image)) == len(theirs)


def _ring(n, seed):
    """Z_n rotating the n-object tree, its objects in a seeded order."""
    rng = random.Random(seed)
    objs = [f"v{i}" for i in range(n)]
    space = tree_groupoid(rng.sample(objs, n), name=f"ring{n}")
    return action_from_object_map(
        cyclic_group(n), space,
        {(str(k), objs[i]): objs[(i + k) % n]
         for k in range(n) for i in range(n)}, name=f"ring{n}s{seed}")


CORPUS = ([act for _name, act in named_actions()] + random_actions()
          + random_orbit_instances())
PAIRS = [(act, members) for act in CORPUS
         for members in _proper_normal_subgroups(act.group)]


def test_the_corpus_pairs():
    # 71 trivial subgroups and 70 others; the rings below reach further
    # past the oracle's cap
    assert len(PAIRS) == 141
    assert sum(len(members) > 1 for _act, members in PAIRS) == 70
    assert {len(members) for _act, members in PAIRS} == {1, 2, 3}
    assert sum(len(act.space.arrows) > oracle.MAX_SOURCE_ARROWS
               for act, _members in PAIRS) == 3


def test_orbit_groupoids_in_stages_over_the_corpus():
    for act, members in PAIRS:
        _check_stages(act, members)


@pytest.mark.parametrize("n, seed", [(12, 1), (16, 2), (24, 3)])
def test_orbit_groupoids_in_stages_over_the_rings(n, seed):
    act = _ring(n, seed)
    subgroups = _proper_normal_subgroups(act.group)
    # Z_n has one subgroup per divisor of n
    assert len(subgroups) == sum(n % d == 0 for d in range(1, n))
    for members in subgroups:
        _check_stages(act, members)
