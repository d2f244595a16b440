"""orbit_groupoid by Armstrong's theorem, held to two other routes.

orbit_groupoid does not compose in the semidirect product: the product it
returns computes its composition table on first read.  The reference here
is the route it replaced: the semidirect product, the normal closure of
the pairs (identity at g.x, g), the quotient, and a |-> the class of
(a, 1).  The quotient is test_partition's reference copy, the class scan
that predates the structure theorem, since quotient_groupoid and
orbit_groupoid share their assembly.  Its text must match byte for byte.
The third route lifts the action to K(x) acting on the universal cover at
x; the tree orbit group of the lift must be isomorphic to the orbit object
group at x.
"""

import pytest

from groupoids import (GroupoidMorphism, action_from_object_map, components,
                       constructions, corpus, cyclic_group, dihedral_group,
                       group_isomorphic, normal_closure, object_group,
                       orbit_groupoid, parse_text, render_entities,
                       semidirect_product, symmetric_group, tree_groupoid,
                       tree_orbit_group, validate_action)
from groupoids.constructions import _fixer_pairs, _loop_group
from groupoids.core import is_normal_subgroup, subgroup_closure
from groupoids.suite import _universal_cover
from test_partition import reference_quotient_groupoid


def _reference(act):
    G, sp = act.group, act.space
    sd = semidirect_product(act)
    relations = [sd.name_of[(act.act_arrow[(g, sp.identity_of[x])], g)]
                 for x in sp.objects for g in G.elements]
    n = normal_closure(sd.groupoid, relations, name="N-orbit")
    q = reference_quotient_groupoid(sd.groupoid, n,
                                    name=f"{sp.name}//{G.name}")
    cls = q.morphism
    morphism = GroupoidMorphism(
        sp, q.groupoid, {x: cls.object_map[x] for x in sp.objects},
        {a: cls.arrow_map[sd.name_of[(a, G.identity)]] for a in sp.arrows},
        name=f"orbit-{act.name}")
    return q.groupoid, morphism, sd


def _tables(sd):
    g, p = sd.groupoid, sd.projection
    return (g.name, g.objects, g.arrows,
            *(list(table.items()) for table in (
                g.source, g.target, g.identity_of, g.inverse_of, g.compose,
                p.object_map, p.arrow_map, sd.name_of)),
            p.name, p.cod.name, sd.action)


def _rotation(n):
    """Z_n rotating the n-object tree groupoid freely."""
    space = tree_groupoid([f"v{i}" for i in range(n)], name=f"tree{n}")
    return action_from_object_map(
        cyclic_group(n), space,
        {(str(k), f"v{i}"): f"v{(i + k) % n}"
         for k in range(n) for i in range(n)}, name=f"rot{n}")


def _dihedral(n):
    """D_n on the n-object tree: reflections fix objects when n is odd."""
    group = dihedral_group(n)
    space = tree_groupoid([f"v{i}" for i in range(n)], name=f"tree{n}")
    act_obj = {}
    for index, g in enumerate(group.elements):
        k, flip = index % n, index // n
        for i in range(n):
            act_obj[(g, f"v{i}")] = f"v{(k + (-i if flip else i)) % n}"
    return action_from_object_map(group, space, act_obj, name=f"dih{n}")


def _one_object_actions():
    z6, s3 = cyclic_group(6), symmetric_group(3)
    return [
        corpus._one_object_action(
            cyclic_group(2), z6, {"1": {str(k): str(-k % 6)
                                        for k in range(6)}},
            name="z6-inversion"),
        corpus._one_object_action(
            s3, s3, {g: {e: s3.prod(s3.prod(g, e), s3.inv[g])
                         for e in s3.elements} for g in s3.elements},
            name="s3-conjugation"),
        corpus._one_object_action(
            cyclic_group(3), cyclic_group(5), {}, name="z3-trivial-on-z5"),
    ]


def _comma_names():
    """(u, "v,w") and ("u,v", w) would both be named "(u,v,w)"."""
    parsed = parse_text(
        "groupoid Z3c\nobjects x\narrow u : x -> x\narrow u,v : x -> x\n"
        "inverse u u,v\ncompose u u = u,v\ncompose u,v u,v = u\n\n"
        "groupoid G3\nobjects pt\narrow w : pt -> pt\n"
        "arrow v,w : pt -> pt\ninverse w v,w\ncompose w w = v,w\n"
        "compose v,w v,w = w\n\naction triv on Z3c by G3\n")
    return parsed.entities["triv"]


ACTIONS = ([act for _name, act in corpus.named_actions()]
           + corpus.random_actions() + corpus.random_orbit_instances()
           + _one_object_actions() + [_comma_names()]
           + [_rotation(n) for n in range(2, 13)]
           + [_dihedral(n) for n in range(3, 7)])


def test_the_corpus_has_nontrivial_fixer_groups():
    # F(x) beyond the identity pair, on both kinds of stabilizer
    fixing = [act.name for act in ACTIONS
              if any(len(set(_fixer_pairs(act, x))) > 1
                     for x in act.space.objects)]
    assert {"zmod4-inversion", "path-reflection-fixed", "s3-conjugation",
            "dih3", "dih5"} <= set(fixing)
    assert len(fixing) >= 40


@pytest.mark.parametrize("act", ACTIONS, ids=lambda act: act.name)
def test_orbit_groupoid_matches_the_semidirect_quotient(act):
    orb = orbit_groupoid(act)
    gpd, morphism, sd = _reference(act)
    assert render_entities([orb.groupoid, orb.morphism]) == \
        render_entities([gpd, morphism])
    # the product it carries is the action's, tables in the same order
    assert _tables(orb.semidirect) == _tables(sd)


@pytest.mark.parametrize("act", ACTIONS, ids=lambda act: act.name)
def test_fixer_subgroup_is_normal_and_the_lift_agrees(act):
    orb = orbit_groupoid(act)
    sp = act.space
    for x in sp.objects:
        loops = _loop_group(act, x)
        members = subgroup_closure(loops, _fixer_pairs(act, x))
        assert is_normal_subgroup(loops, members), x
    for block in components(sp):
        x = block[0]
        loops = _loop_group(act, x)
        p, _deck = _universal_cover(sp, x)
        lift = action_from_object_map(
            loops, p.dom,
            {((a, g), b): sp.compose[(act.act_arrow[(g, b)],
                                      sp.inverse_of[a])]
             for (a, g) in loops.elements for b in p.dom.objects},
            name=f"lift-{act.name}")
        assert validate_action(lift) == []
        assert group_isomorphic(
            tree_orbit_group(lift),
            object_group(orb.groupoid, orb.morphism.object_map[x]))


def test_orbit_groupoid_builds_no_semidirect_product(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the orbit route built the product")
    for name in ("semidirect_product", "normal_closure", "quotient_groupoid"):
        monkeypatch.setattr(constructions, name, refuse)
    orb = orbit_groupoid(_rotation(16))
    assert len(orb.groupoid.arrows) == 16
    # the product it carries has every pair, and its table stores no entry
    assert len(orb.semidirect.groupoid.arrows) == 16 ** 3
    assert isinstance(orb.semidirect.groupoid.compose,
                      constructions._PairTable)
    # the table is made once, with the product
    small = orbit_groupoid(_rotation(4)).semidirect.groupoid
    table = small.compose
    assert len(table) == 64 * 64 // 4 and small.compose is table
