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

orbit_groupoid names and keys the pairs only until every class has its
first pair.  The reference for that early stop is the walk it replaced,
which keys every pair before naming the classes; and the orbit morphism's
invariance, checked on the group's generators, is held to the oracle's
scan over every element.
"""

import random
from itertools import islice

import pytest

from groupoids import (FiniteGroupoid, GroupoidMorphism,
                       action_from_object_map, components, constructions,
                       corpus, cyclic_group, dihedral_group,
                       group_isomorphic, normal_closure, object_group,
                       oracle, orbit_groupoid, parse_text, render_entities,
                       semidirect_product, symmetric_group, tree_groupoid,
                       tree_orbit_group, validate_action)
from groupoids.catalog import bundle
from groupoids.constructions import _fixer_pairs, _loop_group, _pair_names
from groupoids.core import _InternalError, is_normal_subgroup, subgroup_closure
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


_PRIMED_ROTATION = """\
groupoid tri
objects x y z
arrow u : x -> y
arrow u,v : x -> z
arrow b : y -> z
arrow c : y -> x
arrow d : z -> x
arrow e : z -> y
inverse u c
inverse u,v d
inverse b e
compose b u = u,v
compose e u,v = u
compose u d = e
compose c e = d
compose d b = c
compose u,v c = b

groupoid Z3c
objects pt
arrow v,id_pt : pt -> pt
arrow w : pt -> pt
inverse v,id_pt w
compose v,id_pt v,id_pt = w
compose w w = v,id_pt

action turn on tri by Z3c
obj v,id_pt : x -> y
obj v,id_pt : y -> z
obj v,id_pt : z -> x
obj w : x -> z
obj w : y -> x
obj w : z -> y
arr v,id_pt : u -> b
arr v,id_pt : u,v -> c
arr v,id_pt : b -> d
arr v,id_pt : c -> e
arr v,id_pt : d -> u
arr v,id_pt : e -> u,v
arr w : u -> d
arr w : u,v -> e
arr w : b -> u
arr w : c -> u,v
arr w : d -> b
arr w : e -> c
"""


def _primed_rotation():
    """Z3 rotating a three-object tree: (u, "v,id_pt") and ("u,v", id_pt)
    are both "(u,v,id_pt)", and the second, primed, is the first pair of
    its class."""
    return parse_text(_PRIMED_ROTATION).entities["turn"]


def _shuffled_ring(n, seed):
    """Z_n rotating the n-object tree, its objects and its arrows listed in
    a seeded order."""
    rng = random.Random(seed)
    objs = [f"v{i}" for i in range(n)]
    tree = tree_groupoid(rng.sample(objs, n), name=f"tree{n}")
    arrows = rng.sample(tree.arrows, len(tree.arrows))
    space = FiniteGroupoid(tree.objects, arrows, tree.source, tree.target,
                           tree.identity_of, tree.inverse_of, tree.compose,
                           name=tree.name)
    return action_from_object_map(
        cyclic_group(n), space,
        {(str(k), objs[i]): objs[(i + k) % n]
         for k in range(n) for i in range(n)}, name=f"ring{n}s{seed}")


ACTIONS = ([act for _name, act in corpus.named_actions()]
           + corpus.random_actions() + corpus.random_orbit_instances()
           + _one_object_actions() + [_comma_names(), _primed_rotation()]
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


def _label_every_pair(keyed, blocks):
    """The class names when every pair is keyed first: each class named
    after its first pair, id_Y for an identity class."""
    ids = {(y, vg.identity, y) for objs, vg in blocks for y in objs}
    label = {}
    for u, key in keyed:
        label.setdefault(key, f"id_{key[0]}" if key in ids else f"[{u}]")
    return label


EARLY_STOP = ([act for _name, act in corpus.named_actions()]
              + corpus.random_actions() + corpus.random_orbit_instances()
              + [_shuffled_ring(n, seed=n) for n in range(8, 17)]
              + [_comma_names(), _primed_rotation()])


@pytest.mark.parametrize("act", EARLY_STOP, ids=lambda act: act.name)
def test_the_early_stop_names_what_keying_every_pair_names(act, monkeypatch):
    orb = orbit_groupoid(act)
    # the same walk again, every pair named and keyed before any class is
    walks = []
    assemble = constructions._assemble

    def every_pair(objects, blocks, keyed, name):
        walks.append((objects, blocks, list(keyed), name))
        return assemble(*walks[-1])
    monkeypatch.setattr(constructions, "_assemble", every_pair)
    orbit_groupoid(act)
    (objects, blocks, keyed, name), = walks
    name_of = dict(_pair_names(act))
    assert [u for u, _key in keyed] == list(name_of.values())
    label = _label_every_pair(keyed, blocks)
    shape = bundle(objects, blocks, lambda y, v, z, _vg: label[(y, v, z)],
                   name)
    gpd = FiniteGroupoid(
        shape.objects,
        sorted(label.values(), key=lambda u: not u.startswith("id_")),
        shape.source, shape.target, shape.identity_of, shape.inverse_of,
        shape.compose, name=name)
    class_of = {u: label[key] for u, key in keyed}
    morphism = GroupoidMorphism(
        act.space, gpd, orb.morphism.object_map,
        {a: class_of[name_of[(a, act.group.identity)]]
         for a in act.space.arrows}, name=orb.morphism.name)
    assert render_entities([orb.groupoid, orb.morphism]) == \
        render_entities([gpd, morphism])


def test_a_pair_name_prime_reaches_a_class_name():
    orb = orbit_groupoid(_primed_rotation())
    assert orb.groupoid.arrows == ("id_[x]", "[(u,id_pt)]", "[(u,v,id_pt)']")
    assert orb.morphism.arrow_map["u,v"] == "[(u,v,id_pt)']"


def test_orbit_groupoid_names_only_the_pairs_it_needs(monkeypatch):
    names = []
    fresh = constructions.fresh_name

    def counted(name, taken):
        names.append(name)
        return fresh(name, taken)
    monkeypatch.setattr(constructions, "fresh_name", counted)
    orb = orbit_groupoid(_rotation(12))
    assert len(orb.groupoid.arrows) == 12
    # naming every pair would take 144 * 12 - 12 calls
    assert len(names) == 253
    # the product, read later, names every pair again
    assert len(orb.semidirect.groupoid.arrows) == 144 * 12
    assert len(names) == 253 + 144 * 12 - 12


def test_a_walk_that_runs_out_of_pairs_is_an_internal_error(monkeypatch):
    pairs = constructions._pair_names
    monkeypatch.setattr(constructions, "_pair_names",
                        lambda act: islice(pairs(act), 20))
    with pytest.raises(_InternalError,
                       match="tree4//Z4: a class has no arrow"):
        orbit_groupoid(_rotation(4))


def _swapped(f, count):
    """Copies of f, one for each of its first count arrows a, with the
    images of a and of the first arrow that f maps elsewhere exchanged."""
    arrows, image = f.dom.arrows, f.arrow_map
    for a in arrows[:count]:
        b = next((b for b in arrows if image[b] != image[a]), None)
        if b is not None:
            planted = dict(image)
            planted[a], planted[b] = image[b], image[a]
            yield GroupoidMorphism(f.dom, f.cod, f.object_map, planted)


def test_invariance_on_generators_agrees_with_the_full_scan():
    verdicts = []
    for act in ACTIONS:
        f = orbit_groupoid(act).morphism
        assert constructions._constant_on_orbits(act, f), act.name
        for g in _swapped(f, 4):
            ours = constructions._constant_on_orbits(act, g)
            assert ours == oracle._constant_on_orbits(act, g), act.name
            verdicts.append(ours)
    # a swap keeps the map invariant where, as under a trivial action,
    # every orbit is one object and one arrow
    assert (len(verdicts), sum(verdicts)) == (266, 55)
