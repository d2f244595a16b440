import ast
import copy
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import groupoids
from groupoids import (DirectedGraph, FiniteGroupoid, GraphAction,
                       GroupoidAction, GroupTable, GroupoidMorphism,
                       SizeCapError, WideSubgroupoid, action_from_object_map,
                       alternating_group, components, connected_groupoid,
                       constructions, cyclic_group,
                       dihedral_group, direct_product_group, disjoint_union,
                       discrete_groupoid, full_subgroupoid, group_isomorphic,
                       groupoid_from_group, is_connected, is_covering,
                       is_discrete, is_fibration, is_normal_subgroupoid,
                       is_quotient_morphism, is_tree_groupoid, kernel,
                       klein_group, normal_closure, object_group,
                       orbit_groupoid, quaternion_group, quotient_group,
                       quotient_groupoid, render_entities, search_isomorphism,
                       semidirect_product, star, symmetric_group,
                       tree_groupoid, trivial_group, validate_groupoid,
                       validate_morphism)
from groupoids.catalog import bundle
from groupoids.constructions import _PairGroupoid
from groupoids.core import ISO_ARROW_CAP, _associativity_failures, \
    _generators, _generators_associate, _group_generators, _span, \
    element_order, group_isomorphism, is_abelian_group, is_normal_subgroup, \
    quotient_map, subgroup_closure
from groupoids.corpus import (named_actions, random_actions,
                              random_orbit_instances,
                              random_quotient_instances)


def test_tree_groupoid_shape():
    t = tree_groupoid(("a", "b", "c"))
    assert validate_groupoid(t) == []
    assert is_connected(t)
    assert is_tree_groupoid(t)
    assert not is_discrete(t)
    assert len(t.arrows) == 9
    assert t.compose[("b>c", "a>b")] == "a>c"


def test_discrete_groupoid():
    d = discrete_groupoid(("p", "q"))
    assert validate_groupoid(d) == []
    assert is_discrete(d)
    assert not is_connected(d)
    assert components(d) == [["p"], ["q"]]


def test_validate_groupoid_catches_bad_composition():
    t = tree_groupoid(("a", "b"))
    broken = FiniteGroupoid(
        t.objects, t.arrows, dict(t.source), dict(t.target),
        dict(t.identity_of), dict(t.inverse_of),
        {**t.compose, ("a>b", "b>a"): "id_a"}, name="broken")
    problems = validate_groupoid(broken)
    assert problems
    assert "a>b" in problems[0]


def _assoc_scan(g):
    """The unindexed scan of every composable triple: the reference for
    the associativity part of validate_groupoid."""
    return [f"associativity fails on ({w}, {v}, {u})"
            for (v, u), vu in g.compose.items() for w in g.arrows
            if g.target[v] == g.source[w]
            and g.compose[(g.compose[(w, v)], u)] != g.compose[(w, vu)]]


def _with_compose(g, compose):
    return FiniteGroupoid(g.objects, g.arrows, g.source, g.target,
                          g.identity_of, g.inverse_of, compose, name=g.name)


def _planted_tables(g, rng, count):
    """Tables of g with one entry replaced by another arrow of the same
    hom-set, so every endpoint stays right."""
    keys = [(v, u) for (v, u) in g.compose
            if len(g.hom(g.source[u], g.target[v])) > 1]
    for _ in range(count if keys else 0):
        v, u = rng.choice(keys)
        others = [w for w in g.hom(g.source[u], g.target[v])
                  if w != g.compose[(v, u)]]
        yield _with_compose(g, {**g.compose, (v, u): rng.choice(others)})


def test_light_test_agrees_with_the_full_scan():
    spaces = [act.space for _name, act in named_actions()]
    spaces += [act.space for act in random_actions()]
    spaces += [semidirect_product(act).groupoid
               for act in random_orbit_instances(count=8)]
    spaces += [k for k, _gens in random_quotient_instances()]
    spaces += [connected_groupoid(("a", "b"), vg)
               for vg in (cyclic_group(4), symmetric_group(3), klein_group())]
    rng = random.Random(5)
    light_runs = 0
    for g in spaces:
        assert _generators_associate(g) and validate_groupoid(g) == []
        for h in _planted_tables(g, rng, 12):
            problems = validate_groupoid(h)
            laws = [p for p in problems if not p.startswith("associativity")]
            scan = _assoc_scan(h)
            assert problems == laws + scan
            if not laws:
                assert _generators_associate(h) == (not scan)
                light_runs += 1
    assert light_runs > 100    # tables that reach Light's test


def _seeded_ring(rng, n):
    """Z_n rotating the n-object tree freely, its objects named and listed
    in a seeded order."""
    names = [f"r{k}" for k in rng.sample(range(100), n)]
    space = tree_groupoid(names, name=f"tree{n}")
    return action_from_object_map(
        cyclic_group(n), space,
        {(str(k), names[i]): names[(i + k) % n]
         for k in range(n) for i in range(n)}, name=f"ring{n}")


def test_light_test_by_rows_agrees_with_the_full_scan():
    rng = random.Random(23)
    # greedy picks many generators here, so each s reads many rows
    many = [connected_groupoid([f"x{i}" for i in range(k)], cyclic_group(5))
            for k in (4, 5, 6)]
    many.append(semidirect_product(_seeded_ring(rng, 4)).groupoid)
    failures = 0
    for g in many:
        assert len(_generators(g)) >= 7
        assert _generators_associate(g)
        # entries that no identity or inverse law fixes, so every planted
        # table reaches Light's test
        keys = [(v, u) for (v, u) in g.compose
                if not g.is_identity_arrow(v) and not g.is_identity_arrow(u)
                and g.inverse_of[u] != v]
        for v, u in rng.sample(keys, 4):
            others = [w for w in g.hom(g.source[u], g.target[v])
                      if w != g.compose[(v, u)]]
            h = _with_compose(g, {**g.compose, (v, u): rng.choice(others)})
            scan = _associativity_failures(h)
            assert _generators_associate(h) == (not scan)
            failures += bool(scan)
    assert failures == 16      # every planted table here breaks a triple

    # costars of a single arrow: no generator leaves them, so no row is read
    # at one place
    single = [discrete_groupoid(("p", "q", "r")),
              groupoid_from_group(trivial_group(), name="one"),
              disjoint_union(discrete_groupoid(("p",)),
                             tree_groupoid(("a", "b")))]
    for g in single:
        assert _generators_associate(g)
    # a category with no inverses, where the generator a leaves x, whose
    # costar is id_x alone: a's row is read at one place
    source = {"id_x": "x", "id_y": "y", "id_z": "z",
              "a": "x", "c": "y", "d": "x", "e": "x"}
    target = {"id_x": "x", "id_y": "y", "id_z": "z",
              "a": "y", "c": "z", "d": "z", "e": "z"}
    compose = {(v, u): u if v.startswith("id_") else v
               for v in source for u in source
               if target[u] == source[v] and "id_" in v + u}
    compose[("c", "a")] = "d"
    one_way = FiniteGroupoid("xyz", source, source, target,
                             {x: f"id_{x}" for x in "xyz"}, {}, compose,
                             name="one-way")
    assert _generators(one_way) == ["a", "c", "e"]
    assert _generators_associate(one_way)
    assert _associativity_failures(one_way) == []
    for key, w, holds in ((("d", "id_x"), "e", False),
                          (("c", "a"), "e", True)):
        h = _with_compose(one_way, {**compose, key: w})
        scan = _associativity_failures(h)
        assert _generators_associate(h) == (not scan) == holds

    # products whose rows come from the pair table
    for n in (3, 4, 5):
        h = semidirect_product(_seeded_ring(rng, n)).groupoid
        assert isinstance(h, _PairGroupoid)
        assert _generators_associate(h)
        assert _associativity_failures(h) == []


def test_tree_generators_are_the_arrows_at_the_first_object():
    # a wrong pick leaves every verdict right and only costs time
    for n in range(2, 13):
        names = [str(k) for k in range(n)]
        gens = _generators(tree_groupoid(names))
        assert gens == [f"0>{k}" for k in names[1:]] + \
            [f"{k}>0" for k in names[1:]]
        assert len(gens) == 2 * (n - 1)


def _products(g, arrows):
    """The identities and arrows of g, closed under composition by a naive
    fixpoint."""
    members = set(g.identity_of.values()) | set(arrows)
    while True:
        fresh = {g.compose[(v, u)] for v in members for u in members
                 if g.target[u] == g.source[v]} - members
        if not fresh:
            return members
        members |= fresh


def test_generators_are_picked_greedily_in_input_order():
    spaces = [act.space for _name, act in named_actions()]
    spaces += [act.space for act in random_actions()]
    spaces += [k for k, _gens in random_quotient_instances()]
    for g in spaces:
        gens = _generators(g)
        picked = []
        for u in g.arrows:
            if u not in _products(g, picked):
                picked.append(u)
        assert gens == picked
        assert _products(g, gens) == set(g.arrows)


def test_identity_law_failure_keeps_every_associativity_failure():
    g = groupoid_from_group(cyclic_group(3), name="z3")
    h = _with_compose(g, {**g.compose, ("1", "id_pt"): "2"})
    assert validate_groupoid(h) == [
        "1 + id_pt != 1",
        "associativity fails on (1, id_pt, 1)",
        "associativity fails on (1, id_pt, 2)",
        "associativity fails on (1, 1, id_pt)",
        "associativity fails on (2, 1, id_pt)",
        "associativity fails on (1, 1, 2)",
        "associativity fails on (2, 2, id_pt)",
        "associativity fails on (1, 2, 1)"]


def _table_scan(g):
    """The unindexed scan of every entry, then of every composable pair:
    the reference for the table part of validate_groupoid."""
    problems = []
    for (v, u), w in g.compose.items():
        if v not in g.arrows or u not in g.arrows:
            problems.append(f"compose({v}, {u}) involves unknown arrows")
        elif g.target[u] != g.source[v]:
            problems.append(f"compose({v}, {u}) defined but not composable")
        elif w not in g.arrows:
            problems.append(f"compose({v}, {u}) = {w} is not an arrow")
        elif (g.source[w], g.target[w]) != (g.source[u], g.target[v]):
            problems.append(f"compose({v}, {u}) = {w} has wrong endpoints")
    problems += [f"missing composition: compose {v} {u}"
                 for v in g.arrows for u in g.arrows
                 if g.target[u] == g.source[v] and (v, u) not in g.compose]
    return problems


def _bad_entry(g, compose, rng, kind):
    """Plant one bad entry of kind in compose, a copy of g's table; False
    when g has no room for that kind."""
    keys = list(g.compose)
    v, u = rng.choice(keys)
    if kind == "unknown":
        compose[rng.choice([(v, "nope"), ("nope", u)])] = u
    elif kind == "apart":
        apart = [(v, u) for v in g.arrows for u in g.arrows
                 if g.target[u] != g.source[v]]
        if not apart:
            return False
        compose[rng.choice(apart)] = rng.choice(g.arrows)
    elif kind == "not-an-arrow":
        compose[(v, u)] = "nope"
    elif kind == "endpoints":
        wrong = [w for w in g.arrows if (g.source[w], g.target[w]) !=
                 (g.source[u], g.target[v])]
        if not wrong:
            return False
        compose[(v, u)] = rng.choice(wrong)
    else:
        compose.pop((v, u), None)
    return True


def test_table_problems_match_the_entry_scan():
    # validate_groupoid reads the table by rows; the scans that word its
    # problems must still list every bad entry, in the entries' order
    spaces = [act.space for _name, act in named_actions()]
    spaces += [act.space for act in random_actions()[:20]]
    spaces += [connected_groupoid(("a", "b", "c"), vg)
               for vg in (cyclic_group(3), klein_group())]
    kinds = ("unknown", "apart", "not-an-arrow", "endpoints", "missing")
    words = ("involves unknown arrows", "defined but not composable",
             "is not an arrow", "has wrong endpoints", "missing composition")
    rng = random.Random(11)
    seen = dict.fromkeys(words, 0)
    for g in spaces:
        assert validate_groupoid(g) == [] == _table_scan(g)
        for mix in [[kind] for kind in kinds] + [
                rng.sample(kinds, rng.randint(2, 5)) for _ in range(4)]:
            compose = dict(g.compose)
            if not all([_bad_entry(g, compose, rng, kind) for kind in mix]):
                continue
            h = _with_compose(g, compose)
            problems = validate_groupoid(h)
            assert problems and problems == _table_scan(h)
            for word in words:
                seen[word] += any(word in p for p in problems)
    assert min(seen.values()) > 20, seen


def test_star_orders_arrows_by_input():
    t = tree_groupoid(("a", "b", "c"))
    assert star(t, "a") == ("id_a", "a>b", "a>c")


def test_group_table_basics():
    z6 = cyclic_group(6)
    assert validate_groupoid(groupoid_from_group(z6)) == []
    assert z6.order == 6
    assert element_order(z6, "2") == 3
    assert is_abelian_group(z6)
    s3 = symmetric_group(3)
    assert not is_abelian_group(s3)
    assert sorted(element_order(s3, x) for x in s3.elements) == \
        [1, 2, 2, 2, 3, 3]


def test_subgroups_of_s3():
    s3 = symmetric_group(3)
    a3 = subgroup_closure(s3, ["(012)"])
    assert len(a3) == 3
    assert is_normal_subgroup(s3, a3)
    flip = subgroup_closure(s3, ["(01)"])
    assert len(flip) == 2
    assert not is_normal_subgroup(s3, flip)


def test_quotient_group():
    z4 = cyclic_group(4)
    q = quotient_group(z4, ["0", "2"])
    assert q.order == 2
    assert group_isomorphic(q, cyclic_group(2))


def test_unknown_element_names_are_an_error():
    z4 = cyclic_group(4)
    for call in (lambda: quotient_group(z4, ["0", "2", "bogus"]),
                 lambda: subgroup_closure(z4, ["bogus"])):
        with pytest.raises(ValueError, match="^Z4: unknown element bogus$"):
            call()


def _reference_subgroup_closure(gt, gens):
    """subgroup_closure as it was before _span: every member times every
    new element, on both sides, until nothing new appears."""
    members = {gt.identity}
    work = [g for g in gens if g not in members]
    members.update(work)
    while work:
        fresh = []
        for a in list(members):
            for b in work:
                for c in (gt.prod(a, b), gt.prod(b, a)):
                    if c not in members:
                        members.add(c)
                        fresh.append(c)
        work = fresh
    return tuple(x for x in gt.elements if x in members)


def _reference_group_generators(gt, candidates):
    """_group_generators as it was before _span, over any candidates: a
    fresh closure for every generator."""
    gens, span = [], {gt.identity}
    for x in candidates:
        if x not in span:
            gens.append(x)
            span = set(_reference_subgroup_closure(gt, gens))
    return gens


@pytest.mark.parametrize("group", [
    trivial_group(), *(cyclic_group(n) for n in range(2, 9)), klein_group(),
    symmetric_group(3), dihedral_group(4), quaternion_group(),
    alternating_group(4), symmetric_group(4)], ids=lambda gt: gt.name)
def test_span_matches_the_earlier_closure_and_generators(group):
    elements = list(group.elements)
    inputs = [[x] for x in elements] + \
        [[x, y] for x in elements for y in elements] + [elements]
    for candidates in inputs:
        closure = _reference_subgroup_closure(group, candidates)
        gens, members = _span(group, candidates)
        assert gens == _reference_group_generators(group, candidates)
        assert members == set(closure)
        assert subgroup_closure(group, candidates) == closure
    assert _group_generators(group) == \
        _reference_group_generators(group, elements)


@pytest.mark.parametrize("group", [
    symmetric_group(3), dihedral_group(4), quaternion_group(),
    alternating_group(4), symmetric_group(4)], ids=lambda gt: gt.name)
def test_quotient_map_checks_normality_on_generators(group):
    subgroups = {subgroup_closure(group, (a, b))
                 for a in group.elements for b in group.elements}
    normal = [h for h in subgroups if is_normal_subgroup(group, h)]
    # every subgroup of Q8 is normal; the other four have some that are not
    assert len(normal) > 2
    assert (len(normal) == len(subgroups)) == (group.name == "Q8")
    for h in subgroups:
        if h in normal:
            quotient_map(group, h)
        else:
            with pytest.raises(ValueError, match="subgroup is not normal$"):
                quotient_map(group, h)
        # a subgroup less one element is no subgroup, normal or not
        if len(h) > 2:
            with pytest.raises(ValueError,
                               match="subset not closed under product$"):
                quotient_map(group, h[:-1])


def test_direct_product_group():
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    p = direct_product_group(z2, z3)
    assert p.order == 6
    assert is_abelian_group(p)
    assert group_isomorphic(p, cyclic_group(6))


def _eager_product(a, b):
    """direct_product_group(a, b), and the same group with its table built
    as a dict from the two component tables: the reference for the table
    that computes products on lookup."""
    p = direct_product_group(a, b)
    pair = dict(zip(p.elements, ((x, y) for x in a.elements
                                 for y in b.elements)))
    name_of = {xy: u for u, xy in pair.items()}
    mul = {(u, v): name_of[(a.mul[(pair[u][0], pair[v][0])],
                            b.mul[(pair[u][1], pair[v][1])])]
           for u in p.elements for v in p.elements}
    return p, GroupTable(p.elements, mul, name="eager", identity=p.identity,
                         inv=p.inv)


@pytest.mark.parametrize("a, b", [
    (cyclic_group(2), cyclic_group(3)),
    (cyclic_group(2), cyclic_group(2)),     # the klein group
    *((g, g) for g in (symmetric_group(3), dihedral_group(4),
                       quaternion_group(), alternating_group(4)))],
    ids=lambda g: g.name)
def test_direct_product_table_is_computed_on_lookup(a, b):
    p, eager = _eager_product(a, b)
    assert dict(p.mul.items()) == eager.mul
    assert len(p.mul) == len(eager.mul)
    assert list(p.mul) == list(eager.mul)
    e = p.identity
    assert p.mul.get(("bogus", e)) is None
    for key in (("bogus", e), 7, (e,)):
        with pytest.raises(KeyError):
            p.mul[key]
    # equal tables on the same names already make the identity map an
    # isomorphism; the search runs where its size cap lets it
    if p.order <= ISO_ARROW_CAP:
        assert group_isomorphic(p, eager)


def test_direct_product_names_with_commas_stay_distinct():
    # (u, "v,w") and ("u,v", w) would both be named "(u,v,w)"
    def z3(names, name):
        return GroupTable(names, {(x, y): names[(i + j) % 3]
                                  for i, x in enumerate(names)
                                  for j, y in enumerate(names)}, name=name)
    a, b = z3(["e", "u", "u,v"], "A"), z3(["e", "w", "v,w"], "B")
    p = direct_product_group(a, b)
    assert p.elements == ("(e,e)", "(e,w)", "(e,v,w)", "(u,e)", "(u,w)",
                          "(u,v,w)", "(u,v,e)", "(u,v,w)'", "(u,v,v,w)")
    assert p.identity == "(e,e)"
    assert p.prod("(u,v,w)", "(u,v,w)") == "(u,v,w)'"
    assert p.prod("(u,v,w)'", "(u,v,w)'") == "(u,v,w)"
    assert group_isomorphic(p, direct_product_group(cyclic_group(3),
                                                    cyclic_group(3)))
    # names that do not collide keep their plain pair form
    assert klein_group().elements == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")


def test_object_group_reads_loops():
    gpd = groupoid_from_group(symmetric_group(3))
    g = object_group(gpd, "pt")
    assert g.order == 6
    assert group_isomorphic(g, symmetric_group(3))


def test_morphism_validation():
    t = tree_groupoid(("x", "y"))
    z2 = groupoid_from_group(cyclic_group(2))
    fold = GroupoidMorphism(
        t, z2, {"x": "pt", "y": "pt"},
        {"id_x": "id_pt", "id_y": "id_pt", "x>y": "1", "y>x": "1"},
        name="fold")
    assert validate_morphism(fold) == []
    assert is_fibration(fold)
    assert is_covering(fold)
    # hom(x, y) has one arrow but hom(pt, pt) has two, so fold is not full
    assert not is_quotient_morphism(fold)
    bad = GroupoidMorphism(
        t, z2, {"x": "pt", "y": "pt"},
        {"id_x": "id_pt", "id_y": "id_pt", "x>y": "1", "y>x": "id_pt"},
        name="bad")
    assert validate_morphism(bad)


def test_kernel_is_normal():
    z4 = groupoid_from_group(cyclic_group(4))
    z2 = groupoid_from_group(cyclic_group(2), name="half")
    halve = GroupoidMorphism(
        z4, z2, {"pt": "pt"},
        {"id_pt": "id_pt", "1": "1", "2": "id_pt", "3": "1"}, name="halve")
    assert validate_morphism(halve) == []
    assert is_quotient_morphism(halve)
    ker = kernel(halve)
    assert set(ker.arrows) == {"id_pt", "2"}
    assert ker.normal
    assert is_normal_subgroupoid(ker)


def test_wide_subgroupoid_basics():
    z4 = groupoid_from_group(cyclic_group(4))
    # identities are added whether listed or not
    w = WideSubgroupoid(z4, ("2",))
    assert w.at("pt") == ("id_pt", "2")
    assert w.contains("2") and not w.contains("1")
    assert validate_groupoid(w.as_groupoid()) == []


_WIDE_FAILURES = """
from groupoids import (WideSubgroupoid, cyclic_group, groupoid_from_group,
                       symmetric_group)
s3 = groupoid_from_group(symmetric_group(3))
z5 = groupoid_from_group(cyclic_group(5))
for g, arrows in ((s3, ("(01)", "(02)", "(12)")), (z5, ("1", "2")),
                  (z5, ("q", "1", "p", "q"))):
    try:
        WideSubgroupoid(g, arrows)
    except ValueError as err:
        print(err)
"""


def test_wide_subgroupoid_closure_checks():
    z4 = groupoid_from_group(cyclic_group(4))
    with pytest.raises(ValueError):
        WideSubgroupoid(z4, ("1",))    # inverse 3 missing
    s3 = groupoid_from_group(symmetric_group(3))
    with pytest.raises(ValueError):
        WideSubgroupoid(s3, ("(01)", "(02)"))   # product escapes
    with pytest.raises(ValueError):
        WideSubgroupoid(s3, ("(01)",), normal=True)

    # the message names the first failure in ambient order, and unknown
    # arrows in the order given, whatever the hash seed
    src = str(Path(groupoids.__file__).resolve().parents[1])
    outputs = {subprocess.run(
        [sys.executable, "-c", _WIDE_FAILURES], capture_output=True,
        text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
    ).stdout for seed in range(1, 6)}
    assert outputs == {
        "S3-gpd-sub: not closed under composition at ((12), (01))\n"
        "Z5-gpd-sub: not closed under inverse at 1\n"
        "Z5-gpd-sub: unknown arrows ['q', 'p']\n"}


def test_identity_morphism():
    t = tree_groupoid(("x", "y"))
    ident = GroupoidMorphism(t, t, {x: x for x in t.objects},
                             {u: u for u in t.arrows}, name="id_tree")
    assert validate_morphism(ident) == []


def test_full_subgroupoid_and_disjoint_union():
    t = tree_groupoid(("a", "b", "c"))
    sub = full_subgroupoid(t, ("a", "c"))
    assert set(sub.objects) == {"a", "c"}
    assert len(sub.arrows) == 4
    d = discrete_groupoid(("p",))
    u = disjoint_union(sub, d)
    assert len(components(u)) == 2
    with pytest.raises(ValueError):
        disjoint_union(t, t)


def test_search_isomorphism():
    a = groupoid_from_group(cyclic_group(4), name="a")
    b = groupoid_from_group(cyclic_group(4), object_name="o", name="b")
    iso = search_isomorphism(a, b)
    assert iso is not None
    c = groupoid_from_group(direct_product_group(cyclic_group(2),
                                                 cyclic_group(2)), name="c")
    assert search_isomorphism(a, c) is None


def test_search_isomorphism_cap():
    big = tree_groupoid([f"v{i}" for i in range(9)])
    assert len(big.arrows) == 81
    with pytest.raises(SizeCapError):
        search_isomorphism(big, big)


def test_group_isomorphic_inherits_the_search_cap():
    # group_isomorphism keeps the groupoid search's cap: a group of order n
    # counts as its n-arrow one-object groupoid
    assert group_isomorphic(cyclic_group(64), cyclic_group(64))
    with pytest.raises(SizeCapError, match="capped at 64 arrows"):
        group_isomorphic(cyclic_group(65), cyclic_group(65))
    # the invariants tried before the search need no cap
    assert not group_isomorphic(cyclic_group(65), cyclic_group(66))


# --- isomorphism against the earlier object-and-arrow backtracker ---------

def _reference_search_isomorphism(a, b):
    """The earlier backtracker: objects by (loops, star, costar) profile,
    then every non-identity arrow, checked against composition as it
    goes."""
    if len(a.arrows) > 64 or len(b.arrows) > 64:
        raise SizeCapError("isomorphism search capped at 64 arrows")
    if len(a.objects) != len(b.objects) or len(a.arrows) != len(b.arrows):
        return None

    def profile(g, x):
        return (len(g.loops(x)), len(star(g, x)), len(g.costar(x)))

    profiles_b = {y: profile(b, y) for y in b.objects}
    object_map, used_objects = {}, set()
    non_identity = [u for u in a.arrows if not a.is_identity_arrow(u)]
    arrow_map, used_arrows = {}, set()
    triples_of = {u: [] for u in a.arrows}
    for (v, u), w in a.compose.items():
        for key in {v, u, w}:
            triples_of[key].append((v, u, w))

    def arrow_consistent(u, w):
        partner = a.inverse_of[u]
        if partner in arrow_map and arrow_map[partner] != b.inverse_of[w]:
            return False
        arrow_map[u] = w
        try:
            for (p, q, r) in triples_of[u]:
                fp, fq, fr = (arrow_map.get(p), arrow_map.get(q),
                              arrow_map.get(r))
                if fp is not None and fq is not None:
                    got = b.compose.get((fp, fq))
                    if got is None or (fr is not None and got != fr):
                        return False
        finally:
            del arrow_map[u]
        return True

    def assign_arrows(k):
        if k == len(non_identity):
            return True
        u = non_identity[k]
        for w in b.hom(object_map[a.source[u]], object_map[a.target[u]]):
            if w in used_arrows or b.is_identity_arrow(w):
                continue
            if not arrow_consistent(u, w):
                continue
            arrow_map[u] = w
            used_arrows.add(w)
            if assign_arrows(k + 1):
                return True
            del arrow_map[u]
            used_arrows.remove(w)
        return False

    def assign_objects(i):
        if i == len(a.objects):
            if any(len(a.hom(x, y)) != len(b.hom(object_map[x], object_map[y]))
                   for x in a.objects for y in a.objects):
                return False
            for x in a.objects:
                arrow_map[a.identity_of[x]] = b.identity_of[object_map[x]]
            if assign_arrows(0):
                return True
            for x in a.objects:
                del arrow_map[a.identity_of[x]]
            return False
        x = a.objects[i]
        for y in b.objects:
            if y in used_objects or profiles_b[y] != profile(a, x):
                continue
            object_map[x] = y
            used_objects.add(y)
            if assign_objects(i + 1):
                return True
            del object_map[x]
            used_objects.remove(y)
        return False

    if not assign_objects(0):
        return None
    return GroupoidMorphism(a, b, object_map, arrow_map)


def _reference_group_isomorphic(a, b):
    if (a.order, is_abelian_group(a)) != (b.order, is_abelian_group(b)):
        return False
    if sorted(element_order(a, x) for x in a.elements) != \
            sorted(element_order(b, x) for x in b.elements):
        return False
    return _reference_search_isomorphism(groupoid_from_group(a),
                                         groupoid_from_group(b)) is not None


def _z4_semidirect_z4():
    """Z4 x| Z4: (a, b)(c, d) = (a + (-1)^b c, b + d) mod 4."""
    pairs = [(a, b) for b in range(4) for a in range(4)]
    return GroupTable(
        [f"{a}.{b}" for a, b in pairs],
        {(f"{a}.{b}", f"{c}.{d}"): f"{(a + (-1) ** b * c) % 4}.{(b + d) % 4}"
         for a, b in pairs for c, d in pairs}, name="Z4xZ4'")


def _test_groups():
    z = cyclic_group
    return [trivial_group(), z(2), z(3), z(4), klein_group(), z(5), z(6),
            symmetric_group(3), z(8), direct_product_group(z(4), z(2)),
            direct_product_group(klein_group(), z(2)), dihedral_group(4),
            quaternion_group(), z(9), direct_product_group(z(3), z(3)),
            dihedral_group(5), z(12), alternating_group(4), dihedral_group(6),
            direct_product_group(z(6), z(2)),
            direct_product_group(quaternion_group(), z(2)),
            direct_product_group(dihedral_group(4), z(2)),
            direct_product_group(z(4), z(4)), _z4_semidirect_z4(),
            symmetric_group(4)]


def _assert_isomorphism(iso):
    assert validate_morphism(iso) == []
    for part, dom, cod in ((iso.object_map, iso.dom.objects, iso.cod.objects),
                           (iso.arrow_map, iso.dom.arrows, iso.cod.arrows)):
        assert sorted(part) == sorted(dom)
        assert sorted(part.values()) == sorted(cod)


def test_group_isomorphism_agrees_with_the_reference_on_all_pairs():
    groups = _test_groups()
    assert len(groups) == 25
    for a in groups:
        for b in groups:
            want = _reference_group_isomorphic(a, b)
            assert group_isomorphic(a, b) == want, (a.name, b.name)
            phi = group_isomorphism(a, b)
            assert (phi is not None) == want, (a.name, b.name)
            if phi is not None:
                assert sorted(phi.values()) == sorted(b.elements)
                assert all(phi[a.prod(x, y)] == b.prod(phi[x], phi[y])
                           for x in a.elements for y in a.elements)
            iso = search_isomorphism(groupoid_from_group(a),
                                     groupoid_from_group(b))
            assert (iso is not None) == want, (a.name, b.name)
            if iso is not None:
                _assert_isomorphism(iso)


def test_search_isomorphism_agrees_with_the_reference_on_the_corpus():
    spaces = [act.space for _name, act in named_actions()]
    spaces += [act.space for act in random_actions()]
    spaces += [act.space for act in random_orbit_instances()]
    spaces += [k for k, _gens in random_quotient_instances()]
    spaces += [orbit_groupoid(act).groupoid
               for act in random_orbit_instances()]
    spaces = [g for g in spaces if len(g.arrows) <= 64]
    assert len(spaces) == 125
    isomorphic = 0
    for a in spaces:
        for b in spaces:
            iso = search_isomorphism(a, b)
            want = _reference_search_isomorphism(a, b) is not None
            assert (iso is not None) == want, (a.name, b.name)
            if iso is not None:
                _assert_isomorphism(iso)
                isomorphic += 1
    assert isomorphic > len(spaces)


def test_z4_semidirect_z4_is_not_q8_times_z2():
    a = _z4_semidirect_z4()
    b = direct_product_group(quaternion_group(), cyclic_group(2))
    assert validate_groupoid(groupoid_from_group(a)) == []
    # the invariants group_isomorphic compares first do not tell them apart,
    # so the generator search has to exhaust its choices
    assert a.order == b.order == 16
    assert not is_abelian_group(a) and not is_abelian_group(b)
    assert sorted(element_order(a, x) for x in a.elements) == \
        sorted(element_order(b, x) for x in b.elements)
    assert not group_isomorphic(a, b)
    assert not group_isomorphic(b, a)


def _one_object_union(*groups):
    """Disjoint union of one-object groupoids on objects p0, p1, ..."""
    union = None
    for i, gt in enumerate(groups):
        part = bundle((f"p{i}",), [((f"p{i}",), gt)],
                      lambda x, v, _y, _vg: f"{x}:{v}", f"{gt.name}@{i}")
        union = part if union is None else disjoint_union(union, part)
    return union


def test_search_isomorphism_pairs_components_by_object_group():
    a = _one_object_union(cyclic_group(4), klein_group())
    iso = search_isomorphism(a, _one_object_union(klein_group(),
                                                  cyclic_group(4)))
    _assert_isomorphism(iso)
    assert iso.object_map == {"p0": "p1", "p1": "p0"}
    assert search_isomorphism(
        a, _one_object_union(cyclic_group(4), cyclic_group(4))) is None


def test_groupoid_from_group_round():
    s3 = symmetric_group(3)
    gpd = groupoid_from_group(s3)
    # the identity element becomes id_pt, every other element keeps its name
    assert gpd.identity_of["pt"] == "id_pt"
    assert gpd.arrows == ("id_pt",) + tuple(
        g for g in s3.elements if g != s3.identity)
    assert "(01)" in gpd.arrow_index
    assert validate_groupoid(gpd) == []


def test_trivial_group():
    one = trivial_group()
    assert one.order == 1
    assert validate_groupoid(groupoid_from_group(one)) == []


_PLANTED_MORPHISM_FAILURE = """
import groupoids.core as core
from groupoids import (normal_closure, orbit_groupoid, quotient_groupoid,
                       search_isomorphism, semidirect_product, tree_groupoid)
from groupoids.corpus import named_actions
act = dict(named_actions())["tree-swap"]
t = tree_groupoid(("x", "y"))
core.validate_morphism = lambda f: ["planted"]
for build in (lambda: semidirect_product(act), lambda: orbit_groupoid(act),
              lambda: quotient_groupoid(t, normal_closure(t, ["x>y"])),
              lambda: search_isomorphism(t, t)):
    try:
        build()
    except AssertionError as exc:
        print(exc)
"""


def test_morphism_postconditions_survive_python_O():
    src = str(Path(groupoids.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", _PLANTED_MORPHISM_FAILURE],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines() == [
        "proj-segxZ2 is not a morphism: planted",
        "orbit-tree-swap is not a morphism: planted",
        "cls-tree/N4 is not a morphism: planted",
        "tree~tree is not a morphism: planted"]


_PLANTED_POSTCONDITION_FAILURE = """
import groupoids.constructions as c
from groupoids import (normal_closure, orbit_groupoid, quotient_groupoid,
                       semidirect_product, tree_groupoid)
from groupoids.corpus import named_actions
act = dict(named_actions())["tree-swap"]
t = tree_groupoid(("x", "y"))
c.is_fibration = c.is_quotient_morphism = c._constant_on_orbits = \\
    lambda *_args: False
for build in (lambda: semidirect_product(act), lambda: orbit_groupoid(act),
              lambda: quotient_groupoid(t, normal_closure(t, ["x>y"]))):
    try:
        build()
    except AssertionError as exc:
        print(exc)
"""


def test_postconditions_survive_python_O():
    src = str(Path(groupoids.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", _PLANTED_POSTCONDITION_FAILURE],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines() == [
        "proj-segxZ2 is not a fibration",
        "orbit-tree-swap is not constant on orbits",
        "cls-tree/N4 is not a quotient morphism"]


def test_postcondition_asserts_do_not_grow():
    # python -O strips asserts, so every postcondition is a raise through
    # core._ensure, and no assert may come in
    root = Path(groupoids.__file__).parent
    asserts = {path.name: sum(isinstance(node, ast.Assert)
                              for node in ast.walk(ast.parse(
                                  path.read_text(encoding="utf-8"))))
               for path in sorted(root.glob("*.py"))}
    assert sum(asserts.values()) == 0, (
        f"{sum(asserts.values())} asserts in src/groupoids, none allowed: "
        f"write postconditions as core._ensure raises, which python -O "
        f"keeps; per file: {asserts}")


def _unused_imports(tree):
    """The names a module imports and never reads, in import order."""
    imported = [alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_every_module_uses_what_it_imports():
    # __init__ imports to re-export; every other module imports only
    # what it uses, so a refactor that drops the last use drops the import
    root = Path(groupoids.__file__).parent
    unused = {path.name: names for path in sorted(root.glob("*.py"))
              if path.name != "__init__.py"
              for names in [_unused_imports(ast.parse(
                  path.read_text(encoding="utf-8")))] if names}
    assert unused == {}, f"imported and never used: {unused}"
    # the check sees a name that is imported and not read
    assert _unused_imports(ast.parse(
        "import os\nfrom itertools import chain as c, product\nc()")) == \
        ["os", "product"]


def test_constructors_keep_the_tables_they_are_given():
    z2 = cyclic_group(2)
    mul, inv = dict(z2.mul), dict(z2.inv)
    group = GroupTable(z2.elements, mul, name="Z2", identity="0", inv=inv)
    assert group.mul is mul and group.inv is inv
    t = tree_groupoid(("x", "y"))
    tables = {name: dict(getattr(t, name)) for name in (
        "source", "target", "identity_of", "inverse_of", "compose")}
    g = FiniteGroupoid(t.objects, t.arrows, **tables, name="t")
    assert all(getattr(g, name) is table for name, table in tables.items())
    object_map, arrow_map = {x: x for x in g.objects}, \
        {u: u for u in g.arrows}
    f = GroupoidMorphism(g, g, object_map, arrow_map)
    assert f.object_map is object_map and f.arrow_map is arrow_map
    act_obj = {(h, x): x for h in group.elements for x in g.objects}
    act_arrow = {(h, u): u for h in group.elements for u in g.arrows}
    act = GroupoidAction(group, g, act_obj, act_arrow)
    assert act.act_obj is act_obj and act.act_arrow is act_arrow
    source, target = {"e": "v"}, {"e": "v"}
    graph = DirectedGraph(("v",), ("e",), source, target)
    assert graph.source is source and graph.target is target
    act_vertex = {(h, "v"): "v" for h in group.elements}
    act_edge = {(h, "e"): "e" for h in group.elements}
    graph_act = GraphAction(group, graph, act_vertex, act_edge)
    assert graph_act.act_vertex is act_vertex
    assert graph_act.act_edge is act_edge
    rotation = action_from_object_map(
        group, t, {("0", "x"): "x", ("0", "y"): "y",
                   ("1", "x"): "y", ("1", "y"): "x"})
    assert isinstance(semidirect_product(rotation).groupoid.compose,
                      constructions._PairTable)
    # handed to the constructor, not made on a later read
    product = _PairGroupoid(rotation,
                            dict(constructions._pair_names(rotation)))
    assert isinstance(vars(product)["compose"], constructions._PairTable)


def _given_tables(act):
    """Every mapping an action holds, its space's and its group's."""
    return [value for entity in (act, act.space, act.group)
            for value in vars(entity).values() if isinstance(value, dict)]


def test_no_construction_writes_to_a_table_it_was_given():
    acts = [act for _name, act in named_actions()] + random_actions() + \
        random_orbit_instances()
    for act in acts:
        before = copy.deepcopy(_given_tables(act))
        G, sp = act.group, act.space
        sd = semidirect_product(act)
        orb = orbit_groupoid(act)
        n = normal_closure(sd.groupoid, [
            sd.name_of[(sp.identity_of[act.act_obj[(g, x)]], g)]
            for g in G.elements for x in sp.objects])
        quot = quotient_groupoid(sd.groupoid, n)
        assert len(quot.groupoid.arrows) == len(orb.groupoid.arrows)
        for entities in ([act], [sd.groupoid, sd.projection],
                         [orb.groupoid, orb.morphism]):
            render_entities(entities)
        assert _given_tables(act) == before, act.name
