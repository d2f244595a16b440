import ast
import itertools
from collections import Counter
from pathlib import Path

import pytest

from groupoids import (GroupPresentation, GroupTable, GroupoidMorphism,
                       SizeCapError, abelian_invariants, alternating_group,
                       connected_groupoid, cyclic_group, dihedral_group,
                       direct_product_group, discrete_groupoid,
                       disjoint_union, group_isomorphic, groupoid_from_group,
                       klein_group, normal_closure, orbit_groupoid,
                       quaternion_group, semidirect_product, symmetric_group,
                       tree_groupoid, trivial_action, trivial_group)
from groupoids import oracle, suite
from groupoids.corpus import (named_actions, random_quotient_instances,
                              standard_target_family)


def _named(name):
    return dict(named_actions())[name]


def test_enumerate_morphisms_counts_group_homs():
    z2 = groupoid_from_group(cyclic_group(2))
    z3 = groupoid_from_group(cyclic_group(3))
    assert len(oracle.enumerate_morphisms(z2, z2)) == 2
    assert len(oracle.enumerate_morphisms(z2, z3)) == 1
    assert len(oracle.enumerate_morphisms(z3, z3)) == 3


def test_enumerate_morphisms_size_caps():
    z2 = groupoid_from_group(cyclic_group(2))
    big = tree_groupoid(("a", "b", "c", "d"), name="path4")
    with pytest.raises(SizeCapError):
        oracle.enumerate_morphisms(big, z2)
    wide = tree_groupoid(("a", "b", "c"), name="tri")
    with pytest.raises(SizeCapError):
        oracle.enumerate_morphisms(z2, wide)


def test_invariant_morphisms_are_constant_on_orbits():
    act = _named("point-swap")
    cod = discrete_groupoid(("d0", "d1"), name="targets")
    all_morphisms = oracle.enumerate_morphisms(act.space, cod)
    assert len(all_morphisms) == 4
    invariant = oracle.invariant_morphisms(act, cod)
    assert len(invariant) == 2
    for f in invariant:
        assert f.object_map["p"] == f.object_map["q"]


def test_wide_subgroupoid_lattice_matches_subgroup_counts():
    z4 = groupoid_from_group(cyclic_group(4))
    assert len(oracle.wide_subgroupoid_lattice(z4)) == 3
    s3 = groupoid_from_group(symmetric_group(3))
    assert len(oracle.wide_subgroupoid_lattice(s3)) == 6
    huge = tree_groupoid(tuple("abcde"), name="path5")
    with pytest.raises(SizeCapError):
        oracle.wide_subgroupoid_lattice(huge)


def test_minimal_normal_closure_in_s3():
    s3 = groupoid_from_group(symmetric_group(3))
    assert len(oracle.minimal_normal_closure(s3, ["(01)"])) == 6
    assert oracle.minimal_normal_closure(s3, []) == frozenset({"id_pt"})
    assert oracle.minimal_normal_closure(s3, ["(012)"]) == \
        frozenset({"id_pt", "(012)", "(021)"})
    assert oracle.minimal_normal_closure(s3, s3.arrows) == \
        frozenset(s3.arrows)


def test_minimal_normal_closure_agrees_with_saturation():
    s3 = groupoid_from_group(symmetric_group(3))
    for gens in ([], ["(01)"], ["(012)"], ["(01)", "(012)"]):
        direct = normal_closure(s3, gens)
        assert set(direct.arrows) == set(oracle.minimal_normal_closure(s3, gens))


def test_group_normal_closure():
    s3 = symmetric_group(3)
    assert len(oracle.group_normal_closure(s3, ["(012)"])) == 3
    assert len(oracle.group_normal_closure(s3, ["(01)"])) == 6
    assert oracle.group_normal_closure(s3, []) == (s3.identity,)


def test_finite_quotient_by_diagonal():
    s3 = symmetric_group(3)
    square = direct_product_group(s3, s3)
    diagonal = [f"({h},{h})" for h in s3.elements]
    quot = oracle.finite_quotient(square, diagonal)
    assert quot.order == 2

    z4 = cyclic_group(4)
    square = direct_product_group(z4, z4)
    diagonal = [f"({h},{h})" for h in z4.elements]
    assert group_isomorphic(oracle.finite_quotient(square, diagonal), z4)

    assert oracle.finite_quotient(s3, [s3.identity]).order == 6


def test_abelian_group_invariants():
    assert oracle.abelian_group_invariants(cyclic_group(6)) == (6,)
    klein = direct_product_group(cyclic_group(2), cyclic_group(2))
    assert oracle.abelian_group_invariants(klein) == (2, 2)
    with pytest.raises(ValueError):
        oracle.abelian_group_invariants(symmetric_group(3))


def _diagonal_presentation(orders):
    """<x0, x1, ... | xi^orders[i], [xi, xj]>, presenting Z_a x Z_b x ..."""
    gens = tuple(f"x{i}" for i in range(len(orders)))
    powers = [((g, 1),) * n for g, n in zip(gens, orders)]
    commutators = [((g, 1), (h, 1), (g, -1), (h, -1))
                   for g, h in itertools.combinations(gens, 2)]
    return GroupPresentation(gens, powers + commutators)


def test_abelian_group_invariants_match_the_relation_matrix_route():
    products = [(a, b) for a in range(1, 13) for b in range(1, 13)]
    products += [(2, 2, 2), (2, 3, 5), (2, 4, 8), (5, 5, 5), (2, 6, 12),
                 (6, 6, 4), (3, 6, 9), (4, 4, 12)]
    for orders in products:
        gt = cyclic_group(orders[0])
        for n in orders[1:]:
            gt = direct_product_group(gt, cyclic_group(n))
        inv = abelian_invariants(_diagonal_presentation(orders))
        assert inv.free_rank == 0, orders
        assert oracle.abelian_group_invariants(gt) == inv.torsion, orders


def test_brute_abelianization():
    assert oracle.brute_abelianization(symmetric_group(3)) == (2,)
    assert oracle.brute_abelianization(quaternion_group()) == (2, 2)
    assert oracle.brute_abelianization(dihedral_group(4)) == (2, 2)
    # an abelian group is its own abelianization
    assert oracle.brute_abelianization(cyclic_group(6)) == (6,)


def test_universal_property_of_an_orbit_morphism():
    act = _named("point-swap")
    orb = orbit_groupoid(act)
    targets = [groupoid_from_group(trivial_group(), name="one"),
               discrete_groupoid(("d0", "d1"), name="two")]
    report = oracle.check_universal_property(act, orb.morphism, targets)
    assert report.ok
    assert [n for (n, _c, _m, _e) in report.entries] == ["one", "two"]


def _identity(g):
    return GroupoidMorphism(g, g, {x: x for x in g.objects},
                            {u: u for u in g.arrows}, name=f"id_{g.name}")


def test_universal_property_preconditions():
    act = _named("point-swap")
    targets = [groupoid_from_group(trivial_group(), name="one")]
    not_invariant = _identity(act.space)
    with pytest.raises(ValueError, match="constant on orbits"):
        oracle.check_universal_property(act, not_invariant, targets)
    stranger = _identity(discrete_groupoid(("p", "q"), name="other"))
    with pytest.raises(ValueError, match="domain"):
        oracle.check_universal_property(act, stranger, targets)


# Reference copies of the oracle's earlier pairwise closure, normality scan
# and full-scan morphism enumeration; the differential tests below hold the
# current oracle to their results and their order.

def _reference_closure(g, seed):
    current = set(g.identity_of.values()) | set(seed)
    changed = True
    while changed:
        changed = False
        for u in list(current):
            if g.inverse_of[u] not in current:
                current.add(g.inverse_of[u])
                changed = True
        for v in list(current):
            for u in list(current):
                if g.target[u] == g.source[v] and \
                        g.compose[(v, u)] not in current:
                    current.add(g.compose[(v, u)])
                    changed = True
    return frozenset(current)


def _reference_is_normal(g, arrow_set):
    for a in g.arrows:
        x = g.source[a]
        for h in arrow_set:
            if g.source[h] == x and g.target[h] == x:
                if g.compose[(g.compose[(a, h)], g.inverse_of[a])] \
                        not in arrow_set:
                    return False
    return True


def _reference_lattice(g):
    base = _reference_closure(g, ())
    order, queue = [base], [base]
    while queue:
        current = queue.pop(0)
        for a in g.arrows:
            if a not in current:
                grown = _reference_closure(g, current | {a})
                if grown not in order:
                    order.append(grown)
                    queue.append(grown)
    return order


def _reference_minimum(g, lattice, arrows):
    candidates = [s for s in lattice
                  if set(arrows) <= s and _reference_is_normal(g, s)]
    return frozenset.intersection(*candidates)


def _reference_morphisms(dom, cod):
    """(object map, arrow map) pairs, checking every triple at each step."""
    non_identity = [u for u in dom.arrows if not dom.is_identity_arrow(u)]
    triples = list(dom.compose.items())
    found = []
    for images in itertools.product(cod.objects, repeat=len(dom.objects)):
        object_map = dict(zip(dom.objects, images))
        arrow_map = {dom.identity_of[x]: cod.identity_of[object_map[x]]
                     for x in dom.objects}

        def consistent():
            for (v, u), w in triples:
                fv = arrow_map.get(v)
                fu = arrow_map.get(u)
                fw = arrow_map.get(w)
                if fv is None or fu is None or fw is None:
                    continue
                if cod.compose.get((fv, fu)) != fw:
                    return False
            return True

        def extend(k):
            if k == len(non_identity):
                found.append((dict(object_map), dict(arrow_map)))
                return
            a = non_identity[k]
            if a in arrow_map:
                extend(k + 1)
                return
            partner = dom.inverse_of[a]
            x = object_map[dom.source[a]]
            y = object_map[dom.target[a]]
            for b in cod.hom(x, y):
                if partner == a and cod.inverse_of[b] != b:
                    continue
                arrow_map[a] = b
                if partner != a:
                    arrow_map[partner] = cod.inverse_of[b]
                if consistent():
                    extend(k + 1)
                del arrow_map[a]
                if partner != a:
                    del arrow_map[partner]

        extend(0)
    return found


def _normal_closure_minimal_instances():
    """The instances of the normal-closure-minimal check, in its order."""
    instances = list(random_quotient_instances())
    named = dict(named_actions())
    for name in ("tree-swap", "point-swap", "zmod4-inversion",
                 "trivial-on-z2", "path-reflection-fixed"):
        sd = semidirect_product(named[name])
        instances.append((sd.groupoid, sd.groupoid.arrows[-2:]))
    return [(k, gens) for (k, gens) in instances
            if len(k.arrows) <= oracle.MAX_LATTICE_ARROWS]


def test_lattice_and_minimum_match_the_pairwise_reference():
    instances = _normal_closure_minimal_instances()
    assert len(instances) == 27
    for (k, gens) in instances:
        lattice = _reference_lattice(k)
        assert oracle.wide_subgroupoid_lattice(k) == lattice, k.name
        assert oracle.minimal_normal_closure(k, gens) == \
            _reference_minimum(k, lattice, gens), k.name


def test_enumeration_matches_the_full_scan_reference():
    # every (space, target) and (orbit groupoid, target) pair that the
    # orbit-universal check enumerates
    pairs = 0
    for act in suite._Run().orbit_actions:
        orb = orbit_groupoid(act)
        for dom in (act.space, orb.groupoid):
            for cod in standard_target_family():
                got = [(f.object_map, f.arrow_map)
                       for f in oracle.enumerate_morphisms(dom, cod)]
                assert got == _reference_morphisms(dom, cod), \
                    (dom.name, cod.name)
                pairs += 1
    assert pairs == 83 * 2 * 6


def test_lattice_skip_matches_the_pairwise_reference_beyond_the_suite():
    # groupoids whose lattices the suite's instances do not reach: groups
    # with many subgroups, connected and tree groupoids, a discrete one
    z2, z3 = cyclic_group(2), cyclic_group(3)
    groupoids = [groupoid_from_group(gt) for gt in (
        symmetric_group(3), dihedral_group(4), quaternion_group(),
        alternating_group(4),
        direct_product_group(klein_group(), z2, name="Z2^3"))]
    groupoids += [connected_groupoid("ab", z2), connected_groupoid("ab", z3),
                  connected_groupoid("abc", z2), tree_groupoid("abcd"),
                  discrete_groupoid("abc")]
    for g in groupoids:
        lattice = _reference_lattice(g)
        assert oracle.wide_subgroupoid_lattice(g) == lattice, g.name
        for size in (1, 2):
            for gens in itertools.combinations(g.arrows, size):
                assert oracle.minimal_normal_closure(g, gens) == \
                    _reference_minimum(g, lattice, gens), (g.name, gens)
    # three objects with Z3 has 27 arrows, above the lattice cap
    with pytest.raises(SizeCapError):
        oracle.wide_subgroupoid_lattice(connected_groupoid("abc", z3))


def _renamed(gt, prefix):
    """gt with its elements renamed prefix0, prefix1, ... and listed in
    reverse order, so that the identity comes last."""
    new = {x: f"{prefix}{i}" for i, x in enumerate(reversed(gt.elements))}
    return GroupTable(new.values(),
                      {(new[x], new[y]): new[z]
                       for (x, y), z in gt.mul.items()},
                      name=f"{prefix}{gt.name}")


def _benchmark_targets():
    """One-object targets shaped like the benchmark's target files."""
    return [groupoid_from_group(_renamed(klein_group(), "k"), "pk",
                                name="T-klein"),
            groupoid_from_group(_renamed(dihedral_group(3), "d"), "pd",
                                name="T-d3")]


def _reference_constant(act, object_map, arrow_map):
    """Full scan: the maps agree on x and g·x for every g and every x."""
    G, sp = act.group, act.space
    return all(object_map[act.act_obj[(g, x)]] == object_map[x]
               for g in G.elements for x in sp.objects) and \
        all(arrow_map[act.act_arrow[(g, a)]] == arrow_map[a]
            for g in G.elements for a in sp.arrows)


def _reference_entries(act, candidate, targets):
    """check_universal_property's entries, from the reference enumeration
    and the full-scan invariance filter."""
    objects, arrows = act.space.objects, act.space.arrows
    entries = []
    for cod in targets:
        composites = Counter(
            (tuple(om[candidate.object_map[x]] for x in objects),
             tuple(am[candidate.arrow_map[a]] for a in arrows))
            for (om, am) in _reference_morphisms(candidate.cod, cod))
        hits = [composites[(tuple(om[x] for x in objects),
                            tuple(am[a] for a in arrows))]
                for (om, am) in _reference_morphisms(act.space, cod)
                if _reference_constant(act, om, am)]
        entries.append((cod.name, len(hits), hits.count(0),
                        sum(1 for h in hits if h > 1)))
    return tuple(entries)


def test_enumeration_and_invariance_on_the_benchmark_target_shapes():
    pairs = 0
    for act in suite._Run().orbit_actions:
        orb = orbit_groupoid(act)
        for cod in _benchmark_targets():
            for dom in (act.space, orb.groupoid):
                got = [(f.object_map, f.arrow_map)
                       for f in oracle.enumerate_morphisms(dom, cod)]
                assert got == _reference_morphisms(dom, cod), \
                    (dom.name, cod.name)
                pairs += 1
            want = [(f"hom{i}", om, am) for i, (om, am) in
                    enumerate(_reference_morphisms(act.space, cod))
                    if _reference_constant(act, om, am)]
            assert [(f.name, f.object_map, f.arrow_map)
                    for f in oracle.invariant_morphisms(act, cod)] == want, \
                (act.name, cod.name)
    assert pairs == 83 * 2 * 2


def test_universal_property_entries_match_the_reference():
    targets = standard_target_family() + _benchmark_targets()
    for act in suite._Run().orbit_actions:
        morphism = orbit_groupoid(act).morphism
        assert oracle.check_universal_property(
            act, morphism, targets).entries == \
            _reference_entries(act, morphism, targets), act.name

    # the suite's two negative controls, whose entries are not all zero
    z2 = groupoid_from_group(cyclic_group(2), name="z2")
    act = trivial_action(trivial_group(), z2, name="trivial")
    point = groupoid_from_group(trivial_group(), name="point")
    collapse = GroupoidMorphism(z2, point, {"pt": "pt"},
                                {u: "id_pt" for u in z2.arrows})
    orb = orbit_groupoid(act)
    spare = disjoint_union(orb.groupoid, groupoid_from_group(
        trivial_group(), object_name="spare"), name="padded")
    padded = GroupoidMorphism(z2, spare, orb.morphism.object_map,
                              orb.morphism.arrow_map)
    for candidate in (collapse, padded):
        report = oracle.check_universal_property(act, candidate, targets)
        assert not report.ok
        assert report.entries == _reference_entries(act, candidate, targets)


def test_group_normal_closure_matches_the_lattice_reference():
    # in a one-object groupoid the identity arrow is id_pt and every other
    # arrow keeps its element's name
    for gt in (symmetric_group(3), dihedral_group(4), quaternion_group(),
               alternating_group(4)):
        g = groupoid_from_group(gt)
        lattice = _reference_lattice(g)
        arrow = {x: "id_pt" if x == gt.identity else x for x in gt.elements}
        for size in (0, 1, 2):
            for subset in itertools.combinations(gt.elements, size):
                want = _reference_minimum(g, lattice,
                                          [arrow[x] for x in subset])
                assert oracle.group_normal_closure(gt, subset) == \
                    tuple(x for x in gt.elements if arrow[x] in want), \
                    (gt.name, subset)


def test_oracle_imports_no_construction_code():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    banned = {"constructions", "catalog", "actions", "presented", "corpus",
              "suite"}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            imported.update(module)
            if not node.module or node.module == "groupoids":
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
    assert "core" in imported
    assert not imported & banned, sorted(imported & banned)
