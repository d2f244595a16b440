import pytest

from groupoids import (GroupoidMorphism, SizeCapError, cyclic_group,
                       dihedral_group, direct_product_group,
                       discrete_groupoid, group_isomorphic,
                       groupoid_from_group, normal_closure, orbit_groupoid,
                       quaternion_group, symmetric_group, tree_groupoid,
                       trivial_group)
from groupoids import oracle
from groupoids.corpus import named_actions


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
