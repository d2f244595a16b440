import random
import tracemalloc

import pytest

from groupoids import (FiniteGroupoid, GroupoidAction, GroupoidMorphism,
                       action_from_object_map, components,
                       connected_groupoid, cyclic_group, full_subgroupoid,
                       generated_wide_subgroupoid,
                       group_isomorphic, groupoid_from_group, is_covering,
                       is_fibration, is_quotient_morphism, kernel, klein_group,
                       normal_closure, object_group, orbit_groupoid,
                       orbit_kernel_generators, quotient_groupoid,
                       regular_cover_orbit_check, render_entities,
                       restrict_orbit_full_subgroupoid, semidirect_product,
                       symmetric_group, tree_groupoid, tree_orbit_group,
                       trivial_action, trivial_group, validate_groupoid,
                       validate_morphism)
from groupoids import constructions, suite
from groupoids.constructions import _loop_group
from groupoids.corpus import (named_actions, random_actions,
                              random_orbit_instances,
                              random_quotient_instances)
from test_orbit_route import ACTIONS, _dihedral, _rotation


def _named(name):
    return dict(named_actions())[name]


def test_semidirect_product_of_tree_swap():
    act = _named("tree-swap")
    sd = semidirect_product(act)
    assert validate_groupoid(sd.groupoid) == []
    assert len(sd.groupoid.objects) == 2
    assert len(sd.groupoid.arrows) == 8
    assert is_fibration(sd.projection)
    # (x>y, 1) starts at the preimage of x under the swap
    assert sd.groupoid.source["(x>y,1)"] == "y"
    assert sd.groupoid.target["(x>y,1)"] == "y"


def test_semidirect_pairing_laws():
    act = _named("zmod4-inversion")
    sd = semidirect_product(act)
    g = sd.groupoid
    # pairing with the group part last only relabels
    assert g.compose[("(1,0)", "(id_pt,1)")] == "(1,1)"
    # pairing an identity pair first twists the arrow
    assert g.compose[("(id_pt,1)", "(1,0)")] == "(3,1)"


def test_semidirect_rejects_invalid_action():
    act = _named("tree-swap")
    broken = type(act)(act.group, act.space, dict(act.act_obj),
                       {**act.act_arrow, ("1", "x>y"): "x>y"},
                       name="broken")
    with pytest.raises(ValueError):
        semidirect_product(broken)


def _reference_semidirect_table(sd):
    """The semidirect composition table by the pair rule, name lookup by
    name lookup: rows in name_of order, each in name_of order of the pairs
    ending at the row's source."""
    act, name_of, g = sd.action, sd.name_of, sd.groupoid
    G, sp = act.group, act.space
    into = {}
    for (a, h), u in name_of.items():
        into.setdefault(sp.target[a], []).append((a, h, u))
    return {(v, u): name_of[(sp.compose[(b, act.act_arrow[(h, a)])],
                             G.mul[(h, k)])]
            for (b, h), v in name_of.items()
            for (a, k, u) in into[g.source[v]]}


@pytest.mark.parametrize("act", ACTIONS, ids=lambda act: act.name)
def test_semidirect_table_matches_the_pair_rule(act):
    sd = semidirect_product(act)
    # entries and insertion order: the emitter writes the table in order
    assert list(sd.groupoid.compose.items()) == \
        list(_reference_semidirect_table(sd).items())


@pytest.mark.parametrize("act", ACTIONS, ids=lambda act: act.name)
def test_semidirect_table_reads_as_a_dict(act):
    sd = semidirect_product(act)
    g, reference = sd.groupoid, _reference_semidirect_table(sd)
    table = g.compose
    assert len(table) == len(reference)
    assert dict(table) == reference
    assert list(table.items()) == list(reference.items())
    # every entry read one at a time is the reference's, so rows compare
    # with the reference
    for v in g.arrows:
        assert g.compose_row(v) == \
            [reference[(v, u)] for u in g.costar(g.source[v])]
    v, u = g.arrows[-1], g.arrows[0]
    apart = [(w, u) for w in g.arrows if g.source[w] != g.target[u]][:1]
    for key in apart + [(v, "nope"), ("nope", u), v, (v,), (v, u, u)]:
        assert key not in table and key not in reference
        assert table.get(key) is None and table.get(key, 0) == 0
        with pytest.raises(KeyError):
            table[key]
    assert (v, g.identity_of[g.source[v]]) in table


def _reference_loop_table(act, x):
    """K(x)'s table by the pair rule, as a dict: rows over the pairs
    (a, g) with a: g.x -> x, by a in the costar's order and g in the
    group's, each row over the same pairs."""
    G, sp = act.group, act.space
    pairs = [(a, g) for a in sp.costar(x) for g in G.elements
             if act.act_obj[(g, x)] == sp.source[a]]
    return {((b, h), (a, g)): (sp.compose[(b, act.act_arrow[(h, a)])],
                               G.mul[(h, g)])
            for (b, h) in pairs for (a, g) in pairs}


@pytest.mark.parametrize("act", [act for _name, act in named_actions()]
                         + random_actions() + random_orbit_instances(),
                         ids=lambda act: act.name)
def test_loop_group_table_reads_as_a_dict(act):
    G, sp = act.group, act.space
    for x in sp.objects:
        table, reference = _loop_group(act, x).mul, \
            _reference_loop_table(act, x)
        assert len(table) == len(reference)
        assert dict(table) == reference
        assert list(table.items()) == list(reference.items())
        v = next(iter(reference))[0]
        # the pairs of other objects, and the product arrows into or out
        # of x that are no loops there, with some of which the pair rule
        # would still compose v
        strangers = [key for a in sp.arrows for g in G.elements
                     if ((a, g), (a, g)) not in reference
                     for key in ((v, (a, g)), ((a, g), v))]
        for key in strangers + [(v, "ab"), "ab", (v, v, v)]:
            assert key not in table and key not in reference
            assert table.get(key) is None
            with pytest.raises(KeyError):
                table[key]


def _tree_with_identities_last():
    """The two-object tree with its identities listed after its arrows,
    so no costar starts with its identity."""
    ends = {"a": ("x", "y"), "id_x": ("x", "x"), "b": ("y", "x"),
            "id_y": ("y", "y")}
    names = {("x", "y"): "a", ("y", "x"): "b", ("x", "x"): "id_x",
             ("y", "y"): "id_y"}
    return FiniteGroupoid(
        ("x", "y"), tuple(ends), {u: s for u, (s, _t) in ends.items()},
        {u: t for u, (_s, t) in ends.items()}, {"x": "id_x", "y": "id_y"},
        {"a": "b", "b": "a", "id_x": "id_x", "id_y": "id_y"},
        {(v, u): names[(ends[u][0], ends[v][1])]
         for v in ends for u in ends if ends[u][1] == ends[v][0]},
        name="late")


@pytest.mark.parametrize("act", [
    trivial_action(trivial_group(), _tree_with_identities_last()),
    trivial_action(cyclic_group(3), _tree_with_identities_last()),
    action_from_object_map(cyclic_group(2), _tree_with_identities_last(),
                           {("0", "x"): "x", ("0", "y"): "y",
                            ("1", "x"): "y", ("1", "y"): "x"}, name="swap"),
], ids=["trivial", "z3-fixing", "z2-swapping"])
def test_semidirect_rows_when_no_costar_starts_with_its_identity(act):
    # a row reads a block of |G| names per arrow of the space, and moves
    # (id_y, 1) to the front wherever id_y stands in the space's costar
    assert validate_groupoid(act.space) == []
    sd = semidirect_product(act)
    g, reference = sd.groupoid, _reference_semidirect_table(sd)
    for v in g.arrows:
        assert g.compose_row(v) == \
            [reference[(v, u)] for u in g.costar(g.source[v])]
    assert list(g.compose.items()) == list(reference.items())
    assert validate_groupoid(g) == []


def test_semidirect_table_of_the_z16_ring():
    sd = semidirect_product(_rotation(16))
    g, act = sd.groupoid, sd.action
    G, sp = act.group, act.space
    assert len(g.compose) == 16 ** 5
    pair = {u: p for p, u in sd.name_of.items()}
    for v in g.arrows[::1021]:
        b, h = pair[v]
        into = g.costar(g.source[v])
        assert len(into) == 16 ** 2
        assert g.compose_row(v) == [
            sd.name_of[(sp.compose[(b, act.act_arrow[(h, pair[u][0])])],
                        G.mul[(h, pair[u][1])])] for u in into]


def test_semidirect_product_and_its_text_stay_small():
    act = _rotation(12)
    tracemalloc.start()
    try:
        sd = semidirect_product(act)
        held = tracemalloc.get_traced_memory()[0]
        text = render_entities([sd.groupoid, sd.projection])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a stored table, 25 MB here, fails both bounds
    assert held < 5e6
    assert peak < 4 * len(text)


@pytest.mark.parametrize("act", [_rotation(8), _dihedral(6)],
                         ids=lambda act: act.name)
def test_semidirect_products_above_the_suite_cap_are_groupoids(act):
    # the semidirect-laws check validates products of at most 48 arrows
    sd = semidirect_product(act)
    assert len(sd.groupoid.arrows) > 48
    assert validate_groupoid(sd.groupoid) == []


def test_generated_wide_subgroupoid():
    s3 = groupoid_from_group(symmetric_group(3))
    w = generated_wide_subgroupoid(s3, [])
    assert w.arrows == ("id_pt",)
    w = generated_wide_subgroupoid(s3, ["(012)"])
    assert set(w.arrows) == {"id_pt", "(012)", "(021)"}
    with pytest.raises(ValueError):
        generated_wide_subgroupoid(s3, ["nope"])


def test_normal_closure_in_a_group():
    s3 = groupoid_from_group(symmetric_group(3))
    n = normal_closure(s3, ["(01)"])
    assert len(n.arrows) == 6
    assert n.normal
    n = normal_closure(s3, ["(012)"])
    assert set(n.arrows) == {"id_pt", "(012)", "(021)"}
    n = normal_closure(s3, [])
    assert n.arrows == ("id_pt",)


def _fixpoint_closure(g, arrows):
    """Reference closure: add inverses and the composites of every pair of
    members, rescanning until a round adds nothing."""
    current = set(g.identity_of.values()) | set(arrows)
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
    return current


def _fixpoint_normal_closure(g, arrows):
    """Reference normal closure: the closure of the closure and every
    conjugate of its loops."""
    first = _fixpoint_closure(g, arrows)
    conjugates = {g.compose[(g.compose[(k, h)], g.inverse_of[k])]
                  for h in first if g.source[h] == g.target[h]
                  for k in g.arrows if g.source[k] == g.source[h]}
    return _fixpoint_closure(g, first | conjugates)


def _closure_instances():
    named = [act for _name, act in named_actions()]
    orbit = random_orbit_instances()
    spaces = [act.space for act in named + random_actions() + orbit]
    spaces += [k for (k, _gens) in random_quotient_instances()]
    spaces += [semidirect_product(act).groupoid for act in named + orbit]
    spaces += [connected_groupoid(("a", "b", "c"), group)
               for group in (cyclic_group(4), symmetric_group(3),
                             klein_group())]
    return spaces


def test_closures_match_the_fixpoint_reference():
    rng = random.Random(10)
    for g in _closure_instances():
        for size in (0, 1, 1, 2, 3):
            gens = rng.sample(g.arrows, min(size, len(g.arrows)))
            for built, reference in (
                    (generated_wide_subgroupoid, _fixpoint_closure),
                    (normal_closure, _fixpoint_normal_closure)):
                want = reference(g, gens)
                assert built(g, gens).arrows == \
                    tuple(u for u in g.arrows if u in want), (g.name, gens)


def test_quotient_groupoid_requires_normal():
    s3 = groupoid_from_group(symmetric_group(3))
    w = generated_wide_subgroupoid(s3, ["(01)"])
    with pytest.raises(ValueError):
        quotient_groupoid(s3, w)
    other = groupoid_from_group(cyclic_group(2), name="other")
    n = normal_closure(other, [])
    with pytest.raises(ValueError):
        quotient_groupoid(s3, n)


def test_quotient_groupoid_of_group():
    s3 = groupoid_from_group(symmetric_group(3))
    n = normal_closure(s3, ["(012)"])
    quot = quotient_groupoid(s3, n)
    assert len(quot.groupoid.arrows) == 2
    assert is_quotient_morphism(quot.morphism)
    assert set(kernel(quot.morphism).arrows) == set(n.arrows)
    assert group_isomorphic(object_group(quot.groupoid, "[pt]"),
                            cyclic_group(2))


def test_quotient_collapses_connected_normal_subgroupoid():
    act = _named("tree-swap")
    sd = semidirect_product(act)
    n = normal_closure(sd.groupoid, ["(id_x,1)"])
    quot = quotient_groupoid(sd.groupoid, n)
    # the relation pairs connect the two objects, so one class remains
    assert len(quot.groupoid.objects) == 1
    assert quot.morphism.object_map["x"] == quot.morphism.object_map["y"]


def test_orbit_groupoid_objects_are_orbits():
    act = _named("threefold-rotation")
    orb = orbit_groupoid(act)
    assert len(orb.groupoid.objects) == 1
    assert is_fibration(orb.morphism)
    assert group_isomorphic(object_group(orb.groupoid,
                                         orb.groupoid.objects[0]),
                            cyclic_group(3))


def test_orbit_groupoid_of_free_action_is_covering():
    act = _named("point-swap")
    orb = orbit_groupoid(act)
    assert is_covering(orb.morphism)
    assert len(orb.groupoid.objects) == 1


def test_orbit_groupoid_fixed_point_connected_is_quotient():
    act = _named("zmod4-inversion")
    orb = orbit_groupoid(act)
    assert is_quotient_morphism(orb.morphism)
    assert not is_covering(orb.morphism)
    assert set(kernel(orb.morphism).arrows) == {"id_pt", "2"}


def test_orbit_groupoid_builds_its_product_when_read(monkeypatch):
    def refuse(*_args):
        raise AssertionError("orbit_groupoid built the product")
    build = constructions._semidirect
    monkeypatch.setattr(constructions, "_semidirect", refuse)
    act = _rotation(6)
    orb = orbit_groupoid(act)
    assert "_action" not in repr(orb)
    calls = []

    def counted(*args):
        calls.append(args)
        return build(*args)
    monkeypatch.setattr(constructions, "_semidirect", counted)
    sd = orb.semidirect
    assert orb.semidirect is sd and len(calls) == 1
    assert sd.action is act and len(sd.groupoid.arrows) == 6 ** 3
    assert isinstance(sd.groupoid.compose, constructions._PairTable)


def test_orbit_kernel_generators():
    act = _named("zmod4-inversion")
    gens = orbit_kernel_generators(act)
    assert "2" in gens
    generated = generated_wide_subgroupoid(act.space, gens)
    orb = orbit_groupoid(act)
    assert set(generated.arrows) == set(kernel(orb.morphism).arrows)


def test_tree_orbit_group():
    assert group_isomorphic(tree_orbit_group(_named("tree-swap")),
                            cyclic_group(2))
    assert group_isomorphic(tree_orbit_group(_named("path-reflection-fixed")),
                            trivial_group())
    assert group_isomorphic(tree_orbit_group(_named("threefold-rotation")),
                            cyclic_group(3))
    with pytest.raises(ValueError):
        tree_orbit_group(_named("zmod4-inversion"))


def test_restrict_orbit_fixed_object():
    act = _named("path-reflection-fixed")
    report = restrict_orbit_full_subgroupoid(act, ("b",))
    assert report.hypothesis_ok
    assert report.embedding_ok
    assert report.ok


def test_restrict_orbit_missing_fixed_component():
    act = _named("path-reflection-fixed")
    report = restrict_orbit_full_subgroupoid(act, ("a", "c"))
    assert not report.hypothesis_ok
    assert report.hypothesis_failures
    assert not report.embedding_ok


def test_restrict_orbit_rejects_non_invariant_sets():
    act = _named("path-reflection-fixed")
    with pytest.raises(ValueError):
        restrict_orbit_full_subgroupoid(act, ("a",))
    with pytest.raises(ValueError):
        restrict_orbit_full_subgroupoid(act, ("a", "zzz"))


def test_regular_cover_check_accepts_the_fold():
    seg = tree_groupoid(("x", "y"), name="seg")
    z2 = groupoid_from_group(cyclic_group(2), name="z2")
    fold = GroupoidMorphism(
        seg, z2, {"x": "pt", "y": "pt"},
        {"id_x": "id_pt", "id_y": "id_pt", "x>y": "1", "y>x": "1"},
        name="fold")
    assert validate_morphism(fold) == []
    z2t = cyclic_group(2)
    deck = action_from_object_map(
        z2t, seg,
        {("0", "x"): "x", ("0", "y"): "y", ("1", "x"): "y", ("1", "y"): "x"},
        name="deck")
    report = regular_cover_orbit_check(fold, deck)
    assert report.ok
    assert report.orbit_iso_ok
    assert report.object_group_iso_ok


def test_regular_cover_check_rejects_non_free_deck():
    seg = tree_groupoid(("x", "y"), name="seg")
    z2 = groupoid_from_group(cyclic_group(2), name="z2")
    fold = GroupoidMorphism(
        seg, z2, {"x": "pt", "y": "pt"},
        {"id_x": "id_pt", "id_y": "id_pt", "x>y": "1", "y>x": "1"},
        name="fold")
    lazy = trivial_action(cyclic_group(2), seg, name="lazy")
    with pytest.raises(ValueError, match="^lazy: deck action is not free$"):
        regular_cover_orbit_check(fold, lazy)


def test_regular_cover_check_rejects_non_covering():
    z4 = groupoid_from_group(cyclic_group(4), name="z4")
    z2 = groupoid_from_group(cyclic_group(2), name="z2half")
    halve = GroupoidMorphism(
        z4, z2, {"pt": "pt"},
        {"id_pt": "id_pt", "1": "1", "2": "id_pt", "3": "1"}, name="halve")
    deck = trivial_action(trivial_group(), z4, name="one")
    with pytest.raises(ValueError, match="^halve: not a covering morphism$"):
        regular_cover_orbit_check(halve, deck)


def test_regular_cover_check_names_each_failed_precondition():
    seg = tree_groupoid(("x", "y"), name="seg")
    z2 = groupoid_from_group(cyclic_group(2), name="z2")
    fold_arrows = {"id_x": "id_pt", "id_y": "id_pt", "x>y": "1", "y>x": "1"}
    fold = GroupoidMorphism(seg, z2, {"x": "pt", "y": "pt"}, fold_arrows,
                            name="fold")
    swap = {("0", "x"): "x", ("0", "y"): "y",
            ("1", "x"): "y", ("1", "y"): "x"}
    deck = action_from_object_map(cyclic_group(2), seg, swap, name="deck")
    broken = GroupoidMorphism(seg, z2, {"x": "pt", "y": "pt"},
                              {**fold_arrows, "x>y": "id_pt"}, name="broken")
    with pytest.raises(ValueError, match="^broken: not a morphism: "):
        regular_cover_orbit_check(broken, deck)
    twin = tree_groupoid(("x", "y"), name="seg")
    foreign = action_from_object_map(cyclic_group(2), twin, swap, name="far")
    with pytest.raises(ValueError, match="^deck action must act on the "
                                         "source of the morphism$"):
        regular_cover_orbit_check(fold, foreign)
    invalid = GroupoidAction(deck.group, seg, deck.act_obj,
                             {**deck.act_arrow, ("1", "x>y"): "x>y"},
                             name="bad")
    with pytest.raises(ValueError, match="^bad: invalid action: "):
        regular_cover_orbit_check(fold, invalid)
    ident = GroupoidMorphism(seg, seg, {"x": "x", "y": "y"},
                             {a: a for a in seg.arrows}, name="ident")
    with pytest.raises(ValueError,
                       match="^ident: not constant on deck orbits$"):
        regular_cover_orbit_check(ident, deck)


def test_universal_covers_of_the_corpus_components():
    # the universal cover of a connected groupoid is the orbit morphism of
    # its deck action, the object group at the base acting freely
    spaces = [act.space for _name, act in named_actions()]
    spaces += [act.space for act in random_actions()]
    checked = 0
    for sp in spaces:
        for block in components(sp):
            c = full_subgroupoid(sp, block)
            if len(c.arrows) > 40:
                continue
            report = regular_cover_orbit_check(
                *suite._universal_cover(c, c.objects[0]))
            assert report.ok, (sp.name, block, report.details)
            checked += 1
    assert checked == 130
