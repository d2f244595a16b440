import random

import pytest

from groupoids import (GroupoidAction, GroupoidMorphism,
                       action_from_object_map, cyclic_group,
                       connected_groupoid, fixed_subgroupoid,
                       groupoid_from_group, is_free_action, normal_closure,
                       object_orbits, orbit_groupoid, parse_text,
                       quotient_groupoid, render_entities, restrict_action,
                       restrict_orbit_full_subgroupoid, semidirect_product,
                       tree_groupoid, trivial_action, validate_action,
                       validate_morphism)
from groupoids import actions, core, corpus
from groupoids.actions import _acting
from groupoids.core import _group_generators
from groupoids.corpus import (named_actions, random_actions,
                              random_orbit_instances,
                              random_quotient_instances)
from test_orbit_route import _dihedral, _rotation


def _named(name):
    return dict(named_actions())[name]


def test_named_actions_validate():
    for _name, act in named_actions():
        assert validate_action(act) == []


def test_validate_action_catches_bad_multiplicativity():
    act = _named("tree-swap")
    broken = GroupoidAction(act.group, act.space, dict(act.act_obj),
                            {**act.act_arrow, ("1", "x>y"): "x>y"},
                            name="broken")
    problems = validate_action(broken)
    assert problems


def test_object_orbits():
    act = _named("path-reflection-fixed")
    assert object_orbits(act) == [["a", "c"], ["b"]]
    act = _named("klein-on-points")
    assert object_orbits(act) == [["p", "q", "r", "s"]]


def test_is_free_action():
    assert is_free_action(_named("point-swap"))
    assert is_free_action(_named("klein-on-points"))
    assert not is_free_action(_named("zmod4-inversion"))
    assert not is_free_action(_named("path-reflection-fixed"))


def test_fixed_subgroupoid():
    act = _named("path-reflection-fixed")
    fixed = fixed_subgroupoid(act)
    assert fixed.objects == ("b",)
    assert fixed.arrows == ("id_b",)
    everything = fixed_subgroupoid(act, elements=(act.group.identity,))
    assert set(everything.arrows) == set(act.space.arrows)


def test_action_from_object_map_needs_singleton_homs():
    z2 = cyclic_group(2)
    fat = connected_groupoid(("x", "y"), cyclic_group(2), name="fat")
    act_obj = {(g, x): x for g in z2.elements for x in fat.objects}
    with pytest.raises(ValueError):
        action_from_object_map(z2, fat, act_obj)


def test_restrict_action():
    act = _named("path-reflection-fixed")
    sub = restrict_action(act, ("a", "c"))
    assert validate_action(sub) == []
    assert set(sub.space.objects) == {"a", "c"}
    with pytest.raises(ValueError):
        restrict_action(act, ("a",))


def test_trivial_action_validates():
    act = trivial_action(cyclic_group(3), tree_groupoid(("u", "v")))
    assert validate_action(act) == []
    assert not is_free_action(act)
    assert object_orbits(act) == [["u"], ["v"]]


def test_one_object_space_action():
    act = _named("transposition-conjugation")
    assert validate_action(act) == []
    space = act.space
    assert space.objects == ("pt",)
    # conjugating by a transposition fixes it and permutes the 3-cycles
    assert act.act_arrow[("1", "(01)")] == "(01)"
    assert act.act_arrow[("1", "(012)")] == "(021)"


def test_groupoid_from_group_space():
    space = groupoid_from_group(cyclic_group(2))
    act = trivial_action(cyclic_group(2), space)
    assert validate_action(act) == []


def _reference_validate_action(act):
    """Reference validator: every action law checked by hand on objects and
    arrows, without validate_morphism."""
    problems = []
    G, sp = act.group, act.space
    for g in G.elements:
        for x in sp.objects:
            if act.act_obj.get((g, x)) not in sp.object_index:
                problems.append(f"object image ({g}, {x})")
        for a in sp.arrows:
            if act.act_arrow.get((g, a)) not in sp.arrow_index:
                problems.append(f"arrow image ({g}, {a})")
    if problems:
        return problems
    e = G.identity
    for x in sp.objects:
        if act.act_obj[(e, x)] != x:
            problems.append(f"unit axiom fails: {e}*{x} != {x}")
    for a in sp.arrows:
        if act.act_arrow[(e, a)] != a:
            problems.append(f"unit axiom fails on arrow {a}")
    for g in G.elements:
        for h in G.elements:
            gh = G.prod(g, h)
            for x in sp.objects:
                if act.act_obj[(g, act.act_obj[(h, x)])] != \
                        act.act_obj[(gh, x)]:
                    problems.append(f"composition on objects: {g}, {h}, {x}")
            for a in sp.arrows:
                if act.act_arrow[(g, act.act_arrow[(h, a)])] != \
                        act.act_arrow[(gh, a)]:
                    problems.append(f"composition on arrows: {g}, {h}, {a}")
    for g in G.elements:
        for a in sp.arrows:
            b = act.act_arrow[(g, a)]
            if sp.source[b] != act.act_obj[(g, sp.source[a])]:
                problems.append(f"source not respected: g={g}, a={a}")
            if sp.target[b] != act.act_obj[(g, sp.target[a])]:
                problems.append(f"target not respected: g={g}, a={a}")
        for x in sp.objects:
            if act.act_arrow[(g, sp.identity_of[x])] != \
                    sp.identity_of[act.act_obj[(g, x)]]:
                problems.append(f"identity not preserved: g={g}, x={x}")
        for (v, u), w in sp.compose.items():
            gv = act.act_arrow[(g, v)]
            gu = act.act_arrow[(g, u)]
            if sp.compose.get((gv, gu)) != act.act_arrow[(g, w)]:
                problems.append(f"additivity fails: g={g}, pair=({v}, {u})")
    return problems


def _single_entry_replacements(act):
    """Every action made from act by replacing one act_obj or act_arrow
    entry with an image from the space, the entry itself included."""
    sp = act.space
    for key in act.act_obj:
        for y in sp.objects:
            yield GroupoidAction(act.group, sp, {**act.act_obj, key: y},
                                 act.act_arrow, name=act.name)
    for key in act.act_arrow:
        for b in sp.arrows:
            yield GroupoidAction(act.group, sp, act.act_obj,
                                 {**act.act_arrow, key: b}, name=act.name)


def _element_swaps(act):
    """Every action in which one element g acts as another element h does."""
    G, sp = act.group, act.space
    for g in G.elements:
        for h in G.elements:
            if g != h:
                yield GroupoidAction(
                    G, sp,
                    {**act.act_obj, **{(g, x): act.act_obj[(h, x)]
                                       for x in sp.objects}},
                    {**act.act_arrow, **{(g, a): act.act_arrow[(h, a)]
                                         for a in sp.arrows}},
                    name=act.name)


def _full_scan_validate_morphism(f):
    """Reference: validate_morphism checking every composition entry of
    the domain, as it did before its generator certificate."""
    problems = []
    for x in f.dom.objects:
        y = f.object_map.get(x)
        if y is None:
            problems.append(f"object {x} has no image")
        elif y not in f.cod.object_index:
            problems.append(f"object {x} maps to unknown object {y}")
    for u in f.dom.arrows:
        w = f.arrow_map.get(u)
        if w is None:
            problems.append(f"arrow {u} has no image")
        elif w not in f.cod.arrow_index:
            problems.append(f"arrow {u} maps to unknown arrow {w}")
    if problems:
        return problems
    for u in f.dom.arrows:
        w = f.arrow_map[u]
        if f.cod.source[w] != f.object_map[f.dom.source[u]]:
            problems.append(f"image of {u} has wrong source")
        if f.cod.target[w] != f.object_map[f.dom.target[u]]:
            problems.append(f"image of {u} has wrong target")
    for x in f.dom.objects:
        if f.arrow_map[f.dom.identity_of[x]] != \
                f.cod.identity_of[f.object_map[x]]:
            problems.append(f"identity at {x} is not preserved")
    if problems:
        return problems
    for (v, u), w in f.dom.compose.items():
        if f.cod.compose[(f.arrow_map[v], f.arrow_map[u])] != f.arrow_map[w]:
            problems.append(f"composition not preserved on ({v}, {u})")
    return problems


def _full_scan_validate_action(act):
    """Reference: validate_action checking every element by the full-scan
    morphism check and the composition axiom on every triple, as it did
    before its generator certificates."""
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
    for g in G.elements:
        image = GroupoidMorphism(
            sp, sp, {x: act.act_obj[(g, x)] for x in sp.objects},
            {a: act.act_arrow[(g, a)] for a in sp.arrows}, name=g)
        problems += [f"g={g}: {p}" for p in _full_scan_validate_morphism(image)]
    if problems:
        return problems
    problems += [f"unit axiom fails on arrow {a}" for a in sp.arrows
                 if act.act_arrow[(G.identity, a)] != a]
    for g in G.elements:
        for h in G.elements:
            gh = G.prod(g, h)
            for a in sp.arrows:
                if act.act_arrow[(g, act.act_arrow[(h, a)])] != \
                        act.act_arrow[(gh, a)]:
                    problems.append(f"composition axiom fails on arrows: "
                                    f"g={g}, h={h}, a={a}")
    return problems


def test_validate_action_agrees_with_the_reference_on_corruptions():
    named = [act for _name, act in named_actions()]
    cases = [b for act in named for b in _single_entry_replacements(act)]
    assert len(cases) == 1964
    swaps = [b for act in named + random_actions()
             for b in _element_swaps(act)]
    for b in cases + swaps:
        problems = validate_action(b)
        assert (not problems) == (not _reference_validate_action(b))
        assert problems == _full_scan_validate_action(b)
    # a valid action is a bijection on each level, so only the 286
    # replacements of an entry by itself leave it valid; a swap stays valid
    # when the two elements act alike, or when Z2 is made to act trivially
    assert sum(validate_action(b) == [] for b in cases) == 286
    assert (len(swaps), sum(validate_action(b) == [] for b in swaps)) == \
        (578, 163)


def _planted_images(f, rng, count):
    """Copies of f with the image of one arrow replaced by another arrow of
    the same hom-set of f.cod, so only composition can fail."""
    keys = [u for u in f.dom.arrows if not f.dom.is_identity_arrow(u)
            and len(f.cod.hom(f.cod.source[f.arrow_map[u]],
                              f.cod.target[f.arrow_map[u]])) > 1]
    for _ in range(count if keys else 0):
        u = rng.choice(keys)
        w = f.arrow_map[u]
        other = rng.choice([v for v in f.cod.hom(f.cod.source[w],
                                                  f.cod.target[w])
                            if v != w])
        yield GroupoidMorphism(f.dom, f.cod, f.object_map,
                               {**f.arrow_map, u: other}, name=f.name)


def test_validate_morphism_lists_what_the_full_scan_lists():
    morphisms = [semidirect_product(act).projection
                 for act in random_orbit_instances()]
    morphisms += [orbit_groupoid(act).morphism
                  for act in [act for _name, act in named_actions()]
                  + random_actions()]
    morphisms += [quotient_groupoid(k, normal_closure(k, gens)).morphism
                  for k, gens in random_quotient_instances()]
    assert len(morphisms) == 107
    rng = random.Random(3)
    plants = failing = 0
    for f in morphisms:
        assert validate_morphism(f) == [] == _full_scan_validate_morphism(f)
        for planted in _planted_images(f, rng, 6):
            problems = validate_morphism(planted)
            assert problems == _full_scan_validate_morphism(planted)
            plants += 1
            failing += bool(problems)
    # the other plants happen to give another morphism
    assert (plants, failing) == (414, 294)


def _past_the_generators(act):
    """Corruptions at g = s^2 for s a generator of the group, with g outside
    the generating set: a wrong object image with the arrow images left as
    they were, a wrong image of a non-identity arrow, and a wrong image of
    an identity arrow.  The elements of the generating set still act as
    before."""
    G, sp = act.group, act.space
    gens = _group_generators(G)
    for g in dict.fromkeys(G.prod(s, s) for s in gens):
        if g in gens or g == G.identity:
            continue
        if len(sp.objects) > 1:
            x = sp.objects[0]
            y = next(z for z in sp.objects if z != act.act_obj[(g, x)])
            yield GroupoidAction(G, sp, {**act.act_obj, (g, x): y},
                                 act.act_arrow, name=act.name)
            yield GroupoidAction(G, sp, act.act_obj,
                                 {**act.act_arrow,
                                  (g, sp.identity_of[x]): sp.identity_of[y]},
                                 name=act.name)
        for a in sp.arrows:
            if sp.is_identity_arrow(a):
                continue
            b = act.act_arrow[(g, a)]
            same = [c for c in sp.hom(sp.source[b], sp.target[b]) if c != b]
            wrong = (same or [c for c in sp.arrows if c != b])[0]
            yield GroupoidAction(G, sp, act.act_obj,
                                 {**act.act_arrow, (g, a): wrong},
                                 name=act.name)
            break


def test_corruptions_past_the_generators_fail_as_the_full_scan_does():
    named = [act for _name, act in named_actions()]
    cases = [b for act in named + random_actions() + random_orbit_instances()
             + [_rotation(n) for n in (3, 4, 6)]
             + [_dihedral(n) for n in (3, 4)]
             for b in _past_the_generators(act)]
    assert len(cases) == 72
    for b in cases:
        # every generator still acts by a morphism
        for s in _group_generators(b.group):
            assert validate_morphism(_acting(b, s)) == []
        problems = validate_action(b)
        assert problems
        assert problems == _full_scan_validate_action(b)
        assert _reference_validate_action(b)


def test_valid_actions_pass_on_the_certificate(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a valid action reached the full check")
    monkeypatch.setattr(actions, "_axiom_problems", refuse)
    valid = [act for _name, act in named_actions()] + random_actions() + \
        random_orbit_instances() + [_rotation(n) for n in range(2, 13)] + \
        [_dihedral(n) for n in range(3, 7)]
    for act in valid:
        assert validate_action(act) == [], act.name


def test_the_unit_and_generator_clauses_are_needed():
    z2 = cyclic_group(2)
    seg = tree_groupoid(("x", "y"), name="seg")
    # both elements collapse the segment onto x: every clause of the
    # certificate but the unit axiom holds
    collapse = GroupoidAction(
        z2, seg, {(g, x): "x" for g in z2.elements for x in seg.objects},
        {(g, a): "id_x" for g in z2.elements for a in seg.arrows},
        name="collapse")
    # 1 swaps the arrows 1 and 2 of Z4, which is no morphism, but an
    # involution fixing the identity
    swap = corpus._one_object_action(z2, cyclic_group(4),
                                     {"1": {"1": "2", "2": "1"}}, name="swap")
    for act in (collapse, swap):
        problems = validate_action(act)
        assert problems
        assert problems == _full_scan_validate_action(act)


def _counted(monkeypatch, module, name):
    """Count the runs of module.name, which stays in place."""
    runs = []
    body = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: (runs.append(1), body(*args))[1])
    return runs


def test_verdicts_are_computed_once(monkeypatch):
    text = render_entities([_rotation(12)])
    checks = _counted(monkeypatch, actions, "_action_problems")
    picks = _counted(monkeypatch, core, "_pick_generators")
    act = parse_text(text).pick("action", None)
    orbit_groupoid(act)
    # the parser's check serves orbit_groupoid too; the space, the group's
    # groupoid and the orbit groupoid each have their generators picked once
    assert (len(checks), len(picks)) == (1, 3)
    assert validate_action(act) == []
    assert len(checks) == 1


def test_kept_verdicts_still_refuse_invalid_actions():
    named = [act for _name, act in named_actions()]
    cases = [b for act in named + [_rotation(n) for n in (3, 4, 6)]
             for b in _past_the_generators(act)]
    assert cases
    for b in cases:
        for validated_first in (False, True):
            # a fresh copy each time, so that no verdict is kept yet
            c = GroupoidAction(b.group, b.space, b.act_obj, b.act_arrow,
                               name=b.name)
            if validated_first:
                assert validate_action(c)
            with pytest.raises(ValueError, match="invalid action"):
                orbit_groupoid(c)
            with pytest.raises(ValueError, match="invalid action"):
                semidirect_product(c)
            with pytest.raises(ValueError, match="invalid action"):
                restrict_orbit_full_subgroupoid(c, c.space.objects)


def test_a_returned_problem_list_is_the_callers():
    b = next(_past_the_generators(_rotation(4)))
    problems = validate_action(b)
    expected = list(problems)
    problems.append("planted")
    assert validate_action(b) == expected
    valid = _rotation(4)
    validate_action(valid).append("planted")
    assert validate_action(valid) == []
