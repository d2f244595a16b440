import pytest

from groupoids import (GroupoidAction, action_from_object_map, cyclic_group,
                       connected_groupoid, fixed_subgroupoid,
                       groupoid_from_group, is_free_action, object_orbits,
                       restrict_action, tree_groupoid, trivial_action,
                       validate_action)
from groupoids.corpus import named_actions


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
