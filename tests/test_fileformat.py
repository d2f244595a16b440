import pytest

from groupoids import (DirectedGraph, GroupPresentation, ParseError,
                       PresentedGroupoid, discrete_groupoid, parse_input,
                       parse_text, render_entities, search_isomorphism,
                       validate_groupoid)
from groupoids.corpus import named_actions, named_graph_actions

SEG = """\
groupoid seg
objects x y
arrow f : x -> y
arrow g : y -> x
inverse f g
"""

Z2 = """\
groupoid z2
objects pt
arrow t : pt -> pt
inverse t t
"""


def test_parse_fills_in_identities_and_implied_compositions():
    parsed = parse_text(SEG)
    g = parsed.pick("groupoid")
    assert validate_groupoid(g) == []
    assert g.objects == ("x", "y")
    assert set(g.arrows) == {"id_x", "id_y", "f", "g"}
    assert g.compose[("g", "f")] == "id_x"
    assert g.compose[("f", "id_x")] == "f"


def test_parse_demands_explicit_compositions():
    text = """\
groupoid z3
objects pt
arrow a : pt -> pt
arrow b : pt -> pt
inverse a b
"""
    with pytest.raises(ParseError, match="missing composition: compose a a"):
        parse_text(text)
    assert validate_groupoid(
        parse_text(text + "compose a a = b\ncompose b b = a\n")
        .pick("groupoid")) == []


def test_reserved_prefix_and_duplicates():
    with pytest.raises(ParseError, match="reserved id_ prefix"):
        parse_text("groupoid g\nobjects x\narrow id_z : x -> x\n")
    with pytest.raises(ParseError, match="duplicate entity name"):
        parse_text("groupoid g\nobjects x\n\ngroupoid g\nobjects y\n")


def test_blocks_must_be_defined_before_use():
    text = "action a on seg by z2\n\n" + SEG + "\n" + Z2
    with pytest.raises(ParseError, match="unknown target seg"):
        parse_text(text)


def test_action_lines_for_forced_images_are_rejected():
    base = SEG + "\n" + Z2 + "\naction swap on seg by z2\n"
    ok = base + "obj t : x -> y\nobj t : y -> x\narr t : f -> g\narr t : g -> f\n"
    act = parse_text(ok).pick("action")
    assert act.act_arrow[("t", "id_x")] == "id_y"
    with pytest.raises(ParseError, match="identity element acts trivially"):
        parse_text(base + "obj id_pt : x -> y\n")
    with pytest.raises(ParseError, match="images follow the object map"):
        parse_text(ok + "arr t : id_x -> id_y\n")


def test_arr_and_act_lines_check_the_target_kind():
    graph = "graph circ\nvertex v\nedge e : v -> v\n"
    with pytest.raises(ParseError, match="act lines need a graph target"):
        parse_text(SEG + "\n" + Z2
                   + "\naction a on seg by z2\nact t : f -> g\n")
    with pytest.raises(ParseError, match="arr lines need a groupoid target"):
        parse_text(graph + "\n" + Z2
                   + "\naction a on circ by z2\narr t : e -> e\n")


def test_parse_error_carries_location():
    text = "# a comment\ngroupoid g\nobjects x\nnonsense here\n"
    with pytest.raises(ParseError) as err:
        parse_text(text, path="input.gpd")
    assert str(err.value).startswith("input.gpd:4:1: ")
    assert (err.value.line, err.value.col) == (4, 1)
    with pytest.raises(ParseError, match="expected a block header"):
        parse_text("objects x\n")


def test_comments_and_blank_lines_are_ignored():
    text = SEG.replace("objects x y", "objects x y   # the two endpoints")
    parsed = parse_text("# header\n\n" + text)
    assert parsed.pick("groupoid").objects == ("x", "y")


def test_pick_and_get():
    parsed = parse_text(SEG + "\n" + Z2)
    assert parsed.pick("groupoid", "seg").name == "seg"
    with pytest.raises(ValueError, match="pick one by name"):
        parsed.pick("groupoid")
    with pytest.raises(ValueError, match="no action defined"):
        parsed.pick("action")
    with pytest.raises(ValueError, match="no entity named"):
        parsed.get("nope")
    with pytest.raises(ValueError, match="is a groupoid, not a"):
        parsed.get("seg", "action")


def test_graph_and_presentation_blocks():
    parsed = parse_text("graph circ\nvertex v\nedge e : v -> v\nrelator e e\n")
    pres = parsed.pick("graph")
    assert isinstance(pres, PresentedGroupoid)
    assert pres.relators[0].letters == (("e", 1), ("e", 1))
    parsed = parse_text("presentation p\ngenerators a b\nrelator a b -a -b\n")
    gp = parsed.pick("presentation")
    assert isinstance(gp, GroupPresentation)
    assert gp.relators == ((("a", 1), ("b", 1), ("a", -1), ("b", -1)),)


def test_action_round_trip_is_isomorphic_and_stable():
    act = dict(named_actions())["zmod4-inversion"]
    text = render_entities([act])
    parsed = parse_text(text)
    back = parsed.pick("action")
    assert search_isomorphism(act.space, back.space) is not None
    assert back.act_obj[("1", "pt")] == "pt"
    assert render_entities([back]) == text


def test_graph_action_round_trip_is_stable():
    act = dict(named_graph_actions())["circle-reflection"]
    text = render_entities([act])
    back = parse_text(text).pick("action")
    assert back.act_edge[("1", "e1")] == "-e4"
    assert render_entities([back]) == text


def test_data_files_parse(tmp_path):
    from importlib import resources
    root = resources.files("groupoids").joinpath("data")
    count = 0
    for entry in sorted(root.iterdir(), key=lambda p: p.name):
        target = tmp_path / entry.name
        target.write_text(entry.read_text(encoding="utf-8"), encoding="utf-8")
        assert parse_input(str(target)).order
        count += 1
    assert count >= 6


@pytest.mark.parametrize("text, where, entity", [
    ("presentation p\ngenerators b -a\n", "in.txt:2:1: generator -a",
     GroupPresentation(("-a", "b"), ((("-a", 1),),))),
    ("graph g\nvertex v\nedge -e : v -> v\n", "in.txt:3:1: edge -e",
     DirectedGraph(("v",), ("-e",), {"-e": "v"}, {"-e": "v"})),
], ids=["generator", "edge"])
def test_letter_names_may_not_start_with_minus(text, where, entity):
    # relator and act lines read a leading '-' as an inverse letter
    with pytest.raises(ParseError) as err:
        parse_text(text, path="in.txt")
    assert str(err.value).startswith(where)
    with pytest.raises(ValueError, match="leading '-'"):
        render_entities([entity])


def test_emitter_rejects_unwritable_names():
    bad = discrete_groupoid(("a b",), name="bad")
    with pytest.raises(ValueError, match="cannot be written"):
        render_entities([bad])
    with pytest.raises(ValueError, match="cannot emit"):
        render_entities([object()])
