import functools
import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from itertools import chain
from operator import itemgetter
from pathlib import Path

import pytest

import groupoids
from groupoids import (DirectedGraph, FiniteGroupoid, GraphAction,
                       GroupoidAction, GroupoidMorphism,
                       GroupPresentation, ParseError, PresentedGroupoid,
                       connected_groupoid, cyclic_group, discrete_groupoid,
                       groupoid_from_group, orbit_groupoid, parse_input,
                       parse_text, quaternion_group, render_entities,
                       search_isomorphism, semidirect_product,
                       symmetric_group, tree_groupoid, trivial_action,
                       validate_groupoid, validate_morphism)
from groupoids import fileformat
from groupoids.corpus import (named_actions, named_graph_actions,
                              random_actions, random_orbit_instances,
                              random_quotient_instances)
from groupoids.fileformat import _token, _unwritable
from test_orbit_route import _dihedral, _rotation

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


@pytest.mark.parametrize("sep", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"],
                         ids=["ff", "vt", "fs", "gs", "rs", "nel", "ls", "ps"])
def test_only_a_newline_ends_a_line(sep):
    # str.splitlines would also break at these and push line numbers on
    text = f"groupoid seg  # page{sep}one\nobjects x y\narrow f : x -> q\n"
    with pytest.raises(ParseError) as err:
        parse_text(text, path="in.txt")
    assert str(err.value) == "in.txt:3:1: unknown object q"


@pytest.mark.parametrize("raw", [
    b"groupoid seg  # page one\x0c\nobjects x y\narrow f : x -> q\n",
    b"groupoid seg\r\nobjects x y\r\narrow f : x -> q\r\n",
    b"groupoid seg\robjects x y\rarrow f : x -> q\r",
    b"\xef\xbb\xbfgroupoid seg\nobjects x y\narrow f : x -> q\n",
], ids=["form-feed", "crlf", "cr", "bom"])
def test_file_errors_name_the_right_line(tmp_path, raw):
    # a leading byte-order mark is skipped, so the header on line 1 parses
    path = tmp_path / "in.gpd"
    path.write_bytes(raw)
    with pytest.raises(ParseError) as err:
        parse_input(str(path))
    assert str(err.value) == f"{path}:3:1: unknown object q"


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


def test_actions_of_one_group_share_its_block():
    acts = dict(named_actions())
    text = render_entities([acts["tree-swap"], acts["path-reflection"]])
    assert text.count("groupoid Z2-gpd\n") == 1
    parsed = parse_text(text)
    assert parsed.of_kind("action") == ["tree-swap", "path-reflection"]
    graph_acts = [act for _name, act in named_graph_actions()]
    parsed = parse_text(render_entities(graph_acts))
    assert parsed.of_kind("action") == [act.name for act in graph_acts]


def test_random_actions_render_in_one_file():
    acts = random_actions()
    text = render_entities(acts)
    parsed = parse_text(text)
    assert parsed.of_kind("action") == [act.name for act in acts]
    assert render_entities([parsed.get(act.name) for act in acts]) == text


def test_a_groupoid_without_objects_round_trips():
    assert render_entities([discrete_groupoid(())]) == "groupoid discrete\n"
    text = "groupoid e\n"
    assert render_entities([parse_text(text).get("e")]) == text


def test_equal_groups_share_one_block():
    acts = [trivial_action(cyclic_group(2),
                           discrete_groupoid(("p",), name="P"), name="a"),
            trivial_action(cyclic_group(2),
                           discrete_groupoid(("q",), name="Q"), name="b")]
    text = render_entities(acts)
    assert text.count("groupoid Z2-gpd\n") == 1
    assert parse_text(text).of_kind("action") == ["a", "b"]
    corpus = [act for _name, act in named_actions()] + random_actions()
    parsed = parse_text(render_entities(corpus))
    assert parsed.of_kind("action") == [act.name for act in corpus]
    impostor = trivial_action(cyclic_group(3, name="Z2"),
                              discrete_groupoid(("r",), name="R"), name="c")
    with pytest.raises(ValueError, match="emitted as Z2-gpd"):
        render_entities(acts + [impostor])


def test_actions_read_from_separate_files_share_equal_blocks():
    acts = dict(named_actions())
    names = ["tree-swap", "point-swap"]
    swaps = [parse_text(render_entities([acts[name]])).get(name)
             for name in names]
    text = render_entities(swaps)
    assert text == render_entities([acts[name] for name in names])
    assert text.count("groupoid Z2-gpd\n") == 1
    assert parse_text(text).of_kind("action") == names
    with pytest.raises(ValueError, match="emitted as seg"):
        render_entities(swaps + [parse_text(SEG).get("seg")])


@pytest.mark.parametrize("family, digest", [
    (lambda: [act for _name, act in named_actions()], "4db5bcd0b7327568"),
    (random_actions, "1d1099a28c42690d"),
    (random_orbit_instances, "099619548939e42e"),
    (lambda: [k for k, _gens in random_quotient_instances()],
     "1eaecda7735c2f54"),
    (lambda: [groupoid_from_group(cyclic_group(4)),
              groupoid_from_group(symmetric_group(3)),
              groupoid_from_group(quaternion_group(), object_name="q")],
     "4d71a8cce986f55a"),
    (lambda: [discrete_groupoid(("p", "q", "r"))], "c2d59525ca3bde62"),
    (lambda: [tree_groupoid(("a", "b", "c"))], "7f6c62c8181ce316"),
    (lambda: [connected_groupoid(("x", "y", "z"), cyclic_group(3))],
     "43329e76f5cecc4f"),
    (lambda: [entity
              for act in [act for _name, act in named_actions()]
              + random_orbit_instances()
              for orbit in [orbit_groupoid(act)]
              for entity in (orbit.groupoid, orbit.morphism)],
     "4cacf597810b59f6"),
    (lambda: [entity for _name, act in named_actions()
              for sd in [semidirect_product(act)]
              for entity in (sd.groupoid, sd.projection)],
     "603871dd4029abd5"),
], ids=["named", "random", "random-orbit", "random-quotient", "one-object",
        "discrete", "tree", "connected", "orbit", "semidirect"])
def test_corpus_emission_is_pinned(family, digest):
    text = render_entities(family())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_emitted_actions_never_name_a_graph_with_relators():
    act = dict(named_graph_actions())["antipodal"]
    loops = PresentedGroupoid(act.graph, [act.graph.word(["a", "b"])])
    text = render_entities([loops, act])
    assert "graph circle2-presented\n" in text
    assert "action antipodal on circle2 by Z2-gpd" in text
    assert parse_text(text).of_kind("action") == ["antipodal"]


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
    # the parser rejects a new object named id_a
    with pytest.raises(ValueError, match=r"object 'id_a' cannot be written"):
        render_entities([discrete_groupoid(("id_a", "b"))])
    # the parser would rename the identity e to id_pt, and a morphism onto
    # the groupoid would name an arrow it does not know
    z2 = FiniteGroupoid(("pt",), ("e", "s"), {"e": "pt", "s": "pt"},
                        {"e": "pt", "s": "pt"}, {"pt": "e"},
                        {"e": "e", "s": "s"},
                        {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s",
                         ("s", "s"): "e"}, name="z2e")
    assert validate_groupoid(z2) == []
    loop = parse_text(Z2).get("z2")
    collapse = GroupoidMorphism(loop, z2, {"pt": "pt"},
                                {"id_pt": "e", "t": "e"}, name="collapse")
    assert validate_morphism(collapse) == []
    for entity in (z2, collapse):
        with pytest.raises(ValueError, match=r"arrow 'e' cannot be written"):
            render_entities([entity])


@pytest.mark.parametrize("name", [
    "a\xa0b", "a\x1cb", "a\u2028b", "\u3000", "a#b", ""],
    ids=["nbsp", "file-separator", "line-separator", "ideographic-space",
         "hash", "empty"])
def test_a_name_with_any_whitespace_or_a_hash_cannot_be_written(name):
    with pytest.raises(ValueError) as err:
        _token(name, "object")
    assert str(err.value) == f"object {name!r} cannot be written to the " \
        f"text format (whitespace or '#')"


def test_str_split_cuts_at_exactly_the_isspace_characters():
    # _token reads a name as one token as the parser does, with str.split
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = [ch for ch in every if ch.isspace()]
    assert len(spaces) == 29
    assert "".join(every.split()) == \
        "".join(ch for ch in every if not ch.isspace())


def _reference_groupoid_block(self, g, name):
    """The groupoid block written arrow by arrow and entry by entry, checked
    when called and given as one chunk, as the emitter takes a block."""
    lines = [f"groupoid {name}"]
    if g.objects:
        lines.append("objects " + " ".join(
            _token(x, "object") for x in g.objects))
    for x, u in g.identity_of.items():
        if u != f"id_{x}":
            raise _unwritable("arrow", u, f"the identity at {x} must be "
                              f"named id_{x}")
    non_identity = [u for u in g.arrows if not g.is_identity_arrow(u)]
    for u in non_identity:
        _token(u, "arrow")
        lines.append(f"arrow {u} : {g.source[u]} -> {g.target[u]}")
    for u in non_identity:
        v = g.inverse_of[u]
        if g.arrow_index[u] <= g.arrow_index[v]:
            lines.append(f"inverse {u} {v}")
    for v in non_identity:
        for u in g.costar(g.source[v]):
            if g.is_identity_arrow(u) or v == g.inverse_of[u]:
                continue
            lines.append(f"compose {v} {u} = {g.compose[(v, u)]}")
    return ["\n".join(lines)]


def _render_both(monkeypatch, entities):
    """render_entities(entities), then the same with the reference block;
    a ValueError stands for its message."""
    texts = []
    for block in (fileformat._Emitter._groupoid, _reference_groupoid_block):
        monkeypatch.setattr(fileformat._Emitter, "_groupoid", block)
        try:
            texts.append(render_entities(entities))
        except ValueError as err:
            texts.append(f"ValueError: {err}")
    return texts


def test_groupoid_blocks_match_the_reference_emitter(monkeypatch):
    acts = ([act for _name, act in named_actions()] + random_actions()
            + random_orbit_instances() + [_rotation(n) for n in range(2, 13)])
    cases = [[act.space] for act in acts]
    cases += [[k] for k, _gens in random_quotient_instances()]
    cases += [[sd.groupoid, sd.projection]
              for sd in map(semidirect_product, acts)]
    for entities in cases:
        text, reference = _render_both(monkeypatch, entities)
        assert text == reference, entities[0].name
        assert not text.startswith("ValueError")


def test_emitter_fails_on_a_missing_entry_as_the_reference_does(
        monkeypatch):
    z3 = groupoid_from_group(cyclic_group(3))
    compose = {key: w for key, w in z3.compose.items() if key != ("1", "1")}
    broken = FiniteGroupoid(z3.objects, z3.arrows, z3.source, z3.target,
                            z3.identity_of, z3.inverse_of, compose,
                            name="broken")
    for block in (fileformat._Emitter._groupoid, _reference_groupoid_block):
        monkeypatch.setattr(fileformat._Emitter, "_groupoid", block)
        with pytest.raises(KeyError, match=r"\('1', '1'\)"):
            render_entities([broken])


def _one_loop(identity, loop, obj="pt"):
    """The one-object groupoid of Z2 on the arrows identity and loop."""
    return FiniteGroupoid(
        (obj,), (identity, loop), {identity: obj, loop: obj},
        {identity: obj, loop: obj}, {obj: identity},
        {identity: identity, loop: loop},
        {(identity, identity): identity, (identity, loop): loop,
         (loop, identity): loop, (loop, loop): identity}, name="z2")


@pytest.mark.parametrize("bad, message", [
    (_one_loop("id_pt", "s t"), "arrow 's t'"),
    (_one_loop("id_pt", "s#"), "arrow 's#'"),
    (_one_loop("id_pt", "id_s"), "arrow 'id_s'"),
    (_one_loop("id_a b", "s", obj="a b"), "object 'a b'"),
    (_one_loop("id_id_p", "s", obj="id_p"), "object 'id_p'"),
    (_one_loop("e", "s"), "arrow 'e'"),
    # the identity's name is checked before the other arrows' names
    (_one_loop("e", "s t"), "arrow 'e'"),
], ids=["space", "hash", "reserved", "object-space", "object-reserved",
        "identity", "identity-first"])
def test_emitter_refuses_what_the_reference_refuses(monkeypatch, bad,
                                                     message):
    text, reference = _render_both(monkeypatch, [bad])
    assert text == reference
    assert text.startswith(f"ValueError: {message} cannot be written")


@pytest.mark.parametrize("act", [_rotation(6), _dihedral(4)],
                         ids=lambda act: act.name)
def test_semidirect_products_above_the_suite_cap_round_trip(act):
    # the round-trip check covers corpus products of at most 48 arrows
    sd = semidirect_product(act)
    assert len(sd.groupoid.arrows) > 48
    text = render_entities([sd.groupoid, sd.projection])
    parsed = parse_text(text)
    assert render_entities([parsed.entities[n] for n in parsed.order]) == \
        text


# A two-vertex circle for graph actions.
CIRC = """\
graph circ
vertex v w
edge e : v -> w
edge h : w -> v
"""

_ACT = SEG + "\n" + Z2 + "\naction a on seg by z2\n"   # body from line 13
_GACT = CIRC + "\n" + Z2 + "\naction a on circ by z2\n"  # body from line 12
_MOR = SEG + "\n" + Z2 + "\nmorphism m : seg -> z2\n"   # body from line 13

# One row for every ParseError that input can reach: the text, and the
# exact message read from path "in.txt".
PARSE_ERRORS = {
    # blocks and headers
    "no-header": ("objects x\n", "1:1: expected a block header, got objects"),
    "groupoid-header": ("groupoid\n", "1:1: expected: groupoid NAME"),
    "header-column": ("  groupoid a b\n", "1:3: expected: groupoid NAME"),
    "graph-header": ("graph g h\n", "1:1: expected: graph NAME"),
    "presentation-header": ("presentation\n",
                            "1:1: expected: presentation NAME"),
    "action-header": ("action a on seg\n",
                      "1:1: expected: action NAME on TARGET by GROUP"),
    "morphism-header": ("morphism m seg z2\n",
                        "1:1: expected: morphism NAME : SRC -> DST"),
    "duplicate-entity": ("groupoid g\nobjects x\n\ngroupoid g\nobjects y\n",
                         "4:1: duplicate entity name g"),
    # groupoid lines
    "duplicate-object": ("groupoid g\nobjects x x\n",
                         "2:1: duplicate object x"),
    "line-column": ("groupoid g\n   objects x x\n", "2:4: duplicate object x"),
    "reserved-object": ("groupoid g\nobjects id_x\n",
                        "2:1: object id_x uses the reserved id_ prefix"),
    "arrow-usage": ("groupoid g\nobjects x\narrow a : x => x\n",
                    "3:1: expected: arrow NAME : SRC -> TGT"),
    "arrow-arity": ("groupoid g\nobjects x\narrow a : x\n",
                    "3:1: expected: arrow NAME : SRC -> TGT"),
    "reserved-arrow": ("groupoid g\nobjects x\narrow id_a : x -> x\n",
                       "3:1: arrow id_a uses the reserved id_ prefix"),
    "duplicate-arrow": ("groupoid g\nobjects x\narrow a : x -> x\n"
                        "arrow a : x -> x\n", "4:1: duplicate arrow a"),
    "arrow-unknown-object": ("groupoid g\nobjects x\narrow a : x -> y\n",
                             "3:1: unknown object y"),
    "inverse-usage": ("groupoid g\nobjects x\narrow a : x -> x\ninverse a\n",
                      "4:1: expected: inverse A B"),
    "inverse-unknown": ("groupoid g\nobjects x\narrow a : x -> x\n"
                        "inverse a b\n", "4:1: unknown arrow b"),
    "inverse-endpoints": ("groupoid g\nobjects x y\narrow f : x -> y\n"
                          "arrow h : x -> y\ninverse f h\n",
                          "5:1: inverse pair f h has mismatched endpoints"),
    "inverse-conflict": ("groupoid g\nobjects x\narrow a : x -> x\n"
                         "arrow b : x -> x\ninverse a a\ninverse a b\n",
                         "6:1: conflicting inverse for a"),
    "compose-usage": (SEG + "compose g f f\n",
                      "6:1: expected: compose V U = W"),
    "compose-unknown": (SEG + "compose g q = id_x\n", "6:1: unknown arrow q"),
    "compose-identity-of-unknown": (SEG + "compose f id_z = f\n",
                                    "6:1: unknown arrow id_z"),
    "groupoid-unexpected": ("groupoid g\nobjects x\nnonsense here\n",
                            "3:1: unexpected nonsense in a groupoid block"),
    "no-inverse": ("groupoid g\nobjects x\narrow a : x -> x\n",
                   "1:1: arrow a has no declared inverse"),
    "not-composable": (SEG + "compose f f = f\n",
                       "6:1: compose f f: not composable"),
    "contradicts-implied": (SEG + "compose g f = g\n",
                            "6:1: compose g f = g contradicts an implied "
                            "composition"),
    "missing-composition": ("groupoid z3\nobjects pt\narrow a : pt -> pt\n"
                            "arrow b : pt -> pt\ninverse a b\n",
                            "1:1: z3: missing composition: compose a a"),
    "groupoid-axiom": ("groupoid z3\nobjects pt\narrow a : pt -> pt\n"
                       "arrow b : pt -> pt\ninverse a b\ncompose a a = a\n"
                       "compose b b = a\n",
                       "1:1: z3: associativity fails on (a, a, b)"),
    # action headers
    "unknown-target": ("action a on seg by z2\n", "1:1: unknown target seg"),
    "target-kind": ("presentation p\n\naction a on p by z2\n",
                    "3:1: p is not a groupoid or graph"),
    "unknown-group": (SEG + "\naction a on seg by Z2\n",
                      "7:1: no entity named Z2"),
    "group-kind": (SEG + "\n" + CIRC + "\naction a on seg by circ\n",
                   "12:1: circ is a graph, not a groupoid"),
    "group-objects": (SEG + "\naction a on seg by seg\n",
                      "7:1: group block seg must have exactly one object"),
    "graph-with-relators": (CIRC + "relator e h\n\n" + Z2
                            + "\naction a on circ by z2\n",
                            "12:1: graph circ has relators; an action "
                            "needs a graph without relators"),
    # action lines
    "obj-usage": (_ACT + "obj t : x\n", "13:1: expected: obj G : X -> Y"),
    "unknown-element": (_ACT + "obj s : x -> y\n",
                        "13:1: unknown group element s"),
    "identity-element": (_ACT + "obj id_pt : x -> y\n",
                         "13:1: the identity element acts trivially; "
                         "remove this line"),
    "obj-unknown-object": (_ACT + "obj t : x -> q\n",
                           "13:1: unknown object q"),
    "obj-duplicate": (_ACT + "obj t : x -> y\nobj t : x -> x\n",
                      "14:1: duplicate image for t on x"),
    "graph-obj-unknown-vertex": (_GACT + "obj t : q -> v\n",
                                 "12:1: unknown object q"),
    "arr-on-graph": (_GACT + "arr t : e -> h\n",
                     "12:1: arr lines need a groupoid target; use act "
                     "lines for graph edges"),
    "arr-on-graph-malformed": (_GACT + "arr t e\n",
                               "12:1: arr lines need a groupoid target; use "
                               "act lines for graph edges"),
    "arr-usage": (_ACT + "arr t f g\n", "13:1: expected: arr G : A -> B"),
    "arr-unknown-arrow": (_ACT + "arr t : f -> q\n", "13:1: unknown arrow q"),
    "arr-identity": (_ACT + "arr t : id_x -> id_y\n",
                     "13:1: identity arrow images follow the object map; "
                     "remove this line"),
    "arr-duplicate": (_ACT + "arr t : f -> g\narr t : f -> f\n",
                      "14:1: duplicate image for t on f"),
    "act-on-groupoid": (_ACT + "act t : f -> g\n",
                        "13:1: act lines need a graph target; use arr lines "
                        "for groupoid arrows"),
    "act-usage": (_GACT + "act t : e\n",
                  "12:1: expected: act G : E -> F or act G : E -> -F"),
    "act-unknown-edge": (_GACT + "act t : e -> -q\n",
                         "12:1: unknown edge q"),
    "act-double-inverse-mark": (_GACT + "act t : e -> --e\n",
                                "12:1: unknown edge -e"),
    "act-duplicate": (_GACT + "act t : e -> h\nact t : e -> -e\n",
                      "13:1: duplicate image for t on e"),
    "action-unexpected": (_ACT + "objects z\n",
                          "13:1: unexpected objects in an action block"),
    "action-axiom": (_ACT + "obj t : x -> y\nobj t : y -> x\n",
                     "12:1: a: g=t: image of f has wrong source"),
    "graph-action-axiom": (_GACT + "obj t : v -> w\nobj t : w -> v\n",
                           "11:1: a: edge image breaks incidence: t on e"),
    # graph blocks
    "duplicate-vertex": ("graph g\nvertex v v\n", "2:1: duplicate vertex v"),
    "edge-usage": ("graph g\nvertex v\nedge e v v\n",
                   "3:1: expected: edge NAME : SRC -> TGT"),
    "edge-letter": ("graph g\nvertex v\nedge -e : v -> v\n",
                    "3:1: edge -e starts with '-', which marks an inverse "
                    "letter"),
    "duplicate-edge": ("graph g\nvertex v\nedge e : v -> v\n"
                       "edge e : v -> v\n", "4:1: duplicate edge e"),
    "edge-unknown-vertex": ("graph g\nvertex v\nedge e : v -> w\n",
                            "3:1: unknown vertex w"),
    "edge-relator-empty": (CIRC + "relator\n",
                           "5:1: relator needs at least one edge token"),
    "graph-unexpected": (CIRC + "objects v\n",
                         "5:1: unexpected objects in a graph block"),
    "relator-unknown-edge": (CIRC + "relator e q\n",
                             "5:1: circ: unknown edge q"),
    "relator-chain": (CIRC + "relator e e\n",
                      "5:1: circ: letters do not chain at w"),
    "relator-not-a-loop": (CIRC + "relator e\n",
                           "5:1: relator is not a loop (v -> w)"),
    # presentation blocks
    "generator-letter": ("presentation p\ngenerators -a\n",
                         "2:1: generator -a starts with '-', which marks an "
                         "inverse letter"),
    "duplicate-generator": ("presentation p\ngenerators a a\n",
                            "2:1: duplicate generator a"),
    "relator-empty": ("presentation p\ngenerators a\nrelator\n",
                      "3:1: relator needs at least one token"),
    "unknown-generator": ("presentation p\ngenerators a\nrelator a -c\n",
                          "3:1: unknown generator c"),
    "presentation-unexpected": ("presentation p\nvertex v\n",
                                "2:1: unexpected vertex in a presentation "
                                "block"),
    # morphism blocks
    "unknown-domain": (Z2 + "\nmorphism m : q -> z2\n",
                       "6:1: no entity named q"),
    "codomain-kind": (SEG + "\npresentation p\n\nmorphism m : seg -> p\n",
                      "9:1: p is a presentation, not a groupoid"),
    "morphism-obj-usage": (_MOR + "obj x pt\n",
                           "13:1: expected: obj X -> Y"),
    "morphism-obj-unknown-source": (_MOR + "obj q -> pt\n",
                                    "13:1: unknown object q"),
    "morphism-obj-unknown-image": (_MOR + "obj x -> q\n",
                                   "13:1: unknown object q"),
    "morphism-obj-duplicate": (_MOR + "obj x -> pt\nobj x -> pt\n",
                               "14:1: duplicate image for object x"),
    "morphism-arr-usage": (_MOR + "arr f : t\n", "13:1: expected: arr A -> B"),
    "morphism-arr-unknown-source": (_MOR + "arr q -> t\n",
                                    "13:1: unknown arrow q"),
    "morphism-arr-unknown-image": (_MOR + "arr f -> q\n",
                                   "13:1: unknown arrow q"),
    "morphism-arr-identity": (_MOR + "arr id_x -> id_pt\n",
                              "13:1: identity arrow images follow the object "
                              "map; remove this line"),
    "morphism-arr-duplicate": (_MOR + "arr f -> t\narr f -> t\n",
                               "14:1: duplicate image for arrow f"),
    "morphism-unexpected": (_MOR + "act f -> t\n",
                            "13:1: unexpected act in a morphism block"),
    "object-without-image": (_MOR + "obj x -> pt\n",
                             "12:1: object y has no image"),
    "arrow-without-image": (_MOR + "obj x -> pt\nobj y -> pt\n",
                            "12:1: arrow f has no image"),
    "morphism-law": (_MOR + "obj x -> pt\nobj y -> pt\narr f -> t\n"
                     "arr g -> id_pt\n",
                     "12:1: m: composition not preserved on (f, g)"),
    # columns of indented lines, found when the error is raised
    "not-composable-indented": (SEG + "  compose f f = f\n",
                                "6:3: compose f f: not composable"),
    "contradicts-implied-indented": (SEG + "compose f g = id_y\n"
                                     "   compose g f = g\n",
                                     "7:4: compose g f = g contradicts an "
                                     "implied composition"),
    "tab-indented-line": ("groupoid g\n\t objects x x\n",
                          "2:3: duplicate object x"),
    "indented-comment": ("groupoid g\n  objects x x  # twice\n",
                         "2:3: duplicate object x"),
    "relator-not-a-loop-indented": (CIRC + "\t\trelator e\n",
                                    "5:3: relator is not a loop (v -> w)"),
    "arr-on-graph-indented": (_GACT + "    arr t : e -> h\n",
                              "12:5: arr lines need a groupoid target; use "
                              "act lines for graph edges"),
}


@pytest.mark.parametrize("text, message", PARSE_ERRORS.values(),
                         ids=PARSE_ERRORS.keys())
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_text(text, path="in.txt")
    assert str(err.value) == f"in.txt:{message}"


@pytest.mark.parametrize("text, message", PARSE_ERRORS.values(),
                         ids=PARSE_ERRORS.keys())
def test_parse_error_messages_with_crlf_line_ends(text, message):
    with pytest.raises(ParseError) as err:
        parse_text(text.replace("\n", "\r\n"), path="in.txt")
    assert str(err.value) == f"in.txt:{message}"


def _read(text):
    """The outcome of parsing text: its error message, or every table of
    every entity with its order, and the text it emits again."""
    try:
        parsed = parse_text(text, path="in.txt")
    except ParseError as err:
        return str(err)
    entities = [parsed.entities[name] for name in parsed.order]
    tables = [{field: list(value.items()) if isinstance(value, dict)
               else value for field, value in vars(entity).items()
               if isinstance(value, (dict, tuple, list, str))}
              for entity in entities]
    return tables, render_entities(entities)


def _clean_texts():
    yield from (render_entities([connected_groupoid(
        [f"x{i}" for i in range(k)], cyclic_group(m))])
        for k, m in ((2, 3), (4, 5)))
    yield from (render_entities([_rotation(n)]) for n in range(8, 13))
    yield render_entities([act for _name, act in named_actions()])
    yield render_entities(random_actions())


def test_bulk_and_line_reads_agree(monkeypatch):
    # with LF, no body line goes through the line reader; CRLF line ends
    # send every one through it
    body_lines = []
    line = fileformat._Block.line
    monkeypatch.setattr(fileformat._Block, "line", lambda self, tokens, at: (
        tokens[0] in fileformat._BLOCKS or body_lines.append(at),
        line(self, tokens, at))[1])
    for text in _clean_texts():
        body_lines.clear()
        tables, emitted = _read(text)
        assert body_lines == []
        assert emitted == text
        assert _read(text.replace("\n", "\r\n")) == (tables, emitted)
        assert len(body_lines) == sum(
            1 for raw in text.split("\n")
            if raw and raw.split()[0] not in fileformat._BLOCKS)
        # a clean text without its final newline is still read in bulk
        body_lines.clear()
        assert text.endswith("\n")
        assert _read(text[:-1]) == (tables, emitted)
        assert body_lines == []


_Z3 = """\
groupoid z3
objects pt
arrow a : pt -> pt
arrow b : pt -> pt
inverse a b
compose a a = b
compose b b = a
"""

_TREE = render_entities([tree_groupoid([f"t{i}" for i in range(18)],
                                       name="tree18")])   # 306 arrow lines


@functools.cache
def _k8z6():
    """connected_groupoid(8 objects, Z6): 17,866 lines, 17,296 of them
    compose lines, in 17 runs of the bulk reader."""
    text = render_entities([connected_groupoid(
        [f"x{i}" for i in range(8)], cyclic_group(6), name="k8")])
    assert text.count("\n") == 17866
    return text


@functools.cache
def _k8z6_parse_memory():
    """tracemalloc's (kept, peak) bytes when _k8z6() is parsed."""
    text = _k8z6()
    parse_text(_Z3)             # the patterns are compiled before measuring
    tracemalloc.start()
    try:
        parsed = parse_text(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed.order == ["k8"]
    return kept, peak


def test_bulk_read_keeps_no_state_per_line():
    # an unbounded repeat of the line pattern keeps a backtrack point per
    # line: the parse then needs 2.2 to 4.3 MB beyond the tables it
    # returns (Python 3.10 to 3.12).  Runs of at most 1024 lines, each
    # split into tokens only when it is reached, need 0.3 MB (Python
    # 3.11), under the bound of 3 bytes per byte of text (1.8 MB)
    kept, peak = _k8z6_parse_memory()
    assert peak - kept < 3 * len(_k8z6())


def test_parsed_tables_keep_one_string_per_name():
    # tables whose every token is its own string keep 4.6 MB, and one
    # string object per name 1.6 MB (Python 3.11), under the bound of 4
    # bytes per byte of text (2.4 MB)
    kept, _peak = _k8z6_parse_memory()
    assert kept < 4 * len(_k8z6())


def _commented(text):
    """text with a comment on every line, which the line reader reads."""
    return text.replace("\n", " # a comment\n")


def _faulty_compose_line(fault, g, first, line):
    """A compose line to replace line, which has fault; first is the first
    compose line."""
    _compose, v, u, _eq, w = line.split()
    if fault == "unknown-arrow":
        return f"compose {v} {u} = nosuch"
    if fault == "repeat-of-the-first-run":
        return first
    if fault == "not-composable":
        far = next(a for a in g.arrows if g.source[a] != g.target[u])
        return f"compose {far} {u} = {w}"
    # v + id = w contradicts the implied v + id = v
    return f"compose {v} {g.identity_of[g.source[v]]} = {w}"


@pytest.mark.parametrize("where", ["run-2", "last-line"])
@pytest.mark.parametrize("fault", ["unknown-arrow", "repeat-of-the-first-run",
                                   "not-composable", "contradicts-implied"])
def test_errors_in_a_later_run_are_the_line_readers(tmp_path, fault, where):
    # the bulk reader meets the fault past its first run of compose lines
    # and leaves the block to the line reader, which words it as it words
    # the commented copy, which it reads itself
    text = _k8z6()
    lines = text.split("\n")
    first = next(i for i, raw in enumerate(lines) if raw.startswith("compose"))
    at = first + 1024 + 500 if where == "run-2" else len(lines) - 2
    g = parse_text(text).entities["k8"]
    lines[at] = _faulty_compose_line(fault, g, lines[first], lines[at])
    bad = "\n".join(lines)
    path = tmp_path / "k8.gpd"
    messages = []
    for copy in (bad, _commented(bad)):
        with pytest.raises(ParseError) as err:
            parse_text(copy, path=str(path))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"{path}:")
    path.write_text(bad, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "groupoids", "quotient", str(path),
         "--arrows", g.arrows[-1]], capture_output=True, text=True,
        timeout=60, env=dict(
            os.environ, PYTHONPATH=str(Path(groupoids.__file__).parents[1])))
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", messages[0] + "\n")


def _shares_names(entity):
    """Whether each name in entity's tables is the very object that the
    entity lists for it: its groupoid's object or arrow, its action's group
    element or cell of the space."""
    def within(names, *listed):
        ids = {id(x) for pool in listed for x in pool}
        return all(id(x) in ids for x in names)

    if isinstance(entity, FiniteGroupoid):
        g = entity
        return within(chain(chain.from_iterable(g.compose), g.compose.values(),
                            *g.inverse_of.items(), g.identity_of.values()),
                      g.arrows) and \
            within(chain(g.source.values(), g.target.values(), g.identity_of),
                   g.objects)
    if isinstance(entity, GroupoidAction):
        sp = entity.space
        tables = ((entity.act_obj, sp.objects, sp.objects),
                  (entity.act_arrow, sp.arrows, sp.arrows))
    elif isinstance(entity, GraphAction):
        graph = entity.graph
        # an edge's image is a signed edge letter, of no listed edge
        tables = ((entity.act_vertex, graph.vertices, graph.vertices),
                  (entity.act_edge, graph.edges, None))
    else:
        return True
    return all(within(map(itemgetter(0), table), entity.group.elements) and
               within(map(itemgetter(1), table), cells) and
               (images is None or within(table.values(), images))
               for table, cells, images in tables)


def test_parsed_tables_share_name_objects():
    # each key and value of a parsed table is the object its block lists
    # for the name, so a lookup compares names by identity; in bulk (the
    # k8 Z6 compose lines in 17 runs) and through the line reader alike
    texts = [*_clean_texts(), _k8z6(), render_entities(
        [act for _name, act in named_graph_actions()])]
    for text in texts + [_commented(t) for t in texts]:
        parsed = parse_text(text)
        for name in parsed.order:
            assert _shares_names(parsed.entities[name]), name


@pytest.mark.parametrize("text", [
    "groupoid z3\nobjects pt\narrow = : pt -> pt\narrow compose : pt -> pt\n"
    "inverse = compose\ncompose = = = compose\ncompose compose compose = =\n",
    _Z3.replace("arrow b : pt -> pt\n",
                "compose b b = a\narrow b : pt -> pt\n"),
    _Z3 + "compose a a = b\n",
    _Z3 + "compose a a = a\n",
    _Z3.replace("inverse a b", "inverse\fa b"),
    _Z3.replace("inverse a b", "inverse a\x1cb"),
    _Z3.replace("inverse a b", "inverse a\xa0b"),
    _Z3.replace("inverse a b", "inverse a b b"),
    _Z3.replace("objects pt", "objects pt "),
    _Z3.replace("objects pt", "objects pt q#c"),
    _Z3.replace("objects pt", "objects pt\t"),
    _Z3.replace("compose b b = a", "compose b b =  a"),
    _Z3.replace("\narrow a", "\n\narrow a"),
    _Z3 + "arrow c : pt -> pt\n",
    _Z3.replace("objects pt", "objects pt pt"),
    _Z3 + "compose a b = id_pt\n",
    _Z3 + "compose a id_pt = b\n",
    _Z3.replace("compose b b = a", "compose b c = a"),
    _TREE.replace("\ncompose t3>t9 t7>t3 = t7>t9\n",
                  "\ncompose t3>t9 t7>t3 = t7>t9 # a comment\n"),
    _TREE.replace("\ncompose t3>t9 t7>t3 = t7>t9\n",
                  "\ncompose t3>t9 t7>t3 = t7>t8\n"),
    _TREE.rstrip("\n"),
    SEG + "\n" + Z2 + "\naction a on seg by z2\narr t : f -> g\n"
    "arr t : g -> f\nobj t : x -> y\nobj t : y -> x\n",
    SEG + "\n" + Z2 + "\naction a on seg by z2\nobj t : x -> y\n"
    "obj t : y -> x\narr t : f -> g\narr t : g -> f\nact t : f -> g\n",
], ids=["names-=-and-compose", "compose-before-arrow", "agreeing-duplicate",
        "contradicting-duplicate", "form-feed", "file-separator", "nbsp",
        "extra-token", "trailing-space", "glued-comment", "trailing-tab",
        "double-space", "blank-line", "arrow-after-compose",
        "duplicate-object", "implied-compose", "contradicts-implied",
        "unknown-name", "comment-in-300-arrows", "wrong-image-in-300-arrows",
        "no-final-newline", "arr-before-obj", "act-on-groupoid"])
def test_any_doubt_gives_the_line_readers_result(text):
    assert _read(text) == _read(text.replace("\n", "\r\n"))


@pytest.mark.parametrize("text, message", PARSE_ERRORS.values(),
                         ids=PARSE_ERRORS.keys())
def test_parse_errors_before_a_clean_block(text, message):
    with pytest.raises(ParseError) as err:
        parse_text(text + "\n" + _TREE, path="in.txt")
    assert str(err.value) == f"in.txt:{message}"


@pytest.mark.parametrize("block, word, listed", [
    ("groupoid g", "objects", lambda g: g.objects),
    ("graph g", "vertex", lambda g: g.graph.vertices),
    ("presentation g", "generators", lambda p: p.generators),
], ids=["objects", "vertex", "generators"])
def test_long_name_lines_parse_in_linear_time(block, word, listed):
    # a name is checked fresh against a set, not a list of the earlier ones
    names = [f"n{i}" for i in range(20000)]
    text = f"{block}\n{word} {' '.join(names)}\n"
    start = time.perf_counter()
    entity = parse_text(text).entities["g"]
    assert time.perf_counter() - start < 1
    assert listed(entity) == tuple(names)


def _round_trip_cases():
    from groupoids import (normal_closure, orbit_groupoid, quotient_groupoid,
                           semidirect_product)
    from groupoids.corpus import (random_orbit_instances,
                                  random_quotient_instances)
    named = [act for _name, act in named_actions()]
    orbits = named + random_orbit_instances()
    cases = [(act.name, [act]) for act in orbits + random_actions()]
    cases += [(act.name, [act]) for _name, act in named_graph_actions()]
    for k, gens in random_quotient_instances():
        q = quotient_groupoid(k, normal_closure(k, gens))
        cases.append((k.name, [q.groupoid, q.morphism]))
    for act in orbits:
        orb = orbit_groupoid(act)
        cases.append((f"orbit-{act.name}", [orb.groupoid, orb.morphism]))
    for act in named:
        sd = semidirect_product(act)
        cases.append((f"semidirect-{act.name}", [sd.groupoid, sd.projection]))
    return cases


def test_emission_is_byte_stable_over_the_corpus():
    cases = _round_trip_cases()
    # 85 actions, 3 graph actions, 22 quotients, 29 orbits, 11 semidirect
    assert len(cases) == 150
    for name, entities in cases:
        text = render_entities(entities)
        parsed = parse_text(text, path=name)
        again = render_entities([parsed.entities[n] for n in parsed.order])
        assert again == text, name
