import random
from itertools import combinations
from math import gcd

import pytest

from groupoids import (AbelianInvariants, DirectedGraph, GraphAction,
                       GroupPresentation, PresentedGroupoid, Word,
                       abelian_invariants, brute_abelianization, cyclic_group,
                       describe_vertex_group, direct_product_presentation,
                       free_reduce, orbit_presentation,
                       presentation_relation_matrix, smith_normal_form,
                       symmetric_group,
                       symmetric_square_presentation, validate_graph_action,
                       vertex_group_presentation)
from groupoids.corpus import named_graph_actions


def _graph_action(name):
    return dict(named_graph_actions())[name]


def _wedge(n):
    letters = [chr(ord("a") + i) for i in range(n)]
    return DirectedGraph(("*",), letters, {e: "*" for e in letters},
                         {e: "*" for e in letters}, name=f"wedge{n}")


def test_word_str_and_inverse():
    g = _wedge(2)
    w = g.word(["a", "-b"])
    assert str(w) == "a.-b"
    assert str(w.inverse()) == "b.-a"
    assert str(Word((), "x", "x")) == "1_x"


def test_word_building_checks_chaining():
    path = DirectedGraph(("x", "y", "z"), ("e", "f"),
                         {"e": "x", "f": "y"}, {"e": "y", "f": "z"})
    w = path.word(["e", "f"])
    assert (w.source, w.target) == ("x", "z")
    w = path.word(["-f"])
    assert (w.source, w.target) == ("z", "y")
    with pytest.raises(ValueError):
        path.word(["f", "e"])
    with pytest.raises(ValueError):
        path.word(["nope"])
    with pytest.raises(ValueError):
        path.word([])


def test_free_reduce():
    w = Word((("a", 1), ("b", 1), ("b", -1), ("a", 1)), "*", "*")
    assert free_reduce(w).letters == (("a", 1), ("a", 1))
    w = Word((("a", 1), ("a", -1)), "*", "*")
    assert free_reduce(w).letters == ()


def test_relators_must_be_loops():
    path = DirectedGraph(("x", "y"), ("e",), {"e": "x"}, {"e": "y"})
    with pytest.raises(ValueError):
        PresentedGroupoid(path, [path.word(["e"])])


def test_vertex_group_of_wedge_is_free():
    pres = PresentedGroupoid(_wedge(2), [])
    vp = vertex_group_presentation(pres, "*")
    assert set(vp.generators) == {"a", "b"}
    assert vp.relators == ()
    assert abelian_invariants(vp) == AbelianInvariants(2, ())


def test_vertex_group_collapses_tree_edges():
    # two vertices joined by parallel edges: one generator survives
    circle = DirectedGraph(("v", "w"), ("e", "f"),
                           {"e": "v", "f": "v"}, {"e": "w", "f": "w"})
    vp = vertex_group_presentation(PresentedGroupoid(circle, []), "v")
    assert len(vp.generators) == 1
    assert abelian_invariants(vp) == AbelianInvariants(1, ())
    with pytest.raises(ValueError):
        vertex_group_presentation(PresentedGroupoid(circle, []), "nope")


def test_orbit_presentation_of_circle_reflection():
    pres, elabel, vlabel = orbit_presentation(_graph_action("circle-reflection"))
    assert pres.graph.vertices == ("[1]", "[i]", "[-1]")
    assert pres.graph.edges == ("[e1]", "[e2]")
    assert pres.relators == ()
    assert vlabel["-i"] == "[i]"
    assert elabel["e4"] == "[e1]"
    for v in pres.graph.vertices:
        assert describe_vertex_group(pres, v) == "trivial"


def test_orbit_presentation_of_antipodal_map():
    pres, _elabel, _vlabel = orbit_presentation(_graph_action("antipodal"))
    assert pres.graph.vertices == ("[1]",)
    assert pres.graph.edges == ("[a]",)
    assert pres.relators == ()
    assert describe_vertex_group(pres, "[1]") == "free of rank 1"


def test_orbit_presentation_of_edge_inverting_reflection():
    act = _graph_action("edge-inverting-reflection")
    pres, _elabel, _vlabel = orbit_presentation(act)
    assert pres.graph.edges == ("[a]", "[b]")
    assert len(pres.relators) == 2
    vp = vertex_group_presentation(pres, "[1]")
    assert abelian_invariants(vp) == AbelianInvariants(0, (2, 2))


def test_validate_graph_action_catches_broken_incidence():
    act = _graph_action("antipodal")
    assert validate_graph_action(act) == []
    broken = GraphAction(act.group, act.graph, dict(act.act_vertex),
                         {**act.act_edge, ("1", "a"): "-b"}, name="broken")
    assert validate_graph_action(broken) != []
    with pytest.raises(ValueError):
        orbit_presentation(broken)


def test_direct_product_presentation():
    z2 = GroupPresentation(("a",), ((("a", 1),) * 2,), name="c2")
    z3 = GroupPresentation(("b",), ((("b", 1),) * 3,), name="c3")
    prod = direct_product_presentation(z2, z3)
    assert set(prod.generators) == {"a_1", "b_2"}
    assert abelian_invariants(prod) == AbelianInvariants(0, (6,))


def test_symmetric_square_matches_abelianization():
    s3 = GroupPresentation(("a", "b"),
                           ((("a", 1),) * 3, (("b", 1),) * 2,
                            (("a", 1), ("b", 1), ("a", 1), ("b", 1))),
                           name="s3")
    square = symmetric_square_presentation(s3)
    got = abelian_invariants(square)
    assert (got.free_rank, got.torsion) == (0, (2,))
    assert got.torsion == brute_abelianization(symmetric_group(3))

    torus = GroupPresentation(
        ("a", "b"),
        ((("a", 1), ("b", 1), ("a", -1), ("b", -1)),), name="torus")
    assert abelian_invariants(symmetric_square_presentation(torus)) == \
        AbelianInvariants(2, ())

    klein = GroupPresentation(
        ("a", "b"),
        ((("a", 1), ("b", 1), ("a", 1), ("b", -1)),), name="klein-bottle")
    assert abelian_invariants(symmetric_square_presentation(klein)) == \
        AbelianInvariants(1, (2,))


def test_presentation_relation_matrix():
    s3 = GroupPresentation(("a", "b"),
                           ((("a", 1),) * 3, (("b", 1),) * 2,
                            (("a", 1), ("b", 1), ("a", 1), ("b", 1))))
    assert presentation_relation_matrix(s3) == [[3, 0], [0, 2], [2, 2]]
    q8 = GroupPresentation(("i", "j"),
                           ((("i", 1),) * 4,
                            (("i", 1), ("i", 1), ("j", -1), ("j", -1)),
                            (("i", 1), ("j", 1), ("i", 1), ("j", -1))))
    assert presentation_relation_matrix(q8) == [[4, 0], [2, -2], [2, 0]]


def test_smith_normal_form():
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[6]]) == [6]
    assert smith_normal_form([[2, 2], [2, 2]]) == [2]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([]) == []


def test_smith_normal_form_returns_only_nonzero_entries():
    assert smith_normal_form([[0, 0]]) == []
    assert smith_normal_form([[0, 0], [0, 3]]) == [3]
    # the commutator relator is a zero row, so it kills no free rank
    torus = GroupPresentation(("a", "b"),
                              ((("a", 1), ("b", 1), ("a", -1), ("b", -1)),))
    assert presentation_relation_matrix(torus) == [[0, 0]]
    assert abelian_invariants(torus) == AbelianInvariants(2, ())


def _det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:]
                                           for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _invariant_factors(m):
    """d_k / d_(k-1) for the determinantal divisors d_k, the gcd of the k x k
    minors, while d_k is nonzero."""
    factors, previous = [], 1
    for k in range(1, min(len(m), len(m[0])) + 1):
        d = 0
        for rows in combinations(range(len(m)), k):
            for cols in combinations(range(len(m[0])), k):
                d = gcd(d, _det([[m[i][j] for j in cols] for i in rows]))
        if d == 0:
            break
        factors.append(d // previous)
        previous = d
    return factors


def test_smith_normal_form_matches_determinantal_divisors():
    rng = random.Random(20261018)
    for _ in range(600):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        bound = rng.choice((1, 3, 9))
        m = [[rng.randint(-bound, bound) for _ in range(cols)]
             for _ in range(rows)]
        assert smith_normal_form(m) == _invariant_factors(m), m


def test_smith_normal_form_matches_determinantal_divisors_on_wide_entries():
    # shapes and entry sizes where unchecked coefficient growth shows
    rng = random.Random(20261019)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        bound = rng.choice((30, 1000))
        m = [[rng.randint(-bound, bound) for _ in range(cols)]
             for _ in range(rows)]
        assert smith_normal_form(m) == _invariant_factors(m), m


def test_abelian_invariants_from_relators():
    q8 = GroupPresentation(("i", "j"),
                           ((("i", 1),) * 4,
                            (("i", 1), ("i", 1), ("j", -1), ("j", -1)),
                            (("i", 1), ("j", 1), ("i", 1), ("j", -1))))
    assert abelian_invariants(q8) == AbelianInvariants(0, (2, 2))
    free = GroupPresentation(("x", "y", "z"), ())
    assert abelian_invariants(free) == AbelianInvariants(3, ())


def test_abelian_invariants_str():
    assert str(AbelianInvariants(2, ())) == "rank 2"
    assert str(AbelianInvariants(0, (2, 2))) == "rank 0, torsion 2 2"
    assert str(AbelianInvariants(1, (2,))) == "rank 1, torsion 2"
