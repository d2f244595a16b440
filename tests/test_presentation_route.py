"""The orbit groupoid by its presentation, far above the oracle caps.

X//G is universal among the morphisms out of X that are constant on
G-orbits, so it is presented (Higgins, Taylor) by the graph with one vertex
per object orbit and one edge per G-orbit of non-identity arrows, with a
relator u.v.w^-1 for every compose entry w = v + u of X, identity letters
dropped.  The vertex group of that presentation shares nothing with
orbit_groupoid's route, a tree on the orbits times K(x)/<F(x)> (see the
constructions module docstring), so it is an independent check.  Each
object group of orbit_groupoid(act) must have the abelian invariants of
the vertex group at its orbit, computed by Smith normal form here and from
the group table by oracle.brute_abelianization there.
"""

import random

from groupoids import (DirectedGraph, PresentedGroupoid, Word,
                       abelian_invariants, alternating_group, cyclic_group,
                       dihedral_group, direct_product_group, object_group,
                       object_orbits, orbit_groupoid, quaternion_group,
                       symmetric_group, vertex_group_presentation)
from groupoids.corpus import (_ActionBuilder, _sign_characters, _subgroups,
                              named_actions, random_actions,
                              random_orbit_instances)
from groupoids.oracle import brute_abelianization


def _orbit_presentation(act):
    """The presented groupoid of X//G, and the vertex of each object."""
    G, sp = act.group, act.space
    vertex = {x: f"[{block[0]}]" for block in object_orbits(act)
              for x in block}
    edge = {}                   # arrow -> the first arrow of its orbit
    for a in sp.arrows:
        if a not in edge and not sp.is_identity_arrow(a):
            edge.update((act.act_arrow[(g, a)], a) for g in G.elements)
    edges = list(dict.fromkeys(edge.values()))
    graph = DirectedGraph(
        dict.fromkeys(vertex.values()), edges,
        {e: vertex[sp.source[e]] for e in edges},
        {e: vertex[sp.target[e]] for e in edges}, name=f"{act.name}-orbits")
    words = set()
    for (v, u), w in sp.compose.items():
        letters = [(edge[a], sign) for a, sign in ((u, 1), (v, 1), (w, -1))
                   if a in edge]
        if letters:
            words.add((tuple(letters), vertex[sp.source[u]]))
    relators = [Word(letters, at, at) for letters, at in sorted(words)]
    return PresentedGroupoid(graph, relators), vertex


def _check_route(act):
    """Compare the routes at every object orbit; return the object groups'
    orders."""
    orb = orbit_groupoid(act)
    pres, vertex = _orbit_presentation(act)
    orders = []
    for x, *_rest in object_orbits(act):
        group = object_group(orb.groupoid, orb.morphism.object_map[x])
        ours = abelian_invariants(vertex_group_presentation(pres, vertex[x]))
        assert (ours.free_rank, ours.torsion) == \
            (0, brute_abelianization(group)), (act.name, x)
        orders.append(group.order)
    return orders


CORPUS = ([act for _name, act in named_actions()] + random_actions()
          + random_orbit_instances())


def test_the_corpus_actions():
    assert len(CORPUS) == 85
    orders = [order for act in CORPUS for order in _check_route(act)]
    assert set(orders) == {1, 2, 3, 4}


def _pieces(seed, count, max_arrows):
    """Seeded item-12-style actions: G transitive on G/H per piece, K
    stabilising a component tree(K/H) x V, with a sign twist of the
    abelian vertex group Z5 half the time it is drawn; each with whether it
    has a twisted piece."""
    rng = random.Random(seed)
    groups = [dihedral_group(4), quaternion_group(), alternating_group(4),
              symmetric_group(4),
              direct_product_group(symmetric_group(3), cyclic_group(2))]
    vertex_groups = [cyclic_group(5, name="V5"),
                     symmetric_group(3, name="VS3"), quaternion_group("VQ8")]
    drawn = []
    while len(drawn) < count:
        G = rng.choice(groups)
        subs = _subgroups(G)
        pieces = []
        for _piece in range(rng.choice((1, 1, 2))):
            h = rng.choice(subs)
            k = rng.choice([k for k in subs if set(h) <= set(k)])
            vg = rng.choice(vertex_groups)
            twists = _sign_characters(G, subs) if vg.order == 5 else []
            chi = rng.choice(twists) if twists and rng.random() < 0.5 \
                else None
            pieces.append((h, k, vg, chi))
        builder = _ActionBuilder(G, pieces)
        if builder.arrow_count() <= max_arrows:
            drawn.append((builder.build(f"piece{len(drawn)}"),
                          any(chi is not None for *_hkv, chi in pieces)))
    return drawn


def test_seeded_pieces_above_the_oracle_caps():
    drawn = _pieces(seed=17, count=40, max_arrows=400)
    actions = [act for act, _twisted in drawn]
    assert sum(twisted for _act, twisted in drawn) == 3
    # 6 to 288 arrows, against the orbit-universal check's 10
    assert [min(len(act.space.arrows) for act in actions),
            max(len(act.space.arrows) for act in actions)] == [6, 288]
    orders = [order for act in actions for order in _check_route(act)]
    assert len(orders) == 52 and max(orders) == 24
