"""Deterministic instance corpora for the verification suite and the tests.

Random instances are drawn from seeded generators, so every run sees the
same corpus.  Actions are assembled from coset spaces of small groups: the
objects of each piece form one orbit, and a choice of intermediate subgroup
groups the objects into invariant connected components.  Each component is
a tree on its objects times a chosen vertex group, one ``catalog.bundle``
call builds the space from all of them, and a group element sends the
arrow x:v:y to gx:v:gy, or to gx:v^-1:gy where a sign character is -1.
"""

from __future__ import annotations

import random

from .actions import GroupoidAction, action_from_object_map, trivial_action
from .catalog import (bundle, connected_arrow, connected_groupoid,
                      cyclic_group, discrete_groupoid, groupoid_from_group,
                      klein_group, symmetric_group, tree_groupoid,
                      trivial_group)
from .core import blocks_by, classes, disjoint_union, subgroup_closure
from .presented import DirectedGraph, GraphAction


def standard_target_family():
    """Fixed list of small groupoids used for universal property checks."""
    return [
        groupoid_from_group(trivial_group(), name="T-one"),
        groupoid_from_group(cyclic_group(2), name="T-z2"),
        groupoid_from_group(cyclic_group(3), name="T-z3"),
        groupoid_from_group(symmetric_group(3), name="T-s3"),
        tree_groupoid(("t0", "t1"), name="T-tree2"),
        discrete_groupoid(("d0", "d1"), name="T-disc2"),
    ]


def _object_action(group, space, moves, name):
    """Action from per-element object moves; unlisted objects stay fixed.

    Only works on spaces whose hom-sets are singletons (trees, discrete)."""
    act_obj = {}
    for g in group.elements:
        for x in space.objects:
            act_obj[(g, x)] = moves.get(g, {}).get(x, x)
    return action_from_object_map(group, space, act_obj, name=name)


def _one_object_action(group, gt, images, name):
    """Action on the one-object groupoid of gt; images maps (g, element) to
    an element, with unlisted pairs fixed."""
    space = groupoid_from_group(gt, name=f"{gt.name}-space")
    ident = space.identity_of[space.objects[0]]

    def arrow_of(e):
        return ident if e == gt.identity else e

    act_obj = {(g, space.objects[0]): space.objects[0]
               for g in group.elements}
    act_arrow = {}
    for g in group.elements:
        for e in gt.elements:
            image = images.get(g, {}).get(e, e)
            act_arrow[(g, arrow_of(e))] = arrow_of(image)
    return GroupoidAction(group, space, act_obj, act_arrow, name=name)


def named_actions():
    """Deterministic fixture actions keyed by name, in a stable order."""
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    z4 = cyclic_group(4)
    s3 = symmetric_group(3)
    out = []

    seg = tree_groupoid(("x", "y"), name="seg")
    out.append(("tree-swap", _object_action(
        z2, seg, {"1": {"x": "y", "y": "x"}}, name="tree-swap")))

    path4 = tree_groupoid(("a", "b", "c", "d"), name="path4")
    out.append(("path-reflection", _object_action(
        z2, path4, {"1": {"a": "d", "d": "a", "b": "c", "c": "b"}},
        name="path-reflection")))

    path3 = tree_groupoid(("a", "b", "c"), name="path3")
    out.append(("path-reflection-fixed", _object_action(
        z2, path3, {"1": {"a": "c", "c": "a"}},
        name="path-reflection-fixed")))

    out.append(("zmod4-inversion", _one_object_action(
        z2, z4, {"1": {"1": "3", "3": "1"}}, name="zmod4-inversion")))

    out.append(("trivial-on-z2", trivial_action(
        z2, groupoid_from_group(cyclic_group(2), name="z2-space"),
        name="trivial-on-z2")))

    tri = tree_groupoid(("a", "b", "c"), name="tri")
    out.append(("threefold-rotation", _object_action(
        z3, tri, {"1": {"a": "b", "b": "c", "c": "a"},
                  "2": {"a": "c", "b": "a", "c": "b"}},
        name="threefold-rotation")))

    tri2 = tree_groupoid(("1", "2", "3"), name="tri3")
    moves = {}
    for g in s3.elements:
        if g == s3.identity:
            continue
        perm = _cycle_permutation(g, 3)
        moves[g] = {str(i + 1): str(perm[i] + 1) for i in range(3)}
    out.append(("symmetric-on-tree3", _object_action(
        s3, tri2, moves, name="symmetric-on-tree3")))

    disc4 = discrete_groupoid(("p", "q", "r", "s"), name="disc4")
    kl = klein_group()
    out.append(("klein-on-points", _object_action(
        kl, disc4,
        {"(1,0)": {"p": "q", "q": "p", "r": "s", "s": "r"},
         "(0,1)": {"p": "r", "r": "p", "q": "s", "s": "q"},
         "(1,1)": {"p": "s", "s": "p", "q": "r", "r": "q"}},
        name="klein-on-points")))

    disc2 = discrete_groupoid(("p", "q"), name="disc2")
    out.append(("point-swap", _object_action(
        z2, disc2, {"1": {"p": "q", "q": "p"}}, name="point-swap")))

    conj = {}
    t = "(01)"
    for e in s3.elements:
        conj.setdefault("1", {})[e] = s3.prod(s3.prod(t, e), s3.inv[t])
    out.append(("transposition-conjugation", _one_object_action(
        z2, s3, conj, name="transposition-conjugation")))

    ring4 = discrete_groupoid(("r0", "r1", "r2", "r3"), name="ring4")
    out.append(("rotation-on-points", _object_action(
        z4, ring4,
        {"1": {"r0": "r1", "r1": "r2", "r2": "r3", "r3": "r0"},
         "2": {"r0": "r2", "r1": "r3", "r2": "r0", "r3": "r1"},
         "3": {"r0": "r3", "r1": "r0", "r2": "r1", "r3": "r2"}},
        name="rotation-on-points")))

    return out


def _cycle_permutation(name, n):
    """Decode a permutation from its cycle name, e.g. "(012)" or "(01)"."""
    perm = list(range(n))
    if name == "e":
        return perm
    for part in name.strip(")").split(")"):
        digits = [int(ch) for ch in part.lstrip("(")]
        for i, d in enumerate(digits):
            perm[d] = digits[(i + 1) % len(digits)]
    return perm


def _subgroups(gt):
    """All subgroups (as element tuples) generated by at most two elements.

    For the corpus groups (order at most 8) this is every subgroup."""
    found = {subgroup_closure(gt, (a, b))
             for a in gt.elements for b in gt.elements}
    return sorted(found, key=lambda m: (len(m), [gt.index[x] for x in m]))


def _sign_characters(gt, subgroups):
    """Nontrivial homomorphisms to {+1, -1}, one per index-two subgroup."""
    out = []
    for members in subgroups:
        if len(members) * 2 == gt.order:
            mset = set(members)
            out.append({g: (1 if g in mset else -1) for g in gt.elements})
    return out


class _ActionBuilder:
    """Assembles one corpus action from a drawn configuration."""

    def __init__(self, group, pieces):
        # pieces: list of (H members, K members, vertex group, chi or None)
        self.group = group
        self.pieces = pieces

    def arrow_count(self):
        total = 0
        for (h, k, vg, _chi) in self.pieces:
            n_objects = self.group.order // len(h)
            block_size = len(k) // len(h)
            n_blocks = n_objects // block_size
            total += n_blocks * block_size * block_size * vg.order
        return total

    def build(self, name):
        G = self.group
        objects = []
        move = {}            # (g, object) -> object
        blocks = []          # (block objects, vertex group, chi or None)
        for pi, (h, k, vg, chi) in enumerate(self.pieces):
            # the objects are the left cosets of h, keyed by their first
            # element; one block holds those in one left coset of k
            hfirst = classes(G.elements, lambda g: [G.prod(g, m) for m in h])
            kfirst = classes(G.elements, lambda g: [G.prod(g, m) for m in k])
            label = {g: f"p{pi}o{ci}" for ci, g in
                     enumerate(g for g in G.elements if hfirst[g] == g)}
            objects += label.values()
            move.update({(g, label[c]): label[hfirst[G.prod(g, c)]]
                         for c in label for g in G.elements})
            blocks += [([label[c] for c in cs], vg, chi)
                       for cs in blocks_by(label, kfirst)]
        space = bundle(objects, [(objs, vg) for objs, vg, _chi in blocks],
                       connected_arrow, f"{name}-space")

        act_arrow = {}
        for g in G.elements:
            for objs, vg, chi in blocks:
                flip = chi is not None and chi[g] == -1
                for x in objs:
                    for v in vg.elements:
                        for y in objs:
                            act_arrow[(g, connected_arrow(x, v, y, vg))] = \
                                connected_arrow(move[(g, x)],
                                                vg.inv[v] if flip else v,
                                                move[(g, y)], vg)
        return GroupoidAction(G, space, move, act_arrow, name=name)


def _group_pool(max_order):
    """Acting groups of at most max_order elements, each with its subgroups
    and sign characters."""
    pool = []
    for G in (trivial_group(), cyclic_group(2), cyclic_group(3),
              cyclic_group(4), klein_group(), symmetric_group(3)):
        if G.order <= max_order:
            subs = _subgroups(G)
            pool.append((G, subs, _sign_characters(G, subs)))
    return pool


def _draw_action(rng, pool, vertex_groups, max_arrows, tag):
    for _attempt in range(64):
        G, subs, chars = rng.choice(pool)
        pieces = []
        for _p in range(rng.choice((1, 1, 2))):
            h = rng.choice(subs)
            above = [k for k in subs if set(h) <= set(k)]
            k = rng.choice(above)
            vg = rng.choice(vertex_groups)
            chi = None
            if vg.order == 3 and chars and rng.random() < 0.5:
                chi = rng.choice(chars)
            pieces.append((h, k, vg, chi))
        builder = _ActionBuilder(G, pieces)
        if 0 < builder.arrow_count() <= max_arrows:
            return builder.build(tag)
    # tiny fallback that always fits
    return trivial_action(trivial_group(),
                          discrete_groupoid(("z",), name=f"{tag}-space"),
                          name=tag)


def _draw_actions(seed, count, max_arrows, max_group_order, prefix):
    rng = random.Random(seed)
    pool = _group_pool(max_group_order)
    vertex_groups = [trivial_group(name="V1"), cyclic_group(2, name="V2"),
                     cyclic_group(3, name="V3")]
    return [_draw_action(rng, pool, vertex_groups, max_arrows,
                         f"{prefix}{i}") for i in range(count)]


def random_actions(seed=7, count=56, max_arrows=12):
    """Seeded general actions for the validator and semidirect checks."""
    return _draw_actions(seed, count, max_arrows, 6, "rand")


def random_orbit_instances(seed=11, count=18, max_arrows=8):
    """Seeded small actions safe for full orbit and universal property runs."""
    return _draw_actions(seed, count, max_arrows, 4, "orb")


def random_quotient_instances(seed=23, count=22, max_arrows=20):
    """Seeded (groupoid, generating arrows) pairs for quotient checks.

    The generating sets are arbitrary arrow subsets; the caller takes the
    normal closure.  An empty set is drawn sometimes on purpose."""
    rng = random.Random(seed)
    out = []
    vg_pool = [trivial_group(name="V1"), cyclic_group(2, name="V2"),
               cyclic_group(3, name="V3"), klein_group(name="V4")]
    for i in range(count):
        for _attempt in range(64):
            n_pieces = rng.choice((1, 1, 2))
            pieces = []
            total = 0
            for p in range(n_pieces):
                vg = rng.choice(vg_pool)
                width = rng.choice((1, 1, 2))
                objs = tuple(f"q{i}p{p}x{j}" for j in range(width))
                pieces.append(connected_groupoid(objs, vg,
                                                 name=f"q{i}p{p}"))
                total += width * width * vg.order
            if total > max_arrows:
                continue
            k = pieces[0]
            for extra in pieces[1:]:
                k = disjoint_union(k, extra, name=f"q{i}")
            non_identity = [u for u in k.arrows if not k.is_identity_arrow(u)]
            take = rng.randrange(0, min(3, len(non_identity) + 1)) \
                if non_identity else 0
            gens = rng.sample(non_identity, take) if take else []
            gens.sort(key=k.arrow_index.__getitem__)
            out.append((k, tuple(gens)))
            break
    return out


def named_graph_actions():
    """Deterministic graph actions, keyed by name, in a stable order."""
    z2 = cyclic_group(2)
    out = []

    circle4 = DirectedGraph(
        ("1", "i", "-1", "-i"), ("e1", "e2", "e3", "e4"),
        {"e1": "1", "e2": "i", "e3": "-1", "e4": "-i"},
        {"e1": "i", "e2": "-1", "e3": "-i", "e4": "1"},
        name="circle4")
    conj = GraphAction(
        z2, circle4,
        {("0", v): v for v in circle4.vertices} | {
            ("1", "1"): "1", ("1", "i"): "-i",
            ("1", "-1"): "-1", ("1", "-i"): "i"},
        {("0", e): e for e in circle4.edges} | {
            ("1", "e1"): "-e4", ("1", "e2"): "-e3",
            ("1", "e3"): "-e2", ("1", "e4"): "-e1"},
        name="circle-reflection")
    out.append(("circle-reflection", conj))

    circle2 = DirectedGraph(
        ("1", "-1"), ("a", "b"),
        {"a": "1", "b": "-1"}, {"a": "-1", "b": "1"}, name="circle2")
    out.append(("antipodal", GraphAction(
        z2, circle2,
        {("0", "1"): "1", ("0", "-1"): "-1",
         ("1", "1"): "-1", ("1", "-1"): "1"},
        {("0", "a"): "a", ("0", "b"): "b",
         ("1", "a"): "b", ("1", "b"): "a"},
        name="antipodal")))

    flip = DirectedGraph(
        ("1", "-1"), ("a", "b"),
        {"a": "1", "b": "-1"}, {"a": "-1", "b": "1"}, name="circle2f")
    out.append(("edge-inverting-reflection", GraphAction(
        z2, flip,
        {("0", "1"): "1", ("0", "-1"): "-1",
         ("1", "1"): "-1", ("1", "-1"): "1"},
        {("0", "a"): "a", ("0", "b"): "b",
         ("1", "a"): "-a", ("1", "b"): "-b"},
        name="edge-inverting-reflection")))

    return out
