"""Brute-force verifiers used to cross-check the constructions.

Everything here recomputes from first principles: morphism enumeration by
backtracking, abelian invariants by splitting off cyclic summands of maximal
order, and every closure (wide subgroupoids, normal closures of subgroups,
the derived subgroup) by one naive fixpoint, _fixpoint, that repeats whole
passes of a rule until a pass adds nothing.  None of it calls the
construction code it is meant to check.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .core import (GroupoidMorphism, SizeCapError, is_abelian_group,
                   quotient_group, validate_morphism)

MAX_SOURCE_ARROWS = 10
MAX_TARGET_ARROWS = 8
MAX_LATTICE_ARROWS = 24
MAX_GROUP_ORDER = 1000


def _maps(dom, cod):
    """Every morphism dom -> cod as an (object map, arrow map) pair of dicts.

    Backtracking over object maps and arrow maps; identities are forced, and
    each non-identity arrow is assigned together with its inverse, when the
    first of the two comes up in dom.arrows.  A composition triple is tested
    once, at the step that assigns the last of its three arrows, which is
    the first step at which it can fail.  Capped at MAX_SOURCE_ARROWS and
    MAX_TARGET_ARROWS.
    """
    if len(dom.arrows) > MAX_SOURCE_ARROWS:
        raise SizeCapError(
            f"morphism enumeration capped at {MAX_SOURCE_ARROWS} source arrows")
    if len(cod.arrows) > MAX_TARGET_ARROWS:
        raise SizeCapError(
            f"morphism enumeration capped at {MAX_TARGET_ARROWS} target arrows")

    # step k assigns firsts[k] and its inverse; identities come before
    firsts = []
    step = dict.fromkeys(dom.identity_of.values(), -1)
    for a in dom.arrows:
        if a not in step:
            step[a] = step[dom.inverse_of[a]] = len(firsts)
            firsts.append(a)
    # a triple through an identity, or composing to one, holds under every
    # map built here: it sends each arrow between the images of its ends,
    # identities to identities and inverses to inverses
    filed = [[] for _ in firsts]
    for (v, u), w in dom.compose.items():
        steps = (step[v], step[u], step[w])
        if min(steps) >= 0:
            filed[max(steps)].append((v, u, w))
    compose = cod.compose

    for images in itertools.product(cod.objects, repeat=len(dom.objects)):
        object_map = dict(zip(dom.objects, images))
        arrow_map = {dom.identity_of[x]: cod.identity_of[object_map[x]]
                     for x in dom.objects}
        found = []

        def extend(k):
            if k == len(firsts):
                found.append((dict(object_map), dict(arrow_map)))
                return
            a = firsts[k]
            partner = dom.inverse_of[a]
            x = object_map[dom.source[a]]
            y = object_map[dom.target[a]]
            for b in cod.hom(x, y):
                if partner == a and cod.inverse_of[b] != b:
                    continue
                arrow_map[a] = b
                if partner != a:
                    arrow_map[partner] = cod.inverse_of[b]
                for (v, u, w) in filed[k]:
                    if compose[(arrow_map[v], arrow_map[u])] != arrow_map[w]:
                        break
                else:
                    extend(k + 1)
                del arrow_map[a]
                if partner != a:
                    del arrow_map[partner]

        extend(0)
        yield from found


def enumerate_morphisms(dom, cod):
    """All morphisms dom -> cod, in deterministic order, named hom0, hom1,
    ...  Capped at MAX_SOURCE_ARROWS and MAX_TARGET_ARROWS."""
    return [GroupoidMorphism(dom, cod, object_map, arrow_map, name=f"hom{i}")
            for i, (object_map, arrow_map) in enumerate(_maps(dom, cod))]


def _moves(act):
    """The pairs (x, g·x) and (a, g·a) with g·x != x and g·a != a.

    Two lists, of object pairs and of arrow pairs, each pair listed once, in
    the order of act.group.elements and then of the space's objects or
    arrows.  A map out of act.space is constant on orbits exactly when it
    agrees on both sides of every pair.
    """
    G, sp = act.group, act.space
    objects = {(x, act.act_obj[(g, x)]): None
               for g in G.elements for x in sp.objects}
    arrows = {(a, act.act_arrow[(g, a)]): None
              for g in G.elements for a in sp.arrows}
    return ([(x, y) for (x, y) in objects if x != y],
            [(a, b) for (a, b) in arrows if a != b])


def _invariant(moves, object_map, arrow_map):
    """Whether the maps agree on both sides of every pair in moves."""
    object_moves, arrow_moves = moves
    for (x, y) in object_moves:
        if object_map[x] != object_map[y]:
            return False
    for (a, b) in arrow_moves:
        if arrow_map[a] != arrow_map[b]:
            return False
    return True


def _constant_on_orbits(act, f):
    """Whether f, a morphism out of act.space, is constant on orbits."""
    return _invariant(_moves(act), f.object_map, f.arrow_map)


def invariant_morphisms(act, cod):
    """Morphisms from the acted-on groupoid that are constant on orbits."""
    moves = _moves(act)
    return [f for f in enumerate_morphisms(act.space, cod)
            if _invariant(moves, f.object_map, f.arrow_map)]


@dataclass
class UniversalPropertyReport:
    """Per-target factorization counts for a candidate orbit morphism."""

    # (target name, invariant morphism count, existence failures,
    #  uniqueness failures) per target
    entries: tuple

    @property
    def ok(self):
        return all(e == 0 and u == 0 for (_n, _c, e, u) in self.entries)


def check_universal_property(act, candidate, targets):
    """Verify the candidate factors invariant morphisms uniquely.

    For every target and every morphism from the acted-on groupoid that is
    constant on orbits, exactly one morphism from the candidate's codomain
    must compose with the candidate to give it.  The candidate itself must
    be a valid, invariant morphism; that is a precondition, not a finding.
    Both sides are compared as raw maps from _maps, with no morphism
    objects built.
    """
    problems = validate_morphism(candidate)
    if problems:
        raise ValueError(f"{candidate.name}: not a morphism: {problems[0]}")
    if candidate.dom is not act.space:
        raise ValueError(f"{candidate.name}: domain is not the acted-on groupoid")
    if not _constant_on_orbits(act, candidate):
        raise ValueError(f"{candidate.name}: not constant on orbits")

    moves = _moves(act)
    objects, arrows = act.space.objects, act.space.arrows
    # where the candidate sends them, in the same order
    images = ([candidate.object_map[x] for x in objects],
              [candidate.arrow_map[a] for a in arrows])
    entries = []
    for cod in targets:
        composites = Counter(_key(images, maps)
                             for maps in _maps(candidate.cod, cod))
        hits = [composites[_key((objects, arrows), maps)]
                for maps in _maps(act.space, cod)
                if _invariant(moves, *maps)]
        entries.append((cod.name, len(hits), hits.count(0),
                        sum(1 for h in hits if h > 1)))
    return UniversalPropertyReport(tuple(entries))


def _key(points, maps):
    """The images under maps of the objects and arrows listed in points."""
    (objects, arrows), (object_map, arrow_map) = points, maps
    return (tuple(map(object_map.__getitem__, objects)),
            tuple(map(arrow_map.__getitem__, arrows)))


def _fixpoint(members, forced):
    """Least superset of members to which forced(members) adds nothing.

    Naive on purpose, and local to the oracle: whole passes of the rule
    until a pass adds nothing, not the construction code's worklist.
    """
    members = set(members)
    while True:
        fresh = {x for x in forced(members) if x not in members}
        if not fresh:
            return frozenset(members)
        members |= fresh


def _wide_rule(g, after):
    """The inverses and composites an arrow set of g forces.

    after[v] lists the pairs (u, v + u) of g's composition table.
    """
    return lambda s: itertools.chain(
        (g.inverse_of[u] for u in s),
        (w for v in s for (u, w) in after[v] if u in s))


def _product_rule(gt):
    """The products a set of group elements forces, generated lazily."""
    return lambda s: (gt.prod(a, b) for a in s for b in s)


def wide_subgroupoid_lattice(g):
    """Arrow sets of all wide subgroupoids, by breadth-first generation.

    Starts from the discrete one and grows by a single generator at a time;
    returns a list of frozensets in discovery order.  Capped at
    MAX_LATTICE_ARROWS ambient arrows.

    Growing a member by a skips the arrows c + a + d, for c and d in the
    member, and their inverses: they grow it to the same member as a.  Such
    an x lies in the closure of the member and a, and a = -c + x - d lies in
    the closure of the member and x; a closure holds x exactly when it holds
    -x.  So every skipped growth gives a member already seen, and the
    discovery order is that of the full search.
    """
    if len(g.arrows) > MAX_LATTICE_ARROWS:
        raise SizeCapError(
            f"subgroupoid lattice capped at {MAX_LATTICE_ARROWS} arrows")
    # after[v] lists (u, v + u) and before[u] lists (v, v + u)
    after = {v: [] for v in g.arrows}
    before = {u: [] for u in g.arrows}
    for (v, u), w in g.compose.items():
        after[v].append((u, w))
        before[u].append((v, w))
    rule = _wide_rule(g, after)
    base = _fixpoint(g.identity_of.values(), rule)
    seen = {base}
    order = [base]
    queue = [base]
    while queue:
        current = queue.pop(0)
        done = set()
        for a in g.arrows:
            if a in current or a in done:
                continue
            grown = _fixpoint(current | {a}, rule)
            if grown not in seen:
                seen.add(grown)
                order.append(grown)
                queue.append(grown)
            for ad in (w for (d, w) in after[a] if d in current):
                for (c, x) in before[ad]:
                    if c in current:
                        done.add(x)
                        done.add(g.inverse_of[x])
    return order


def minimal_normal_closure(g, arrows):
    """Intersection of every normal wide subgroupoid containing the arrows.

    Independent route to the normal closure: enumerate the whole lattice,
    keep the normal members that contain the generating set, intersect.
    """
    wanted = set(arrows)
    # (loop h, its conjugate a + h - a): a member is normal when the
    # conjugates it forces are already in it
    conjugates = [(h, g.compose[(g.compose[(a, h)], g.inverse_of[a])])
                  for a in g.arrows for h in g.loops(g.source[a])]
    candidates = [s for s in wide_subgroupoid_lattice(g) if wanted <= s and
                  all(c in s for (h, c) in conjugates if h in s)]
    if not candidates:
        raise ValueError(f"{g.name}: no normal subgroupoid contains the set")
    return frozenset.intersection(*candidates)


def group_normal_closure(gt, elements):
    """Elements of the normal closure of a subset, in element order.

    The product closure of the conjugates of the subset and the identity: a
    set closed under conjugation generates a normal subgroup.
    """
    if gt.order > MAX_GROUP_ORDER:
        raise SizeCapError(f"group operations capped at order {MAX_GROUP_ORDER}")
    members = _fixpoint(
        (gt.prod(gt.prod(g, x), gt.inv[g])
         for g in gt.elements for x in (gt.identity, *elements)),
        _product_rule(gt))
    return tuple(x for x in gt.elements if x in members)


def finite_quotient(gt, elements):
    """Quotient of a group by the normal closure of the given elements."""
    members = group_normal_closure(gt, elements)
    return quotient_group(gt, members, name=f"{gt.name}/<<S>>")


def _order(gt, x, inside):
    """Least k >= 1 with x^k in inside."""
    k = 1
    y = x
    while y not in inside:
        y = gt.prod(y, x)
        k += 1
    return k


def _invariants(gt, inside):
    """Invariant factors of the abelian quotient of gt by the subgroup inside.

    A cyclic subgroup of maximal order is a direct summand of a finite
    abelian group, so its order is the largest invariant factor and the
    rest are those of the quotient by it: record the largest order modulo
    inside, add that element to inside, and repeat until every order is 1.
    """
    factors = []
    while True:
        orders = {x: _order(gt, x, inside) for x in gt.elements}
        x = max(gt.elements, key=orders.get)
        if orders[x] == 1:
            return tuple(reversed(factors))
        factors.append(orders[x])
        inside = _fixpoint(inside | {x}, _product_rule(gt))


def abelian_group_invariants(gt):
    """Invariant factors of an abelian group table, by splitting off cyclic
    summands of maximal order."""
    if gt.order > MAX_GROUP_ORDER:
        raise SizeCapError(f"group operations capped at order {MAX_GROUP_ORDER}")
    if not is_abelian_group(gt):
        raise ValueError(f"{gt.name}: not abelian")
    return _invariants(gt, frozenset({gt.identity}))


def brute_abelianization(gt):
    """Invariant factors of the abelianization, from scratch.

    The commutator subgroup is the plain product closure of all commutators
    (the set of commutators is closed under conjugation and inversion), and
    the quotient by it is split into cyclic summands as in
    abelian_group_invariants.
    """
    if gt.order > MAX_GROUP_ORDER:
        raise SizeCapError(f"group operations capped at order {MAX_GROUP_ORDER}")
    derived = _fixpoint(
        (gt.prod(gt.prod(a, b), gt.prod(gt.inv[a], gt.inv[b]))
         for a in gt.elements for b in gt.elements),
        _product_rule(gt))
    return _invariants(gt, derived)
