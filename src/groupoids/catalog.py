"""Stock groups and groupoids used by tests, the CLI corpus, and the docs.

Every connected finite groupoid is a tree groupoid times its object group,
so one builder, ``bundle``, makes all the stock groupoids: a group as a
one-object groupoid, discrete, tree and connected groupoids, each a
choice of blocks and of arrow names.
"""

from __future__ import annotations

from itertools import permutations

from .core import (FiniteGroupoid, GroupTable, direct_product_group,
                   element_order, group_isomorphism, is_abelian_group,
                   object_group)


def trivial_group(name="1"):
    return GroupTable(("e",), {("e", "e"): "e"}, name=name)


def cyclic_group(n, name=None):
    elements = [str(k) for k in range(n)]
    mul = {(str(a), str(b)): str((a + b) % n)
           for a in range(n) for b in range(n)}
    return GroupTable(elements, mul, name=name or f"Z{n}")


def klein_group(name="Z2xZ2"):
    return direct_product_group(cyclic_group(2), cyclic_group(2), name=name)


def _cycle_name(perm):
    seen = set()
    parts = []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            continue
        cycle = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            cycle.append(j)
            seen.add(j)
            j = perm[j]
        parts.append("(" + "".join(str(k) for k in cycle) + ")")
    return "".join(parts) if parts else "e"


def _perm_group(perms, name):
    perms = sorted(perms)
    names = {p: _cycle_name(p) for p in perms}
    elements = [names[p] for p in perms]
    mul = {}
    for p in perms:
        for q in perms:
            # (p*q)(i) = p(q(i)): q acts first
            r = tuple(p[q[i]] for i in range(len(p)))
            mul[(names[p], names[q])] = names[r]
    return GroupTable(elements, mul, name=name)


def symmetric_group(n, name=None):
    return _perm_group(list(permutations(range(n))), name or f"S{n}")


def _is_even(perm):
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return inversions % 2 == 0


def alternating_group(n, name=None):
    perms = [p for p in permutations(range(n)) if _is_even(p)]
    return _perm_group(perms, name or f"A{n}")


def dihedral_group(n, name=None):
    """Symmetries of the n-gon: r of order n, s of order 2, srs = r^-1."""
    def label(k, j):
        rk = "" if k == 0 else ("r" if k == 1 else f"r{k}")
        sj = "s" if j else ""
        return (rk + sj) or "e"
    elements = [label(k, j) for j in (0, 1) for k in range(n)]
    key = {label(k, j): (k, j) for j in (0, 1) for k in range(n)}
    mul = {}
    for a in elements:
        for b in elements:
            k1, j1 = key[a]
            k2, j2 = key[b]
            k = (k1 + (k2 if j1 == 0 else -k2)) % n
            mul[(a, b)] = label(k, (j1 + j2) % 2)
    return GroupTable(elements, mul, name=name or f"D{n}")


def quaternion_group(name="Q8"):
    base = {
        ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1),
        ("1", "k"): ("k", 1),
        ("i", "1"): ("i", 1), ("i", "i"): ("1", -1), ("i", "j"): ("k", 1),
        ("i", "k"): ("j", -1),
        ("j", "1"): ("j", 1), ("j", "i"): ("k", -1), ("j", "j"): ("1", -1),
        ("j", "k"): ("i", 1),
        ("k", "1"): ("k", 1), ("k", "i"): ("j", 1), ("k", "j"): ("i", -1),
        ("k", "k"): ("1", -1),
    }
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def split(u):
        return (u[1:], -1) if u.startswith("-") else (u, 1)

    def join(letter, sign):
        return letter if sign == 1 else f"-{letter}"

    mul = {}
    for a in units:
        for b in units:
            la, sa = split(a)
            lb, sb = split(b)
            letter, sign = base[(la, lb)]
            mul[(a, b)] = join(letter, sa * sb * sign)
    return GroupTable(units, mul, name=name)


def bundle(objects, blocks, arrow, name):
    """The groupoid whose components are the blocks, each a tree groupoid
    on its objects times its vertex group.

    blocks lists (block objects, vertex group vg) pairs.  The arrows x -> y
    of a block are arrow(x, v, y, vg) for v in vg, named once each, and
    arrow(y, w, z, vg) + arrow(x, v, y, vg) = arrow(x, w*v, z, vg).
    Identities come first, in block order, then the other arrows in
    (block, x, v, y) order.
    """
    identity_of = {}
    others = []
    source, target, inverse, compose = {}, {}, {}, {}
    for objs, vg in blocks:
        e = vg.identity
        named = {(x, v, y): arrow(x, v, y, vg)
                for x in objs for v in vg.elements for y in objs}
        identity_of.update((x, named[(x, e, x)]) for x in objs)
        for (x, v, y), u in named.items():
            source[u], target[u] = x, y
            inverse[u] = named[(y, vg.inv[v], x)]
            if x != y or v != e:
                others.append(u)
        for y in objs:
            for w in vg.elements:
                for z in objs:
                    left = named[(y, w, z)]
                    for x in objs:
                        for v in vg.elements:
                            compose[(left, named[(x, v, y)])] = \
                                named[(x, vg.mul[(w, v)], z)]
    return FiniteGroupoid(objects, [*identity_of.values(), *others], source,
                          target, identity_of, inverse, compose, name=name)


def groupoid_from_group(gt, object_name="pt", name=None):
    """A group as a one-object groupoid.

    The identity element becomes the identity arrow id_<object>; every other
    element is the arrow of the same name.
    """
    return bundle((object_name,), [((object_name,), gt)],
                  lambda x, v, _y, vg: f"id_{x}" if v == vg.identity else v,
                  name or f"{gt.name}-gpd")


def discrete_groupoid(objects, name="discrete"):
    objects = tuple(objects)
    one = trivial_group()
    return bundle(objects, [((x,), one) for x in objects],
                  lambda x, _v, _y, _vg: f"id_{x}", name)


def tree_groupoid(objects, name="tree"):
    """The connected groupoid with exactly one arrow between any two objects."""
    objects = tuple(objects)
    return bundle(objects, [(objects, trivial_group())],
                  lambda x, _v, y, _vg: f"id_{x}" if x == y else f"{x}>{y}",
                  name)


def connected_arrow(x, v, y, vertex_group):
    """Name of the arrow (x, v, y) of connected_groupoid: id_x or x:v:y."""
    if x == y and v == vertex_group.identity:
        return f"id_{x}"
    return f"{x}:{v}:{y}"


def connected_groupoid(objects, vertex_group, name=None):
    """Connected groupoid with the given object group at every object.

    Arrows are labelled triples x:v:y; (y,w,z) + (x,v,y) = (x, w*v, z).
    """
    objects = tuple(objects)
    return bundle(objects, [(objects, vertex_group)], connected_arrow,
                  name or f"{vertex_group.name}-bundle")


def group_isomorphic(a, b):
    """Group-table isomorphism.

    Order, commutativity and element orders are compared first.  Groups
    they do not tell apart go to group_isomorphism, so above 64 elements
    (ISO_ARROW_CAP) this raises SizeCapError.
    """
    if a.order != b.order:
        return False
    if is_abelian_group(a) != is_abelian_group(b):
        return False
    if sorted(element_order(a, x) for x in a.elements) != \
            sorted(element_order(b, x) for x in b.elements):
        return False
    return group_isomorphism(a, b) is not None


def group_of_one_object_groupoid(gpd):
    """Read a group table off a one-object groupoid (elements = arrows)."""
    if len(gpd.objects) != 1:
        raise ValueError(f"{gpd.name}: expected exactly one object")
    x = gpd.objects[0]
    gt = object_group(gpd, x)
    gt.name = gpd.name
    return gt
