"""Named verification checks over the built-in corpora.

Each check cross-checks a construction against an independent computation
and returns a CheckResult.  A check is declared once, with its name, by
the _check decorator: its body returns the PASS detail or raises _Failed
with the FAIL detail, and any other exception propagates.  Its one
argument is a _Run, the corpus of one run built once: run_all builds one
and shares it, and a check called alone builds its own.  The run also
shares the semidirect products and orbit groupoids of its corpus, each
built once and dropped by its last reader, so none is alive in
abelianization and the checks after it.  No verdict rests on a statement
that ``python -O`` strips, so an optimized run makes the same checks.  The
CLI verify verb runs them all, and the acceptance tests run them one
criterion at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources

from . import corpus, oracle
from .actions import (action_from_object_map, is_free_action,
                      trivial_action, validate_action)
from .catalog import (alternating_group, cyclic_group, dihedral_group,
                      group_isomorphic, groupoid_from_group, quaternion_group,
                      symmetric_group, tree_groupoid, trivial_group)
from .constructions import (generated_wide_subgroupoid, normal_closure,
                            orbit_groupoid, orbit_kernel_generators,
                            quotient_groupoid, regular_cover_orbit_check,
                            restrict_orbit_full_subgroupoid, semidirect_product,
                            tree_orbit_group)
from .core import (GroupoidMorphism, components, direct_product_group,
                   disjoint_union, is_connected, is_covering, is_discrete,
                   is_quotient_morphism, kernel, object_group, quotient_group,
                   search_isomorphism, star, validate_groupoid,
                   validate_morphism)
from .fileformat import parse_text, render_entities
from .oracle import MAX_LATTICE_ARROWS, MAX_SOURCE_ARROWS
from .presented import (GroupPresentation, abelian_invariants,
                        describe_vertex_group, orbit_presentation,
                        symmetric_square_presentation,
                        vertex_group_presentation)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self):
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


class _Failed(Exception):
    """A check's FAIL detail (not a ValueError, which the CLI maps to 3)."""


def _check(name):
    """Turn a body that reads a _Run and returns its PASS detail into the
    check called name."""
    def decorate(body):
        def check(run=None):
            try:
                return CheckResult(name, True,
                                   body(_Run() if run is None else run))
            except _Failed as failed:
                return CheckResult(name, False, str(failed))
        check.__name__ = body.__name__
        return check
    return decorate


class _Run:
    """The inputs of one verify run, built once and read by every check.

    max_arrows=None means no cap; fits applies the cap.  The semidirect
    products of the actions and the orbit groupoids of the orbit actions
    are built on first read and shared too.  Their last reader in
    ALL_CHECKS order (projection-trichotomy, orbit-universal) takes each
    list off the run with _last_read, so each is freed when that check
    returns, before abelianization.  A check that reads one after that,
    alone or in another order, builds it again, so no verdict depends on
    check order.
    """

    def __init__(self, targets=None, max_arrows=None):
        self.max_arrows = max_arrows
        self.named = dict(corpus.named_actions())
        every = list(self.named.values()) + corpus.random_actions()
        self.actions = [a for a in every if self.fits(a.space)]
        self.quotients = [q for q in corpus.random_quotient_instances()
                          if self.fits(q[0])]
        self.orbit_actions = [
            a for a in every + corpus.random_orbit_instances()
            if self.fits(a.space, MAX_SOURCE_ARROWS)]
        self.graphs = dict(corpus.named_graph_actions())
        self.controls = corpus.standard_target_family()
        self.targets = self.controls if targets is None else targets

    def fits(self, g, limit=None):
        """Whether g has at most max_arrows arrows, and at most limit."""
        return all(len(g.arrows) <= cap
                   for cap in (self.max_arrows, limit) if cap is not None)

    @cached_property
    def products(self):
        return [semidirect_product(a) for a in self.actions]

    @cached_property
    def orbits(self):
        return [orbit_groupoid(a) for a in self.orbit_actions]


def _last_read(run, field):
    """run's shared list field, taken off run: the caller is its last
    reader, and the list is freed when the caller returns."""
    built = getattr(run, field)
    del vars(run)[field]
    return built


@_check("corpus-valid")
def check_corpus_valid(run):
    count = 0
    for act in run.actions:
        problems = validate_groupoid(act.space)
        if problems:
            raise _Failed(f"{act.space.name}: {problems[0]}")
        problems = validate_action(act)
        if problems:
            raise _Failed(f"{act.name}: {problems[0]}")
        count += 1
    for (k, _gens) in run.quotients:
        problems = validate_groupoid(k)
        if problems:
            raise _Failed(f"{k.name}: {problems[0]}")
        count += 1
    return f"{count} corpus instances validate"


@_check("semidirect-laws")
def check_semidirect_laws(run):
    checked = 0
    validated = 0
    for act, sd in zip(run.actions, run.products):
        sp, G = act.space, act.group
        e = G.identity
        for g in G.elements:
            for a in sp.arrows:
                y = sp.target[a]
                left = sd.groupoid.compose[(
                    sd.name_of[(sp.identity_of[act.act_obj[(g, y)]], g)],
                    sd.name_of[(a, e)])]
                if left != sd.name_of[(act.act_arrow[(g, a)], g)]:
                    raise _Failed(f"{act.name}: pairing an identity pair with "
                                  f"({a}, 1) is not the twisted arrow")
                x = sp.source[a]
                right = sd.groupoid.compose[(
                    sd.name_of[(a, e)],
                    sd.name_of[(sp.identity_of[x], g)])]
                if right != sd.name_of[(a, g)]:
                    raise _Failed(f"{act.name}: ({a}, 1) + (identity, {g}) "
                                  f"is not ({a}, {g})")
        if len(sd.groupoid.arrows) <= 48:
            problems = validate_groupoid(sd.groupoid)
            if problems:
                raise _Failed(f"{act.name}: {problems[0]}")
            validated += 1
        checked += 1
    return (f"{checked} semidirect products obey both pairing laws; "
            f"{validated} fully validated")


def _projection_iso_on_object_groups(sd):
    G = sd.action.group
    for x in sd.groupoid.objects:
        loops = sd.groupoid.loops(x)
        if len(loops) != G.order:
            return False
        if len({sd.projection.arrow_map[u] for u in loops}) != len(loops):
            return False
    return True


@_check("projection-trichotomy")
def check_trichotomy(run):
    branches = {"quotient": 0, "covering": 0, "object-iso": 0}
    for act, sd in zip(run.actions, _last_read(run, "products")):
        sp = act.space
        q = sd.projection
        if is_quotient_morphism(q) != is_connected(sp):
            raise _Failed(f"{act.name}: quotient-morphism test disagrees "
                          f"with connectedness")
        if is_covering(q) != is_discrete(sp):
            raise _Failed(f"{act.name}: covering test disagrees with "
                          f"discreteness")
        trivial_groups = all(len(sp.loops(x)) == 1 for x in sp.objects)
        block_of = {x: i for i, block in enumerate(components(sp))
                    for x in block}
        fixes_components = all(
            block_of[act.act_obj[(g, x)]] == block_of[x]
            for g in act.group.elements for x in sp.objects)
        if _projection_iso_on_object_groups(sd) != \
                (trivial_groups and fixes_components):
            raise _Failed(f"{act.name}: object-group test disagrees with the "
                          f"trivial-groups and component criterion")
        if is_connected(sp):
            branches["quotient"] += 1
        if is_discrete(sp):
            branches["covering"] += 1
        if trivial_groups and fixes_components:
            branches["object-iso"] += 1
    if min(branches.values()) == 0:
        raise _Failed(f"corpus misses a branch: {branches}")
    return (f"quotient {branches['quotient']}, covering "
            f"{branches['covering']}, object-iso {branches['object-iso']} "
            f"instances agree")


@_check("first-isomorphism")
def check_first_isomorphism(run):
    checked = 0
    for (k, gens) in run.quotients:
        n = normal_closure(k, gens)
        quot = quotient_groupoid(k, n, name=f"{k.name}-mod")
        f = quot.morphism
        if set(kernel(f).arrows) != set(n.arrows):
            raise _Failed(f"{k.name}: kernel differs from the normal closure")
        for a in k.arrows:
            for b in k.arrows:
                same = f.arrow_map[a] == f.arrow_map[b]
                related = any(
                    k.compose[(m, k.compose[(a, nn)])] == b
                    for nn in n.hom(k.source[b], k.source[a])
                    for m in n.hom(k.target[a], k.target[b]))
                if same != related:
                    raise _Failed(
                        f"{k.name}: images of {a} and {b} "
                        f"{'collide' if same else 'differ'} but the arrows "
                        f"are {'not ' if not related else ''}related by the "
                        f"kernel")
        for x in k.objects:
            small = quotient_group(object_group(k, x), n.at(x))
            big = object_group(quot.groupoid, f.object_map[x])
            if not group_isomorphic(small, big):
                raise _Failed(f"{k.name}: object group at {x} does not match "
                              f"the quotient of object groups")
        checked += 1
    return f"{checked} quotients factor correctly"


@_check("normal-closure-minimal")
def check_normal_closure_minimal(run):
    instances = list(run.quotients)
    for name in ("tree-swap", "point-swap", "zmod4-inversion",
                 "trivial-on-z2", "path-reflection-fixed"):
        sd = semidirect_product(run.named[name])
        instances.append((sd.groupoid, sd.groupoid.arrows[-2:]))
    checked = 0
    for (k, gens) in instances:
        if not run.fits(k, MAX_LATTICE_ARROWS):
            continue
        built = set(normal_closure(k, gens).arrows)
        brute = set(oracle.minimal_normal_closure(k, gens))
        if built != brute:
            raise _Failed(f"{k.name}: closure has {len(built)} arrows but "
                          f"the lattice minimum has {len(brute)}")
        checked += 1
    return f"{checked} closures equal the lattice minimum"


@_check("orbit-kernel")
def check_orbit_kernel(run):
    covering = 0
    quotient = 0
    checked = 0
    for act, orb in zip(run.orbit_actions, run.orbits):
        gens = orbit_kernel_generators(act)
        if set(generated_wide_subgroupoid(act.space, gens).arrows) != \
                set(kernel(orb.morphism).arrows):
            raise _Failed(f"{act.name}: the stabilizer differences do not "
                          f"generate the kernel of the orbit morphism")
        if is_free_action(act):
            if not is_covering(orb.morphism):
                raise _Failed(f"{act.name}: free action but the orbit "
                              f"morphism is not a covering")
            covering += 1
        fixed_object = any(
            all(act.act_obj[(g, x)] == x for g in act.group.elements)
            for x in act.space.objects)
        if fixed_object and is_connected(act.space):
            if not is_quotient_morphism(orb.morphism):
                raise _Failed(f"{act.name}: fixed object on a connected "
                              f"groupoid but the orbit morphism is not a "
                              f"quotient morphism")
            quotient += 1
        checked += 1
    if covering == 0 or quotient == 0:
        raise _Failed(f"corpus misses a branch: covering {covering}, "
                      f"quotient {quotient}")
    return (f"{checked} orbit morphisms kill exactly the stabilizer "
            f"differences; {covering} coverings, {quotient} quotient "
            f"morphisms")


@_check("orbit-universal")
def check_universal_property(run):
    checked = 0
    for act, orb in zip(run.orbit_actions, _last_read(run, "orbits")):
        report = oracle.check_universal_property(act, orb.morphism,
                                                 run.targets)
        if not report.ok:
            bad = [f"target {t}: {m} without factorization, {e} with several"
                   for (t, _c, m, e) in report.entries if m or e]
            raise _Failed(f"{act.name}: {bad[0]}")
        checked += 1

    # the negative controls need targets rich enough to expose the planted
    # defects (a two-object target for the padding), so they read the
    # standard family in run.controls, not a user-supplied target list

    # negative control 1: collapsing everything loses factorizations
    z2_space = groupoid_from_group(cyclic_group(2), name="up-z2")
    act = trivial_action(trivial_group(), z2_space, name="up-trivial-act")
    point = groupoid_from_group(trivial_group(), name="up-point")
    collapse = GroupoidMorphism(
        z2_space, point, {z2_space.objects[0]: point.objects[0]},
        {u: point.arrows[0] for u in z2_space.arrows}, name="collapse")
    report = oracle.check_universal_property(act, collapse, run.controls)
    if report.ok:
        raise _Failed("collapsing candidate passed; the check cannot detect "
                      "missing factorizations")

    # negative control 2: a spare object admits several factorizations
    orb = orbit_groupoid(act)
    spare = disjoint_union(orb.groupoid,
                           groupoid_from_group(trivial_group(),
                                               object_name="spare",
                                               name="up-spare"),
                           name="up-padded")
    padded = GroupoidMorphism(z2_space, spare, orb.morphism.object_map,
                              orb.morphism.arrow_map, name="padded")
    problems = validate_morphism(padded)
    if problems:
        raise _Failed(f"padded candidate is not a morphism: {problems[0]}")
    report = oracle.check_universal_property(act, padded, run.controls)
    if report.ok:
        raise _Failed("padded candidate passed; the check cannot detect "
                      "non-unique factorizations")
    return (f"{checked} orbit morphisms factor invariant morphisms uniquely; "
            f"both negative controls fail as they should")


@_check("tree-orbit-groups")
def check_tree_orbit_groups(run):
    expected = {
        "tree-swap": cyclic_group(2),
        "path-reflection": cyclic_group(2),
        "path-reflection-fixed": trivial_group(),
        "threefold-rotation": cyclic_group(3),
        "symmetric-on-tree3": trivial_group(),
    }
    for name, want in expected.items():
        got = tree_orbit_group(run.named[name])
        if not group_isomorphic(got, want):
            raise _Failed(f"{name}: orbit object group is not {want.name}")
        orbit = orbit_groupoid(run.named[name])
        for x in orbit.groupoid.objects:
            if not group_isomorphic(object_group(orbit.groupoid, x), got):
                raise _Failed(f"{name}: orbit object group at {x} is not G/K")
    return (f"{len(expected)} tree actions give the expected orbit object "
            f"groups")


@_check("zmod4-inversion")
def check_zmod4_inversion(run):
    act = run.named["zmod4-inversion"]
    orb = orbit_groupoid(act)
    group = object_group(orb.groupoid, orb.groupoid.objects[0])
    if not group_isomorphic(group, cyclic_group(2)):
        raise _Failed("orbit object group is not Z2")
    ker = kernel(orb.morphism)
    space = act.space
    ident = space.identity_of[space.objects[0]]
    if set(ker.arrows) != {ident, "2"}:
        raise _Failed(f"kernel is {ker.arrows}, expected the identity and 2")
    if not is_quotient_morphism(orb.morphism) or is_covering(orb.morphism):
        raise _Failed("orbit morphism should be a quotient morphism and not "
                      "a covering")
    return ("inverting the 4-element cyclic group halves it: orbit object "
            "group Z2, kernel {0, 2}")


@_check("circle-reflection")
def check_circle_reflection(run):
    pres, _elabel, _vlabel = orbit_presentation(
        run.graphs["circle-reflection"])
    if tuple(pres.graph.vertices) != ("[1]", "[i]", "[-1]") or \
            tuple(pres.graph.edges) != ("[e1]", "[e2]"):
        raise _Failed(f"quotient graph is {pres.graph.vertices} / "
                      f"{pres.graph.edges}")
    if pres.relators:
        raise _Failed("unexpected inverted edge orbits")
    for v in pres.graph.vertices:
        if describe_vertex_group(pres, v) != "trivial":
            raise _Failed(f"vertex group at orbit({v[1:-1]}) is not trivial")
    return ("reflecting the circle leaves a segment: vertex group at "
            "orbit(1): trivial")


@_check("graph-orbit-presentations")
def check_graph_orbit_presentations(run):
    pres, _e, _v = orbit_presentation(run.graphs["antipodal"])
    if len(pres.graph.vertices) != 1 or len(pres.graph.edges) != 1 or \
            pres.relators:
        raise _Failed("antipodal quotient is not a single loop")
    if describe_vertex_group(pres, pres.graph.vertices[0]) != \
            "free of rank 1":
        raise _Failed("antipodal vertex group is not free of rank 1")

    pres, _e, _v = orbit_presentation(run.graphs["edge-inverting-reflection"])
    if len(pres.graph.vertices) != 1 or len(pres.graph.edges) != 2 or \
            len(pres.relators) != 2:
        raise _Failed("edge-inverting quotient should be two squared loops")
    vp = vertex_group_presentation(pres, pres.graph.vertices[0])
    inv = abelian_invariants(vp)
    if inv.free_rank != 0 or inv.torsion != (2, 2):
        raise _Failed(f"edge-inverting invariants are {inv}")
    return ("antipodal map gives a free loop; edge-inverting reflection "
            "gives two squared loops")


_FROZEN_ABELIANIZATIONS = (
    ("Z4", cyclic_group(4), (4,),
     GroupPresentation(("a",), ((("a", 1),) * 4,), name="z4-pres")),
    ("S3", symmetric_group(3), (2,),
     GroupPresentation(("a", "b"),
                       ((("a", 1),) * 3, (("b", 1),) * 2,
                        (("a", 1), ("b", 1), ("a", 1), ("b", 1))),
                       name="s3-pres")),
    ("D4", dihedral_group(4), (2, 2),
     GroupPresentation(("r", "s"),
                       ((("r", 1),) * 4, (("s", 1),) * 2,
                        (("r", 1), ("s", 1), ("r", 1), ("s", 1))),
                       name="d4-pres")),
    ("Q8", quaternion_group(), (2, 2),
     GroupPresentation(("i", "j"),
                       ((("i", 1),) * 4,
                        (("i", 1), ("i", 1), ("j", -1), ("j", -1)),
                        (("i", 1), ("j", 1), ("i", 1), ("j", -1))),
                       name="q8-pres")),
    ("A4", alternating_group(4), (3,),
     GroupPresentation(("a", "b"),
                       ((("a", 1),) * 3, (("b", 1),) * 2,
                        (("a", 1), ("b", 1)) * 3),
                       name="a4-pres")),
)


@_check("abelianization")
def check_abelianization(run):
    for (label, gt, frozen, pres) in _FROZEN_ABELIANIZATIONS:
        brute = oracle.brute_abelianization(gt)
        if brute != frozen:
            raise _Failed(f"{label}: counting route gives {brute}, expected "
                          f"{frozen}")
        square = direct_product_group(gt, gt, name=f"{gt.name}^2")
        diagonal = [f"({h},{gt.inv[h]})" for h in gt.elements]
        folded = oracle.finite_quotient(square, diagonal)
        via_square = oracle.abelian_group_invariants(folded)
        if via_square != frozen:
            raise _Failed(f"{label}: squared-group route gives {via_square}, "
                          f"expected {frozen}")
        inv = abelian_invariants(pres)
        if inv.free_rank != 0 or inv.torsion != frozen:
            raise _Failed(f"{label}: presentation route gives {inv}, "
                          f"expected {frozen}")
    return "commutator, squared-group, and presentation routes agree on " \
        + ", ".join(label for (label, _g, _f, _p) in _FROZEN_ABELIANIZATIONS)


_SQUARE_CASES = (
    ("free-1", GroupPresentation(("a",), ())),
    ("free-2", GroupPresentation(("a", "b"), ())),
    ("free-3", GroupPresentation(("a", "b", "c"), ())),
    ("free-4", GroupPresentation(("a", "b", "c", "d"), ())),
    ("cyclic-3", GroupPresentation(("a",), ((("a", 1),) * 3,))),
    ("torus", GroupPresentation(
        ("a", "b"), ((("a", 1), ("b", 1), ("a", -1), ("b", -1)),))),
    ("klein-bottle", GroupPresentation(
        ("a", "b"), ((("a", 1), ("b", 1), ("a", 1), ("b", -1)),))),
    ("sym-3", GroupPresentation(
        ("a", "b"), ((("a", 1),) * 3, (("b", 1),) * 2,
                     (("a", 1), ("b", 1), ("a", 1), ("b", 1))))),
)


@_check("symmetric-square")
def check_symmetric_square(run):
    for (label, pres) in _SQUARE_CASES:
        want = abelian_invariants(pres)
        got = abelian_invariants(symmetric_square_presentation(pres))
        if want != got:
            raise _Failed(f"{label}: square abelianizes to {got}, the "
                          f"original to {want}")
    brute = oracle.brute_abelianization(symmetric_group(3))
    square = abelian_invariants(
        symmetric_square_presentation(dict(_SQUARE_CASES)["sym-3"]))
    if square.free_rank != 0 or square.torsion != brute:
        raise _Failed("symmetric square of the S3 presentation disagrees "
                      "with the brute abelianization")
    return f"{len(_SQUARE_CASES)} symmetric squares match the abelianization"


def _universal_cover(g, x):
    """The universal cover of the component of g at x and its deck action:
    the tree groupoid on star(g, x), mapped to g by sending a -> b to
    b + (-a), with the object group at x acting by a |-> a + (-k)."""
    cover = tree_groupoid(star(g, x), name=f"{g.name}~{x}")
    p = GroupoidMorphism(
        cover, g, {a: g.target[a] for a in cover.objects},
        {u: g.compose[(cover.target[u], g.inverse_of[cover.source[u]])]
         for u in cover.arrows}, name=f"cover-{g.name}")
    loops = object_group(g, x)
    deck = action_from_object_map(
        loops, cover, {(k, a): g.compose[(a, g.inverse_of[k])]
                       for k in loops.elements for a in cover.objects},
        name=f"deck-{g.name}")
    return p, deck


@_check("regular-covers")
def check_regular_covers(run):
    # the universal covers of Z2 and Z4: the folding and winding covers
    covers = [_universal_cover(groupoid_from_group(cyclic_group(n)), "pt")
              for n in (2, 4)]
    for (p, deck) in covers:
        report = regular_cover_orbit_check(p, deck)
        if not report.ok:
            raise _Failed(f"{p.name}: {report.details[0]}")
    p, _deck = covers[0]
    lazy = trivial_action(cyclic_group(2), p.dom, name="lazy-deck")
    try:
        regular_cover_orbit_check(p, lazy)
    except ValueError:
        pass
    else:
        raise _Failed("a non-free deck action was accepted")
    return ("folding and winding covers are the orbit morphisms of their "
            "deck actions; a non-free deck is rejected")


@_check("restrict-orbit")
def check_restrict_orbit(run):
    act = run.named["path-reflection-fixed"]
    good = restrict_orbit_full_subgroupoid(act, ("b",))
    if not (good.hypothesis_ok and good.embedding_ok):
        raise _Failed(f"restriction to the fixed object failed: "
                      f"{(good.hypothesis_failures or good.details)[0]}")
    bad = restrict_orbit_full_subgroupoid(act, ("a", "c"))
    if bad.hypothesis_ok:
        raise _Failed("object set missing a fixed component passed the "
                      "hypothesis")
    if bad.embedding_ok:
        raise _Failed("embedding succeeded although the hypothesis fails; "
                      "the control case is broken")
    try:
        restrict_orbit_full_subgroupoid(act, ("a",))
    except ValueError:
        pass
    else:
        raise _Failed("a non-invariant object set was accepted")
    full = restrict_orbit_full_subgroupoid(act, ("a", "b", "c"))
    if not (full.hypothesis_ok and full.embedding_ok):
        raise _Failed("restricting to everything failed")
    return ("invariant subsets embed exactly when they meet every fixed "
            "component")


def _data_files():
    root = resources.files("groupoids").joinpath("data")
    return sorted(entry.name for entry in root.iterdir()
                  if entry.name.endswith((".gpd", ".act", ".pres")))


@_check("round-trip")
def check_round_trip(run):
    root = resources.files("groupoids").joinpath("data")
    names = _data_files()
    for fname in names:
        text = root.joinpath(fname).read_text(encoding="utf-8")
        parsed = parse_text(text, path=fname)
        emitted = render_entities(
            [parsed.entities[n] for n in parsed.order])
        reparsed = parse_text(emitted, path=f"{fname}<emitted>")
        again = render_entities(
            [reparsed.entities[n] for n in reparsed.order])
        if emitted != again:
            raise _Failed(f"{fname}: emission is not byte-stable")
        if reparsed.order != parsed.order:
            raise _Failed(f"{fname}: entity list changed on re-parse")
    act = run.named["zmod4-inversion"]
    orb = orbit_groupoid(act)
    emitted = render_entities([orb.groupoid])
    reparsed = parse_text(emitted, path="<orbit>")
    back = reparsed.entities[reparsed.order[0]]
    if search_isomorphism(orb.groupoid, back) is None:
        raise _Failed("emitted orbit groupoid is not isomorphic to the "
                      "original")
    return (f"{len(names)} data files and one computed orbit groupoid "
            f"survive the round trip")


ALL_CHECKS = (
    check_corpus_valid,
    check_semidirect_laws,
    check_trichotomy,
    check_first_isomorphism,
    check_normal_closure_minimal,
    check_orbit_kernel,
    check_universal_property,
    check_tree_orbit_groups,
    check_zmod4_inversion,
    check_circle_reflection,
    check_graph_orbit_presentations,
    check_abelianization,
    check_symmetric_square,
    check_regular_covers,
    check_restrict_orbit,
    check_round_trip,
)


def run_all(targets=None, max_arrows=None):
    run = _Run(targets, max_arrows)
    return [check(run) for check in ALL_CHECKS]
