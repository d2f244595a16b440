"""Acceptance gate: one reported line per headline behavior.

Each test prints PASS or FAIL with its label to the real stdout so the
report survives pytest's capture; the assertions carry the actual checks.
"""

import gc
import sys
import time
import tracemalloc
import weakref
from contextlib import contextmanager
from importlib import resources
from itertools import permutations

import pytest

from groupoids import (AbelianInvariants, GroupPresentation,
                       abelian_invariants, cli, cyclic_group,
                       direct_product_group, object_group, orbit_groupoid,
                       quaternion_group, suite, symmetric_group,
                       symmetric_square_presentation)
from groupoids.corpus import (_one_object_action, named_actions,
                              random_actions, random_orbit_instances,
                              random_quotient_instances)
from groupoids.oracle import (abelian_group_invariants, brute_abelianization,
                              finite_quotient)


@contextmanager
def criterion(label):
    notes = []
    try:
        yield notes
    except BaseException:
        print(f"FAIL {label}", file=sys.__stdout__, flush=True)
        raise
    detail = f": {notes[0]}" if notes else ""
    print(f"PASS {label}{detail}", file=sys.__stdout__, flush=True)


def _data(name):
    return str(resources.files("groupoids").joinpath("data", name))


def _capture(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_circle_mod_reflection(capsys):
    with criterion("circle-mod-reflection") as notes:
        for verb in ("orbit", "presentation"):
            code, out = _capture(capsys,
                                 [verb, _data("circle_reflection.act")])
            assert code == 0
            assert "vertex group at orbit(1): trivial" in out
            assert "vertex group at orbit(-1): trivial" in out
        notes.append("trivial vertex groups at orbit(1) and orbit(-1), "
                     "via both verbs")


def test_symmetric_square_of_wedges():
    with criterion("symmetric-square-wedges") as notes:
        for n in range(1, 5):
            gens = tuple(chr(ord("a") + i) for i in range(n))
            wedge = GroupPresentation(gens, (), name=f"wedge{n}")
            got = abelian_invariants(symmetric_square_presentation(wedge))
            assert got == AbelianInvariants(n, ()), (n, got)
        notes.append("ranks 1-4 with no torsion")


def test_abelianization_routes_agree():
    with criterion("abelianization-routes") as notes:
        for label, gt, frozen, _pres in suite._FROZEN_ABELIANIZATIONS:
            square = direct_product_group(gt, gt, name=f"{label}^2")
            skew = [f"({h},{gt.inv[h]})" for h in gt.elements]
            via_square = abelian_group_invariants(
                finite_quotient(square, skew))
            direct = brute_abelianization(gt)
            assert via_square == direct == frozen, (label, via_square, direct)
        notes.append("skew-diagonal quotient matches the commutator "
                     "quotient on Z4, S3, D4, Q8, A4")


def _permuting_factors(group, perm_of, gt, n):
    """group permuting the n factors of the one-object groupoid of gt^n:
    g sends (x_0, ..., x_{n-1}) to the tuple whose i-th entry is x_j,
    perm_of[g] sending j to i."""
    power, tuples = gt, [(x,) for x in gt.elements]
    for _ in range(n - 1):
        power = direct_product_group(power, gt)
        tuples = [t + (y,) for t in tuples for y in gt.elements]
    name = dict(zip(tuples, power.elements))
    images = {g: {name[t]: name[tuple(t[p.index(i)] for i in range(n))]
                  for t in tuples} for g, p in perm_of.items()}
    return _one_object_action(group, power, images,
                              f"{group.name}-on-{power.name}")


def test_symmetric_powers_through_the_orbit_groupoid():
    # each group fixes the one object, so the orbit group is K/<F>: G^ab
    start = time.perf_counter()
    s3 = symmetric_group(3)
    swap = {"0": (0, 1), "1": (1, 0)}
    # symmetric_group(3) lists its elements in the order of their sorted
    # permutations
    shuffle = dict(zip(s3.elements, sorted(permutations(range(3)))))
    cases = [(cyclic_group(2), swap, gt, 2, frozen)
             for _label, gt, frozen, _pres in suite._FROZEN_ABELIANIZATIONS]
    cases += [(s3, shuffle, gt, 3, frozen) for gt, frozen in (
        (cyclic_group(4), (4,)), (s3, (2,)), (quaternion_group(), (2, 2)))]
    with criterion("symmetric-powers-via-orbit") as notes:
        for group, perm_of, gt, n, frozen in cases:
            act = _permuting_factors(group, perm_of, gt, n)
            tracemalloc.start()
            try:
                orb = orbit_groupoid(act)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            (x,) = orb.groupoid.objects
            got = abelian_group_invariants(object_group(orb.groupoid, x))
            assert got == frozen, (act.name, got)
            assert peak < 8_000_000, (act.name, peak)
        notes.append("Z2 on the squares of Z4, S3, D4, Q8, A4 and S3 on the "
                     "cubes of Z4, S3, Q8 give G^ab")
    assert time.perf_counter() - start < 2


def test_projection_trichotomy():
    with criterion("projection-trichotomy") as notes:
        pool = random_actions()
        assert len(pool) >= 50
        assert all(len(act.space.arrows) <= 12 for act in pool)
        result = suite.check_trichotomy()
        assert result.ok, result.detail
        notes.append(f"{len(pool)} random actions plus the named ones, "
                     "zero counterexamples")


def test_first_isomorphism():
    with criterion("first-isomorphism") as notes:
        pool = random_quotient_instances()
        assert len(pool) >= 20
        result = suite.check_first_isomorphism()
        assert result.ok, result.detail
        notes.append(result.detail)


def test_orbit_kernel_clauses():
    with criterion("orbit-kernel-clauses") as notes:
        result = suite.check_orbit_kernel()
        assert result.ok, result.detail
        trees = suite.check_tree_orbit_groups()
        assert trees.ok, trees.detail
        notes.append(result.detail)


def test_orbit_kernel_check_needs_the_generators(monkeypatch):
    # negative control: with no generators the generated subgroupoid is
    # only the identities, which misses the kernel of zmod4-inversion
    monkeypatch.setattr(suite, "orbit_kernel_generators", lambda act, **_: ())
    assert not suite.check_orbit_kernel().ok


def test_failing_checks_report_one_fail_line(monkeypatch):
    monkeypatch.setattr(suite, "group_isomorphic", lambda *_groups: False)
    monkeypatch.setattr(suite, "validate_morphism", lambda _f: ["planted"])
    lines = [check().line() for check in (
        suite.check_tree_orbit_groups, suite.check_zmod4_inversion,
        suite.check_first_isomorphism, suite.check_universal_property)]
    assert lines == [
        "FAIL tree-orbit-groups: tree-swap: orbit object group is not Z2",
        "FAIL zmod4-inversion: orbit object group is not Z2",
        "FAIL first-isomorphism: q0p0: object group at q0p0x0 does not "
        "match the quotient of object groups",
        "FAIL orbit-universal: padded candidate is not a morphism: planted"]


def test_unexpected_errors_escape_the_checks(monkeypatch):
    def broken(_act):
        raise RuntimeError("broken construction")
    monkeypatch.setattr(suite, "orbit_groupoid", broken)
    with pytest.raises(RuntimeError, match="broken construction"):
        suite.check_zmod4_inversion()
    with pytest.raises(RuntimeError, match="broken construction"):
        suite.run_all(max_arrows=4)


def test_run_all_builds_each_corpus_once(monkeypatch):
    calls = {}

    def counted(name, build):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return build(*args, **kwargs)
        return wrapper

    builders = ("named_actions", "named_graph_actions", "random_actions",
                "random_orbit_instances", "random_quotient_instances",
                "standard_target_family")
    for name in builders:
        monkeypatch.setattr(suite.corpus, name,
                            counted(name, getattr(suite.corpus, name)))
    assert all(r.ok for r in suite.run_all(max_arrows=3))
    assert calls == dict.fromkeys(builders, 1)


def test_each_product_and_orbit_groupoid_is_built_once(monkeypatch):
    built = {"orbit_groupoid": [], "semidirect_product": []}

    def counted(name):
        build = getattr(suite, name)

        def wrapper(act):
            result = build(act)
            built[name].append(weakref.ref(result))
            return result
        monkeypatch.setattr(suite, name, wrapper)

    for name in built:
        counted(name)
    run = suite._Run()
    assert suite.check_orbit_kernel(run).ok
    assert suite.check_universal_property(run).ok
    # the +1 is negative control 2's orbit groupoid
    assert len(built["orbit_groupoid"]) == len(run.orbit_actions) + 1
    assert suite.check_semidirect_laws(run).ok
    assert suite.check_trichotomy(run).ok
    assert len(built["semidirect_product"]) == len(run.actions)
    # their last readers have dropped the shared lists
    gc.collect()
    assert all(ref() is None for refs in built.values() for ref in refs)


@pytest.mark.parametrize("max_arrows", [None, 3])
def test_verify_lines_do_not_depend_on_check_order(max_arrows):
    expected = [r.line() for r in suite.run_all(max_arrows=max_arrows)]
    alone = [check(suite._Run(max_arrows=max_arrows)).line()
             for check in suite.ALL_CHECKS]
    run = suite._Run(max_arrows=max_arrows)
    backwards = [check(run).line() for check in reversed(suite.ALL_CHECKS)]
    assert alone == expected
    assert backwards[::-1] == expected


def test_abelianization_stays_under_half_a_megabyte():
    # the squared-group route once held A4 x A4's 20,736-entry table
    run = suite._Run()
    tracemalloc.start()
    try:
        result = suite.check_abelianization(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ok, result.detail
    assert peak < 500_000, peak


def test_orbit_universal_property():
    with criterion("orbit-universal-property") as notes:
        small = [act for act in list(dict(named_actions()).values())
                 + random_orbit_instances()
                 if len(act.space.arrows) <= 8]
        assert small
        result = suite.check_universal_property()
        assert result.ok, result.detail
        notes.append(result.detail)


def test_regular_covers():
    with criterion("regular-covers") as notes:
        result = suite.check_regular_covers()
        assert result.ok, result.detail
        notes.append(result.detail)


def test_normal_closure_oracle_agreement():
    with criterion("normal-closure-oracle-agreement") as notes:
        result = suite.check_normal_closure_minimal()
        assert result.ok, result.detail
        notes.append(result.detail)


def test_round_trip_and_determinism(capsys):
    with criterion("round-trip-determinism") as notes:
        result = suite.check_round_trip()
        assert result.ok, result.detail
        first = [r.line() for r in suite.run_all()]
        second = [r.line() for r in suite.run_all()]
        assert first == second
        assert all(line.startswith("PASS") for line in first)
        reports = [_capture(capsys, ["orbit", _data("zmod4_inversion.act"),
                                     "--emit", "-"]) for _ in range(2)]
        assert reports[0] == reports[1]
        notes.append(f"{result.detail}; repeated runs are byte-identical")
