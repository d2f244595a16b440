import os
import re
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import groupoids
from groupoids import cli, cyclic_group, groupoid_from_group, parse_text
from groupoids import presented, render_entities
from groupoids.corpus import (named_actions, random_actions,
                              random_quotient_instances)


def _data(name):
    return str(resources.files("groupoids").joinpath("data", name))


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_semidirect_verb(capsys):
    code, out, _err = _run(capsys, "semidirect", _data("tree_swap.act"))
    assert code == 0
    assert "semidirect product segxZ2-gpd: 2 objects, 8 arrows" in out
    assert "projection is a fibration" in out
    assert "projection is a quotient morphism" in out


def test_orbit_verb_on_a_groupoid_action(capsys):
    code, out, _err = _run(capsys, "orbit", _data("zmod4_inversion.act"))
    assert code == 0
    assert "orbit groupoid Z4-space//Z2-gpd: 1 objects, 2 arrows" in out
    assert "object group at orbit(pt): order 2" in out
    assert "orbit morphism is a fibration" in out
    assert "orbit morphism is a quotient morphism" in out


def test_orbit_verb_on_a_graph_action(capsys):
    code, out, _err = _run(capsys, "orbit", _data("circle_reflection.act"))
    assert code == 0
    assert "vertex group at orbit(1): trivial" in out
    assert "vertex group at orbit(-1): trivial" in out


def test_the_tour_graph_action_is_validated_once(monkeypatch, capsys):
    runs = []
    body = presented._graph_action_problems
    monkeypatch.setattr(presented, "_graph_action_problems",
                        lambda act: (runs.append(act.name), body(act))[1])
    for verb in ("orbit", "presentation"):
        runs.clear()
        code, _out, _err = _run(capsys, verb, _data("circle_reflection.act"))
        # the parser's check serves orbit_presentation too
        assert (code, runs) == (0, ["circle-reflection"]), verb


def test_presentation_verb_with_base(capsys):
    code, out, _err = _run(capsys, "presentation",
                           _data("circle_reflection.act"), "--base=-i")
    assert code == 0
    assert "orbit graph of circle-reflection: 3 vertices, 2 edges, 0 relators" \
        in out
    assert out.count("vertex group") == 1
    assert "vertex group at orbit(i): trivial" in out
    code, _out, err = _run(capsys, "presentation",
                           _data("circle_reflection.act"), "--base", "zzz")
    assert code == 3
    assert "unknown vertex zzz" in err


def test_quotient_and_normal_closure_verbs(tmp_path, capsys):
    z4 = tmp_path / "z4.gpd"
    z4.write_text(render_entities(
        [groupoid_from_group(cyclic_group(4), name="z4")]), encoding="utf-8")
    code, out, _err = _run(capsys, "quotient", str(z4), "--arrows", "2")
    assert code == 0
    assert "normal closure of 1 arrows: 2 arrows" in out
    assert "quotient z4/N2: 1 objects, 2 arrows" in out

    code, out, _err = _run(capsys, "normal-closure", str(z4), "--arrows", "1")
    assert code == 0
    assert "normal closure of 1 arrows in z4: 4 arrows" in out
    assert "arrows: id_pt 1 2 3" in out

    code, _out, err = _run(capsys, "quotient", str(z4), "--arrows", "nope")
    assert code == 3
    assert "z4: unknown arrow nope" in err


def test_abelianize_verb(capsys):
    code, out, _err = _run(capsys, "abelianize", _data("s3.pres"))
    assert code == 0
    assert "abelian invariants of s3: rank 0, torsion 2" in out


def test_symmetric_square_verb(capsys):
    code, out, _err = _run(capsys, "symmetric-square", _data("f2.pres"))
    assert code == 0
    assert "symmetric square f2-sym2: 4 generators, 6 relators" in out
    assert "abelian invariants: rank 2" in out
    assert "agreement: yes" in out


_HOSTILE = """presentation hostile
generators a b c d e f g h
relator -a b b b b c c c c d -e -f -f -g -g -g -h -h -h -h
relator a -b -b -b -b c c c c d d d d d e e e e -f -g h
relator a a a -b -b -b -b -b -c d d d d -e -e -e -e -f -f -f -f -h -h
relator a a a a b b b -c -c -d -d -d -d e -f -f -f -f g g g -h -h -h -h
relator b b b b -c -c d d d d e e f f f g g g g -h -h
relator a b -c -d -e -e -e -e -f -f -g -g -g -g h h h h
"""


def test_smith_normal_form_finishes_on_coefficient_explosion(tmp_path):
    # a relation matrix prone to coefficient growth; the subprocess timeout
    # turns a hang into a failure
    path = tmp_path / "hostile.pres"
    path.write_text(_HOSTILE, encoding="utf-8")
    env = dict(os.environ,
               PYTHONPATH=str(Path(groupoids.__file__).parents[1]))
    for verb, wanted in (("abelianize", "abelian invariants of hostile: "
                                        "rank 2\n"),
                         ("symmetric-square", "agreement: yes\n")):
        done = subprocess.run(
            [sys.executable, "-m", "groupoids", verb, str(path)],
            capture_output=True, text=True, env=env, timeout=20)
        assert done.returncode == 0, done.stderr
        assert wanted in done.stdout, verb
    assert "abelian invariants: rank 2\n" in done.stdout


_PLANTED_POSTCONDITION_FAILURE = """
import sys
import groupoids.constructions as c
from groupoids import cli
c.is_fibration = lambda *_args: False
sys.exit(cli.main(["semidirect", sys.argv[1]]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_a_failed_postcondition_exits_4(flags):
    # a bug in the package, not in the input: one stderr line, no traceback
    done = subprocess.run(
        [sys.executable, *flags, "-c", _PLANTED_POSTCONDITION_FAILURE,
         _data("tree_swap.act")], capture_output=True, text=True, timeout=60,
        env=dict(os.environ,
                 PYTHONPATH=str(Path(groupoids.__file__).parents[1])))
    assert (done.returncode, done.stdout, done.stderr) == (
        4, "", "internal error: proj-segxZ2-gpd is not a fibration\n")


def test_check_regular_cover_verb(capsys):
    code, out, _err = _run(capsys, "check-regular-cover",
                           _data("folding_cover.gpd"))
    assert code == 0
    assert "orbit groupoid of the deck action matches the target" in out


def test_check_regular_cover_failure_exits_1(tmp_path, capsys):
    # a trivial deck group passes the preconditions but cannot identify the
    # two-object cover with the one-object base
    with open(_data("folding_cover.gpd"), encoding="utf-8") as handle:
        text = handle.read()
    text += "\ngroupoid one\nobjects pt\n\naction lazy on seg by one\n"
    bad = tmp_path / "lazy.gpd"
    bad.write_text(text, encoding="utf-8")
    code, out, _err = _run(capsys, "check-regular-cover", str(bad),
                           "--action", "lazy")
    assert code == 1
    assert out.splitlines() == [
        "induced map is not an isomorphism",
        "object group at pt does not match the semidirect object group at x",
        "object group at pt does not match the semidirect object group at y",
    ]


def test_restrict_orbit_verb(tmp_path, capsys):
    act = dict(named_actions())["path-reflection-fixed"]
    path = tmp_path / "reflect.act"
    path.write_text(render_entities([act]), encoding="utf-8")
    code, out, _err = _run(capsys, "restrict-orbit", str(path),
                           "--objects", "b")
    assert code == 0
    assert "hypothesis holds" in out

    code, out, _err = _run(capsys, "restrict-orbit", str(path),
                           "--objects", "a,c")
    assert code == 1
    assert out.splitlines() == [
        "object set misses a fixed component of 1: {b}",
        "canonical map not injective on arrows",
    ]

    code, _out, err = _run(capsys, "restrict-orbit", str(path),
                           "--objects", "a")
    assert code == 3
    assert "not invariant" in err


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.gpd"
    bad.write_text("groupoid g\nobjects x\narrow a : x -> z\n",
                   encoding="utf-8")
    code, out, err = _run(capsys, "orbit", str(bad))
    assert code == 2
    assert not out
    assert f"{bad}:3:1: unknown object z" in err


def test_action_on_a_graph_with_relators_exits_2(tmp_path, capsys):
    # the orbit presentation would drop the relator e e and report a free
    # vertex group, where the answer is Z2
    path = tmp_path / "loop.act"
    path.write_text("graph loop\nvertex v\nedge e : v -> v\nrelator e e\n\n"
                    "groupoid z2\nobjects pt\narrow t : pt -> pt\n"
                    "inverse t t\n\naction a on loop by z2\n",
                    encoding="utf-8")
    code, out, err = _run(capsys, "presentation", str(path))
    assert code == 2
    assert not out
    assert err == (f"{path}:11:1: graph loop has relators; an action needs "
                   f"a graph without relators\n")


def test_missing_input_exits_2_with_one_line(tmp_path, capsys):
    missing = tmp_path / "missing.act"
    for argv in (["orbit", str(missing)],
                 ["verify", "--targets", str(missing)]):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert not out
        assert err.startswith(f"{missing}: ")
        assert err.count("\n") == 1


def test_non_utf8_input_exits_2_with_one_line(tmp_path, capsys):
    bad = tmp_path / "latin1.gpd"
    bad.write_bytes(b"groupoid g\nobjects caf\xe9\n")
    code, out, err = _run(capsys, "orbit", str(bad))
    assert code == 2
    assert not out
    assert err.startswith(f"{bad}: not UTF-8 text")
    assert err.count("\n") == 1


def test_unwritable_emit_path_exits_2_before_the_report(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.gpd"
    code, out, err = _run(capsys, "semidirect", _data("tree_swap.act"),
                          "--emit", str(target))
    assert code == 2
    assert not out
    assert err.startswith(f"{target}: ")
    assert err.count("\n") == 1


def test_unemittable_result_exits_3_without_output(tmp_path, capsys):
    # the orbit morphism is named orbit-<action>, so it collides with a
    # groupoid of that name
    path = tmp_path / "collide.act"
    path.write_text("groupoid orbit-s\nobjects pt\n\ngroupoid z1\n"
                    "objects pt\n\naction s on orbit-s by z1\n",
                    encoding="utf-8")
    target = tmp_path / "out.gpd"
    for emit in ("-", str(target)):
        code, out, err = _run(capsys, "orbit", str(path), "--emit", emit)
        assert code == 3
        assert not out
        assert err == "two entities would be emitted as orbit-s\n"
    assert not target.exists()


_MINUS_NAMES = """groupoid seg
objects -x y
arrow -a : -x -> y
arrow -b : y -> -x
inverse -a -b

groupoid Z2
objects pt
arrow 1 : pt -> pt
inverse 1 1

action swap on seg by Z2
obj 1 : -x -> y
obj 1 : y -> -x
arr 1 : -a -> -b
arr 1 : -b -> -a
"""


def test_list_options_starting_with_minus_need_the_equals_form(tmp_path,
                                                               capsys):
    path = tmp_path / "minus.act"
    path.write_text(_MINUS_NAMES, encoding="utf-8")
    seg = ["--groupoid", "seg"]
    for verb, pick, flag, names, report in (
            ("normal-closure", seg, "--arrows", "-a",
             "normal closure of 1 arrows in seg: 4 arrows"),
            ("quotient", seg, "--arrows", "-a", "quotient seg/N4: 1 objects"),
            ("restrict-orbit", [], "--objects", "-x,y", "hypothesis holds")):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([verb, str(path), *pick, flag, names])
        assert exit_info.value.code == 2
        assert f"argument {flag}: expected one argument" in \
            capsys.readouterr().err
        code, out, _err = _run(capsys, verb, str(path), *pick,
                               f"{flag}={names}")
        assert code == 0
        assert report in out, verb
    for verb, flag in (("quotient", "--arrows"),
                       ("restrict-orbit", "--objects")):
        with pytest.raises(SystemExit):
            cli.main([verb, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"write {flag}=LIST when LIST starts with -" in help_text
        assert "a name holding a comma cannot be listed" in help_text


def test_semidirect_names_with_commas_stay_distinct(tmp_path, capsys):
    # (u, "v,w") and ("u,v", w) would both be named "(u,v,w)"
    path = tmp_path / "commas.act"
    path.write_text("groupoid Z3c\nobjects x\narrow u : x -> x\n"
                    "arrow u,v : x -> x\ninverse u u,v\ncompose u u = u,v\n"
                    "compose u,v u,v = u\n\n"
                    "groupoid G3\nobjects pt\narrow w : pt -> pt\n"
                    "arrow v,w : pt -> pt\ninverse w v,w\ncompose w w = v,w\n"
                    "compose v,w v,w = w\n\naction triv on Z3c by G3\n",
                    encoding="utf-8")
    code, out, _err = _run(capsys, "semidirect", str(path))
    assert code == 0
    assert "semidirect product Z3cxG3: 1 objects, 9 arrows" in out
    code, out, _err = _run(capsys, "orbit", str(path))
    assert code == 0
    assert "object group at orbit(x): order 3" in out
    code, out, _err = _run(capsys, "semidirect", str(path), "--emit", "-")
    assert code == 0
    product = parse_text(out).get("Z3cxG3")
    assert "(u,v,w)" in product.arrow_index
    assert "(u,v,w)'" in product.arrow_index
    assert len(product.arrows) == 9


def test_readme_tour_is_byte_exact(monkeypatch, capsys):
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```\n\$ groupoids ([^\n]*)\n(.*?)```", readme, re.S)
    assert len(blocks) == 6
    monkeypatch.chdir(root)
    for command, expected in blocks:
        code, out, _err = _run(capsys, *shlex.split(command))
        assert (code, out) == (0, expected), command


def test_emit_to_stdout_is_stable_and_replaces_the_report(capsys):
    code, out1, _err = _run(capsys, "orbit", _data("zmod4_inversion.act"),
                            "--emit", "-")
    assert code == 0
    assert "orbit groupoid" not in out1.splitlines()[0]
    parsed = parse_text(out1)
    assert parsed.of_kind("morphism")
    _code, out2, _err = _run(capsys, "orbit", _data("zmod4_inversion.act"),
                             "--emit", "-")
    assert out1 == out2


def test_emit_to_file_reparses(tmp_path, capsys):
    target = tmp_path / "out.gpd"
    code, out, _err = _run(capsys, "semidirect", _data("tree_swap.act"),
                           "--emit", str(target))
    assert code == 0
    assert "semidirect product" in out
    parsed = parse_text(target.read_text(encoding="utf-8"))
    assert "segxZ2-gpd" in parsed.of_kind("groupoid")
    assert parsed.of_kind("morphism") == ["proj-segxZ2-gpd"]


def test_verify_verb(tmp_path, capsys, monkeypatch):
    targets = tmp_path / "targets.gpd"
    targets.write_text(render_entities(
        [groupoid_from_group(cyclic_group(2), name="t-z2")]),
        encoding="utf-8")
    code, out, _err = _run(capsys, "verify", "--targets", str(targets),
                           "--max-arrows", "8")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) >= 10
    assert all(line.startswith("PASS") for line in lines)
    # the cap applies to every corpus, the quotient instances included
    spaces = [act.space for _name, act in named_actions()]
    spaces += [act.space for act in random_actions()]
    spaces += [k for (k, _gens) in random_quotient_instances()]
    small = sum(len(g.arrows) <= 8 for g in spaces)
    assert lines[0] == f"PASS corpus-valid: {small} corpus instances validate"

    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps usage to fit
    for bad in ("0", "-1"):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify", "--max-arrows", bad])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith(
            "usage: groupoids verify [-h] [--targets FILE] "
            "[--max-arrows MAX_ARROWS]\n")
        assert "\ngroupoids verify: error: argument --max-arrows: " \
            "must be at least 1\n" in captured.err

    empty = tmp_path / "none.pres"
    empty.write_text("presentation p\ngenerators a\n", encoding="utf-8")
    code, _out, err = _run(capsys, "verify", "--targets", str(empty))
    assert code == 3
    assert "no groupoids defined" in err


VERIFY_LINES = """\
PASS corpus-valid: 89 corpus instances validate
PASS semidirect-laws: 67 semidirect products obey both pairing laws; \
66 fully validated
PASS projection-trichotomy: quotient 33, covering 18, object-iso 20 \
instances agree
PASS first-isomorphism: 22 quotients factor correctly
PASS normal-closure-minimal: 27 closures equal the lattice minimum
PASS orbit-kernel: 83 orbit morphisms kill exactly the stabilizer \
differences; 38 coverings, 31 quotient morphisms
PASS orbit-universal: 83 orbit morphisms factor invariant morphisms \
uniquely; both negative controls fail as they should
PASS tree-orbit-groups: 5 tree actions give the expected orbit object groups
PASS zmod4-inversion: inverting the 4-element cyclic group halves it: \
orbit object group Z2, kernel {0, 2}
PASS circle-reflection: reflecting the circle leaves a segment: \
vertex group at orbit(1): trivial
PASS graph-orbit-presentations: antipodal map gives a free loop; \
edge-inverting reflection gives two squared loops
PASS abelianization: commutator, squared-group, and presentation routes \
agree on Z4, S3, D4, Q8, A4
PASS symmetric-square: 8 symmetric squares match the abelianization
PASS regular-covers: folding and winding covers are the orbit morphisms of \
their deck actions; a non-free deck is rejected
PASS restrict-orbit: invariant subsets embed exactly when they meet every \
fixed component
PASS round-trip: 6 data files and one computed orbit groupoid survive the \
round trip
"""


# the checks that --max-arrows leaves alone print their VERIFY_LINES line
_UNCAPPED = "".join(VERIFY_LINES.splitlines(keepends=True)[7:])

VERIFY_LINES_CAP_3 = """\
PASS corpus-valid: 30 corpus instances validate
PASS semidirect-laws: 25 semidirect products obey both pairing laws; \
25 fully validated
PASS projection-trichotomy: quotient 17, covering 15, object-iso 8 \
instances agree
PASS first-isomorphism: 5 quotients factor correctly
PASS normal-closure-minimal: 5 closures equal the lattice minimum
PASS orbit-kernel: 37 orbit morphisms kill exactly the stabilizer \
differences; 16 coverings, 28 quotient morphisms
PASS orbit-universal: 37 orbit morphisms factor invariant morphisms \
uniquely; both negative controls fail as they should
""" + _UNCAPPED

VERIFY_LINES_CAP_6 = """\
PASS corpus-valid: 63 corpus instances validate
PASS semidirect-laws: 49 semidirect products obey both pairing laws; \
49 fully validated
PASS projection-trichotomy: quotient 25, covering 18, object-iso 14 \
instances agree
PASS first-isomorphism: 14 quotients factor correctly
PASS normal-closure-minimal: 16 closures equal the lattice minimum
PASS orbit-kernel: 65 orbit morphisms kill exactly the stabilizer \
differences; 27 coverings, 30 quotient morphisms
PASS orbit-universal: 65 orbit morphisms factor invariant morphisms \
uniquely; both negative controls fail as they should
""" + _UNCAPPED


def test_verify_lines_are_pinned(capsys):
    code, out, err = _run(capsys, "verify")
    assert (code, out, err) == (0, VERIFY_LINES, "")


@pytest.mark.parametrize("cap, lines", [("3", VERIFY_LINES_CAP_3),
                                        ("6", VERIFY_LINES_CAP_6)],
                         ids=("3", "6"))
def test_capped_verify_lines_are_pinned(capsys, cap, lines):
    # the five named products that normal-closure-minimal adds are capped
    # too: without that, a cap of 6 counts 19 closures
    code, out, err = _run(capsys, "verify", "--max-arrows", cap)
    assert (code, out, err) == (0, lines, "")


def _parse_outcome(parser, argv, capsys):
    """What parsing argv prints and its exit code (None: it parsed)."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


@pytest.mark.parametrize("verb", list(cli._VERBS))
def test_a_one_verb_parser_reads_as_the_full_one(verb, capsys):
    cases = [[verb, "--help"], [verb], [verb, "--no-such-option"],
             [verb, "a", "b", "c"], [verb, "a", "--no-such-option"]]
    if verb == "verify":
        cases += [[verb, "--max-arrows", "0"], [verb, "--max-arrows=x"]]
    for argv in cases:
        full = _parse_outcome(cli._parser(), argv, capsys)
        assert _parse_outcome(cli._parser(verb), argv, capsys) == full, argv
