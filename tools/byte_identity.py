"""Byte identity of the command line: reports, --emit text, verify lines.

    python tools/byte_identity.py [REVISION]

Runs a fixed list of commands, each in a fresh interpreter (this one) on
the tree's src from the tree's root, with and without -O under
PYTHONHASHSEED 1 and 2, and records each run's exit code, stdout, stderr
and --emit file.  Every run must record what its command's first run (no
-O, PYTHONHASHSEED=1) did; a CRLF, commented or unended copy of an input
must give what its LF original gives, and an --emit PATH file must hold
what --emit - prints.  Given a git revision, the commands also run in a
detached worktree of it, removed afterwards, and must record what they
record in the working tree.  Inputs come from the benchmark's seeded
generators (perfbench/workloads.py, imported, not changed).  Prints a line
per differing command and variant and exits 1, or a count line and 0.
"""

import hashlib
import os
import random
import shlex
import subprocess
import sys
import tempfile
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = "src/groupoids/data/"
VARIANTS = [(flags, seed) for seed in "12" for flags in ((), ("-O",))]
FIELDS = ("exit code", "stdout", "stderr", "--emit file")
EMIT = "PATH"          # an --emit argument: a fresh file for each run
M = ("-m", "groupoids")   # the command line, run as a module

# the bundled data files through their verbs, besides orbit --emit - on
# every .act file and abelianize and symmetric-square on every .pres file
DATA_COMMANDS = """\
quotient folding_cover.gpd --groupoid seg --arrows x>y
normal-closure folding_cover.gpd --groupoid seg --arrows x>y --emit -
check-regular-cover folding_cover.gpd
restrict-orbit tree_swap.act --objects x,y
semidirect tree_swap.act --emit -
semidirect zmod4_inversion.act --emit -
presentation circle_reflection.act"""

# arrow and element names that hold commas: the pairs (u, "v,id_pt") and
# ("u,v", id_pt) are both named (u,v,id_pt), and the second, primed, names
# a class of the orbit groupoid; Z3 rotates the triangle x -> y -> z
ENDS = {"u": "xy", "u,v": "xz", "b": "yz", "c": "yx", "d": "zx", "e": "zy"}
TURNS = ((1, "v,id_pt"), (2, "w"))
INPUTS = ("ring10.act", "bundle5m6.gpd")        # each copied three ways


def _turn(ends, k):
    return "".join("xyz"[("xyz".index(x) + k) % 3] for x in ends)


COMMAS = "\n".join([
    "groupoid tri", "objects x y z",
    *(f"arrow {a} : {s} -> {t}" for a, (s, t) in ENDS.items()),
    "inverse u c", "inverse u,v d", "inverse b e",
    "compose b u = u,v", "compose e u,v = u", "compose u d = e",
    "compose c e = d", "compose d b = c", "compose u,v c = b", "",
    "groupoid Z3c", "objects pt", "arrow v,id_pt : pt -> pt",
    "arrow w : pt -> pt", "inverse v,id_pt w",
    "compose v,id_pt v,id_pt = w", "compose w w = v,id_pt", "",
    "action turn on tri by Z3c",
    *(f"obj {g} : {x} -> {_turn(x, k)}" for k, g in TURNS for x in "xyz"),
    *(f"arr {g} : {a} -> {next(b for b in ENDS if ENDS[b] == _turn(e, k))}"
      for k, g in TURNS for a, e in ENDS.items()), ""])

PROBES = (
    # the maps of a multi-component isomorphism, paired out of order
    """import groupoids as g
f = g.search_isomorphism(
    g.disjoint_union(g.connected_groupoid("ab", g.cyclic_group(4)),
                     g.groupoid_from_group(g.klein_group(), "p")),
    g.disjoint_union(g.groupoid_from_group(g.klein_group(), "q"),
                     g.connected_groupoid("cd", g.cyclic_group(4))))
print(f.object_map, f.arrow_map, sep="\\n")""",
    # the orbit groupoids of the squares of the abelianization check's
    # groups under the swap: the cosets of K(x), and a one-object space
    # built from the square's table, itself computed on lookup
    """import itertools, groupoids as g, groupoids.corpus as c
from groupoids.suite import _FROZEN_ABELIANIZATIONS
for _label, G, _frozen, _pres in _FROZEN_ABELIANIZATIONS:
    sq = g.direct_product_group(G, G)
    pair = dict(zip(itertools.product(G.elements, repeat=2), sq.elements))
    swap = {u: pair[(y, x)] for (x, y), u in pair.items()}
    orb = g.orbit_groupoid(c._one_object_action(
        g.cyclic_group(2), sq, {"1": swap}, "swap"))
    print(g.render_entities([orb.groupoid, orb.morphism]), end="")
print()""")


def _env(tree, seed="1"):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED=seed)
    env.pop("PYTHONOPTIMIZE", None)
    return env


def _commented(text):
    return "".join(f"{line} # a comment\n" for line in text.split("\n")[:-1])


def commands(tmp):
    """Write the inputs into tmp and map every command, (arguments, cwd or
    None for the tree's root), to the command whose record it must give,
    or to None."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    files, _jobs = workloads.verify_suite(random.Random(1), "ci")
    ring10, ring12 = (workloads.rotation_action(random.Random(1), n, "ci")[0]
                      for n in (10, 12))
    bundle, arrow, _ = workloads.bundle_groupoid(random.Random(1), 5, 6, "ci")
    loop, bridge = arrow[(0, 2, 0)], arrow[(1, 3, 2)]
    # a last compose line that names an unknown arrow, in the last of
    # several runs of the bulk reader, which leaves the block to the line
    # reader, as the commented copy's every block
    lines = bundle.split("\n")
    lines[-2] = lines[-2].rpartition(" = ")[0] + " = no-such-arrow"
    unknown = "\n".join(lines)
    inputs = {"targets.gpd": next(iter(files.values())), "ring12.act": ring12,
              "commas.act": COMMAS, "unknown/lf/bundle5m6.gpd": unknown,
              "unknown/commented/bundle5m6.gpd": _commented(unknown)}
    for name, text in zip(INPUTS, (ring10, bundle)):
        inputs.update({name: text, f"crlf/{name}": text.replace("\n", "\r\n"),
                       f"commented/{name}": _commented(text),
                       f"unended/{name}": text[:-1]})
    for name, text in inputs.items():
        (tmp / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp / name).write_bytes(text.encode())

    def emitted(at):
        ring, gpd = (str(tmp / at / name) for name in INPUTS)
        return [("orbit", ring), ("semidirect", ring),
                ("quotient", gpd, "--arrows", loop),
                ("quotient", gpd, "--arrows", f"{loop},{bridge}")]

    verbs = subprocess.run(
        [sys.executable, "-c", "import groupoids.cli as c; print(*c._VERBS)"],
        env=_env(ROOT), capture_output=True, text=True, check=True).stdout
    readme = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    plain = [
        ("verify",), ("verify", "--max-arrows", "6"),
        ("verify", "--max-arrows", "3"),
        ("verify", "--targets", str(tmp / "targets.gpd")),
        *(tuple(shlex.split(line)[2:]) for line in readme
          if line.startswith("$ groupoids ")),
        ("--help",), *((verb, "--help") for verb in verbs.split()),
        ("orbit", "a", "b", "c"),
        *(("orbit", DATA + p.name, "--emit", "-")
          for p in sorted((ROOT / DATA).glob("*.act"))),
        ("orbit", str(tmp / "commas.act"), "--emit", "-"),
        *((verb, DATA + name, *rest) for verb, name, *rest in
          map(shlex.split, DATA_COMMANDS.splitlines())),
        *(args for p in sorted((ROOT / DATA).glob("*.pres"))
          for args in (("abelianize", DATA + p.name),
                       ("symmetric-square", DATA + p.name, "--emit", "-"))),
        ("restrict-orbit", str(tmp / "ring10.act"), "--objects",
         ",".join(ring10.split("\n")[1].split()[1:]))]
    cases = {((*M, *args), None): None for args in plain}
    cases.update({(("-c", probe), None): None for probe in PROBES})
    # each --emit PATH file against --emit -, each copy against its original
    for args in emitted("") + [("semidirect", str(tmp / "ring12.act"))]:
        stdout = ((*M, *args, "--emit", "-"), None)
        cases[stdout], cases[(*M, *args, "--emit", EMIT), None] = None, stdout
    for copy in ("crlf", "commented", "unended"):
        for args, lf in zip(emitted(copy), emitted("")):
            cases[(*M, *args, "--emit", "-"), None] = \
                ((*M, *lf, "--emit", "-"), None)
    refused = (*M, "quotient", "bundle5m6.gpd", "--arrows", loop)
    cases[refused, str(tmp / "unknown/lf")] = None
    cases[refused, str(tmp / "unknown/commented")] = \
        (refused, str(tmp / "unknown/lf"))
    return cases


def record(tree, case, variant, tmp):
    """The exit code and the digests of stdout, stderr and the --emit file,
    if any, of one run of case in tree."""
    (args, cwd), (flags, seed) = case, variant
    with tempfile.NamedTemporaryFile(dir=tmp) as emit:
        done = subprocess.run(
            [sys.executable, *flags,
             *(emit.name if arg == EMIT else arg for arg in args)],
            cwd=cwd or tree, env=_env(tree, seed), stdin=subprocess.DEVNULL,
            capture_output=True)
        data = emit.read() if EMIT in args else None
    return (done.returncode, *(None if out is None else
                               hashlib.sha256(out).hexdigest()
                               for out in (done.stdout, done.stderr, data)))


def _label(case, tmp):
    args, cwd = case
    text = shlex.join(["python", *args]) + (f" (in {cwd})" if cwd else "")
    return textwrap.shorten(text.replace(str(tmp), "$TMP"), 160)


def check(cases, trees, tmp):
    """Run every case in every (label, path) of trees under every variant;
    print the differences, or a count line, and return the exit code."""
    runs = [(label, tree, case, variant) for label, tree in trees
            for case in cases for variant in VARIANTS]
    with ThreadPoolExecutor(min(4, os.cpu_count() or 1)) as pool:
        done = pool.map(lambda run: record(*run[1:], tmp), runs)
        records = {(label, case, variant): rec
                   for (label, _tree, case, variant), rec in zip(runs, done)}
    first = trees[0][0]
    lines = []
    for case, like in cases.items():
        base = records[first, case, VARIANTS[0]]
        for label, _tree in trees:
            for flags, seed in VARIANTS:
                rec = records[label, case, (flags, seed)]
                fields = [f for f, a, b in zip(FIELDS, rec, base) if a != b]
                if fields:
                    lines.append(" ".join([label, *flags, "PYTHONHASHSEED="
                                           f"{seed}: differs in"])
                                 + f" {', '.join(fields)} from {first}'s "
                                 f"first run: {_label(case, tmp)}")
        # an --emit PATH file is compared with what --emit - prints
        if like is not None and (base[0], base[3] or base[1], base[2]) != \
                records[first, like, VARIANTS[0]][:3]:
            lines.append(f"differs from {_label(like, tmp)}: "
                         f"{_label(case, tmp)}")
    print("\n".join(lines) or f"byte-identical: {len(runs)} runs of "
          f"{len(cases)} commands in {len(trees)} tree(s)")
    return 1 if lines else 0


def main(argv):
    if len(argv) > 1:
        sys.exit(f"usage: {sys.argv[0]} [REVISION]")
    with tempfile.TemporaryDirectory() as tmp:
        tmp, trees = Path(tmp), [("working tree", ROOT)]
        cases = commands(tmp)
        if not argv:
            return check(cases, trees, tmp)
        tree = tmp / "revision"
        if subprocess.run(["git", "worktree", "add", "--detach", "--quiet",
                           str(tree), argv[0]], cwd=ROOT).returncode:
            return 2
        try:
            return check(cases, trees + [(argv[0], tree)], tmp)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(tree)], cwd=ROOT, check=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
