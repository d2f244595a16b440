"""Seeded inputs and closed-form expected outputs for the benchmark workloads.

Every workload is a fixed ladder of rungs, and one round runs each job of
the ladder once, every job on its own input file.  The seed picks the order
of the jobs inside a round, the names of objects, arrows, group elements
and blocks, the order in which the input files list them, and which arrow
of a given order a quotient is taken by, which leaves the rung's cost
alone.  Expected outputs are computed here from the generating
parameters alone; none of them comes from the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

WORKLOADS = ("orbit-ladder", "quotient-bundle", "verify-suite")

# The jobs of one round.  Changing them changes the benchmark.  A round has
# an odd number of jobs, and one rung (orbit Z12, quotient k8 Z5, verify)
# runs five times or more per round, holds the middle job and has at most
# one slower job per round above it.  So for three to ten rounds per run
# the median and the tenth-slowest job both lie inside that rung and are
# order statistics of many samples: neither jumps between rungs when noise
# changes the number of rounds that fit in a run.  The faster jobs of a
# round (three, or the six tour commands) are few enough that the median
# sits about 30 % of the way up that rung's jobs, clear of its fastest few,
# which scatter most.  The Z6 rung and semidirect on Z8 are left out: they
# take 30 to 150 ms, and each extra small job would move the median down
# the Z12 rung.
ORBIT_JOBS = (("orbit", 8), ("orbit", 10), ("semidirect", 10),
              *[("orbit", 12)] * 5, ("semidirect", 12))  # Z_n, n-object tree
QUOTIENT_RUNGS = ((12, 2, 1), (10, 3, 1), (8, 4, 2), *[(8, 5, 1)] * 5,
                  (8, 6, 2))                           # (k, m, gcd(m, d))
VERIFY_JOBS = 13                        # verify runs per round, beside the
                                        # six tour commands


@dataclass
class Job:
    """One CLI invocation and everything needed to judge its output."""

    rung: str
    argv: list
    stdout: list                    # expected lines, in order; exit code 0
    emit: str | None = None         # path written by --emit
    emit_arrow_lines: list = field(default_factory=list)  # per block


@dataclass
class Workload:
    files: dict                     # relative path -> text
    round_jobs: list                # one round, in seeded order


def _names(rng, count, prefix):
    """count distinct tokens, shuffled, none of them reserved."""
    return [f"{prefix}{k}" for k in rng.sample(range(10 * count + 97), count)]


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def cyclic(n):
    """Z_n as (elements, product), identity first."""
    return list(range(n)), lambda g, h: (g + h) % n


def dihedral(n):
    """D_n as (elements, product): (a, b) is x -> a + (-1)^b x on Z_n."""
    def prod(g, h):
        return ((g[0] + (h[0] if g[1] == 0 else -h[0])) % n, g[1] ^ h[1])
    return [(a, b) for b in (0, 1) for a in range(n)], prod


def klein():
    """Z2 x Z2 as (elements, product)."""
    return ([(a, b) for a in (0, 1) for b in (0, 1)],
            lambda g, h: ((g[0] + h[0]) % 2, g[1] ^ h[1]))


def _group_block(rng, name, group):
    """A one-object groupoid block for a group given as (elements,
    product), identity first.  Returns (lines, arrow name by element); the
    identity is the identity arrow id_<object>."""
    keys, prod = group
    (obj,) = _names(rng, 1, "p")
    elem = dict(zip(keys, [f"id_{obj}"] + _names(rng, len(keys) - 1, "g")))
    rest = keys[1:]
    inv = {g: next(h for h in rest if prod(g, h) == keys[0]) for g in rest}
    lines = [f"groupoid {name}", f"objects {obj}"]
    lines += [f"arrow {elem[g]} : {obj} -> {obj}"
              for g in _shuffled(rng, rest)]
    lines += [f"inverse {elem[g]} {elem[inv[g]]}"
              for g in _shuffled(rng, rest) if g <= inv[g]]
    lines += [f"compose {elem[g]} {elem[h]} = {elem[prod(g, h)]}"
              for g, h in _shuffled(rng, [(g, h) for g in rest for h in rest
                                          if prod(g, h) != keys[0]])]
    return lines, elem


# --- orbit-ladder -----------------------------------------------------------

def rotation_action(rng, n, tag):
    """Z_n rotating the n-object tree groupoid freely.

    Returns (text, facts) where facts holds the names the expected output
    mentions.
    """
    objs = _names(rng, n, "v")          # objs[i] sits at cycle position i
    arrow = dict(zip([(i, j) for i in range(n) for j in range(n) if i != j],
                     _names(rng, n * (n - 1), "a")))
    for i in range(n):
        arrow[(i, i)] = f"id_{objs[i]}"
    space, group, act = f"ring{tag}", f"Z{n}r{tag}", f"rot{tag}"

    order = _shuffled(rng, range(n))
    lines = [f"groupoid {space}",
             "objects " + " ".join(objs[i] for i in order)]
    lines += [f"arrow {arrow[(i, j)]} : {objs[i]} -> {objs[j]}"
              for i, j in _shuffled(rng, [(i, j) for i in range(n)
                                          for j in range(n) if i != j])]
    lines += [f"inverse {arrow[(i, j)]} {arrow[(j, i)]}"
              for i, j in _shuffled(rng, [(i, j) for i in range(n)
                                          for j in range(i + 1, n)])]
    triples = [(i, j, k) for i in range(n) for j in range(n)
               for k in range(n) if len({i, j, k}) == 3]
    lines += [f"compose {arrow[(j, k)]} {arrow[(i, j)]} = {arrow[(i, k)]}"
              for i, j, k in _shuffled(rng, triples)]
    lines.append("")
    group_lines, elems = _group_block(rng, group, cyclic(n))
    lines += group_lines
    lines += ["", f"action {act} on {space} by {group}"]
    lines += [f"obj {elems[k]} : {objs[i]} -> {objs[(i + k) % n]}"
              for k, i in _shuffled(rng, [(k, i) for k in range(1, n)
                                          for i in range(n)])]
    lines += [f"arr {elems[k]} : {arrow[(i, j)]} -> "
              f"{arrow[((i + k) % n, (j + k) % n)]}"
              for k, i, j in _shuffled(rng, [(k, i, j) for k in range(1, n)
                                             for i in range(n)
                                             for j in range(n) if i != j])]
    facts = {"space": space, "group": group, "first": objs[order[0]]}
    return "\n".join(lines) + "\n", facts


def orbit_ladder(rng, workdir):
    files = {}
    jobs = []
    for i, (verb, n) in enumerate(ORBIT_JOBS):
        path = f"{workdir}/ring{i}.act"
        text, facts = rotation_action(rng, n, f"{n}x{rng.randrange(1000)}")
        files[path] = text
        space, group = facts["space"], facts["group"]
        if verb == "orbit":
            jobs.append(Job(
                rung=f"orbit Z{n}", argv=["orbit", path],
                stdout=[f"orbit groupoid {space}//{group}: 1 objects, "
                        f"{n} arrows",
                        f"object group at orbit({facts['first']}): order {n}",
                        "orbit morphism is a fibration",
                        "orbit morphism is a covering"]))
            continue
        emit = f"{workdir}/ring{i}.sd.gpd"
        jobs.append(Job(
            rung=f"semidirect Z{n}", argv=["semidirect", path, "--emit", emit],
            stdout=[f"semidirect product {space}x{group}: {n} objects, "
                    f"{n ** 3} arrows",
                    "projection is a fibration",
                    "projection is a quotient morphism"],
            emit=emit,
            # the product, then the projection's one-object codomain
            emit_arrow_lines=[n ** 3 - n, n - 1, 0]))
    return files, jobs


# --- quotient-bundle --------------------------------------------------------

def bundle_groupoid(rng, k, m, tag):
    """connected_groupoid(k objects, Z_m) as a text block.

    Returns (text, arrow names keyed by (x, v, y), block name).
    """
    objs = _names(rng, k, "x")
    keys = [(x, v, y) for x in range(k) for v in range(m) for y in range(k)
            if not (x == y and v == 0)]
    arrow = dict(zip(keys, _names(rng, len(keys), "b")))
    for x in range(k):
        arrow[(x, 0, x)] = f"id_{objs[x]}"
    name = f"bundle{tag}"
    lines = [f"groupoid {name}",
             "objects " + " ".join(objs[x] for x in _shuffled(rng, range(k)))]
    lines += [f"arrow {arrow[key]} : {objs[key[0]]} -> {objs[key[2]]}"
              for key in _shuffled(rng, keys)]
    lines += [f"inverse {arrow[(x, v, y)]} {arrow[(y, -v % m, x)]}"
              for (x, v, y) in _shuffled(rng, keys)
              if (x, v, y) <= (y, -v % m, x)]
    composable = []
    for (x, v, y) in keys:
        for w in range(m):
            for z in range(k):
                if (y == z and w == 0) or (z == x and (v + w) % m == 0):
                    continue                  # implied by identity/inverse
                composable.append((x, v, y, w, z))
    lines += [f"compose {arrow[(y, w, z)]} {arrow[(x, v, y)]} = "
              f"{arrow[(x, (v + w) % m, z)]}"
              for (x, v, y, w, z) in _shuffled(rng, composable)]
    return "\n".join(lines) + "\n", arrow, name


def quotient_bundle(rng, workdir):
    files = {}
    jobs = []
    for i, (k, m, g) in enumerate(QUOTIENT_RUNGS):
        tag = f"{k}m{m}x{rng.randrange(1000)}"
        text, arrow, name = bundle_groupoid(rng, k, m, tag)
        path = f"{workdir}/bundle{i}.gpd"
        files[path] = text
        o = rng.randrange(k)
        d = rng.choice([d for d in range(1, m) if gcd(m, d) == g])
        closure = k * (m // g)
        jobs.append(Job(
            rung=f"quotient k{k} Z{m}",
            argv=["quotient", path, "--arrows", arrow[(o, d, o)]],
            stdout=[f"normal closure of 1 arrows: {closure} arrows",
                    f"quotient {name}/N{closure}: {k} objects, "
                    f"{k * k * g} arrows"]))
    return files, jobs


# --- verify-suite -----------------------------------------------------------

SUITE_CHECKS = ("corpus-valid", "semidirect-laws", "projection-trichotomy",
                "first-isomorphism", "normal-closure-minimal", "orbit-kernel",
                "orbit-universal", "tree-orbit-groups", "zmod4-inversion",
                "circle-reflection", "graph-orbit-presentations",
                "abelianization", "symmetric-square", "regular-covers",
                "restrict-orbit", "round-trip")

DATA = "src/groupoids/data"

# The command line tour of the README, with the output it prints there.
TOUR = (
    (["orbit", f"{DATA}/circle_reflection.act"],
     ["orbit graph of circle-reflection: 3 vertices, 2 edges, 0 relators",
      "vertex group at orbit(1): trivial",
      "vertex group at orbit(i): trivial",
      "vertex group at orbit(-1): trivial"]),
    (["semidirect", f"{DATA}/tree_swap.act"],
     ["semidirect product segxZ2-gpd: 2 objects, 8 arrows",
      "projection is a fibration",
      "projection is a quotient morphism"]),
    (["orbit", f"{DATA}/zmod4_inversion.act"],
     ["orbit groupoid Z4-space//Z2-gpd: 1 objects, 2 arrows",
      "object group at orbit(pt): order 2",
      "orbit morphism is a fibration",
      "orbit morphism is a quotient morphism"]),
    (["quotient", f"{DATA}/folding_cover.gpd", "--groupoid", "seg",
      "--arrows", "x>y"],
     ["normal closure of 1 arrows: 4 arrows",
      "quotient seg/N4: 1 objects, 1 arrows"]),
    (["symmetric-square", f"{DATA}/f2.pres"],
     ["symmetric square f2-sym2: 4 generators, 6 relators",
      "abelian invariants: rank 2",
      "abelian invariants of f2: rank 2",
      "agreement: yes"]),
    (["check-regular-cover", f"{DATA}/folding_cover.gpd"],
     ["orbit groupoid of the deck action matches the target",
      "target object groups match the semidirect object groups"]),
)

# Target groupoids of at most 8 arrows: these groups, and the two-object
# tree.  Every verify job gets its own seeded file of this family; the seed
# names the blocks and orders them.  One shape for all keeps the cost of
# verify the same from job to job.
TARGET_GROUPS = (cyclic(3), klein(), dihedral(3))


def _tree_block(rng, name):
    objs = _names(rng, 2, "s")
    there, back = _names(rng, 2, "u")
    return [f"groupoid {name}", "objects " + " ".join(objs),
            f"arrow {there} : {objs[0]} -> {objs[1]}",
            f"arrow {back} : {objs[1]} -> {objs[0]}",
            f"inverse {there} {back}"]


def verify_suite(rng, workdir):
    files = {}
    jobs = []
    for j in range(VERIFY_JOBS):
        blocks = [_group_block(rng, f"Tg{i}x{rng.randrange(999)}", group)[0]
                  for i, group in enumerate(TARGET_GROUPS)]
        blocks.append(_tree_block(rng, f"Ttree{rng.randrange(999)}"))
        blocks = ["\n".join(block) for block in _shuffled(rng, blocks)]
        path = f"{workdir}/targets{j}.gpd"
        files[path] = "\n\n".join(blocks) + "\n"
        jobs.append(Job(rung="verify", argv=["verify", "--targets", path],
                        stdout=[f"PASS {name}: " for name in SUITE_CHECKS]))
    jobs += [Job(rung=f"tour {argv[0]}", argv=list(argv), stdout=list(lines))
             for argv, lines in TOUR]
    return files, jobs


_BUILDERS = {
    "orbit-ladder": orbit_ladder,
    "quotient-bundle": quotient_bundle,
    "verify-suite": verify_suite,
}


def build(name, seed, workdir):
    """The workload's input files and one round of jobs, from the seed."""
    rng = random.Random(f"{name}:{seed}")
    files, jobs = _BUILDERS[name](rng, workdir)
    return Workload(files, _shuffled(rng, jobs))


def stdout_matches(job, lines):
    """Compare printed lines with the expectation.

    verify's PASS lines carry free-text details after the check name, so
    those are matched by prefix; every other line must match exactly.
    """
    if len(lines) != len(job.stdout):
        return False
    if job.rung == "verify":
        return all(line.startswith(want)
                   for line, want in zip(lines, job.stdout))
    return lines == job.stdout
