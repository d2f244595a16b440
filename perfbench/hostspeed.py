"""A fixed piece of pure-Python work that gauges the host's current speed.

The benchmark shares a few cores of a busy host, whose speed drifts by up
to a factor of two over minutes: the same job takes 0.6 s in one minute and
1.1 s in the next.  A run of tens of seconds cannot average that out, so
the benchmark times this fixed work in a fresh interpreter before every
job and reports its timings scaled to a host on which this work takes
``REFERENCE_S`` seconds (see ``scale``).  The work never touches the
program under test, so a change to the program cannot move it; it builds
and checks a groupoid composition table from named arrow objects, the
dict, tuple, attribute and string mix the program itself runs.
"""

from __future__ import annotations

import statistics
import time

# About the seconds this work takes on a 2-vCPU x86-64 VM with CPython 3.11
# in a quiet minute; the benchmark's timings are reported as if the host
# ran it in exactly this.  Changing it rescales every reported time.
REFERENCE_S = 0.02
SIZE = 14


class _Arrow:
    __slots__ = ("name", "src", "dst")

    def __init__(self, name, src, dst):
        self.name, self.src, self.dst = name, src, dst


def work(n=SIZE):
    """Compose the n-object tree groupoid and check associativity by brute
    force; returns a checksum, so that nothing is optimised away."""
    objs = [f"v{i}" for i in range(n)]
    position = {obj: i for i, obj in enumerate(objs)}
    arrows = {(i, j): _Arrow(f"a{i}_{j}", objs[i], objs[j])
              for i in range(n) for j in range(n)}
    by_name = {a.name: a for a in arrows.values()}
    compose = {}
    for (i, j), f in arrows.items():
        for k in range(n):
            compose[(arrows[(j, k)].name, f.name)] = arrows[(i, k)].name
    bad = 0
    for (g, f), h in compose.items():
        for k in range(n):
            e = arrows[(position[by_name[h].dst], k)].name
            bad += compose[(e, h)] != compose[(compose[(e, g)], f)]
    text = "\n".join(f"compose {g} {f} = {h}"
                     for (g, f), h in sorted(compose.items()))
    return bad + len(set(text.split()))


def sample():
    """Seconds the fixed work takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def scale(samples):
    """Factor that turns seconds measured beside these samples into
    seconds on the reference host."""
    return REFERENCE_S / statistics.median(samples)
