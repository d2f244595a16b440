"""Command line interface.

Each verb reads definitions from a text file, runs one construction or
check, prints a short report, and can emit the result in the same text
format with --emit (a path, or "-" for stdout, which suppresses the
report).

Exit codes: 0 success, 1 a check failed, 2 malformed input, an input file
that cannot be read or is not UTF-8, or an --emit path that cannot be
written, 3 invalid hypotheses or selections, or a result that cannot be
emitted (such as two entities with one name), 4 an internal error (a failed
postcondition: a bug in this package).
"""

from __future__ import annotations

import argparse
import sys

from . import suite
from .actions import GroupoidAction
from .constructions import (normal_closure, orbit_groupoid, quotient_groupoid,
                            regular_cover_orbit_check,
                            restrict_orbit_full_subgroupoid,
                            semidirect_product)
from .core import (_InternalError, is_covering, is_fibration,
                   is_quotient_morphism, object_group)
from .fileformat import (ParseError, UnreadableInput, parse_input,
                         render_entities)
from .presented import (GraphAction, abelian_invariants, describe_vertex_group,
                        orbit_presentation, symmetric_square_presentation)


def _split_list(text):
    return [part for part in (piece.strip() for piece in text.split(","))
            if part]


def _orbit_label(class_name):
    if class_name.startswith("[") and class_name.endswith("]"):
        return f"orbit({class_name[1:-1]})"
    return class_name


def _groupoid_action(parsed, name):
    act = parsed.pick("action", name)
    if not isinstance(act, GroupoidAction):
        raise ValueError(f"{act.name}: acts on a graph; "
                         f"use the presentation verb")
    return act


def _graph_action(parsed, name):
    act = parsed.pick("action", name)
    if not isinstance(act, GraphAction):
        raise ValueError(f"{act.name}: acts on a groupoid; "
                         f"use the orbit verb")
    return act


def _kind_lines(label, f):
    """One "label is a ..." line for each of the three kinds f is."""
    return [f"{label} is {kind}" for kind, holds in (
        ("a fibration", is_fibration),
        ("a quotient morphism", is_quotient_morphism),
        ("a covering", is_covering)) if holds(f)]


def _cmd_semidirect(parsed, args):
    act = _groupoid_action(parsed, args.action)
    sd = semidirect_product(act)
    lines = [f"semidirect product {sd.groupoid.name}: "
             f"{len(sd.groupoid.objects)} objects, "
             f"{len(sd.groupoid.arrows)} arrows",
             *_kind_lines("projection", sd.projection)]
    return lines, 0, [sd.groupoid, sd.projection]


def _cmd_orbit(parsed, args):
    act = parsed.pick("action", args.action)
    if isinstance(act, GraphAction):
        return _presentation_report(act, base=None)
    orb = orbit_groupoid(act)
    lines = [f"orbit groupoid {orb.groupoid.name}: "
             f"{len(orb.groupoid.objects)} objects, "
             f"{len(orb.groupoid.arrows)} arrows"]
    for x in orb.groupoid.objects:
        lines.append(f"object group at {_orbit_label(x)}: "
                     f"order {object_group(orb.groupoid, x).order}")
    lines += _kind_lines("orbit morphism", orb.morphism)
    return lines, 0, [orb.groupoid, orb.morphism]


def _cmd_quotient(parsed, args):
    gpd = parsed.pick("groupoid", args.groupoid)
    gens = _split_list(args.arrows)
    n = normal_closure(gpd, gens)
    quot = quotient_groupoid(gpd, n)
    lines = [f"normal closure of {len(gens)} arrows: {len(n.arrows)} arrows",
             f"quotient {quot.groupoid.name}: "
             f"{len(quot.groupoid.objects)} objects, "
             f"{len(quot.groupoid.arrows)} arrows"]
    return lines, 0, [quot.groupoid, quot.morphism]


def _cmd_normal_closure(parsed, args):
    gpd = parsed.pick("groupoid", args.groupoid)
    gens = _split_list(args.arrows)
    n = normal_closure(gpd, gens)
    lines = [f"normal closure of {len(gens)} arrows in {gpd.name}: "
             f"{len(n.arrows)} arrows",
             "arrows: " + " ".join(n.arrows)]
    return lines, 0, [n.as_groupoid()]


def _presentation_report(act, base):
    pres, _elabel, vlabel = orbit_presentation(act)
    lines = [f"orbit graph of {act.name}: "
             f"{len(pres.graph.vertices)} vertices, "
             f"{len(pres.graph.edges)} edges, "
             f"{len(pres.relators)} relators"]
    if base is not None:
        if base not in vlabel:
            raise ValueError(f"{act.graph.name}: unknown vertex {base}")
        targets = [vlabel[base]]
    else:
        targets = list(pres.graph.vertices)
    for v in targets:
        lines.append(f"vertex group at {_orbit_label(v)}: "
                     f"{describe_vertex_group(pres, v)}")
    return lines, 0, [pres]


def _cmd_presentation(parsed, args):
    act = _graph_action(parsed, args.action)
    return _presentation_report(act, args.base)


def _cmd_abelianize(parsed, args):
    pres = parsed.pick("presentation", args.presentation)
    lines = [f"abelian invariants of {pres.name}: {abelian_invariants(pres)}"]
    return lines, 0, None


def _cmd_symmetric_square(parsed, args):
    pres = parsed.pick("presentation", args.presentation)
    square = symmetric_square_presentation(pres)
    got = abelian_invariants(square)
    want = abelian_invariants(pres)
    lines = [f"symmetric square {square.name}: "
             f"{len(square.generators)} generators, "
             f"{len(square.relators)} relators",
             f"abelian invariants: {got}",
             f"abelian invariants of {pres.name}: {want}",
             f"agreement: {'yes' if got == want else 'no'}"]
    return lines, 0 if got == want else 1, [square]


def _cmd_check_regular_cover(parsed, args):
    p = parsed.pick("morphism", args.morphism)
    deck = _groupoid_action(parsed, args.action)
    report = regular_cover_orbit_check(p, deck)
    return list(report.details), 0 if report.ok else 1, None


def _cmd_restrict_orbit(parsed, args):
    act = _groupoid_action(parsed, args.action)
    report = restrict_orbit_full_subgroupoid(act, _split_list(args.objects))
    lines = []
    if report.hypothesis_ok:
        lines.append("hypothesis holds: the object set meets every fixed "
                     "component")
    else:
        lines.extend(report.hypothesis_failures)
    lines.extend(report.details)
    return lines, 0 if report.ok else 1, None


def _cmd_verify(_parsed, args):
    targets = None
    if args.targets is not None:
        parsed = parse_input(args.targets)
        names = parsed.of_kind("groupoid")
        if not names:
            raise ValueError(f"{args.targets}: no groupoids defined")
        targets = [parsed.entities[n] for n in names]
    results = suite.run_all(targets=targets, max_arrows=args.max_arrows)
    lines = [r.line() for r in results]
    return lines, 0 if all(r.ok for r in results) else 1, None


def _select(kind, what=None):
    return f"--{kind}", {"help": f"{what or kind} name "
                                 f"(default: the only one)"}


def _listed(kind):
    return f"--{kind}s", {"required": True,
                          "help": f"comma separated {kind} names (write "
                                  f"--{kind}s=LIST when LIST starts with -; "
                                  f"a name holding a comma cannot be "
                                  f"listed)"}


def _at_least_one(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


_FILE = ("file", {"help": "input definitions file"})
_EMIT = ("--emit", {"metavar": "PATH",
                    "help": "write the result in the text format "
                            "(- for stdout, suppressing the report)"})
_ACTION, _GROUPOID, _PRESENTATION = (
    _select(kind) for kind in ("action", "groupoid", "presentation"))
_ARROWS = _listed("arrow")

# verb -> (help, handler, arguments), in the order --help lists them
_VERBS = {
    "semidirect": ("semidirect product of an action", _cmd_semidirect,
                   (_FILE, _EMIT, _ACTION)),
    "orbit": ("orbit groupoid of an action", _cmd_orbit,
              (_FILE, _EMIT, _ACTION)),
    "quotient": ("quotient by the normal closure of arrows", _cmd_quotient,
                 (_FILE, _EMIT, _GROUPOID, _ARROWS)),
    "normal-closure": ("normal closure of a set of arrows",
                       _cmd_normal_closure,
                       (_FILE, _EMIT, _GROUPOID, _ARROWS)),
    "presentation": ("presented orbit groupoid of a graph action",
                     _cmd_presentation,
                     (_FILE, _EMIT, _ACTION,
                      ("--base", {"metavar": "VERTEX",
                                  "help": "report only the vertex group at "
                                          "this vertex"}))),
    "abelianize": ("abelian invariants of a presentation", _cmd_abelianize,
                   (_FILE, _PRESENTATION)),
    "symmetric-square": ("symmetric square of a presentation",
                         _cmd_symmetric_square,
                         (_FILE, _EMIT, _PRESENTATION)),
    "check-regular-cover": ("check a covering against its deck action",
                            _cmd_check_regular_cover,
                            (_FILE, _select("morphism", "covering morphism"),
                             _select("action", "deck action"))),
    "restrict-orbit": ("restrict the orbit groupoid to an invariant object "
                       "set", _cmd_restrict_orbit,
                       (_FILE, _ACTION, _listed("object"))),
    "verify": ("run the built-in check suite", _cmd_verify,
               (("--targets", {"metavar": "FILE",
                               "help": "groupoids file for the universal "
                                       "property targets"}),
                ("--max-arrows", {"type": _at_least_one,
                                  "help": "skip corpus instances with more "
                                          "arrows (at least 1)"}))),
}


def _parser(verb=None):
    """The argument parser, with every verb's subparser, or with verb's
    only.

    A job names its verb first, and parsing it needs no other subparser.
    The one-verb parser spells out the full verb list as the subparsers'
    metavar, so its top-level usage line, the one an "unrecognized
    arguments" error prints, is the full parser's.  Without a known verb
    first (no arguments, -h, or an unknown verb) the full parser is needed
    for its help and its errors.
    """
    parser = argparse.ArgumentParser(
        prog="groupoids",
        description="groupoid constructions on finite presentations")
    subs = parser.add_subparsers(
        dest="verb", required=True,
        metavar=None if verb is None else "{" + ",".join(_VERBS) + "}")
    verbs = _VERBS if verb is None else {verb: _VERBS[verb]}
    for name, (text, handler, arguments) in verbs.items():
        sub = subs.add_parser(name, help=text)
        for flag, settings in arguments:
            sub.add_argument(flag, **settings)
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    verb = argv[0] if argv and argv[0] in _VERBS else None
    args = _parser(verb).parse_args(argv)
    emit_to = getattr(args, "emit", None)
    try:
        parsed = parse_input(args.file) if "file" in args else None
        lines, code, entities = args.handler(parsed, args)
        text = None if entities is None or emit_to is None \
            else render_entities(entities)
    except (ParseError, UnreadableInput) as err:
        print(err, file=sys.stderr)
        return 2
    except ValueError as err:
        print(err, file=sys.stderr)
        return 3
    except _InternalError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 4
    if text is not None:
        if emit_to == "-":
            sys.stdout.write(text)
            return code
        try:
            with open(emit_to, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"{emit_to}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    for line in lines:
        print(line)
    return code


def console_main():
    sys.exit(main())
