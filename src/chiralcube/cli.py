"""Command line front end.

verbs:
  build OBJECT      construct a polytope and print its face data
  colorings         exhaustive matching-coloring search on the quotient graph
  verify            run the full claim-by-claim verification report
  export OBJECT     write OFF-style geometry (double cover for projective objects)

OBJECT is one of: P (the regular quotient polytope), Q (the chiral twin),
Q-mirror (its mirror image), Qhat (the double cover of Q in R^4),
hypercube (the plain 4-cube).

Exit status: 0 on success (for verify: all checks passed), 1 when
verification fails, 2 on usage errors, an unwritable --output among them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .geometry import (classes_hit_all_directions, hemicube_embedding, off_text,
                       squares_see_all_colors)
from .graph import enumerate_matching_colorings
from .polytope import f_vector, schlafli_type, to_json

OBJECTS = ("P", "Q", "Q-mirror", "Qhat", "hypercube")


def _make(name):
    """A named object's embedding: the quotient recolored, then covered."""
    e = hemicube_embedding()
    if name in ("Q", "Q-mirror", "Qhat"):
        e = e._twins[name == "Q-mirror"]  # e recolored by each twin, held
    return e._cover if name in ("Qhat", "hypercube") else e


def _emit(text, output):
    if not output:
        return sys.stdout.write(text)
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as err:  # a usage error: one line and status 2, as argparse's
        sys.stderr.write("chiralcube: error: cannot write %s: %s\n" % (output, err.strerror))
        raise SystemExit(2)


def _dump_json(data):
    """json.dumps(data, indent=2, sort_keys=True) + "\n", byte for byte, for
    dicts, lists and tuples of str, int, float, bool and None, but each list
    of plain ints in one join (the stdlib's indenting encoder is pure Python
    and writes item by item).  A dict key that is not a str raises TypeError."""
    quote = json.encoder.encode_basestring_ascii
    literal = {None: "null", True: "true", False: "false"}

    def dump(x, pad):
        if x is None or type(x) is bool:
            return literal[x]
        if isinstance(x, str):
            return quote(x)
        inner = pad + "  "
        if isinstance(x, dict) and x:
            return "{" + inner + ("," + inner).join([
                quote(k) + ": " + dump(v, inner) for k, v in sorted(x.items())]) + pad + "}"
        if isinstance(x, (list, tuple)) and x:
            items = (map(str, x) if all(type(v) is int for v in x)
                     else [dump(v, inner) for v in x])
            return "[" + inner + ("," + inner).join(items) + pad + "]"
        return json.dumps(x)  # an int, a float (NaN, Infinity as json writes them), [] or {}

    return dump(data, "\n") + "\n"


def _build_text(name, e):
    p = e.polytope
    sch = schlafli_type(p)
    lines = [
        "object: %s" % name,
        "rank: %d" % p.rank,
        "projective: %s" % ("yes" if e.projective else "no"),
        "f-vector: %s" % (f_vector(p),),
        "schlafli type: %s" % ("{" + ",".join(map(str, sch)) + "}" if sch else "none"),
        "flags: %d" % len(p.flag_graph().flags),
        "faces: %d (including the two improper ones)" % len(p.faces),
    ]
    return "\n".join(lines) + "\n"


def cmd_build(args):
    e = _make(args.object)
    if args.format == "json":
        data = to_json(e.polytope)
        data["object"] = args.object
        data["graph"] = e.graph.to_json()
        _emit(_dump_json(data), args.output)
    else:
        _emit(_build_text(args.object, e), args.output)
    return 0


def cmd_colorings(args):
    e = hemicube_embedding()

    def row(c):
        # (a) every color class has an edge in each direction;
        # (b) every square of the regular polytope shows all four colors
        return {
            "colors": list(c.colors),
            "transversal_to_directions": classes_hit_all_directions(e, c),
            "all_colors_on_every_square": squares_see_all_colors(e, c),
        }

    regular = row(e.direction_coloring)
    found = enumerate_matching_colorings(
        e.graph, up_to_color_permutation=args.up_to_color_permutation)
    rows = [row(c) for c in found]
    chiral = [(c, r) for c, r in zip(found, rows) if r["transversal_to_directions"]]
    twins = [r for c, r in chiral if c == c.canonical()]  # one row per class
    if args.format == "json":
        data = {
            "edge_order": [list(pr) for pr in e.graph.edge_pairs],
            "regular": regular,
            "twins": twins,
            "up_to_color_permutation": args.up_to_color_permutation,
            "n_colorings": len(rows),
            "n_transversal": len(chiral),
            "colorings": rows,
        }
        _emit(_dump_json(data), args.output)
    else:
        def named(name, r):
            return "  %-8s %s  (a) %-5s  (b) %s" % (
                name, "".join(str(c) for c in r["colors"]),
                r["transversal_to_directions"],
                r["all_colors_on_every_square"])

        lines = ["named colorings, annotated with",
                 "(a) each color class has an edge in every direction,",
                 "(b) every square of the regular polytope shows all four colors:",
                 named("regular", regular),
                 named("twin", twins[0]), named("mirror", twins[1]),
                 "",
                 "exhaustive matching 4-coloring search"
                 + (" (up to renaming colors)" if args.up_to_color_permutation else ""),
                 "total: %d, transversal to directions: %d" % (len(rows), len(chiral))]
        for r in rows:
            mark = "*" if r["transversal_to_directions"] else " "
            lines.append(" %s %s" % (mark, "".join(str(c) for c in r["colors"])))
        lines.append("(* marks the chiral twins: no reflection fixes them)")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_verify(args):
    from .classify import verify_paper  # the one verb that reads classify

    report = verify_paper()
    _emit(_dump_json(report.to_json()) if args.format == "json" else report.to_text(),
          args.output)
    return 0 if report.passed else 1


def cmd_export(args):
    _emit(off_text(_make(args.object), comment="object %s" % args.object),
          args.output)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="chiralcube",
        description="colourful polytopes over the quotient 4-cube: "
                    "build, search, verify, export")
    sub = ap.add_subparsers(dest="verb", required=True)

    p_build = sub.add_parser("build", help="construct a polytope")
    p_build.add_argument("object", choices=OBJECTS)
    p_build.add_argument("--format", choices=("json", "text"), default="json")
    p_build.add_argument("--output", default=None)
    p_build.set_defaults(fn=cmd_build)

    p_col = sub.add_parser("colorings", help="search matching colorings")
    p_col.add_argument("--up-to-color-permutation", action="store_true")
    p_col.add_argument("--format", choices=("json", "text"), default="json")
    p_col.add_argument("--output", default=None)
    p_col.set_defaults(fn=cmd_colorings)

    p_ver = sub.add_parser("verify", help="run all checks")
    p_ver.add_argument("--format", choices=("json", "text"), default="text")
    p_ver.add_argument("--output", default=None)
    p_ver.set_defaults(fn=cmd_verify)

    p_exp = sub.add_parser("export", help="write OFF geometry")
    p_exp.add_argument("object", choices=OBJECTS)
    p_exp.add_argument("--output", default=None)
    p_exp.set_defaults(fn=cmd_export)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
