"""Command-line front end.

Subcommands: coeffs, relations, roots, structconst, verify, chars, eval.
Matrix source is either --preset NAME (affine presets end in "~") or
--matrix-file PATH (one row per line, whitespace-separated integers).
Exit status: 0 all checks pass, 1 a check failed (or an identity broke while
building a table), 2 bad input (a `BadInput` or an `OSError`), 141 the reader
of stdout closed it early (as a shell reports a SIGPIPE death); any other
exception is a fault and propagates.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .cartan import parse_matrix_text, preset, validate
from .characters import character_from_values, character_space, even_column_set, symplectic_closed_form
from .exact_math import BadInput, IdentityViolation, signed_sum
from .freelie import ad_power, parse_bracket
from .loop import YIndex
from .onsager import FiniteRealization, psi_eval, realization_class, realization_for
from .roots import AffineRoot, root_str
from .serre_coeffs import coeff_row, coeff_table
from .verify import check_onsager_structure, verification_suite

SCHEMA = 1


class UsageFault(BadInput):
    pass


# ---------------------------------------------------------------------------
# report builders (plain JSON-native dicts; --json output is write_json)
# ---------------------------------------------------------------------------

def coeffs_report(a, rmax):
    rows = coeff_table(a, rmax)
    return {
        "schema": SCHEMA,
        "kind": "coeffs",
        "rows": [{"a": row.a, "r": row.r, "c": list(row.c)} for row in rows],
    }


def print_coeffs(report):
    for row in report["rows"]:
        print("r=%d: (%s)" % (row["r"], ", ".join(str(x) for x in row["c"])))


def relations_report(c):
    out = []
    for i in c.labels:
        for j in c.labels:
            if i == j:
                continue
            a = c.entry(i, j)
            row = coeff_row(a, 1 - a)
            out.append({"i": i, "j": j, "a": a, "coeffs": list(row.c)})
    return {"schema": SCHEMA, "kind": "relations", "relations": out}


def print_relations(report):
    for rel in report["relations"]:
        i, j, coeffs = rel["i"], rel["j"], rel["coeffs"]
        top = len(coeffs) - 1
        rhs = [(-coeffs[s], repr(ad_power(i, j, s))) for s in range(top) if coeffs[s]]
        print("%r = %s   (a_ij = %d)" % (ad_power(i, j, top), signed_sum(rhs), rel["a"]))


def roots_report(c, H):
    return {"schema": SCHEMA, "kind": "roots", **realization_class(c).root_listing(c, H)}


def print_roots(report):
    if report["type"] == "finite":
        for row in report["roots"]:
            print("ht %2d  %s" % (row["height"], root_str(row["coords"])))
    else:
        for row in report["roots"]:
            gamma = AffineRoot(tuple(row["finite"]), row["level"])
            print("ht %2d  %-18s mult %d" % (row["height"], gamma, row["mult"]))


def structconst_report(c, H):
    rz = realization_for(c)
    if rz.onsager_table:
        if H is not None:
            raise UsageFault("--height does not apply to the A1~ Onsager table (|k|, |l| <= 2)")
        _, ok, detail = check_onsager_structure(2)
        if not ok:
            raise IdentityViolation(detail)
        table = [{"lhs": ["A%d" % k, "A%d" % l], "rhs": "G%d" % (l - k)}
                 for k in range(-2, 3) for l in range(-2, 3)]
        return {"schema": SCHEMA, "kind": "structconst", "type": "onsager", "brackets": table}
    keys = [k for k, _ in rz.basis(H or rz.structconst_height)]
    # each basis number's key and JSON form, and each (number, coeff) term,
    # made once and shared by every row that holds it
    key_of = {rz.number(k): k for k in keys}
    form = {n: rz.key_json(k) for n, k in key_of.items()}
    terms = {}
    # each unordered pair once, first member earlier in the realization's pair order
    rank = {k: j for j, k in enumerate(rz.pair_order(keys))}
    basis = [(n, rank[k]) for n, k in key_of.items()]
    pairs = []
    for n1, r1 in basis:
        for n2, r2 in basis:
            if r2 > r1:
                coords = rz.basis_bracket(n1, n2)
                for n in coords:
                    if n not in key_of:
                        key_of[n] = k = rz.index(n)
                        form[n] = rz.key_json(k)
                rhs = []
                for n in sorted(coords, key=key_of.__getitem__):
                    t = n, coords[n]
                    if t not in terms:
                        terms[t] = {rz.KEY_FIELD: form[n], "coeff": rz.coeff_json(t[1])}
                    rhs.append(terms[t])
                pairs.append({"lhs": [form[n1], form[n2]], "rhs": rhs})
    return {"schema": SCHEMA, "kind": "structconst", **rz.structconst_fields(pairs)}


def print_structconst(report):
    if report["type"] == "onsager":
        for row in report["brackets"]:
            print("[%s, %s] = %s" % (row["lhs"][0], row["lhs"][1], row["rhs"]))
        return
    if report["type"] == "finite":
        print("# nonzero [e_a, e_b] = N e_{a+b}")
        for row in report["ntable"]:
            print("N(%s, %s) = %d" % (root_str(row["alpha"]), root_str(row["beta"]), row["N"]))
        print("# fixed-basis brackets")
        rows, field, name = report["ybrackets"], "coords", FiniteRealization.y_str
    else:
        rows, field = report["brackets"], "idx"

        def name(d):
            return str(YIndex(AffineRoot(tuple(d["finite"]), d["level"]), d["i"]))
    for row in rows:
        rhs = signed_sum([(Fraction(t["coeff"]), name(t[field])) for t in row["rhs"]])
        print("[%s, %s] = %s" % (name(row["lhs"][0]), name(row["lhs"][1]), rhs))


def verify_report(c, jmax=None, H=None):
    rows = verification_suite(c, jmax=jmax, height=H)
    return {
        "schema": SCHEMA,
        "kind": "verify",
        "matrix": [list(r) for r in c.a],
        "type": c.typename or c.kind,
        "checks": [
            {"name": name, "pass": bool(passed), "detail": detail}
            for name, passed, detail in rows
        ],
    }


def print_verify(report):
    for row in report["checks"]:
        print("%s  %s (%s)" % ("PASS" if row["pass"] else "FAIL", row["name"], row["detail"]))


def chars_report(c, H=None):
    # the preset C types report each value beside its closed form
    rz, gens, closed = symplectic_closed_form(c) or (realization_for(c), None, None)
    H = H or rz.character_window
    space = character_space(rz, H)
    if closed:
        func = character_from_values(space, gens)
        values = [{"basis": rz.key_str(key), "value": str(Fraction(func.get(key, 0))),
                   "closed_form": str(Fraction(closed(key)))} for key in space.keys]
    else:
        values = [{"basis": rz.key_str(key), "functional": b, "value": str(Fraction(func[key]))}
                  for b, func in enumerate(space.basis) for key in space.keys if func.get(key, 0)]
    return {
        "schema": SCHEMA,
        "kind": "chars",
        "even_columns": sorted(even_column_set(c)),
        "window": H,
        "dimension": space.dimension,
        "values": values,
    }


def print_chars(report):
    print("even-column generator set: %s" % (report["even_columns"],))
    print("character space dimension: %d (window height %d)" % (report["dimension"], report["window"]))
    for row in report["values"]:
        if "closed_form" in row:
            mark = "ok" if row["value"] == row["closed_form"] else "DIFFERS"
            print("chi(%s) = %s  closed form %s [%s]" % (row["basis"], row["value"], row["closed_form"], mark))
        else:
            print("functional %d: chi(%s) = %s" % (row.get("functional", 0), row["basis"], row["value"]))


def eval_report(c, text):
    expr = parse_bracket(text)
    unknown = sorted(expr.labels() - set(c.labels))
    if unknown:
        raise UsageFault("generator labels %s outside %s" % (unknown, list(c.labels)))
    rz = realization_for(c)
    coords = {rz.index(n): v for n, v in psi_eval(rz, expr).items()}
    terms = [{"basis": rz.y_str(k), rz.KEY_FIELD: rz.key_json(k), "coeff": str(Fraction(v))}
             for k, v in sorted(coords.items())]
    return {"schema": SCHEMA, "kind": "eval", "expr": text, "terms": terms}


def print_eval(report):
    parts = [(Fraction(t["coeff"]), t["basis"]) for t in report["terms"]]
    print("%s -> %s" % (report["expr"], signed_sum(parts)))


# ---------------------------------------------------------------------------
# the command table: every subcommand and option, declared once
# ---------------------------------------------------------------------------

# an option is add_argument's name and keywords; a name without "--" is the
# command's one positional argument
JSON = ("--json", {"action": "store_true"})
HEIGHT = ("--height", {"type": int})
SOURCES = [
    ("--preset", {"help": "named Cartan matrix, e.g. A2, C3, G2, A1~, C2~"}),
    ("--matrix-file", {"help": "path to a whitespace-separated integer matrix"}),
]

# command -> (help, takes one of SOURCES, options in help order after it)
COMMANDS = {
    "coeffs": ("relation coefficient table for one Cartan entry", False, [
        ("--a", {"type": int, "required": True, "help": "Cartan entry a_ij"}),
        ("--rmax", {"type": int, "default": 5}),
        JSON,
    ]),
    "relations": ("defining relations of the algebra", True, [JSON]),
    "roots": ("positive roots with heights and multiplicities", True, [HEIGHT, JSON]),
    "structconst": ("structure constants over the fixed basis", True, [HEIGHT, JSON]),
    "verify": ("run all applicable identity checks", True,
               [("--jmax", {"type": int}), HEIGHT, JSON]),
    "chars": ("one-dimensional representation report", True, [HEIGHT, JSON]),
    "eval": ("evaluate a bracket expression in the fixed subalgebra", True,
             [("expr", {"help": "e.g. \"[B1,[B1,B2]]\""}), JSON]),
}


def build_parser():
    import argparse  # only argv that read_plain_argv declines builds the parser

    p = argparse.ArgumentParser(
        prog="onsager-kit",
        description="exact construction and verification of generalized Onsager algebras",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for command, (text, sourced, options) in COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        if sourced:
            grp = sp.add_mutually_exclusive_group(required=True)
            for name, kw in SOURCES:
                grp.add_argument(name, **kw)
        for name, kw in options:
            sp.add_argument(name, **kw)
    return p


def read_plain_argv(argv):
    """The attributes of the Namespace that build_parser().parse_args(argv)
    gives, in a SimpleNamespace read without building the parser, or None
    when argv is not plain.

    Plain is: the command, then exact full option names, each at most once,
    exactly one matrix source where the command takes one, every required
    option and positional present, no value or positional starting with "-",
    and int values that int() reads.  Everything else (abbreviations,
    --opt=value, -h, repeats, bad values, usage errors) is left to argparse,
    the one source of help, usage and error text.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, sourced, options = COMMANDS[argv[0]]
    spec = dict(SOURCES + options if sourced else options)
    positionals = [name for name in spec if not name.startswith("-")]
    values = {}
    rest = iter(argv[1:])
    for tok in rest:
        if not tok.startswith("-"):
            if not positionals:
                return None
            values[positionals.pop(0)] = tok
            continue
        kw = spec.get(tok)
        if kw is None or tok in values:
            return None
        if "action" in kw:
            values[tok] = True
            continue
        value = next(rest, "-")  # a missing value is declined like "-..."
        if value.startswith("-"):
            return None
        try:
            values[tok] = kw.get("type", str)(value)
        except ValueError:
            return None
    if positionals or sum(name in values for name, _ in SOURCES) != sourced:
        return None
    if any(kw.get("required") and name not in values for name, kw in options):
        return None
    args = SimpleNamespace(command=argv[0])
    for name, kw in spec.items():
        default = False if "action" in kw else kw.get("default")
        setattr(args, name.lstrip("-").replace("-", "_"), values.get(name, default))
    return args


def _load_matrix(args):
    if args.matrix_file is None:
        return preset(args.preset)
    try:
        with open(args.matrix_file, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise UsageFault("%s is not UTF-8 text: %s" % (args.matrix_file, exc)) from None
    return validate(parse_matrix_text(text))


def run(args) -> int:
    for bound, least, word in (("rmax", 0, "non-negative"), ("jmax", 1, "positive"), ("height", 1, "positive")):
        val = getattr(args, bound, None)
        if val is not None and val < least:
            raise UsageFault("--%s must be %s" % (bound, word))
    if args.command == "coeffs":
        report, printer = coeffs_report(args.a, args.rmax), print_coeffs
    else:
        c = _load_matrix(args)
        if args.command != "relations":  # every other command works in a realization
            realization_class(c, args.command)
        if args.command == "relations":
            report, printer = relations_report(c), print_relations
        elif args.command == "roots":
            report, printer = roots_report(c, args.height), print_roots
        elif args.command == "structconst":
            report, printer = structconst_report(c, args.height), print_structconst
        elif args.command == "verify":
            report, printer = verify_report(c, jmax=args.jmax, H=args.height), print_verify
        elif args.command == "chars":
            report, printer = chars_report(c, args.height), print_chars
        else:
            report, printer = eval_report(c, args.expr), print_eval
    if args.json:
        write_json(report, sys.stdout.write)
    else:
        printer(report)
    # a failed verify row or a chars value off its closed form
    ok = all(row["pass"] for row in report.get("checks", ())) and all(
        row.get("closed_form", row["value"]) == row["value"] for row in report.get("values", ()))
    return 0 if ok else 1


BATCH = 4096  # chunks per write, so a large report is never one string


def write_json(value, write):
    """Write json.dumps(value, indent=2, sort_keys=True) and a newline through
    write(), byte for byte, in batches of BATCH chunks.  Dict keys are str.

    A dict or list met again (report builders share them: `structconst`
    holds one key form per basis number and one term per (number, coeff))
    is rendered once more and its text kept, and each later meeting at the
    same indent writes the kept text.  This is exact: nothing is mutated
    during a write, so an object's id names it for the whole write and its
    text at one indent never changes; the kept text is keyed by both.  Only
    objects met twice keep text.  A batch is flushed only after an object
    met for the first time, and everything inside an object met again was
    met before, so no flush falls inside text being kept.
    """
    import json  # only --json writes JSON
    from json.encoder import encode_basestring_ascii

    chunks = []
    seen, kept = set(), {}  # ids of the containers met; (id, indent) -> text

    def walk(x, nl):
        if type(x) is str:
            chunks.append(encode_basestring_ascii(x))
            return
        if type(x) is int:
            chunks.append(int.__repr__(x))
            return
        if not isinstance(x, (dict, list, tuple)):
            chunks.append(json.dumps(x))
            return
        if not x:
            chunks.append("{}" if isinstance(x, dict) else "[]")
            return
        again = id(x) in seen
        if again:
            text = kept.get((id(x), nl))
            if text is not None:
                chunks.append(text)
                return
            start = len(chunks)
        else:
            seen.add(id(x))
        inner = nl + "  "
        if isinstance(x, dict):
            sep = "{" + inner
            for key in sorted(x):
                chunks.append(sep)
                chunks.append(encode_basestring_ascii(key))
                chunks.append(": ")
                walk(x[key], inner)
                sep = "," + inner
            chunks.append(nl + "}")
        else:
            sep = "[" + inner
            for item in x:
                chunks.append(sep)
                walk(item, inner)
                sep = "," + inner
            chunks.append(nl + "]")
        if again:
            text = kept[id(x), nl] = "".join(chunks[start:])
            chunks[start:] = [text]
        elif len(chunks) >= BATCH:
            write("".join(chunks))
            chunks.clear()

    walk(value, "\n")
    chunks.append("\n")
    write("".join(chunks))


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_plain_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout is gone (`| head`): point stdout at the null
        # device so the interpreter's last flush is quiet, and exit as a
        # shell reports a process killed by SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except IdentityViolation as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (BadInput, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
