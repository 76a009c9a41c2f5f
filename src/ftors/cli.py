"""Command line interface.

Subcommands and the flags each one reads (every one takes --out FILE):
  classify FILE        exact type of the quiver (finite / tame / wild);
                       --format {text,json}
  run knit FILE        knit the full AR quiver (finite type);
                       --prime, --seed, --format {text,json,dot}
  run tors FILE        torsion class poset and lattice check;
                       --prime, --seed, --dim-bound, --format {text,json,dot}
  run extpair FILE     find and verify a double-extension pair;
                       --prime, --seed, --format {text,json}
  run nocover FILE     no-cover evidence along an extension cycle;
                       --prime, --seed, --loewy-bound, --format {text,json}

Arguments are parsed from one command table, COMMANDS, which also generates
the help (-h or --help at any level; exit 0).  A command takes one QUIVER and
only its own options, each named in full, as --flag value or --flag=value.
A flag that a subcommand does not read, a missing or non-integer value,
--format dot where there is no graph, or an unknown command prints a usage
line and an error and exits 2 before any quiver is loaded; a --prime,
--dim-bound or --loewy-bound out of range exits 2 at the same point.

Exit codes: 0 verified, 1 verification failed, 2 bad input, 3 inconclusive,
4 input/output error, 5 internal error (a bug, such as a failed self-check).
A run is inconclusive when run tors gets a quiver of infinite type on more
than two vertices or a wild two-vertex quiver, when the case analysis of
extpair does not cover the shape (ExtPairInconclusive), when a module's
decomposition is not decided (DecompositionInconclusive), or when a pair
has more lines of Ext than MIDDLE_CAP (ExtensionCapError).
Reports are byte deterministic: JSON is emitted with sorted keys and no
timestamps.  Only the sampled modules of run tors on two-vertex tame
quivers read --seed; every other report, extpair and nocover included, is
the same at every seed.
"""

from __future__ import annotations

import json
import random
import sys
from types import SimpleNamespace

from . import linalg as la
from .quiver import (
    QuiverError,
    ValuedQuiver,
    classify_type,
    load_quiver,
    radical_vector,
    valuation_v,
)
from .modules import DecompositionInconclusive, ExtensionCapError, rep_to_json
from .ext_pairs import ExtPairInconclusive, find_ext_pair

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _emit(payload, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = payload
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load(path: str) -> ValuedQuiver:
    try:
        return load_quiver(path)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc}") from exc
    except QuiverError as exc:
        raise CliError(EXIT_BAD_INPUT, f"bad quiver file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# classify

def cmd_classify(args) -> int:
    q = _load(args.quiver)
    qt = classify_type(q)
    lattice = qt.representation_finite or q.n <= 2
    if qt.representation_finite:
        reason = "representation finite"
    elif q.n <= 2:
        reason = "at most two simple modules"
    else:
        reason = "representation infinite with at least three simple modules"
    data = {
        "vertices": q.n,
        "arrows": q.m,
        "simples": q.n,
        "family": qt.family,
        "type": qt.display(),
        "representation_finite": qt.representation_finite,
        "tame": qt.tame,
        "valuations": [
            {"from": a.source + 1, "to": a.target + 1,
             "v": valuation_v(q, a.source, a.target)}
            for a in sorted({(a.source, a.target): a for a in q.arrows}.values(),
                            key=lambda a: (a.source, a.target))
        ],
        "ftors_lattice": lattice,
        "lattice_reason": reason,
    }
    if qt.family == "euclidean":
        data["radical_vector"] = list(radical_vector(q))
    if args.format == "json":
        _emit(data, "json", args.out)
    else:
        lines = [f"{k}: {data[k]}" for k in
                 ("vertices", "arrows", "simples", "family", "type",
                  "representation_finite", "tame")]
        if "radical_vector" in data:
            lines.append(f"radical_vector: {data['radical_vector']}")
        for entry in data["valuations"]:
            lines.append(f"valuation {entry['from']} -> {entry['to']}: {entry['v']}")
        lines.append(
            f"ftors {'is a lattice' if lattice else 'is NOT a lattice'} ({reason})")
        _emit("\n".join(lines) + "\n", "text", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# run knit

def cmd_knit(args) -> int:
    from .ar_quiver import ar_quiver_dot, knit_ar_quiver

    q = _load(args.quiver)
    qt = classify_type(q)
    if not qt.representation_finite:
        raise CliError(EXIT_BAD_INPUT,
                       f"knitting needs a representation-finite quiver, got {qt.display()}")
    ar = knit_ar_quiver(q, args.prime)
    if args.format == "dot":
        _emit(ar_quiver_dot(ar), "text", args.out)
        return EXIT_OK
    data = {
        "type": qt.display(),
        "prime": args.prime,
        "modules": [
            {
                "index": node.index,
                "dim": list(node.dims),
                "projective": node.index in ar.projectives,
                "injective": node.index in ar.injectives,
            }
            for node in ar.nodes
        ],
        "irreducible_maps": [
            {"from": i, "to": j, "multiplicity": mult}
            for (i, j), mult in sorted(ar.arrows.items())
        ],
        "translates": [
            {"module": y, "translate": ty} for y, ty in sorted(ar.translate.items())
        ],
    }
    if args.format == "json":
        _emit(data, "json", args.out)
    else:
        lines = [f"type {qt.display()}  modules {len(ar.nodes)}  "
                 f"maps {len(ar.arrows)}  translates {len(ar.translate)}"]
        for node in ar.nodes:
            tags = "".join(
                t for t, m in (("P", node.index in ar.projectives),
                               ("I", node.index in ar.injectives)) if m)
            lines.append(f"module {node.index}  dim {','.join(map(str, node.dims))}"
                         + (f"  {tags}" if tags else ""))
        for (i, j), mult in sorted(ar.arrows.items()):
            lines.append(f"map {i} -> {j}  mult {mult}")
        for y, ty in sorted(ar.translate.items()):
            lines.append(f"translate {y} -> {ty}")
        _emit("\n".join(lines) + "\n", "text", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# run tors

def _hasse_dot(classes, edges) -> str:
    lines = ["digraph torsion_classes {", "  rankdir=\"BT\";", "  node [shape=box];"]
    for idx, cls in enumerate(classes):
        label = "{" + ",".join(str(m) for m in sorted(cls)) + "}"
        lines.append(f'  c{idx} [label="{label}"];')
    for a, b in edges:
        lines.append(f"  c{a} -> c{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_tors(args) -> int:
    from .tors import (
        enumerate_torsion_classes,
        find_cover,
        finite_universe,
        lattice_check,
        two_vertex_check,
    )

    q = _load(args.quiver)
    qt = classify_type(q)

    if qt.representation_finite:
        u = finite_universe(q, args.prime)
        classes, edges = enumerate_torsion_classes(u)
        report = lattice_check(u, classes, edges)
        if args.format == "dot":
            _emit(_hasse_dot(classes, edges), "text", args.out)
            return EXIT_OK if report.is_lattice else EXIT_FAILED
        covers = [find_cover(u, c) for c in classes]
        data = {
            "mode": "exact",
            "type": qt.display(),
            "universe": [list(m.dims) for m in u.modules],
            "classes": [sorted(c) for c in classes],
            "covers": [list(c.dims) for c in covers],
            "class_count": report.class_count,
            "hasse_edges": [list(e) for e in edges],
            "edge_count": report.edge_count,
            "lattice": {
                "meets_ok": not report.meet_failures,
                "failures": [list(f) for f in report.meet_failures],
            },
            "is_lattice": report.is_lattice,
        }
        if args.format == "json":
            _emit(data, "json", args.out)
        else:
            lines = [f"type {qt.display()}  classes {report.class_count}  "
                     f"edges {report.edge_count}  lattice {report.is_lattice}"]
            for idx, c in enumerate(classes):
                dims = ["(" + ",".join(map(str, u.modules[m].dims)) + ")" for m in sorted(c)]
                lines.append(f"class {idx}  " + (" ".join(dims) if dims else "empty")
                             + f"  cover ({','.join(map(str, covers[idx].dims))})")
            for a, b in edges:
                lines.append(f"edge {a} -> {b}")
            _emit("\n".join(lines) + "\n", "text", args.out)
        return EXIT_OK if report.is_lattice else EXIT_FAILED

    if args.format == "dot":
        raise CliError(EXIT_BAD_INPUT, "dot output needs the exact finite mode")
    if q.n == 2:
        report = two_vertex_check(q, args.prime, args.dim_bound, random.Random(args.seed))
        data = {
            "mode": "bounded",
            "type": qt.display(),
            "verdict": report.verdict,
            "universe_size": report.universe_size,
            "class_count": report.class_count,
            "failures": [list(f) for f in report.failures],
            "notes": report.notes,
        }
        if args.format == "json":
            _emit(data, "json", args.out)
        else:
            lines = [f"type {qt.display()}  verdict {report.verdict}",
                     f"universe {report.universe_size}  classes {report.class_count}",
                     f"notes: {report.notes}"]
            _emit("\n".join(lines) + "\n", "text", args.out)
        if report.verdict == "inconclusive":
            return EXIT_INCONCLUSIVE
        return EXIT_OK if report.verdict == "consistent" else EXIT_FAILED

    raise CliError(
        EXIT_INCONCLUSIVE,
        f"no bounded torsion analysis for {qt.display()} on {q.n} vertices; "
        "use extpair or nocover for the negative certificates")


# ---------------------------------------------------------------------------
# run extpair

def cmd_extpair(args) -> int:
    q = _load(args.quiver)
    qt = classify_type(q)
    if qt.representation_finite or q.n <= 2:
        raise CliError(
            EXIT_BAD_INPUT,
            "double-extension pairs need a representation-infinite quiver "
            "on at least three vertices (none exist otherwise)")
    cert = find_ext_pair(q, args.prime)
    data = {
        "type": qt.display(),
        "pair_exists": True,
        "case": cert.case,
        "prime": args.prime,
        "X": rep_to_json(cert.X),
        "Y": rep_to_json(cert.Y),
        "checks": cert.report.numbers,
        "verified": cert.report.ok,
        "detail": cert.detail,
    }
    if args.format == "json":
        _emit(data, "json", args.out)
    else:
        n = cert.report.numbers
        lines = [
            f"type {qt.display()}  case {cert.case}  verified {cert.report.ok}",
            f"X dim ({','.join(map(str, cert.X.dims))})",
            f"Y dim ({','.join(map(str, cert.Y.dims))})",
            f"end(X) {n['end_x']}  end(Y) {n['end_y']}  "
            f"ext(X,X) {n['ext_xx']}  ext(Y,Y) {n['ext_yy']}",
            f"hom(X,Y) {n['hom_xy']}  hom(Y,X) {n['hom_yx']}  "
            f"ext(X,Y) {n['ext_xy']}  ext(Y,X) {n['ext_yx']}",
        ]
        _emit("\n".join(lines) + "\n", "text", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# run nocover

def cmd_nocover(args) -> int:
    from .tors import no_cover_evidence
    from .tubes import find_regular_simples

    q = _load(args.quiver)
    qt = classify_type(q)
    if qt.representation_finite or q.n <= 2:
        raise CliError(
            EXIT_BAD_INPUT,
            "no extension cycles exist for a representation-finite algebra; "
            "this evidence needs a representation-infinite quiver on at "
            "least three vertices")
    if qt.family == "euclidean":
        tubes = find_regular_simples(q, args.prime)
        cycle = tubes[0].simples
        source = f"tube of rank {tubes[0].rank}"
    else:
        cert = find_ext_pair(q, args.prime)
        cycle = (cert.X, cert.Y)
        source = f"double-extension pair (case {cert.case})"
    evidence = no_cover_evidence(cycle, args.loewy_bound)
    data = {
        "type": qt.display(),
        "cycle": [list(m.dims) for m in cycle],
        "cycle_source": source,
        "loewy_bound": evidence.bound,
        "universe_size": evidence.universe_size,
        "witnesses": [
            {"level": r, "serial_dim": list(dims), "generated_below": gen}
            for r, dims, gen in evidence.witnesses
        ],
        "generation_preserves_level": evidence.monotone_ok,
        "verified": evidence.ok,
    }
    if args.format == "json":
        _emit(data, "json", args.out)
    else:
        lines = [f"type {qt.display()}  cycle {source}",
                 f"universe {evidence.universe_size}  bound {evidence.bound}  "
                 f"verified {evidence.ok}"]
        for r, dims, gen in evidence.witnesses:
            lines.append(f"level {r}: serial ({','.join(map(str, dims))}) "
                         f"generated below: {gen}")
        lines.append(f"generation preserves level: {evidence.monotone_ok}")
        _emit("\n".join(lines) + "\n", "text", args.out)
    return EXIT_OK if evidence.ok else EXIT_FAILED


# ---------------------------------------------------------------------------

# The command table: every run is parsed from it and its help is generated
# from it.  Each flag takes an integer: (default, help).
FLAGS = {
    "--prime": (5, "field size, a prime below 2^31"),
    "--seed": (0, "seed of the sampled regular modules of run tors on two-vertex tame quivers"),
    "--dim-bound": (12, "total dimension bound for bounded checks, at least 1"),
    "--loewy-bound": (4, "layer bound for no-cover evidence, at least 2"),
}
TEXT_JSON = ("text", "json")
WITH_DOT = ("text", "json", "dot")

# command path: (handler, help, formats, flags).  Each handler reads exactly
# its flags, except that knit, extpair and nocover never read --seed (they
# draw nothing); they keep it because the benchmark appends --seed to every
# command it runs.
COMMANDS = {
    "classify": (cmd_classify, "exact representation type", TEXT_JSON, ()),
    "run knit": (cmd_knit, "knit the AR quiver", WITH_DOT, ("--prime", "--seed")),
    "run tors": (cmd_tors, "torsion class poset and lattice check", WITH_DOT,
                 ("--prime", "--seed", "--dim-bound")),
    "run extpair": (cmd_extpair, "find a verified double-extension pair", TEXT_JSON,
                    ("--prime", "--seed")),
    "run nocover": (cmd_nocover, "no-cover evidence along a cycle", TEXT_JSON,
                    ("--prime", "--seed", "--loewy-bound")),
}
HELP = ("-h", "--help")


class UsageError(Exception):
    """Arguments that the command table refuses, found at the given command
    path; main reports it with the path's usage line and exits 2."""

    def __init__(self, path: str, message: str):
        super().__init__(message)
        self.path = path


def _under(path: str) -> list[str]:
    """The command paths that path names or begins."""
    return [c for c in COMMANDS if not path or c == path or c.startswith(path + " ")]


def _choices(path: str) -> list[str]:
    """The words that can follow path, a prefix of command paths."""
    return list(dict.fromkeys(c[len(path):].split()[0] for c in _under(path)))


def _options(path: str) -> list[tuple[str, str]]:
    """(option with its value, help) of each option the command takes."""
    _, _, formats, flags = COMMANDS[path]
    return ([(f"{flag} N", "{1} (default {0})".format(*FLAGS[flag])) for flag in flags]
            + [(f"--format {{{','.join(formats)}}}", "report format (default text)"),
               ("--out FILE", "write the report to FILE (default stdout)")])


def _usage(path: str) -> str:
    if path in COMMANDS:
        return f"usage: ftors {path} [-h] QUIVER " + " ".join(
            f"[{option}]" for option, _ in _options(path))
    return f"usage: {f'ftors {path}'.rstrip()} [-h] {{{','.join(_choices(path))}}} ..."


def _help(path: str) -> str:
    """Help for every command under path: its usage, what it does, and each
    option with its default."""
    lines = [_usage(path), "",
             "exact torsion-class toolkit for quiver representations over F_p",
             "QUIVER is a quiver file (text or JSON)"]
    for command in _under(path):
        lines += ["", f"ftors {command} QUIVER: {COMMANDS[command][1]}"]
        lines += [f"  {option:<26}{text}" for option, text in _options(command)]
    lines += ["", "exit codes: 0 verified, 1 verification failed, 2 bad input, "
                  "3 inconclusive, 4 input/output error, 5 internal error"]
    return "\n".join(lines) + "\n"


def _parse(argv: list[str]):
    """(command path, arguments) read off the command table; the arguments
    are None when help is asked for.  Raises UsageError on anything else
    than the command words, one QUIVER and the command's own options."""
    path, rest = "", list(argv)
    while path not in COMMANDS:
        what, words = "task" if path else "command", _choices(path)
        if not rest:
            raise UsageError(path, f"the following arguments are required: {what}")
        word = rest.pop(0)
        if word in HELP:
            return path, None
        if word not in words:
            raise UsageError(path, f"argument {what}: invalid choice: {word!r} "
                                   f"(choose from {', '.join(map(repr, words))})")
        path = f"{path} {word}".lstrip()
    _, _, formats, flags = COMMANDS[path]
    values = {"--format": "text", "--out": None, **{flag: FLAGS[flag][0] for flag in flags}}
    quiver, extra = None, []
    while rest:
        token = rest.pop(0)
        if token in HELP:
            return path, None
        if not token.startswith("-"):
            if quiver is None:
                quiver = token
            else:
                extra.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag not in values:
            extra.append(token)
            continue
        if not eq:
            # a negative number is a value; any other dash word is an option
            if not rest or rest[0].startswith("-") and not rest[0][1:].isdigit():
                raise UsageError(path, f"argument {flag}: expected one argument")
            value = rest.pop(0)
        if flag == "--format" and value not in formats:
            raise UsageError(path, f"argument --format: invalid choice: {value!r} "
                                   f"(choose from {', '.join(map(repr, formats))})")
        if flag in FLAGS:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(path, f"argument {flag}: invalid int value: "
                                       f"{value!r}") from None
        values[flag] = value
    if quiver is None:
        raise UsageError(path, "the following arguments are required: quiver")
    if extra:
        raise UsageError(path, f"unrecognized arguments: {' '.join(extra)}")
    return path, SimpleNamespace(quiver=quiver, **{
        flag[2:].replace("-", "_"): value for flag, value in values.items()})


def main(argv=None) -> int:
    try:
        path, args = _parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(_usage(exc.path), file=sys.stderr)
        print(f"{f'ftors {exc.path}'.rstrip()}: error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args is None:
        sys.stdout.write(_help(path))
        return EXIT_OK
    if hasattr(args, "prime"):
        try:
            la.check_prime(args.prime)
        except ValueError as exc:
            print(f"error: --prime: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    for flag, least in (("dim_bound", 1), ("loewy_bound", 2)):
        if getattr(args, flag, least) < least:
            print(f"error: --{flag.replace('_', '-')} must be at least {least}",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
    try:
        return COMMANDS[path][0](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ExtPairInconclusive, DecompositionInconclusive, ExtensionCapError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (QuiverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
