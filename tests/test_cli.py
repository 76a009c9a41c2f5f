"""The command line surface: exit codes, formats, determinism."""

import ast
import inspect
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ftors.cli import COMMANDS, FLAGS, main
from ftors.modules import DecompositionInconclusive, ExtensionCapError, rep_from_json
from ftors.ext_pairs import ExtPairInconclusive, verify_ext_pair
from ftors.quiver import load_quiver

ROOT = Path(__file__).resolve().parent.parent
QDIR = ROOT / "quivers"
A2 = str(QDIR / "a2.txt")
A3 = str(QDIR / "a3.txt")
KRONECKER = str(QDIR / "kronecker.txt")
A2TILDE = str(QDIR / "a2tilde.txt")
TWO_ONE = str(QDIR / "twoone.txt")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", A2)
    assert code == 0
    assert "type: A2" in out
    assert "valuation 1 -> 2: 1" in out
    assert "ftors is a lattice (representation finite)" in out


def test_classify_json_tame(capsys):
    code, out, _ = run(capsys, "classify", A2TILDE, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "A~2"
    assert data["simples"] == 3
    assert data["radical_vector"] == [1, 1, 1]
    assert data["ftors_lattice"] is False
    assert data["lattice_reason"].startswith("representation infinite")
    assert {(v["from"], v["to"]): v["v"] for v in data["valuations"]} == {
        (1, 2): 1, (2, 3): 1, (1, 3): 1}


def test_classify_json_kronecker_is_lattice(capsys):
    code, out, _ = run(capsys, "classify", KRONECKER, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ftors_lattice"] is True
    assert data["lattice_reason"] == "at most two simple modules"
    assert data["valuations"] == [{"from": 1, "to": 2, "v": 4}]


def rejected(capsys, *argv) -> str:
    """The command table refuses the arguments with exit 2 and a usage line;
    returns the stderr."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: ftors ")
    return err


def test_classify_rejects_dot(capsys):
    err = rejected(capsys, "classify", A2, "--format", "dot")
    assert "invalid choice: 'dot'" in err


def test_knit_formats(capsys):
    code, out, _ = run(capsys, "run", "knit", A2)
    assert code == 0
    assert "modules 3" in out
    code, out, _ = run(capsys, "run", "knit", A2, "--format", "json")
    data = json.loads(out)
    assert len(data["modules"]) == 3
    assert len(data["irreducible_maps"]) == 2
    assert len(data["translates"]) == 1
    code, out, _ = run(capsys, "run", "knit", A2, "--format", "dot")
    assert out.startswith("digraph")
    assert out.count("->") == 3


@pytest.mark.parametrize("name", ["d4", "e6"])
def test_knit_report_does_not_depend_on_the_prime(capsys, name):
    """The knitted modules, maps and translates come out the same over every
    prime field: only the prime key of the report tells them apart."""
    reports = []
    for prime in ("2", "5", "65537"):
        code, out, _ = run(capsys, "run", "knit", str(QDIR / f"{name}.txt"),
                           "--prime", prime, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data.pop("prime") == int(prime)
        reports.append(data)
    assert reports[0] == reports[1] == reports[2]


def test_knit_rejects_infinite(capsys):
    code, _, err = run(capsys, "run", "knit", KRONECKER)
    assert code == 2
    assert "representation-finite" in err


def test_tors_exact_json(capsys):
    code, out, _ = run(capsys, "run", "tors", A2, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "exact"
    assert data["class_count"] == 5
    assert data["edge_count"] == 5
    assert len(data["classes"]) == 5
    assert sorted(data["covers"]) == [[0, 0], [0, 1], [1, 0], [1, 1], [1, 2]]
    assert data["lattice"] == {"meets_ok": True, "failures": []}
    assert data["is_lattice"] is True


def test_tors_exact_text_and_dot(capsys):
    code, out, _ = run(capsys, "run", "tors", A2)
    assert code == 0
    assert "classes 5" in out and "lattice True" in out
    assert out.count("\nedge ") == 5
    code, out, _ = run(capsys, "run", "tors", A2, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 5


def test_tors_bounded_kronecker(capsys):
    code, out, _ = run(capsys, "run", "tors", KRONECKER,
                       "--format", "json", "--dim-bound", "6")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "bounded"
    assert data["verdict"] == "consistent"
    assert data["failures"] == []
    assert data["class_count"] > 2
    assert set(data) == {"mode", "type", "verdict", "universe_size", "class_count",
                         "failures", "notes"}


def _never_called(*args, **kwargs):
    raise AssertionError("the flags should be rejected before any computation")


@pytest.mark.parametrize("path", [KRONECKER, A2TILDE], ids=["kronecker", "a2tilde"])
def test_tors_bounded_rejects_dot(capsys, monkeypatch, path):
    monkeypatch.setattr("ftors.tors.two_vertex_check", _never_called)
    code, _, err = run(capsys, "run", "tors", path, "--format", "dot")
    assert code == 2
    assert "exact finite mode" in err


def test_extpair_rejects_dot(capsys, monkeypatch):
    monkeypatch.setattr("ftors.cli.find_ext_pair", _never_called)
    err = rejected(capsys, "run", "extpair", A2TILDE, "--format", "dot")
    assert "argument --format: invalid choice: 'dot'" in err


def test_nocover_rejects_dot(capsys, monkeypatch):
    monkeypatch.setattr("ftors.tors.no_cover_evidence", _never_called)
    monkeypatch.setattr("ftors.tubes.find_regular_simples", _never_called)
    err = rejected(capsys, "run", "nocover", A2TILDE, "--format", "dot")
    assert "argument --format: invalid choice: 'dot'" in err


def subcommands():
    """(name, handler, formats, flags) of each subcommand: classify and every
    run task, as the command table declares them."""
    for name, (handler, _, formats, flags) in COMMANDS.items():
        yield name, handler, formats, flags


def args_read(func) -> set:
    """The attributes of `args` that the handler's source reads."""
    tree = ast.parse(inspect.getsource(func))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}


def test_each_subcommand_declares_exactly_the_flags_it_reads():
    """A declared flag that the handler never reads would be accepted and
    ignored.  The one exception is --seed of run knit, run extpair and run
    nocover, which draw nothing: the benchmark appends --seed to every
    command."""
    options = formats = 0
    for name, handler, choices, flags in subcommands():
        dests = {flag[2:].replace("-", "_") for flag in flags} | {"format", "out"}
        reads = args_read(handler)
        assert "quiver" in reads and reads - {"quiver"} <= dests, name
        unread = {"seed"} if name in ("run knit", "run extpair", "run nocover") else set()
        assert dests - reads == unread, name
        options += len(dests)
        formats += len(choices)
    assert (options, formats) == (20, 12)


UNREAD = [
    ("classify", "--prime", "5"), ("classify", "--seed", "0"),
    ("classify", "--dim-bound", "6"), ("classify", "--loewy-bound", "3"),
    ("classify", "--format", "dot"),
    ("run knit", "--dim-bound", "6"), ("run knit", "--loewy-bound", "3"),
    ("run tors", "--loewy-bound", "3"),
    ("run extpair", "--dim-bound", "6"), ("run extpair", "--loewy-bound", "3"),
    ("run extpair", "--format", "dot"),
    ("run nocover", "--dim-bound", "6"), ("run nocover", "--format", "dot"),
]


@pytest.mark.parametrize("command, flag, value", UNREAD,
                         ids=[f"{c}{f}={v}".replace(" ", "-") for c, f, v in UNREAD])
def test_unread_flag_exits_2_before_load(capsys, monkeypatch, command, flag, value):
    monkeypatch.setattr("ftors.cli._load", _never_called)
    err = rejected(capsys, *command.split(), A2TILDE, flag, value)
    assert (f"unrecognized arguments: {flag} {value}" in err
            or f"invalid choice: '{value}'" in err)


USAGE_ERRORS = [
    ((), "the following arguments are required: command"),
    (("frob", A2), "argument command: invalid choice: 'frob' (choose from 'classify', 'run')"),
    (("run",), "the following arguments are required: task"),
    (("run", "frob", A2), "argument task: invalid choice: 'frob' "
                          "(choose from 'knit', 'tors', 'extpair', 'nocover')"),
    (("run", "tors", "--prime", "5"), "the following arguments are required: quiver"),
    (("run", "tors", A2, A3), f"unrecognized arguments: {A3}"),
    (("run", "tors", A2, "--prime", "x"), "argument --prime: invalid int value: 'x'"),
    (("run", "tors", A2, "--dim-bound=1.5"), "argument --dim-bound: invalid int value: '1.5'"),
    (("run", "tors", A2, "--prime"), "argument --prime: expected one argument"),
    (("run", "tors", A2, "--format", "--seed", "1"), "argument --format: expected one argument"),
    (("run", "extpair", A2, "--format=dot"), "argument --format: invalid choice: 'dot' "
                                            "(choose from 'text', 'json')"),
    (("classify", A2, "--prime=5"), "unrecognized arguments: --prime=5"),
    # options are named in full: argparse's abbreviations are gone
    (("run", "tors", A2, "--dim", "6"), "unrecognized arguments: --dim 6"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[" ".join(a).replace(A2, "A2").replace(A3, "A3") or "empty"
                              for a, _ in USAGE_ERRORS])
def test_usage_error_exits_2_before_load(capsys, monkeypatch, argv, message):
    """Each usage error prints the usage line of the command reached and one
    error line, and exits 2 before any quiver is read."""
    monkeypatch.setattr("ftors.cli._load", _never_called)
    err = rejected(capsys, *argv)
    usage, error = err.splitlines()
    prog, _, text = error.partition(": error: ")
    assert text == message
    assert usage.startswith(f"usage: {prog} [-h] ")


def test_option_with_equals_sign_matches_separate_value(capsys):
    spaced = run(capsys, "run", "tors", KRONECKER, "--dim-bound", "6", "--prime", "7",
                 "--format", "json")
    joined = run(capsys, "run", "tors", KRONECKER, "--dim-bound=6", "--prime=7", "--format=json")
    assert joined == spaced and spaced[0] == 0
    assert json.loads(spaced[1])["mode"] == "bounded"


def test_console_script_path_reads_sys_argv(capsys):
    """With argv None, main reads sys.argv, as the ftors console script and
    python -m ftors.cli do."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "ftors.cli", "classify", A2],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, "classify", A2)


@pytest.mark.parametrize("path", ["", "run", *COMMANDS], ids=lambda p: p or "top")
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_option_with_its_default(capsys, monkeypatch, path, flag):
    """Help at the top, at run and at each command is generated from the
    command table: every command under the path gets one block, naming each
    of its options with its default.  A help flag after the quiver still
    gives help, and nothing is loaded."""
    monkeypatch.setattr("ftors.cli._load", _never_called)
    argv = [*path.split(), *([A2] if path in COMMANDS else []), flag]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: ftors {path + ' ' if path else ''}[-h] ")
    blocks = {block.split(" QUIVER:")[0]: block.splitlines()[1:]
              for block in out.split("\n\n") if " QUIVER:" in block}
    under = [c for c in COMMANDS if c == path or c.startswith(path)]
    assert list(blocks) == [f"ftors {c}" for c in under]
    for command in under:
        _, _, formats, flags = COMMANDS[command]
        options = [(f"{f} N", f"(default {FLAGS[f][0]})") for f in flags]
        options += [(f"--format {{{','.join(formats)}}}", "(default text)"),
                    ("--out FILE", "(default stdout)")]
        lines = blocks[f"ftors {command}"]
        assert len(lines) == len(options), command
        for line, (option, default) in zip(lines, options):
            assert line.split()[:len(option.split())] == option.split(), command
            assert line.endswith(default), command


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_tors_rejects_dim_bound_below_one(capsys, monkeypatch, bound):
    monkeypatch.setattr("ftors.tors.two_vertex_check", _never_called)
    code, out, err = run(capsys, "run", "tors", KRONECKER, "--dim-bound", bound)
    assert code == 2
    assert out == ""
    assert "--dim-bound must be at least 1" in err


@pytest.mark.parametrize("bound", ["1", "0"])
def test_nocover_rejects_loewy_bound_below_two(capsys, monkeypatch, bound):
    monkeypatch.setattr("ftors.tors.no_cover_evidence", _never_called)
    code, out, err = run(capsys, "run", "nocover", A2TILDE, "--loewy-bound", bound)
    assert code == 2
    assert out == ""
    assert "--loewy-bound must be at least 2" in err


@pytest.mark.parametrize("prime", ["4", "25", "32768"])
@pytest.mark.parametrize("command", [("run", "knit"), ("run", "tors"),
                                     ("run", "extpair"), ("run", "nocover")])
def test_every_command_rejects_a_bad_prime(capsys, monkeypatch, command, prime):
    monkeypatch.setattr("ftors.cli._load", _never_called)
    code, out, err = run(capsys, *command, A2TILDE, "--prime", prime)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --prime: modulus {prime} ")


def test_tors_takes_a_prime_above_2_to_the_15(capsys):
    """Entries are Python ints, so a prime past 2^15 gives the classes of
    F_5; one class of Ext up to scalar passes the extension-class cap."""
    code, out, _ = run(capsys, "run", "tors", A2, "--prime", "65537", "--format", "json")
    assert code == 0
    data = json.loads(out)
    code, out, _ = run(capsys, "run", "tors", A2, "--format", "json")
    want = json.loads(out)
    assert data["class_count"] == want["class_count"] == 5
    assert data["classes"] == want["classes"] and data["is_lattice"] is True


def test_tors_inconclusive_beyond_scope(capsys):
    code, _, err = run(capsys, "run", "tors", TWO_ONE)
    assert code == 3
    assert "extpair or nocover" in err


def test_extpair_json_roundtrip(capsys):
    code, out, _ = run(capsys, "run", "extpair", A2TILDE, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["case"] == 2
    assert data["X"]["dim"] == [1, 0, 1]
    assert data["Y"]["dim"] == [0, 1, 0]
    q = load_quiver(A2TILDE)
    X = rep_from_json(q, data["prime"], data["X"])
    Y = rep_from_json(q, data["prime"], data["Y"])
    assert verify_ext_pair(X, Y).ok


def test_extpair_case4_detail(capsys):
    code, out, _ = run(capsys, "run", "extpair", TWO_ONE, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == 4
    assert data["detail"]["truncated_translate_matches_wing"] is True


def test_extpair_gates(capsys):
    code, _, err = run(capsys, "run", "extpair", A3)
    assert code == 2
    assert "representation-infinite" in err
    code, _, err = run(capsys, "run", "extpair", KRONECKER)
    assert code == 2


def test_nocover_text(capsys):
    code, out, _ = run(capsys, "run", "nocover", A2TILDE, "--loewy-bound", "3")
    assert code == 0
    assert "verified True" in out


def test_nocover_json(capsys):
    code, out, _ = run(capsys, "run", "nocover", A2TILDE,
                       "--loewy-bound", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert [w["level"] for w in data["witnesses"]] == [1, 2]
    assert all(w["generated_below"] is False for w in data["witnesses"])


def test_nocover_twoone_level_two(capsys):
    """Every line of both Ext spaces of the case-4 pair is a distinct
    level-2 object: 2 + 1 + 121 = 124 over F_3 (784 over F_5)."""
    code, out, _ = run(capsys, "run", "extpair", TWO_ONE, "--prime", "3", "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    code, out, _ = run(capsys, "run", "nocover", TWO_ONE, "--loewy-bound", "2",
                       "--prime", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    lines = [(3 ** checks[key] - 1) // 2 for key in ("ext_xy", "ext_yx")]
    assert lines == [1, 121]
    assert data["universe_size"] == 2 + sum(lines) == 124


def test_nocover_gate(capsys):
    code, _, err = run(capsys, "run", "nocover", A2)
    assert code == 2
    assert "representation-finite" in err


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/q.txt")
    assert code == 4
    assert "cannot read" in err


def test_bad_quiver_file(tmp_path, capsys):
    bad = tmp_path / "loop.txt"
    bad.write_text("vertices 1\narrow 1 1\n")
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2
    assert "bad quiver file" in err

    # booleans for integers and a non-list `arrows`: bad input, not a
    # report (exit 0) or an internal error (exit 5)
    for text in ('{"vertices": true, "arrows": []}', '{"vertices": 2, "arrows": [[2, true]]}',
                 '{"vertices": 2, "arrows": [[1, 2, 1, true]]}',
                 '{"vertices": 3, "arrows": 5}', '{"vertices": 3, "arrows": null}'):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run(capsys, "classify", str(bad), "--format", "json")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad quiver file {bad}")


B3_VALUED = "vertices 3\narrow 1 2\narrow 2 3 1 2\n"
C2TILDE_VALUED = "vertices 3\narrow 1 2 1 2\narrow 2 3 2 1\n"


@pytest.mark.parametrize("text, command, flags", [
    (B3_VALUED, "knit", ()),
    (B3_VALUED, "tors", ()),
    (C2TILDE_VALUED, "nocover", ("--loewy-bound", "2")),
    (C2TILDE_VALUED, "extpair", ()),
    # its tube walk would reach a VerificationError (exit 5) unrefused
    ("vertices 3\narrow 1 2 2 1\narrow 2 3 1 2\n", "nocover", ("--loewy-bound", "2")),
], ids=["knit-B3", "tors-B3", "nocover-C~2", "extpair-C~2", "nocover-21-12"])
def test_valued_input_stops_at_the_module_layer(tmp_path, capsys, text, command, flags):
    """The root layer serves valued quivers, but modules are built over path
    algebras only: each module command refuses valued input as bad input
    (exit 2, nothing on stdout) and names path algebras."""
    path = tmp_path / "valued.txt"
    path.write_text(text)
    code, out, err = run(capsys, "run", command, str(path), *flags)
    assert (code, out) == (2, "")
    assert "path algebra" in err


def test_bad_prime(capsys):
    code, _, err = run(capsys, "run", "knit", A2, "--prime", "1")
    assert code == 2
    assert "prime" in err


def test_internal_failure_has_its_own_exit_code(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("hereditary identity violated")

    monkeypatch.setattr("ftors.cli.find_ext_pair", broken)
    code, out, err = run(capsys, "run", "extpair", A2TILDE)
    assert code == 5
    assert out == ""
    assert err == "internal error: AssertionError: hereditary identity violated\n"


@pytest.mark.parametrize("exc", [ExtPairInconclusive, DecompositionInconclusive,
                                 ExtensionCapError], ids=lambda exc: exc.__name__)
def test_each_cause_of_inconclusive_exits_3(capsys, monkeypatch, exc):
    def undecided(*args, **kwargs):
        raise exc("undecided")

    monkeypatch.setattr("ftors.cli.find_ext_pair", undecided)
    code, out, err = run(capsys, "run", "extpair", A2TILDE)
    assert code == 3
    assert out == ""
    assert err == "inconclusive: undecided\n"


def run_optimized(patch: str, *argv) -> subprocess.CompletedProcess:
    """Run the CLI under python -O, which strips assert statements, after
    executing the given patch with cli, tors and ar_quiver imported."""
    script = ("import sys\n"
              "from ftors import ar_quiver, cli, tors\n"
              f"{patch}\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, "-O", "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def assert_verification_failure(proc, prefix: str) -> None:
    assert proc.returncode == 5, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error: VerificationError: " + prefix)
    assert proc.stderr.count("\n") == 1


def test_nocover_checks_survive_python_O():
    """With every Hom space of the Loewy layers listing its basis twice, the
    radical stays the same but each layer falls short of the sum of members
    the Hom dimensions promise, so the nocover certificate fails its layer
    identity and exits 5, also under python -O."""
    patch = ("real = tors.hom_basis\n"
             "tors.hom_basis = lambda X, Y: tors.HomSpace(X, Y, real(X, Y).vectors * 2)")
    proc = run_optimized(patch, "run", "nocover", A2TILDE)
    assert_verification_failure(proc, "layer ")
    assert "is not a sum of cycle members" in proc.stderr


def test_extension_class_count_survives_python_O():
    """With the complement of the coboundary image one class short, the
    first middle term enumeration misses its Ext dimension and run nocover
    exits 5, also under python -O."""
    patch = ("from ftors import linalg\n"
             "real = linalg.complement_indices\n"
             "linalg.complement_indices = lambda basis, p: real(basis, p)[:-1]")
    proc = run_optimized(patch, "run", "nocover", A2TILDE)
    assert_verification_failure(proc, "extension classes do not match the Ext dimension")


def test_cover_check_survives_python_O():
    """With each member its own translate, no member is Ext-projective, so
    the cover of the first nonempty class misses its only member and run
    tors exits 5."""
    patch = ("real = tors.finite_universe\n"
             "def own(*args):\n"
             "    u = real(*args)\n"
             "    u.tau = list(range(len(u)))\n"
             "    return u\n"
             "tors.finite_universe = own")
    proc = run_optimized(patch, "run", "tors", A3)
    assert_verification_failure(proc, "the cover of class ")


def test_closure_agreement_survives_python_O():
    """With the Hom-table closure dropping the first member of each answer,
    the closure of the first single member misses its generator, and run
    tors exits 5."""
    patch = ("real = tors.hom_closure\n"
             "tors.hom_closure = lambda rows, gens: frozenset(sorted(real(rows, gens))[1:])")
    proc = run_optimized(patch, "run", "tors", A3)
    assert_verification_failure(proc, "the closure of [0] misses generators [0]")


@pytest.mark.parametrize("patch, prefix", [
    # a Hom-table row filled: member 1 maps everywhere, so its closure is the
    # whole universe, and peeling finds the cover, the projectives, outside
    # the class that member 1 generates
    ("real = tors.finite_universe\n"
     "def filled(*args):\n"
     "    u = real(*args)\n"
     "    u.hom_rows[1] = (1 << len(u)) - 1\n"
     "    return u\n"
     "tors.finite_universe = filled",
     "the closure of [1] holds members [0, 3, 5] that its generators do not reach"),
    # a Hom-table row zeroed: the last member maps nowhere, so every closure
    # takes it, and the cover of the first member's closure does not generate it
    ("real = tors.finite_universe\n"
     "def zeroed(*args):\n"
     "    u = real(*args)\n"
     "    u.hom_rows[-1] = 0\n"
     "    return u\n"
     "tors.finite_universe = zeroed",
     "the cover of class [0, 5] misses members [5]"),
    # a closure that returns its generators: a projective's closure misses
    # the quotients it generates
    ("tors.hom_closure = lambda rows, gens: frozenset(gens)",
     "the closure [3] generates members [1]"),
    # a middle term with the last member as an extra summand: the closure of
    # the first member misses it
    ("real = tors.ModuleUniverse.middle_summands\n"
     "tors.ModuleUniverse.middle_summands = "
     "lambda self, i, j: real(self, i, j) + ((len(self) - 1,),)",
     "the closure [0] misses the extension summands [5]"),
], ids=["peeling", "cover", "generation", "extension"])
def test_closure_certificate_survives_python_O(patch, prefix):
    """Each check of the closure certificate fails on its own broken layer,
    and run tors exits 5 under python -O."""
    assert_verification_failure(run_optimized(patch, "run", "tors", A3), prefix)


@pytest.mark.parametrize("shift, prefix", [(1, "negative multiplicity "),
                                           (-1, "mesh at node ")])
def test_knitting_checks_survive_python_O(shift, prefix):
    """A rank of rad^2 off by one shifts every multiplicity computed from
    composites: one lower turns a pair with no irreducible map negative, one
    higher breaks the mesh identity.  Either way run knit exits 5."""
    patch = ("real = ar_quiver.grow_rank\n"
             f"ar_quiver.grow_rank = lambda e, v, p: real(e, v, p) + {shift}")
    proc = run_optimized(patch, "run", "knit", str(QDIR / "d4.txt"))
    assert_verification_failure(proc, prefix)


def test_euler_hom_check_survives_python_O():
    """With every solved Hom space of the knit one basis element short, the
    first solved pair misses its Euler-form dimension and run knit exits 5."""
    patch = ("from ftors.modules import HomSpace\n"
             "real = ar_quiver.hom_basis\n"
             "ar_quiver.hom_basis = lambda X, Y: HomSpace(X, Y, real(X, Y).vectors[:-1])")
    proc = run_optimized(patch, "run", "knit", str(QDIR / "d4.txt"))
    assert_verification_failure(proc, "Hom from node 0 to node 0 has dimension 0, "
                                      "not the Euler form 1")


def test_root_check_survives_python_O():
    """With the Tits form broken, the first reflected root fails its check
    and run knit exits 5, also under python -O."""
    patch = "from ftors import roots\nroots.quadratic_form = lambda *args: 2"
    proc = run_optimized(patch, "run", "knit", str(QDIR / "d4.txt"))
    assert_verification_failure(proc, "reflected vector ")


TWO_THREE = str(QDIR / "twothree.txt")


@pytest.mark.parametrize("patch, argv, prefix", [
    # every cycle extension read as zero: the computed tube mouth fails its
    # cycle check, which is a failed self-check (exit 5), not bad input
    ("from ftors import tors\ntors.ext_dim = lambda *args: 0",
     ("run", "nocover", A2TILDE), "cycle entry 0 has no extension by entry 1"),
    # every Hom space of the pair read as two-dimensional
    ("from ftors import ext_pairs\next_pairs.hom_dim = lambda *args: 2",
     ("run", "extpair", TWO_THREE), "case 3 verification failed: "),
    # a wrong Euler form makes Ext dimensions negative
    ("from ftors import modules\nmodules.euler_form = lambda *args: 100",
     ("run", "extpair", TWO_THREE), "hereditary identity violated"),
], ids=["tubes", "ext_pairs", "modules"])
def test_certificate_checks_survive_python_O(patch, argv, prefix):
    """With a layer under the tube, ext-pair or module checks broken, the
    command exits 5 under python -O instead of printing a report (it used
    to exit 0 or 1)."""
    assert_verification_failure(run_optimized(patch, *argv), prefix)


def test_usage_errors_survive_python_O():
    """No usage check rests on assert: under python -O an undeclared flag
    and a bad --format still exit 2 with their messages, before any quiver
    is read."""
    patch = ("def never(*args):\n"
             "    raise SystemExit('a quiver was loaded')\n"
             "cli._load = never")
    for argv, message in ((("classify", A2, "--prime", "5"), "unrecognized arguments: --prime 5"),
                          (("run", "extpair", A2TILDE, "--format", "dot"),
                           "argument --format: invalid choice: 'dot'")):
        proc = run_optimized(patch, *argv)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr.startswith("usage: ftors ") and message in proc.stderr


def test_no_assert_in_the_package():
    """Checks go through require, which python -O keeps: the package holds
    no assert statement and raises no AssertionError."""
    for path in sorted((ROOT / "src" / "ftors").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert not (isinstance(exc, ast.Name) and exc.id == "AssertionError"), (
                    f"{path.name}:{node.lineno}")


def test_no_run_imports_numpy(tmp_path):
    """Matrices are tuples of int rows and the random stream is
    random.Random(seed), so no command loads numpy: one fresh interpreter
    runs a command of every kind and then checks sys.modules."""
    runs = [
        ["classify", A2TILDE],
        ["run", "knit", str(QDIR / "d4.txt")],
        ["run", "tors", A3],
        ["run", "tors", KRONECKER, "--dim-bound", "6"],
        ["run", "extpair", str(QDIR / "twothree.txt")],
        ["run", "nocover", A2TILDE],
    ]
    runs = [[*argv, "--out", str(tmp_path / f"{n}.out")] for n, argv in enumerate(runs)]
    script = ("import json, sys\n"
              "from ftors.cli import main\n"
              "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, 'numpy' in sys.modules, 'numpy.random' in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * len(runs), False, False]


def test_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    """Start-up stays off the modules that cost a fresh interpreter most.
    The records are plain classes, so no dataclasses (with inspect, ast and
    dis); the command line is parsed from the command table, so no argparse
    (with gettext, which loads locale only when arguments are parsed); exact
    rational work is done in integers, so no fractions (with decimal and
    numbers).  Compared with a bare interpreter, neither a fresh import of
    ftors.cli nor a run of run tors after it, in the same process, adds any
    of them to sys.modules."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["run", "tors", A3, "--format", "json", "--out", str(tmp_path / "a3.json")]

    def loaded(code: str) -> list[set[str]]:
        script = ("import json, sys\n"
                  "seen = []\n"
                  f"{code}\n"
                  "print(json.dumps(seen + [sorted(sys.modules)]))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return [set(names) for names in json.loads(proc.stdout)]

    [bare] = loaded("pass")
    imported, ran = loaded("import ftors.cli\n"
                           "seen.append(sorted(sys.modules))\n"
                           f"assert ftors.cli.main({argv!r}) == 0")
    assert "ftors.cli" in imported - bare and "ftors.tors" in ran - bare
    heavy = {"dataclasses", "inspect", "argparse", "gettext", "locale",
             "fractions", "decimal", "numbers"}
    assert not heavy & (imported - bare)
    assert not heavy & (ran - bare)


def test_no_numpy_in_the_package():
    for path in sorted((ROOT / "src" / "ftors").glob("*.py")):
        text = path.read_text()
        assert "numpy" not in text and "np." not in text, path.name


def _referenced_names(tree) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def test_no_orphaned_private_helper():
    """Every _-prefixed function or method defined in the package is
    referenced somewhere else in the package, outside its own body, so a
    helper whose last caller is gone is deleted with it."""
    trees = [(path.name, ast.parse(path.read_text(), str(path)))
             for path in sorted((ROOT / "src" / "ftors").glob("*.py"))]
    everywhere = sum((_referenced_names(tree) for _, tree in trees), Counter())
    orphans = [f"{name}:{node.lineno} {node.name}"
               for name, tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not node.name.startswith("__")
               and everywhere[node.name] == _referenced_names(node)[node.name]]
    assert not orphans, orphans


def test_no_unread_constant():
    """Every module-level UPPER_CASE name in the package is read somewhere in
    the package, so a constant whose last reader is gone is deleted with it."""
    trees = [(path.name, ast.parse(path.read_text(), str(path)))
             for path in sorted((ROOT / "src" / "ftors").glob("*.py"))]
    everywhere = sum((_referenced_names(tree) for _, tree in trees), Counter())
    constants = [(name, node.lineno, target.id)
                 for name, tree in trees for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(target, ast.Name) and target.id.isupper()]
    assert constants
    stores = Counter(target for _, _, target in constants)
    unread = [f"{name}:{line} {target}" for name, line, target in constants
              if everywhere[target] == stores[target]]
    assert not unread, unread


def test_no_unread_parameter():
    """Every parameter of every function and lambda in the package, except
    self, is read in its body, so an argument that no longer steers anything
    is deleted rather than passed along."""
    unread = []
    for path in sorted((ROOT / "src" / "ftors").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs
                      + [x for x in (a.vararg, a.kwarg) if x is not None]]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "lambda")
            unread += [f"{path.name}:{node.lineno} {name}({param})"
                       for param in params if param != "self" and param not in read]
    assert not unread, unread


def test_no_unused_import():
    """Every name imported at module level in the package, the package's
    __init__ (which re-exports) excepted, is read in its module, so an import
    that lost its last use is deleted with it."""
    unused = []
    for path in sorted((ROOT / "src" / "ftors").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert not unused, unused


# the samplers and the functions that pass a generator on to them
RNG_TAKERS = {"random_matrix", "random_rep", "_kronecker_universe", "two_vertex_check"}


def test_rng_parameter_only_on_samplers():
    """A parameter named rng appears only on the two samplers
    (random_matrix, random_rep) and on the functions that call them, so a
    function that no longer draws does not take a generator."""
    takers = set()
    for path in sorted((ROOT / "src" / "ftors").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                if "rng" in {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}:
                    takers.add(getattr(node, "name", "lambda"))
    assert takers == RNG_TAKERS


def test_out_flag_matches_stdout(tmp_path, capsys):
    _, out, _ = run(capsys, "classify", A2, "--format", "json")
    target = tmp_path / "report.json"
    code, silent, _ = run(capsys, "classify", A2, "--format", "json",
                          "--out", str(target))
    assert code == 0
    assert silent == ""
    assert target.read_text() == out


def test_json_reports_are_deterministic(tmp_path, capsys):
    for argset in (("classify", A2TILDE), ("run", "extpair", A2TILDE),
                   ("run", "nocover", A2TILDE, "--loewy-bound", "3")):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(capsys, *argset, "--format", "json", "--out", str(a))[0] == 0
        assert run(capsys, *argset, "--format", "json", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


SEED_FREE_RUNS = [
    ("run", "tors", "a3"), ("run", "tors", "d4"), ("run", "tors", "d5"),
    ("run", "knit", "e6"),
    ("run", "extpair", "twothree"), ("run", "extpair", "a2tilde"),
    ("run", "extpair", "a5cycle"), ("run", "extpair", "twoone"),
    ("run", "extpair", "d4tilde"),
    ("run", "nocover", "a2tilde"), ("run", "nocover", "d4tilde"),
    ("run", "nocover", "a5cycle"),
]


@pytest.mark.parametrize("argv", SEED_FREE_RUNS, ids=lambda argv: "-".join(argv[1:]))
def test_reports_do_not_depend_on_the_seed(capsys, argv):
    """These reports are exact: the seed reaches only the samplers, which
    none of these runs needs, so seeds 0 and 1 give the same bytes."""
    *command, name = argv
    reports = []
    for seed in ("0", "1"):
        code, out, _ = run(capsys, *command, str(QDIR / f"{name}.txt"),
                           "--seed", seed, "--format", "json")
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv", SEED_FREE_RUNS, ids=lambda argv: "-".join(argv[1:]))
def test_reports_draw_no_random_number(monkeypatch, capsys, argv):
    """Decomposition, isomorphism and the constructions behind these reports
    draw nothing: with every draw of random.Random made to raise, each run
    still succeeds."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a random number was drawn")

    monkeypatch.setattr(random.Random, "randrange", no_draw)
    monkeypatch.setattr(random.Random, "random", no_draw)
    *command, name = argv
    code, _, err = run(capsys, *command, str(QDIR / f"{name}.txt"), "--format", "json")
    assert code == 0, err
