"""The command line surface: exit codes, formats, determinism."""

import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ftors.cli import build_parser, main
from ftors.modules import rep_from_json
from ftors.ext_pairs import verify_ext_pair
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
    """argparse refuses the arguments with exit 2; returns its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    return out.err


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
    assert data["lattice"] == {"meets_ok": True, "joins_ok": True, "failures": []}
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
    """(name, parser) of each subcommand: classify and every run task."""
    def children(parser):
        [action] = [a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)]
        return action.choices.items()

    for name, parser in children(build_parser()):
        if name == "run":
            yield from ((f"run {task}", p) for task, p in children(parser))
        else:
            yield name, parser


def args_read(func) -> set:
    """The attributes of `args` that the handler's source reads."""
    tree = ast.parse(inspect.getsource(func))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}


def test_each_subcommand_declares_exactly_the_flags_it_reads():
    """A declared flag that the handler never reads would be accepted and
    ignored.  The one exception is --seed of run knit, which the benchmark
    appends to every command."""
    options = formats = 0
    for name, parser in subcommands():
        dests = {a.dest for a in parser._actions if a.dest not in ("help", "quiver")}
        reads = args_read(parser.get_default("func"))
        assert "quiver" in reads and reads - {"quiver"} <= dests, name
        assert dests - reads == ({"seed"} if name == "run knit" else set()), name
        options += len(dests)
        formats += len(parser._option_string_actions["--format"].choices)
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
    assert data["generation_preserves_level"] is True


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
    """With the cycle-member test of the Loewy layers broken, the nocover
    certificate fails its layer check and exits 5, also under python -O."""
    proc = run_optimized("tors._iso_index = lambda *args, **kwargs: None",
                         "run", "nocover", A2TILDE)
    assert_verification_failure(proc, "layer summand ")


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
    """With the generation test of the covers one member short, the first
    nonempty class fails its cover check and run tors exits 5."""
    patch = ("real = tors.gen_closure\n"
             "tors.gen_closure = lambda u, gens: frozenset(sorted(real(u, gens))[1:])")
    proc = run_optimized(patch, "run", "tors", A3)
    assert_verification_failure(proc, "the cover of class ")


def test_closure_agreement_survives_python_O():
    """With the peeling engine dropping one member of each closure, the
    fixpoint closure and the peeled closure disagree, and run tors exits 5."""
    patch = ("real = tors.ModuleUniverse.peeled_closure\n"
             "tors.ModuleUniverse.peeled_closure = "
             "lambda self, gens: frozenset(sorted(real(self, gens))[1:])")
    proc = run_optimized(patch, "run", "tors", A3)
    assert_verification_failure(proc, "closure engines disagree at members ")


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
             "ar_quiver.hom_basis = lambda X, Y: HomSpace(X, Y, real(X, Y).basis[:-1])")
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
              "from ftors.cli import build_parser, main\n"
              "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, 'numpy' in sys.modules, 'numpy.random' in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * len(runs), False, False]


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
