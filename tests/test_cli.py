import json

import pytest

from fdalg.cli import main
from fdalg.corpus import truncated_polynomial, two_loop_q_algebra
from fdalg.fields import GF
from fdalg.formats import (
    FormatError,
    detect_format,
    load_text,
    parse_algebra_text,
    parse_cayley_text,
    write_algebra_text,
)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_algebra_text_round_trip():
    a = two_loop_q_algebra(GF(5), 2)
    text = write_algebra_text(a)
    b = parse_algebra_text(text)
    assert b.dim == a.dim and b.mul == a.mul and b.unit == a.unit
    assert write_algebra_text(b) == text


def test_format_detection():
    assert detect_format("algebra dim=1 field=Q\nunit: 1\nmul 0 0 0 1") == "algebra"
    assert detect_format("vertices: v; arrows: x: v->v; relations: x^2") == "quiver"
    assert detect_format("2\n0 1\n1 0") == "cayley"


def test_load_cayley_with_field():
    a = load_text("2\n0 1\n1 0", GF(2))
    assert a.dim == 2 and a.kind == "group"


def test_generate_then_report(tmp_path, capsys):
    out = tmp_path / "alg.txt"
    code, _, _ = run(["generate", "truncated", "2", "--field", "Fp:2",
                      "-o", str(out)], capsys)
    assert code == 0
    code, stdout, _ = run(["report", str(out)], capsys)
    assert code == 0
    assert "k:            2" in stdout


def test_report_json_round_trip(tmp_path, capsys):
    src = tmp_path / "alg.txt"
    js1 = tmp_path / "r1.json"
    js2 = tmp_path / "r2.json"
    code, _, _ = run(["generate", "a_q", "--param", "q=2", "--field", "Fp:5",
                      "-o", str(src)], capsys)
    assert code == 0
    assert run(["report", str(src), "--json", str(js1)], capsys)[0] == 0
    # re-reading the emitted file reproduces the identical report
    text = src.read_text()
    rewritten = write_algebra_text(parse_algebra_text(text))
    src.write_text(rewritten)
    assert run(["report", str(src), "--json", str(js2)], capsys)[0] == 0
    r1 = json.loads(js1.read_text())
    r2 = json.loads(js2.read_text())
    assert r1 == r2
    assert r1["k"] == 3 and r1["ell"] == 1 and r1["dim"] == 4


def test_report_json_names_the_symmetric_reason(tmp_path, capsys):
    src, js = tmp_path / "t2.txt", tmp_path / "t2.json"
    assert run(["generate", "triangular", "2", "--field", "Q", "-o", str(src)], capsys)[0] == 0
    code, stdout, _ = run(["report", str(src), "--json", str(js)], capsys)
    assert code == 0
    sym = json.loads(js.read_text())["symmetric"]
    assert sym["verdict"] == "no" and sym["functional"] is None and sym["reason"]
    assert f"symmetric:    no   ({sym['reason']})" in stdout


def test_classify_exit_codes(capsys, tmp_path):
    src = tmp_path / "k4.txt"
    assert run(["generate", "kronecker", "4", "--field", "Q", "-o", str(src)], capsys)[0] == 0
    code, stdout, _ = run(["classify", str(src)], capsys)
    assert code == 0
    assert "other" in stdout
    assert "'k': 2" in stdout and "'ell': 2" in stdout

    # truncated(2) over F_2 classifies as the dual-numbers class
    src2 = tmp_path / "t2.txt"
    run(["generate", "truncated", "2", "--field", "Fp:2", "-o", str(src2)], capsys)
    code, stdout, _ = run(["classify", str(src2)], capsys)
    assert code == 0 and "morita_dual_numbers" in stdout

    # non-split input: exit 2
    src3 = tmp_path / "z3.txt"
    run(["generate", "cyclic_group", "3", "--field", "Fp:2", "-o", str(src3)], capsys)
    code, stdout, _ = run(["classify", str(src3)], capsys)
    assert code == 2 and "unavailable" in stdout


def test_check_invalid_tensor(tmp_path, capsys):
    a = truncated_polynomial(GF(3), 2)
    text = write_algebra_text(a)
    bad = text.replace("mul 1 1 ", "mul 1 1 1 1\nmul 1 0 ")  # corrupt a line
    path = tmp_path / "bad.txt"
    path.write_text("algebra dim=2 field=Fp:3\nunit: 1 0\nmul 0 0 0 1\nmul 1 1 0 1\nmul 1 1 1 1\n")
    code, stdout, _ = run(["check", str(path)], capsys)
    assert code == 1


@pytest.mark.parametrize("command", [["classify"], ["report"], ["verify"], ["basic"],
                                     ["bounds"], ["inflate", "--mult", "2"]])
def test_non_unital_tensor_rejected_on_load(tmp_path, capsys, command):
    # b_0 b_1 = b_1 b_0 = 0 but b_1 b_1 = b_1: the declared unit b_0 fails on b_1
    path = tmp_path / "nonunital.txt"
    path.write_text("algebra dim=2 field=Fp:5\nunit: 1 0\nmul 0 0 0 1\nmul 1 1 1 1\n")
    check_code, check_out, _ = run(["check", str(path)], capsys)
    assert check_code == 1
    assert "unit fails on basis element 1" in check_out
    code, stdout, _ = run(command + [str(path)], capsys)
    assert code == 1
    assert stdout == check_out


def test_suite_names_unit_failures():
    from fdalg.classify import verify_theorem_suite

    a = parse_algebra_text("algebra dim=2 field=Fp:5\nunit: 1 0\nmul 0 0 0 1\nmul 1 1 1 1\n")
    line = verify_theorem_suite(a).lines[0]
    assert line.name == "tensor_is_associative_unital" and line.status == "fail"
    assert "unit failures: [1]" in line.detail


def test_check_valid(tmp_path, capsys):
    path = tmp_path / "ok.txt"
    run(["generate", "s3", "--field", "Fp:3", "-o", str(path)], capsys)
    assert run(["check", str(path)], capsys)[0] == 0


def test_verify_subcommand(tmp_path, capsys):
    path = tmp_path / "alg.txt"
    run(["generate", "triangular", "3", "--field", "Q", "-o", str(path)], capsys)
    code, stdout, _ = run(["verify", str(path)], capsys)
    assert code == 0
    assert "series_starts_at_simple_count" in stdout


def test_basic_and_inflate_round_trip(tmp_path, capsys):
    src = tmp_path / "t3.txt"
    infl = tmp_path / "infl.txt"
    back = tmp_path / "basic.txt"
    run(["generate", "truncated", "3", "--field", "Fp:5", "-o", str(src)], capsys)
    assert run(["inflate", str(src), "--mult", "2", "-o", str(infl)], capsys)[0] == 0
    code, stdout, _ = run(["basic", str(infl), "-o", str(back)], capsys)
    assert code == 0
    b = parse_algebra_text(back.read_text())
    assert b.dim == 3


def test_fuzz_deterministic(capsys):
    code1, out1, _ = run(["fuzz", "--seed", "3", "--count", "4", "--family", "local"], capsys)
    code2, out2, _ = run(["fuzz", "--seed", "3", "--count", "4", "--family", "local"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_missing_file_is_io_error(capsys):
    code, _, err = run(["report", "/nonexistent/path.txt"], capsys)
    assert code == 4


def test_quiver_input_with_param(tmp_path, capsys):
    path = tmp_path / "aq.quiver"
    path.write_text("vertices: v\narrows: x: v->v, y: v->v\n"
                    "relations: x^2, y^2, x*y - q y*x\n")
    code, stdout, _ = run(["report", str(path), "--field", "Fp:7",
                           "--param", "q=3"], capsys)
    assert code == 0
    assert "k:            3" in stdout


def test_internal_inconsistency_exits_5(tmp_path, capsys, monkeypatch):
    import fdalg.morita

    # T_3 is basic, so its witness is (1, 1) on the identity route; M_2 is
    # not, and its witness is read off the record's matrix units
    paths = []
    for family in ("triangular", "matrix"):
        path = tmp_path / f"{family}.txt"
        run(["generate", family, "3" if family == "triangular" else "2",
             "--field", "Fp:5", "-o", str(path)], capsys)
        assert run(["verify", str(path)], capsys)[0] == 0
        paths.append(path)
    # a fullness witness that fails its own check is a bug, not invalid input
    monkeypatch.setattr(fdalg.morita.FullnessWitness, "verify", lambda self: False)
    for path in paths:
        code, _, stderr = run(["verify", str(path)], capsys)
        assert code == 5, path.name
        assert "internal error: fullness witness does not sum to the unit" in stderr, path.name


def _package_modules():
    """(path inside the package, parsed module) for every module of fdalg."""
    import ast
    import pathlib

    import fdalg

    root = pathlib.Path(fdalg.__file__).parent
    return [(path.relative_to(root), ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(root.rglob("*.py"))]


def _exported(tree):
    """The names a module lists in __all__."""
    import ast

    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


def test_package_has_no_assert_statements():
    # `python -O` strips assert; certificate checks must raise instead
    import ast

    found = []
    for path, tree in _package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_has_no_unused_module_imports():
    # every name a module imports at top level is used in that module
    # (the package's __init__ re-exports its names through __all__)
    import ast

    found = []
    for path, tree in _package_modules():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_package_reads_every_private_name_and_constant():
    # a module-level private name (leading underscore) or UPPER_CASE constant
    # is read somewhere in the package: by name, as an attribute, or through
    # __all__; an unread one is a leftover of deleted code
    import ast

    modules = _package_modules()
    read = set()
    for _, tree in modules:
        read |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for path, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name] if node.name.startswith("_") else []
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("__"):
                    continue
                if (name.startswith("_") or name.isupper()) and name not in read:
                    found.append(f"{path}:{node.lineno}: {name}")
    assert found == []


def test_package_memoizes_only_on_the_first_parameter():
    # a function writes X._cache[...] or calls X._cache.setdefault only for X
    # its first parameter: a construction does not write into the memo dict
    # of the algebra it builds, which holds only what was certified on it
    import ast

    found = []
    for path, tree in _package_modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            first = fn.args.args[0].arg if fn.args.args else None
            for node in ast.walk(fn):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    owners = [t.value for t in targets if isinstance(t, ast.Subscript)]
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "setdefault"):
                    owners = [node.func.value]
                else:
                    continue
                for owner in owners:
                    if (isinstance(owner, ast.Attribute) and owner.attr == "_cache"
                            and not (isinstance(owner.value, ast.Name)
                                     and owner.value.id == first)):
                        found.append(f"{path}:{node.lineno}: {fn.name}")
    assert found == []


def test_each_literal_cache_key_has_one_writer():
    # X._cache["key"] = ... or X._cache.setdefault("key", ...) appears in one
    # function per key: two writers of one memo can store different values,
    # or one of them an uncertified one
    import ast

    writers = {}
    for path, tree in _package_modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    slots = [(t.value, t.slice) for t in targets if isinstance(t, ast.Subscript)]
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "setdefault" and node.args):
                    slots = [(node.func.value, node.args[0])]
                else:
                    continue
                for owner, key in slots:
                    if (isinstance(owner, ast.Attribute) and owner.attr == "_cache"
                            and isinstance(key, ast.Constant)):
                        writers.setdefault(key.value, set()).add(f"{path}: {fn.name}")
    assert "radical" in writers
    assert {key: sorted(fns) for key, fns in writers.items() if len(fns) > 1} == {}


def _cli_process(args, tmp_path, text):
    """Run the CLI as a process on a file holding ``text``, so an uncaught
    exception would show as a traceback."""
    import os
    import pathlib
    import subprocess
    import sys

    import fdalg

    src = tmp_path / "input.txt"
    src.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fdalg.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "fdalg.cli", args[0], str(src)] + args[1:],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("text,message", [
    ("algebra dim=x field=Fp:5\nunit: 1\n", "error: bad dim: 'x'"),
    ("algebra dim=1 field=Fp:5\nunit: 1\nmul a 0 0 1\n", "error: bad mul index: 'a'"),
    ("algebra dim=1 field=Fp:5\nunit: x\nmul 0 0 0 1\n", "error: bad scalar: 'x'"),
    ("2\n0 1\n1 x\n", "error: bad Cayley entry: 'x'"),
    ("algebra dim=1 field=Fp:5\nunit: 1/5\nmul 0 0 0 1\n",
     "error: zero denominator in scalar '1/5'"),
    ("algebra dim=1 field=Fp:5\nunit: 1\nmul 0 0 0 1\nmul 0 0 0 1\n",
     "error: repeated mul line: 'mul 0 0 0 1'"),
    ("algebra dim=1 field=Fp:5\nunit: 1\nunit: 2\nmul 0 0 0 1\n",
     "error: repeated unit line: 'unit: 2'"),
    ("algebra dim=2 dim=1 field=Fp:5\nunit: 1\nmul 0 0 0 1\n",
     "error: repeated header key: 'dim=1'"),
    ("algebra dim=1 field=Fp:5 foo=bar\nunit: 1\nmul 0 0 0 1\n",
     "error: unknown header token: 'foo=bar'"),
    ("2 7\n0 1\n1 0\n", "error: unexpected token after the group order: '7'"),
], ids=["header dim", "mul index", "unit scalar", "Cayley entry", "denominator 0 mod p",
        "repeated mul", "repeated unit", "repeated header key", "unknown header token",
        "Cayley order line"])
def test_malformed_text_is_a_typed_error(tmp_path, text, message):
    out = _cli_process(["check", "--field", "Fp:5"], tmp_path, text)
    assert out.returncode == 1
    assert out.stderr.startswith("error:")
    assert message in out.stderr.splitlines()
    assert "Traceback" not in out.stderr


def test_malformed_text_fails_before_the_tensor_is_built():
    # every line is read before the d^3 tensor exists: under a dim=300 header
    # (27 million entries, over 200 MB of list slots) a bad mul line fails in
    # bounded memory, and a well-formed file still gets its constants
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="bad mul line: 'mul 0 0'"):
            parse_algebra_text("algebra dim=300 field=Fp:5\nmul 0 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, peak
    a = parse_algebra_text("algebra dim=2 field=Fp:5\nmul 1 1 1 3\nunit: 1 2\nmul 0 1 1 4\n")
    assert a.mul == (((0, 0), (0, 4)), ((0, 0), (0, 3))) and a.unit == (1, 2)


@pytest.mark.parametrize("mult,message", [
    ("2,2", "error: need 1 multiplicities, got 2"),
    ("0", "error: multiplicities must be positive"),
    ("two", "error: --mult needs comma-separated integers, got 'two'"),
])
def test_inflate_rejects_bad_multiplicities(tmp_path, mult, message):
    out = _cli_process(["inflate", "--mult", mult], tmp_path,
                       write_algebra_text(truncated_polynomial(GF(5), 3)))
    assert out.returncode == 1
    assert message in out.stderr.splitlines()
    assert "Traceback" not in out.stderr
