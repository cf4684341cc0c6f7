"""Compiled and pure kernels must be indistinguishable."""
import gc
import importlib.util
import random
import shlex
import subprocess
import sysconfig
import tracemalloc
from pathlib import Path

import pytest

from fdalg import _kernels
from fdalg._kernels import pure


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The shipped ``_fast.c``, compiled with ``-Wall`` into a temporary
    directory and loaded apart from the package, so the backend the rest of
    the suite uses is unchanged.  Skipped only when the compile fails; a
    compile that succeeds with a warning fails every test that uses it."""
    source = Path(_kernels.__file__).with_name("_fast.c")
    out = tmp_path_factory.mktemp("kernels") / ("_fast" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = shlex.split(sysconfig.get_config_var("CC") or "cc") + [
        "-O3", "-Wall", "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"],
        str(source), "-o", str(out)]
    try:
        built = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    except (OSError, subprocess.TimeoutExpired) as exc:
        pytest.skip(f"cannot compile _fast.c: {exc}")
    if built.returncode != 0:
        pytest.skip(f"cannot compile _fast.c: {built.stderr[-300:]}")
    warnings = [line for line in built.stderr.splitlines() if "warning:" in line]
    if warnings:
        pytest.fail("_fast.c compiles with warnings:\n" + "\n".join(warnings))
    spec = importlib.util.spec_from_file_location("fdalg._kernels._fast", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _case(p, widths, nrows, density=1.0, count=40, name=None):
    return pytest.param(p, widths, nrows, density, count, id=name or str(p))


ECHELON_CASES = (
    [_case(p, (1, 10), (0, 14)) for p in (2, 3, 5, 101, 65537, 2 ** 31 - 1)]
    + [_case(7, (0, 0), (0, 3), name="width0")]
    # widths 24 and 60 with width + 10 rows, sparse and dense, small primes
    + [_case(p, (w, w), (w + 10, w + 10), d, 4, name=f"w{w}-p{p}-d{d}")
       for w in (24, 60) for p in (2, 3, 5, 7) for d in (0.1, 0.5)]
)


@pytest.mark.parametrize("p, widths, nrows, density, count", ECHELON_CASES)
def test_echelon_backends_agree(p, widths, nrows, density, count, compiled, request):
    rng = random.Random(request.node.callspec.id)
    bound = 2 * p + 30

    def row(width):
        return [rng.randrange(-bound, bound) if rng.random() < density else 0
                for _ in range(width)]

    for _ in range(count):
        width = rng.randint(*widths)
        rows = [row(width) for _ in range(rng.randint(*nrows))]
        big = row(width)  # one entry beyond int64, reduced as pure reduces it
        if width:
            big[rng.randrange(width)] = rng.choice((2 ** 100, -3 ** 70)) + rng.randrange(p)
        rows.insert(rng.randint(0, len(rows)), big)
        a = pure.FpEchelon(width, p)
        b = compiled.FpEchelon(width, p)
        for r in rows:
            assert a.insert(list(r)) == b.insert(tuple(r))
        assert a.rows() == b.rows()
        assert a.pivots() == b.pivots()
        assert a.rank == b.rank
        for probe in (row(width), big):
            assert a.reduce(list(probe)) == b.reduce(list(probe))


def test_compiled_rejects_bad_input(compiled):
    for p in (2 ** 31, 2 ** 100, 1, 0):
        with pytest.raises(ValueError):
            compiled.FpEchelon(3, p)
    with pytest.raises(ValueError):
        compiled.FpEchelon(-1, 5)


@pytest.mark.parametrize("backend", ["pure-Fp", "pure-Q", "compiled"])
def test_echelon_rejects_rows_of_the_wrong_length(backend, request):
    # every accumulator raises on a row that is not its width, stores
    # nothing and keeps its rows; the compiled case skips when the
    # extension cannot be built
    if backend == "pure-Fp":
        acc = pure.FpEchelon(3, 5)
    elif backend == "pure-Q":
        acc = pure.QEchelon(3)
    else:
        acc = request.getfixturevalue("compiled").FpEchelon(3, 5)
    acc.insert([1, 2, 3])
    for bad in ([1, 2], [1, 2, 3, 4], (), [2]):
        with pytest.raises(ValueError, match="row length mismatch"):
            acc.insert(bad)
        with pytest.raises(ValueError, match="row length mismatch"):
            acc.reduce(bad)
    assert acc.rows() == [[1, 2, 3]] and acc.rank == 1


def test_compiled_accumulators_free_their_memory(compiled):
    """Thousands of accumulators, each grown past its first allocation, with
    reduces and rejected rows, leave no traced memory behind."""
    rng = random.Random(11)
    rows = [[rng.randrange(-20, 20) for _ in range(12)] for _ in range(30)]
    # p keeps the residue of 2**100 out of the small-int cache, so a leaked
    # reference to it shows as traced memory

    def churn(n):
        for _ in range(n):
            acc = compiled.FpEchelon(12, 1000003)
            for r in rows:
                acc.insert(r)
            for r in rows[:4]:
                acc.reduce(r)
            acc.reduce([2 ** 100] + rows[0][1:])
            acc.rows()
            acc.pivots()
            with pytest.raises(ValueError):
                acc.insert(rows[0][:-1])
            with pytest.raises(TypeError):
                acc.insert(rows[0][:-1] + [None])

    churn(50)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        churn(3000)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, f"{grown} bytes still traced after 3000 accumulators"


def test_charpoly_known_values():
    # det(tI - diag(1,2,3)) = t^3 - 6t^2 + 11t - 6
    m = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    assert _kernels.fp_charpoly(m, 101) == [95, 11, 95, 1]
    # nilpotent Jordan block: t^n
    n = [[0, 1], [0, 0]]
    assert _kernels.fp_charpoly(n, 5) == [0, 0, 1]


def test_backend_reports_name():
    assert _kernels.BACKEND in ("compiled", "pure")
