"""Compiled and pure kernels must be indistinguishable."""
import importlib.util
import random
import shlex
import subprocess
import sysconfig
from pathlib import Path

import pytest

from fdalg import _kernels
from fdalg._kernels import pure


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The shipped ``_fast.c``, compiled into a temporary directory and
    loaded apart from the package, so the backend the rest of the suite
    uses is unchanged; skipped only when the compile fails."""
    source = Path(_kernels.__file__).with_name("_fast.c")
    out = tmp_path_factory.mktemp("kernels") / ("_fast" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = shlex.split(sysconfig.get_config_var("CC") or "cc") + [
        "-O3", "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"], str(source),
        "-o", str(out)]
    try:
        built = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    except (OSError, subprocess.TimeoutExpired) as exc:
        pytest.skip(f"cannot compile _fast.c: {exc}")
    if built.returncode != 0:
        pytest.skip(f"cannot compile _fast.c: {built.stderr[-300:]}")
    spec = importlib.util.spec_from_file_location("fdalg._kernels._fast", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("p", [2, 3, 5, 101, 65537])
def test_echelon_backends_agree(p, compiled):
    rng = random.Random(p)
    for _ in range(40):
        width = rng.randint(1, 10)
        a = pure.FpEchelon(width, p)
        b = compiled.FpEchelon(width, p)
        for _ in range(rng.randint(0, 14)):
            row = [rng.randrange(-30, 30) for _ in range(width)]
            assert a.insert(list(row)) == b.insert(list(row))
        assert a.rows() == b.rows()
        assert a.pivots() == b.pivots()
        assert a.rank == b.rank
        probe = [rng.randrange(-30, 30) for _ in range(width)]
        assert a.reduce(list(probe)) == b.reduce(list(probe))


@pytest.mark.parametrize("p", [2, 3, 7])
def test_charpoly_backends_agree(p, compiled):
    rng = random.Random(100 + p)
    for _ in range(60):
        n = rng.randint(1, 9)
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        assert pure.fp_charpoly([r[:] for r in m], p) == compiled.fp_charpoly(m, p)


def test_charpoly_known_values():
    # det(tI - diag(1,2,3)) = t^3 - 6t^2 + 11t - 6
    m = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    assert _kernels.fp_charpoly(m, 101) == [95, 11, 95, 1]
    # nilpotent Jordan block: t^n
    n = [[0, 1], [0, 0]]
    assert _kernels.fp_charpoly(n, 5) == [0, 0, 1]


def test_backend_reports_name():
    assert _kernels.BACKEND in ("compiled", "pure")
