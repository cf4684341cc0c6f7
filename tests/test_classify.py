import pytest

from fdalg.algebras import matrix_algebra
from fdalg.classify import (
    KIND_DUAL_NUMBERS,
    KIND_GROUND_FIELD,
    KIND_OTHER,
    KIND_TRUNCATED,
    KIND_UNAVAILABLE,
    classify_small,
    classify_truncated,
    local_dimension_bounds,
    verify_theorem_suite,
)
from fdalg.corpus import (
    cyclic_group_algebra,
    kronecker,
    lower_triangular,
    random_quiver_algebra,
    truncated_polynomial,
    two_loop_q_algebra,
)
from fdalg.errors import NotLocal
from fdalg.fields import GF, QQ
from fdalg.morita import inflate

F2, F3, F5 = GF(2), GF(3), GF(5)


def test_truncated_with_witness():
    v = classify_truncated(truncated_polynomial(QQ, 5))
    assert v.kind == KIND_TRUNCATED and v.n == 5
    assert v.witness is not None
    assert len(v.witness["power_basis"]) == 5


def test_classify_inflated_truncated():
    t3 = truncated_polynomial(F5, 3)
    v = classify_truncated(inflate(t3, [2]))
    assert v.kind == KIND_TRUNCATED and v.n == 3


def test_two_loop_is_other():
    v = classify_truncated(two_loop_q_algebra(F5, 2))
    assert v.kind == KIND_OTHER
    assert v.evidence == {"k": 3, "codim_k2": 3, "ell": 1}


def test_matrix_algebras_are_ground_field_class():
    for n in (1, 2, 3, 7):
        assert classify_small(matrix_algebra(F5, n)).kind == KIND_GROUND_FIELD


def test_z2_is_dual_numbers():
    assert classify_small(cyclic_group_algebra(F2, 2)).kind == KIND_DUAL_NUMBERS


def test_kronecker_is_other():
    v = classify_small(kronecker(F2, 3))
    assert v.kind == KIND_OTHER
    assert v.evidence["k"] == 2 and v.evidence["ell"] == 2


def test_nonsplit_unavailable():
    v = classify_small(cyclic_group_algebra(F2, 3))
    assert v.kind == KIND_UNAVAILABLE
    v2 = classify_truncated(cyclic_group_algebra(QQ, 3))
    assert v2.kind == KIND_UNAVAILABLE


def test_bounds_two_loop_tight():
    rep = local_dimension_bounds(two_loop_q_algebra(F5, 2))
    assert rep.consistent and rep.tight_small_case
    assert rep.k == 3 and rep.dim == 4


def test_bounds_truncated():
    rep4 = local_dimension_bounds(truncated_polynomial(F3, 4))
    assert rep4.consistent and rep4.k == 4 and rep4.dim == 4
    rep5 = local_dimension_bounds(truncated_polynomial(F3, 5))
    assert rep5.consistent and rep5.k == 5 and rep5.rad_top_dim == 1


def test_bounds_require_local():
    with pytest.raises(NotLocal):
        local_dimension_bounds(lower_triangular(QQ, 2))


def test_theorem_suite_truncated():
    rep = verify_theorem_suite(truncated_polynomial(QQ, 3))
    assert rep.ok
    names = {line.name: line.status for line in rep.lines}
    assert names["series_starts_at_simple_count"] == "pass"
    assert names["p_power_space_is_level1"] == "skip"  # char 0


def test_theorem_suite_seeded_random_quiver():
    rep = verify_theorem_suite(random_quiver_algebra(F5, 7))
    assert rep.ok


def test_theorem_suite_nonsplit_skips():
    rep = verify_theorem_suite(cyclic_group_algebra(F2, 3))
    assert rep.ok
    statuses = {line.name: line.status for line in rep.lines}
    assert statuses["series_starts_at_simple_count"] == "skip"
    assert statuses["codim_series_monotone_stabilizes"] == "pass"


def test_theorem_suite_undecided_skips_name_the_reason():
    rep = verify_theorem_suite(cyclic_group_algebra(QQ, 3))  # Q x Q(omega)
    details = {line.name: line.detail for line in rep.lines}
    assert details["series_starts_at_simple_count"] == (
        "splitting undecided: minimal polynomials admit no rational linear split")


def test_classifier_exclusivity_on_sample():
    seen = set()
    for alg, expected in [
        (matrix_algebra(F3, 2), KIND_GROUND_FIELD),
        (cyclic_group_algebra(F2, 2), KIND_DUAL_NUMBERS),
        (truncated_polynomial(F2, 4), KIND_TRUNCATED),
        (kronecker(F3, 2), KIND_OTHER),
    ]:
        v = classify_truncated(alg)
        assert v.kind == expected
        seen.add(v.kind)
    assert len(seen) == 4
