"""Every case-specific routine rejects exactly the systems its case excludes.

The expected behaviour is written out as the explicit det / discriminant /
trace conditions, independently of ``classify``, on one fixed system per
case.
"""

from fractions import Fraction

import pytest

from cubicorbit.errors import CaseMismatch
from cubicorbit.linearize import InitialPair
from cubicorbit.matrix import (
    SystemParams,
    power_antitrace,
    power_distinct,
    power_rank_deficient,
    power_repeated,
)
from cubicorbit.solve import solve_antitrace, solve_distinct, solve_rank_deficient, solve_repeated
from cubicorbit.zerosets import z0_member, z1_member, z2_member, z3_member

SYSTEMS = {
    "rank-deficient": (1, 1, 1, 1),
    "repeated": (3, 1, -1, 1),
    "distinct": (2, 1, 1, 2),
    "trace-zero": (1, 1, 1, -1),
}
INIT = InitialPair(Fraction(1), Fraction(2))


def _rank_deficient(p):
    return p.det == 0


def _repeated(p):
    return p.det != 0 and p.discriminant == 0


def _distinct_eigenvalues(p):
    return p.det != 0 and p.discriminant != 0


def _distinct(p):
    return _distinct_eigenvalues(p) and p.trace != 0


def _trace_zero(p):
    return _distinct_eigenvalues(p) and p.trace == 0


# name -> (call taking (p, init), the condition under which it accepts p)
GUARDED = {
    "power_rank_deficient": (lambda p, i: power_rank_deficient(p, 3), _rank_deficient),
    "power_repeated": (lambda p, i: power_repeated(p, 3), _repeated),
    "power_antitrace": (lambda p, i: power_antitrace(p, 3), _trace_zero),
    "power_distinct": (lambda p, i: power_distinct(p, 3), _distinct_eigenvalues),
    "z0_member": (z0_member, _rank_deficient),
    "z1_member": (z1_member, _distinct),
    "z2_member": (z2_member, _repeated),
    "z3_member": (z3_member, _trace_zero),
    "solve_rank_deficient": (lambda p, i: solve_rank_deficient(p, i, 3), _rank_deficient),
    "solve_repeated": (lambda p, i: solve_repeated(p, i, 3), _repeated),
    "solve_distinct": (lambda p, i: solve_distinct(p, i, 3), _distinct),
    "solve_antitrace": (lambda p, i: solve_antitrace(p, i, 3), _trace_zero),
}


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("name", GUARDED)
def test_case_mismatch_exactly_outside_the_case(name, system):
    p = SystemParams(*(Fraction(v) for v in SYSTEMS[system]))
    call, accepts = GUARDED[name]
    if accepts(p):
        call(p, INIT)
    else:
        with pytest.raises(CaseMismatch):
            call(p, INIT)


def test_each_system_lies_in_its_case():
    cases = {
        "rank-deficient": _rank_deficient,
        "repeated": _repeated,
        "distinct": _distinct,
        "trace-zero": _trace_zero,
    }
    for system, values in SYSTEMS.items():
        p = SystemParams(*(Fraction(v) for v in values))
        assert [name for name, holds in cases.items() if holds(p)] == [system]
