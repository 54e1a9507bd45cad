"""The value records: immutable, equal and hashed by value, with the
dataclass-style repr, and the same fields in the same positional order.

``VerificationReport`` is the one mutable record; ``QuadScalar`` is a
plain class, so it has none of a tuple's operators.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from cubicorbit.exact import FactoredValue, QuadScalar
from cubicorbit.linearize import InitialPair, LinearState, RepeatedRatioConstants
from cubicorbit.matrix import CaseTag, Mat2, SystemParams, eigenvalues
from cubicorbit.solve import OrbitTerm, TrivialReport, VerificationReport, verify
from cubicorbit.zerosets import Membership, ZeroSetVerdict

F = Fraction


def params(a, b, c, d):
    return SystemParams(F(a), F(b), F(c), F(d))


def init(x0, y0):
    return InitialPair(F(x0), F(y0))


# (factory, field names in order, repr); each call of a factory builds new
# objects, so two calls give equal records that share no field object
RECORDS = [
    (lambda: QuadScalar(F(1, 2), F(-3), F(5)), ("p", "q", "D"),
     "QuadScalar(p=Fraction(1, 2), q=Fraction(-3, 1), D=Fraction(5, 1))"),
    (lambda: FactoredValue.build(-1, [(F(2, 3), 4)]), ("sign", "factors"),
     "FactoredValue(sign=-1, factors=((Fraction(2, 3), 4),))"),
    (lambda: init(1, F(-2, 3)), ("x0", "y0"),
     "InitialPair(x0=Fraction(1, 1), y0=Fraction(-2, 3))"),
    (lambda: LinearState(3, F(1), F(2)), ("n", "u", "v"),
     "LinearState(n=3, u=Fraction(1, 1), v=Fraction(2, 1))"),
    (lambda: RepeatedRatioConstants(F(1), F(2), F(3), F(4)), ("c1", "c2", "c3", "c4"),
     "RepeatedRatioConstants(c1=Fraction(1, 1), c2=Fraction(2, 1), c3=Fraction(3, 1), c4=Fraction(4, 1))"),
    (lambda: params(1, 2, 3, 4), ("a", "b", "c", "d"),
     "SystemParams(a=Fraction(1, 1), b=Fraction(2, 1), c=Fraction(3, 1), d=Fraction(4, 1))"),
    (Mat2.identity, ("a11", "a12", "a21", "a22"),
     "Mat2(a11=Fraction(1, 1), a12=Fraction(0, 1), a21=Fraction(0, 1), a22=Fraction(1, 1))"),
    (lambda: eigenvalues(params(1, 2, 3, 4)), ("discriminant", "lam1", "lam2"),
     "Eigenpair(discriminant=Fraction(33, 1), "
     "lam1=QuadScalar(p=Fraction(5, 2), q=Fraction(1, 2), D=Fraction(33, 1)), "
     "lam2=QuadScalar(p=Fraction(5, 2), q=Fraction(-1, 2), D=Fraction(33, 1)))"),
    (lambda: ZeroSetVerdict(Membership.MEMBER, witness=2), ("status", "witness", "horizon"),
     "ZeroSetVerdict(status=<Membership.MEMBER: 'member'>, witness=2, horizon=None)"),
    (lambda: OrbitTerm(2, FactoredValue.build(1, [(F(2), 3)]), FactoredValue(0, ())), ("n", "x", "y"),
     "OrbitTerm(n=2, x=FactoredValue(sign=1, factors=((Fraction(2, 1), 3),)), "
     "y=FactoredValue(sign=0, factors=()))"),
    (lambda: TrivialReport(witness=1, case=CaseTag.REPEATED), ("witness", "case"),
     "TrivialReport(witness=1, case=<CaseTag.REPEATED: 'repeated'>)"),
]
IDS = [r[2].split("(")[0] for r in RECORDS]


@pytest.mark.parametrize("make,fields,text", RECORDS, ids=IDS)
class TestRecord:
    def test_fields_and_repr(self, make, fields, text):
        record = make()
        assert record.__match_args__ == fields
        assert repr(record) == text

    def test_assignment_raises(self, make, fields, text):
        record = make()
        for name in fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == text

    def test_equal_and_hash_by_value(self, make, fields, text):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert copy.copy(a) == a and copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a


def test_records_differ_by_value():
    assert params(1, 2, 3, 4) != params(1, 2, 3, 5)
    assert ZeroSetVerdict(Membership.MEMBER, witness=2) != ZeroSetVerdict(Membership.MEMBER, witness=3)
    assert FactoredValue.build(1, [(F(2), 3)]) != FactoredValue.build(-1, [(F(2), 3)])


def test_defaults():
    verdict = ZeroSetVerdict(Membership.NON_MEMBER)
    assert (verdict.witness, verdict.horizon) == (None, None)
    assert ZeroSetVerdict(Membership.UNKNOWN_WITHIN_HORIZON, horizon=8).horizon == 8


def test_properties_survive():
    p = params(1, 2, 3, 4)
    assert (p.det, p.trace, p.discriminant, p.is_degenerate) == (-2, 5, 33, False)
    assert eigenvalues(params(2, 1, 1, 2)).is_rational
    assert not eigenvalues(p).is_rational
    assert ZeroSetVerdict(Membership.MEMBER, witness=0).is_member
    assert Mat2.of(p) * Mat2.identity() == Mat2(F(1), F(2), F(3), F(4))


class TestQuadScalarValue:
    def test_rejects_square_radicand(self):
        for D in (F(0), F(1), F(4), F(25, 49)):
            with pytest.raises(ValueError):
                QuadScalar(F(1), F(1), D)

    def test_compares_by_value(self):
        x = QuadScalar(F(2, 4), F(1), F(2))
        assert x == QuadScalar(F(1, 2), F(1), F(2))
        assert hash(x) == hash(QuadScalar(F(1, 2), F(1), F(2)))
        assert x != QuadScalar(F(1, 2), F(1), F(3))
        assert x != (F(1, 2), F(1), F(2))
        assert x != F(1, 2)

    def test_not_a_tuple(self):
        x = QuadScalar(F(1, 2), F(1), F(2))
        assert not isinstance(x, tuple)
        assert x * 2 == 2 * x == QuadScalar(F(1), F(2), F(2))
        assert x + 1 == 1 + x == QuadScalar(F(3, 2), F(1), F(2))
        with pytest.raises(TypeError):
            x + (1,)


class TestVerificationReport:
    @pytest.mark.parametrize(
        "args,doc",
        [
            ((params(2, 1, 1, 2), init(1, 2), 3),
             {"case": "distinct", "depth": 3, "trivial": {"member": False},
              "equal_by_n": [True] * 4, "all_equal": True}),
            ((params(1, 1, 1, -1), init(1, 1), 4),
             {"case": "antitrace-distinct", "depth": 4,
              "trivial": {"member": True, "witness": 1, "zeros_confirmed": True},
              "equal_by_n": [], "all_equal": True}),
            ((params(3, 1, -1, 1), init(1, 2), 3),
             {"case": "repeated", "depth": 3, "trivial": {"member": False},
              "equal_by_n": [True] * 4, "all_equal": True}),
            ((params(1, 2, 2, 4), init(1, 1), 3),
             {"case": "rank-deficient", "depth": 3, "trivial": {"member": False},
              "equal_by_n": [True] * 4, "all_equal": True}),
            ((params(-3, -3, -3, 0), init(2, -3), 1, 10**6, 1),
             {"case": "distinct", "depth": 1,
              "trivial": {"member": False, "unknown_within_horizon": 1},
              "equal_by_n": [True, True], "all_equal": True}),
        ],
        ids=["distinct", "member", "repeated", "rank-deficient", "unknown"],
    )
    def test_to_dict(self, args, doc):
        out = verify(*args).to_dict()
        assert out == doc
        assert list(out) == list(doc)

    def test_mutable_and_compared_by_value(self):
        a = verify(params(-3, -3, -3, 0), init(2, -3), 1, horizon=1)
        b = verify(params(-3, -3, -3, 0), init(2, -3), 1, horizon=1)
        assert a == b
        assert repr(a) == (
            "VerificationReport(case=<CaseTag.DISTINCT: 'distinct'>, "
            "verdict=ZeroSetVerdict(status=<Membership.UNKNOWN_WITHIN_HORIZON: "
            "'unknown-within-horizon'>, witness=None, horizon=1), depth=1, "
            "equal_by_n=[True, True], trivial_zeros_confirmed=None)"
        )
        b.equal_by_n.append(False)
        assert a != b and b.first_divergence == 2 and not b.all_equal
        b.trivial_zeros_confirmed = True
        assert b.trivial_zeros_confirmed is True
        with pytest.raises(TypeError):
            hash(a)

    def test_fresh_list_per_report(self):
        verdict = ZeroSetVerdict(Membership.NON_MEMBER)
        a = VerificationReport(CaseTag.DISTINCT, verdict, 2)
        b = VerificationReport(CaseTag.DISTINCT, verdict, 2)
        a.equal_by_n.append(True)
        assert b.equal_by_n == [] and b.trivial_zeros_confirmed is None
