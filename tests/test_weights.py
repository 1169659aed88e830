"""Value semantics of the small records: ``WeightSpec`` and ``IdentityCheck``."""

import pytest

from negmom import weights as W
from negmom.poly import MultiPoly
from negmom.reciprocity import IdentityCheck, check_values


def _const(c):
    return lambda i: MultiPoly.const(c)


def test_weight_spec_compares_and_hashes_by_name():
    ones = W.WeightSpec("same", _const(1), _const(1))
    twos = W.WeightSpec("same", _const(2), _const(1))
    other = W.WeightSpec("other", _const(1), _const(1))
    assert ones == twos and hash(ones) == hash(twos)
    assert ones != other and not ones == "same"
    assert {ones: 1, twos: 2} == {ones: 2}
    assert len({W.symbolic(), W.symbolic(), W.one_one()}) == 2
    assert W.symbolic().reversed(3) == W.symbolic().reversed(3) != W.symbolic()


def test_custom_lists_place_each_entry_at_its_index():
    # an empty list is all symbolic; an empty entry is an error, never
    # dropped (dropping one shifts every later weight down an index)
    empty = W.spec("custom:[]", "custom:[ ]")
    assert [empty.b(i) for i in range(3)] == [MultiPoly.variable("b", i) for i in range(3)]
    assert empty.lam(1) == MultiPoly.variable("lam", 1)
    s = W.spec("custom:[1, 2]", "custom:[3]")
    assert [s.b(0), s.b(1), s.b(2)] == [1, 2, MultiPoly.variable("b", 2)]
    assert [s.lam(1), s.lam(2)] == [3, MultiPoly.variable("lam", 2)]
    for body in (",2", "1,,2", "1,2,", " , ", ","):
        with pytest.raises(ValueError, match="^empty entry in "):
            W.parse_gen(f"custom:[{body}]", "b")


def test_weight_spec_is_immutable():
    spec = W.one_one()
    for attr in ("name", "b", "lam", "unknown"):
        with pytest.raises(AttributeError):
            setattr(spec, attr, None)
    for attr in ("name", "b", "lam"):
        with pytest.raises(AttributeError):
            delattr(spec, attr)
    assert spec.name == "b=one,lam=one" and spec.b(3) == MultiPoly.const(1)
    assert spec.a is spec.lam


def test_identity_check_fields_and_defaults():
    c = IdentityCheck("ck", {"n": 1}, "SKIPPED")
    assert (c.identity, c.params, c.status) == ("ck", {"n": 1}, "SKIPPED")
    assert (c.lhs, c.rhs, c.witness, c.reason) == (None, None, None, None)
    assert not c.passed
    c = IdentityCheck("ck", {}, "FAIL", 1, 2, witness="x", reason="why")
    assert (c.lhs, c.rhs, c.witness, c.reason) == (1, 2, "x", "why")
    c = IdentityCheck("ck", {}, "PASS", rhs=3)
    assert c.passed and c.lhs is None and c.rhs == 3
    assert check_values("ck", {}, 2, MultiPoly.const(2)).passed


def test_reprs_name_what_a_failure_needs():
    assert repr(W.one_one()) == "WeightSpec('b=one,lam=one')"
    assert repr(IdentityCheck("ck", {"n": 1}, "FAIL", witness="-1")) == \
        "IdentityCheck('ck', {'n': 1}, 'FAIL', witness='-1', reason=None)"
