"""Exact sparse multivariate Laurent polynomials over the rationals.

A polynomial maps monomials to nonzero ``int`` or ``Fraction``
coefficients; floats are rejected.  Exponents may be negative, so the
ring is a Laurent polynomial ring.  A variable is a ``(family, index)``
pair drawn from the fixed families

    b0, b1, ...   lam1, lam2, ...   a1, a2, ...
    V0, V1, ...   A1, A2, ...       q   x

(``q`` and ``x`` carry no index, stored as index -1).

Packed monomials (Monagan & Pearce 2009).  Inside ``MultiPoly`` a
monomial is one integer.  Each variable owns a slot from an append-only
intern table, filled in order of first use, and slot ``s`` holds a
signed exponent in a 32-bit field: the key is ``sum(e_s << 32*s)``.  So
a monomial product is one integer addition, a power one multiplication,
a unit inverse one negation, and a field reads back by a biased shift
and mask.  Slot numbers are private to a process; pickling goes through
tuple monomials.  ``zero``, ``const`` and ``variable`` write the packed
terms directly.  No operation changes a polynomial's terms once it is
built, so ``variable`` hands out one shared ``MultiPoly`` per (family,
index, exponent), made on first use.

Overflow.  A field holds ``|e| <= 2**31 - 1``.  Each polynomial carries
an upper bound on its ``|e|``: a product's bound is the sum of its
factors' bounds, a sum's the larger one.  When a bound passes the limit
the true exponent range is computed (a product's extreme exponents are
the sums of its factors' extremes), and ``OverflowError`` is raised only
if that range leaves the field; an exponent never wraps.

Tuple monomials, sorted tuples of ``(variable, exponent)`` pairs with
nonzero exponents, appear only at the public edge: the constructor,
``terms``, ``leading``, ``monomial_content``, ``shift_monomial`` and
pickling.  Canonical term order: a higher total degree comes first;
between equal degrees, walk the variables in variable order (family as
listed above, then index) and let the first variable where the two
monomials differ decide: a variable present in one monomial and absent
from the other puts the first one ahead, even with a negative exponent,
and when both have it the larger exponent comes first.  ``_canonical``
reads this order off the packed keys with one integer sort.  The text
rendering produced by ``render`` is the fixture format used throughout
the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Collection, Dict, Iterable, Iterator, List, Mapping, Tuple, Union

FAMILIES = ("b", "lam", "a", "V", "A", "q", "x")
_FAMILY_RANK = {fam: r for r, fam in enumerate(FAMILIES)}
_UNINDEXED = ("q", "x")

Var = Tuple[str, int]
Monomial = Tuple[Tuple[Var, int], ...]
Scalar = Union[int, Fraction]


def _var_key(v: Var) -> Tuple[int, int]:
    return (_FAMILY_RANK[v[0]], v[1])


def make_var(family: str, index: int | None = None) -> Var:
    """Build a variable key, validating family and index conventions."""
    if family not in _FAMILY_RANK:
        raise ValueError(f"unknown variable family {family!r}")
    if family in _UNINDEXED:
        if index not in (None, -1):
            raise ValueError(f"{family} carries no index")
        return (family, -1)
    if index is None or index < 0:
        raise ValueError(f"{family} needs a nonnegative index, got {index!r}")
    return (family, index)


def var_name(v: Var) -> str:
    fam, idx = v
    return fam if fam in _UNINDEXED else f"{fam}{idx}"


# -- packed monomial keys -----------------------------------------------------

_W = 32                      # bits per exponent field
_B = 1 << _W
_HALF = _B >> 1
_MASK = _B - 1
EXPONENT_LIMIT = _HALF - 1   # largest |exponent| a field holds

_SLOT: Dict[Var, int] = {}   # variable -> slot, append-only
_VARS: List[Var] = []        # slot -> variable
_BIAS: List[int] = []        # slot -> HALF * (1 + B + ... + B**slot)
_RANK: List[Tuple[int, int]] = []     # slot -> _var_key of its variable
_POWERS: List[Dict[int, str]] = []    # slot -> {e: "name" or "name^e"}


class _Powers(dict):
    """Rendered ``name^e`` factors of one variable, filled on first use."""

    def __init__(self, name: str):
        super().__init__({1: name})
        self.name = name

    def __missing__(self, e: int) -> str:
        text = self[e] = f"{self.name}^{e}"
        return text


def _slot(v: Var) -> int:
    s = _SLOT.get(v)
    if s is None:
        if v[0] not in _FAMILY_RANK:
            raise ValueError(f"unknown variable family {v[0]!r}")
        s = len(_VARS)
        _SLOT[v] = s
        _VARS.append(v)
        _BIAS.append((_BIAS[-1] if _BIAS else 0) + (_HALF << (_W * s)))
        _RANK.append(_var_key(v))
        _POWERS.append(_Powers(var_name(v)))
    return s


def _exponents(keys: Iterable[int], s: int) -> List[int]:
    """Exponent of slot ``s`` in each key: one biased shift and mask."""
    bias, sh = _BIAS[s], _W * s
    return [(((k + bias) >> sh) & _MASK) - _HALF for k in keys]


def _fields(key: int) -> List[Tuple[int, int]]:
    """Nonzero ``(slot, exponent)`` fields of a key, lowest slot first."""
    out = []
    s = 0
    while key:
        e = key & _MASK
        if e >= _HALF:
            e -= _B
        if e:
            out.append((s, e))
        key = (key - e) >> _W
        s += 1
    return out


def _overflow(s: int) -> OverflowError:
    return OverflowError(f"exponent of {var_name(_VARS[s])} leaves the "
                         f"{_W}-bit field (|e| <= {EXPONENT_LIMIT})")


def _encode(mono: Iterable[Tuple[Var, int]]) -> Tuple[int, int]:
    """Key and largest |exponent| of a tuple monomial."""
    exps: Dict[int, int] = {}
    for v, e in mono:
        s = _slot(v)
        exps[s] = exps.get(s, 0) + e
    key = 0
    for s, e in exps.items():
        if abs(e) > EXPONENT_LIMIT:
            raise _overflow(s)
        key += e << (_W * s)
    return key, max(map(abs, exps.values()), default=0)


def _decode(key: int) -> Monomial:
    return tuple(sorted((_VARS[s], e) for s, e in _fields(key)))


def _reach(keys: Collection[int]) -> range:
    """Slots that may be set in some key: none above the largest key's top field."""
    if not keys:
        return range(0)
    return range(min(max(map(abs, keys)).bit_length() // _W + 1, len(_VARS)))


def _columns(keys: Collection[int]) -> Dict[int, List[int]]:
    """Exponent column of every slot that is nonzero in some key."""
    cols = {}
    for s in _reach(keys):
        col = _exponents(keys, s)
        if any(col):
            cols[s] = col
    return cols


def _ranges(keys: Collection[int]) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Per-slot minimum and maximum exponent over ``keys`` (absent = 0),
    for every slot that is nonzero in some key."""
    cols = _columns(keys)
    return {s: min(c) for s, c in cols.items()}, {s: max(c) for s, c in cols.items()}


def _used(keys: Iterable[int]) -> Tuple[bool, int]:
    """Whether every exponent in ``keys`` is >= 0, and the OR of the keys.

    A negative field reads as ``e + 2**32`` (the field above lends it the
    borrow), so the lowest negative field of a key has its top bit set,
    which no field of a true polynomial has.  For a true polynomial the OR
    is nonzero in exactly the fields some key uses.
    """
    acc = 0
    for k in keys:
        acc |= k
    return not (_BIAS and acc & _BIAS[-1]), acc


def _set_slots(acc: int) -> List[int]:
    """Slots whose field is nonzero in ``acc``."""
    return [s for s in range(acc.bit_length() // _W + 1) if (acc >> (_W * s)) & _MASK]


def _content(keys: Collection[int]) -> Tuple[int, int]:
    """Key of the per-slot minimum exponent (the monomial gcd), and its bound.

    In a true polynomial a slot's minimum is 0 as soon as one key lacks
    the variable, which a short scan usually finds."""
    true, acc = _used(keys)
    if not true:
        lo, _ = _ranges(keys)
        key = sum(e << (_W * s) for s, e in lo.items())
        return key, max((abs(e) for e in lo.values()), default=0)
    key = bound = 0
    for s in _set_slots(acc):
        sh = _W * s
        if all((k >> sh) & _MASK for k in keys):
            e = min((k >> sh) & _MASK for k in keys)
            key += e << sh
            bound = max(bound, e)
    return key, bound


def _product_bound(a: Collection[int], b: Collection[int]) -> int:
    """Exact largest |exponent| of a product of polynomials with these keys.

    The extreme exponents of a product are the sums of its factors'
    extremes (the Newton polytope of a product is the Minkowski sum), so
    this raises ``OverflowError`` exactly when the product leaves a field.
    """
    la, ha = _ranges(a)
    lb, hb = _ranges(b)
    bound = 0
    for s in la.keys() | lb.keys():
        top = ha.get(s, 0) + hb.get(s, 0)
        low = la.get(s, 0) + lb.get(s, 0)
        if top > EXPONENT_LIMIT or low < -EXPONENT_LIMIT:
            raise _overflow(s)
        bound = max(bound, top, -low)
    return bound


def _canonical(keys: List[int]) -> Tuple[List[int], List[Tuple[int, ...]], List[int]]:
    """The slots present in ``keys`` in variable order, each key's exponent
    row over those slots, and one integer per key that sorts in canonical
    order (larger = earlier).

    The integer stacks the total degree on top of one field per present
    slot, first variable highest.  A field holds ``e + top + 1 >= 1`` for
    an exponent e (|e| <= top) and 0 for an absent variable, so a present
    variable outranks an absent one even when its exponent is negative.
    """
    if not keys:
        return [], [], []
    cols = sorted((_RANK[s], s, col) for s, col in _columns(keys).items())
    if not cols:
        return [], [()] * len(keys), [0] * len(keys)
    top = max(max(max(col), -min(col)) for _, _, col in cols)
    off, width = top + 1, (2 * top + 1).bit_length()
    rows = list(zip(*[col for _, _, col in cols]))
    order = list(map(sum, rows))   # total degree on top; a negative one sorts too
    for _, _, col in cols:
        order = [(o << width) + (e + off if e else 0) for o, e in zip(order, col)]
    return [s for _, s, _ in cols], rows, order


class MultiPoly:
    """Immutable sparse polynomial; all arithmetic is exact.

    ``_terms`` maps packed keys to coefficients; ``_bound`` is an upper
    bound on the largest |exponent| in ``_terms``.
    """

    __slots__ = ("_terms", "_bound")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        cleaned: Dict[int, Scalar] = {}
        bound = 0
        if terms:
            for m, c in terms.items():
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__}")
                if not c:
                    continue
                key, kb = _encode(m)
                c += cleaned.pop(key, 0)
                if c:
                    cleaned[key] = c.numerator if c.denominator == 1 else c
                bound = max(bound, kb)
        self._terms = cleaned
        self._bound = bound

    def __reduce__(self):
        # keys are private to a process: pickle tuple monomials
        return (MultiPoly, ({_decode(k): c for k, c in self._terms.items()},))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls.const(0)

    @classmethod
    def const(cls, c: Scalar) -> "MultiPoly":
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__}")
        res = cls.__new__(cls)
        res._terms = {0: c.numerator if c.denominator == 1 else c} if c else {}
        res._bound = 0
        return res

    @classmethod
    def variable(cls, family: str, index: int | None = None, exp: int = 1) -> "MultiPoly":
        """``family_index ** exp``.  No operation changes a polynomial, so
        ``MultiPoly`` hands out one shared instance per argument triple; a
        subclass gets a new instance of its own class on every call."""
        if cls is not MultiPoly:
            return _variable(cls, family, index, exp)
        p = _VARIABLES.get((family, index, exp))
        if p is None:   # a bad family, index or exponent raises and is not kept
            p = _VARIABLES[family, index, exp] = _variable(cls, family, index, exp)
        return p

    @classmethod
    def monomial(cls, coeff: Scalar, mono: Monomial) -> "MultiPoly":
        return cls({mono: coeff})

    def _shifted(self, key: int, kbound: int) -> "MultiPoly":
        """Every term multiplied by the monomial ``key`` (|exponents| <= kbound)."""
        if not key:
            return self
        bound = self._bound + kbound
        if bound > EXPONENT_LIMIT:
            bound = _product_bound(self._terms, (key,))
        return _wrap({k + key: c for k, c in self._terms.items()}, bound)

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[Tuple[Monomial, Scalar]]:
        """Terms in canonical order: higher total degree first; between
        equal degrees the first variable (in variable order) where two
        monomials differ decides, a present variable beating an absent one
        even with a negative exponent, else the larger exponent first."""
        keys = list(self._terms)
        order = _canonical(keys)[2]
        ranked = sorted(range(len(keys)), key=order.__getitem__, reverse=True)
        return iter([(_decode(keys[i]), self._terms[keys[i]]) for i in ranked])

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_const(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def is_term(self) -> bool:
        """True for a single-term polynomial (a unit in the Laurent ring)."""
        return len(self._terms) == 1

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_const():
            raise ValueError(f"not a constant: {self}")
        return self._terms[0]

    def variables(self) -> set:
        true, acc = _used(self._terms)
        return {_VARS[s] for s in (_set_slots(acc) if true else _ranges(self._terms)[0])}

    def _column(self, var: Var) -> Tuple[int, List[int]]:
        """Field shift of ``var`` and its exponent in each term, in ``_terms`` order."""
        s = _SLOT.get(var)
        if s is None:
            return 0, [0] * len(self._terms)
        return _W * s, _exponents(self._terms, s)

    def degree(self, var: Var) -> int:
        """Largest exponent of ``var`` (0 when absent; Laurent may be < 0)."""
        return max(self._column(var)[1], default=0)

    def leading(self) -> Tuple[Monomial, Scalar]:
        """First term in canonical order (see ``terms``): the highest total
        degree, ties broken at the first variable where monomials differ.
        The zero polynomial is rejected."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        keys = list(self._terms)
        order = _canonical(keys)[2]
        k = keys[max(range(len(keys)), key=order.__getitem__)]
        return _decode(k), self._terms[k]

    def coefficient(self, var: Var, exp: int) -> "MultiPoly":
        """Coefficient of ``var**exp`` as a polynomial in the other variables."""
        sh, exps = self._column(var)
        return _wrap({k - (e << sh): c for (k, c), e in zip(self._terms.items(), exps)
                      if e == exp}, self._bound)

    def as_univariate(self, var: Var) -> Dict[int, "MultiPoly"]:
        """Split into {exponent of var: coefficient poly}."""
        sh, exps = self._column(var)
        buckets: Dict[int, Dict[int, Scalar]] = {}
        for (k, c), e in zip(self._terms.items(), exps):
            buckets.setdefault(e, {})[k - (e << sh)] = c
        return {e: _wrap(t, self._bound) for e, t in buckets.items()}

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        if other.__class__ is not MultiPoly:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        out = dict(self._terms)
        get = out.get
        for m, c in other._terms.items():
            nc = get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                del out[m]
        res = MultiPoly.__new__(MultiPoly)
        res._terms = out
        res._bound = self._bound if self._bound >= other._bound else other._bound
        return res

    __radd__ = __add__

    def __neg__(self):
        return _wrap({m: -c for m, c in self._terms.items()}, self._bound)

    def __sub__(self, other):
        if other.__class__ is not MultiPoly:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        out = dict(self._terms)
        get = out.get
        for m, c in other._terms.items():
            nc = get(m, 0) - c
            if nc:
                out[m] = nc
            else:
                del out[m]
        res = MultiPoly.__new__(MultiPoly)
        res._terms = out
        res._bound = self._bound if self._bound >= other._bound else other._bound
        return res

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not MultiPoly:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        at, bt = self._terms, other._terms
        if not at or not bt:
            return MultiPoly()
        bound = _mul_bound(self, other)
        if len(at) == 1 or len(bt) == 1:
            if len(at) > 1:
                at, bt = bt, at
            (k1, c1), = at.items()
            out = {k1 + k2: c1 * c2 for k2, c2 in bt.items()}
        else:
            out = {}
            _add_product(out, at, bt)
        res = MultiPoly.__new__(MultiPoly)
        res._terms = out
        res._bound = bound
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.unit_inverse() ** (-n)
        if len(self._terms) == 1:
            (k, c), = self._terms.items()
            key, bound = ((k * n, self._bound * n) if self._bound * n <= EXPONENT_LIMIT
                          else _encode((_VARS[s], e * n) for s, e in _fields(k)))
            return _wrap({key: c ** n}, bound)
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def unit_inverse(self) -> "MultiPoly":
        """Inverse of a single-term polynomial (a Laurent unit)."""
        if len(self._terms) != 1:
            raise ZeroDivisionError(f"not invertible in the Laurent ring: {self}")
        (k, c), = self._terms.items()
        return _wrap({-k: _exact_quo(1, c)}, self._bound)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- substitution ------------------------------------------------------

    def subs(self, assignment: Mapping[Var, Union["MultiPoly", Scalar]]) -> "MultiPoly":
        """Substitute values for variables; untouched variables pass through.

        A variable occurring with a negative exponent must receive an
        invertible value (a nonzero constant or a single-term Laurent
        polynomial), otherwise ``ZeroDivisionError`` is raised.
        """
        vals = {_slot(v): (x if isinstance(x, MultiPoly) else MultiPoly.const(x))
                for v, x in assignment.items()}

        def term(k: int, c: Scalar) -> MultiPoly:
            factor = MultiPoly.const(c)
            rest = k
            for s, e in _fields(k):
                val = vals.get(s)
                if val is None:
                    continue
                rest -= e << (_W * s)
                factor = factor * val ** e   # e < 0 inverts a unit or raises
            return factor._shifted(rest, self._bound)

        return poly_sum(term(k, c) for k, c in self._terms.items())

    # -- Laurent normalization ----------------------------------------------

    def monomial_content(self) -> Monomial:
        """Per-variable minimum exponent over all terms (the monomial gcd)."""
        return _decode(_content(self._terms)[0])

    def shift_monomial(self, mono: Monomial, power: int = 1) -> "MultiPoly":
        """Multiply every term by ``mono**power`` (exact, unit operation)."""
        if not mono or power == 0:
            return self
        return self._shifted(*_encode((v, e * power) for v, e in mono))

    def primitive(self) -> Tuple["MultiPoly", "MultiPoly"]:
        """``(unit, part)`` with ``self == unit * part``: the unit a single
        term (monomial content times signed rational content), the part a
        true polynomial with zero monomial content, coprime integer
        coefficients and a positive leading coefficient.  Zero gives
        ``(1, 0)``.  The one normal form of a gcd and of a denominator."""
        terms = self._terms
        if len(terms) <= 1:
            return (self, _ONE) if terms else (_ONE, self)
        key, kb = _content(terms)
        part = self._shifted(-key, kb)
        scale = _exact_quo(_int_gcd(*(c.numerator for c in terms.values())),
                           _int_lcm(*(c.denominator for c in terms.values())))
        if part.leading()[1] < 0:
            scale = -scale
        if scale != 1:
            part = _wrap({k: _exact_quo(c, scale) for k, c in part._terms.items()}, part._bound)
        return _wrap({key: scale}, kb), part

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms in the order of ``terms`` (higher total
        degree first, then the first differing variable decides, present
        beating absent, larger exponent first), factors in variable order
        joined by ``*``, powers as ``^e``."""
        if not self._terms:
            return "0"
        keys = list(self._terms)
        coeffs = list(self._terms.values())
        slots, rows, order = _canonical(keys)
        powers = [_POWERS[s] for s in slots]
        parts = []
        for i in sorted(range(len(keys)), key=order.__getitem__, reverse=True):
            mono_str = "*".join([p[e] for p, e in zip(powers, rows[i]) if e])
            c = coeffs[i]
            neg = c < 0
            ac = -c if neg else c
            if mono_str and ac == 1:
                body = mono_str
            elif mono_str:
                body = f"{ac}*{mono_str}"
            else:
                body = str(ac)
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f" - {body}" if neg else f" + {body}")
        return "".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"MultiPoly({self.render()})"


_VARIABLES: Dict[Tuple[str, int | None, int], MultiPoly] = {}   # filled on first use
_ONE = MultiPoly.const(1)   # shared: no operation changes a built polynomial


def _variable(cls: type, family: str, index: int | None, exp: int) -> MultiPoly:
    """A new ``cls`` instance of one variable's power, written packed."""
    v = make_var(family, index)
    if exp == 0:
        return cls.const(1)
    s = _slot(v)
    if abs(exp) > EXPONENT_LIMIT:
        raise _overflow(s)
    res = cls.__new__(cls)
    res._terms = {exp << (_W * s): 1}
    res._bound = abs(exp)
    return res


def _wrap(terms: Dict[int, Scalar], bound: int) -> MultiPoly:
    """A polynomial over already packed, nonzero terms."""
    res = MultiPoly.__new__(MultiPoly)
    res._terms = terms
    res._bound = bound
    return res


def poly_sum(polys: Iterable[MultiPoly]) -> MultiPoly:
    """The sum of ``polys``, added into one running term dict: linear in
    their terms, where a chain of ``+`` copies every partial sum."""
    out: Dict[int, Scalar] = {}
    get = out.get
    bound = 0
    for p in polys:
        for k, c in p._terms.items():
            nc = get(k, 0) + c
            if nc:
                out[k] = nc
            else:
                del out[k]
        if p._bound > bound:
            bound = p._bound
    return _wrap(out, bound)


def _mul_bound(p: MultiPoly, q: MultiPoly) -> int:
    """The exponent bound of p * q: the sum of the factors' bounds, made
    exact when it passes the limit, so ``OverflowError`` is raised exactly
    when the product leaves a field."""
    bound = p._bound + q._bound
    return bound if bound <= EXPONENT_LIMIT else _product_bound(p._terms, q._terms)


def _add_product(out: Dict[int, Scalar], at: Dict[int, Scalar],
                 bt: Dict[int, Scalar]) -> None:
    """Add every product of a term of ``at`` and one of ``bt`` into the
    term dict ``out``, dropping the coefficients that cancel: the one
    product loop of ``__mul__`` and ``poly_dot``."""
    if len(at) > len(bt):   # keep the smaller operand outer
        at, bt = bt, at
    get = out.get
    for k1, c1 in at.items():
        for k2, c2 in bt.items():
            k = k1 + k2
            c = get(k)
            if c is None:   # a product of nonzero coefficients: no 0 + c
                out[k] = c1 * c2
            else:
                c += c1 * c2
                if c:
                    out[k] = c
                else:
                    del out[k]


def poly_dot(pairs: Iterable[Tuple[MultiPoly, MultiPoly]],
             start: MultiPoly | None = None) -> MultiPoly:
    """``start + sum(a * b for a, b in pairs)``, every product of terms
    added straight into one term dict (Monagan & Pearce 2009): no product
    and no partial sum is built as a polynomial.  Each product's exponent
    bound is ``__mul__``'s, so ``OverflowError`` is raised exactly when
    ``a * b`` raises it; the result's is the largest, as in ``+``."""
    out: Dict[int, Scalar] = {} if start is None else dict(start._terms)
    bound = 0 if start is None else start._bound
    for p, q in pairs:
        if p._terms and q._terms:
            bound = max(bound, _mul_bound(p, q))
            _add_product(out, p._terms, q._terms)
    return _wrap(out, bound)


def _exact_quo(a_: Scalar, b_: Scalar) -> Scalar:
    q_ = Fraction(a_, b_)
    return q_.numerator if q_.denominator == 1 else q_


# -- convenient variable factories -------------------------------------------

def b(i: int) -> MultiPoly:
    return MultiPoly.variable("b", i)


def lam(i: int) -> MultiPoly:
    return MultiPoly.variable("lam", i)


def a(i: int) -> MultiPoly:
    return MultiPoly.variable("a", i)


def V(i: int) -> MultiPoly:
    return MultiPoly.variable("V", i)


def A(i: int) -> MultiPoly:
    return MultiPoly.variable("A", i)


def q() -> MultiPoly:
    return MultiPoly.variable("q")


def x() -> MultiPoly:
    return MultiPoly.variable("x")


X_VAR: Var = ("x", -1)
Q_VAR: Var = ("q", -1)

# -- exact division and gcd ---------------------------------------------------

class ExactDivisionError(ArithmeticError):
    pass


def _strip_laurent(p: MultiPoly) -> Tuple[int, int, MultiPoly]:
    """Factor p = mono * phat, phat a true polynomial with zero monomial
    content (every variable has minimum exponent 0): (mono, bound, phat)."""
    key, kb = _content(p._terms)
    return key, kb, p._shifted(-key, kb)


def poly_div_exact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact division f / g in the Laurent ring; raises ExactDivisionError
    when it is not exact.

    The monomial content of both operands is factored out once, here.  What
    remains is a long division of true polynomials (``_divide``) by a
    divisor split once (``_Divisor``); its recursion never strips again.
    With the divisor's monomial content gone, divisibility in the Laurent
    ring and in the polynomial ring agree, so the quotient is the same.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return MultiPoly()
    key_f, bound_f, fh = _strip_laurent(f)
    key_g, bound_g, gh = _strip_laurent(g)
    # the quotient's monomial content is key_f - key_g
    quot_bound = bound_f + bound_g
    if quot_bound > EXPONENT_LIMIT:
        quot_bound = _product_bound((key_f,), (-key_g,))
    return _divide(fh, _Divisor(gh))._shifted(key_f - key_g, quot_bound)


class _Divisor:
    """A true polynomial split once for long division by it.

    A constant keeps only its value ``c``.  Otherwise ``var`` is its main
    variable (the last present one in variable order), ``sh`` that
    variable's field shift, ``coeffs`` its nonleading coefficients by
    exponent, ``deg`` its degree and ``lead`` its leading coefficient,
    split the same way.
    """

    __slots__ = ("c", "var", "sh", "coeffs", "deg", "lead")

    def __init__(self, g: MultiPoly):
        terms = g._terms
        if g.is_const():
            self.c = terms[0]
            self.var = None
            return
        s = max(_set_slots(_used(terms)[1]), key=_RANK.__getitem__)
        self.var = _VARS[s]
        self.sh = _W * s
        gu = g.as_univariate(self.var)
        self.deg = max(gu)
        self.lead = _Divisor(gu.pop(self.deg))
        self.coeffs = list(gu.items())


def _divide(f: MultiPoly, g: _Divisor) -> MultiPoly:
    """f / g for a true polynomial f: long division in g's main variable,
    each leading coefficient divided recursively by g's.  Raises
    ExactDivisionError when g does not divide f in the polynomial ring."""
    if g.var is None:
        c = g.c
        return _wrap({k: _exact_quo(cf, c) for k, cf in f._terms.items()}, f._bound)
    fu = f.as_univariate(g.var)
    dg, sh = g.deg, g.sh
    out: Dict[int, Scalar] = {}
    while fu:
        df = max(fu)
        if df < dg:
            raise ExactDivisionError("division not exact (degree shortfall)")
        qc = _divide(fu.pop(df), g.lead)   # qc * lead cancels the leading coefficient
        shift = df - dg
        vs = shift << sh
        # qc is free of the main variable: each step fills distinct keys
        out.update({k + vs: c for k, c in qc._terms.items()})
        for e, gc in g.coeffs:
            t = e + shift
            cur = fu.get(t)
            nc = -(qc * gc) if cur is None else cur - qc * gc
            if nc:
                fu[t] = nc
            else:
                del fu[t]
    # a quotient of true polynomials has no larger exponent than the dividend
    return _wrap(out, f._bound)


def _content_and_pp(p: MultiPoly, v: Var) -> Tuple[MultiPoly, Dict[int, MultiPoly]]:
    """Content (gcd of v-coefficients) and the univariate view of p."""
    pu = p.as_univariate(v)
    return _gcd_of(pu.values()), pu


def _gcd_of(polys: Iterable[MultiPoly]) -> MultiPoly:
    """gcd of two or more polynomials, stopping at the first constant."""
    it = iter(polys)
    cont = next(it)
    for c in it:
        cont = poly_gcd(cont, c)
        if cont.is_const():
            break
    return cont


def _univ_to_poly(pu: Dict[int, MultiPoly], v: Var) -> MultiPoly:
    sh = _W * _slot(v)
    return poly_sum(c._shifted(e << sh, abs(e)) for e, c in pu.items())


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """gcd in the Laurent ring, in ``primitive()``'s normal form: a true
    polynomial with zero monomial content, coprime integer coefficients and
    a positive leading coefficient.  Constants have gcd 1.

    Recursive over the variable tower: in the main variable v the contents
    recurse, and the primitive parts run ``_subresultant_prs``, whose every
    division is exact (Knuth's Algorithm C; Collins 1967; Brown 1971).
    """
    if f.is_zero():
        return g.primitive()[1]
    if g.is_zero():
        return f.primitive()[1]
    _, _, fh = _strip_laurent(f)
    _, _, gh = _strip_laurent(g)
    common = fh.variables() & gh.variables()
    if not common:   # a constant, or no variable in common
        return _ONE
    # shortest PRS: main variable with the smallest larger degree; both
    # have degree >= 1 in it, as neither has monomial content
    v = min(common, key=lambda w: (max(fh.degree(w), gh.degree(w)), _var_key(w)))
    cf, fu = _content_and_pp(fh, v)
    cg, gu = _content_and_pp(gh, v)
    fp = {e: poly_div_exact(c, cf) for e, c in fu.items()}
    gp = {e: poly_div_exact(c, cg) for e, c in gu.items()}
    return (poly_gcd(cf, cg) * _subresultant_prs(fp, gp, v)).primitive()[1]


@lru_cache(maxsize=64)
def irreducible(d: MultiPoly) -> bool:
    """Sound certificate that d is irreducible in the Laurent ring: True
    only when that is proved, False when unsure (or d is a unit or zero).
    Cached by d, so a table, whose values share one d = det A, pays for it
    once.

    With its monomial content stripped, d = c1 v + c0 for a variable v of
    degree exactly 1, c1 and c0 nonzero and free of v.  By Gauss's lemma
    such a polynomial is irreducible when gcd(c1, c0) is constant, and a
    factorization in the Laurent ring strips to one of d's polynomial
    part.  If d is irreducible every such v certifies it, so one
    ``poly_gcd``, at the first such v in variable order, decides."""
    _, _, dh = _strip_laurent(d)
    for w in sorted(dh.variables(), key=_var_key):
        if dh.degree(w) == 1:
            cu = dh.as_univariate(w)
            return poly_gcd(cu[1], cu[0]).is_const()
    return False


def _pseudo_rem(fu: Dict[int, MultiPoly], gu: Dict[int, MultiPoly]) -> Dict[int, MultiPoly]:
    """Textbook pseudo-remainder: lc(g)^(deg f - deg g + 1) * f  mod  g."""
    df = max(fu)
    dg = max(gu)
    glead = gu[dg]
    mults = 0
    r = dict(fu)
    while r and max(r) >= dg:
        dr = max(r)
        rlead = r[dr]
        shift = dr - dg
        nr: Dict[int, MultiPoly] = {e: c * glead for e, c in r.items()}
        mults += 1
        for e, c in gu.items():
            cur = nr.get(e + shift, MultiPoly())
            nc = cur - rlead * c
            if nc.is_zero():
                nr.pop(e + shift, None)
            else:
                nr[e + shift] = nc
        nr.pop(dr, None)
        r = {e: c for e, c in nr.items() if not c.is_zero()}
    want = df - dg + 1
    if mults < want:
        factor = glead ** (want - mults)
        r = {e: c * factor for e, c in r.items()}
    return r


def _subresultant_prs(fu: Dict[int, MultiPoly], gu: Dict[int, MultiPoly], v: Var) -> MultiPoly:
    """gcd of two primitive polynomials in (R[others])[v], up to a constant.

    Knuth's Algorithm C (TAOCP vol. 2, section 4.6.1) as written.  With
    g = h = 1 at the start, each step takes the pseudo-remainder r of the
    last two remainders u, w (deg u - deg w = delta), replaces (u, w) by
    (w, r / (g h^delta)), then sets g = lc(w) and h = g^delta / h^(delta-1).
    By the subresultant theorem (Collins 1967; Brown 1971) each quotient
    r / (g h^delta) is, up to sign, a subresultant of the two inputs, and
    each h, up to sign, a principal subresultant coefficient: all lie in
    R[others], so both divisions are exact, and a bookkeeping error raises
    ``ExactDivisionError`` rather than passing unseen.  The gcd is the
    primitive part of the last nonzero remainder.
    """
    if max(fu) < max(gu):
        fu, gu = gu, fu
    g_fac = h_fac = _ONE
    while True:
        delta = max(fu) - max(gu)
        r = _pseudo_rem(fu, gu)
        if not r:
            break
        if max(r) == 0:
            return _ONE
        divisor = g_fac * h_fac ** delta
        fu, gu = gu, {e: poly_div_exact(c, divisor) for e, c in r.items()}
        g_fac = fu[max(fu)]
        if delta:   # delta = 0 leaves h as it is
            h_fac = poly_div_exact(g_fac ** delta, h_fac ** (delta - 1))
    cont = _gcd_of(gu.values())
    return _univ_to_poly({e: poly_div_exact(c, cont) for e, c in gu.items()}, v)
