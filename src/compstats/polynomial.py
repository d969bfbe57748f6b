"""Exact sparse polynomials and truncated power series in the variables p, q, t, u, v.

A polynomial is a map from monomials to arbitrary-precision integer
coefficients; zero coefficients are never stored, so equal polynomials have
equal term maps.  A monomial is a 5-tuple of nonnegative exponents, one slot
per variable in the fixed order ``VARIABLES``.

A :class:`Series` wraps a polynomial together with a truncation cap on one
designated "size" variable: every term whose exponent in that variable
exceeds the cap is discarded.  The remaining variables stay exact.  All
values are immutable after construction and all operations are pure, so
concurrent reads are safe.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from operator import itemgetter

from .errors import CapVarMismatch, InexactDivision, check_nonnegative

VARIABLES = ("p", "q", "t", "u", "v")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_NVARS = len(VARIABLES)
_CONST_KEY = (0,) * _NVARS

Monomial = tuple[int, int, int, int, int]


def _index(name: str) -> int:
    """The exponent slot of a variable name."""
    try:
        return _VAR_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown variable {name!r}; expected one of {VARIABLES}") from None


def monomial_key(exponents: Mapping[str, int]) -> Monomial:
    """Turn an {variable: exponent} mapping into an internal exponent tuple."""
    key = [0] * _NVARS
    for name, exp in exponents.items():
        i = _index(name)
        if exp < 0:
            raise ValueError(f"negative exponent {exp} for variable {name!r}")
        key[i] = exp
    return tuple(key)


def monomial_exponents(key: Monomial) -> dict[str, int]:
    """Inverse of :func:`monomial_key`; zero exponents are omitted."""
    return {VARIABLES[i]: e for i, e in enumerate(key) if e != 0}


def _order_key(key: Monomial) -> tuple[int, Monomial]:
    # graded lexicographic: total degree first, then the exponent vector
    return (sum(key), key)


class Poly:
    """Immutable sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        clean: dict[Monomial, int] = {}
        if terms:
            for key, coeff in terms.items():
                if coeff != 0:
                    clean[key] = coeff
        self._terms = clean

    @classmethod
    def _of(cls, terms: dict[Monomial, int]) -> Poly:
        """Wrap a term map that holds no zero coefficient, without copying it."""
        result = cls.__new__(cls)
        result._terms = terms
        return result

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> Poly:
        return cls()

    @classmethod
    def one(cls) -> Poly:
        return cls({_CONST_KEY: 1})

    @classmethod
    def constant(cls, value: int) -> Poly:
        return cls({_CONST_KEY: value})

    @classmethod
    def variable(cls, name: str, exponent: int = 1) -> Poly:
        return cls({monomial_key({name: exponent}): 1})

    # -- inspection ----------------------------------------------------------

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        """Yield (monomial, coefficient) pairs in graded lexicographic order."""
        for key in sorted(self._terms, key=_order_key):
            yield key, self._terms[key]

    def coeff(self, **exponents: int) -> int:
        """Coefficient of the given monomial, e.g. ``poly.coeff(p=2, q=1)``."""
        return self._terms.get(monomial_key(exponents), 0)

    def degree(self, var: str) -> int:
        """Largest exponent of ``var`` appearing in the support; -1 for the zero polynomial."""
        idx = _index(var)
        if not self._terms:
            return -1
        return max(key[idx] for key in self._terms)

    def variables_used(self) -> set[str]:
        return {name for name, column in zip(VARIABLES, zip(*self._terms)) if any(column)}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(value: Poly | int) -> Poly:
        if isinstance(value, Poly):
            return value
        if isinstance(value, int):
            return Poly.constant(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Poly | int) -> Poly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        return Poly._of(out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._of({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: Poly | int) -> Poly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> Poly:
        return Poly.constant(other) - self

    def __mul__(self, other: Poly | int) -> Poly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Monomial, int] = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2],
                       ka[3] + kb[3], ka[4] + kb[4])
                new = out.get(key, 0) + ca * cb
                if new:
                    out[key] = new
                else:
                    del out[key]
        return Poly._of(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = Poly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- substitution and reshaping -------------------------------------------

    def _rekey(self, sources: Sequence[int]) -> Poly:
        """Slot j of each new key is slot sources[j] of the old key, or 0 where sources[j] is
        _NVARS; coefficients of terms that land on one monomial are summed."""
        pick = itemgetter(*sources)
        out: dict[Monomial, int] = {}
        for key, coeff in self._terms.items():
            new_key = pick(key + (0,))
            out[new_key] = out.get(new_key, 0) + coeff
        return Poly._of({key: coeff for key, coeff in out.items() if coeff})

    def eval_at_one(self, var: str) -> Poly:
        """Substitute ``var = 1``, recombining terms canonically."""
        idx = _index(var)
        return self._rekey([_NVARS if i == idx else i for i in range(_NVARS)])

    def rename(self, mapping: Mapping[str, str]) -> Poly:
        """Relabel variables; no two variables that occur may be sent to one variable."""
        moves = {_index(src): _index(dst) for src, dst in mapping.items()}
        used = self.variables_used()
        sources = [_NVARS] * _NVARS
        for i, name in enumerate(VARIABLES):
            if name in used:
                j = moves.get(i, i)
                if sources[j] != _NVARS:
                    raise ValueError(f"rename sends both {VARIABLES[sources[j]]!r} and {name!r} "
                                     f"to {VARIABLES[j]!r}")
                sources[j] = i
        return self._rekey(sources)

    def truncate(self, caps: Mapping[str, int]) -> Poly:
        """Discard every term whose exponent exceeds the cap in any capped variable."""
        out = self._terms
        for name, cap in caps.items():
            i = _index(name)
            out = {key: coeff for key, coeff in out.items() if key[i] <= cap}
        return Poly._of(out)

    # -- rendering and serialization -------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for key, coeff in self.terms():
            vars_part = " ".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(VARIABLES, key)
                if e
            )
            mag = abs(coeff)
            if vars_part and mag == 1:
                body = vars_part
            elif vars_part:
                body = f"{mag} {vars_part}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(f"-{body}" if coeff < 0 else body)
            else:
                pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def to_json_obj(self) -> list[dict]:
        """JSON-ready list of terms in canonical order, coefficients as decimal strings."""
        return [
            {"exponents": monomial_exponents(key), "coefficient": str(coeff)}
            for key, coeff in self.terms()
        ]


# convenience singletons for building polynomials in code and tests
p = Poly.variable("p")
q = Poly.variable("q")
t = Poly.variable("t")
u = Poly.variable("u")
v = Poly.variable("v")


class Series:
    """A polynomial truncated at a fixed degree cap in one designated variable.

    ``cap_var`` names the size variable; coefficients of every power of the
    other variables are exact.  Arithmetic requires matching cap variables
    and yields the minimum of the two caps, so a result is never claimed
    accurate beyond what both operands support.
    """

    __slots__ = ("_body", "_cap_var", "_cap")

    def __init__(self, body: Poly, cap_var: str, cap: int):
        _index(cap_var)
        check_nonnegative("cap", cap)
        self._body = body.truncate({cap_var: cap})
        self._cap_var = cap_var
        self._cap = cap

    @classmethod
    def one(cls, cap_var: str, cap: int) -> Series:
        return cls(Poly.one(), cap_var, cap)

    @property
    def body(self) -> Poly:
        return self._body

    @property
    def cap_var(self) -> str:
        return self._cap_var

    @property
    def cap(self) -> int:
        return self._cap

    def coeff(self, **exponents: int) -> int:
        return self._body.coeff(**exponents)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (self._cap_var == other._cap_var and self._cap == other._cap
                and self._body == other._body)

    def __hash__(self) -> int:
        return hash((self._body, self._cap_var, self._cap))

    def _combine_cap(self, other: Series) -> int:
        if self._cap_var != other._cap_var:
            raise CapVarMismatch(
                f"cap variables differ: {self._cap_var!r} vs {other._cap_var!r}")
        return min(self._cap, other._cap)

    def __add__(self, other: Series | Poly | int) -> Series:
        if isinstance(other, Series):
            cap = self._combine_cap(other)
            return Series(self._body + other._body, self._cap_var, cap)
        if isinstance(other, (Poly, int)):
            return Series(self._body + other, self._cap_var, self._cap)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> Series:
        return Series(-self._body, self._cap_var, self._cap)

    def __sub__(self, other: Series | Poly | int) -> Series:
        return self + (-other)

    def __mul__(self, other: Series | Poly | int) -> Series:
        if isinstance(other, Series):
            cap = self._combine_cap(other)
            return Series(self._body * other._body, self._cap_var, cap)
        if isinstance(other, (Poly, int)):
            return Series(self._body * other, self._cap_var, self._cap)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"{self._body} + O({self._cap_var}^{self._cap + 1})"

    def __repr__(self) -> str:
        return f"Series({self})"


def from_coefficients(coefficients: Iterable[int], var: str) -> Poly:
    """The univariate polynomial sum_e coefficients[e] var^e."""
    return Poly({monomial_key({var: e}): c for e, c in enumerate(coefficients)})


def divexact(numerator: Poly, denominator: Poly, var: str) -> Poly:
    """Exact division of univariate polynomials in ``var`` over the integers.

    Raises InexactDivision if the denominator does not divide the numerator;
    the callers use this only where exactness is a theorem, so a failure
    signals a bug rather than a data condition.
    """
    idx = _index(var)
    for poly, label in ((numerator, "numerator"), (denominator, "denominator")):
        extra = poly.variables_used() - {var}
        if extra:
            raise ValueError(f"{label} is not univariate in {var!r}: uses {sorted(extra)}")
    if not denominator:
        raise ZeroDivisionError("polynomial division by zero")
    deg_n = numerator.degree(var)
    deg_d = denominator.degree(var)
    num = [0] * (deg_n + 1)
    for key, coeff in numerator._terms.items():
        num[key[idx]] = coeff
    den = [0] * (deg_d + 1)
    for key, coeff in denominator._terms.items():
        den[key[idx]] = coeff
    if deg_n < deg_d:
        if numerator:
            raise InexactDivision("degree of numerator is below the denominator")
        return Poly.zero()
    lead = den[deg_d]
    quot = [0] * (deg_n - deg_d + 1)
    rem = list(num)
    for i in range(deg_n - deg_d, -1, -1):
        head = rem[i + deg_d]
        if head == 0:
            continue
        c, r = divmod(head, lead)
        if r:
            raise InexactDivision(f"leading coefficient {head} not divisible by {lead}")
        quot[i] = c
        for j, dcoeff in enumerate(den):
            rem[i + j] -= c * dcoeff
    if any(rem):
        raise InexactDivision("nonzero remainder in supposedly exact division")
    return from_coefficients(quot, var)
