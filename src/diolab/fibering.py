"""Exact fiber-triviality analysis on finite discrete product spaces.

Everything here runs in exact rational arithmetic.  A space keeps its
weights as integer numerators over one common denominator, computed once,
so every measure is a sum of Python ints over a known denominator, and a
Fraction is built only for a value that is returned.  Triviality (null or
full) is then an integer comparison of a numerator with 0 or with its
denominator, never a tolerance, and it is the rational decision exactly.
Atoms of weight zero are first-class citizens; they are the only way
"almost every" can differ from "every" in this finite setting, and the
test suite feeds them in deliberately.

The headline check is the biconditional: a product set is trivial for the
product measure exactly when almost every row fiber is trivial AND almost
every column fiber is trivial.  Neither one-sided statement suffices, and
``cross_fibering_check`` reports both fiber fractions so callers can
exhibit the non-reversibility witnesses.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Sequence

import numpy as np

__all__ = [
    "DiscreteSpace",
    "FiberReport",
    "ProductDecomposition",
    "ProductSet",
    "Triviality",
    "cross_fibering_check",
    "decompose",
    "fiber_x",
    "fiber_y",
    "product_measure",
]


def _as_fraction(v) -> Fraction:
    try:
        if not isinstance(v, (bool, float)):
            return Fraction(v)
    except (TypeError, ZeroDivisionError):
        pass
    raise ValueError("weights must be exact rationals (int, Fraction, or 'a/b' string)")


@dataclass(frozen=True)
class DiscreteSpace:
    """Finite atom list with exact nonnegative rational weights summing to 1.

    ``_numers`` holds the weights as integer numerators over ``_denom``,
    the least common denominator of the weights.
    """

    atoms: tuple
    weights: tuple

    def __post_init__(self):
        weights = tuple(_as_fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if len(self.atoms) != len(weights):
            raise ValueError("atoms and weights must have equal length")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atoms must be distinct")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be >= 0")
        denom = math.lcm(*(w.denominator for w in weights))
        numers = tuple(w.numerator * (denom // w.denominator) for w in weights)
        if sum(numers) != denom:
            raise ValueError(f"weights must sum to exactly 1, got {sum(weights)}")
        object.__setattr__(self, "_numers", numers)
        object.__setattr__(self, "_denom", denom)

    @classmethod
    def uniform(cls, k: int) -> "DiscreteSpace":
        return cls(tuple(range(k)), tuple(Fraction(1, k) for _ in range(k)))

    def __len__(self) -> int:
        return len(self.atoms)

    def index(self, atom) -> int:
        try:
            return self.atoms.index(atom)
        except ValueError:
            raise ValueError(f"unknown atom {atom!r}") from None

    def measure(self, flags: Sequence[bool]) -> Fraction:
        return Fraction(sum(w for w, f in zip(self._numers, flags) if f), self._denom)


@dataclass(frozen=True)
class Triviality:
    """Null / Full / Nontrivial classification with the exact measure."""

    kind: str
    measure: Fraction

    @classmethod
    def of(cls, measure: Fraction) -> "Triviality":
        return _triviality(measure.numerator, measure.denominator)

    @property
    def trivial(self) -> bool:
        return self.kind != "Nontrivial"


@lru_cache(maxsize=4096)
def _triviality(numer: int, denom: int) -> Triviality:
    """numer/denom classified on integers; a space has at most min(2**k, denom + 1) fiber masses."""
    kind = "Null" if numer == 0 else "Full" if numer == denom else "Nontrivial"
    return Triviality(kind, Fraction(numer, denom))


class ProductSet:
    """Subset of X x Y given by a membership matrix of booleans or 0/1 integers."""

    def __init__(self, X: DiscreteSpace, Y: DiscreteSpace, member):
        member = np.asarray(member)
        if member.dtype != bool and (member.dtype.kind not in "iu" or not np.isin(member, (0, 1)).all()):
            raise ValueError("membership entries must be booleans or the integers 0 and 1")
        if member.shape != (len(X), len(Y)):
            raise ValueError(
                f"membership matrix shape {member.shape} does not match ({len(X)}, {len(Y)})"
            )
        self.X = X
        self.Y = Y
        self.member = np.array(member, dtype=bool)  # a read-only copy: later writes to the caller's array miss it
        self.member.setflags(write=False)

    @classmethod
    def full(cls, X: DiscreteSpace, Y: DiscreteSpace) -> "ProductSet":
        return cls(X, Y, np.ones((len(X), len(Y)), dtype=bool))

    @classmethod
    def empty(cls, X: DiscreteSpace, Y: DiscreteSpace) -> "ProductSet":
        return cls(X, Y, np.zeros((len(X), len(Y)), dtype=bool))


def fiber_x(S: ProductSet, x) -> tuple:
    """The fiber of S through x, as a tuple of Y atoms."""
    row = S.member[S.X.index(x)]
    return tuple(a for a, m in zip(S.Y.atoms, row) if m)


def fiber_y(S: ProductSet, y) -> tuple:
    """The fiber of S through y, as a tuple of X atoms."""
    col = S.member[:, S.Y.index(y)]
    return tuple(a for a, m in zip(S.X.atoms, col) if m)


def _fiber_measures(rows, X: DiscreteSpace, Y: DiscreteSpace) -> tuple[list[int], list[int], int]:
    """Row and column fiber measures and (mu x nu)(S) as integer numerators, from S's 0/1 rows.

    Rows are over nu's denominator, columns over mu's, and (mu x nu)(S)
    over their product.  Its two iteration orders must agree exactly.
    """
    wx, wy = X._numers, Y._numers
    row_measures = [sum(compress(wy, row)) for row in rows]
    col_measures = [sum(compress(wx, col)) for col in zip(*rows)]
    by_rows = sum(map(operator.mul, wx, row_measures))
    by_cols = sum(map(operator.mul, wy, col_measures))
    if by_rows != by_cols:
        raise AssertionError(
            "iterated integrals disagree; exact arithmetic invariant violated"
        )
    return row_measures, col_measures, by_rows


def product_measure(S: ProductSet) -> Fraction:
    """(mu x nu)(S), computed in both iteration orders; they must agree exactly."""
    return Fraction(_fiber_measures(S.member.tolist(), S.X, S.Y)[2], S.X._denom * S.Y._denom)


@dataclass(frozen=True)
class FiberReport:
    left: Triviality
    right_x: Fraction
    right_y: Fraction
    equivalence_holds: bool


def _fiber_report(rows, X: DiscreteSpace, Y: DiscreteSpace) -> FiberReport:
    """``cross_fibering_check`` of the set with these 0/1 rows, which are not validated.

    Null and full are decided on numerators; only returned values become Fractions.
    """
    row_measures, col_measures, measure = _fiber_measures(rows, X, Y)
    dx, dy = X._denom, Y._denom
    left = _triviality(measure, dx * dy)
    trivial_x = sum(compress(X._numers, [m in (0, dy) for m in row_measures]))
    trivial_y = sum(compress(Y._numers, [m in (0, dx) for m in col_measures]))
    holds = left.trivial == (trivial_x == dx and trivial_y == dy)
    return FiberReport(left, _triviality(trivial_x, dx).measure, _triviality(trivial_y, dy).measure, holds)


def cross_fibering_check(S: ProductSet) -> FiberReport:
    """Both sides of the fibering biconditional, evaluated exactly.

    right_x is the mu-mass of atoms whose row fiber is nu-trivial, right_y
    the nu-mass of atoms whose column fiber is mu-trivial.  The equivalence
    must hold for every input; a False value signals a bug, not a valid
    mathematical outcome.
    """
    return _fiber_report(S.member.tolist(), S.X, S.Y)


@dataclass(frozen=True)
class ProductDecomposition:
    """Atom classes by fiber triviality plus the witness rectangle M = X0 x Y1.

    witness_by_rows and witness_by_cols are the two iterated-integral
    evaluations of (mu x nu)(S intersect M); they agree exactly, and the
    classical contradiction appears as the impossibility of all four classes
    X0, X1, Y0, Y1 carrying positive mass while every fiber is trivial.
    """

    X0: tuple
    X1: tuple
    Xnt: tuple
    Y0: tuple
    Y1: tuple
    Ynt: tuple
    witness_by_rows: Fraction
    witness_by_cols: Fraction


def decompose(S: ProductSet) -> ProductDecomposition:
    member = S.member.tolist()
    rows, cols, _ = _fiber_measures(member, S.X, S.Y)
    dx, dy = S.X._denom, S.Y._denom
    x0 = [i for i, m in enumerate(rows) if m == 0]
    x1 = [i for i, m in enumerate(rows) if m == dy]
    xnt = [i for i, m in enumerate(rows) if 0 < m < dy]
    y0 = [j for j, m in enumerate(cols) if m == 0]
    y1 = [j for j, m in enumerate(cols) if m == dx]
    ynt = [j for j, m in enumerate(cols) if 0 < m < dx]
    wx, wy = S.X._numers, S.Y._numers
    # integrate over columns of Y1: mu(S^y intersect X0)
    by_cols = sum(wy[j] * sum(wx[i] for i in x0 if member[i][j]) for j in y1)
    # integrate over rows of X0: nu(S_x intersect Y1)
    by_rows = sum(wx[i] * sum(wy[j] for j in y1 if member[i][j]) for i in x0)
    if by_rows != by_cols:
        raise AssertionError("witness rectangle evaluations disagree")
    atoms_x, atoms_y = S.X.atoms, S.Y.atoms
    return ProductDecomposition(
        X0=tuple(atoms_x[i] for i in x0),
        X1=tuple(atoms_x[i] for i in x1),
        Xnt=tuple(atoms_x[i] for i in xnt),
        Y0=tuple(atoms_y[j] for j in y0),
        Y1=tuple(atoms_y[j] for j in y1),
        Ynt=tuple(atoms_y[j] for j in ynt),
        witness_by_rows=Fraction(by_rows, dx * dy),
        witness_by_cols=Fraction(by_cols, dx * dy),
    )
