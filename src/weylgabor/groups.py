"""Heisenberg-type group laws and their matrix oracles.

Five flavors of the same nilpotent story:

* ``wh_compose``        -- the rank-one group over a ring (real, integer,
                           or prime field), with the unit upper-triangular
                           3x3 embedding over the reals
* ``polarized_compose`` -- the n-dimensional polarized law with an
                           (n+2) x (n+2) block-matrix embedding
* ``symplectic_compose``-- central coordinate fed by the standard skew
                           form on an even-dimensional vector
* ``unitriangular4_compose`` -- the order-4 unit upper-triangular group in
                           graded coordinates (z, y, x)
* ``subdiagonal_embed`` -- 1 + sum x_i E_{i,i+1} inside (n+1) x (n+1)
                           matrices, plus the commutator bookkeeping that
                           makes the grading explicit

Group laws run in exact arithmetic when fed ints or Fractions (halving an
odd int promotes that coordinate to Fraction); matrices are float arrays
meant for numerical cross-checks.  Over the reals a coordinate may be a
float64 array: the laws act elementwise and the matrix maps return stacks,
one matrix per entry.  Integer and prime rings stay scalar and exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from .numerics import _require_finite

__all__ = [
    "Ring",
    "PrimeField",
    "REAL",
    "INTEGER",
    "WHElement",
    "wh_identity",
    "wh_inverse",
    "wh_compose",
    "wh_to_matrix",
    "PolarizedElement",
    "polarized_compose",
    "polarized_to_matrix",
    "SymplecticElement",
    "symplectic_form",
    "symplectic_compose",
    "symplectic_to_matrix",
    "Unitriangular4Element",
    "unitriangular4_compose",
    "unitriangular4_identity",
    "unitriangular4_to_matrix",
    "subdiagonal_embed",
    "matrix_unit",
    "nilpotency_filtration_check",
]


# ---------------------------------------------------------------------------
# coefficient rings
# ---------------------------------------------------------------------------

def _half(value):
    """Exact halving: even ints stay int, odd ints become Fraction."""
    if isinstance(value, int):
        return value // 2 if value % 2 == 0 else Fraction(value, 2)
    return value / 2


@dataclass(frozen=True)
class Ring:
    """Coefficient ring of group coordinates: ``modulus`` is None for the
    reals, 0 for the integers and an odd prime p for the integers mod p.
    Only the reals halve, so only they carry the symmetric half-integer law."""

    modulus: int | None = None

    def __post_init__(self):
        p = self.modulus
        if p is None or p == 0:
            return
        if p < 3 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise ValueError("modulus must be an odd prime, got %d" % p)

    @property
    def name(self) -> str:
        if self.modulus is None:
            return "real"
        return "mod-%d" % self.modulus if self.modulus else "integer"

    @property
    def symmetric_law(self) -> bool:
        return self.modulus is None

    def coerce(self, value):
        """``value`` as a Python number of this ring; Z/p reduces it to its
        representative in 0..p-1.  The reals pass a float64 array, a block
        of coordinates, through unchanged; any other array raises."""
        if self.modulus is None and isinstance(value, np.ndarray) and value.dtype == np.float64:
            return value
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            return int(value) % self.modulus if self.modulus else int(value)
        if self.modulus is None and isinstance(value, (float, np.floating, Fraction)):
            return value if isinstance(value, Fraction) else float(value)
        kinds = "int, float, or Fraction" if self.modulus is None else "int"
        raise TypeError("%s coordinates must be %s, got %r" % (self.name, kinds, value))


def PrimeField(p: int) -> Ring:
    """Integers mod p for an odd prime p, canonical representatives 0..p-1."""
    p = int(p)
    if p == 0:
        raise ValueError("modulus must be an odd prime, got 0")
    return Ring(p)


REAL = Ring()
INTEGER = Ring(0)


def _coordinate(ring: Ring, value, name: str):
    """``ring.coerce(value)``, refusing a non-finite float or block by name."""
    value = ring.coerce(value)
    if isinstance(value, (float, np.ndarray)):
        _require_finite(value, name)
    return value


# ---------------------------------------------------------------------------
# the Heisenberg law: one cocycle, one embedding
# ---------------------------------------------------------------------------

def _skew(a1, b1, a2, b2):
    """a1 b2 - b1 a2: one index of the standard skew form, and half of it
    the central cocycle of the symmetric law."""
    return a1 * b2 - b1 * a2


def _half_dot(a, b):
    """a . b / 2: the corner shift c -> c + a . b / 2 that takes the
    symmetric law to the polarized one."""
    return _half(sum(x * y for x, y in zip(a, b)))


def _unit_upper(size: int, entries: dict) -> np.ndarray:
    """Unit upper-triangular size x size matrix with ``entries`` mapping 0-based
    (row, column) slots to values; array values give a stack of matrices."""
    m = np.tile(np.eye(size), np.broadcast_shapes(*map(np.shape, entries.values())) + (1, 1))
    for (i, j), value in entries.items():
        m[..., i, j] = value
    return m


def _heisenberg_matrix(a, b, corner) -> np.ndarray:
    """Block matrix [[1, a^T, corner], [0, I_n, b], [0, 0, 1]] of size n+2:
    the embedding of the rank-one, polarized and symplectic laws."""
    n = len(a)
    entries = {(0, n + 1): corner}
    entries.update({(0, i): v for i, v in enumerate(a, 1)})
    entries.update({(i, n + 1): v for i, v in enumerate(b, 1)})
    return _unit_upper(n + 2, entries)


# ---------------------------------------------------------------------------
# rank-one group over a ring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WHElement:
    """Group element with coordinates (c, a, b) over ``ring``.

    Over the reals the composition uses the symmetrized central cocycle
    (a b' - b a')/2; over the integers and prime fields it uses the
    polarized cocycle a b', which keeps coordinates inside the ring.  The
    two presentations differ by the coordinate change c -> c + a b / 2.
    Coordinates pass through ``ring.coerce`` on construction, which is
    where a prime field reduces mod p; a non-finite one raises a
    ValueError naming it.
    """

    c: Any
    a: Any
    b: Any
    ring: Ring = REAL

    def __post_init__(self):
        for name in ("c", "a", "b"):
            object.__setattr__(self, name, _coordinate(self.ring, getattr(self, name), name))


def wh_identity(ring: Ring = REAL) -> WHElement:
    return WHElement(0, 0, 0, ring=ring)


def wh_compose(g1: WHElement, g2: WHElement) -> WHElement:
    """Group product g1 * g2; the law depends on the ring (see WHElement)."""
    if g1.ring != g2.ring:
        raise ValueError("ring mismatch: %r vs %r" % (g1.ring, g2.ring))
    if g1.ring.symmetric_law:
        c = g1.c + g2.c + _half(_skew(g1.a, g1.b, g2.a, g2.b))
    else:
        c = g1.c + g2.c + g1.a * g2.b
    return WHElement(c, g1.a + g2.a, g1.b + g2.b, ring=g1.ring)


def wh_inverse(g: WHElement) -> WHElement:
    c = -g.c if g.ring.symmetric_law else g.a * g.b - g.c
    return WHElement(c, -g.a, -g.b, ring=g.ring)


def wh_to_matrix(g: WHElement) -> np.ndarray:
    """Unit upper-triangular 3x3 embedding over the reals.

    The corner entry is c + a*b/2, which turns the symmetrized law into a
    plain matrix product: matrix(g1 * g2) == matrix(g1) @ matrix(g2).
    """
    if not g.ring.symmetric_law:
        raise ValueError("matrix embedding is defined for real coordinates")
    return _heisenberg_matrix((g.a,), (g.b,), g.c + _half_dot((g.a,), (g.b,)))


# ---------------------------------------------------------------------------
# polarized n-dimensional law
# ---------------------------------------------------------------------------

def _real_tuple(values, what: str) -> tuple:
    out = tuple(_coordinate(REAL, v, what) for v in values)
    if not out:
        raise ValueError("%s must have at least one component" % what)
    return out


@dataclass(frozen=True)
class PolarizedElement:
    """Element (a, b, c) with n-vectors a, b and central coordinate c,
    composing through the polarized cocycle a . b'."""

    a: tuple
    b: tuple
    c: Any

    def __post_init__(self):
        object.__setattr__(self, "a", _real_tuple(self.a, "a"))
        object.__setattr__(self, "b", _real_tuple(self.b, "b"))
        object.__setattr__(self, "c", _coordinate(REAL, self.c, "c"))
        if len(self.a) != len(self.b):
            raise ValueError("a and b must have equal dimension")

    @property
    def dim(self) -> int:
        return len(self.a)


def polarized_compose(g1: PolarizedElement, g2: PolarizedElement) -> PolarizedElement:
    """(a,b,c) * (a',b',c') = (a+a', b+b', c+c' + a.b')."""
    if g1.dim != g2.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (g1.dim, g2.dim))
    dot = sum(x * y for x, y in zip(g1.a, g2.b))
    return PolarizedElement(
        tuple(x + y for x, y in zip(g1.a, g2.a)),
        tuple(x + y for x, y in zip(g1.b, g2.b)),
        g1.c + g2.c + dot,
    )


def polarized_to_matrix(g: PolarizedElement) -> np.ndarray:
    """Block matrix [[1, a^T, c], [0, I_n, b], [0, 0, 1]] of size n+2."""
    return _heisenberg_matrix(g.a, g.b, g.c)


# ---------------------------------------------------------------------------
# symplectic-form law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymplecticElement:
    """Element (c, v) with v of even dimension 2n stacked as
    (a_1..a_n, b_1..b_n); the central cocycle is the standard skew form."""

    c: Any
    v: tuple

    def __post_init__(self):
        object.__setattr__(self, "c", _coordinate(REAL, self.c, "c"))
        object.__setattr__(self, "v", _real_tuple(self.v, "v"))
        if len(self.v) % 2 != 0:
            raise ValueError("v must have even dimension")

    @property
    def half_dim(self) -> int:
        return len(self.v) // 2


def symplectic_form(v1, v2) -> Any:
    """Standard nondegenerate skew form sum_i (a_i b'_i - b_i a'_i) for
    stacked vectors (a_1..a_n, b_1..b_n)."""
    v1 = tuple(v1)
    v2 = tuple(v2)
    if len(v1) != len(v2) or len(v1) % 2 != 0:
        raise ValueError("vectors must share the same even dimension")
    n = len(v1) // 2
    return sum(map(_skew, v1[:n], v1[n:], v2[:n], v2[n:]))


def symplectic_compose(g1: SymplecticElement, g2: SymplecticElement) -> SymplecticElement:
    """(c,v) * (c',v') = (c + c' + omega(v,v')/2, v + v')."""
    if len(g1.v) != len(g2.v):
        raise ValueError("dimension mismatch: %d vs %d" % (len(g1.v), len(g2.v)))
    c = g1.c + g2.c + _half(symplectic_form(g1.v, g2.v))
    return SymplecticElement(c, tuple(x + y for x, y in zip(g1.v, g2.v)))


def symplectic_to_matrix(g: SymplecticElement) -> np.ndarray:
    """Block embedding [[1, a^T, c + a.b/2], [0, I_n, b], [0, 0, 1]]; the
    half-product corner makes the skew-form law a matrix product."""
    a, b = g.v[:g.half_dim], g.v[g.half_dim:]
    return _heisenberg_matrix(a, b, g.c + _half_dot(a, b))


# ---------------------------------------------------------------------------
# order-4 unit upper-triangular group in graded coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Unitriangular4Element:
    """Element of the order-4 unit upper-triangular group in graded
    coordinates: x in R^3 on the first superdiagonal, y in R^2 on the
    second, z in R in the corner."""

    z: Any
    y: tuple
    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "z", _coordinate(REAL, self.z, "z"))
        object.__setattr__(self, "y", _real_tuple(self.y, "y"))
        object.__setattr__(self, "x", _real_tuple(self.x, "x"))
        if len(self.y) != 2 or len(self.x) != 3:
            raise ValueError("need y of length 2 and x of length 3")


def unitriangular4_compose(g1: Unitriangular4Element,
                           g2: Unitriangular4Element) -> Unitriangular4Element:
    """Graded composition; identity is all-zero and inverses are
    coordinate-wise negations (the coordinates are of exponential type).

    The central cocycle below is the one induced by the matrix
    parametrization of unitriangular4_to_matrix; it is the unique choice
    that makes composition associative and matrix-homomorphic.
    """
    x1, x2, x3 = g1.x
    u1, u2, u3 = g2.x
    y1, y2 = g1.y
    w1, w2 = g2.y
    corner = (x1 * w2 - y2 * u1) + (y1 * u3 - x3 * w1) \
        - u1 * u3 * x2 - u2 * x1 * x3 \
        - _half(u1 * u2 * x3 + u1 * x2 * x3 + u2 * u3 * x1 + u3 * x1 * x2)
    s1 = x1 * u2 - x2 * u1
    s2 = x2 * u3 - x3 * u2
    return Unitriangular4Element(
        g1.z + g2.z + _half(corner),
        (y1 + w1 + _half(s1), y2 + w2 + _half(s2)),
        (x1 + u1, x2 + u2, x3 + u3),
    )


def unitriangular4_identity() -> Unitriangular4Element:
    return Unitriangular4Element(0, (0, 0), (0, 0, 0))


def unitriangular4_to_matrix(g: Unitriangular4Element) -> np.ndarray:
    """4x4 unit upper-triangular matrix realizing the graded coordinates;
    matrix(g1 * g2) == matrix(g1) @ matrix(g2)."""
    x1, x2, x3 = g.x
    y1, y2 = g.y
    return _unit_upper(4, {(0, 1): x1, (1, 2): x2, (2, 3): x3,
                           (0, 2): y1 + _half(x1 * x2), (1, 3): y2 + _half(x2 * x3),
                           (0, 3): g.z + _half(x1 * y2 + x3 * y1 + x1 * x2 * x3)})


# ---------------------------------------------------------------------------
# sub-diagonal embedding and the nilpotent grading
# ---------------------------------------------------------------------------

def subdiagonal_embed(x) -> np.ndarray:
    """Identity plus the vector x spread along the first superdiagonal of an
    (n+1) x (n+1) matrix.  Products pick up only second-superdiagonal
    corrections: M_x M_x' = M_{x+x'} + sum_i x_i x'_{i+1} E_{i,i+2}.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("x must be a vector with at least one component")
    _require_finite(x, "x")
    return _unit_upper(x.size + 1, {(i, i + 1): v for i, v in enumerate(x)})


def matrix_unit(order: int, i: int, j: int) -> np.ndarray:
    """E_{ij}: single 1 at row i, column j (1-based, matching the standard
    matrix-unit notation E_{12}, E_{23}, ...)."""
    if not (1 <= i <= order and 1 <= j <= order):
        raise ValueError("indices must lie in 1..%d" % order)
    m = np.zeros((order, order))
    m[i - 1, j - 1] = 1.0
    return m


def _bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _supported_on(m: np.ndarray, slots) -> bool:
    """True when every nonzero entry of m sits on one of the (1-based)
    index pairs in slots."""
    mask = np.zeros(m.shape, dtype=bool)
    for i, j in slots:
        mask[i - 1, j - 1] = True
    return bool(np.all(m[~mask] == 0.0))


def nilpotency_filtration_check(order: int = 4) -> dict:
    """Exhaustive commutator check of the superdiagonal grading for the
    order-4 nilpotent algebra of strictly upper-triangular matrices.

    Levels are indexed by superdiagonal: diag1 = {E12, E23, E34},
    diag2 = {E13, E24}, diag3 = {E14} (the center).  Returns a dict of
    named pass/fail booleans plus ``all_pass``.
    """
    if order != 4:
        raise ValueError("only the order-4 case is implemented")
    diag1 = [(1, 2), (2, 3), (3, 4)]
    diag2 = [(1, 3), (2, 4)]
    diag3 = [(1, 4)]
    units = {slot: matrix_unit(4, *slot) for slot in diag1 + diag2 + diag3}

    def all_brackets_in(level_a, level_b, target_slots):
        return all(
            _supported_on(_bracket(units[p], units[q]), target_slots)
            for p in level_a for q in level_b
        )

    report = {
        "order": order,
        "diag1_diag1_in_diag2_diag3": all_brackets_in(diag1, diag1, diag2 + diag3),
        "diag1_diag2_in_diag3": all_brackets_in(diag1, diag2, diag3),
        "diag2_diag3_brackets_vanish": all_brackets_in(diag2 + diag3, diag2 + diag3, []),
        "center_commutes_with_all": all_brackets_in(diag3, diag1 + diag2 + diag3, []),
    }
    report["all_pass"] = all(v for k, v in report.items() if k != "order")
    return report
