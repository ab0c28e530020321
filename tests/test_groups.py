"""Group laws, matrix-product oracles, and the nilpotent filtration."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weylgabor.groups import (
    INTEGER,
    REAL,
    PolarizedElement,
    PrimeField,
    Ring,
    SymplecticElement,
    Unitriangular4Element,
    WHElement,
    matrix_unit,
    nilpotency_filtration_check,
    polarized_compose,
    polarized_to_matrix,
    subdiagonal_embed,
    symplectic_compose,
    symplectic_form,
    symplectic_to_matrix,
    unitriangular4_compose,
    unitriangular4_identity,
    unitriangular4_to_matrix,
    wh_compose,
    wh_identity,
    wh_inverse,
    wh_to_matrix,
)

small_int = st.integers(min_value=-8, max_value=8)


def _rnd(rng, k):
    return [float(x) for x in rng.uniform(-3.0, 3.0, size=k)]


# ---------------------------------------------------------------------------
# rank-one group over the reals
# ---------------------------------------------------------------------------

def test_real_law_halves_the_cross_term_exactly():
    out = wh_compose(WHElement(0, 1, 0), WHElement(0, 0, 1))
    assert out == WHElement(Fraction(1, 2), 1, 1)
    assert isinstance(out.c, Fraction)


def test_identity_and_inverse():
    g = WHElement(Fraction(3, 4), 2, -5)
    assert wh_compose(g, wh_identity()) == g
    assert wh_compose(wh_identity(), g) == g
    assert wh_compose(g, wh_inverse(g)) == wh_identity()
    assert wh_inverse(g) == WHElement(Fraction(-3, 4), -2, 5)


def test_matrix_corner_carries_the_half_product():
    m = wh_to_matrix(WHElement(0, 1, 1))
    assert m[0, 2] == 0.5
    np.testing.assert_array_equal(wh_to_matrix(wh_identity()), np.eye(3))


def test_matrix_oracle_random_real_pairs():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(300):
        g1 = WHElement(*_rnd(rng, 3))
        g2 = WHElement(*_rnd(rng, 3))
        lhs = wh_to_matrix(wh_compose(g1, g2))
        rhs = wh_to_matrix(g1) @ wh_to_matrix(g2)
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-14


@given(st.tuples(small_int, small_int, small_int),
       st.tuples(small_int, small_int, small_int),
       st.tuples(small_int, small_int, small_int))
def test_real_law_associative_on_integer_points(t1, t2, t3):
    g1, g2, g3 = (WHElement(*t) for t in (t1, t2, t3))
    # integer inputs stay exact (odd halves become Fractions)
    assert wh_compose(wh_compose(g1, g2), g3) == wh_compose(g1, wh_compose(g2, g3))


# ---------------------------------------------------------------------------
# integer and mod-p rings use the polarized law
# ---------------------------------------------------------------------------

def test_integer_ring_polarized_law():
    g = wh_compose(WHElement(1, 2, 3, ring=INTEGER), WHElement(4, 5, 6, ring=INTEGER))
    assert (g.c, g.a, g.b) == (1 + 4 + 2 * 6, 7, 9)
    assert all(isinstance(x, int) for x in (g.c, g.a, g.b))


def test_integer_ring_inverse():
    g = WHElement(1, 2, 3, ring=INTEGER)
    assert wh_compose(g, wh_inverse(g)) == wh_identity(INTEGER)
    assert wh_compose(wh_inverse(g), g) == wh_identity(INTEGER)


@given(st.tuples(small_int, small_int, small_int),
       st.tuples(small_int, small_int, small_int),
       st.tuples(small_int, small_int, small_int))
def test_integer_law_associative(t1, t2, t3):
    g1, g2, g3 = (WHElement(*t, ring=INTEGER) for t in (t1, t2, t3))
    assert wh_compose(wh_compose(g1, g2), g3) == wh_compose(g1, wh_compose(g2, g3))


def test_ring_coercion_rules():
    with pytest.raises(TypeError):
        WHElement(0.5, 0, 0, ring=INTEGER)
    with pytest.raises(TypeError):
        WHElement(True, 0, 0)
    with pytest.raises(TypeError):
        WHElement(1j, 0, 0)
    with pytest.raises(ValueError):
        wh_to_matrix(WHElement(1, 2, 3, ring=INTEGER))
    with pytest.raises(ValueError):
        wh_compose(WHElement(0, 0, 0), WHElement(0, 0, 0, ring=INTEGER))


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(2)
    field = PrimeField(5)
    assert WHElement(-1, 7, 0, ring=field) == WHElement(4, 2, 0, ring=field)


def test_numpy_scalars_coerce_to_python_numbers():
    for ring in (REAL, INTEGER, PrimeField(5)):
        value = ring.coerce(np.int64(3))
        assert type(value) is int and value == 3
    value = REAL.coerce(np.float64(1.5))
    assert type(value) is float and value == 1.5


def test_integer_rings_reject_numpy_floats_and_reduce_numpy_ints():
    for ring in (INTEGER, PrimeField(5)):
        with pytest.raises(TypeError):
            ring.coerce(np.float64(1.0))
    assert PrimeField(5).coerce(np.int64(-1)) == 4


def test_prime_fields_compare_by_modulus():
    assert PrimeField(5) == PrimeField(5)
    assert hash(PrimeField(5)) == hash(PrimeField(5))
    assert PrimeField(5) != PrimeField(7)
    with pytest.raises(ValueError):
        wh_compose(WHElement(1, 2, 3, ring=PrimeField(5)),
                   WHElement(1, 2, 3, ring=PrimeField(7)))


def test_ring_is_its_modulus():
    assert Ring() == REAL and Ring(0) == INTEGER and Ring(5) == PrimeField(5)
    assert [r.name for r in (REAL, INTEGER, PrimeField(5))] == ["real", "integer", "mod-5"]
    for modulus in (4, 2, 1, -5, -7):
        with pytest.raises(ValueError):
            Ring(modulus)
    with pytest.raises(ValueError):
        PrimeField(0)


@given(st.tuples(small_int, small_int, small_int),
       st.tuples(small_int, small_int, small_int))
def test_integer_law_is_the_rank_one_polarized_law(t1, t2):
    w = wh_compose(WHElement(*t1, ring=INTEGER), WHElement(*t2, ring=INTEGER))
    p = polarized_compose(PolarizedElement((t1[1],), (t1[2],), t1[0]),
                          PolarizedElement((t2[1],), (t2[2],), t2[0]))
    assert (w.c, (w.a,), (w.b,)) == (p.c, p.a, p.b)


def test_mod5_group_order_closure_and_exponent():
    field = PrimeField(5)
    elements = {WHElement(c, a, b, ring=field)
                for c in range(5) for a in range(5) for b in range(5)}
    assert len(elements) == 125
    for g in elements:
        assert wh_compose(g, wh_inverse(g)) == wh_identity(field)
    # closure over every pair
    for g in elements:
        for h in elements:
            assert wh_compose(g, h) in elements
    # the exponent divides p: fifth power of any element is the identity
    for a, b in itertools.product(range(5), repeat=2):
        g = WHElement(0, a, b, ring=field)
        acc = wh_identity(field)
        for _ in range(5):
            acc = wh_compose(acc, g)
        assert acc == wh_identity(field)


# ---------------------------------------------------------------------------
# polarized n-vector law
# ---------------------------------------------------------------------------

def _polarized_inverse(g):
    dot = sum(x * y for x, y in zip(g.a, g.b))
    return PolarizedElement(tuple(-x for x in g.a), tuple(-x for x in g.b),
                            dot - g.c)


def test_polarized_rank_one_example():
    out = polarized_compose(PolarizedElement((1,), (0,), 0),
                            PolarizedElement((0,), (1,), 0))
    assert out == PolarizedElement((1,), (1,), 1)


def test_polarized_commutator_central_coordinate():
    g1 = PolarizedElement((1,), (0,), 0)
    g2 = PolarizedElement((0,), (1,), 0)
    comm = polarized_compose(
        polarized_compose(g1, g2),
        polarized_compose(_polarized_inverse(g1), _polarized_inverse(g2)))
    assert comm.a == (0,) and comm.b == (0,)
    assert comm.c == 1  # a.b' - a'.b


def test_polarized_dimension_mismatch():
    with pytest.raises(ValueError):
        polarized_compose(PolarizedElement((1,), (0,), 0),
                          PolarizedElement((1, 2), (0, 0), 0))
    with pytest.raises(ValueError):
        PolarizedElement((1, 2), (0,), 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polarized_matrix_oracle(n):
    rng = np.random.default_rng(100 + n)
    worst = 0.0
    for _ in range(200):
        g1 = PolarizedElement(tuple(_rnd(rng, n)), tuple(_rnd(rng, n)), _rnd(rng, 1)[0])
        g2 = PolarizedElement(tuple(_rnd(rng, n)), tuple(_rnd(rng, n)), _rnd(rng, 1)[0])
        lhs = polarized_to_matrix(polarized_compose(g1, g2))
        rhs = polarized_to_matrix(g1) @ polarized_to_matrix(g2)
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# symplectic-form law
# ---------------------------------------------------------------------------

def test_symplectic_dim2_reduces_to_rank_one_law():
    rng = np.random.default_rng(7)
    for _ in range(100):
        c1, a1, b1, c2, a2, b2 = _rnd(rng, 6)
        s = symplectic_compose(SymplecticElement(c1, (a1, b1)),
                               SymplecticElement(c2, (a2, b2)))
        w = wh_compose(WHElement(c1, a1, b1), WHElement(c2, a2, b2))
        assert s.c == w.c and s.v == (w.a, w.b)


def test_symplectic_self_product_doubles_vector():
    g = SymplecticElement(0, (1, 2, 3, 4))
    out = symplectic_compose(g, g)
    assert out == SymplecticElement(0, (2, 4, 6, 8))  # skew form vanishes on (v, v)


def test_symplectic_dim4_cross_term():
    out = symplectic_compose(SymplecticElement(0, (1, 0, 0, 0)),
                             SymplecticElement(0, (0, 0, 1, 0)))
    assert out.c == Fraction(1, 2)


def test_symplectic_validation():
    with pytest.raises(ValueError):
        SymplecticElement(0, (1, 2, 3))
    with pytest.raises(ValueError):
        symplectic_compose(SymplecticElement(0, (1, 2)),
                           SymplecticElement(0, (1, 2, 3, 4)))
    with pytest.raises(ValueError):
        symplectic_form((1, 2), (1, 2, 3, 4))


@given(st.tuples(small_int, small_int, small_int, small_int),
       st.tuples(small_int, small_int, small_int, small_int))
def test_symplectic_form_is_skew(v1, v2):
    assert symplectic_form(v1, v2) == -symplectic_form(v2, v1)
    assert symplectic_form(v1, v1) == 0


@pytest.mark.parametrize("dim", [2, 4])
def test_symplectic_matrix_oracle(dim):
    rng = np.random.default_rng(200 + dim)
    worst = 0.0
    for _ in range(200):
        g1 = SymplecticElement(_rnd(rng, 1)[0], tuple(_rnd(rng, dim)))
        g2 = SymplecticElement(_rnd(rng, 1)[0], tuple(_rnd(rng, dim)))
        lhs = symplectic_to_matrix(symplectic_compose(g1, g2))
        rhs = symplectic_to_matrix(g1) @ symplectic_to_matrix(g2)
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# order-4 unit upper-triangular group
# ---------------------------------------------------------------------------

def test_unitriangular4_superdiagonal_product():
    out = unitriangular4_compose(Unitriangular4Element(0, (0, 0), (1, 0, 0)),
                                 Unitriangular4Element(0, (0, 0), (0, 1, 0)))
    assert out.z == 0
    assert out.y == (Fraction(1, 2), 0)
    assert out.x == (1, 1, 0)


def test_unitriangular4_matrix_entries():
    m = unitriangular4_to_matrix(Unitriangular4Element(0, (0, 0), (1, 1, 0)))
    assert m[0, 2] == 0.5  # y1 + x1*x2/2 with y1 = 0
    np.testing.assert_array_equal(
        unitriangular4_to_matrix(unitriangular4_identity()), np.eye(4))


def test_unitriangular4_inverse_is_negation():
    g = Unitriangular4Element(2, (1, -3), (2, 0, 1))
    neg = Unitriangular4Element(-2, (-1, 3), (-2, 0, -1))
    assert unitriangular4_compose(g, neg) == unitriangular4_identity()
    assert unitriangular4_compose(neg, g) == unitriangular4_identity()


def test_unitriangular4_matrix_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(300):
        g1 = Unitriangular4Element(_rnd(rng, 1)[0], tuple(_rnd(rng, 2)),
                                   tuple(_rnd(rng, 3)))
        g2 = Unitriangular4Element(_rnd(rng, 1)[0], tuple(_rnd(rng, 2)),
                                   tuple(_rnd(rng, 3)))
        lhs = unitriangular4_to_matrix(unitriangular4_compose(g1, g2))
        rhs = unitriangular4_to_matrix(g1) @ unitriangular4_to_matrix(g2)
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-12


@given(st.tuples(small_int, small_int, small_int, small_int, small_int, small_int),
       st.tuples(small_int, small_int, small_int, small_int, small_int, small_int),
       st.tuples(small_int, small_int, small_int, small_int, small_int, small_int))
def test_unitriangular4_associative_on_integer_points(t1, t2, t3):
    def mk(t):
        return Unitriangular4Element(t[0], (t[1], t[2]), (t[3], t[4], t[5]))
    g1, g2, g3 = mk(t1), mk(t2), mk(t3)
    lhs = unitriangular4_compose(unitriangular4_compose(g1, g2), g3)
    rhs = unitriangular4_compose(g1, unitriangular4_compose(g2, g3))
    assert lhs == rhs


def test_unitriangular4_shape_validation():
    with pytest.raises(ValueError):
        Unitriangular4Element(0, (1,), (1, 2, 3))
    with pytest.raises(ValueError):
        Unitriangular4Element(0, (1, 2), (1, 2))


# ---------------------------------------------------------------------------
# coordinate blocks: one law call for many trials
# ---------------------------------------------------------------------------

# element from its coordinates in field order, law, matrix map, coordinates
_REAL_LAWS = {
    "rank_one": (lambda x: WHElement(*x), wh_compose, wh_to_matrix, 3),
    "polarized_rank2": (lambda x: PolarizedElement(x[:2], x[2:4], x[4]),
                        polarized_compose, polarized_to_matrix, 5),
    "symplectic_dim4": (lambda x: SymplecticElement(x[0], x[1:]),
                        symplectic_compose, symplectic_to_matrix, 5),
    "unitriangular4": (lambda x: Unitriangular4Element(x[0], x[1:3], x[3:]),
                       unitriangular4_compose, unitriangular4_to_matrix, 6),
}


def _coordinates(g):
    """An element's coordinates in field order, vector fields spread."""
    fields = [getattr(g, f.name) for f in dataclasses.fields(g) if f.name != "ring"]
    return np.array([v for f in fields for v in (f if isinstance(f, tuple) else (f,))])


@pytest.mark.parametrize("kind", sorted(_REAL_LAWS))
@given(data=st.data())
def test_block_law_and_matrix_equal_the_element_results_bit_for_bit(kind, data):
    element, compose, to_matrix, k = _REAL_LAWS[kind]
    trials = data.draw(st.integers(1, 64))
    block = data.draw(arrays(np.float64, (trials, 2, k),
                             elements=st.floats(-1e3, 1e3, width=64)))
    g1, g2 = (element(x) for x in block.transpose(1, 2, 0))
    law = compose(g1, g2)
    singles = [compose(element(x1), element(x2)) for x1, x2 in block.tolist()]
    np.testing.assert_array_equal(_coordinates(law).T,
                                  [_coordinates(g) for g in singles])
    np.testing.assert_array_equal(to_matrix(law), [to_matrix(g) for g in singles])
    np.testing.assert_array_equal(to_matrix(g1),
                                  [to_matrix(element(x)) for x in block[:, 0].tolist()])


def test_only_the_reals_take_float64_blocks():
    block = np.zeros(4)
    assert REAL.coerce(block) is block
    assert wh_to_matrix(WHElement(block, block, block)).shape == (4, 3, 3)
    for ring in (INTEGER, PrimeField(5)):
        with pytest.raises(TypeError):
            WHElement(block, block, block, ring=ring)
    for other in (np.zeros(4, dtype=np.float32), np.zeros(4, dtype=np.int64)):
        with pytest.raises(TypeError):
            REAL.coerce(other)


# ---------------------------------------------------------------------------
# sub-diagonal embedding and matrix units
# ---------------------------------------------------------------------------

def test_subdiagonal_embed_identity():
    np.testing.assert_array_equal(subdiagonal_embed([0.0, 0.0]), np.eye(3))


def test_subdiagonal_product_correction_term():
    x = np.array([2.0, 3.0])
    xp = np.array([5.0, 7.0])
    correction = subdiagonal_embed(x) @ subdiagonal_embed(xp) - subdiagonal_embed(x + xp)
    expected = np.zeros((3, 3))
    expected[0, 2] = x[0] * xp[1]
    np.testing.assert_array_equal(correction, expected)


def test_subdiagonal_embed_validation():
    with pytest.raises(ValueError):
        subdiagonal_embed(np.ones((2, 2)))
    with pytest.raises(ValueError):
        subdiagonal_embed([])


def _bracket(a, b):
    return a @ b - b @ a


def test_superdiagonal_commutator_table():
    e12 = matrix_unit(4, 1, 2)
    e23 = matrix_unit(4, 2, 3)
    e34 = matrix_unit(4, 3, 4)
    np.testing.assert_array_equal(_bracket(e12, e23), matrix_unit(4, 1, 3))
    np.testing.assert_array_equal(_bracket(e23, e34), matrix_unit(4, 2, 4))
    np.testing.assert_array_equal(_bracket(e12, e34), np.zeros((4, 4)))
    np.testing.assert_array_equal(_bracket(matrix_unit(4, 1, 3), e34),
                                  matrix_unit(4, 1, 4))


def test_matrix_unit_product_rule_is_exact():
    order = 4
    for i in range(1, order + 1):
        for j in range(1, order + 1):
            for k in range(1, order + 1):
                for l in range(1, order + 1):
                    lhs = matrix_unit(order, i, j) @ matrix_unit(order, k, l)
                    rhs = (1.0 if j == k else 0.0) * matrix_unit(order, i, l)
                    np.testing.assert_array_equal(lhs, rhs)


def test_matrix_unit_bounds():
    with pytest.raises(ValueError):
        matrix_unit(4, 0, 1)
    with pytest.raises(ValueError):
        matrix_unit(4, 1, 5)


def test_nilpotency_filtration_passes():
    report = nilpotency_filtration_check(4)
    assert report["all_pass"] is True
    for key in ("diag1_diag1_in_diag2_diag3", "diag1_diag2_in_diag3",
                "diag2_diag3_brackets_vanish", "center_commutes_with_all"):
        assert report[key] is True


def test_center_commutes_with_every_unit():
    center = matrix_unit(4, 1, 4)
    for i, j in ((1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)):
        np.testing.assert_array_equal(_bracket(center, matrix_unit(4, i, j)),
                                      np.zeros((4, 4)))


def test_nilpotency_filtration_order_cap():
    with pytest.raises(ValueError):
        nilpotency_filtration_check(5)
