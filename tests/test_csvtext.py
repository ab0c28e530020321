"""The bulk CSV writer against Python's own "%.17g", the oracle."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylgabor import csvtext


def _oracle(block) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in np.asarray(block).tolist()).encode()


def _written(block) -> bytes:
    fh = io.BytesIO()
    csvtext.write_rows(fh, block)
    return fh.getvalue()


def _assert_exact(values, width=16):
    """Every value, laid out as rows of ``width``, prints as %.17g does."""
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate([values, np.zeros(-len(values) % width)])
    block = values.reshape(-1, width)
    written, expected = _written(block), _oracle(block)
    if written != expected:
        for got, want in zip(written.split(b","), expected.split(b",")):
            assert got == want
    assert written == expected


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0.0),
                           np.nextafter(values, np.inf)])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_any_finite_row_prints_as_percent_g(row):
    assert _written(np.array([row])) == _oracle([row])


def test_random_bit_patterns_print_as_percent_g():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64)
    _assert_exact(bits.view(np.float64), width=100)


def test_powers_of_ten_and_two_with_neighbours():
    tens = [float("1e%d" % e) for e in range(-323, 309)]
    twos = [2.0 ** e for e in range(-1074, 1024)]
    values = _with_neighbours(tens + twos)
    _assert_exact(np.concatenate([values, -values]))


def test_extremes_and_signed_zeros():
    largest = np.finfo(float).max
    assert (_written([[0.0, -0.0, 5e-324, -5e-324, largest, -largest]])
            == b"0,-0,4.9406564584124654e-324,-4.9406564584124654e-324,"
               b"1.7976931348623157e+308,-1.7976931348623157e+308\n")


def test_percent_g_switch_points():
    values = _with_neighbours([1e-5, 1e-4, 1e16, 1e17])
    _assert_exact(np.concatenate([values, -values]), width=6)


def test_rounded_decimals():
    rng = np.random.default_rng(7)
    scaled = rng.standard_normal(4000) * 10.0 ** rng.integers(-40, 40, 4000)
    _assert_exact([float("%.*g" % (1 + i % 17, v))
                   for i, v in enumerate(scaled)], width=40)


def test_near_tie_takes_the_fallback(monkeypatch):
    # 1e15 + 0.25 is exact in binary and an exact tie at 17 digits, which
    # dtoa rounds half to even
    tie = 1e15 + 0.25
    seen = []
    fallback = csvtext._fallback_text
    monkeypatch.setattr(csvtext, "_fallback_text",
                        lambda v: seen.append(v) or fallback(v))
    assert _written([[tie, 1.5]]) == b"1000000000000000.2,1.5\n"
    assert seen == [tie]


@pytest.mark.parametrize("shape", [(1, 1), (300, 1), (1, 5000), (7, 3000)])
def test_block_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    block = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 20, shape)
    assert _written(block) == _oracle(block)


def test_mostly_exact_zeros():
    block = np.zeros((64, 129))
    block[::9, ::5] = np.linspace(-3.0, 3.0, block[::9, ::5].size).reshape(
        block[::9, ::5].shape)
    block[1::4] = -0.0
    assert _written(block) == _oracle(block)


def test_pair_rows_gather_the_axis_text():
    rng = np.random.default_rng(3)
    axis = np.array([-7.0, -0.0, 1e-5, -5e-324, 2.5e17])
    values = rng.standard_normal((5, 5, 2))
    values[1, 3] = 0.0
    values[2, 4] = (1e15 + 0.25, 5e-324)  # both take the fallback
    fh = io.BytesIO()
    csvtext.write_pair_rows(fh, axis, values)
    expected = "".join("%.17g,%.17g,%.17g,%.17g\n" % (axis[i], axis[j],
                                                     *values[i, j])
                       for i in range(5) for j in range(5))
    assert fh.getvalue() == expected.encode()


@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("rows_per_block", [3, 1])
def test_pair_rows_across_block_edges(monkeypatch, c, rows_per_block):
    # 7 rows in blocks of 3 end on a short block of 1; a chunk of 4 fields
    # is narrower than one row, so each row is a block of its own
    n = 7
    monkeypatch.setattr(csvtext, "_CHUNK",
                        3 * n * (2 + c) if rows_per_block == 3 else 4)
    rng = np.random.default_rng(11 + c)
    axis = np.linspace(-3.0, 3.0, n)
    axis[[0, 3, -1]] = (5e-324, 1e15 + 0.25, -5e-324)
    values = rng.standard_normal((n, n, c))
    # fallback values where blocks of 3 rows, and of 1, begin and end
    values[0, 0, 0] = values[2, -1, -1] = 5e-324
    values[3, 0, 0] = values[-1, -1, -1] = 1e15 + 0.25
    fh = io.BytesIO()
    csvtext.write_pair_rows(fh, axis, values)
    expected = "".join(",".join("%.17g" % v for v in (axis[i], axis[j],
                                                       *values[i, j])) + "\n"
                       for i in range(n) for j in range(n))
    assert fh.getvalue() == expected.encode()
