"""The bulk CSV writer against Python's own "%.17g", the oracle."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weylgabor import csvtext, numerics


def _oracle(block) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in np.asarray(block).tolist()).encode()


def _written(block) -> bytes:
    fh = io.BytesIO()
    csvtext.write_rows(fh, block)
    return fh.getvalue()


def _pair_oracle(axis, values) -> bytes:
    n = len(axis)
    return "".join(",".join("%.17g" % v for v in (axis[i], axis[j], *values[i, j]))
                   + "\n" for i in range(n) for j in range(n)).encode()


def _written_pairs(axis, values) -> bytes:
    fh = io.BytesIO()
    csvtext.write_pair_rows(fh, axis, values)
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
    decimal = csvtext._decimal

    def recorded(ax, tab):
        digits, exponent, uncertain = decimal(ax, tab)
        seen.extend(ax[uncertain].tolist())
        return digits, exponent, uncertain

    monkeypatch.setattr(csvtext, "_decimal", recorded)
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
    # 7 rows in blocks of 3 end on a short block of 1; a budget of 4 bytes
    # is narrower than one row, so each row is a block of its own
    n = 7
    monkeypatch.setattr(numerics, "_TILE_BYTES",
                        3 * n * c * csvtext._VALUE_BYTES if rows_per_block == 3 else 4)
    rng = np.random.default_rng(11 + c)
    axis = np.linspace(-3.0, 3.0, n)
    axis[[0, 3, -1]] = (5e-324, 1e15 + 0.25, -5e-324)
    values = rng.standard_normal((n, n, c))
    # fallback values where blocks of 3 rows, and of 1, begin and end
    values[0, 0, 0] = values[2, -1, -1] = 5e-324
    values[3, 0, 0] = values[-1, -1, -1] = 1e15 + 0.25
    assert _written_pairs(axis, values) == _pair_oracle(axis, values)


# values whose text the bulk path cannot take: the smallest subnormal, an
# exact tie at 17 digits, and a signed zero
_SPECIAL = st.sampled_from([5e-324, 1e15 + 0.25, -0.0])


@given(st.data())
def test_any_pair_block_prints_as_percent_g(data):
    n = data.draw(st.integers(1, 12), label="n")
    c = data.draw(st.sampled_from([1, 2, 3]), label="c")
    elements = st.one_of(st.floats(), _SPECIAL)
    axis = data.draw(arrays(np.float64, n, elements=elements), label="axis")
    values = data.draw(arrays(np.float64, (n, n, c), elements=elements), label="values")
    # blocks of one to three rows, the last one short when they do not divide n
    budget = data.draw(st.integers(1, 3 * n * c * csvtext._VALUE_BYTES), label="budget")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "_TILE_BYTES", budget)
        assert _written_pairs(axis, values) == _pair_oracle(axis, values)


def test_kernel_blocks_count_only_the_formatted_values(monkeypatch):
    # a 384^2 kernel.csv took 192 blocks of 2 rows while the two axis
    # fields of each line, which are copied and not formatted, counted
    calls = []
    bulk = csvtext._format
    monkeypatch.setattr(csvtext, "_format",
                        lambda values, slots: calls.append(1) or bulk(values, slots))
    n = 384
    values = np.random.default_rng(384).standard_normal((n, n, 2))
    csvtext.write_pair_rows(io.BytesIO(), np.linspace(-20.0, 20.0, n), values)
    assert len(calls) < 192


def test_writers_emit_only_csv_characters():
    # deleting NULs is sound only while no text holds one: finite values
    # print with digits, '.', '-', '+' and 'e' alone
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2 ** 64, size=20_000, dtype=np.uint64).view(np.float64)
    finite = np.concatenate([bits[np.isfinite(bits)], [0.0, -0.0, 5e-324, 1e15 + 0.25]])
    block = finite[:len(finite) // 50 * 50].reshape(-1, 50)
    axis = finite[:40]
    values = finite[40:40 + 40 * 40 * 2].reshape(40, 40, 2)
    allowed = set(b"0123456789.-+e,\n")
    assert set(_written(block)) <= allowed
    assert set(_written_pairs(axis, values)) <= allowed


def test_building_the_tables_stays_small():
    # word tables built through int64 intermediates would hold several
    # times their own size for a moment, and raise the peak RSS of a run
    csvtext._tables.cache_clear()
    tracemalloc.start()
    try:
        csvtext._tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 19
