"""NLDM lookup-table tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.characterization.nldm import NldmTable
from repro.errors import LibraryError


def table(values=None):
    slews = np.array([1e-6, 1e-5, 1e-4])
    loads = np.array([1e-12, 1e-11, 1e-10])
    if values is None:
        # delay = slew + 1e6 * load (a plane, exactly bilinear)
        values = slews[:, None] + 1e6 * loads[None, :]
    return NldmTable(slews, loads, np.asarray(values))


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(LibraryError):
            NldmTable(np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                      np.zeros((3, 2)))

    def test_non_monotonic_axis(self):
        with pytest.raises(LibraryError):
            NldmTable(np.array([2.0, 1.0]), np.array([1.0, 2.0]),
                      np.zeros((2, 2)))

    def test_too_small(self):
        with pytest.raises(LibraryError):
            NldmTable(np.array([1.0]), np.array([1.0, 2.0]),
                      np.zeros((1, 2)))

    def test_nan_rejected(self):
        with pytest.raises(LibraryError):
            NldmTable(np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                      np.array([[1.0, np.nan], [1.0, 1.0]]))


class TestLookup:
    def test_exact_grid_points(self):
        t = table()
        for i, s in enumerate(t.slews):
            for j, c in enumerate(t.loads):
                assert t.lookup(s, c) == pytest.approx(t.values[i, j])

    @given(slew=st.floats(1e-6, 1e-4), load=st.floats(1e-12, 1e-10))
    @settings(max_examples=60, deadline=None)
    def test_planar_function_reproduced_exactly(self, slew, load):
        """Bilinear interpolation is exact on a plane."""
        t = table()
        assert t.lookup(slew, load) == pytest.approx(slew + 1e6 * load,
                                                     rel=1e-9)

    def test_extrapolation_follows_edge_gradient(self):
        t = table()
        assert t.lookup(1e-3, 1e-11) == pytest.approx(1e-3 + 1e-5, rel=1e-6)
        assert t.lookup(1e-6, 1e-9) == pytest.approx(1e-6 + 1e-3, rel=1e-6)

    @given(slew=st.floats(1e-7, 1e-3), load=st.floats(1e-13, 1e-9))
    @settings(max_examples=60, deadline=None)
    def test_monotone_table_stays_monotone(self, slew, load):
        t = table()
        assert t.lookup(slew * 1.1, load) >= t.lookup(slew, load) - 1e-15
        assert t.lookup(slew, load * 1.1) >= t.lookup(slew, load) - 1e-15


class TestSegmentReconciliation:
    """On a grid node `NldmTable.lookup` returns the stored value."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_lookup_exact_on_every_grid_node(self, data):
        """Property: lookup at any grid node returns the stored value
        bit-exactly (==, not approx) for arbitrary finite tables."""
        n_s = data.draw(st.integers(2, 5))
        n_l = data.draw(st.integers(2, 5))
        values = np.array([[data.draw(st.floats(-1e3, 1e3,
                                                allow_nan=False))
                            for _ in range(n_l)] for _ in range(n_s)])
        slews = np.cumsum(np.array(
            [data.draw(st.floats(1e-7, 1e-5)) for _ in range(n_s)])) + 1e-7
        loads = np.cumsum(np.array(
            [data.draw(st.floats(1e-13, 1e-11)) for _ in range(n_l)])) + 1e-13
        t = NldmTable(slews, loads, values)
        for i in range(n_s):
            for j in range(n_l):
                assert t.lookup(float(slews[i]), float(loads[j])) \
                    == values[i, j]


class TestSerialization:
    def test_round_trip(self):
        t = table()
        t2 = NldmTable.from_dict(t.to_dict())
        assert np.array_equal(t.values, t2.values)
        assert np.array_equal(t.slews, t2.slews)
