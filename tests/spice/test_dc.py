"""DC operating-point and sweep tests."""

import numpy as np
import pytest

from repro.devices import PENTACENE, silicon_nmos_45
from repro.errors import CircuitError
from repro.spice import (
    Circuit,
    CurrentSource,
    Fet,
    NewtonOptions,
    Resistor,
    VoltageSource,
    dc_sweep,
    operating_point,
)
from repro.spice.dc import solve_operating_point
from repro.spice.mna import MnaSystem


def divider(r1=1e3, r2=1e3, v=1.0):
    ckt = Circuit("div")
    ckt.add(VoltageSource("vin", "in", "0", v))
    ckt.add(Resistor("r1", "in", "mid", r1))
    ckt.add(Resistor("r2", "mid", "0", r2))
    return ckt


class TestLinearDc:
    def test_resistor_divider(self):
        x, sys = operating_point(divider())
        assert sys.voltage(x, "mid") == pytest.approx(0.5)

    def test_divider_ratio(self):
        x, sys = operating_point(divider(r1=3e3, r2=1e3, v=4.0))
        assert sys.voltage(x, "mid") == pytest.approx(1.0)

    def test_source_current(self):
        x, sys = operating_point(divider(r1=1e3, r2=1e3, v=2.0))
        # 2 V across 2 kOhm; current enters the source's + terminal.
        assert sys.source_current(x, "vin") == pytest.approx(-1e-3)

    def test_current_source_into_resistor(self):
        ckt = Circuit()
        ckt.add(CurrentSource("i1", "0", "a", 1e-3))  # pushes into node a
        ckt.add(Resistor("r1", "a", "0", 1e3))
        x, sys = operating_point(ckt)
        assert sys.voltage(x, "a") == pytest.approx(1.0)

    def test_ground_voltage_is_zero(self):
        x, sys = operating_point(divider())
        assert sys.voltage(x, "0") == 0.0
        assert sys.voltage(x, "gnd") == 0.0

    def test_unknown_node_raises(self):
        x, sys = operating_point(divider())
        with pytest.raises(CircuitError):
            sys.voltage(x, "nope")

    def test_start_and_options_are_keyword_only(self):
        """Options passed where the start vector goes fail at the call,
        not deep inside the solver."""
        with pytest.raises(TypeError):
            operating_point(divider(), NewtonOptions())
        with pytest.raises(TypeError):
            solve_operating_point(MnaSystem(divider()), None,
                                  NewtonOptions())
        x, sys = operating_point(divider(), options=NewtonOptions())
        assert sys.voltage(x, "mid") == pytest.approx(0.5)


class TestNonlinearDc:
    def test_nmos_pulldown(self):
        """An on NMOS pulls its drain near ground through a resistor."""
        nmos = silicon_nmos_45()
        ckt = Circuit()
        ckt.add(VoltageSource("vdd", "vdd", "0", 1.1))
        ckt.add(Resistor("rl", "vdd", "out", 1e5))
        ckt.add(VoltageSource("vg", "g", "0", 1.1))
        ckt.add(Fet("m1", "out", "g", "0", nmos, 1e-6, 45e-9))
        x, sys = operating_point(ckt)
        assert sys.voltage(x, "out") < 0.1

    def test_nmos_off(self):
        nmos = silicon_nmos_45()
        ckt = Circuit()
        ckt.add(VoltageSource("vdd", "vdd", "0", 1.1))
        ckt.add(Resistor("rl", "vdd", "out", 1e5))
        ckt.add(VoltageSource("vg", "g", "0", 0.0))
        ckt.add(Fet("m1", "out", "g", "0", nmos, 1e-6, 45e-9))
        x, sys = operating_point(ckt)
        # Off transistor: output stays near VDD (only leakage drops).
        assert sys.voltage(x, "out") > 0.9

    def test_ptype_pullup(self):
        """A p-type OTFT with grounded gate pulls its drain toward VDD."""
        ckt = Circuit()
        ckt.add(VoltageSource("vdd", "vdd", "0", 5.0))
        ckt.add(VoltageSource("vg", "g", "0", 0.0))
        ckt.add(Fet("m1", "out", "g", "vdd", PENTACENE, 100e-6, 20e-6))
        ckt.add(Resistor("rl", "out", "0", 1e7))
        x, sys = operating_point(ckt)
        assert sys.voltage(x, "out") > 4.0

    def test_kcl_residual_small(self):
        """The converged solution satisfies KCL tightly."""
        nmos = silicon_nmos_45()
        ckt = Circuit()
        ckt.add(VoltageSource("vdd", "vdd", "0", 1.1))
        ckt.add(Resistor("rl", "vdd", "out", 1e4))
        ckt.add(VoltageSource("vg", "g", "0", 0.6))
        ckt.add(Fet("m1", "out", "g", "0", nmos, 1e-6, 45e-9))
        from repro.spice.mna import MnaSystem
        from repro.spice.dc import solve_operating_point
        sys = MnaSystem(ckt)
        x = solve_operating_point(sys)
        G = sys.linear_jacobian()
        b = sys.rhs(0.0)
        F, _ = sys.residual_and_jacobian(x, G, b)
        assert np.max(np.abs(F[:sys.n_nodes])) < 1e-9


class TestDcSweep:
    def test_sweep_matches_pointwise(self):
        ckt = divider()
        values = np.linspace(0.0, 2.0, 11)
        res = dc_sweep(ckt, "vin", values)
        assert np.allclose(res.voltage("mid"), values / 2.0)

    def test_sweep_restores_source_value(self):
        ckt = divider(v=1.25)
        dc_sweep(ckt, "vin", [0.0, 1.0])
        assert ckt.element("vin").value == 1.25

    def test_sweep_len(self):
        res = dc_sweep(divider(), "vin", [0.0, 0.5, 1.0])
        assert len(res) == 3

    def test_sweep_source_current(self):
        res = dc_sweep(divider(r1=1e3, r2=1e3), "vin", [0.0, 2.0])
        assert res.source_current("vin")[1] == pytest.approx(-1e-3)
