"""Circuit elements and their modified-nodal-analysis stamps.

Stamp conventions
-----------------
The solver uses a residual Newton formulation.  For unknown vector ``x``
(node voltages followed by branch currents of voltage sources), elements
contribute to:

- ``G`` — constant (linear) Jacobian entries, via :meth:`Element.stamp_static`,
- ``C`` — capacitances of storage elements, via
  :meth:`Element.stamp_dynamic`; the engines build the backward-Euler
  companion ``G + C/dt`` and the storage history ``(C @ x_prev)/dt``
  from this one matrix,
- ``b`` — right-hand side: source values at time ``t``, via
  :meth:`Element.stamp_rhs`,
- ``J, F`` — per-Newton-iteration Jacobian and residual of nonlinear
  elements, via :meth:`Element.stamp_nonlinear`.

Residuals follow the convention ``F[node] = sum of currents leaving the
node``; the linear part of the residual is ``G @ x - b``.

Transistors (:class:`Fet`) delegate their I-V behaviour to a device-model
object satisfying :class:`FetModel` (see :mod:`repro.devices`); the element
handles terminal polarity and drain/source swapping, so a single model
implementation serves both n-type and p-type devices.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.errors import CircuitError

#: Index used for the ground node: stamps targeting it are dropped.
_GROUND_INDEX = -1

#: Minimum drain-source conductance added to every FET for matrix
#: conditioning (prevents floating internal nodes in stacked gates).
FET_GMIN = 1e-12

SourceValue = float | Callable[[float], float]


class RampValue:
    """Piecewise-linear source value: hold ``v0``, ramp to ``v1``, hold.

    A plain callable works as a source value everywhere; this class
    additionally exposes its breakpoints as attributes so batched engines
    (:mod:`repro.spice.ensemble`) can evaluate a whole ensemble's ramps
    as one array expression instead of B Python calls per timestep.
    """

    __slots__ = ("v0", "v1", "t_start", "duration")

    def __init__(self, v0: float, v1: float, t_start: float,
                 duration: float) -> None:
        self.v0 = float(v0)
        self.v1 = float(v1)
        self.t_start = float(t_start)
        self.duration = float(duration)

    def __call__(self, t: float) -> float:
        if t <= self.t_start:
            return self.v0
        if t >= self.t_start + self.duration:
            return self.v1
        frac = (t - self.t_start) / self.duration
        return self.v0 + (self.v1 - self.v0) * frac

    def __repr__(self) -> str:
        return (f"RampValue({self.v0:g} -> {self.v1:g}, "
                f"t_start={self.t_start:g}, duration={self.duration:g})")


@runtime_checkable
class FetModel(Protocol):
    """Device-model interface consumed by :class:`Fet`.

    Implementations live in :mod:`repro.devices`.  All voltages passed to
    :meth:`ids` are *normalised to the n-type frame*: ``vds >= 0`` and a
    more positive ``vgs`` turns the device on harder.  The element performs
    the polarity flip for p-type devices.
    """

    #: +1 for n-type (electron) devices, -1 for p-type (hole) devices.
    polarity: int

    def ids(self, vgs: float, vds: float, w: float, l: float) -> tuple[float, float, float]:
        """Return ``(id, gm, gds)`` for normalised terminal voltages.

        ``id`` is the drain-to-source channel current (>= 0 in normal
        operation), ``gm = d id/d vgs`` and ``gds = d id/d vds``.
        """
        ...

    def capacitances(self, w: float, l: float) -> tuple[float, float, float]:
        """Return small-signal ``(cgs, cgd, cds)`` in farads."""
        ...


class Element:
    """Base class for circuit elements."""

    #: Number of extra branch-current unknowns this element introduces.
    n_branches = 0

    def __init__(self, name: str, nodes: tuple[str, ...]) -> None:
        if not name:
            raise CircuitError("element name must be non-empty")
        self.name = name
        self.nodes = nodes
        self._idx: tuple[int, ...] = ()
        self._branch: int = -1

    # -- binding -------------------------------------------------------------

    def bind(self, node_index: dict[str, int], branch_index: int) -> None:
        """Resolve node names to solver indices (ground maps to -1)."""
        self._idx = tuple(node_index.get(n, _GROUND_INDEX) for n in self.nodes)
        self._branch = branch_index

    # -- stamps (default: no contribution) ------------------------------------

    def stamp_static(self, G: np.ndarray) -> None:
        """Constant Jacobian entries (resistances, source incidence rows)."""

    def stamp_dynamic(self, C: np.ndarray) -> None:
        """Capacitances (storage elements)."""

    def stamp_rhs(self, b: np.ndarray, t: float) -> None:
        """Right-hand-side contributions at time *t* (sources)."""

    def stamp_nonlinear(self, J: np.ndarray, F: np.ndarray, x: np.ndarray) -> None:
        """Per-iteration Jacobian/residual of nonlinear elements."""

    @property
    def is_nonlinear(self) -> bool:
        return False

    def __repr__(self) -> str:
        pins = ",".join(self.nodes)
        return f"{type(self).__name__}({self.name!r}, {pins})"


def _add(mat: np.ndarray, i: int, j: int, val: float) -> None:
    if i != _GROUND_INDEX and j != _GROUND_INDEX:
        mat[i, j] += val


def _addb(vec: np.ndarray, i: int, val: float) -> None:
    if i != _GROUND_INDEX:
        vec[i] += val


def _volt(x: np.ndarray, i: int) -> float:
    return 0.0 if i == _GROUND_INDEX else float(x[i])


class Resistor(Element):
    """Linear resistor between two nodes."""

    def __init__(self, name: str, n1: str, n2: str, resistance: float) -> None:
        if resistance <= 0:
            raise CircuitError(f"resistor {name!r}: resistance must be > 0")
        super().__init__(name, (n1, n2))
        self.resistance = resistance

    def stamp_static(self, G: np.ndarray) -> None:
        g = 1.0 / self.resistance
        i, j = self._idx
        _add(G, i, i, g)
        _add(G, j, j, g)
        _add(G, i, j, -g)
        _add(G, j, i, -g)


class Capacitor(Element):
    """Linear capacitor; open in DC, backward-Euler companion in transient."""

    def __init__(self, name: str, n1: str, n2: str, capacitance: float) -> None:
        if capacitance < 0:
            raise CircuitError(f"capacitor {name!r}: capacitance must be >= 0")
        super().__init__(name, (n1, n2))
        self.capacitance = capacitance

    def stamp_dynamic(self, C: np.ndarray) -> None:
        c = self.capacitance
        i, j = self._idx
        _add(C, i, i, c)
        _add(C, j, j, c)
        _add(C, i, j, -c)
        _add(C, j, i, -c)


class VoltageSource(Element):
    """Ideal voltage source; ``value`` may be a float or a callable of time."""

    n_branches = 1

    def __init__(self, name: str, npos: str, nneg: str, value: SourceValue) -> None:
        super().__init__(name, (npos, nneg))
        self.value = value

    def value_at(self, t: float) -> float:
        return self.value(t) if callable(self.value) else self.value

    def stamp_static(self, G: np.ndarray) -> None:
        i, j = self._idx
        k = self._branch
        # Branch current leaves npos, enters nneg.
        _add(G, i, k, 1.0)
        _add(G, j, k, -1.0)
        # Constraint row: v(npos) - v(nneg) = value.
        _add(G, k, i, 1.0)
        _add(G, k, j, -1.0)

    def stamp_rhs(self, b: np.ndarray, t: float) -> None:
        _addb(b, self._branch, self.value_at(t))


class CurrentSource(Element):
    """Ideal current source; current flows from npos through the source to nneg."""

    def __init__(self, name: str, npos: str, nneg: str, value: SourceValue) -> None:
        super().__init__(name, (npos, nneg))
        self.value = value

    def value_at(self, t: float) -> float:
        return self.value(t) if callable(self.value) else self.value

    def stamp_rhs(self, b: np.ndarray, t: float) -> None:
        i, j = self._idx
        val = self.value_at(t)
        # Current *leaving* npos is +val; rhs holds negated residual terms.
        _addb(b, i, -val)
        _addb(b, j, val)


class Fet(Element):
    """Three-terminal field-effect transistor (drain, gate, source).

    The I-V behaviour comes from *model* (a :class:`FetModel`).  The element:

    - flips voltages into the n-type frame for p-type models,
    - swaps drain/source when the wired drain is biased below the wired
      source (symmetric device),
    - adds constant gate/junction capacitances from the model,
    - adds :data:`FET_GMIN` across the channel for conditioning.
    """

    def __init__(self, name: str, drain: str, gate: str, source: str,
                 model: FetModel, w: float, l: float) -> None:
        if w <= 0 or l <= 0:
            raise CircuitError(f"fet {name!r}: W and L must be positive")
        super().__init__(name, (drain, gate, source))
        self.model = model
        self.w = w
        self.l = l
        self.cgs, self.cgd, self.cds = model.capacitances(w, l)

    @property
    def is_nonlinear(self) -> bool:
        return True

    # Capacitances are linear: stamp them like fixed capacitors.
    def stamp_dynamic(self, C: np.ndarray) -> None:
        d, g, s = self._idx
        for (i, j, c) in ((g, s, self.cgs), (g, d, self.cgd), (d, s, self.cds)):
            _add(C, i, i, c)
            _add(C, j, j, c)
            _add(C, i, j, -c)
            _add(C, j, i, -c)

    def operating_point(self, x: np.ndarray) -> tuple[float, float, float]:
        """Return ``(id_phys, gm, gds)`` at solution *x*.

        ``id_phys`` is the physical current flowing *into the wired drain
        terminal* and out of the wired source terminal; ``gm``/``gds`` are
        the normalised small-signal parameters at the operating point.
        """
        d_i, g_i, s_i = self._idx
        p = self.model.polarity
        vd, vg, vs = _volt(x, d_i), _volt(x, g_i), _volt(x, s_i)
        swapped = p * (vd - vs) < 0.0
        if swapped:
            va, vb = vs, vd
        else:
            va, vb = vd, vs
        vgs_n = p * (vg - vb)
        vds_n = p * (va - vb)
        ids, gm, gds = self.model.ids(vgs_n, vds_n, self.w, self.l)
        # Current leaving the effective drain node a into the channel is
        # p * ids; "into the wired drain" flips sign when roles swapped.
        id_phys = (p * ids) if not swapped else (-p * ids)
        return id_phys, gm, gds

    def stamp_nonlinear(self, J: np.ndarray, F: np.ndarray, x: np.ndarray) -> None:
        d_i, g_i, s_i = self._idx
        p = self.model.polarity
        vd, vg, vs = _volt(x, d_i), _volt(x, g_i), _volt(x, s_i)

        # Effective drain (a) / source (b) in the n-type frame.
        if p * (vd - vs) < 0.0:
            a, b_node = s_i, d_i
            va, vb = vs, vd
        else:
            a, b_node = d_i, s_i
            va, vb = vd, vs

        vgs_n = p * (vg - vb)
        vds_n = p * (va - vb)
        ids, gm, gds = self.model.ids(vgs_n, vds_n, self.w, self.l)

        # Physical current leaving effective-drain node a is p * ids; the
        # polarity factors cancel in the Jacobian entries below.
        i_phys = p * ids + FET_GMIN * (va - vb)
        _addb(F, a, i_phys)
        _addb(F, b_node, -i_phys)

        g_ds = gds + FET_GMIN
        _add(J, a, a, g_ds)
        _add(J, a, g_i, gm)
        _add(J, a, b_node, -(gm + g_ds))
        _add(J, b_node, a, -g_ds)
        _add(J, b_node, g_i, -gm)
        _add(J, b_node, b_node, gm + g_ds)
