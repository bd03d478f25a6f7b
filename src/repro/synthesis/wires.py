"""Per-process interconnect models.

The paper's headline mechanism: "The organic process has relatively fast
wires compared to the switching speed of the organic transistors" (Section
5.5).  Two effects carry that asymmetry here:

1. **Wire loading** — every net adds a fanout-dependent wire capacitance
   to the driving gate's load.  In 45 nm silicon the wire capacitance of
   even a short net rivals a gate's input capacitance; in the organic
   process the gate capacitances are picofarads (huge W*L and thick-film
   overlaps) while the metal runs on glass contribute tens of
   femtofarads, so wire load is negligible *relative to gates*.
2. **Elmore RC** — distributed wire delay ``R * (C/2 + C_sinks)``, again
   dominant for long 45 nm nets and irrelevant for the organic process at
   its millisecond gate delays.

Lengths use a fanout-based wire-load model (``length = pitch * (base +
slope * fanout)``), the same class of statistical model synthesis tools
apply pre-layout; ``pitch`` is tied to the library's inverter footprint so
the model scales with the process automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import SynthesisError


@dataclass(frozen=True)
class WireModel:
    """Fanout-based statistical wire model for one process."""

    name: str
    c_per_m: float           # wire capacitance per metre, F/m
    r_per_m: float           # wire resistance per metre, Ohm/m
    pitch: float             # average cell pitch, metres
    base_spans: float = 1.0  # net length at fanout 0, in pitches
    span_per_fanout: float = 1.0

    def __post_init__(self) -> None:
        if min(self.c_per_m, self.r_per_m, self.pitch) < 0:
            raise SynthesisError("wire parameters must be non-negative")

    # -- per-net quantities ----------------------------------------------------

    def net_length(self, fanout: int) -> float:
        """Estimated routed length of a net with the given fanout, metres."""
        return self.pitch * (self.base_spans + self.span_per_fanout * max(fanout, 1))

    def net_capacitance(self, fanout: int) -> float:
        return self.c_per_m * self.net_length(fanout)

    def elmore_delay(self, fanout: int, sink_capacitance: float) -> float:
        """Distributed-wire Elmore delay to the far sink."""
        length = self.net_length(fanout)
        r = self.r_per_m * length
        c = self.c_per_m * length
        return r * (0.5 * c + sink_capacitance)

    # -- long (broadcast/feedback) wires ----------------------------------------

    def span_capacitance(self, length: float) -> float:
        return self.c_per_m * length

    def span_elmore(self, length: float, sink_capacitance: float) -> float:
        r = self.r_per_m * length
        c = self.c_per_m * length
        return r * (0.5 * c + sink_capacitance)

    def scaled(self, factor: float) -> "WireModel":
        """All parasitics multiplied by *factor*; ``factor=0`` gives the
        ideal-wire ablation of Figure 15 ("w/o wire")."""
        return replace(self, c_per_m=self.c_per_m * factor,
                       r_per_m=self.r_per_m * factor,
                       name=f"{self.name}_x{factor:g}")


def block_span(total_area: float) -> float:
    """Physical side length of a placed block of the given area."""
    if total_area < 0:
        raise SynthesisError("area must be non-negative")
    return math.sqrt(total_area)


def organic_wire_model(pitch: float = 220e-6) -> WireModel:
    """Gold interconnect on glass for the pentacene process.

    50 nm evaporated Au at ~20 um width: ~0.5 Ohm/sq -> ~2.4e4 Ohm/m.
    Capacitance on a thick glass substrate without a ground plane is
    dominated by coupling to neighbours, ~30 pF/m.  Both are tiny next to
    picofarad gate capacitances and ~100 us gate delays.
    """
    return WireModel(
        name="organic_au",
        c_per_m=30e-12,
        r_per_m=2.4e4,
        pitch=pitch,
        base_spans=1.0,
        span_per_fanout=1.0,
    )


def silicon_wire_model(pitch: float = 1.4e-6) -> WireModel:
    """Intermediate-layer copper at 45 nm.

    ~0.2 fF/um and ~3 Ohm/um are standard 45 nm intermediate-metal
    numbers; at this node a 2-pitch net's capacitance already rivals a
    minimum gate's input capacitance, which is what makes silicon wires
    "slow" relative to its transistors.
    """
    return WireModel(
        name="silicon_cu_45",
        c_per_m=0.20e-9,
        r_per_m=3.0e6,
        pitch=pitch,
        base_spans=1.0,
        span_per_fanout=1.0,
    )
