"""Process-variation yield extension (paper Sections 4.1 and 4.3.3).

The paper measures a VT spread "within 0.5 V" across a sample and argues
that the pseudo-E topology's VSS rail offers a recovery knob: "the
cross-sample variation of VM from process variation can be tuned by
applying a different VSS".  This module quantifies both statements with
Monte Carlo over per-transistor device variation:

- :func:`noise_margin_yield` — fraction of inverter instances whose MEC
  noise margin survives a threshold, per topology style,
- :func:`vss_recovery` — how much of the VM spread a global VSS trim can
  remove.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import runtime
from repro.cells.topologies import (
    CellDesign,
    DeviceSpec,
    diode_load_inverter,
    pseudo_e_inverter,
)
from repro.cells.vtc import (
    VtcCurve,
    compute_vtc,
    compute_vtc_batch,
    noise_margin_mec,
    switching_threshold,
)
from repro.devices.tft_level61 import UnifiedTft
from repro.devices.variation import VariationModel
from repro.errors import AnalysisError, ConvergenceError
from repro.runtime import chunked, parallel_map


def perturb_cell(cell: CellDesign, variation: VariationModel,
                 rng: np.random.Generator) -> CellDesign:
    """A copy of *cell* with every transistor's device independently drawn."""
    devices = []
    for d in cell.devices:
        if not isinstance(d.model, UnifiedTft):
            raise AnalysisError("variation sampling needs UnifiedTft models")
        devices.append(DeviceSpec(
            name=d.name, drain=d.drain, gate=d.gate, source=d.source,
            model=variation.sample(d.model, rng), w=d.w, l=d.l))
    return CellDesign(name=cell.name, inputs=cell.inputs, output=cell.output,
                      devices=tuple(devices), rails=dict(cell.rails),
                      style=cell.style, function=cell.function)


@dataclass(frozen=True)
class YieldResult:
    """Monte Carlo noise-margin yield of one inverter style."""

    style: str
    n_samples: int
    n_converged: int
    noise_margins: np.ndarray
    vm_values: np.ndarray
    nm_threshold: float

    @property
    def yield_fraction(self) -> float:
        """Fraction of *attempted* samples meeting the NM threshold."""
        passing = int(np.sum(self.noise_margins >= self.nm_threshold))
        return passing / self.n_samples

    @property
    def vm_spread(self) -> float:
        """95% spread of the switching threshold across instances."""
        if len(self.vm_values) < 2:
            return 0.0
        return float(np.percentile(self.vm_values, 97.5)
                     - np.percentile(self.vm_values, 2.5))


def _nm_sample_task(instance: CellDesign) -> tuple[float, float]:
    """Module-level (picklable) worker: one Monte Carlo instance's VTC."""
    try:
        curve = compute_vtc(instance, n_points=61)
    except ConvergenceError as exc:
        raise exc.with_context(cell=instance.name, style=instance.style)
    return switching_threshold(curve), noise_margin_mec(curve)


def _nm_chunk_task(instances: list[CellDesign]
                   ) -> list[tuple[float, float] | None]:
    """Picklable worker: a chunk of Monte Carlo instances as one ensemble.

    ``None`` marks an instance that failed to converge or whose VTC does
    not invert — the same samples the scalar path writes off as losses.
    """
    curves = compute_vtc_batch(instances, n_points=61)
    out: list[tuple[float, float] | None] = []
    for curve in curves:
        if curve is None:
            out.append(None)
            continue
        try:
            out.append((switching_threshold(curve), noise_margin_mec(curve)))
        except AnalysisError:
            out.append(None)
    return out


def noise_margin_yield(base_cell: CellDesign,
                       variation: VariationModel | None = None,
                       n_samples: int = 40,
                       nm_threshold_fraction: float = 0.05,
                       seed: int = 0,
                       workers: int | None = None) -> YieldResult:
    """Monte Carlo MEC-noise-margin yield for one inverter design.

    All instances are drawn from the seeded generator up front (so the
    sample set never depends on scheduling), then evaluated across worker
    processes when ``workers`` (or ``REPRO_WORKERS``) asks for it.
    """
    variation = variation or VariationModel()
    rng = np.random.default_rng(seed)
    vdd = base_cell.rails["vdd"]
    threshold = nm_threshold_fraction * vdd

    instances = [perturb_cell(base_cell, variation, rng)
                 for _ in range(n_samples)]
    margins: list[float] = []
    vms: list[float] = []
    converged = 0
    if runtime.ENSEMBLE:
        # Chunk size comes from runtime.ENSEMBLE_BATCH alone (never the
        # worker count), so the sample outcomes are identical for any
        # REPRO_WORKERS; parallel_map shards whole chunks.
        chunks = chunked(instances, runtime.ENSEMBLE_BATCH)
        offsets = np.cumsum([0] + [len(c) for c in chunks])
        results = parallel_map(
            _nm_chunk_task, chunks, workers=workers,
            labels=[f"{base_cell.name} samples[{a}:{b}]"
                    for a, b in zip(offsets, offsets[1:])],
            on_error="capture",
            phase=f"yield[{base_cell.name}]")
        for chunk, result in zip(chunks, results):
            if result.ok:
                for sample in result.value:
                    if sample is None:
                        margins.append(0.0)  # non-inverting: a loss
                    else:
                        vm, margin = sample
                        vms.append(vm)
                        margins.append(margin)
                        converged += 1
            elif isinstance(result.error, (ConvergenceError, AnalysisError)):
                margins.extend([0.0] * len(chunk))
            else:
                raise result.error
    else:
        results = parallel_map(_nm_sample_task, instances, workers=workers,
                               labels=[f"{base_cell.name} sample[{i}]"
                                       for i in range(n_samples)],
                               on_error="capture",
                               phase=f"yield[{base_cell.name}]")
        for result in results:
            if result.ok:
                vm, margin = result.value
                vms.append(vm)
                margins.append(margin)
                converged += 1
            elif isinstance(result.error, (ConvergenceError, AnalysisError)):
                margins.append(0.0)     # a non-inverting instance is a loss
            else:
                raise result.error
    return YieldResult(
        style=base_cell.style,
        n_samples=n_samples,
        n_converged=converged,
        noise_margins=np.asarray(margins),
        vm_values=np.asarray(vms),
        nm_threshold=threshold,
    )


def compare_styles(variation: VariationModel | None = None,
                   n_samples: int = 30, seed: int = 1
                   ) -> dict[str, YieldResult]:
    """Diode-load vs pseudo-E yield under the paper's VT spread."""
    from repro.devices.pentacene import PENTACENE

    cells = {
        "diode_load": diode_load_inverter(PENTACENE, w_drive=100e-6,
                                          w_load=50e-6, vdd=15.0),
        "pseudo_e": pseudo_e_inverter(PENTACENE, vdd=15.0, vss=-15.0,
                                      w_drive=100e-6, w_shift_load=10e-6,
                                      l_shift_load=100e-6, w_up=100e-6,
                                      w_down=50e-6),
    }
    return {name: noise_margin_yield(cell, variation, n_samples, seed=seed)
            for name, cell in cells.items()}


def vss_recovery(vt_shift: float, vdd: float = 5.0,
                 vss_grid: np.ndarray | None = None) -> tuple[float, float]:
    """VM recovery by VSS trimming (the paper's Figure 8 use case).

    For a whole-sample VT shift, returns ``(vm_untrimmed, vss_best)``:
    the shifted inverter's VM at the nominal VSS, and the VSS value that
    brings VM back closest to VDD/2.
    """
    from repro.devices.pentacene import pentacene_model

    if vss_grid is None:
        vss_grid = np.arange(-22.0, -7.9, 1.0)
    model = pentacene_model(vt_shift=vt_shift)

    # All trim candidates share one topology (only the VSS rail value
    # changes), so the whole grid solves as a single stacked sweep.
    cells = [pseudo_e_inverter(model, vdd=vdd, vss=float(v))
             for v in [-15.0, *vss_grid]]
    curves = compute_vtc_batch(cells, n_points=61)

    def vm_of(curve: VtcCurve | None, cell: CellDesign) -> float:
        if curve is None:  # reproduce the scalar path's exception
            curve = compute_vtc(cell, n_points=61)
        return switching_threshold(curve)

    vm_nominal = vm_of(curves[0], cells[0])
    vms = [vm_of(c, cell) for c, cell in zip(curves[1:], cells[1:])]
    best = int(np.argmin([abs(vm - vdd / 2) for vm in vms]))
    return vm_nominal, float(vss_grid[best])
