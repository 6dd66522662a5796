"""Parameter sweeps over the end-to-end metrics, and their CSV form."""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import SWEEP_AXES, SweepSpec, axis_grid
from .e2e import SystemConfig, ber_batch, outage_batch
from .montecarlo import McOptions, simulate
from .specfun import ConvergenceError

__all__ = ["ResultRecord", "CSV_HEADER", "axis_grid", "apply_axis", "run_sweep", "emit_csv"]

CSV_HEADER = "axis,analytic,mc_estimate,mc_std_error,floor"


class ResultRecord(NamedTuple):
    """One sweep point: the axis value, the closed-form value, the Monte
    Carlo estimate when simulation ran (None otherwise), and the limiting
    floor of the swept quantity."""

    axis_value: float
    analytic: float
    mc_estimate: float | None
    mc_std_error: float | None
    floor: float


def apply_axis(cfg: SystemConfig, axis: str, value: float) -> SystemConfig:
    """Return cfg with one swept parameter replaced, as `SWEEP_AXES` maps
    the axis to it."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    hop, field, convert = SWEEP_AXES[axis]
    part = getattr(cfg, hop)._replace(**{field: convert(value)})
    return cfg._replace(**{hop: part})


def run_sweep(cfg: SystemConfig, spec: SweepSpec, mc: McOptions | None) -> list[ResultRecord]:
    """Evaluate the swept quantity over the grid; `mc` None skips Monte
    Carlo.

    The closed forms run first, in one batch call over the grid, which
    runs one radio series pass over every point, whatever its branch
    count and K factor; each point keeps the value a lone call would
    give.  The first failing grid point raises, its error gaining the axis
    value without losing its type; a ConvergenceError keeps its
    `unconverged` mask, whose entry i is grid point i.  Monte Carlo then
    runs once for the whole grid: its chunks are drawn once, so the points
    see common random numbers; every point still uses the same (trials,
    seed) and gets the estimate a lone run would give, and the sweep is a
    pure function of (cfg, spec, mc) regardless of worker count.
    """
    ber = spec.quantity == "ber"
    values, points, failure = [], [], None
    for value in axis_grid(spec):
        value = float(value)
        try:
            points.append(apply_axis(cfg, spec.axis, value))
        except ValueError as exc:
            failure = ValueError(f"at {spec.axis} = {value:g}: {exc}")
            break
        values.append(value)

    try:
        analytic, floor = (ber_batch if ber else outage_batch)(points)
    except ConvergenceError as exc:
        i = int(np.argmax(exc.unconverged))
        raise ConvergenceError(f"at {spec.axis} = {values[i]:g}: {exc}",
                               exc.unconverged) from None
    if failure is not None:
        raise failure

    estimates = [None] * len(points)
    if mc is not None:
        pairs = simulate(points, mc.trials, mc.seed, workers=mc.workers, ber=ber)
        estimates = [ber_est if ber else outage for outage, ber_est in pairs]

    return [
        ResultRecord(
            axis_value=value,
            analytic=a,
            mc_estimate=est.estimate if est is not None else None,
            mc_std_error=est.std_error if est is not None else None,
            floor=f,
        )
        for value, a, f, est in zip(values, analytic.tolist(), floor.tolist(), estimates)
    ]


def _cell(x: float | None) -> str:
    return "" if x is None else format(x, ".12g")


def emit_csv(records: list[ResultRecord]) -> str:
    """CSV text: header then one row per record, 12 significant digits,
    empty cells where no simulation ran, LF line endings."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                (
                    _cell(r.axis_value),
                    _cell(r.analytic),
                    _cell(r.mc_estimate),
                    _cell(r.mc_std_error),
                    _cell(r.floor),
                )
            )
        )
    return "\n".join(lines) + "\n"
