"""Physical and economic model of one smart house.

Power quantities are kW, held constant over a slot; energies are
kW * slot_hours; costs are dollars; temperatures are Celsius.

The indoor temperature follows a first-order RC recursion: each slot the
house relaxes toward the outdoor temperature and the HVAC pushes it by
an amount set by the signed efficiency (positive units cool, negative
units heat).  Comfort is priced quadratically around a reference
temperature, grid energy with a volumetric price plus a demand charge on
the peak draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "UserParams",
    "USER_TRACES",
    "Tariff",
    "Schedule",
    "grid_cost",
    "discomfort_cost",
    "operating_cost",
    "trading_payment",
]


def _trace(values, name, horizon=None):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if horizon is not None and arr.shape[0] != horizon:
        raise ValueError(f"{name} must have {horizon} entries, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _finite(obj, names, where=""):
    """Refuse a NaN or infinite scalar field.  These fields enter the
    terms and right-hand sides of the user's QP, where only a bound may
    be infinite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{where}{name} must be finite, got {value}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform horizon of `horizon_len` slots, each `slot_hours` long."""

    horizon_len: int
    slot_hours: float = 1.0

    def __post_init__(self):
        if int(self.horizon_len) != self.horizon_len or self.horizon_len < 1:
            raise ValueError("horizon_len must be a positive integer")
        if not (self.slot_hours > 0 and np.isfinite(self.slot_hours)):
            raise ValueError("slot_hours must be positive and finite")

    def hours(self) -> np.ndarray:
        """Hour-of-day at the start of each slot."""
        return (np.arange(self.horizon_len) * float(self.slot_hours)) % 24.0


@dataclass
class UserParams:
    """Private parameters and exogenous traces of one user.

    `hvac_efficiency` is signed: positive means the HVAC cools, negative
    means it heats.  `comfort_weight` is the $/degC^2 penalty on deviation
    from `temp_ref`.  `temp_initial` defaults to `temp_ref`.
    """

    id: int
    thermal_capacitance: float
    thermal_resistance: float
    hvac_efficiency: float
    comfort_weight: float
    temp_ref: float
    temp_min: float
    temp_max: float
    grid_cap: float
    renewable_avail: np.ndarray
    inflexible_load: np.ndarray
    outdoor_temp: np.ndarray
    hvac_cap: float = 10.0
    temp_initial: float | None = None

    def __post_init__(self):
        uid = self.id
        self.renewable_avail = _trace(self.renewable_avail, f"user {uid}: renewable_avail")
        h = self.renewable_avail.shape[0]
        self.inflexible_load = _trace(self.inflexible_load, f"user {uid}: inflexible_load", h)
        self.outdoor_temp = _trace(self.outdoor_temp, f"user {uid}: outdoor_temp", h)
        if self.temp_initial is None:
            self.temp_initial = float(self.temp_ref)
        _finite(self, ("hvac_efficiency", "comfort_weight", "temp_ref",
                       "temp_initial"), f"user {uid}: ")
        checks = [
            (self.thermal_capacitance > 0, "thermal_capacitance must be positive"),
            (self.thermal_resistance > 0, "thermal_resistance must be positive"),
            (self.hvac_efficiency != 0, "hvac_efficiency must be nonzero"),
            (self.comfort_weight >= 0, "comfort_weight must be nonnegative"),
            (self.temp_min <= self.temp_max, "temp_min must not exceed temp_max"),
            (self.temp_min <= self.temp_ref <= self.temp_max,
             "temp_ref must lie inside [temp_min, temp_max]"),
            (self.temp_min <= self.temp_initial <= self.temp_max,
             f"temp_initial {self.temp_initial} must lie inside "
             f"[{self.temp_min}, {self.temp_max}]"),
            (self.grid_cap >= 0, "grid_cap must be nonnegative"),
            (self.hvac_cap >= 0, "hvac_cap must be nonnegative"),
            (bool(np.all(self.renewable_avail >= 0)), "renewable_avail must be nonnegative"),
            (bool(np.all(self.inflexible_load >= 0)), "inflexible_load must be nonnegative"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(f"user {uid}: {msg}")

    @property
    def horizon(self) -> int:
        return self.renewable_avail.shape[0]


# the UserParams fields that hold one value per slot
USER_TRACES = ("renewable_avail", "inflexible_load", "outdoor_temp")


@dataclass
class Tariff:
    """Grid tariff and the peer trade price trace.

    `energy_price` is $/kWh on grid energy, `peak_price` is $/kW on the
    maximum grid draw over the horizon (charged once per horizon), and
    `trade_price[t]` is the $/kWh transfer price between peers.
    """

    energy_price: float
    peak_price: float
    trade_price: np.ndarray

    def __post_init__(self):
        _finite(self, ("energy_price", "peak_price"))
        self.trade_price = _trace(self.trade_price, "trade_price")
        if self.energy_price < 0:
            raise ValueError("energy_price must be nonnegative")
        if self.peak_price < 0:
            raise ValueError("peak_price must be nonnegative")


@dataclass
class Schedule:
    """One user's physical plan over the horizon: the four traces of its
    QP.  `indoor_temp` is derived from `hvac_power` through the thermal
    recursion.  The plan stays with its user; its trades are the rows
    an agent proposes and a report's `UserResult.trades`.  A plain
    record: the package cuts every plan from an accepted, hence finite,
    solve, and `grid_cost` and `discomfort_cost` check what they price."""

    renewable_use: np.ndarray
    grid_draw: np.ndarray
    hvac_power: np.ndarray
    indoor_temp: np.ndarray

    @property
    def horizon(self) -> int:
        return self.renewable_use.shape[0]


def grid_cost(grid_draw, tariff: Tariff, slot_hours: float = 1.0) -> float:
    """Two-part grid bill: volumetric energy charge plus peak demand charge."""
    draw = _trace(grid_draw, "grid_draw")
    if np.any(draw < 0):
        raise ValueError("grid_draw must be nonnegative")
    energy = tariff.energy_price * float(draw.sum()) * slot_hours
    return energy + tariff.peak_price * float(draw.max())


def discomfort_cost(indoor_temp, params: UserParams) -> float:
    """Quadratic comfort penalty around the reference temperature."""
    temp = _trace(indoor_temp, "indoor_temp")
    dev = temp - params.temp_ref
    return params.comfort_weight * float(dev @ dev)


def operating_cost(schedule: Schedule, params: UserParams, tariff: Tariff,
                   slot_hours: float = 1.0) -> float:
    """Grid bill plus discomfort for one schedule (trading not included)."""
    return (grid_cost(schedule.grid_draw, tariff, slot_hours)
            + discomfort_cost(schedule.indoor_temp, params))


def trading_payment(trades, tariff: Tariff, slot_hours: float = 1.0) -> float:
    """Net payment for peer trades: positive when buying on balance.

    `trades` has one row per counterparty and one column per slot; the
    payment prices the per-slot net purchase at the trade price.
    """
    arr = np.asarray(trades, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"trades must be 2-D, got shape {arr.shape}")
    if arr.shape[1] != tariff.trade_price.shape[0]:
        raise ValueError(
            f"trades must have {tariff.trade_price.shape[0]} columns, got {arr.shape[1]}"
        )
    net = arr.sum(axis=0)
    return float(tariff.trade_price @ net) * slot_hours
