"""Scenario files, trace ingestion, synthetic traces, and validation.

A scenario is one YAML file: a time grid, a tariff, per-user parameter
blocks, and loop settings.  Trace vectors may be inline lists, CSV
references (`{file, column}`), or synthesized (`{synth: kind, ...}`).
Loading resolves everything to plain arrays and validates with
diagnostics that name the user and field.
"""

from __future__ import annotations

import csv
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .coordinator import AdmmConfig
from .errors import ScenarioError
from .model import USER_TRACES, Tariff, TimeGrid, UserParams

# libyaml's parser and emitter where PyYAML was built with it: the same
# documents, error positions and output bytes, several times faster than
# the pure-Python ones
_YamlLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YamlDumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
_MERGE_TAG = "tag:yaml.org,2002:merge"


class _UniqueKeys:
    """Loader mixin that rejects a key repeated within one mapping; keys
    given beside a `<<` merge still override the merged ones."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == _MERGE_TAG:
                continue
            key = self.construct_object(key_node, deep=True)
            try:
                repeated = key in seen
                seen.add(key)
            except TypeError:  # unhashable: the base class reports it
                continue
            if repeated:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found repeated key {key!r}",
                    key_node.start_mark)
        return super().construct_mapping(node, deep)


_KIND_CODES = {"solar": 1, "wind": 2, "load": 3, "weather": 4}

# relative household demand by hour of day, mean 1.0
_LOAD_SHAPE = np.array([
    0.55, 0.50, 0.48, 0.47, 0.50, 0.62, 0.85, 1.10, 1.05, 0.95, 0.90, 0.92,
    0.95, 0.93, 0.90, 0.95, 1.15, 1.45, 1.60, 1.55, 1.40, 1.20, 0.90, 0.68])
_LOAD_SHAPE = _LOAD_SHAPE / _LOAD_SHAPE.mean()


def synth_traces(seed: int, grid: TimeGrid, profile: str,
                 user_id: int = 0, **knobs) -> np.ndarray:
    """Deterministic synthetic trace of one kind over the grid.

    Kinds: solar (zero outside 06:00-18:00), wind (smoothed, clipped),
    load (daily demand shape around `base`), weather (diurnal sinusoid
    around `mean`, hottest mid-afternoon).
    """
    if not isinstance(profile, str) or profile not in _KIND_CODES:
        raise ScenarioError(f"unknown synth profile {profile!r}; "
                            f"expected one of {sorted(_KIND_CODES)}")
    rng = np.random.default_rng(
        np.random.SeedSequence((int(seed), int(user_id), _KIND_CODES[profile])))
    h = grid.hours()
    n = grid.horizon_len
    if profile == "solar":
        scale = float(knobs.pop("scale", 3.0))
        shape = np.where((h >= 6.0) & (h < 18.0),
                         np.sin(np.pi * (h - 6.0) / 12.0), 0.0)
        out = np.clip(scale * shape * (1.0 + 0.10 * rng.standard_normal(n)),
                      0.0, None)
        out[shape <= 0.0] = 0.0
    elif profile == "wind":
        scale = float(knobs.pop("scale", 2.0))
        x = 0.0
        vals = np.empty(n)
        for t in range(n):
            x = 0.7 * x + 0.3 * rng.standard_normal()
            vals[t] = x
        out = np.clip(scale * (0.4 + vals), 0.0, scale)
    elif profile == "load":
        base = float(knobs.pop("base", 1.0))
        shape = _LOAD_SHAPE[np.floor(h).astype(int) % 24]
        out = np.clip(base * shape * (1.0 + 0.10 * rng.standard_normal(n)),
                      0.0, None)
    else:
        mean = float(knobs.pop("mean", 30.0))
        swing = float(knobs.pop("swing", 5.0))
        sigma = float(knobs.pop("sigma", 0.5))
        out = mean + swing * np.sin(2.0 * np.pi * (h - 9.0) / 24.0) \
            + sigma * rng.standard_normal(n)
    if knobs:
        raise ScenarioError(f"synth profile {profile!r} does not take "
                            f"{sorted(knobs)}")
    return out


@dataclass
class ScenarioConfig:
    """One fully resolved scenario: grid, tariff, users, loop settings."""

    name: str
    grid: TimeGrid
    tariff: Tariff
    users: list[UserParams]
    admm: AdmmConfig
    seed: int = 0

    def __post_init__(self):
        if not self.users:
            raise ScenarioError("scenario has no users")
        ids = [u.id for u in self.users]
        if len(set(ids)) != len(ids):
            raise ScenarioError(f"duplicate user ids: {sorted(ids)}")
        self.users = sorted(self.users, key=lambda u: u.id)


class _TraceReader:
    """Resolves a trace field: inline list, CSV reference, or synth spec."""

    def __init__(self, base_dir: Path, seed: int, grid: TimeGrid):
        self.base_dir = base_dir
        self.seed = seed
        self.grid = grid
        self._csv_cache: dict[Path, dict[str, list[float]]] = {}

    def _read_csv(self, path: Path) -> dict[str, list[float]]:
        if path not in self._csv_cache:
            if not path.exists():
                raise ScenarioError(f"trace file not found: {path}")
            with open(path, newline="") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None:
                    raise ScenarioError(f"trace file {path} has no header row")
                cols = {name: [] for name in reader.fieldnames}
                for row_no, row in enumerate(reader, start=2):
                    for name in cols:
                        raw = row.get(name)
                        if raw is None or raw == "":
                            raise ScenarioError(
                                f"{path}:{row_no}: missing value in column "
                                f"{name!r}")
                        try:
                            cols[name].append(float(raw))
                        except ValueError:
                            raise ScenarioError(
                                f"{path}:{row_no}: {raw!r} in column "
                                f"{name!r} is not a number") from None
            self._csv_cache[path] = cols
        return self._csv_cache[path]

    def resolve(self, spec, where: str, user_id: int = 0) -> np.ndarray:
        h = self.grid.horizon_len
        if isinstance(spec, (int, float)) and not isinstance(spec, bool):
            return np.full(h, _float(spec, where))
        if isinstance(spec, (list, tuple)):
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in spec):
                raise ScenarioError(f"{where}: inline trace must be numeric")
            try:
                return np.array(spec, dtype=np.float64)
            except OverflowError:
                raise ScenarioError(f"{where}: inline trace value is too "
                                    f"large for a float") from None
        if isinstance(spec, dict) and "file" in spec:
            extra = set(spec) - {"file", "column"}
            if extra:
                raise ScenarioError(f"{where}: unknown keys {sorted(extra)}")
            if "column" not in spec:
                raise ScenarioError(f"{where}: file reference needs a column")
            path = self.base_dir / str(spec["file"])
            cols = self._read_csv(path)
            column = str(spec["column"])
            if column not in cols:
                raise ScenarioError(
                    f"{where}: {path} has no column {column!r} "
                    f"(found {sorted(cols)})")
            vals = cols[column]
            if len(vals) != h:
                raise ScenarioError(
                    f"{where}: {path} column {column!r} has {len(vals)} rows, "
                    f"expected {h}")
            return np.asarray(vals, dtype=np.float64)
        if isinstance(spec, dict) and "synth" in spec:
            knobs = {str(k): v for k, v in spec.items() if k != "synth"}
            for k, v in knobs.items():
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ScenarioError(f"{where}: synth knob {k!r} must be "
                                        f"a number, got {v!r}")
                _float(v, f"{where}: synth knob {k!r}")
            try:
                return synth_traces(self.seed, self.grid, spec["synth"],
                                    user_id=user_id, **knobs)
            except ScenarioError as exc:
                raise ScenarioError(f"{where}: {exc}") from None
        raise ScenarioError(
            f"{where}: expected a number, a list, {{file, column}}, or "
            f"{{synth: kind}}, got {type(spec).__name__}")


def _float(v, what: str) -> float:
    """float(v) of a number read from YAML, which has ints of any size."""
    try:
        return float(v)
    except OverflowError:
        raise ScenarioError(f"{what} is too large for a float") from None


def _number(block: dict, key: str, where: str, default=None) -> float:
    if key not in block:
        if default is None:
            raise ScenarioError(f"{where}: missing field {key!r}")
        return float(default)
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{where}: field {key!r} must be a number")
    return _float(v, f"{where}: field {key!r}")


def _integer(block: dict, key: str, where: str, default=None) -> int:
    """A whole-number field: 2000 or 2000.0, not 2.5, an infinity or a
    NaN."""
    v = _number(block, key, where, default)
    if not v.is_integer():  # also False at an infinity or a NaN
        raise ScenarioError(f"{where}: field {key!r} must be an integer, "
                            f"got {v!r}")
    return int(v)


_USER_KEYS = {f.name for f in fields(UserParams)}
# the scalar fields after id, in declaration order
_USER_NUMBERS = tuple(f for f in fields(UserParams)
                      if f.name != "id" and f.name not in USER_TRACES)


def _build_user(block: dict, reader: _TraceReader) -> UserParams:
    if not isinstance(block, dict):
        raise ScenarioError(f"user entry must be a mapping, got "
                            f"{type(block).__name__}")
    if "id" not in block:
        raise ScenarioError("user entry missing field 'id'")
    uid = block["id"]
    if isinstance(uid, bool) or not isinstance(uid, int) or uid < 0:
        raise ScenarioError(f"user id {uid!r} must be a nonnegative integer")
    where = f"user {uid}"
    extra = set(block) - _USER_KEYS
    if extra:
        raise ScenarioError(f"{where}: unknown fields {sorted(extra)}")
    values = {}
    for key in USER_TRACES:
        if key not in block:
            raise ScenarioError(f"{where}: missing field {key!r}")
        values[key] = reader.resolve(block[key], f"{where}: {key}", uid)
    try:
        for f in _USER_NUMBERS:
            if f.name in block or f.default is MISSING:
                values[f.name] = _number(block, f.name, where)
            else:
                values[f.name] = f.default
        params = UserParams(id=uid, **values)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    if params.horizon != reader.grid.horizon_len:
        raise ScenarioError(
            f"{where}: traces cover {params.horizon} slots, grid has "
            f"{reader.grid.horizon_len}")
    return params


def check_seed(seed) -> int:
    """A trace seed: an integer of at least 0, as numpy's SeedSequence
    takes.  Raises ScenarioError naming the seed."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or seed < 0):
        raise ScenarioError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def load_scenario(path, seed=None) -> ScenarioConfig:
    """Parse and fully validate a scenario file.

    `seed` overrides the file's seed before any synthetic traces are
    drawn.  Raises ScenarioError carrying one finding per problem
    discovered; user blocks are checked independently so one bad user
    does not mask another.
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        loader = type("Loader", (_UniqueKeys, _YamlLoader), {})
        raw = yaml.load(path.read_text(), Loader=loader)
    except (yaml.YAMLError, ValueError) as exc:  # a too-long int or a bad date
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError(f"{path}: parse error{loc}: {exc}") from exc
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be a mapping")

    known = {"name", "seed", "grid", "tariff", "admm", "users"}
    extra = set(raw) - known
    if extra:
        raise ScenarioError(f"{path}: unknown top-level keys {sorted(extra)}")

    gblock = raw.get("grid")
    if not isinstance(gblock, dict):
        raise ScenarioError(f"{path}: missing or malformed 'grid' block")
    try:
        grid = TimeGrid(horizon_len=_integer(gblock, "horizon", "grid"),
                        slot_hours=_number(gblock, "slot_hours", "grid",
                                           default=1.0))
    except ValueError as exc:
        raise ScenarioError(f"grid: {exc}") from exc

    seed = check_seed(raw.get("seed", 0) if seed is None else seed)

    reader = _TraceReader(path.parent, seed, grid)

    tblock = raw.get("tariff")
    if not isinstance(tblock, dict):
        raise ScenarioError(f"{path}: missing or malformed 'tariff' block")
    extra = set(tblock) - {"energy_price", "peak_price", "trade_price"}
    if extra:
        raise ScenarioError(f"tariff: unknown fields {sorted(extra)}")
    energy = _number(tblock, "energy_price", "tariff")
    peak = _number(tblock, "peak_price", "tariff", default=0.0)
    if "trade_price" in tblock:
        trade = reader.resolve(tblock["trade_price"], "tariff: trade_price")
    else:
        trade = np.full(grid.horizon_len, 0.5 * energy)
    if trade.shape[0] != grid.horizon_len:
        raise ScenarioError(
            f"tariff: trade_price covers {trade.shape[0]} slots, grid has "
            f"{grid.horizon_len}")
    try:
        tariff = Tariff(energy_price=energy, peak_price=peak, trade_price=trade)
    except ValueError as exc:
        raise ScenarioError(f"tariff: {exc}") from exc

    ablock = raw.get("admm", {})
    if not isinstance(ablock, dict):
        raise ScenarioError(f"{path}: 'admm' block must be a mapping")
    extra = set(ablock) - {f.name for f in fields(AdmmConfig)}
    if extra:
        raise ScenarioError(f"admm: unknown fields {sorted(extra)}")
    try:
        values = {}
        for f in fields(AdmmConfig):
            # each field keeps the type of its default: int or float
            read = _integer if isinstance(f.default, int) else _number
            values[f.name] = read(ablock, f.name, "admm", default=f.default)
        admm = AdmmConfig(**values)
    except ValueError as exc:
        raise ScenarioError(f"admm: {exc}") from exc

    ublocks = raw.get("users")
    if not isinstance(ublocks, list) or not ublocks:
        raise ScenarioError(f"{path}: 'users' must be a nonempty list")
    users = []
    findings = []
    for pos, block in enumerate(ublocks):
        try:
            users.append(_build_user(block, reader))
        except ScenarioError as exc:
            findings.extend(f"users[{pos}]: {f}" for f in exc.findings)
    if findings:
        raise ScenarioError(
            f"{path}: {len(findings)} problem(s): " + "; ".join(findings),
            findings=findings)

    name = str(raw.get("name", path.stem))
    return ScenarioConfig(name=name, grid=grid, tariff=tariff, users=users,
                          admm=admm, seed=seed)


def build_synth_scenario(n_users: int, horizon: int, seed: int = 0,
                         slot_hours: float = 1.0,
                         name: str = "synthetic") -> ScenarioConfig:
    """Assemble a feasible heterogeneous scenario from synthetic traces.

    Odd user ids get solar, ids divisible by four get wind, the rest buy
    everything.  Power caps are sized so each user can hold its starting
    temperature through the whole horizon, which guarantees a feasible
    schedule regardless of the drawn traces.
    """
    if n_users < 1:
        raise ScenarioError("n_users must be at least 1")
    if horizon < 1:
        raise ScenarioError("horizon must be at least 1")
    seed = check_seed(seed)
    try:
        grid = TimeGrid(horizon_len=int(horizon), slot_hours=float(slot_hours))
    except ValueError as exc:
        raise ScenarioError(f"grid: {exc}") from exc
    tariff = Tariff(energy_price=0.25, peak_price=0.8,
                    trade_price=np.full(grid.horizon_len, 0.125))
    admm = AdmmConfig(rho0=1.0, tolerance=1e-6, max_iter=2000)
    users = []
    for uid in range(1, n_users + 1):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), uid, 5)))
        draws = rng.uniform(size=8)
        cap_c = round(2.5 + 1.2 * draws[0], 3)
        res = round(1.1 + 0.5 * draws[1], 3)
        eff = round(2.0 + 1.0 * draws[2], 3)
        beta = round(0.05 + 0.25 * draws[3], 3)
        t_min = round(19.5 + draws[4], 2)
        t_max = round(t_min + 3.5 + draws[5], 2)
        t_ref = round(t_min + (t_max - t_min) * (0.3 + 0.4 * draws[6]), 2)
        if uid % 2 == 1:
            renewable = synth_traces(seed, grid, "solar", user_id=uid,
                                     scale=round(2.5 + 2.0 * draws[7], 3))
        elif uid % 4 == 0:
            renewable = synth_traces(seed, grid, "wind", user_id=uid,
                                     scale=round(1.5 + 1.5 * draws[7], 3))
        else:
            renewable = np.zeros(grid.horizon_len)
        load = synth_traces(seed, grid, "load", user_id=uid,
                            base=round(0.8 + 0.7 * draws[0], 3))
        outdoor = synth_traces(seed, grid, "weather", user_id=uid,
                               mean=30.0, swing=4.0, sigma=0.4)
        t_start = round((t_min + t_max) / 2.0, 2)
        hold = np.maximum(outdoor - t_start, 0.0) / (eff * res)
        hvac_cap = round(float(hold.max()) + 0.75, 3)
        grid_cap = round(float((hold + load).max()) + 0.75, 3)
        users.append(UserParams(
            id=uid, thermal_capacitance=cap_c, thermal_resistance=res,
            hvac_efficiency=eff, comfort_weight=beta, temp_ref=t_ref,
            temp_min=t_min, temp_max=t_max, grid_cap=grid_cap,
            hvac_cap=hvac_cap, temp_initial=t_start,
            renewable_avail=renewable, inflexible_load=load,
            outdoor_temp=outdoor))
    return ScenarioConfig(name=name, grid=grid, tariff=tariff, users=users,
                          admm=admm, seed=seed)


def _user_doc(user: UserParams) -> dict:
    doc = {"id": int(user.id)}
    for f in _USER_NUMBERS:
        doc[f.name] = float(getattr(user, f.name))
    for key in USER_TRACES:
        doc[key] = [float(v) for v in getattr(user, key)]
    return doc


def save_scenario(config: ScenarioConfig, path) -> Path:
    """Write a config back to YAML with all traces materialized inline.

    A file that cannot be written raises the OSError as it is.
    """
    path = Path(path)
    doc = {
        "name": config.name,
        "seed": int(config.seed),
        "grid": {"horizon": int(config.grid.horizon_len),
                 "slot_hours": float(config.grid.slot_hours)},
        "tariff": {"energy_price": float(config.tariff.energy_price),
                   "peak_price": float(config.tariff.peak_price),
                   "trade_price": [float(v) for v in config.tariff.trade_price]},
        "admm": {f.name: type(f.default)(getattr(config.admm, f.name))
                 for f in fields(AdmmConfig)},
        "users": [_user_doc(u) for u in config.users],
    }
    with open(path, "w") as fh:
        yaml.dump(doc, fh, Dumper=_YamlDumper, sort_keys=True,
                  default_flow_style=None)
    return path
