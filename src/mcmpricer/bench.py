"""Experiment orchestration: run configs, sweeps, scaling, and persistence.

The CLI exposes three subcommands::

    mcmpricer price   --config cfg.json [--method P2opt --dim 5 ...]
    mcmpricer sweep   --config cfg.json --axes '{"dim": [1, 5, 10]}'
    mcmpricer scaling --config cfg.json --degrees 1,2,4

Results are written as CSV (one row per cell) plus a JSON mirror.  Identical
config and seed produce identical tables up to the runtime columns.
Exit codes: 0 ok, 1 config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field, replace
from itertools import product
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError, McmPricerError, NonDeterministicResultError, NotDiagonalError
from .market_model import build_vol
from .pricer import CALIBRATIONS, METHODS, Payoff, price_mcm
from .rng import SEED_LIMIT

ENV_THREADS = "MCMPRICER_THREADS"
TABLE_COLUMNS = ("method", "payoff", "dim", "steps", "paths", "price", "std", "fallbacks", "runtime_ms")
SCALING_COLUMNS = ("degree", "runtime_ms", "speedup", "price", "std")
NUMBER_FIELDS = {**dict.fromkeys(("dim", "n_steps", "log2_paths", "replications", "seed", "threads"), Integral),
                 **dict.fromkeys(("strike", "maturity", "rate", "s0"), Real)}


@dataclass(frozen=True)
class RunConfig:
    """One pricing experiment; see README for the JSON schema."""

    payoff: str = "geometric_put"
    dim: int = 1
    strike: float = 100.0
    maturity: float = 1.0
    rate: float = float(np.log(1.1))
    vol: object = 0.2
    s0: float = 100.0
    n_steps: int = 10
    log2_paths: int = 10
    method: str = "P2opt"
    conditioning: bool = True
    calibration: str = "closed"
    replications: int = 16
    seed: int = 42
    threads: int = 1
    out: str | None = None

    def validate(self) -> "RunConfig":
        for name, kind in NUMBER_FIELDS.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind) or not -np.inf < value < np.inf:
                raise ConfigError(name, f"must be a finite {kind.__name__.lower()} number, got {value!r}")
        if not isinstance(self.conditioning, bool):
            raise ConfigError("conditioning", f"must be true or false, got {self.conditioning!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("out", f"must be a path string or null, got {self.out!r}")
        if self.method not in METHODS:
            raise ConfigError("method", f"must be one of {METHODS}, got {self.method!r}")
        if self.calibration not in CALIBRATIONS:
            raise ConfigError("calibration", f"must be one of {CALIBRATIONS}, got {self.calibration!r}")
        for name in ("strike", "maturity"):
            if getattr(self, name) <= 0:
                raise ConfigError(name, "must be positive")
        for name in ("dim", "n_steps", "replications", "threads"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be >= 1")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError("seed", "must be in [0, 2**64)")
        if not 0 <= self.log2_paths <= 26:
            raise ConfigError("log2_paths", "must be in [0, 26]")
        if self.rate < 0:
            raise ConfigError("rate", "must be nonnegative")
        if self.s0 <= 0:
            raise ConfigError("s0", "must be positive")
        try:
            Payoff(kind=self.payoff, dim=self.dim, strike=self.strike)
        except (ValueError, McmPricerError) as exc:
            raise ConfigError("payoff", str(exc)) from exc
        try:
            vol = build_vol(self.dim, self.vol)
        except (ValueError, TypeError, KeyError, McmPricerError) as exc:
            raise ConfigError("vol", f"{type(exc).__name__}: {exc}") from exc
        if vol.breaks[-1] < self.maturity:
            raise ConfigError("vol", f"breaks end at {vol.breaks[-1]}, before maturity {self.maturity}")
        return self

    @property
    def n_paths(self) -> int:
        return 1 << self.log2_paths

    @classmethod
    def from_json(cls, path: str, overrides: dict | None = None) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("config", f"cannot read {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config", "top-level JSON value must be an object")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown field")
        return cls(**{**data, **(overrides or {})}).validate()


@dataclass
class PriceTable:
    """Rows keyed by (method, payoff, dim, steps, paths), deterministically ordered."""

    rows: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    def add(self, **row) -> None:
        self.rows.append({c: row[c] for c in TABLE_COLUMNS})

    def sort(self) -> None:
        self.rows.sort(key=lambda r: (r["method"], r["payoff"], r["dim"], r["steps"], r["paths"]))

    def to_csv(self) -> str:
        return _csv_text(TABLE_COLUMNS, self.rows)

    def to_json(self) -> str:
        return json.dumps({"rows": self.rows, "failures": self.failures}, indent=2, sort_keys=True)

    def content_key(self) -> tuple:
        """Row contents excluding runtime columns, for determinism checks."""
        return tuple(
            tuple(r[c] for c in TABLE_COLUMNS if c != "runtime_ms") for r in self.rows
        )

    def write(self, path: str) -> None:
        _write_outputs(path, self.to_csv(), self.to_json())


def _csv_text(columns: tuple[str, ...], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _write_outputs(path: str, csv_text: str, json_text: str) -> None:
    """Write the CSV to ``path`` (its .csv sibling for another extension) and the JSON next to it."""
    base, ext = os.path.splitext(path)
    with open(path if ext.lower() == ".csv" else base + ".csv", "w") as fh:
        fh.write(csv_text)
    with open(base + ".json", "w") as fh:
        fh.write(json_text)


def _run_cell(config: RunConfig) -> dict:
    payoff = Payoff(kind=config.payoff, dim=config.dim, strike=config.strike)
    est = price_mcm(
        payoff, config.vol, config.maturity, config.n_steps, config.s0, config.rate,
        config.n_paths, config.seed, method=config.method, conditioning=config.conditioning,
        replications=config.replications, n_workers=config.threads, calibration=config.calibration,
    )
    return {
        "method": config.method, "payoff": config.payoff, "dim": config.dim,
        "steps": config.n_steps, "paths": config.n_paths,
        "price": est.price, "std": est.std, "fallbacks": est.fallbacks,
        "runtime_ms": est.runtime_s * 1e3, "values": est.values,
    }


def run(config: RunConfig) -> PriceTable:
    """Execute one validated config; emits a single-row table."""
    config.validate()
    cell = _run_cell(config)
    if config.replications == 1:
        sys.stderr.write("warning: replications=1, std dev reported as 0\n")
    table = PriceTable()
    table.add(**cell)
    return table


SWEEP_AXES = ("dim", "steps", "log2_paths", "method")


def sweep(config: RunConfig, axes: dict[str, list]) -> PriceTable:
    """Cross-product of runs over the given axes, concatenated in one table.

    Failed cells are recorded in table.failures and the sweep continues.
    """
    config.validate()
    if not isinstance(axes, dict) or not all(isinstance(v, list) for v in axes.values()):
        raise ConfigError("axes", f'must map axis names to value lists, e.g. {{"dim": [1, 5]}}; got {axes!r}')
    bad = set(axes) - set(SWEEP_AXES)
    if bad:
        raise ConfigError(sorted(bad)[0], f"sweep axes limited to {SWEEP_AXES}")
    names = [a for a in SWEEP_AXES if a in axes]
    fields = ["n_steps" if n == "steps" else n for n in names]
    table = PriceTable()
    for values in product(*(axes[n] for n in names)):
        cfg = replace(config, **dict(zip(fields, values)))
        try:
            cfg.validate()
            cell = _run_cell(cfg)
        except (McmPricerError, ValueError) as exc:
            table.failures.append({"cell": dict(zip(names, values)), "error": str(exc)})
            continue
        table.add(**cell)
    table.sort()
    return table


def scaling_report(config: RunConfig, degrees: list[int]) -> list[dict]:
    """Same-seed runs at each parallelism degree with a hard determinism check.

    Returns one row per degree: (degree, runtime_ms, speedup, price).  Raises
    NonDeterministicResultError when any degree disagrees bitwise on the
    replication values.
    """
    config.validate()
    if not degrees or any(d < 1 for d in degrees):
        raise ConfigError("degrees", "must be a nonempty list of integers >= 1")
    rows = []
    reference = None
    for degree in degrees:
        cell = _run_cell(replace(config, threads=degree))
        if reference is None:
            reference = cell["values"]
        elif cell["values"] != reference:
            raise NonDeterministicResultError(
                f"degree {degree} changed replication values: {cell['values']} != {reference}"
            )
        rows.append({
            "degree": degree,
            "runtime_ms": cell["runtime_ms"],
            "price": cell["price"],
            "std": cell["std"],
        })
    base = rows[0]["runtime_ms"]
    for row in rows:
        row["speedup"] = base / row["runtime_ms"] if row["runtime_ms"] > 0 else float("inf")
    return rows


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=False, help="JSON config file")
    parser.add_argument("--method", choices=METHODS)
    parser.add_argument("--payoff", choices=("geometric_put", "min_put", "max_call"))
    parser.add_argument("--dim", type=int)
    parser.add_argument("--steps", type=int, dest="n_steps")
    parser.add_argument("--log2-paths", type=int, dest="log2_paths")
    parser.add_argument("--replications", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--threads", type=int)
    parser.add_argument("--no-conditioning", dest="conditioning", action="store_false", default=None)
    parser.add_argument("--calibration", choices=CALIBRATIONS)
    parser.add_argument("--out", help="output CSV path (a JSON mirror is written next to it)")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__ and v is not None}
    env = os.environ.get(ENV_THREADS)
    if "threads" not in overrides and env:
        try:
            overrides["threads"] = int(env)
        except ValueError as exc:
            raise ConfigError("threads", f"{ENV_THREADS} must be an integer, got {env!r}") from exc
    if args.config:
        return RunConfig.from_json(args.config, overrides)
    return replace(RunConfig(), **overrides).validate()


def _emit(table: PriceTable, out: str | None) -> None:
    sys.stdout.write(table.to_csv())
    if out:
        table.write(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="mcmpricer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_price = sub.add_parser("price", help="price one config")
    _add_common(p_price)

    p_sweep = sub.add_parser("sweep", help="cross-product of configs")
    _add_common(p_sweep)
    p_sweep.add_argument("--axes", required=True, help='JSON object, e.g. {"dim": [1,5], "steps": [10,20]}')

    p_scale = sub.add_parser("scaling", help="runtime vs parallelism degree")
    _add_common(p_scale)
    p_scale.add_argument("--degrees", required=True,
                         help="comma-separated process counts, the calling process included, e.g. 1,2,4")

    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "price":
            _emit(run(config), config.out)
        elif args.command == "sweep":
            try:
                axes = json.loads(args.axes)
            except json.JSONDecodeError as exc:
                raise ConfigError("axes", f"invalid JSON: {exc}") from exc
            _emit(sweep(config, axes), config.out)
        else:
            try:
                degrees = [int(v) for v in args.degrees.split(",") if v]
            except ValueError as exc:
                raise ConfigError("degrees", f"must be comma-separated integers: {exc}") from exc
            rows = scaling_report(config, degrees)
            text = _csv_text(SCALING_COLUMNS, rows)
            sys.stdout.write(text)
            if config.out:
                _write_outputs(config.out, text, json.dumps(rows, indent=2))
    except (ConfigError, NotDiagonalError) as exc:
        # NotDiagonalError reaches here only from price_mcm's check of P1 before any work
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except McmPricerError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit("mcmpricer.bench has no command line of its own; run python -m mcmpricer "
             "(price, sweep or scaling) instead")
