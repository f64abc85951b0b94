"""Experiment orchestration: run configs, sweeps, scaling, and persistence.

The CLI exposes three subcommands::

    mcmpricer price   --config cfg.json [--method P2opt --dim 5 ...]
    mcmpricer sweep   --config cfg.json --axes '{"dim": [1, 5, 10]}'
    mcmpricer scaling --config cfg.json --degrees 1,2,4

Results are written as CSV (one row per cell) plus a JSON mirror.  Identical
config and seed produce identical tables up to the runtime columns.
Exit codes: 0 ok (``--help`` too), 1 config or usage error, 2 numerical failure.
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

import numpy as np

from .errors import ConfigError, DimensionMismatchError, McmPricerError, NonDeterministicResultError
from .errors import require_integer, require_real
from .pricer import CALIBRATIONS, METHODS, PAYOFF_KINDS, Payoff, _resolve, price_mcm

TABLE_COLUMNS = ("method", "payoff", "dim", "steps", "paths", "price", "std", "fallbacks", "runtime_ms")
# The JSON mirror's rows also name the estimator that ran
ROW_COLUMNS = (*TABLE_COLUMNS, "conditioning", "calibration")
SCALING_COLUMNS = ("degree", "runtime_ms", "speedup", "price", "std")
# The fields the library takes as real numbers without checking their type (the CLI checks it
# with require_real; a bool is not one); the library checks the integers
NUMBER_FIELDS = ("strike", "maturity", "rate", "s0")
# The config field of each price_mcm argument (or Payoff's kind) named otherwise
CONFIG_FIELDS = {"r": "rate", "n_workers": "threads", "n_paths": "log2_paths", "vol_spec": "vol",
                 "kind": "payoff"}


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
        """Check what only the CLI has, then the rest through the library; returns self.

        The CLI checks the JSON types of the fields the library takes
        unchecked and the range of log2_paths.  Then the library builds the
        payoff and resolves the pricing call, and its error becomes a
        ConfigError for the field it names (CONFIG_FIELDS): an error that
        names no argument is a "payoff" dimension mismatch or else a "vol"
        that does not build, does not cover the maturity or has no closed
        forms for P1.
        """
        if not isinstance(self.conditioning, bool):
            raise ConfigError("conditioning", f"must be true or false, got {self.conditioning!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("out", f"must be a path string or null, got {self.out!r}")
        # the CLI's encoding of n_paths = 2**log2_paths: [0, 26] bounds the shift before any
        # allocation.  Membership is equality, so True and 2.0 pass, and require_integer rejects them
        if self.log2_paths not in range(27):
            raise ConfigError("log2_paths", f"must be an integer in [0, 26], got {self.log2_paths!r}")
        try:
            require_real(**{name: getattr(self, name) for name in NUMBER_FIELDS})
            require_integer(log2_paths=self.log2_paths)
            _resolve(*self.price_args())
        except (ValueError, TypeError, KeyError, McmPricerError) as exc:
            name = getattr(exc, "argument", "payoff" if isinstance(exc, DimensionMismatchError) else "vol")
            raise ConfigError(CONFIG_FIELDS.get(name, name), f"{type(exc).__name__}: {exc}") from exc
        return self

    @property
    def n_paths(self) -> int:
        return 1 << self.log2_paths

    def price_args(self) -> tuple:
        """The arguments of ``price_mcm``, in its order, the payoff built from its three fields."""
        return (Payoff(kind=self.payoff, dim=self.dim, strike=self.strike), self.vol, self.maturity,
                self.n_steps, self.s0, self.rate, self.n_paths, self.seed, self.method, self.conditioning,
                self.replications, self.threads, self.calibration)

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
        self.rows.append({c: row[c] for c in ROW_COLUMNS})

    def sort(self) -> None:
        self.rows.sort(key=lambda r: (r["method"], r["payoff"], r["dim"], r["steps"], r["paths"]))

    def to_csv(self) -> str:
        return _csv_text(TABLE_COLUMNS, self.rows)

    def to_json(self) -> str:
        return json.dumps({"rows": self.rows, "failures": self.failures}, indent=2, sort_keys=True)


def _csv_text(columns: tuple[str, ...], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n", extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _run_cell(config: RunConfig) -> dict:
    est = price_mcm(*config.validate().price_args())
    return {
        "method": config.method, "payoff": config.payoff, "dim": config.dim,
        "steps": config.n_steps, "paths": config.n_paths,
        "price": est.price, "std": est.std, "fallbacks": est.fallbacks,
        "runtime_ms": est.runtime_s * 1e3, "values": est.values,
        "conditioning": est.conditioning, "calibration": est.calibration,
    }


def run(config: RunConfig) -> PriceTable:
    """Validate and price one config; emits a single-row table."""
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

class _Parser(argparse.ArgumentParser):
    """argparse with a usage error exiting 1, the code of every other config error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=False, help="JSON config file")
    parser.add_argument("--method", choices=METHODS)
    parser.add_argument("--payoff", choices=PAYOFF_KINDS)
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
    if args.config:
        return RunConfig.from_json(args.config, overrides)
    return replace(RunConfig(), **overrides).validate()


def _emit(csv_text: str, json_text: str, out: str | None) -> None:
    """Print the CSV; with ``out``, also write it to ``out`` (its .csv sibling for another
    extension) and the JSON mirror next to it."""
    sys.stdout.write(csv_text)
    if not out:
        return
    base, ext = os.path.splitext(out)
    with open(out if ext.lower() == ".csv" else base + ".csv", "w") as fh:
        fh.write(csv_text)
    with open(base + ".json", "w") as fh:
        fh.write(json_text)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="mcmpricer", description=__doc__)
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
            table = run(config)
            _emit(table.to_csv(), table.to_json(), config.out)
        elif args.command == "sweep":
            try:
                axes = json.loads(args.axes)
            except json.JSONDecodeError as exc:
                raise ConfigError("axes", f"invalid JSON: {exc}") from exc
            table = sweep(config, axes)
            _emit(table.to_csv(), table.to_json(), config.out)
        else:
            try:
                degrees = [int(v) for v in args.degrees.split(",") if v]
            except ValueError as exc:
                raise ConfigError("degrees", f"must be comma-separated integers: {exc}") from exc
            rows = scaling_report(config, degrees)
            _emit(_csv_text(SCALING_COLUMNS, rows), json.dumps(rows, indent=2), config.out)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except McmPricerError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit("mcmpricer.bench has no command line of its own; run python -m mcmpricer "
             "(price, sweep or scaling) instead")
