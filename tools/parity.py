"""Price a fixed grid of configs from this source tree, and compare it with another tree value by value.

    python tools/parity.py [--grid FILE] [--out FILE] [--against TREE]

Each run prices every config of the grid in a subprocess that imports
``mcmpricer`` from the ``src/`` of the tree that holds this script, with
one process per available core (the values do not depend on it).  ``--out``
writes the results as JSON: the configs, every replication value as
``float.hex`` and the fallback count of every call.  The default grid is
the acceptance grid (``acceptance_grid``); ``--grid`` reads another one, a
JSON list of configs in the same form.

``--against`` prices the same grid from the ``src/`` of a second tree, such
as a ``git archive`` of the parent commit, and prints one line per config:
"bitwise" when every value and fallback count agrees, otherwise the largest
move of a value in units of the second tree's replication std (population
std over all the values of the config) and the change in fallbacks.  The
exit code is 1 when some config moved.  Values are reproducible bitwise
only on one host, so price both trees on the same one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

# the source tree that holds this script
TREE = Path(__file__).resolve().parents[1]
RATE = math.log(1.1)
SEED = 20260808


def _vol_matrix(dim: int, corr: float) -> list:
    """0.2 times the Cholesky factor of a constant-correlation matrix, as the benchmark builds it."""
    rho = np.full((dim, dim), corr)
    np.fill_diagonal(rho, 1.0)
    return (0.2 * np.linalg.cholesky(rho)).tolist()


def _config(name, dim, *, kind="geometric_put", strike=100.0, vol=0.2, n_steps=10, s0=100.0, log2_paths=14,
            method="P2opt", conditioning=True, calibration="closed", replications=16, seeds=(SEED,)) -> dict:
    """One grid entry: the arguments of ``price_mcm`` and the seed of each of its calls."""
    return {"name": name, "payoff": [kind, dim, strike], "vol": vol, "maturity": 1.0, "n_steps": n_steps,
            "s0": s0, "r": RATE, "n_paths": 2**log2_paths, "method": method, "conditioning": conditioning,
            "calibration": calibration, "replications": replications, "seeds": list(seeds)}


def acceptance_grid() -> list[dict]:
    """The benchmark panels, acceptance criteria 3, 4 and 5(b), and LS and P1 over strikes, dims and vols."""
    corr2 = _vol_matrix(2, 0.3)
    return [
        _config("panel-cond-d5", 5, vol=_vol_matrix(5, 0.0), replications=1, seeds=range(SEED, SEED + 8)),
        _config("panel-raw-corr-d2", 2, vol=corr2, log2_paths=13, replications=1, seeds=range(SEED, SEED + 14)),
        _config("panel-par-d10", 10, vol=_vol_matrix(10, 0.0), log2_paths=11, replications=8,
                seeds=range(SEED, SEED + 5)),
        *(_config(f"crit3-d{dim}", dim) for dim in (1, 5, 10)),
        *(_config(f"crit4-{kind}", 2, kind=kind) for kind in ("min_put", "max_call")),
        *(_config(f"crit5b-{method}", 5, n_steps=20, log2_paths=10, method=method)
          for method in ("P2eq", "P2opt")),
        *(_config(f"ls-d{dim}-K{strike:g}", dim, strike=strike, log2_paths=12, method="LS", replications=8)
          for dim in (1, 2, 5, 10) for strike in (90.0, 100.0, 110.0)),
        *(_config(f"ls-corr-{kind}", 2, kind=kind, vol=corr2, log2_paths=12, method="LS", replications=8)
          for kind in ("min_put", "max_call")),
        _config("ls-s0-d2", 2, s0=[90.0, 110.0], log2_paths=12, method="LS", replications=8),
        _config("ls-s0-d5", 5, s0=[80.0, 90.0, 100.0, 110.0, 120.0], log2_paths=12, method="LS", replications=8),
        *(_config(f"p1-cond-d{dim}", dim, log2_paths=13, method="P1", replications=2) for dim in (1, 5, 10)),
        *(_config(f"p1-raw-d{dim}", dim, log2_paths=13, method="P1", conditioning=False, replications=2)
          for dim in (2, 5)),
    ]


def _price(grid: list[dict]) -> list[dict]:
    """Price every config of ``grid`` with the ``mcmpricer`` on the path (run inside the subprocess)."""
    from mcmpricer import Payoff, price_mcm

    out = []
    for cfg in grid:
        kind, dim, strike = cfg["payoff"]
        calls = [price_mcm(Payoff(kind, dim, strike), cfg["vol"], cfg["maturity"], cfg["n_steps"], cfg["s0"],
                           cfg["r"], cfg["n_paths"], seed, method=cfg["method"],
                           conditioning=cfg["conditioning"], replications=cfg["replications"],
                           n_workers=len(os.sched_getaffinity(0)), calibration=cfg["calibration"])
                 for seed in cfg["seeds"]]
        out.append({**cfg, "values": [[v.hex() for v in est.values] for est in calls],
                    "fallbacks": [est.fallbacks for est in calls]})
        print(f"priced {cfg['name']}", file=sys.stderr, flush=True)
    return out


def price_tree(tree: Path, grid: list[dict]) -> list[dict]:
    """The results of ``grid`` priced by the ``mcmpricer`` of ``tree/src``, in a subprocess."""
    src = (tree / "src").resolve()
    proc = subprocess.run([sys.executable, __file__, "--price", str(src)],
                          input=json.dumps(grid), env=dict(os.environ, PYTHONPATH=str(src)),
                          stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"pricing from {tree} failed")
    return json.loads(proc.stdout)


def compare(results: list[dict], baseline: list[dict]) -> list[str]:
    """One line per config: "bitwise", or the largest move in the baseline's replication-std units."""
    lines = []
    for new, old in zip(results, baseline, strict=True):
        name = new["name"]
        fallbacks = f"fallbacks {sum(old['fallbacks'])} -> {sum(new['fallbacks'])}"
        if new["values"] == old["values"] and new["fallbacks"] == old["fallbacks"]:
            lines.append(f"{name:24s} bitwise, {fallbacks}")
            continue
        a, b = (np.array([float.fromhex(v) for call in r["values"] for v in call]) for r in (new, old))
        move, std = float(np.max(np.abs(a - b))), float(np.std(b))
        size = f"{move / std:.3g} std" if std > 0.0 else "no spread"
        lines.append(f"{name:24s} moved {size} (max |dv| {move:.3g}), {fallbacks}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=Path, help="JSON list of configs (default: the acceptance grid)")
    parser.add_argument("--out", type=Path, help="write the results here as JSON")
    parser.add_argument("--against", type=Path, help="a second source tree to price the grid from")
    # the subprocess of price_tree: price the grid on stdin with the package under this src/
    parser.add_argument("--price", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.price:
        import mcmpricer

        if Path(mcmpricer.__file__).resolve().parent != args.price / "mcmpricer":
            raise SystemExit(f"imported mcmpricer from {mcmpricer.__file__}, not {args.price}")
        json.dump(_price(json.load(sys.stdin)), sys.stdout)
        return 0
    grid = json.loads(args.grid.read_text()) if args.grid else acceptance_grid()
    results = price_tree(TREE, grid)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1))
    if args.against is None:
        return 0
    baseline = price_tree(args.against, grid)
    lines = compare(results, baseline)
    print("\n".join(lines))
    moved = sum("bitwise" not in line for line in lines)
    print(f"{len(lines) - moved} of {len(lines)} configs bitwise")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
