"""Pricing benchmark for mcmpricer.

    python3 perfbench/run.py --workload cond-d5 --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the host record and run details.

``--trace 0`` reports end-to-end metrics from untraced calls.  Each run first
prices a fixed-seed panel (the same replications on every run and every
commit, sized to fill about 30 s on a 2-core host), whose replication spread
and error against the tree oracle give ``time_to_se_s`` and ``rms_err``; then
it prices calls seeded from ``--seed`` while ``--seconds`` are left.  Times
come from the median wall time of all calls, panel included.

``--trace 1`` reports per-layer metrics: each seeded call is priced
untraced, then serially with the layer functions wrapped (see tracing.py),
and the replication values of both must agree bitwise.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
# Set-up is timed once in this process and once in each probe process.
SETUP_PROBES = 2
# Standard error, in price units, that time_to_se_s is quoted for.
SE_TARGET = 0.01
# Largest gap allowed between a traced call's summed self times and the
# runtime price_mcm measures itself.
SPAN_SLACK_S = 0.02


def _parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _timed_setup(name: str):
    import workloads

    t0 = time.perf_counter()
    cfg = workloads.setup(name)
    return cfg, time.perf_counter() - t0


def _setup_probe(name: str) -> float:
    """Set-up time measured in a fresh interpreter."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{str(SRC_DIR)!r}, {str(BENCH_DIR)!r}]\n"
        "import workloads\n"
        f"workloads.setup({name!r})\n"
        "print(time.perf_counter() - t0)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _call_seeds(seed: int, name: str):
    import numpy as np
    from workloads import WORKLOADS

    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    while True:
        yield int(rng.integers(2**62))


def _timed_price(cfg, seed: int, reps: int, n_workers: int):
    t0 = time.perf_counter()
    est = cfg.price(seed, reps, n_workers)
    return est, time.perf_counter() - t0


def _output_ok(cfg, est) -> bool:
    """Finite price, and inside the oracle band where the seed meets it."""
    from workloads import ORACLE_BAND

    if not all(math.isfinite(v) for v in est.values) or not math.isfinite(est.price):
        return False
    return not cfg.workload.band_checked or abs(est.price - cfg.oracle) <= ORACLE_BAND


def _same_bits(a, b) -> bool:
    import numpy as np

    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _itm_queries(cfg, seed: int, reps: int) -> int:
    """ITM path-date pairs of a call, from re-simulated paths."""
    from mcmpricer import TimeGrid, build_vol, replication_seed, simulate_paths
    from workloads import MATURITY, N_STEPS, RATE, S0, itm_counts

    vol = build_vol(cfg.workload.dim, cfg.vol, rate=RATE)
    grid = TimeGrid(MATURITY, N_STEPS)
    total = 0
    for rep in range(reps):
        paths = simulate_paths(vol, grid, S0, RATE, cfg.workload.n_paths, replication_seed(seed, rep))
        total += sum(itm_counts(cfg.payoff, paths))
    return total


class Tally:
    """Attempted and failed pricing calls."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        """Run one checked call; returns its result, or None when it raised."""
        self.attempted += 1
        try:
            out, ok = fn(*args)
        except Exception:  # a failed pricing call is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            out, ok = None, False
        if not ok:
            self.failed += 1
        return out


def _end_to_end(cfg, args, tally: Tally):
    import numpy as np
    from workloads import PANEL_SEED

    wl = cfg.workload
    n_workers = wl.n_workers()

    def call(seed):
        est, wall = _timed_price(cfg, seed, wl.call_reps, n_workers)
        return (est, wall), _output_ok(cfg, est)

    panel_seeds = [PANEL_SEED + i for i in range(wl.panel_calls)]
    seeds = itertools.chain(panel_seeds, _call_seeds(args.seed, wl.name))
    walls, panel = [], []
    t_start = time.perf_counter()
    for i, seed in enumerate(seeds):
        in_panel = i < len(panel_seeds)
        if not in_panel and time.perf_counter() - t_start + statistics.median(walls) > args.seconds:
            break
        out = tally.run(call, seed)
        if out is None:
            if in_panel:
                return None, {}
            continue
        walls.append(out[1])
        if in_panel:
            panel.append(out[0])

    values = np.concatenate([est.values for est in panel])
    std = float(np.std(values))
    fallbacks = sum(est.fallbacks for est in panel)
    itm = sum(_itm_queries(cfg, seed, wl.call_reps) for seed in panel_seeds)
    rep_wall = statistics.median(walls) / wl.call_reps
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "paths_per_s": (wl.n_paths / rep_wall, "1/s"),
        "time_to_se_s": (rep_wall * (std / SE_TARGET) ** 2, "s"),
        "rms_err": (float(np.sqrt(np.mean((values - cfg.oracle) ** 2))), "price"),
        "answered_frac": (1.0 - fallbacks / itm, "ratio"),
        "peak_rss_mb": (max(self_kb, child_kb) / 1024.0, "MiB"),
    }
    detail = {
        "n_workers": n_workers,
        "call_reps": wl.call_reps,
        "call_walls_s": walls,
        "panel_seeds": panel_seeds,
        "panel_price": float(np.mean(values)),
        "panel_std": std,
        "oracle": cfg.oracle,
        "abs_err": abs(float(np.mean(values)) - cfg.oracle),
        "fallbacks_per_rep": fallbacks / len(values),
        "fallback_frac": fallbacks / itm,
    }
    return metrics, detail


def _per_layer(cfg, args, tally: Tally):
    from tracing import BOOKKEEPING, ROOT, Tracer, traced_layers

    wl = cfg.workload
    n_workers = wl.n_workers()
    tracer = Tracer()
    walls = {"untraced": 0.0, "serial": 0.0}
    reps = 0

    def call(seed):
        est_u, wall_u = _timed_price(cfg, seed, wl.call_reps, n_workers)
        est_s, wall_s = (
            _timed_price(cfg, seed, wl.call_reps, 1) if n_workers > 1 else (est_u, wall_u)
        )
        itm_before = tracer.itm_queries
        first_span = len(tracer.spans)
        with traced_layers(tracer, cfg.payoff):
            with tracer.span(ROOT):
                est_t = cfg.price(seed, wl.call_reps, 1)
        # The self times of this call's spans must cover the wall time the
        # pricer clocks itself, plus only the few calls between the clocks.
        escaped = sum(tracer.self_times(first_span).values()) - est_t.runtime_s
        ok = (
            _output_ok(cfg, est_u)
            and _same_bits(est_t.values, est_u.values)
            and _same_bits(est_s.values, est_u.values)
            and tracer.nesting_ok()
            and 0.0 <= escaped <= SPAN_SLACK_S
            and tracer.itm_queries - itm_before == _itm_queries(cfg, seed, wl.call_reps)
        )
        return (wall_u, wall_s), ok

    t_start = time.perf_counter()
    seeds = _call_seeds(args.seed, wl.name)
    elapsed = 0.0
    while reps == 0 or elapsed + elapsed / reps * wl.call_reps <= args.seconds:
        out = tally.run(call, next(seeds))
        elapsed = time.perf_counter() - t_start
        if out is None:
            if reps == 0:
                return None, {}
            continue
        walls["untraced"] += out[0]
        walls["serial"] += out[1]
        reps += wl.call_reps

    selfs = tracer.self_times()
    traced_wall = tracer.root_wall()

    def layer(name):
        return selfs.get(name, 0.0) / reps

    pricer_self = selfs.get(ROOT, 0.0)
    plans = len(tracer.lams)
    metrics = {
        "market_model.simulate_s": (layer("market_model.simulate"), "s"),
        "market_model.path_bytes": (tracer.path_bytes / reps, "bytes"),
        "weights.path_weights_s": (layer("weights.path_weights"), "s"),
        "weights.path_weights_calls": (tracer.calls["path_weights"] / reps, "count"),
        "kernels.features_s": (layer("kernels.features"), "s"),
        "kernels.closed_form_s": (layer("kernels.closed_form"), "s"),
        "ratio.pooled_plan_s": (layer("ratio.pooled_plan"), "s"),
        "ratio.pooled_plan_calls": (plans / reps, "count"),
        "ratio.lam_median": (statistics.median(tracer.lams) if plans else 0.0, "ratio"),
        "ratio.case1_frac": (tracer.regimes.count("case1") / plans if plans else 0.0, "ratio"),
        "pricer.self_s": (pricer_self / reps, "s"),
        "pricer.itm_frac": (tracer.itm_queries / tracer.itm_slots, "ratio"),
        "pricer.kernel_evals": (tracer.kernel_evals / reps, "count"),
        "pricer.kernel_rate": (tracer.kernel_evals / pricer_self, "1/s"),
        "pricer.pool_overhead_s": ((walls["untraced"] - walls["serial"] / n_workers) / reps, "s"),
        "trace_overhead_frac": (traced_wall / walls["serial"] - 1.0, "ratio"),
    }
    detail = {
        "n_workers": n_workers,
        "replications": reps,
        "untraced_wall_s": walls["untraced"],
        "serial_wall_s": walls["serial"],
        "traced_wall_s": traced_wall,
        "bookkeeping_s": selfs.get(BOOKKEEPING, 0.0),
        "self_s": selfs,
    }
    return metrics, detail


def main(argv=None) -> int:
    if not (SRC_DIR / "mcmpricer" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    args = _parse_args(argv)
    cfg, setup_s = _timed_setup(args.workload)

    import mcmpricer
    from host import host_record

    if Path(mcmpricer.__file__).resolve().parent != SRC_DIR / "mcmpricer":
        print(f"perfbench: imported mcmpricer from {mcmpricer.__file__}, not {SRC_DIR}",
              file=sys.stderr)
        return 2

    tally = Tally()
    if args.trace:
        metrics, detail = _per_layer(cfg, args, tally)
    else:
        setups = [setup_s] + [_setup_probe(args.workload) for _ in range(SETUP_PROBES)]
        metrics, detail = _end_to_end(cfg, args, tally)
        if metrics is not None:
            metrics["setup_s"] = (statistics.median(setups), "s")
            detail["setup_samples_s"] = setups
    if metrics is None:
        print("perfbench: no pricing call succeeded", file=sys.stderr)
        return 1

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_record(), "detail": detail,
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _stop_resource_tracker() -> None:
    """Stop the resource tracker a spawn pool starts, and wait until it has ended.

    Left alone it outlives this process by a moment, cleaning up after it.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    # Terminated, a run still shuts its worker pool down and stops the tracker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        code = main()
    finally:
        _stop_resource_tracker()
    sys.exit(code)
