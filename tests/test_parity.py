"""tools/parity.py prices a grid from two source trees and reports each config as bitwise or moved."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PARITY = ROOT / "tools" / "parity.py"
# two small configs: a conditioned P2opt config of two calls, and LS on a per-asset s0
GRID = [
    {"name": "p2opt-d1", "payoff": ["geometric_put", 1, 100.0], "vol": 0.2, "maturity": 1.0, "n_steps": 3,
     "s0": 100.0, "r": 0.05, "n_paths": 256, "method": "P2opt", "conditioning": True,
     "calibration": "closed", "replications": 3, "seeds": [1, 2]},
    {"name": "ls-d2", "payoff": ["geometric_put", 2, 100.0], "vol": 0.2, "maturity": 1.0, "n_steps": 3,
     "s0": [90.0, 110.0], "r": 0.05, "n_paths": 256, "method": "LS", "conditioning": True,
     "calibration": "closed", "replications": 2, "seeds": [3]},
]


def _load_parity():
    spec = importlib.util.spec_from_file_location("parity", PARITY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_is_bitwise_and_a_patched_value_moves(tmp_path):
    grid, out = tmp_path / "grid.json", tmp_path / "out.json"
    grid.write_text(json.dumps(GRID))
    same = subprocess.run([sys.executable, str(PARITY), "--grid", str(grid), "--out", str(out),
                           "--against", str(ROOT)], capture_output=True, text=True, timeout=300)
    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines() == ["p2opt-d1                 bitwise, fallbacks 0 -> 0",
                                        "ls-d2                    bitwise, fallbacks 0 -> 0",
                                        "2 of 2 configs bitwise"]
    # move one value of the second call by a quarter of the config's replication std, and add
    # two fallbacks to the LS call
    results = json.loads(out.read_text())
    patched = json.loads(out.read_text())
    values = np.array([float.fromhex(v) for call in results[0]["values"] for v in call])
    patched[0]["values"][1][0] = (values[3] + 0.25 * np.std(values)).hex()
    patched[1]["fallbacks"][0] += 2
    moved = _load_parity().compare(patched, results)
    assert moved[0].startswith(f"p2opt-d1                 moved {0.25:.3g} std (max |dv| ")
    assert moved[0].endswith(", fallbacks 0 -> 0")
    assert moved[1] == "ls-d2                    moved 0 std (max |dv| 0), fallbacks 0 -> 2"
