"""Drive the experiment harness programmatically: runs, sweeps, scaling.

The same operations are exposed on the command line:

    mcmpricer price   --config cfg.json --out table.csv
    mcmpricer sweep   --config cfg.json --axes '{"dim": [1, 5], "steps": [10, 20]}'
    mcmpricer scaling --config cfg.json --degrees 1,2,4
"""

from mcmpricer import RunConfig, run, scaling_report, sweep


def main():
    cfg = RunConfig(payoff="geometric_put", dim=1, n_steps=10, log2_paths=10,
                    replications=8, seed=42)
    print(run(cfg).to_csv())

    table = sweep(cfg, {"dim": [1, 5], "method": ["P2opt", "LS"]})
    print(table.to_csv())

    rows = scaling_report(RunConfig(dim=2, payoff="min_put", log2_paths=10, n_steps=5,
                                    replications=4, seed=7), degrees=[1, 2])
    for row in rows:
        print(f"degree {row['degree']}: {row['runtime_ms']:8.1f} ms  "
              f"speedup {row['speedup']:.2f}  price {row['price']:.4f}")
    print("prices identical across degrees by construction (hard-checked).")


# scaling_report starts worker processes, and each imports this script again,
# so the script needs a main guard
if __name__ == "__main__":
    main()
