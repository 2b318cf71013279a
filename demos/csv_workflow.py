"""The file-based workflow used for real datasets (no ground truth needed).

Round-trips a dataset through CSV, learns a policy from the file, and
estimates its reward with a confidence interval. This mirrors the CLI:

    echo '{"sim": {"seed": 3}}' > config.json
    policyshift simulate --config config.json --out-data data.csv
    policyshift learn --data data.csv --method se --out-policy policy.json
    policyshift estimate --data data.csv --policy policy.json --method se --estimand r --out est.json
"""

import json
from pathlib import Path

import numpy as np

from policyshift import (
    LearnerConfig,
    LinearPolicy,
    SimConfig,
    estimate,
    fit_nuisances,
    generate,
    ingest_csv,
    learn_policy,
    reward_coefficients,
    write_csv,
)

out_dir = Path(__file__).parent
data_path = out_dir / "demo_data.csv"

write_csv(generate(SimConfig(n_source=512, n_target=2048, seed=3)).dataset, data_path)
dataset = ingest_csv(data_path)
print(f"ingested {dataset.n} rows from {data_path.name}: {dataset.n_source} source, {dataset.n_target} target")

nuisances = fit_nuisances(dataset)
coeffs = reward_coefficients(dataset, nuisances, "se", "r")
policy, trace = learn_policy(coeffs, dataset.covariates, LearnerConfig(max_epochs=200), seed=3)

policy_path = out_dir / "demo_policy.json"
policy_path.write_text(json.dumps(policy.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
treated = float(np.mean(policy.decide(dataset.covariates)))
print(f"learned policy treats {treated:.1%} of rows; saved to {policy_path.name}")

reloaded = LinearPolicy.from_dict(json.loads(policy_path.read_text(encoding="utf-8")))
result = estimate(coeffs, reloaded.decide(dataset.covariates))
print(f"estimated target reward: {result.value:.2f} [{result.ci_low:.2f}, {result.ci_high:.2f}]")
