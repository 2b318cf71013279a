"""The benchmark's three workloads: inputs, one op, and the op's checked outputs.

Each workload draws its op inputs from a fixed pool whose outputs were
recorded in ``reference.json`` (see ``record_reference.py``); the run seed
picks the order in which the pool is walked, so every op can be checked and
no input repeats within a run shorter than the pool.

An observation is a flat dict: floats (or lists of floats) compared within
``RTOL``/``ATOL``, and ``*decisions`` digests of hard 0/1 decisions compared
exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from policyshift import cli, data, estimators, harness, nuisance, simulate
from policyshift.features import FeatureMap
from policyshift.policy import LinearPolicy

# Admits float-reordering drift (a fused learner moved theta by 4e-11) and
# rejects any change visible at the acceptance output's printed precision
# (rewards to 0.01, policy error to 0.001).
RTOL = 1e-7
ATOL = 1e-9

REPLICATION_POOL = 96  # sim seeds REPLICATION_SEED0 + 2j, j < pool; each op runs two replications
REPLICATION_SEED0 = 2_000_000
MC_POOL = 1024
MC_SEED0 = 1_000_000
CSV_DATASETS = 4
CSV_DATA_SEED0 = 3_000_000
CSV_LEARNER_SEEDS = 32

FIXED_POLICY = LinearPolicy(theta=np.array([-2.0, 0.3, -0.5, 0.2]), fmap=FeatureMap("raw", 3))
MC_BUILDERS = (("direct", "r"), ("ipw", "r"), ("se", "r"), ("se", "v"))
MC_REWARD_SEED = 9_092
MC_DRAWS = 200_000
BOUND_ETA = 0.05
BOUND_CLASS_SIZE = 1000


def digest(decisions: np.ndarray) -> str:
    """Hash and count of a 0/1 decision vector; equal only if every decision is."""
    bits = np.asarray(decisions) != 0
    return hashlib.sha256(np.packbits(bits).tobytes()).hexdigest()[:16] + f":{int(bits.sum())}"


def linear_decisions(covariates: np.ndarray, theta) -> np.ndarray:
    """The reported linear rule 1{[1, x] . theta >= 0}, recomputed over the rows."""
    features = np.column_stack([np.ones(len(covariates)), covariates])
    return features @ np.asarray(theta, dtype=float) >= 0.0


def mismatches(observed: dict, expected: dict) -> list[str]:
    """Names of the expected outputs that the observation misses."""
    bad = []
    for key, want in expected.items():
        got = observed.get(key)
        if isinstance(want, str) or got is None:
            ok = got == want
        else:
            w, g = np.atleast_1d(np.asarray(want, float)), np.atleast_1d(np.asarray(got, float))
            ok = w.shape == g.shape and bool(np.all(np.abs(g - w) <= ATOL + RTOL * np.abs(w)))
        if not ok:
            bad.append(f"{key}: got {got!r}, expected {want!r}")
    bad += [f"{key}: unexpected output {observed[key]!r}" for key in observed.keys() - expected.keys()]
    return bad


def _walk(rng: np.random.Generator, pool: list[str]) -> list[str]:
    return [pool[j] for j in rng.permutation(len(pool))]


@dataclass
class Inputs:
    """What set-up builds: the pool keys in walk order plus workload state."""

    keys: list[str]
    state: dict


class ReplicationTable:
    """One op: a two-replication criterion-5 table, serialized to JSON."""

    name = "replication_table"

    def pool(self) -> list[str]:
        return [str(REPLICATION_SEED0 + 2 * j) for j in range(REPLICATION_POOL)]

    def setup(self, rng: np.random.Generator, workdir: Path) -> Inputs:
        return Inputs(keys=_walk(rng, self.pool()), state={"config": harness.ExperimentConfig(welfare_scope="target")})

    def op(self, inputs: Inputs, key: str) -> str:
        config = inputs.state["config"]
        config = replace(config, sim=replace(config.sim, seed=int(key)))
        return harness.run_table(config, replications=2, workers=1).to_json()

    def observe(self, inputs: Inputs, key: str, output: str) -> dict:
        report = json.loads(output)
        out = {}
        for rec in report["replications"]:
            prefix = f"rep{rec['replication']}"
            if "error" in rec:
                out[f"{prefix}.error"] = rec["error"]
                continue
            covariates = simulate.generate(simulate.SimConfig(seed=rec["seed"])).dataset.covariates
            for method, entry in rec["methods"].items():
                if "error" in entry:
                    out[f"{prefix}.{method}.error"] = entry["error"]
                    continue
                out[f"{prefix}.{method}.theta"] = entry["theta"]
                out[f"{prefix}.{method}.true_reward"] = entry["metrics"]["true_reward"]
                out[f"{prefix}.{method}.policy_error"] = entry["metrics"]["policy_error"]
                out[f"{prefix}.{method}.estimate"] = entry["estimate"]["value"]
                out[f"{prefix}.{method}.decisions"] = digest(linear_decisions(covariates, entry["theta"]))
        return out


class EstimatorMC:
    """One op: a Monte Carlo replication of the estimators, with no learner."""

    name = "estimator_mc"

    def pool(self) -> list[str]:
        return [str(MC_SEED0 + j) for j in range(MC_POOL)]

    def setup(self, rng: np.random.Generator, workdir: Path) -> Inputs:
        state = {"sim": simulate.SimConfig(), "nuisance": nuisance.NuisanceConfig(folds=5)}
        return Inputs(keys=_walk(rng, self.pool()), state=state)

    def op(self, inputs: Inputs, key: str) -> dict:
        base = inputs.state["sim"]
        sim = simulate.generate(replace(base, seed=int(key)))
        ds = sim.dataset
        fitted = nuisance.fit_nuisances(ds, inputs.state["nuisance"])
        coeffs = {
            f"{label}.{kind}.{estimand}": estimators.reward_coefficients(ds, ns, kind, estimand)
            for label, ns in (("fitted", fitted), ("true", sim.truth))
            for kind, estimand in MC_BUILDERS
        }
        pi = FIXED_POLICY.decide(ds.covariates)
        out = {key: estimators.estimate(c, pi).value for key, c in coeffs.items()}
        diag = estimators.bias_diagnostic(ds, sim.truth, fitted, pi)
        bound = estimators.generalization_bound(ds, fitted, BOUND_ETA, BOUND_CLASS_SIZE, bias=diag)
        out["bias_diagnostic"] = diag
        out["bound_term"] = bound.bound_term
        out["population_reward"] = simulate.population_reward(base, FIXED_POLICY, "target", MC_DRAWS, MC_REWARD_SEED)
        out["decisions"] = digest(pi)
        return out

    def observe(self, inputs: Inputs, key: str, output: dict) -> dict:
        return output


class CsvPolicy:
    """One op: the real-data CLI path, learn then estimate r and v, in process."""

    name = "csv_policy"
    CONFIG = {"nuisance": {"folds": 5}, "learner": {"batch_size": 2048}}

    def pool(self) -> list[str]:
        return [f"{CSV_DATA_SEED0 + d}/{s}" for d in range(CSV_DATASETS) for s in range(CSV_LEARNER_SEEDS)]

    def setup(self, rng: np.random.Generator, workdir: Path) -> Inputs:
        data_seed = CSV_DATA_SEED0 + int(rng.integers(CSV_DATASETS))
        return self.prepare(data_seed, _walk(rng, [f"{data_seed}/{s}" for s in range(CSV_LEARNER_SEEDS)]), workdir)

    def prepare(self, data_seed: int, keys: list[str], workdir: Path) -> Inputs:
        """Write the dataset of ``data_seed`` and the config file under ``workdir``."""
        sim = simulate.generate(simulate.SimConfig(n_source=4096, n_target=16384, seed=data_seed))
        workdir.mkdir(parents=True, exist_ok=True)
        csv_path, config = workdir / "data.csv", workdir / "config.json"
        data.write_csv(sim.dataset, csv_path)
        config.write_text(json.dumps(self.CONFIG), encoding="utf-8")
        files = {"data": csv_path, "config": config, "policy": workdir / "policy.json"}
        files |= {f"est_{e}": workdir / f"estimate_{e}.json" for e in ("r", "v")}
        return Inputs(keys=keys, state={"files": files, "covariates": sim.dataset.covariates})

    def argv(self, inputs: Inputs, key: str) -> list[list[str]]:
        f = {name: str(path) for name, path in inputs.state["files"].items()}
        common = ["--data", f["data"], "--method", "se", "--config", f["config"]]
        learner_seed = key.split("/")[1]
        learn = ["learn", *common, "--seed", learner_seed, "--out-policy", f["policy"]]
        return [learn] + [
            ["estimate", *common, "--policy", f["policy"], "--estimand", e, "--out", f[f"est_{e}"]] for e in ("r", "v")
        ]

    def op(self, inputs: Inputs, key: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self.argv(inputs, key):
                code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"policyshift {argv[0]} exited with {code}")

    def observe(self, inputs: Inputs, key: str, output: None) -> dict:
        files = inputs.state["files"]
        theta = json.loads(files["policy"].read_text(encoding="utf-8"))["policy"]["theta"]
        out = {"theta": theta, "decisions": digest(linear_decisions(inputs.state["covariates"], theta))}
        for e in ("r", "v"):
            out[f"estimate.{e}"] = json.loads(files[f"est_{e}"].read_text(encoding="utf-8"))["value"]
        return out


WORKLOADS = {w.name: w for w in (ReplicationTable(), EstimatorMC(), CsvPolicy())}
