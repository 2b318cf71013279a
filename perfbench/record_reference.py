"""Record the outputs of every pooled op input into ``reference.json``.

    python3 perfbench/record_reference.py

The benchmark checks each op against these outputs, so record them once at
the commit that defines the baseline. Every workload is recorded afresh.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import run


def input_groups(name: str, workdir: Path):
    """Yield set-up inputs whose keys together cover the workload's pool."""
    import numpy as np

    from workloads import CSV_DATA_SEED0, CSV_DATASETS, CSV_LEARNER_SEEDS, WORKLOADS

    workload = WORKLOADS[name]
    if name == "csv_policy":
        for d in range(CSV_DATASETS):
            seed = CSV_DATA_SEED0 + d
            yield workload.prepare(seed, [f"{seed}/{s}" for s in range(CSV_LEARNER_SEEDS)], workdir)
    else:
        inputs = workload.setup(np.random.default_rng(0), workdir)
        inputs.keys = workload.pool()
        yield inputs


def record(name: str, workdir: Path) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    fields, outputs = None, {}
    for inputs in input_groups(name, workdir):
        for key in inputs.keys:
            observed = workload.observe(inputs, key, workload.op(inputs, key))
            fields = fields or sorted(observed)
            if sorted(observed) != fields:
                raise RuntimeError(f"{name} input {key} gave outputs {sorted(observed)}, expected {fields}")
            outputs[key] = [observed[f] for f in fields]
        print(f"{name}: {len(outputs)} inputs recorded", file=sys.stderr)
    return {"fields": fields, "outputs": outputs}


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    problem = run.locate_package()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from workloads import ATOL, RTOL

    reference = {}
    workdir = run.WORK / f"record-{os.getpid()}"
    try:
        for name in run.WORKLOAD_NAMES:
            reference[name] = record(name, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference["tolerance"] = {"rtol": RTOL, "atol": ATOL, "decisions": "exact"}
    reference["recorded_with"] = run.provenance(argparse.Namespace(workload="all", seed=None, seconds=None, trace=0))
    lines = [f"{json.dumps(key)}: {json.dumps(reference[key], sort_keys=True)}" for key in sorted(reference)]
    run.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
