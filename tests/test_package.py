import ast
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import policyshift

# The public surface, spelled out so that adding or dropping an export is a
# deliberate edit of this list.
PUBLIC_NAMES = [
    "CombinedDataset",
    "ExperimentConfig",
    "ExperimentReport",
    "FeatureMap",
    "FitError",
    "LearnerConfig",
    "LinearPolicy",
    "NuisanceConfig",
    "NuisanceSet",
    "RewardCoefficients",
    "SimConfig",
    "betainc",
    "bias_diagnostic",
    "estimate",
    "evaluate_policy",
    "feature_transform",
    "fit_logistic",
    "fit_nuisances",
    "fit_ridge",
    "generalization_bound",
    "generate",
    "ingest_csv",
    "learn_policy",
    "paired_t_test",
    "population_reward",
    "reward_coefficients",
    "run_replication",
    "run_sweep",
    "run_table",
    "shift_sweep_config",
    "sigmoid",
    "t_sf_two_sided",
    "true_nuisances",
    "write_csv",
    "write_sweep_csv",
    "write_table_csv",
    "write_truth_csv",
]

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_public_surface_is_the_pinned_list():
    exported = policyshift.__all__
    assert len(exported) == len(set(exported))
    assert all(hasattr(policyshift, name) for name in exported)
    assert sorted(exported) == PUBLIC_NAMES


def test_every_name_a_demo_imports_from_the_package_resolves():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for demo in demos:
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "policyshift":
                module = importlib.import_module(node.module)
                missing = [alias.name for alias in node.names if not hasattr(module, alias.name)]
                assert not missing, f"{demo.name} imports {missing} from {node.module}"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_every_demo_runs(tmp_path, demo):
    # a copy, so that a demo writing next to itself writes under tmp_path
    script = tmp_path / demo
    shutil.copyfile(DEMOS / demo, script)
    env = {**os.environ, "PYTHONPATH": str(DEMOS.parent / "src")}
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_no_module_imports_a_name_it_never_uses():
    """A stdlib-only unused-import check.

    ``# noqa: F401`` keeps an import on purpose, and the only purpose is a
    site of the benchmark tracer that wraps the name where that module looks
    it up; when the site moves, the import is flagged for deletion.
    """
    tracer = (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text(encoding="utf-8")
    for path in sorted(Path(policyshift.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # imports there are the exports
            continue
        text = path.read_text(encoding="utf-8")
        lines, tree = text.splitlines(), ast.parse(text)
        imported = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                for alias in node.names:
                    site = f'("{path.stem}", "{alias.asname or alias.name}"'
                    assert site in tracer, f"{path.name} keeps {alias.name} unused, but no tracer site {site}"
                continue
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - used, f"{path.name} imports {sorted(imported - used)} and never uses them"


def test_every_export_is_used_outside_the_tests():
    """Each public name is read by a package module other than ``__init__``, a demo or a benchmark file.

    A read is a name or attribute in the code, or a part of a dotted string
    in the benchmark tracer's ``SITES``, which wraps names it looks up.
    """
    root = Path(__file__).resolve().parents[1]
    package = Path(policyshift.__file__).parent
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    paths += [*(root / "demos").glob("*.py"), *(root / "perfbench").glob("*.py")]
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SITES" for t in node.targets):
                strings = [c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
                used.update(part for s in strings for part in s.split("."))
    unused = [name for name in policyshift.__all__ if name not in used]
    assert not unused, f"exported but read only by the tests: {unused}"


def test_every_export_is_imported_from_the_package_root():
    """Each public name is imported from ``policyshift`` by a demo, a benchmark file or another test.

    ``from policyshift import name`` and ``policyshift.name`` both count; a
    name imported only from its module need not be exported.
    """
    root = Path(__file__).resolve().parents[1]
    paths = [*(root / "demos").glob("*.py"), *(root / "perfbench").rglob("*.py")]
    paths += [p for p in (root / "tests").glob("*.py") if p.name != Path(__file__).name]
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "policyshift":
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "policyshift":
                imported.add(node.attr)
    unimported = [name for name in policyshift.__all__ if name not in imported]
    assert not unimported, f"exported but never imported from the package root: {unimported}"


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md quick start", "exec"), {"__name__": "readme_quick_start"})
    out = capsys.readouterr().out
    assert "RewardEstimate(value=" in out and "EvalMetrics(true_reward=" in out


def test_pooled_benchmark_inputs_match_the_reference(monkeypatch, tmp_path):
    """The first pooled inputs of each benchmark workload give the outputs in ``perfbench/reference.json``.

    The benchmark checks every op against that file within its tolerance, so
    a change that moves an output past it fails here as well.
    """
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    workloads = importlib.import_module("workloads")
    reference = json.loads((perfbench / "reference.json").read_text(encoding="utf-8"))
    for name, count in (("estimator_mc", 8), ("replication_table", 2), ("csv_policy", 1)):
        workload = workloads.WORKLOADS[name]
        keys = workload.pool()[:count]
        if name == "csv_policy":  # a key is "<data seed>/<learner seed>"
            inputs = workload.prepare(int(keys[0].split("/")[0]), keys, tmp_path)
        else:
            inputs = workload.setup(np.random.default_rng(0), tmp_path)
        fields, outputs = reference[name]["fields"], reference[name]["outputs"]
        for key in keys:
            observed = workload.observe(inputs, key, workload.op(inputs, key))
            assert workloads.mismatches(observed, dict(zip(fields, outputs[key]))) == [], f"{name} input {key}"
