import ast
import importlib
from pathlib import Path

import policyshift

# The public surface, spelled out so that adding or dropping an export is a
# deliberate edit of this list.
PUBLIC_NAMES = [
    "BoundReport",
    "CombinedDataset",
    "EvalMetrics",
    "ExperimentConfig",
    "ExperimentReport",
    "FeatureMap",
    "FitError",
    "LearnerConfig",
    "LinearPolicy",
    "LogisticModel",
    "NuisanceConfig",
    "NuisanceSet",
    "PairedTTest",
    "RewardCoefficients",
    "RewardEstimate",
    "RidgeModel",
    "SimConfig",
    "SimulatedData",
    "TrainingTrace",
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


def test_public_surface_is_the_pinned_list():
    exported = policyshift.__all__
    assert len(exported) == len(set(exported))
    assert all(hasattr(policyshift, name) for name in exported)
    assert sorted(exported) == PUBLIC_NAMES


def test_every_name_a_demo_imports_from_the_package_resolves():
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "policyshift":
                module = importlib.import_module(node.module)
                missing = [alias.name for alias in node.names if not hasattr(module, alias.name)]
                assert not missing, f"{demo.name} imports {missing} from {node.module}"


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
