import numpy as np
import pytest

from policyshift import CombinedDataset, CsvSchema, generate, ingest_csv, validate, write_csv
from policyshift.simulate import SimConfig


def make_dataset(group, treatment, outcome, x=None):
    n = len(group)
    x = np.arange(n, dtype=float).reshape(-1, 1) if x is None else x
    return CombinedDataset(covariates=x, group=np.asarray(group), treatment=np.asarray(treatment, dtype=float), outcome=np.asarray(outcome, dtype=float))


def test_well_formed_dataset_has_no_violations():
    ds = make_dataset([1, 1, 0, 0], [1, 0, np.nan, np.nan], [2.0, 1.0, np.nan, np.nan])
    assert validate(ds) == []
    assert ds.n_source == 2 and ds.n_target == 2
    assert ds.source_fraction == 0.5


def test_outcome_on_target_row_is_flagged():
    ds = make_dataset([1, 0], [1, np.nan], [2.0, 3.0])
    problems = validate(ds)
    assert any("outcome present where group=0" in p and "row 1" in p for p in problems)


def test_empty_source_domain_is_flagged():
    ds = make_dataset([0, 0], [np.nan, np.nan], [np.nan, np.nan])
    assert any("source domain empty" in p for p in validate(ds))


def test_missing_source_cells_and_bad_arm_flagged():
    ds = make_dataset([1, 1, 0], [np.nan, 2.0, np.nan], [1.0, np.nan, np.nan])
    problems = "\n".join(validate(ds))
    assert "row 0: treatment missing" in problems
    assert "row 1: outcome missing" in problems
    assert "row 1: treatment must be 0 or 1" in problems


def test_nonfinite_covariate_flagged_with_column_name():
    x = np.array([[1.0, np.inf], [0.0, 1.0]])
    ds = make_dataset([1, 0], [1.0, np.nan], [2.0, np.nan], x=x)
    assert any("row 0, column x2: covariate not finite" in p for p in validate(ds))


def test_source_fraction_is_exact_ratio():
    ds = make_dataset([1, 1, 1, 0], [1, 0, 1, np.nan], [1.0, 2.0, 3.0, np.nan])
    assert ds.source_fraction == 3 / 4


def test_dataset_arrays_are_readonly():
    ds = make_dataset([1, 0], [1.0, np.nan], [2.0, np.nan])
    with pytest.raises(ValueError):
        ds.covariates[0, 0] = 9.0


def test_ingest_three_row_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,g,a,y\n1.0,1,1,2.5\n0.5,1,0,1.0\n2.0,0,,\n", encoding="utf-8")
    ds = ingest_csv(path)
    assert ds.n_source == 2 and ds.n_target == 1
    assert ds.covariates[:, 0].tolist() == [1.0, 0.5, 2.0]
    assert ds.treatment[0] == 1.0 and np.isnan(ds.treatment[2])


def test_ingest_rejects_outcome_on_target_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,g,a,y\n1.0,1,1,2.5\n2.0,0,,3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="outcome present where group=0"):
        ingest_csv(path)


def test_ingest_names_bad_cell(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,g,a,y\noops,1,1,2.5\n1.0,0,,\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2, column x1"):
        ingest_csv(path)


def test_ingest_requires_literal_group(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,g,a,y\n1.0,true,1,2.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="group must be literal 0 or 1"):
        ingest_csv(path)


def test_ingest_schema_selects_covariates(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("junk,f1,g,a,y\n9,1.5,1,0,2.0\n8,2.5,0,,\n", encoding="utf-8")
    ds = ingest_csv(path, CsvSchema(covariates=("f1",)))
    assert ds.p == 1
    assert ds.covariates[:, 0].tolist() == [1.5, 2.5]


def test_ingest_rejects_duplicated_covariate_header(tmp_path):
    # the second x1 column would otherwise be read as a copy of the first
    path = tmp_path / "d.csv"
    path.write_text("x1,x1,g,a,y\n1.0,9.0,1,1,2.5\n2.0,8.0,0,,\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"duplicated header columns \['x1'\]"):
        ingest_csv(path)


def test_ingest_rejects_duplicated_group_header(tmp_path):
    # the first g column would otherwise win without a word
    path = tmp_path / "d.csv"
    path.write_text("x1,g,g,a,y\n1.0,1,0,1,2.5\n2.0,0,1,,\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"duplicated header columns \['g'\]"):
        ingest_csv(path)


def test_csv_round_trip_is_bit_identical(tmp_path):
    sim = generate(SimConfig(n_source=16, n_target=16, seed=11))
    path = tmp_path / "rt.csv"
    write_csv(sim.dataset, path)
    back = ingest_csv(path)
    assert np.array_equal(back.covariates, sim.dataset.covariates)
    assert np.array_equal(back.group, sim.dataset.group)
    assert np.array_equal(back.treatment, sim.dataset.treatment, equal_nan=True)
    assert np.array_equal(back.outcome, sim.dataset.outcome, equal_nan=True)
