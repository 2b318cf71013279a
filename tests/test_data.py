import csv
import io
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from policyshift import CombinedDataset, generate, ingest_csv, write_csv
from policyshift import data
from policyshift.simulate import SimConfig

from reference import dataset_problems_reference, ingest_reference


def make_dataset(group, treatment, outcome, x=None):
    n = len(group)
    x = np.arange(n, dtype=float).reshape(-1, 1) if x is None else x
    return CombinedDataset(covariates=x, group=np.asarray(group), treatment=np.asarray(treatment, dtype=float), outcome=np.asarray(outcome, dtype=float))


def test_well_formed_dataset_has_no_violations():
    ds = make_dataset([1, 1, 0, 0], [1, 0, np.nan, np.nan], [2.0, 1.0, np.nan, np.nan])
    assert ds.n_source == 2 and ds.n_target == 2
    assert ds.source_fraction == 0.5


def test_outcome_on_target_row_is_flagged():
    with pytest.raises(ValueError, match="^invalid dataset: row 1: outcome present where group=0$"):
        make_dataset([1, 0], [1, np.nan], [2.0, 3.0])


def test_empty_source_domain_is_flagged():
    with pytest.raises(ValueError, match="^invalid dataset: source domain empty"):
        make_dataset([0, 0], [np.nan, np.nan], [np.nan, np.nan])


def test_missing_source_cells_and_bad_arm_flagged():
    with pytest.raises(ValueError) as raised:
        make_dataset([1, 1, 0], [np.nan, 2.0, np.nan], [1.0, np.nan, np.nan])
    problems = str(raised.value)
    assert "row 0: treatment missing" in problems
    assert "row 1: outcome missing" in problems
    assert "row 1: treatment must be 0 or 1" in problems


def test_nonfinite_covariate_flagged_with_column_name():
    x = np.array([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(ValueError, match="row 0, column x2: covariate not finite"):
        make_dataset([1, 0], [1.0, np.nan], [2.0, np.nan], x=x)


@pytest.mark.parametrize("group, treatment, outcome", [(1.9, 0.0, 1.0), (0.7, np.nan, np.nan)])
def test_a_fractional_group_is_refused_not_truncated(group, treatment, outcome):
    with pytest.raises(ValueError, match="^invalid dataset: row 2: group must be 0 or 1$"):
        make_dataset([1, 0, group], [1.0, np.nan, treatment], [2.0, np.nan, outcome])


def test_boolean_groups_are_legal():
    ds = make_dataset([True, False, True], [1.0, np.nan, 0.0], [2.0, np.nan, 1.0])
    assert ds.group.tolist() == [1, 0, 1] and ds.group.dtype == int


def test_a_nan_covariate_fails_at_construction_not_in_the_ridge_fit():
    sim = generate(SimConfig(n_source=40, n_target=60, seed=3))
    x = sim.dataset.covariates.copy()
    x[7, 1] = np.nan
    with pytest.raises(ValueError, match="^invalid dataset: row 7, column x2: covariate not finite$"):
        CombinedDataset(x, sim.dataset.group, sim.dataset.treatment, sim.dataset.outcome)


def test_a_dataset_error_names_at_most_eight_problems():
    with pytest.raises(ValueError) as raised:
        make_dataset([1] * 10 + [0], [np.nan] * 11, [1.0] * 10 + [np.nan])
    assert str(raised.value) == "invalid dataset: " + "; ".join(f"row {i}: treatment missing where group=1" for i in range(8))


@pytest.mark.parametrize("column", ["group", "treatment", "outcome"])
@pytest.mark.parametrize("shape", [(3, 1), (2,)])
def test_group_treatment_and_outcome_must_be_vectors_of_one_entry_per_row(column, shape):
    cells = {"group": [1, 0, 0], "treatment": [1.0, np.nan, np.nan], "outcome": [2.0, np.nan, np.nan]}
    cells[column] = np.resize(np.asarray(cells[column]), shape)
    with pytest.raises(ValueError, match="^group, treatment and outcome must be vectors with one entry per covariate row$"):
        CombinedDataset(np.zeros((3, 1)), **cells)


GROUPS, GROUP_FAULTS = (0, 1, True, False), (0.7, 1.9, 2)
NUMBER_FAULTS = (np.nan, np.inf, -np.inf, 0.5, 2.0)


@st.composite
def dataset_cells(draw):
    """Small arrays in the combined layout for their drawn groups, with up to 3 cells replaced by faults."""
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 2))
    group = draw(st.lists(st.sampled_from(GROUPS), min_size=n, max_size=n))
    treatment = [draw(st.sampled_from((0.0, 1.0))) if g == 1 else np.nan for g in group]
    outcome = [draw(st.floats(-5, 5)) if g == 1 else np.nan for g in group]
    x = draw(st.lists(st.lists(st.floats(-5, 5), min_size=p, max_size=p), min_size=n, max_size=n))
    for cell in draw(st.sets(st.integers(0, n * (p + 3) - 1), max_size=3)):
        row, column = divmod(cell, p + 3)
        cells = [group, treatment, outcome][column] if column < 3 else x[row]
        cells[row if column < 3 else column - 3] = draw(st.sampled_from(GROUP_FAULTS if column == 0 else NUMBER_FAULTS))
    return group, treatment, outcome, np.array(x, dtype=float).reshape(n, p)


@given(cells=dataset_cells())
@settings(max_examples=300, deadline=None)
def test_construction_builds_exactly_the_well_formed_layouts(cells):
    group, treatment, outcome, x = cells
    names = tuple(f"x{j + 1}" for j in range(x.shape[1]))
    expected = dataset_problems_reference(x, group, treatment, outcome, names)
    if not expected:
        ds = CombinedDataset(x, group, treatment, outcome)
        assert dataset_problems_reference(ds.covariates, ds.group, ds.treatment, ds.outcome, names) == []
        assert ds.group.tolist() == [int(g) for g in group]
        np.testing.assert_array_equal(ds.covariates, x)
        np.testing.assert_array_equal(ds.treatment, treatment)
        np.testing.assert_array_equal(ds.outcome, outcome)
        return
    with pytest.raises(ValueError) as raised:
        CombinedDataset(x, group, treatment, outcome)
    message = str(raised.value)
    assert message == "invalid dataset: " + "; ".join(expected[:8])
    faulty_rows = [int(row) for row in re.findall(r"row (\d+)", "; ".join(expected))]
    if faulty_rows:
        assert re.search(rf"row {min(faulty_rows)}\b", message)


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


def test_ingest_reserves_g_a_y_and_reads_every_other_column_as_a_covariate_in_header_order(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("g,x1,y,x2,a\n1,1.5,2.0,-0.1,0\n0,2.5,,0.30000000000000004,\n1,-7e-310,3.5,1e300,1\n", encoding="utf-8")
    ds = ingest_csv(path)
    assert ds.covariate_names == ("x1", "x2")
    assert ds.covariates.tolist() == [[1.5, -0.1], [2.5, 0.30000000000000004], [-7e-310, 1e300]]
    assert ds.group.tolist() == [1, 0, 1]
    assert np.array_equal(ds.treatment, [0.0, np.nan, 1.0], equal_nan=True)
    assert np.array_equal(ds.outcome, [2.0, np.nan, 3.5], equal_nan=True)

    written = tmp_path / "w.csv"
    write_csv(ds, written)
    assert written.read_text(encoding="utf-8").splitlines()[0] == "x1,x2,g,a,y"
    back = ingest_csv(written)
    assert back.covariate_names == ds.covariate_names
    for name in ("covariates", "group", "treatment", "outcome"):
        assert getattr(back, name).tobytes() == getattr(ds, name).tobytes()

    path.write_text("x1,group,a,y\n1.0,1,1,2.5\n2.0,0,,\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing group column 'g'"):
        ingest_csv(path)


@pytest.mark.parametrize("header, rows", [("g,x1,a,y", ["1,1.5,1,2.0", "0,-2.5,,"]), ("x1,g,a,y", ["1.5,1,1,2.0", "-2.5,0,,"])])
def test_ingest_drops_a_utf8_byte_order_mark(tmp_path, header, rows):
    # spreadsheet "CSV UTF-8" exports start with the mark, which would otherwise join the first column name
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    text = "\n".join([header, *rows]) + "\n"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    want, got = ingest_csv(plain), ingest_csv(marked)
    assert got.covariate_names == want.covariate_names == ("x1",)
    for name in ("covariates", "group", "treatment", "outcome"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_ingest_refuses_a_file_without_a_covariate_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("g,a,y\n1,1,2.5\n0,,\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no covariate column; every column other than 'g', 'a' and 'y' is a covariate") as info:
        ingest_csv(path)
    assert str(path) in str(info.value)


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


@st.composite
def datasets(draw):
    """A valid dataset with up to 3 covariates of any finite magnitude, subnormals and -0.0 included."""
    n = draw(st.integers(2, 15))
    p = draw(st.integers(1, 3))
    real = st.floats(allow_nan=False, allow_infinity=False)
    group = np.array(draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2)) + [1, 0])
    x = np.array(draw(st.lists(real, min_size=n * p, max_size=n * p))).reshape(n, p)
    arm = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(real, min_size=n, max_size=n)))
    return make_dataset(group, np.where(group == 1, arm, np.nan), np.where(group == 1, y, np.nan), x=x)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dataset=datasets())
def test_any_dataset_survives_the_csv_round_trip_bit_for_bit(tmp_path, dataset):
    path = tmp_path / "rt.csv"
    write_csv(dataset, path)
    back = ingest_csv(path)
    assert back.covariate_names == dataset.covariate_names
    for name in ("covariates", "group", "treatment", "outcome"):
        before, after = getattr(dataset, name), getattr(back, name)
        assert after.shape == before.shape
        # bit patterns, so -0.0 and every NaN position must survive too
        bits = [np.asarray(values, dtype=float).view(np.uint64) for values in (before, after)]
        assert np.array_equal(*bits)


def read_outcome(read, path):
    """What reading ``path`` gives: the error message, or the names and the bits, dtype and shape of every array."""
    try:
        ds = read(path)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    arrays = [getattr(ds, name) for name in ("covariates", "group", "treatment", "outcome")]
    return ds.covariate_names, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


# cells that float() reads in ways a hand-written parser might not; the last two fail validation
EDGE_CELLS = (" 1.5", "1_0", "-0.0", "5e-324", "1e400", "nan")
FAULTS = ("oops", " ", "1.5.2", "true", "0x1", "1,5")


@st.composite
def csv_files(draw, block_rows: int):
    """The text of a combined-dataset CSV longer than one block, with edge cells, quoting, a byte-order
    mark and shuffled columns, and up to two injected faults (a bad cell or a wrong cell count)."""
    n = draw(st.integers(block_rows + 1, 3 * block_rows + 2))
    p = draw(st.integers(1, 3))
    edges = EDGE_CELLS if draw(st.booleans()) else EDGE_CELLS[:4]
    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from(edges))
    header = [f"x{j + 1}" for j in range(p)] + ["g", "a", "y"]
    order = draw(st.permutations(range(len(header))))
    rows = []
    for i in range(n):
        group = "1" if i == 0 else "0" if i == 1 else draw(st.sampled_from(["0", "1"]))
        source = group == "1"
        cells = [draw(number) for _ in range(p)]
        cells += [group, draw(st.sampled_from(["0", "1"])) if source else "", draw(number) if source else ""]
        rows.append(cells)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row = rows[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(FAULTS))
        elif draw(st.booleans()):
            row.append("1")
        else:
            row.pop()
    out = io.StringIO()
    writer = csv.writer(out, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerows([[cells[j] for j in order if j < len(cells)] for cells in [header, *rows]])
    return ("\ufeff" if draw(st.booleans()) else "") + out.getvalue()


@pytest.mark.parametrize("block_rows", [1, 2, 5])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_block_reader_matches_the_row_reader_bit_for_bit_and_error_for_error(tmp_path, block_rows, data_):
    path = tmp_path / "d.csv"
    path.write_text(data_.draw(csv_files(block_rows)), encoding="utf-8")
    with mock.patch.object(data, "_BLOCK_ROWS", block_rows):
        got = read_outcome(ingest_csv, path)
    assert got == read_outcome(ingest_reference, path)


def faulty_file(n: int, faults: list[tuple[int, int, str]]) -> str:
    """``n`` valid rows of ``x1,x2,g,a,y``, with each fault ``(row, column, text)`` written over
    its cell in turn (a column of -1 drops the row's last cell)."""
    rows = [[f"{i}.5", "-0.0", "1", str(i % 2), "2.5"] if i % 3 else [f"{i}.5", "-0.0", "0", "", ""] for i in range(n)]
    for row, column, text in faults:
        if column == -1:
            rows[row].pop()
        else:
            rows[row][column] = text
    return "\n".join(["x1,x2,g,a,y", *map(",".join, rows)]) + "\n"


B = data._BLOCK_ROWS
MALFORMED = {
    "bad cell": (5, [(3, 1, "oops")], "line 5, column x2: cannot parse 'oops' as a number"),
    "bad g": (5, [(2, 2, "2")], "line 4, column g: group must be literal 0 or 1, got '2'"),
    "cell count": (5, [(4, -1, "")], "line 6: expected 5 cells, got 4"),
    "earlier row, later column": (9, [(2, 4, "y?"), (6, 0, "x?")], "line 4, column y: cannot parse 'y?' as a number"),
    "cell count before g": (5, [(1, 2, "yes"), (1, -1, "")], "line 3: expected 5 cells, got 4"),
    "g before covariates": (5, [(1, 0, "x?"), (1, 2, "yes")], "line 3, column g: group must be literal 0 or 1, got 'yes'"),
    "covariates in header order, then a, then y": (5, [(1, 4, "y?"), (1, 3, "a?"), (1, 1, "x?")], "line 3, column x2: cannot parse 'x?' as a number"),
    "last row of a block": (B + 3, [(B - 1, 0, "x?")], f"line {B + 1}, column x1: cannot parse 'x?' as a number"),
    "first row past a block": (B + 3, [(B, 3, "1.0.0")], f"line {B + 2}, column a: cannot parse '1.0.0' as a number"),
    "past a block, earlier fault later": (2 * B, [(B + 1, 1, "?"), (B + 7, -1, "")], f"line {B + 3}, column x2: cannot parse '?' as a number"),
}


@pytest.mark.parametrize("n, faults, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_files_give_the_row_readers_error(tmp_path, n, faults, message):
    path = tmp_path / "d.csv"
    path.write_text(faulty_file(n, faults), encoding="utf-8")
    with pytest.raises(ValueError) as want:
        ingest_reference(path)
    assert str(want.value) == message
    with pytest.raises(ValueError) as got:
        ingest_csv(path)
    assert str(got.value) == message


def test_a_bad_cell_is_reported_before_a_later_unreadable_row_of_its_block(tmp_path):
    # the csv module refuses the over-long field only once the rows before it were read
    path = tmp_path / "d.csv"
    text = faulty_file(6, [(1, 0, "oops")])
    path.write_text(text + "1.0,2.0,1,1," + "9" * (csv.field_size_limit() + 1) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3, column x1: cannot parse 'oops'"):
        ingest_reference(path)
    with pytest.raises(ValueError, match="line 3, column x1: cannot parse 'oops'"):
        ingest_csv(path)
    path.write_text(text.replace("oops", "1.5"), encoding="utf-8")
    ingest_csv(path)
    path.write_text(text.replace("oops", "1.5") + "1.0,2.0,1,1," + "9" * (csv.field_size_limit() + 1) + "\n", encoding="utf-8")
    with pytest.raises(csv.Error, match="field larger than field limit"):
        ingest_csv(path)


def test_ingesting_a_20480_row_file_peaks_at_most_4_5_mib(tmp_path):
    # shaped like the csv_policy benchmark file: 4,096 source and 16,384 target rows of 3 covariates
    path = tmp_path / "d.csv"
    write_csv(generate(SimConfig(n_source=4096, n_target=16384, seed=3_000_000)).dataset, path)
    tracemalloc.start()
    try:
        ds = ingest_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.n == 20480
    assert peak <= 4.5 * 2**20, f"peak {peak} bytes"
