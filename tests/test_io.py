import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import dtekit.io as dio
from dtekit.core import EffectBand
from dtekit.errors import DomainError, MissingColumn, NonFiniteValue, ParseError
from dtekit.io import (
    CsvSchema,
    emit_report,
    load_csv,
    load_manifest,
    write_manifest,
    write_points_csv,
)


BASIC_CSV = """arm,outcome,x1,x2
1,1.5,0.1,0.2
2,2.5,0.3,0.4
1,0.5,0.5,0.6
2,3.5,0.7,0.8
"""


def write_text(path, text):
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_basic_roundtrip(self, tmp_path):
        data = load_csv(write_text(tmp_path / "a.csv", BASIC_CSV))
        assert data.n_units == 4
        assert data.n_arms == 2
        assert_array_equal(data.arms, [1, 2, 1, 2])
        assert_array_equal(data.outcomes, [1.5, 2.5, 0.5, 3.5])
        assert_array_equal(data.covariates[:, 0], [0.1, 0.3, 0.5, 0.7])

    def test_string_labels_sorted_lexicographically(self, tmp_path):
        text = "arm,outcome,x\ntreat,2.0,0.1\nctrl,1.0,0.2\ntreat,3.0,0.3\nctrl,0.5,0.4\n"
        data = load_csv(write_text(tmp_path / "b.csv", text))
        # ctrl sorts before treat, so ctrl is arm 1
        assert_array_equal(data.arms, [2, 1, 2, 1])

    def test_numeric_labels_sorted_numerically(self, tmp_path):
        text = "arm,outcome,x\n10,2.0,0.1\n2,1.0,0.2\n10,3.0,0.3\n2,0.5,0.4\n"
        data = load_csv(write_text(tmp_path / "c.csv", text))
        # numerically 2 < 10, even though "10" < "2" as strings
        assert_array_equal(data.arms, [2, 1, 2, 1])

    def test_schema_selects_and_orders_covariates(self, tmp_path):
        text = "w,y,a,b,c\n1,1.0,10,20,30\n2,2.0,40,50,60\n"
        schema = CsvSchema(arm="w", outcome="y", covariates=("c", "a"))
        data = load_csv(write_text(tmp_path / "d.csv", text), schema)
        assert_array_equal(data.covariates, [[30.0, 10.0], [60.0, 40.0]])

    @pytest.mark.parametrize("schema, message", [
        (dict(covariates=("x", "outcome")), "covariate 'outcome' is the arm or the outcome"),
        (dict(covariates=("arm",)), "covariate 'arm' is the arm or the outcome"),
        (dict(covariates=("x", "x")), "covariate 'x' is listed twice"),
        (dict(arm="y", outcome="y"), "'y' cannot be both the arm and the outcome"),
    ])
    def test_column_with_two_roles_rejected(self, tmp_path, schema, message):
        # the learner would predict 1{Y <= y} from Y itself, or fit one column twice
        path = write_text(tmp_path / "roles.csv", "arm,outcome,x,y\n1,1.0,0.1,5\n2,2.0,0.2,6\n")
        with pytest.raises(ValueError, match=message):
            load_csv(path, CsvSchema(**schema))

    def test_all_other_columns_become_covariates(self, tmp_path):
        text = "x1,arm,x2,outcome\n0.1,1,0.2,1.0\n0.3,2,0.4,2.0\n"
        data = load_csv(write_text(tmp_path / "e.csv", text))
        assert data.n_covariates == 2
        assert_array_equal(data.covariates, [[0.1, 0.2], [0.3, 0.4]])

    @pytest.mark.parametrize("text, name", [
        ("x1,x1,arm,outcome\n0.1,0.2,1,1.0\n0.3,0.4,2,2.0\n", "x1"),
        ("x1,arm,outcome,arm\n0.1,1,1.0,2\n0.3,2,2.0,1\n", "arm"),
        ("arm,outcome,x, x \n1,1.0,0.1,0.2\n2,2.0,0.3,0.4\n", "x"),
    ], ids=["covariate", "arm", "padded"])
    @pytest.mark.parametrize("read", [load_csv, dio._load_rows], ids=["c-reader", "row-loop"])
    def test_header_naming_a_column_twice_rejected(self, tmp_path, text, name, read):
        # the second copy was read as the first, or ignored
        with pytest.raises(ParseError, match=f"^row 1, column {name!r}: .* names the column twice$") as excinfo:
            read(write_text(tmp_path / "twice.csv", text), CsvSchema())
        assert (excinfo.value.row, excinfo.value.column) == (1, name)

    def test_missing_column(self, tmp_path):
        with pytest.raises(MissingColumn):
            load_csv(write_text(tmp_path / "f.csv", "arm,y\n1,2\n"))

    def test_no_covariates_rejected(self, tmp_path):
        with pytest.raises(MissingColumn):
            load_csv(write_text(tmp_path / "g.csv", "arm,outcome\n1,2\n2,3\n"))

    def test_unparseable_cell_reports_line_and_column(self, tmp_path):
        text = "arm,outcome,x\n1,1.0,0.5\n2,oops,0.6\n"
        with pytest.raises(ParseError) as excinfo:
            load_csv(write_text(tmp_path / "h.csv", text))
        assert excinfo.value.row == 3
        assert excinfo.value.column == "outcome"
        assert "row 3" in str(excinfo.value)

    def test_nonfinite_cell_rejected(self, tmp_path):
        text = "arm,outcome,x\n1,1.0,0.5\n2,nan,0.6\n"
        with pytest.raises(NonFiniteValue):
            load_csv(write_text(tmp_path / "i.csv", text))

    def test_ragged_row_rejected(self, tmp_path):
        text = "arm,outcome,x\n1,1.0,0.5\n2,2.0\n"
        with pytest.raises(ParseError) as excinfo:
            load_csv(write_text(tmp_path / "j.csv", text))
        assert excinfo.value.row == 3
        # one cell too many, after a full row and as the first data row
        for text, row in (
            ("arm,outcome,x\n1,1.0,0.5\n2,2.0,0.6,7\n", 3),
            ("arm,outcome,x\n1,1.0,0.5,9\n2,2.0,0.6,7\n", 2),
        ):
            with pytest.raises(ParseError, match=f"row {row} has 4 cells, header has 3"):
                load_csv(write_text(tmp_path / "j.csv", text))

    def test_blank_lines_skipped(self, tmp_path):
        text = "arm,outcome,x\n1,1.0,0.5\n\n2,2.0,0.6\n\n"
        data = load_csv(write_text(tmp_path / "k.csv", text))
        assert data.n_units == 2

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write_text(tmp_path / "l.csv", ""))

    def test_first_bad_cell_in_column_order_wins(self, tmp_path):
        # the non-finite x comes before the unparseable z in the same row
        text = "arm,outcome,x,z\n1,1.0,0.5,1\n2,2.0,inf,zz\n"
        with pytest.raises(NonFiniteValue, match="row 3, column 'x': non-finite value 'inf'"):
            load_csv(write_text(tmp_path / "m.csv", text))
        text = "arm,outcome,x,z\n1,1.0,0.5,1\n2,2.0,zz,inf\n"
        with pytest.raises(ParseError) as excinfo:
            load_csv(write_text(tmp_path / "n.csv", text))
        assert (excinfo.value.row, excinfo.value.column) == (3, "x")

    def test_bad_cell_before_a_ragged_row_is_reported_first(self, tmp_path):
        text = "arm,outcome,x\n1,1.0,oops\n2,2.0\n"
        with pytest.raises(ParseError) as excinfo:
            load_csv(write_text(tmp_path / "o.csv", text))
        assert (excinfo.value.row, excinfo.value.column) == (2, "x")

    def test_ragged_row_before_a_bad_cell_is_reported_first(self, tmp_path):
        text = "arm,outcome,x\n1,1.0\n2,2.0,oops\n"
        with pytest.raises(ParseError, match="row 2 has 2 cells, header has 3") as excinfo:
            load_csv(write_text(tmp_path / "p.csv", text))
        assert (excinfo.value.row, excinfo.value.column) == (2, None)

    def test_overflowing_literal_is_non_finite(self, tmp_path):
        text = "arm,outcome,x\n1,1e500,0.5\n"
        with pytest.raises(NonFiniteValue, match="row 2, column 'outcome': non-finite value '1e500'"):
            load_csv(write_text(tmp_path / "q.csv", text))

    def test_cells_parse_as_python_float(self, tmp_path):
        text = "arm,outcome,x\n1, 2 ,1_0\n2,3,4\n"
        data = load_csv(write_text(tmp_path / "r.csv", text))
        assert_array_equal(data.outcomes, [float(" 2 "), 3.0])
        assert_array_equal(data.covariates[:, 0], [float("1_0"), 4.0])

    def test_empty_outcome_cell_names_the_outcome(self, tmp_path):
        text = "arm,outcome,x\n1,1.0,0.5\n2,,0.6\n"
        with pytest.raises(ParseError) as excinfo:
            load_csv(write_text(tmp_path / "s.csv", text))
        assert (excinfo.value.row, excinfo.value.column) == (3, "outcome")


def quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


padding = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def spelled(draw, cells, odd):
    """A cell drawn from ``cells``, maybe padded and quoted; ``odd`` also allows a space before the quote."""
    cell = draw(padding) + draw(cells) + draw(padding)
    return draw(st.sampled_from([cell, quoted(cell), *([" " + quoted(cell)] if odd else [])]))


numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: f"{v:.6g}"),
    st.integers(-10**6, 10**6).map(str),
)
odd_numbers = st.sampled_from([
    "1_0", "1_000.5", "-0.0", ".5", "5.", "1E-3", "+2", "nan", "-inf", "1e500", "", "oops",
    "0x10", "1 2", "\u0661\u0662",
])
labels = st.sampled_from(["ctrl", "treat", "a,b", 'say "hi"', "1", "2", "10", "2.0", "-3", ""])
notes = st.sampled_from(["id-7", "x y", "", "7", "n/a"])


@st.composite
def experiment_files(draw):
    """CSV text, with the schema to read it by, that mixes what the C reader and the row loop must agree on.

    About a quarter of the files may hold cells that only Python's ``float``
    reads or that nothing reads, and a third may hold lines of whitespace or
    empty cells, or a row a cell short or long; the rest are files the C
    reader parses on its own.
    """
    n_covariates = draw(st.integers(1, 3))
    n_notes = draw(st.integers(0, 2))
    names = [f"x{j}" for j in range(n_covariates)] + [f"note{j}" for j in range(n_notes)]
    header = draw(st.permutations(["arm", "outcome", *names]))
    if n_notes or draw(st.booleans()):
        chosen = draw(st.lists(st.sampled_from(names[:n_covariates]), min_size=1, unique=True))
        schema = CsvSchema(covariates=tuple(chosen))
    else:
        schema = CsvSchema()
    odd = draw(st.integers(0, 3)) == 0
    number = st.one_of(numbers, odd_numbers) if odd else numbers

    def row():
        cells = []
        for name in header:
            if name == "arm":
                cells.append(draw(spelled(labels, odd)))
            elif name.startswith("note"):
                cells.append(draw(spelled(notes, odd)))
            else:
                cells.append(draw(spelled(number, odd)))
        return ",".join(cells)

    quirks = ["spaces", "commas", "long", "short"] if draw(st.integers(0, 2)) == 0 else []
    body = [row(), row()]
    for kind in draw(st.lists(st.sampled_from(["row", "blank", *quirks]), max_size=6)):
        if kind == "row":
            body.append(row())
        elif kind == "blank":
            body.append("")
        elif kind == "spaces":
            body.append("   ")
        elif kind == "commas":
            body.append("," * (len(header) - 1))
        elif kind == "long":
            body.append(row() + ",1")
        else:
            body.append(row().rpartition(",")[0])
    lines = [",".join(header), *draw(st.permutations(body))]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(lines) + draw(st.sampled_from([ending, ""]))
    return text, schema


def read_outcome(read, path, schema):
    """Bit patterns of the arrays read, or the error type and message."""
    try:
        data = read(path, schema)
    except DomainError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    arrays = (data.covariates, data.arms, data.outcomes)
    return data.n_arms, *((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


class TestCReaderMatchesRowLoop:
    """``load_csv`` reads in NumPy's C reader; ``_load_rows`` is the row loop it falls back to."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(experiment_files())
    def test_same_arrays_or_same_error(self, tmp_path_factory, case):
        text, schema = case
        path = tmp_path_factory.mktemp("csv") / "e.csv"
        with open(path, "w", newline="") as handle:
            handle.write(text)
        assert read_outcome(load_csv, path, schema) == read_outcome(dio._load_rows, path, schema)

    def row_loop_calls(self, monkeypatch, tmp_path, text, schema=CsvSchema()):
        calls = []
        row_loop = dio._load_rows

        def counted(*args):
            calls.append(args)
            return row_loop(*args)

        monkeypatch.setattr(dio, "_load_rows", counted)
        load_csv(write_text(tmp_path / "t.csv", text), schema)
        return len(calls)

    def test_well_formed_file_never_reaches_the_row_loop(self, monkeypatch, tmp_path):
        text = 'x,arm,outcome,note\r\n0.5, treat ,"1.5",a b\r\n\r\n-1e3,ctrl,2,\r\n'
        assert self.row_loop_calls(monkeypatch, tmp_path, text, CsvSchema(covariates=("x",))) == 0

    @pytest.mark.parametrize("text", [
        "arm,outcome,x\n1,1_0,0.5\n2,2,0.6\n",
        "arm,outcome,x\n1,1,0.5\n   \n2,2,0.6\n",
        "arm,outcome,x\n1,1,0.5\n,,\n2,2,0.6\n",
    ])
    def test_spellings_only_float_reads_go_through_the_row_loop(self, monkeypatch, tmp_path, text):
        assert self.row_loop_calls(monkeypatch, tmp_path, text) == 1

    def test_header_only_file_warns_nothing(self, tmp_path):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="at least 2 units"):
                load_csv(write_text(tmp_path / "u.csv", "arm,outcome,x\n\n\n"))


def small_band():
    # dyadic values so the 17-digit float format prints them exactly
    locations = np.array([1.0, 2.0])
    point = np.array([0.25, 0.5])
    se = np.array([0.125, 0.0625])
    return EffectBand(
        kind="dte", arm_pair=(2, 1), locations=locations, point=point, se=se,
        ci_lower=point - se, ci_upper=point + se,
    )


class TestEmitReport:
    def test_band_layout(self, tmp_path):
        path = emit_report(small_band(), tmp_path / "band.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "location,point,se,ci_lo,ci_hi"
        assert lines[1] == "1,0.25,0.125,0.125,0.375"
        assert len(lines) == 3

    def test_identical_inputs_identical_bytes(self, tmp_path):
        a = emit_report(small_band(), tmp_path / "band_a.csv").read_bytes()
        b = emit_report(small_band(), tmp_path / "band_b.csv").read_bytes()
        assert a == b

    def test_unknown_report_type(self, tmp_path):
        with pytest.raises(TypeError):
            emit_report({"not": "a report"}, tmp_path / "x.csv")

    def test_study_rows_are_location_major(self, tmp_path):
        from dtekit.simulation import DgpConfig, run_study

        report = run_study(
            DgpConfig(n_units=150, seed=3),
            methods={"empirical": None},
            n_reps=2,
            n_oracle=20_000,
            locations=[60.0, 100.0],
        )
        path = emit_report(report, tmp_path / "study.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "location,method,bias,mse,reduction_pct"
        assert [line.split(",")[0] for line in lines[1:]] == ["60", "100"]


class TestPointsCsv:
    def test_points_columns_ordered(self, tmp_path):
        path = write_points_csv(
            tmp_path / "points.csv",
            [1.0, 2.0],
            {"empirical": [0.25, 0.5], "linear": [0.75, 1.5]},
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "location,empirical,linear"
        assert lines[1] == "1,0.25,0.75"

    def test_floats_keep_full_precision(self, tmp_path):
        value = 0.123456789012345678
        path = write_points_csv(tmp_path / "p.csv", [1.0], {"v": [value]})
        read_back = float(path.read_text().splitlines()[1].split(",")[1])
        assert read_back == value


class TestManifest:
    def test_roundtrip(self, tmp_path):
        config = {"mode": "simulate", "seed": 3, "methods": ["empirical"]}
        path = write_manifest(tmp_path / "m.json", config, ["b.csv", "a.csv"], {"fit": 1.0})
        assert load_manifest(path) == config
        payload = json.loads(path.read_text())
        assert payload["outputs"] == ["a.csv", "b.csv"]
        assert payload["timings_seconds"] == {"fit": 1.0}

    def test_value_json_cannot_hold_leaves_no_file(self, tmp_path):
        path = tmp_path / "m.json"
        with pytest.raises(TypeError):
            write_manifest(path, {"mode": "simulate", "epochs": np.int64(2)}, ["study.csv"])
        assert not path.exists()

    def test_text_is_the_indented_sorted_dump(self, tmp_path):
        config = {"mode": "simulate", "seed": 3, "alpha": 0.05, "methods": ["empirical"]}
        path = write_manifest(tmp_path / "m.json", config, ["b.csv"], {"fit": 1.5})
        payload = {"config": config, "outputs": ["b.csv"], "timings_seconds": {"fit": 1.5}}
        assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("{\"unrelated\": true}")
        with pytest.raises(ParseError):
            load_manifest(path)
