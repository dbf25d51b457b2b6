import csv
import io
import os

import numpy as np
import pytest

from comag.geometry import FieldVector, default_basis
from comag.measurement import GAMMA_NV, GAMMA_RB, LiaParams, OdmrParams, synth_lia, synth_odmr
from comag.measurement import DEFAULT_BIAS
from comag.reports import _cell, atomic_write_text, write_csv, write_summary


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


class TestAtomicWrites:
    def test_write_and_content(self, tmp_path):
        p = tmp_path / "sub" / "file.txt"
        atomic_write_text(str(p), "hello\n")
        assert p.read_text() == "hello\n"

    def test_overwrites(self, tmp_path):
        p = tmp_path / "f.txt"
        atomic_write_text(str(p), "one\n")
        atomic_write_text(str(p), "two\n")
        assert p.read_text() == "two\n"

    def test_no_leftover_temp_files(self, tmp_path):
        p = tmp_path / "f.txt"
        atomic_write_text(str(p), "data\n")
        assert sorted(os.listdir(tmp_path)) == ["f.txt"]

    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        p = tmp_path / "f.txt"
        atomic_write_text(str(p), "old\n")

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            atomic_write_text(str(p), "new\n")
        assert p.read_bytes() == b"old\n"
        assert sorted(os.listdir(tmp_path)) == ["f.txt"]

    def test_unencodable_text_leaves_the_directory_as_it_was(self, tmp_path):
        (tmp_path / "f.txt").write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(str(tmp_path / "f.txt"), "bad \udc80\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(str(tmp_path / "g.txt"), "\udc80")
        assert sorted(os.listdir(tmp_path)) == ["f.txt"]
        assert (tmp_path / "f.txt").read_text() == "old\n"


class TestCsvAndSummary:
    def test_csv_format(self, tmp_path):
        p = tmp_path / "data.csv"
        write_csv(str(p), {"a": [1.5, float("nan")], "b": [True, False]})
        lines = p.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1.5,1"
        assert lines[2] == "nan,0"

    def test_summary_format(self, tmp_path):
        p = tmp_path / "summary.txt"
        write_summary(str(p), {"n": 3, "sigma": 0.25, "label": "x"})
        assert p.read_text() == "n=3\nsigma=0.25\nlabel=x\n"


class TestTraceSerialization:
    def test_spectrum_columns(self, tmp_path):
        spec = synth_odmr(DEFAULT_BIAS, default_basis(), OdmrParams(), GAMMA_NV, 0)
        p = tmp_path / "spectrum.csv"
        write_csv(str(p), {"freq_mhz": spec.freqs, "pl": spec.pl})
        header, rows = read_csv(p)
        assert header == ["freq_mhz", "pl"]
        assert len(rows) == len(spec.freqs)
        assert rows[0] == [float(spec.freqs[0]), float(spec.pl[0])]

    def test_lia_columns(self, tmp_path):
        sig = synth_lia(1.0, GAMMA_RB, LiaParams(), 0)
        p = tmp_path / "lia.csv"
        write_csv(str(p), {"freq_khz": sig.mod_freqs, "x_v": sig.x, "y_v": sig.y})
        header, rows = read_csv(p)
        assert header == ["freq_khz", "x_v", "y_v"]
        assert len(rows) == len(sig.mod_freqs)
        assert rows[100] == [float(sig.mod_freqs[100]), float(sig.x[100]), float(sig.y[100])]

    def test_round_trip_through_csv(self, tmp_path):
        sig = synth_lia(1.0, GAMMA_RB, LiaParams(), 5)
        p = tmp_path / "lia.csv"
        write_csv(str(p), {"freq_khz": sig.mod_freqs, "x_v": sig.x, "y_v": sig.y})
        lines = p.read_text().splitlines()
        assert lines[0] == "freq_khz,x_v,y_v"
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == pytest.approx(300.0)
        assert first[1] == pytest.approx(float(sig.x[0]))

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "bad.csv"), {"a": [1.0, 2.0], "b": [1.0]})
        assert not (tmp_path / "bad.csv").exists()

    def test_arrays_flatten_in_c_order(self, tmp_path):
        p = tmp_path / "grid.csv"
        write_csv(str(p), {"v": np.array([[1.0, 2.0], [3.0, 4.0]]), "k": np.arange(4)})
        assert p.read_text() == "v,k\n1.0,0\n2.0,1\n3.0,2\n4.0,3\n"


def per_cell_csv(columns) -> str:
    """The CSV text of the per-cell writer that write_csv replaced: every
    value through ``_cell`` and csv.writer, one row at a time."""
    values = [np.ravel(v).tolist() for v in columns.values()]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in zip(*values, strict=True):
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


EDGE_FLOATS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, 1e-5, 0.1, 1.5]


class TestCsvBytes:
    """write_csv formats whole columns; its bytes are the per-cell writer's."""

    @pytest.mark.parametrize("n", [1, 12, 31, 32, 50, 127, 128, 129, 200])
    def test_edge_floats_repeated(self, tmp_path, n):
        rng = np.random.default_rng(n)
        floats = np.array(EDGE_FLOATS)[rng.integers(0, len(EDGE_FLOATS), n)]
        columns = {
            "f64": floats,
            "f32": floats.astype(np.float32),
            "flag": floats > 0.5,
            "count": np.arange(n) - n // 2,
            "grid": np.tile(np.linspace(-1.5, 1.5, 41), 5)[:n],
            "distinct": rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n),
        }
        assert len(np.unique(columns["distinct"])) == n
        p = tmp_path / "edge.csv"
        write_csv(str(p), columns)
        assert p.read_text() == per_cell_csv(columns)

    def test_zero_and_negative_zero_stay_apart(self, tmp_path):
        p = tmp_path / "zeros.csv"
        for pairs in (20, 64, 100):  # below, at and above the dedupe's 128 values
            columns = {"z": np.array([0.0, -0.0] * pairs)}
            write_csv(str(p), columns)
            assert p.read_text() == per_cell_csv(columns) == "z\n" + "0.0\n-0.0\n" * pairs

    def test_scalar_columns(self, tmp_path):
        columns = {
            "py_float": 0.1 + 0.2,
            "np_float": np.float64(-0.0),
            "f32": np.float32(1e-5),
            "nan": float("nan"),
            "flag": True,
            "np_flag": np.bool_(False),
            "count": 7,
            "big": np.int64(2**62),
        }
        p = tmp_path / "scalars.csv"
        write_csv(str(p), columns)
        assert p.read_text() == per_cell_csv(columns)

    def test_zero_rows(self, tmp_path):
        columns = {"a": np.array([]), "b": np.array([], dtype=bool), "c": np.zeros((0, 3))}
        p = tmp_path / "empty.csv"
        write_csv(str(p), columns)
        assert p.read_text() == per_cell_csv(columns) == "a,b,c\n"

    def test_random_columns_with_repeats(self, tmp_path):
        rng = np.random.default_rng(7)
        columns = {
            "coarse": np.round(rng.normal(size=(41, 41)), 2),
            "fine": rng.normal(size=1681) * 10.0 ** rng.integers(-300, 300, 1681),
            "f32": rng.normal(size=1681).astype(np.float32),
            "few": rng.choice([0.0, -0.0, 1.0 / 3.0, np.nan], 1681),
        }
        p = tmp_path / "random.csv"
        write_csv(str(p), columns)
        assert p.read_text() == per_cell_csv(columns)

    @pytest.mark.parametrize(
        "bad", [["a,b", "plain"], [None, 1.0], [1j, 2.0]], ids=["text", "object", "complex"]
    )
    def test_other_columns_are_rejected(self, tmp_path, bad):
        p = tmp_path / "other.csv"
        with pytest.raises(TypeError, match="numbers or flags"):
            write_csv(str(p), {"v": [1.0, -0.0], "bad": bad})
        assert not p.exists() and os.listdir(tmp_path) == []
