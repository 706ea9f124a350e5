"""Artifact writers: deterministic bytes, metadata, and SVG shape."""

import errno
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from carleman_lab import outputs, svgplot


META = {"config_hash": "abc123", "version": "0.1.0", "subcommand": "demo"}


class TestMeta:
    def test_make_meta_orders_extras(self):
        meta = outputs.make_meta("hash", "solve", zeta=1, alpha=2)
        keys = list(meta)
        assert keys[:3] == ["config_hash", "version", "subcommand"]
        assert keys[3:] == ["alpha", "zeta"]

    def test_jsonable_handles_special_floats(self):
        doc = outputs.jsonable({
            "a": np.float64(1.5), "b": np.nan, "c": np.inf, "d": -np.inf,
            "e": np.bool_(True), "f": np.arange(3), "g": (1, 2),
        })
        assert doc == {"a": 1.5, "b": "nan", "c": "inf", "d": "-inf",
                       "e": True, "f": [0, 1, 2], "g": [1, 2]}


class TestCsv:
    def test_layout_and_bytes_stable(self, tmp_path):
        rows = [(0.5, 1, True), (1.5, 2, False)]
        path_a = outputs.write_csv(tmp_path / "a.csv", META, ("t", "n", "ok"), rows)
        path_b = outputs.write_csv(tmp_path / "b.csv", META, ("t", "n", "ok"), rows)
        text = path_a.read_text()
        lines = text.splitlines()
        assert lines[0] == "# config_hash=abc123"
        assert lines[3] == "t,n,ok"
        assert lines[4] == "0.5,1,true"
        assert lines[5] == "1.5,2,false"
        assert text.endswith("\n")
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_float_repr_round_trips(self, tmp_path):
        value = 0.1 + 0.2
        path = outputs.write_csv(tmp_path / "c.csv", META, ("v",), [(value,)])
        cell = path.read_text().splitlines()[-1]
        assert float(cell) == value


class TestJson:
    def test_meta_nested_and_sorted(self, tmp_path):
        path = outputs.write_json(tmp_path / "s.json", META,
                                  {"zeta": 1.0, "alpha": np.nan})
        doc = json.loads(path.read_text())
        assert doc["_meta"]["config_hash"] == "abc123"
        assert doc["alpha"] == "nan"
        keys = list(json.loads(path.read_text()))
        assert keys == sorted(keys)

    def test_bytes_stable(self, tmp_path):
        payload = {"x": 1.25, "flag": True}
        a = outputs.write_json(tmp_path / "a.json", META, payload)
        b = outputs.write_json(tmp_path / "b.json", META, payload)
        assert a.read_bytes() == b.read_bytes()


class TestSvg:
    def test_meta_comment_and_parseable(self, tmp_path):
        body = svgplot.scatter([1.0, 10.0], [2.0, 20.0], xlabel="x",
                               ylabel="y", title="demo",
                               fit_slope=1.0, fit_intercept=0.0)
        path = outputs.write_svg(tmp_path / "p.svg", META, body)
        text = path.read_text()
        assert text.startswith("<!-- config_hash=abc123")
        svg_start = text.index("<svg")
        ET.fromstring(text[svg_start:])
        assert "slope 1.000" in text

    def test_lines_multiseries_parseable(self):
        body = svgplot.lines(
            [("one", [1, 2, 4], [3, 1, 2]), ("two", [1, 2, 4], [5, 4, 6])],
            xlabel="s", ylabel="ratio", title="sweep",
        )
        ET.fromstring(body)
        assert "one" in body and "two" in body

    def test_scatter_skips_nonpositive_log_values(self):
        body = svgplot.scatter([0.0, 1.0, 2.0], [1.0, 2.0, 3.0],
                               xlabel="x", ylabel="y", title="filtered")
        ET.fromstring(body)
        assert body.count("<circle") == 2

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_points_are_skipped(self, bad):
        # the plot of the finite points, byte for byte; the bad point's
        # other coordinate lies within its axis's range, which each axis
        # takes over its own shown values
        xs, ys = [1.0, 10.0, 100.0], [2.0, 3.0, 5.0]
        for i in range(3):
            for axis in (0, 1):
                data = [list(xs), list(ys)]
                data[axis].insert(i, bad)
                data[1 - axis].insert(i, data[1 - axis][1])
                assert svgplot.scatter(*data) == svgplot.scatter(xs, ys)
                assert svgplot.lines([("a", *data)]) \
                    == svgplot.lines([("a", xs, ys)])


class _DiskFull:
    """A file whose writes store half their bytes, then fail."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(bytes(data)[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


class TestAtomicWrites:
    WRITERS = {
        "csv": lambda path: outputs.write_csv(path, META, ("v",), [(1.0,)]),
        "json": lambda path: outputs.write_json(path, META, {"v": 1.0}),
        "svg": lambda path: outputs.write_svg(
            path, META, svgplot.lines([("a", [1.0, 2.0], [1.0, 2.0])])),
    }

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch,
                                             kind):
        path = tmp_path / f"artifact.{kind}"
        path.write_bytes(b"previous contents\n")
        monkeypatch.setattr(outputs, "open",
                            lambda *a, **k: _DiskFull(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError):
            self.WRITERS[kind](path)
        assert path.read_bytes() == b"previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_write_replaces_the_old_file(self, tmp_path, kind):
        path = tmp_path / f"artifact.{kind}"
        path.write_bytes(b"previous contents\n")
        assert self.WRITERS[kind](path) == path
        assert path.read_bytes() != b"previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
