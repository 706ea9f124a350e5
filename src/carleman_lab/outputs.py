"""Deterministic artifact writers.

Every emitted file carries the configuration hash and the package
version.  Nothing time- or host-dependent goes into the files, so a
fixed config and seed reproduce them byte for byte.  CSV uses ``#
key=value`` comment lines before the column header; JSON nests the same
mapping under ``"_meta"``; SVG carries it in a leading XML comment.
Each file is written to a temporary file beside it and moved into place,
so a failed write leaves the previous file as it was.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from . import __version__


def make_meta(cfg_hash: str, subcommand: str, **extra) -> dict:
    meta = {"config_hash": cfg_hash, "version": __version__,
            "subcommand": subcommand}
    for key in sorted(extra):
        meta[key] = extra[key]
    return meta


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_atomic(path, write) -> Path:
    """Call write(f) on a new binary file beside path, then move that file
    onto path; on any failure the file is removed and path is untouched."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _write_text(path, text: str) -> Path:
    data = text.encode()
    return _write_atomic(path, lambda f: f.write(data))


def write_csv(path, meta: dict, columns, rows) -> Path:
    lines = [f"# {key}={_fmt(val)}" for key, val in meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return _write_text(path, "\n".join(lines) + "\n")


def jsonable(value):
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    return value


def write_json(path, meta: dict, payload: dict) -> Path:
    doc = dict(jsonable(payload))
    doc["_meta"] = jsonable(meta)
    return _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def write_svg(path, meta: dict, svg_text: str) -> Path:
    comment = " ".join(f"{k}={_fmt(v)}" for k, v in meta.items())
    return _write_text(
        path, svg_text.replace("<svg", f"<!-- {comment} -->\n<svg", 1)
    )

