"""JSON file formats for distributions, phases, states, and protocol trees.

Every loader raises UsageError on malformed input so the CLI can map the
whole family to exit code 2; integer fields take JSON integers only and
number fields JSON numbers that convert to finite floats only, never
booleans or strings.  ``json_text`` (the CLI's envelopes) and ``dump_json``
(input files) share one writer, which converts numpy values and rounds
each float as it writes: ``json_text`` to 12 significant digits, which
keeps golden files stable across platforms without hiding real numeric
drift, ``dump_json`` not at all (Python's shortest repr), so a pmf reads
back bitwise.  The writer dispatches on exact built-in types first, and
formats each distinct value of a float64 array once.  ``write_file`` is
the one place the package writes a file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import stat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import config
from .dequantize import History, InstrumentTree
from .distributions import Dist3
from .embeddings import PhaseAssignment
from .errors import SecrecyForgeError, UsageError
from .qlinalg import QState

__all__ = [
    "json_text",
    "load_dist",
    "dump_dist",
    "load_phases",
    "dump_phases",
    "load_state",
    "dump_state",
    "load_tree",
    "dump_tree",
    "sha256_file",
]

SIG_DIGITS = 12
# writers of the non-float JSON scalars, by exact type
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii, int: int.__repr__, type(None): lambda v: "null",
    bool: lambda v: "true" if v else "false",
}


def _round(x: float) -> float:
    return float(f"{x:.{SIG_DIGITS}g}")


def _write(obj: Any, num: Callable[[float], float], nl: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` of obj as plain JSON
    types, with each finite float passed through ``num`` as it is written.

    Keys become strings, tuples and arrays lists, numpy scalars Python
    ones; non-finite floats become null, since strict JSON has no NaN or
    infinity.  ``nl`` is a newline plus the indent of the enclosing level.
    It dispatches on the exact type: a dict with str keys, then a list or
    tuple, each written in one ``_items`` loop, then a float64 array of one
    or more dimensions, which formats each distinct bit pattern once (a
    state or pmf repeats few values, mostly 0.0; bits keep 0.0 apart from
    -0.0).  The ``isinstance`` chain takes numpy scalars, other keys,
    other arrays and subclasses.
    """
    kind = type(obj)
    inner = nl + "  "
    if kind is dict and all(type(k) is str for k in obj):
        keys = sorted(obj)
        items = zip(map(encode_basestring_ascii, keys), _items([obj[k] for k in keys], num, inner))
        body = ("," + inner).join(f"{key}: {text}" for key, text in items)
        return "{" + inner + body + nl + "}" if body else "{}"
    if kind is list or kind is tuple:
        return _rows(_items(obj, num, inner), 1, nl)
    if kind is np.ndarray and obj.ndim and obj.dtype == np.float64:
        bits = obj.view(np.int64)
        distinct = list(set(bits.ravel().tolist()))
        values = np.array(distinct, dtype=np.int64).view(np.float64).tolist()
        return _rows(bits.tolist(), obj.ndim, nl, dict(zip(distinct, _items(values, num, nl))))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (float, np.floating)):
        return _items([float(obj)], num, nl)[0]
    if isinstance(obj, dict):
        return _write({str(k): v for k, v in obj.items()}, num, nl)
    if isinstance(obj, (list, tuple, np.ndarray)):
        # a 0-d array's tolist() is a scalar, which list() refuses
        return _write(list(obj.tolist() if isinstance(obj, np.ndarray) else obj), num, nl)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _items(vals: Any, num: Callable[[float], float], nl: str) -> list[str]:
    """The text of each of vals; a value of no built-in scalar type is ``_write``'s."""
    out = []
    for v in vals:
        kind = type(v)
        if kind is float:
            # exact zeros, most of a sparse state, pass through: num keeps them
            out.append(float.__repr__(num(v) if v else v) if math.isfinite(v) else "null")
        else:
            out.append(_SCALARS[kind](v) if kind in _SCALARS else _write(v, num, nl))
    return out


def _rows(texts: list, ndim: int, nl: str, text: dict | None = None) -> str:
    """A JSON list of ``ndim`` levels of nested lists of texts, or of ``text``'s keys."""
    inner = nl + "  "
    if ndim > 1:
        texts = [_rows(row, ndim - 1, inner, text) for row in texts]
    elif text is not None:
        texts = map(text.__getitem__, texts)
    body = ("," + inner).join(texts)  # no element's text is empty
    return "[" + inner + body + nl + "]" if body else "[]"


def json_text(obj: Any) -> str:
    """Envelope text: floats rounded to 12 significant digits."""
    return _write(obj, _round) + "\n"


def _load_json(path: str | Path) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})") from exc


def write_file(path: str | Path, text: str) -> None:
    """Write text to path as UTF-8, over an existing file in place.

    The file is opened without ``O_TRUNC``, every byte is written, and a
    regular file is then cut at the end of the new text; ``/dev/stdout``,
    a pipe or ``/dev/null`` is not cut.  The inode stays, and with it links,
    mode and owner, as with ``open(path, "w")``.  Cutting a file to length
    0 and closing it makes ext4 (``auto_da_alloc``, on by default) flush
    it to disk, a wait on the disk for every file; cutting it at the new
    length does not.  Nothing calls ``fsync``.  An OSError becomes a
    UsageError naming the path.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from exc


def dump_json(obj: Any, path: str | Path) -> None:
    """Write obj with every float digit kept, so loaders read back the same
    values; through ``write_file``, so an existing file is rewritten in place."""
    write_file(path, _write(obj, float) + "\n")


def sha256_file(path: str | Path) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from exc


def _require(cond: bool, path: str | Path, msg: str) -> None:
    if not cond:
        raise UsageError(f"{path}: {msg}")


def _cap_states(states: int, path: str | Path, what: str) -> None:
    """Refuse declared dims that alone would drive an allocation past the cap."""
    cap = config.load_caps().product_states
    _require(states <= cap, path, f"{what} give {states} joint states, cap is {cap}")


def _number(val: Any) -> bool:
    """True for a JSON number that converts to a finite float; booleans are not numbers."""
    try:
        return type(val) in (int, float) and math.isfinite(val)
    except OverflowError:  # an integer too large for a float
        return False


def _only_numbers(val: Any) -> bool:
    """True for a ``_number`` or nested lists of them."""
    if not isinstance(val, list):
        return _number(val)
    if set(map(type, val)) <= {int, float}:  # a flat row: no call per element
        try:
            return all(map(math.isfinite, val))
        except OverflowError:  # an integer too large for a float
            return False
    return all(_only_numbers(v) for v in val)


def _int_list(doc: Any, path: str | Path, key: str, length: int | None = None) -> list[int]:
    """doc[key] as positive integers: exactly ``length`` of them, or at least one."""
    val = doc.get(key) if isinstance(doc, dict) else None
    ok = (
        isinstance(val, list)
        and (len(val) == length if length else len(val) >= 1)
        and all(type(v) is int and v >= 1 for v in val)
    )
    size = f"{length} " if length else ""
    _require(ok, path, f"'{key}' must be a list of {size}positive integers")
    return list(val)


# ---------------------------------------------------------------------------
# distributions and phases


def load_dist(path: str | Path) -> Dist3:
    """Dense {"dims", "p"} or sparse {"dims", "entries"}; unlisted entries zero."""
    doc = _load_json(path)
    _require(isinstance(doc, dict), path, "top level must be an object")
    dims = _int_list(doc, path, "dims", 3)
    if "p" in doc:
        _require(_only_numbers(doc["p"]), path, "'p' must hold finite numbers only")
        try:
            p = np.asarray(doc["p"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{path}: 'p' is not a numeric array ({exc})") from exc
        _require(
            p.shape == tuple(dims), path, f"'p' has shape {p.shape}, dims say {dims}"
        )
    elif "entries" in doc:
        entries = doc["entries"]
        _require(isinstance(entries, list), path, "'entries' must be a list")
        _cap_states(math.prod(dims), path, f"dims {dims}")
        p = np.zeros(dims)
        seen: set[tuple[int, int, int]] = set()
        for e in entries:
            try:
                key = (e["x"], e["y"], e["z"])
                val = e["p"]
            except (KeyError, TypeError) as exc:
                raise UsageError(f"{path}: bad entry {e!r}") from exc
            ok = all(type(k) is int and 0 <= k < n for k, n in zip(key, dims))
            _require(ok, path, f"entry {e!r}: x, y, z must be integers inside {dims}")
            _require(_number(val), path, f"entry {e!r}: p must be a finite number")
            _require(key not in seen, path, f"duplicate entry at {key}")
            seen.add(key)
            p[key] = val
    else:
        raise UsageError(f"{path}: need either 'p' or 'entries'")
    try:
        return Dist3(p)
    except SecrecyForgeError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def dump_dist(d: Dist3) -> dict:
    return {"dims": list(d.dims), "p": d.p}


def load_phases(path: str | Path, dims: tuple[int, int, int]) -> PhaseAssignment:
    """Sparse {"entries": [{"x","y","z","phi"}]}; dims come from the distribution."""
    doc = _load_json(path)
    _require(isinstance(doc, dict), path, "top level must be an object")
    if "dims" in doc:
        file_dims = _int_list(doc, path, "dims", 3)
        _require(
            tuple(file_dims) == tuple(dims),
            path,
            f"phase dims {file_dims} do not match distribution dims {list(dims)}",
        )
    entries = doc.get("entries")
    _require(isinstance(entries, list), path, "'entries' must be a list")
    try:
        return PhaseAssignment.from_entries(tuple(dims), entries)
    except SecrecyForgeError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def dump_phases(phases: PhaseAssignment) -> dict:
    return phases.to_json()


# ---------------------------------------------------------------------------
# states


def _matrix(doc: Any, path: str | Path, where: str) -> np.ndarray:
    _require(isinstance(doc, dict) and "re" in doc, path, f"{where}: need 're'")
    _require(_only_numbers([doc["re"], doc.get("im", [])]), path, f"{where}: numbers only")
    try:
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc.get("im", np.zeros_like(re)), dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {where}: not numeric ({exc})") from exc
    _require(re.ndim == 2, path, f"{where}: 're' must be a matrix")
    _require(im.shape == re.shape, path, f"{where}: 'im' shape differs from 're'")
    return re + 1j * im


def load_state(path: str | Path) -> QState:
    """Density matrix as {"dims", "re", "im"}; "im" may be omitted."""
    doc = _load_json(path)
    _require(isinstance(doc, dict), path, "top level must be an object")
    dims = _int_list(doc, path, "dims")
    rho = _matrix(doc, path, "state")
    dim = math.prod(dims)
    _require(
        rho.shape == (dim, dim),
        path,
        f"state is {rho.shape[0]}x{rho.shape[1]}, dims {dims} require {dim}x{dim}",
    )
    try:
        return QState(rho, tuple(dims))
    except SecrecyForgeError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def dump_state(state: QState) -> dict:
    return {"dims": list(state.dims), **_dump_matrix(state.rho)}


# ---------------------------------------------------------------------------
# instrument trees


def _parse_history(key: str, path: str | Path) -> History:
    try:
        h = tuple(int(part) for part in key.split(",")) if key else ()
    except ValueError:
        h = None
    _require(h is not None and _history_key(h) == key, path, f"bad history key {key!r}")
    return h


def _history_key(h: History) -> str:
    return ",".join(str(m) for m in h)


def _kraus_list(doc: Any, path: str | Path, where: str) -> tuple[np.ndarray, ...]:
    _require(isinstance(doc, list) and doc, path, f"{where}: need a list of matrices")
    return tuple(_matrix(m, path, where) for m in doc)


def load_tree(path: str | Path) -> InstrumentTree:
    """Nodes keyed by comma-joined history strings (root ""), Kraus as re/im."""
    doc = _load_json(path)
    _require(isinstance(doc, dict), path, "top level must be an object")
    for key in ("rounds", "dim_a", "dim_b"):
        _require(type(doc.get(key)) is int, path, f"'{key}' must be an integer")
    _cap_states(doc["dim_a"] * doc["dim_b"], path, "dim_a * dim_b")
    for key in ("nodes", "leaf_a", "leaf_b"):
        _require(isinstance(doc.get(key), dict), path, f"'{key}' must be an object")
    instruments: dict[History, tuple[tuple[np.ndarray, ...], ...]] = {}
    for key, node in doc["nodes"].items():
        h = _parse_history(key, path)
        where = f"nodes[{key!r}]"
        _require(isinstance(node, list) and node, path, f"{where}: need outcomes")
        instruments[h] = tuple(
            _kraus_list(outcome, path, f"{where}[{i}]")
            for i, outcome in enumerate(node)
        )
    leaves: dict[str, dict[History, tuple[np.ndarray, ...]]] = {}
    for key in ("leaf_a", "leaf_b"):
        leaves[key] = {
            _parse_history(k, path): _kraus_list(v, path, f"{key}[{k!r}]")
            for k, v in doc[key].items()
        }
    try:
        return InstrumentTree(
            rounds=doc["rounds"],
            dim_a=doc["dim_a"],
            dim_b=doc["dim_b"],
            instruments=instruments,
            leaf_a=leaves["leaf_a"],
            leaf_b=leaves["leaf_b"],
        )
    except SecrecyForgeError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _dump_matrix(op: np.ndarray) -> dict:
    return {"re": np.real(op), "im": np.imag(op)}


def dump_tree(tree: InstrumentTree) -> dict:
    return {
        "rounds": tree.rounds,
        "dim_a": tree.dim_a,
        "dim_b": tree.dim_b,
        "nodes": {
            _history_key(h): [[_dump_matrix(k) for k in outcome] for outcome in node]
            for h, node in tree.instruments.items()
        },
        **{
            key: {_history_key(h): [_dump_matrix(k) for k in ops] for h, ops in leaves.items()}
            for key, leaves in (("leaf_a", tree.leaf_a), ("leaf_b", tree.leaf_b))
        },
    }
