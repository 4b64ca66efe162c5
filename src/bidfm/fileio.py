"""File formats: dense matrix text, edge lists, label files, JSON configs.

All writers go through a temp-file-then-rename step, so readers never see a
half-written file.  Matrix values are written with ``repr``, which
round-trips IEEE doubles exactly.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import secrets
import sys
import typing
import warnings

import numpy as np

from .errors import ParseError, ValidationError
from .linalg import _count, as_matrix
from .model import (_INT_MAX, P1, P2, BiDCDFMParams, BiDFMParams, Membership,
                    sample_memberships, sample_theta)
from .sampling import DistributionSpec
from .theory import MODELS, TheoryInputs

MATRIX_HEADER = "# bidfm dense matrix v1"
LABELS_HEADER = "# bidfm labels v1"
EDGES_HEADER = "# bidfm edge list v1"


def atomic_write_text(path, text: str):
    """Write ``text`` to ``path`` via a temporary file in the same directory.

    The temporary file is created with mode 0666 less the umask, the mode
    ``open(path, "w")`` gives a new file, and the rename keeps it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".bidfm-{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _names_its_file(reader):
    """``reader(path, ...)``, whose ``ParseError`` names ``path``."""
    @functools.wraps(reader)
    def read(path, *args, **kwargs):
        try:
            return reader(path, *args, **kwargs)
        except ParseError as exc:
            raise ParseError(exc.reason, exc.line, path) from None
    return read


def _records(path, header: bool = False):
    """Yield ``(line number, stripped text)`` for every line of the UTF-8
    file ``path`` that is neither blank nor a ``#`` comment, skipping line 1
    when ``header``."""
    with open(path, encoding="utf-8") as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                text = line.strip()
                if text and not text.startswith("#") and not (header and lineno == 1):
                    yield lineno, text
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from None


def _write_records(path, header: str, records):
    """Write ``header``, then one record per line, atomically."""
    atomic_write_text(path, "\n".join([header, *records]) + "\n")


def _parse(convert, value, lineno, message=None):
    """``convert(value)``; a value it rejects is a ``ParseError`` at ``lineno``."""
    try:
        return convert(value)
    except ValueError as exc:
        raise ParseError(message or str(exc), line=lineno) from None


def write_matrix(path, m):
    a = as_matrix(m)
    _write_records(path, f"{MATRIX_HEADER}\n{a.shape[0]} {a.shape[1]}",
                   (" ".join(map(repr, row)) for row in a.tolist()))


@_names_its_file
def read_matrix(path) -> np.ndarray:
    """Parse the dense text format; raises ``ParseError`` with the path and
    the offending line number on truncation, shape mismatch, or non-finite
    values."""
    body = list(_records(path))
    if not body:
        raise ParseError("empty matrix file")
    lineno, dims = body[0]
    parts = dims.split()
    if len(parts) != 2:
        raise ParseError(f"expected 'rows cols', got {dims!r}", line=lineno)
    rows, cols = (_parse(int, v, lineno, f"non-integer dimensions {dims!r}")
                  for v in parts)
    if rows < 1 or cols < 1:
        raise ParseError(f"dimensions must be positive, got {dims!r}", line=lineno)
    if len(body) - 1 != rows:
        raise ParseError(f"expected {rows} data rows, found {len(body) - 1}",
                         line=lineno)
    for r, (lineno, line) in enumerate(body[1:]):
        values = line.split()
        if len(values) != cols:
            raise ParseError(f"expected {cols} values, found {len(values)}",
                             line=lineno)
        if r == 0:  # allocate once a row shows the file holds ``cols`` values
            out = np.empty((rows, cols))
        out[r] = _parse(lambda vs: [float(v) for v in vs], values, lineno)
        if not np.all(np.isfinite(out[r])):
            raise ParseError("non-finite value", line=lineno)
    return out


@_names_its_file
def read_edge_list(path, delimiter: str | None = None, header: bool = False,
                   directed_as_bipartite: bool = True):
    """Build a dense adjacency matrix from a (source, target, weight) file.

    With ``directed_as_bipartite`` (the default) all node ids share one
    universe in first-appearance order, producing a square matrix whose rows
    and columns index the same nodes; otherwise sources and targets get
    independent universes.  Duplicate (source, target) pairs are summed with
    a warning; a pair whose weights sum beyond the float range is a
    ``ParseError`` that names it.  Returns ``(matrix, row_ids, col_ids)``.
    """
    sources, targets, weights = [], [], []
    for lineno, text in _records(path, header):
        parts = text.split(delimiter) if delimiter else text.split()
        if len(parts) < 3:
            raise ParseError(f"expected 'source target weight', got {text!r}",
                             line=lineno)
        weight = _parse(float, parts[2], lineno, f"bad weight {parts[2]!r}")
        if not math.isfinite(weight):
            raise ParseError(f"non-finite weight {parts[2]!r}", line=lineno)
        sources.append(parts[0])
        targets.append(parts[1])
        weights.append(weight)
    if not weights:
        raise ParseError("edge list contains no records")

    def first_seen(ids):  # index of each id, in first-appearance order
        return {node: i for i, node in enumerate(dict.fromkeys(ids))}

    if directed_as_bipartite:
        row_index = col_index = first_seen(n for p in zip(sources, targets) for n in p)
    else:
        row_index, col_index = first_seen(sources), first_seen(targets)
    rows = np.array([row_index[s] for s in sources])
    cols = np.array([col_index[t] for t in targets])
    matrix = np.zeros((len(row_index), len(col_index)))
    with np.errstate(over="ignore"):
        np.add.at(matrix, (rows, cols), weights)  # in record order, as read
    overflowed = ~np.isfinite(matrix[rows, cols])  # only a summed pair can overflow
    if overflowed.any():
        i = int(overflowed.argmax())
        raise ParseError(f"the weights of ({sources[i]!r}, {targets[i]!r}) "
                         "sum beyond the float range")
    duplicates = len(weights) - len(np.unique(rows * len(col_index) + cols))
    if duplicates:
        warnings.warn(f"{duplicates} duplicate (source, target) pairs were summed",
                      stacklevel=2)
    return matrix, list(row_index), list(col_index)


def write_edge_list(path, m, row_ids=None, col_ids=None):
    """Write nonzero entries, row by row, as tab-separated ``source target
    weight`` records.

    Default ids are the canonical 1-based node numbers.  Zero entries are not
    written, so a matrix round-trips through :func:`read_edge_list` exactly
    when every node appears in some edge (and, for first-appearance id order,
    when the first row is fully nonzero, as generated expected adjacencies
    are).
    """
    a = as_matrix(m)
    n_r, n_c = a.shape
    row_ids = list(row_ids) if row_ids is not None else [str(i + 1) for i in range(n_r)]
    col_ids = list(col_ids) if col_ids is not None else [str(j + 1) for j in range(n_c)]
    if len(row_ids) != n_r or len(col_ids) != n_c:
        raise ValidationError("id lists must match the matrix shape")
    rows, cols = np.nonzero(a)
    _write_records(path, EDGES_HEADER, (
        f"{row_ids[i]}\t{col_ids[j]}\t{value!r}"
        for i, j, value in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist())
    ))


def write_labels(path, ids, labels):
    """Write one ``id<TAB>label`` line per node.  The labels are read as a
    :class:`~bidfm.model.Membership`, so the writer takes exactly the labels
    :func:`read_labels` accepts."""
    labels = Membership.coerce(labels).labels
    if len(ids) != len(labels):
        raise ValidationError(f"{len(ids)} node ids but {len(labels)} labels")
    _write_records(path, LABELS_HEADER,
                   (f"{node}\t{label}" for node, label in zip(ids, labels)))


@_names_its_file
def read_labels(path):
    """Return ``(ids, labels)`` from a label file (one ``id<TAB>label`` per
    line; label order on disk is the node order).  A repeated id, or a label
    that is not an integer from 1 to the int64 maximum, is a ``ParseError``
    at its line."""
    ids, labels, seen = [], [], set()
    for lineno, text in _records(path):
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'id label', got {text!r}", line=lineno)
        labels.append(_parse(int, parts[1], lineno, f"bad label {parts[1]!r}"))
        if not 1 <= labels[-1] <= _INT_MAX:
            raise ParseError(f"label {parts[1]!r} is not in 1..{_INT_MAX}", line=lineno)
        if parts[0] in seen:
            raise ParseError(f"repeated node id {parts[0]!r}", line=lineno)
        seen.add(parts[0])
        ids.append(parts[0])
    if not ids:
        raise ParseError("label file contains no records")
    return ids, np.array(labels, dtype=int)


_NAMED_MIXINGS = {"P1": P1, "P2": P2}

# JSON values a config field admits, by the types in its annotation; a
# mixing matrix (np.ndarray) is given by name or as a list
_JSON_TYPES = {int: int, float: (int, float), str: str, bool: bool, dict: dict,
               type(None): type(None), np.ndarray: (str, list, tuple)}


def _admits(hint, value) -> bool:
    """Whether a JSON value fits a field annotation: a plain type, a union,
    or a ``tuple[T, ...]`` given as a list of ``T`` values.  ``true`` and
    ``false`` fit ``bool`` only, not a number, and an integer fits ``float``
    only within the float range."""
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_admits(item, v) for v in value)
    if typing.get_args(hint):
        return any(_admits(option, value) for option in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    if hint is float and isinstance(value, int):
        return abs(value) <= sys.float_info.max
    return isinstance(value, _JSON_TYPES[hint])


def _fields(data, hints, what: str, required=()) -> dict:
    """The JSON object ``data`` with its lists turned into tuples.  Every
    key must be one of ``hints`` (key -> annotation), every ``required`` key
    present and every value of a JSON type its annotation admits; one
    ``ValidationError`` lists every rule broken."""
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object, got {data!r}")
    violations = [f"unknown {what} key {key!r}" for key in data if key not in hints]
    violations += [f"missing {what} key {key!r}" for key in required if key not in data]
    violations += [f"{what} key {key!r} has the wrong type: {value!r}"
                   for key, value in data.items()
                   if key in hints and not _admits(hints[key], value)]
    if violations:
        raise ValidationError(violations)
    return {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}


def _field_kwargs(cls, data, what: str, **defaults) -> dict:
    """Keyword arguments for the dataclass ``cls`` from a JSON object whose
    keys are its fields; ``defaults`` fill in absent keys."""
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.name not in defaults]
    return {**defaults, **_fields(data, typing.get_type_hints(cls), what, required)}


def mixing_from_config(value) -> np.ndarray:
    """Mixing matrix from a config value: a name ('P1'/'P2') or a list of
    equally long rows of numbers."""
    if isinstance(value, str):
        if value not in _NAMED_MIXINGS:
            raise ValidationError(f"unknown named mixing matrix {value!r}")
        return _NAMED_MIXINGS[value].copy()
    if not _admits(tuple[tuple[float, ...], ...], value):
        raise ValidationError("mixing must be a name or a list of rows of numbers, "
                              f"got {json.dumps(value, default=repr)}")
    if len({len(row) for row in value}) > 1:
        raise ValidationError(f"mixing rows differ in length: {json.dumps(value)}")
    return np.asarray(value, dtype=float)


def distribution_from_config(data: dict) -> DistributionSpec:
    return DistributionSpec(**_field_kwargs(DistributionSpec, data, "distribution"))


# the model config's keys and the annotation each value must fit;
# ``distribution`` is read by ``generate`` itself
_MODEL_KEYS = {
    "model": str, "n_r": int, "n_c": int, "k_r": int, "k_c": int, "mixing": np.ndarray,
    "rho": float, "membership_seed": int, "row_labels": tuple[int, ...],
    "col_labels": tuple[int, ...], "theta_row": tuple[float, ...],
    "theta_col": tuple[float, ...], "theta": dict, "distribution": dict,
}
_THETA_KEYS = {"seed": int, "floor": float}


def params_from_config(data: dict):
    """Model parameters from a config dictionary.

    Memberships come either from explicit ``row_labels``/``col_labels``
    (labels in ``1..k_r`` and ``1..k_c``) or are sampled uniformly using
    ``membership_seed``.  For the degree-corrected model, thetas come from
    an explicit ``theta_row``/``theta_col`` pair or a ``theta`` generation
    block ``{"seed": ..., "floor": ...}``; the plain model takes none of
    them.
    Counts, seeds and labels must be JSON integers, ``k_r`` and ``k_c`` at
    least 1, and ``rho``, thetas and the floor JSON numbers; an unknown,
    missing or mistyped key is a ``ValidationError`` that names it.
    """
    data = _fields(data, _MODEL_KEYS, "config", required=("k_r", "k_c", "mixing"))
    model = data.get("model", "bidfm")
    if model not in MODELS:
        raise ValidationError(f"unknown model {model!r}")

    def need(key):  # a key required only in some configs
        if key not in data:
            raise ValidationError(f"missing config key {key!r}")
        return data[key]

    for key in ("k_r", "k_c"):
        _count(data[key], key)
    mixing = mixing_from_config(data["mixing"])
    membership_seed = data.get("membership_seed", 0)

    def side(labels_key, n_key, k, seed_offset):
        if labels_key in data:
            return Membership(data[labels_key], n_clusters=k)
        return sample_memberships(need(n_key), k, membership_seed + seed_offset)

    rows = side("row_labels", "n_r", data["k_r"], 0)
    cols = side("col_labels", "n_c", data["k_c"], 1)
    thetas = [key for key in ("theta_row", "theta_col", "theta") if key in data]
    if model == "bidfm":
        if thetas:
            raise ValidationError([f"config key {key!r} needs model 'bidcdfm'" for key in thetas])
        return BiDFMParams(rows, cols, mixing, float(need("rho")))
    gen = _fields(data.get("theta", {}), _THETA_KEYS, "theta")
    if "theta_row" in data or "theta_col" in data:
        theta_r, theta_c = need("theta_row"), need("theta_col")
    else:
        rho = float(need("rho"))
        seed = gen.get("seed", membership_seed + 2)
        floor = float(gen.get("floor", 0.05))
        theta_r = sample_theta(len(rows), rho, seed, floor=floor)
        theta_c = sample_theta(len(cols), rho, seed + 1, floor=floor)
    return BiDCDFMParams(rows, cols, mixing, theta_r, theta_c)


def simulation_config_from_config(data: dict) -> SimulationConfig:
    """A sweep from a config whose keys are :class:`SimulationConfig`'s
    fields; ``mixing`` defaults to ``"P1"``."""
    from .experiments import SimulationConfig  # experiments imports this module
    kwargs = _field_kwargs(SimulationConfig, data, "simulation config", mixing="P1")
    kwargs["mixing"] = mixing_from_config(kwargs["mixing"])
    return SimulationConfig(**kwargs)


def theory_inputs_from_config(data: dict) -> TheoryInputs:
    """Scalar inputs from a config whose keys are :class:`TheoryInputs`'
    fields; ``tau`` may also be ``"unbounded"``, its default."""
    if isinstance(data, dict) and data.get("tau") == "unbounded":
        data = {**data, "tau": math.inf}
    return TheoryInputs(**_field_kwargs(TheoryInputs, data, "theory inputs",
                                        tau=math.inf))


# the theory config's keys and the annotation each value must fit
_THEORY_KEYS = {"model": str, "inputs": dict, "c_alpha": float, "c": float}


def theory_config_from_config(data: dict) -> tuple:
    """``(model, inputs, c_alpha, c)`` from a theory config; ``model`` is
    ``"bidfm"`` (the default) or ``"bidcdfm"`` and the constants default to
    1.  The theory functions that read the model and the constants check
    them."""
    data = _fields(data, _THEORY_KEYS, "config", required=("inputs",))
    return data.get("model", "bidfm"), theory_inputs_from_config(data["inputs"]), *(
        data.get(key, 1.0) for key in ("c_alpha", "c"))


@_names_its_file
def load_json(path) -> dict:
    """The JSON object in the UTF-8 file ``path``; any other top-level value,
    or text ``json`` rejects (an integer past Python's digit limit too), is a
    ParseError that names the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), line=exc.lineno) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from None
    except ValueError as exc:  # an integer past Python's digit limit
        raise ParseError(str(exc)) from None
    if not isinstance(data, dict):
        raise ParseError(f"expected a JSON object, got {type(data).__name__}")
    return data
