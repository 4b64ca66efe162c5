"""File formats: dense matrix text, edge lists, label files, JSON configs.

All writers go through a temp-file-then-rename step, so readers never see a
half-written file.  Matrix values are written with ``repr``, which
round-trips IEEE doubles exactly.
"""
from __future__ import annotations

import json
import os
import secrets
import warnings

import numpy as np

from .errors import ParseError, ValidationError
from .experiments import SimulationConfig
from .linalg import as_matrix
from .model import P1, P2, BiDCDFMParams, BiDFMParams, Membership, sample_memberships, sample_theta
from .sampling import DistributionSpec
from .theory import TheoryInputs

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


def write_matrix(path, m):
    a = as_matrix(m)
    lines = [MATRIX_HEADER, f"{a.shape[0]} {a.shape[1]}"]
    lines.extend(" ".join(repr(v) for v in row) for row in a.tolist())
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_matrix(path) -> np.ndarray:
    """Parse the dense text format; raises ``ParseError`` with the offending
    line number on truncation, shape mismatch, or non-finite values."""
    with open(path) as handle:
        lines = handle.readlines()
    body = [
        (i + 1, line.strip())
        for i, line in enumerate(lines)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not body:
        raise ParseError("empty matrix file")
    lineno, dims = body[0]
    parts = dims.split()
    if len(parts) != 2:
        raise ParseError(f"expected 'rows cols', got {dims!r}", line=lineno)
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"non-integer dimensions {dims!r}", line=lineno) from None
    if rows < 1 or cols < 1:
        raise ParseError(f"dimensions must be positive, got {dims!r}", line=lineno)
    if len(body) - 1 != rows:
        raise ParseError(
            f"expected {rows} data rows, found {len(body) - 1}", line=lineno
        )
    out = np.empty((rows, cols))
    for r, (lineno, line) in enumerate(body[1:]):
        values = line.split()
        if len(values) != cols:
            raise ParseError(
                f"expected {cols} values, found {len(values)}", line=lineno
            )
        try:
            out[r] = [float(v) for v in values]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if not np.all(np.isfinite(out[r])):
            raise ParseError("non-finite value", line=lineno)
    return out


def read_edge_list(
    path,
    delimiter: str | None = None,
    header: bool = False,
    directed_as_bipartite: bool = True,
):
    """Build a dense adjacency matrix from a (source, target, weight) file.

    With ``directed_as_bipartite`` (the default) all node ids share one
    universe in first-appearance order, producing a square matrix whose rows
    and columns index the same nodes; otherwise sources and targets get
    independent universes.  Duplicate (source, target) pairs are summed with
    a warning.  Returns ``(matrix, row_ids, col_ids)``.
    """
    with open(path) as handle:
        lines = handle.readlines()
    records = []
    start = 1 if header else 0
    for lineno, line in enumerate(lines, start=1):
        if lineno == 1 and header:
            continue
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split(delimiter) if delimiter else text.split()
        if len(parts) < 3:
            raise ParseError(
                f"expected 'source target weight', got {text!r}", line=lineno
            )
        try:
            weight = float(parts[2])
        except ValueError:
            raise ParseError(f"bad weight {parts[2]!r}", line=lineno) from None
        if not np.isfinite(weight):
            raise ParseError(f"non-finite weight {parts[2]!r}", line=lineno)
        records.append((parts[0], parts[1], weight))
    if not records:
        raise ParseError("edge list contains no records")

    def index_of(ids):
        return {node: i for i, node in enumerate(ids)}

    if directed_as_bipartite:
        universe = []
        seen = set()
        for s, t, _ in records:
            for node in (s, t):
                if node not in seen:
                    seen.add(node)
                    universe.append(node)
        row_ids = col_ids = universe
        row_index = col_index = index_of(universe)
    else:
        row_ids, col_ids, seen_r, seen_c = [], [], set(), set()
        for s, t, _ in records:
            if s not in seen_r:
                seen_r.add(s)
                row_ids.append(s)
            if t not in seen_c:
                seen_c.add(t)
                col_ids.append(t)
        row_index, col_index = index_of(row_ids), index_of(col_ids)

    matrix = np.zeros((len(row_ids), len(col_ids)))
    duplicates = 0
    filled = set()
    for s, t, w in records:
        key = (row_index[s], col_index[t])
        if key in filled:
            duplicates += 1
        filled.add(key)
        matrix[key] += w
    if duplicates:
        warnings.warn(
            f"{duplicates} duplicate (source, target) pairs were summed",
            stacklevel=2,
        )
    return matrix, list(row_ids), list(col_ids)


def write_edge_list(path, m, row_ids=None, col_ids=None, delimiter="\t"):
    """Write nonzero entries as ``source target weight`` records.

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
    lines = [EDGES_HEADER]
    for i, row in enumerate(a.tolist()):
        for j, value in enumerate(row):
            if value != 0.0:
                lines.append(f"{row_ids[i]}{delimiter}{col_ids[j]}{delimiter}{value!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_labels(path, ids, labels):
    labels = np.asarray(labels, dtype=int)
    if len(ids) != len(labels):
        raise ValidationError(
            f"{len(ids)} node ids but {len(labels)} labels"
        )
    lines = [LABELS_HEADER]
    lines.extend(f"{node}\t{label}" for node, label in zip(ids, labels))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_labels(path):
    """Return ``(ids, labels)`` from a label file (one ``id<TAB>label`` per
    line; label order on disk is the node order)."""
    ids, labels = [], []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise ParseError(f"expected 'id label', got {text!r}", line=lineno)
            try:
                labels.append(int(parts[1]))
            except ValueError:
                raise ParseError(f"bad label {parts[1]!r}", line=lineno) from None
            ids.append(parts[0])
    if not ids:
        raise ParseError("label file contains no records")
    return ids, np.array(labels, dtype=int)


_NAMED_MIXINGS = {"P1": P1, "P2": P2}


def mixing_from_config(value, k_r=None, k_c=None) -> np.ndarray:
    """Mixing matrix from a config value: a name ('P1'/'P2'), a nested list,
    or a flat row-major list combined with the cluster counts."""
    if isinstance(value, str):
        if value not in _NAMED_MIXINGS:
            raise ValidationError(f"unknown named mixing matrix {value!r}")
        return _NAMED_MIXINGS[value].copy()
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 1:
        if k_r is None or k_c is None:
            raise ValidationError(
                "flat row-major mixing values need k_r and k_c to reshape"
            )
        if arr.size != k_r * k_c:
            raise ValidationError(
                f"expected {k_r * k_c} mixing values, got {arr.size}"
            )
        arr = arr.reshape(k_r, k_c)
    return arr


def distribution_from_config(data: dict) -> DistributionSpec:
    return DistributionSpec(data["kind"], sigma2=data.get("sigma2"))


def params_from_config(data: dict):
    """Model parameters from a config dictionary.

    Memberships come either from explicit ``row_labels``/``col_labels`` or
    are sampled uniformly using ``membership_seed``.  For the
    degree-corrected model, thetas come from explicit ``theta_row``/
    ``theta_col`` vectors or a ``theta`` generation block
    ``{"seed": ..., "floor": ...}``.
    """
    model = data.get("model", "bidfm")
    k_r, k_c = int(data["k_r"]), int(data["k_c"])
    mixing = mixing_from_config(data["mixing"], k_r, k_c)

    def side(labels_key, n_key, seed_offset):
        if labels_key in data:
            return Membership(np.asarray(data[labels_key], dtype=int))
        seed = int(data.get("membership_seed", 0)) + seed_offset
        k = k_r if seed_offset == 0 else k_c
        return sample_memberships(int(data[n_key]), k, seed)

    rows = side("row_labels", "n_r", 0)
    cols = side("col_labels", "n_c", 1)
    if model == "bidfm":
        return BiDFMParams(rows, cols, mixing, float(data["rho"]))
    if model != "bidcdfm":
        raise ValidationError(f"unknown model {model!r}")
    if "theta_row" in data and "theta_col" in data:
        theta_r = np.asarray(data["theta_row"], dtype=float)
        theta_c = np.asarray(data["theta_col"], dtype=float)
    else:
        gen = data.get("theta", {})
        rho = float(data["rho"])
        seed = int(gen.get("seed", int(data.get("membership_seed", 0)) + 2))
        floor = float(gen.get("floor", 0.05))
        theta_r = sample_theta(len(rows), rho, seed, floor=floor)
        theta_c = sample_theta(len(cols), rho, seed + 1, floor=floor)
    return BiDCDFMParams(rows, cols, mixing, theta_r, theta_c)


def params_to_config(params) -> dict:
    """Serialize model parameters to a config dictionary (explicit labels and
    thetas, mixing as a nested row-major list); inverse of
    :func:`params_from_config`."""
    data = {
        "k_r": params.row_membership.n_clusters,
        "k_c": params.col_membership.n_clusters,
        "n_r": len(params.row_membership),
        "n_c": len(params.col_membership),
        "mixing": params.mixing.tolist(),
        "row_labels": params.row_membership.labels.tolist(),
        "col_labels": params.col_membership.labels.tolist(),
    }
    if isinstance(params, BiDFMParams):
        data["model"] = "bidfm"
        data["rho"] = params.rho
    else:
        data["model"] = "bidcdfm"
        data["theta_row"] = params.theta_row.tolist()
        data["theta_col"] = params.theta_col.tolist()
    return data


def simulation_config_from_config(data: dict) -> SimulationConfig:
    known = {
        "model", "kind", "sigma2", "k_r", "k_c", "n_r", "n_c", "rho",
        "rho_grid", "n_grid", "sigma2_grid", "replicates", "algorithms",
        "base_seed", "population", "theta_floor", "name",
    }
    unknown = set(data) - known - {"mixing"}
    if unknown:
        raise ValidationError(f"unknown simulation config keys: {sorted(unknown)}")
    kwargs = {k: v for k, v in data.items() if k in known}
    for grid in ("rho_grid", "n_grid", "sigma2_grid"):
        if kwargs.get(grid) is not None:
            kwargs[grid] = tuple(kwargs[grid])
    if "algorithms" in kwargs:
        kwargs["algorithms"] = tuple(kwargs["algorithms"])
    mixing = mixing_from_config(
        data.get("mixing", "P1"), data.get("k_r", 2), data.get("k_c", 3)
    )
    return SimulationConfig(mixing=mixing, **kwargs)


def theory_inputs_from_config(data: dict) -> TheoryInputs:
    tau = data.get("tau", "unbounded")
    if isinstance(tau, str):
        if tau != "unbounded":
            raise ValidationError(f"tau must be a number or 'unbounded', got {tau!r}")
        tau = float("inf")
    fields = {k: v for k, v in data.items() if k != "tau"}
    return TheoryInputs(tau=float(tau), **fields)


def load_json(path) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), line=exc.lineno) from None
