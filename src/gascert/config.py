"""Network configuration documents and report serialization.

Configs are JSON.  One reader, ``numerics.numeric_array``, reads every
number, vector and matrix field, schedules included (``Schedule`` reads
their times and values): its numbers are JSON integers or floats, finite
and within double range, and anything else (a string or a boolean
included) is an error naming the field's path.  Matrices are nested
row-major arrays, a flat one read as a column.  Subsystems give
raw (A, B, C, D, E) blocks; A may be null for an unknown plant.  The
reference model is either an explicit augmented matrix or gain blocks
{"A_nominal", "K_x", "K_xi"}, shared at top level or per subsystem.
Edges carry a raw coupling block "A" (augmented internally) or a
spectral-norm bound "norm_bound", not both; unknown keys are ignored.

Reports are emitted by a small deterministic serializer: keys sorted,
floats at 17 significant digits, so byte-identical inputs give
byte-identical reports.  It walks the report once.  A float array is
written by one ``%`` operation on a template of its nested-list layout,
one ``%.17g`` per entry; the bytes are the same as formatting its entries
one at a time.  Non-finite numbers are rejected (``NonFiniteError``, a
``ValueError``).
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .control import build_reference_model
from .exceptions import ConfigError, GascertError, NonFiniteError
from .model import AugmentedSubsystem, Interconnection, NetworkModel, Tuning, augment_edge
from .numerics import numeric_array
from .sim import Scenario, Schedule

__all__ = [
    "digest",
    "dump_report",
    "load_config",
    "parse_config",
]


def _require(obj, key, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    if key not in obj:
        raise ConfigError(f"{path}.{key}: missing required field")
    return obj[key]


_KINDS = ("number", "vector", "matrix")


def _numbers(value, path, ndim, null_ok=False):
    """``value`` as a float ``ndim``-D array (a float for ``ndim`` 0), or None
    for a null when ``null_ok``; a 1-D matrix is read as a column.  Numbers
    are the integers and floats that ``numeric_array`` accepts."""
    if value is None:
        if null_ok:
            return None
        raise ConfigError(f"{path}: {_KINDS[ndim]} must not be null")
    try:
        M = numeric_array(value, path)
    except GascertError as exc:
        raise ConfigError(str(exc)) from None
    if ndim == 2 and M.ndim == 1:
        M = M.reshape(-1, 1) if M.size else M.reshape(0, 0)
    if M.ndim != ndim:
        raise ConfigError(f"{path}: expected a {_KINDS[ndim]}, got ndim={M.ndim}")
    return M if ndim else float(M)


def _section(spec, key, path):
    entry = spec.get(key, {})
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}.{key}: expected an object keyed by subsystem id")
    return entry


def _reference_model(spec, B, C, path):
    if isinstance(spec, list):
        return _numbers(spec, path, 2)
    if isinstance(spec, dict):
        A_nom, K_x, K_xi = (_numbers(_require(spec, key, path), f"{path}.{key}", 2)
                            for key in ("A_nominal", "K_x", "K_xi"))
        try:
            return build_reference_model(A_nom, B, C, K_x, K_xi)
        except Exception as exc:
            raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(f"{path}: expected a matrix or gain blocks")


def _tuning(spec, path):
    Q, gamma, theta_max, eps0 = (
        _numbers(_require(spec, key, path), f"{path}.{key}", ndim)
        for key, ndim in (("Q", 2), ("gamma", 0), ("theta_max", 0), ("eps0", 0)))
    try:
        return Tuning(Q=Q, gamma=gamma, theta_max=theta_max, eps0=eps0)
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _schedule(spec, path):
    if isinstance(spec, list):
        times, values = [0.0], [spec]
    else:
        times, values = _require(spec, "times", path), _require(spec, "values", path)
    try:
        return Schedule(times=times, values=values)
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _scenario(spec, path):
    kwargs = {key: _numbers(_require(spec, key, path), f"{path}.{key}", 0)
              for key in ("horizon", "dt")}
    for key in ("references", "disturbances"):
        kwargs[key] = {sid: _schedule(v, f"{path}.{key}.{sid}")
                       for sid, v in _section(spec, key, path).items()}
    for key, ndim in (("theta", 2), ("theta_hat0", 2), ("x0", 1), ("xhat0", 1)):
        kwargs[key] = {sid: _numbers(v, f"{path}.{key}.{sid}", ndim)
                       for sid, v in _section(spec, key, path).items()}
    try:
        return Scenario(**kwargs)
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from None


def parse_config(doc):
    """Build (NetworkModel, Scenario-or-None) from a parsed JSON document."""
    subs_spec = _require(doc, "subsystems", "config")
    if not isinstance(subs_spec, list) or not subs_spec:
        raise ConfigError("config.subsystems: expected a non-empty array")
    shared_rm = doc.get("reference_model")
    shared_tuning = doc.get("tuning")
    subs, desired, tuning, baseline = {}, {}, {}, {}
    for k, sub in enumerate(subs_spec):
        path = f"config.subsystems[{k}]"
        sid = _require(sub, "id", path)
        if not isinstance(sid, str) or not sid:
            raise ConfigError(f"{path}.id: expected a non-empty string")
        if sid in subs:
            raise ConfigError(f"{path}.id: duplicate id {sid!r}")
        B, C = (_numbers(_require(sub, key, path), f"{path}.{key}", 2) for key in "BC")
        A, D, E = (_numbers(sub.get(key), f"{path}.{key}", 2, null_ok=True) for key in "ADE")
        try:
            subs[sid] = AugmentedSubsystem.from_raw(sid, B, C, A=A, D=D, E=E)
        except Exception as exc:
            raise ConfigError(f"{path}: {exc}") from None
        rm_spec = sub.get("reference_model", shared_rm)
        if rm_spec is None:
            raise ConfigError(f"{path}.reference_model: missing (no shared default)")
        desired[sid] = _reference_model(rm_spec, B, C, f"{path}.reference_model")
        tn_spec = sub.get("tuning", shared_tuning)
        if tn_spec is None:
            raise ConfigError(f"{path}.tuning: missing (no shared default)")
        tuning[sid] = _tuning(tn_spec, f"{path}.tuning")
        baseline[sid] = _numbers(sub.get("baseline_gain"), f"{path}.baseline_gain", 2,
                                 null_ok=True)
    edges = []
    edges_spec = doc.get("edges", [])
    if not isinstance(edges_spec, list):
        raise ConfigError("config.edges: expected an array")
    for k, edge in enumerate(edges_spec):
        path = f"config.edges[{k}]"
        src, dst = _require(edge, "from", path), _require(edge, "to", path)
        for sid, role in ((src, "from"), (dst, "to")):
            if not isinstance(sid, str) or sid not in subs:
                raise ConfigError(f"{path}.{role}: unknown subsystem id {sid!r}")
        norm_bound = _numbers(edge.get("norm_bound"), f"{path}.norm_bound", 0, null_ok=True)
        A_edge = _numbers(edge.get("A"), f"{path}.A", 2, null_ok=True)
        if A_edge is not None:
            want = (subs[dst].n, subs[src].n)
            if A_edge.shape != want:
                raise ConfigError(f"{path}.A: shape {A_edge.shape} does not match "
                                  f"destination x source raw dims {want}")
            A_edge = augment_edge(A_edge, subs[dst].q, subs[src].q)
        try:
            edges.append(Interconnection(src=src, dst=dst, A=A_edge, norm_bound=norm_bound))
        except Exception as exc:
            raise ConfigError(f"{path}: {exc}") from None
    try:
        net = NetworkModel(subsystems=list(subs.values()), edges=edges, desired=desired,
                           tuning=tuning, baseline=baseline)
    except Exception as exc:
        raise ConfigError(f"config: {exc}") from None
    scenario = None
    if doc.get("scenario") is not None:
        scenario = _scenario(doc["scenario"], "config.scenario")
        try:
            scenario.check(net)
        except GascertError as exc:
            raise ConfigError(f"config.scenario.{exc}") from None
    return net, scenario


def load_config(path):
    """Read and parse a config file; returns (net, scenario, raw bytes)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config: not valid JSON ({exc})") from None
    net, scenario = parse_config(doc)
    return net, scenario, data


def digest(data: bytes):
    """Hex digest identifying the exact input document."""
    return hashlib.sha256(data).hexdigest()


_NON_FINITE = "reports must not contain non-finite numbers"


def _layout(parts, pad, brackets):
    """``parts`` one per line, one level inside ``pad``, as in the report layout."""
    if not parts:
        return brackets
    inner = pad + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}{brackets[1]}"


def _template(shape, pad):
    """`%`-template of a float array at ``pad``: one ``%.17g`` per entry."""
    if not shape:
        return "%.17g"
    return _layout([_template(shape[1:], pad + "  ")] * shape[0], pad, "[]")


def _emit(x, pad):
    if isinstance(x, np.ndarray):
        if x.dtype.kind == "f":
            if not np.isfinite(x).all():
                raise NonFiniteError(_NON_FINITE)
            return _template(x.shape, pad) % tuple(x.ravel().tolist())
        x = x.tolist()
    elif isinstance(x, np.generic):
        x = x.item()
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise NonFiniteError(_NON_FINITE)
        return "%.17g" % x
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, dict):
        x = {str(k): v for k, v in x.items()}
        return _layout([f"{json.dumps(k)}: {_emit(x[k], pad + '  ')}" for k in sorted(x)],
                       pad, "{}")
    if isinstance(x, (list, tuple)):
        return _layout([_emit(v, pad + "  ") for v in x], pad, "[]")
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dump_report(report: dict):
    """Serialize a report deterministically (sorted keys, 17-digit floats).

    One recursive walk.  A float array is written with one ``%``
    operation on a template of its nested-list layout.
    """
    return _emit(report, "") + "\n"
