"""Network configuration documents and report serialization.

Configs are JSON.  ``parse_config`` walks the document and reads no
numbers: it checks objects, required keys, ids and the shared defaults, and
hands each value unchanged to the type that holds it, which reads it with
``numerics.numeric_array``; an error names the field's document path.
Matrices are nested row-major arrays, a flat one read as a row.  Subsystems
give raw (A, B, C, D, E) blocks; A may be null for an unknown plant.  The
reference model is an explicit augmented matrix or gain blocks {"A_nominal",
"K_x", "K_xi"}, assembled with each subsystem's own raw B and C.  It and the
tuning may be shared at top level: a shared one is read once and its errors
are named there (``config.tuning``, ``config.reference_model``).  Edges carry
a raw coupling block "A" (augmented internally, and the padded block handed
on as a record, not read again) or a spectral-norm bound "norm_bound", not
both; unknown keys are ignored.

Reports are emitted by a small deterministic serializer: keys sorted,
floats at 17 significant digits, so byte-identical inputs give
byte-identical reports.  It walks the report once, testing first for the
exact types a report is mostly made of (``float``, ``str``, ``dict``), and
quotes strings and keys as ``json.dumps`` does at its defaults.  A float
array is written by one ``%`` operation on a template of its nested-list
layout, one ``%.17g`` per entry, kept per (shape, indent) in a bounded
cache; the bytes are the same as formatting its entries one at a time.
Non-finite numbers are rejected (``NonFiniteError``, a ``ValueError``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math

import numpy as np

from .control import _reference_model
from .exceptions import ConfigError, NonFiniteError
from .model import AugmentedSubsystem, Interconnection, NetworkModel, Tuning, augment_edge
from .numerics import Checked, _own
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


def _build(make, path, fields=(), prefix="", owner=""):
    """``make()``, with an error named by its document path.  A value type
    words a field's error ``[prefix]<field>: reason`` (``<field>.<id>`` for a
    per-id entry); with ``<field>`` a key of ``fields`` it reads
    ``path.<field>: reason``, and any other error ``path: [owner]error``."""
    try:
        return make()
    except Exception as exc:
        msg = str(exc)
        field, sep, reason = msg.removeprefix(prefix).partition(": ")
        if sep and field.partition(".")[0] in fields:
            raise ConfigError(f"{path}.{field}: {reason}") from None
        raise ConfigError(f"{path}: {owner}{msg}") from None


def _owned(sub, doc, key, path):
    """Section ``key`` of subsystem ``sub`` (at ``path``) and its owner's path:
    ``sub``'s own section, or the shared default at the top of ``doc``."""
    spec, at = (sub[key], path) if key in sub else (doc.get(key), "config")
    if spec is None:
        raise ConfigError(f"{path}.{key}: missing (no shared default)")
    return spec, at


def _tuning(spec, path):
    fields = {key: _require(spec, key, path) for key in ("Q", "gamma", "theta_max", "eps0")}
    return _build(lambda: Tuning(**fields), path, spec)


def _gain_blocks(spec, s, path, shared, read):
    """Desired matrix of subsystem ``s`` from gain blocks and its raw B and C.
    The blocks are read once per section, into ``read`` by the section's id.
    A ``shared`` section's misfit with ``s``'s blocks names ``s``."""
    owner = f"subsystem {s.sid}: " if shared else ""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected a matrix or gain blocks")
    if id(spec) not in read:
        A_nom, K_x, K_xi = (_require(spec, key, path) for key in ("A_nominal", "K_x", "K_xi"))
        read[id(spec)] = _build(lambda: (Checked(A_nom, "A_nominal", square=True).A,
                                         Checked(K_x, "K_x").A, Checked(K_xi, "K_xi").A),
                                path, spec, owner=owner)
    A_nom, K_x, K_xi = read[id(spec)]
    return _build(lambda: _reference_model(A_nom, s.B[:s.n], s.C[:s.q, :s.n], K_x, K_xi),
                  path, spec, owner=owner)


def _schedule(spec, path):
    if isinstance(spec, list):
        times, values = [0.0], [spec]
    else:
        times, values = _require(spec, "times", path), _require(spec, "values", path)
    return _build(lambda: Schedule(times=times, values=values), path)


def _scenario(spec, net, path):
    kwargs = {key: _require(spec, key, path) for key in ("horizon", "dt")}
    for key in ("references", "disturbances", "theta", "theta_hat0", "x0", "xhat0"):
        entries = spec.get(key, {})
        if not isinstance(entries, dict):
            raise ConfigError(f"{path}.{key}: expected an object keyed by subsystem id")
        kwargs[key] = ({sid: _schedule(v, f"{path}.{key}.{sid}") for sid, v in entries.items()}
                       if key in ("references", "disturbances") else entries)
    scenario = _build(lambda: Scenario(**kwargs), path, spec)
    _build(lambda: scenario.check(net), path, spec)
    return scenario


def parse_config(doc):
    """Build (NetworkModel, Scenario-or-None) from a parsed JSON document."""
    subs_spec = _require(doc, "subsystems", "config")
    if not isinstance(subs_spec, list) or not subs_spec:
        raise ConfigError("config.subsystems: expected a non-empty array")
    subs, desired, tuning, baseline = {}, {}, {}, {}
    once = {}  # a tuning or explicit reference model by id of its section: shared, built once
    blocks = {}  # the arrays of a gain-block section by its id: read once
    for k, sub in enumerate(subs_spec):
        path = f"config.subsystems[{k}]"
        sid = _require(sub, "id", path)
        if not isinstance(sid, str) or not sid:
            raise ConfigError(f"{path}.id: expected a non-empty string")
        if sid in subs:
            raise ConfigError(f"{path}.id: duplicate id {sid!r}")
        B, C = (_require(sub, key, path) for key in "BC")
        s = subs[sid] = _build(
            lambda: AugmentedSubsystem.from_raw(sid, B, C, A=sub.get("A"), D=sub.get("D"),
                                                E=sub.get("E")),
            path, sub, f"subsystem {sid}: ")
        if sub.get("baseline_gain") is not None:
            baseline[sid] = _build(lambda: Checked(sub["baseline_gain"], "baseline_gain"),
                                   path, sub)
        spec, at = _owned(sub, doc, "tuning", path)
        if id(spec) not in once:
            once[id(spec)] = _tuning(spec, f"{at}.tuning")
        tuning[sid] = once[id(spec)]
        spec, at = _owned(sub, doc, "reference_model", path)
        if isinstance(spec, list) and id(spec) not in once:
            once[id(spec)] = _build(lambda: Checked(spec, "reference_model"), at,
                                    ("reference_model",))
        desired[sid] = (once[id(spec)] if isinstance(spec, list)
                        else _gain_blocks(spec, s, f"{at}.reference_model", at != path, blocks))
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
        A = edge.get("A")
        if A is not None:
            q_to, q_from = subs[dst].q, subs[src].q
            A = _build(lambda: _own(augment_edge(edge["A"], q_to, q_from)), path, edge)
            raw, want = (A.A.shape[0] - q_to, A.A.shape[1] - q_from), (subs[dst].n, subs[src].n)
            if raw != want:
                raise ConfigError(f"{path}.A: shape {raw} does not match "
                                  f"destination x source raw dims {want}")
        edges.append(_build(
            lambda: Interconnection(src=src, dst=dst, A=A, norm_bound=edge.get("norm_bound")),
            path, edge, f"edge {src}->{dst}: "))
    net = _build(lambda: NetworkModel(subsystems=list(subs.values()), edges=edges,
                                      desired=desired, tuning=tuning, baseline=baseline),
                 "config")
    scenario = None
    if doc.get("scenario") is not None:
        scenario = _scenario(doc["scenario"], net, "config.scenario")
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


@functools.lru_cache(maxsize=256)
def _template(shape, pad):
    """`%`-template of a float array at ``pad``: one ``%.17g`` per entry."""
    if not shape:
        return "%.17g"
    return _layout([_template(shape[1:], pad + "  ")] * shape[0], pad, "[]")


_quote = json.encoder.encode_basestring_ascii  # json.dumps of a str, at its defaults


def _emit(x, pad):
    if type(x) not in (float, str, dict):  # the exact types a report is mostly made of
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
        if isinstance(x, (list, tuple)):
            return _layout([_emit(v, pad + "  ") for v in x], pad, "[]")
    if isinstance(x, float):
        if not math.isfinite(x):
            raise NonFiniteError(_NON_FINITE)
        return "%.17g" % x
    if isinstance(x, str):
        return _quote(x)
    if isinstance(x, dict):
        x = {str(k): v for k, v in x.items()}
        return _layout([f"{_quote(k)}: {_emit(x[k], pad + '  ')}" for k in sorted(x)],
                       pad, "{}")
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dump_report(report: dict):
    """Serialize a report deterministically (sorted keys, 17-digit floats).

    One recursive walk.  A float array is written with one ``%``
    operation on a template of its nested-list layout.
    """
    return _emit(report, "") + "\n"
