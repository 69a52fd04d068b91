"""Command-line front end.

Subcommands::

    gascert connective <cfg>                  aggregate sufficiency test
    gascert riccati    <cfg>                  per-subsystem Riccati certificates
    gascert smallgain  <cfg>                  loop-gain product diagnostic
    gascert simulate   <cfg> --mode {dec,dist} --out <csv>

Exit codes: 0 pass/certified/finite, 1 usage or input/solver error,
2 condition failed, 3 divergence.  Every error, a usage error included,
is one ``error:`` line on stderr, and no warning is written.  No
subcommand takes a tolerance: the solver bounds are fixed and stated in
``numerics``.  Reports go to stdout as deterministic JSON (sorted keys,
17-digit floats); nothing here uses randomness.  A number that overflowed
(a coupling energy, a gain product, an entry of the comparison matrix or
an offset) is written as ``null``, and the condition it enters fails.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

import numpy as np

from . import __version__
from .config import digest, dump_report, load_config
from .connective import analyze, small_gain_check
from .exceptions import GascertError
from .riccati import certify
from .sim import export_csv, metrics, simulate

_TOOL = f"gascert {__version__}"


def _base_report(method, data):
    return {"method": method, "tool": _TOOL, "input_sha256": digest(data)}


def _null_overflow(X):  # X, each entry that overflowed (not finite) written as null
    return X if np.isfinite(X).all() else np.where(np.isfinite(X), X, None)


def _worst(values):  # the largest, 0 without any; None (null) if one overflowed
    return None if None in values else max([0.0, *values])


def cmd_connective(args):
    net, _, data = load_config(args.config)
    report = analyze(net)
    doc = _base_report("connective", data)
    doc["verdict"] = "pass" if report.passed else "fail"
    doc["conditions"] = {
        "diagonal_dominance": report.cond_diag,
        "norm_exceeds_offsets": report.cond_norm,
        "aggregate_stable": report.M_stable,
    }
    doc["aggregate_matrix"] = _null_overflow(report.M)
    doc["offsets"] = _null_overflow(report.offsets)
    doc["subsystems"] = {
        sid: {
            "P": report.P[sid],
            "lambda_min_P": report.lambda_min_P[sid],
            "lambda_max_P": report.lambda_max_P[sid],
            "lambda_min_Q": report.lambda_min_Q[sid],
            "decay_rate": report.alpha[sid],
            "diagonally_dominant": bool(report.cond_diag_rows[k]),
        }
        for k, sid in enumerate(report.ids)
    }
    sys.stdout.write(dump_report(doc))
    return 0 if report.passed else 2


def cmd_riccati(args):
    net, _, data = load_config(args.config)
    cert = certify(net)
    doc = _base_report("riccati", data)
    doc["verdict"] = "certified" if cert.certified else "not-certified"
    doc["failing"] = cert.failing
    doc["subsystems"] = {
        c.sid: {
            "neighbors": c.n_neighbors,
            "coupling_energy": c.coupling_energy,
            "distance": c.distance,
            "margin": c.margin,
            "epsilon": c.epsilon,
            "are_residual": c.are_residual,
            "P": c.P,
            "reason": c.reason,
        }
        for c in cert.subsystems
    }
    sys.stdout.write(dump_report(doc))
    return 0 if cert.certified else 2


def cmd_smallgain(args):
    net, _, data = load_config(args.config)
    results = small_gain_check(net)
    passed = all(r.passed for r in results)
    doc = _base_report("small-gain", data)
    doc["verdict"] = "pass" if passed else "fail"
    doc["hinf_product"] = _worst([r.hinf_product for r in results])
    doc["raw_gain_product"] = _worst([r.raw_gain_product for r in results])
    doc["pairs"] = [{"pair": list(r.pair), "hinf_product": r.hinf_product,
                     "raw_gain_product": r.raw_gain_product, "pass": r.passed}
                    for r in results]
    sys.stdout.write(dump_report(doc))
    return 0 if passed else 2


def cmd_simulate(args):
    net, scenario, data = load_config(args.config)
    if scenario is None:
        raise GascertError("config has no scenario section; nothing to simulate")
    mode = {"dec": "decentralized", "dist": "distributed"}[args.mode]
    cert = certify(net)
    trace = simulate(net, scenario, mode=mode,
                     certificate=cert if cert.certified else None)
    export_csv(trace, args.out)
    doc = _base_report("simulate", data)
    doc["mode"] = mode
    doc["certified"] = cert.certified
    doc["samples"] = int(trace.t.size)
    doc["trace"] = args.out
    doc["metrics"] = metrics(trace)
    sys.stdout.write(dump_report(doc))
    return 3 if trace.diverged else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a usage error ends in main's one error line
        raise GascertError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The command-line parser, built on the first call and kept for the process."""
    parser = _Parser(
        prog="gascert",
        description="Stability certification and simulation for networks of "
                    "linear MIMO subsystems under adaptive control.",
    )
    parser.add_argument("--version", action="version", version=_TOOL)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="network configuration document (JSON)")
        p.set_defaults(fn=fn)
        return p

    add("connective", cmd_connective, "run the aggregate sufficiency test")
    add("riccati", cmd_riccati, "certify via per-subsystem Riccati equations")
    add("smallgain", cmd_smallgain, "loop-gain product diagnostic for coupled pairs")
    p = add("simulate", cmd_simulate, "simulate the closed-loop network")
    p.add_argument("--mode", choices=["dec", "dist"], default="dist",
                   help="predictor architecture: decentralized or distributed")
    p.add_argument("--out", required=True, help="trace CSV output path")
    return parser


def main(argv=None):
    try:
        # --help and --version still print and exit with 0
        args = build_parser().parse_args(argv)
        # an overflow shows as a non-finite value, which ends in the error
        # line below; numpy's floating-point warnings and the solvers'
        # Python warnings would only add lines
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return args.fn(args)
    except (GascertError, OSError) as exc:
        # one line, whatever line breaks the ids or paths in the message hold
        print("error: " + "\\n".join(str(exc).splitlines()), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
