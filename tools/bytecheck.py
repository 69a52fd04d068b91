"""Byte check: one SHA-256 per ``gascert`` operation.

    python3 tools/bytecheck.py > digests.txt

Each output line is ``<sha256>  <command>:<document>``.  The digest
covers the exit code, stdout and stderr of one in-process ``gascert``
call, and for ``simulate`` the trace CSV as well.  The operations are
``riccati``, ``connective`` and ``smallgain`` on the five demo configs
and on seed 1's certify-sweep ladder (generated by ``bench/``, 2 to 128
subsystems), and ``simulate`` in both modes on the demo configs.

Reports and traces must stay byte-identical across runs: two runs in
fresh processes print the same lines.  Run on two checkouts, the tool
also shows which outputs a change moves.  gascert is imported from this
checkout's ``src/``; the documents and the CSVs go to a temporary
directory, and each CSV is named relative to it, so the reports name the
same trace path in every run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from run import WORKER_ENV  # noqa: E402  (bench/run.py: one BLAS thread, as the benchmark)

for _key, _value in WORKER_ENV.items():
    os.environ.setdefault(_key, _value)

import workloads  # noqa: E402  (bench/workloads.py)
from gascert import cli  # noqa: E402


def digest(argv, csv=None):
    """SHA-256 of one ``gascert`` call: exit code, stdout, stderr and the CSV."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    h = hashlib.sha256()
    for chunk in (str(rc), out.getvalue(), err.getvalue()):
        h.update(chunk.encode() + b"\0")
    if csv is not None:
        if os.path.exists(csv):
            with open(csv, "rb") as fh:
                h.update(fh.read())
        else:
            h.update(b"no CSV")
    return h.hexdigest()


def main():
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        docs = workloads.plan("certify-sweep", 1, work)["docs"]
        docs = {name: os.path.join(ROOT, path) for name, path in docs.items()}
        os.chdir(work)
        try:
            for name, path in docs.items():
                for cmd in ("riccati", "connective", "smallgain"):
                    print(f"{digest([cmd, path])}  {cmd}:{name}", flush=True)
            for name in workloads.DEMOS:
                for mode in ("dist", "dec"):
                    csv = f"{name}-{mode}.csv"
                    argv = ["simulate", docs[name], "--mode", mode, "--out", csv]
                    print(f"{digest(argv, csv)}  simulate-{mode}:{name}", flush=True)
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
