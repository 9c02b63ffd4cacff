"""One SHA-256 over the CLI's answers to a fixed set of calls, to compare checkouts.

Usage: python3 tools/call_digest.py <checkout> <workdir>

Builds the three benchmark batteries at seed 5 with the checkout's
``perfbench/gen.py``, writing their inputs under ``<workdir>``, and adds
``corpus --json --n 12`` at seeds 0-59, with and without ``--inject-fault``.
Every call runs through the checkout's ``qleontief.cli.main`` in this one
process.  Prints the number of calls and one SHA-256 over each call's argv,
exit code, stdout and stderr.  Reports echo their input paths, so two
checkouts compare equal only when both runs use the same ``<workdir>``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

WORKLOADS = ("check-battery", "product-maximize", "corpus-sweep")


def calls(gen, workdir: str):
    for workload in WORKLOADS:
        for call in gen.build(workload, 5, os.path.join(workdir, workload)):
            yield call.argv
    for seed in range(60):
        argv = ["corpus", "--json", "--n", "12", "--seed", str(seed)]
        yield argv
        yield argv + ["--inject-fault"]


def run(cli, argv):
    """(exit code, stdout, stderr) of one call; a crash is recorded as its
    exception in place of an exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a crash is part of the answer
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    checkout, workdir = (os.path.abspath(a) for a in args)
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import gen
    import qleontief.cli as cli

    digest = hashlib.sha256()
    count = 0
    for call in calls(gen, workdir):
        code, out, err = run(cli, call)
        digest.update(json.dumps([call, code, out, err]).encode("utf-8"))
        count += 1
    print(count, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
