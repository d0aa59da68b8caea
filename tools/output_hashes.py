"""Print the sha256 of every output of one benchmark workload's pipeline pass.

Runs the workload's synth, ingest, train, the three analyses and generate
through ``slicevec.cli.main`` in this process, in a new temporary directory,
with the argv that ``slicebench/workloads.py`` builds. Prints one line per
output, sorted by name: ``<sha256>  <name>`` for every file the pass writes
(the synthesized MIDI files among them) and for each command's exit code,
stdout and stderr. Two checkouts that print the same lines wrote the same
bytes and said the same things.

    python3 tools/output_hashes.py --workload stress --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commands(w, seed: int) -> list[tuple[str, list[str]]]:
    """(name, argv) of each command of one pipeline pass, in the order they run."""
    from workloads import (
        ANALYSES, analyze_argv, generate_argv, ingest_argv, synth_argv, train_argv,
    )

    steps = [("synth", synth_argv(w, seed)), ("ingest", ingest_argv(w)),
             ("train", train_argv(w, seed))]
    steps += [(f"analyze {which}", analyze_argv(which)) for which in ANALYSES]
    steps += [(f"generate {piece}", generate_argv(w, piece)) for piece in w.generate]
    return steps


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_hashes(w, seed: int) -> list[str]:
    """The sorted "<sha256>  <name>" lines of one pass of workload w at seed."""
    from slicevec.cli import main

    digests = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, argv in commands(w, seed):
                out, err = io.StringIO(), io.StringIO()
                # a fresh warnings registry, so each command warns as a new process would
                with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    try:
                        rc = main(argv)
                    except SystemExit as exc:  # argparse refusing the argv
                        rc = exc.code
                for stream, text in (("exit", str(rc)), ("stdout", out.getvalue()),
                                     ("stderr", err.getvalue())):
                    digests[f"{name} {stream}"] = _sha256(text.encode())
            for path in sorted(Path(work).rglob("*")):
                if path.is_file():
                    digests[path.relative_to(work).as_posix()] = _sha256(path.read_bytes())
        finally:
            os.chdir(cwd)
    return [f"{digest}  {name}" for name, digest in sorted(digests.items())]


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "slicebench")]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    os.environ.pop("SLICEVEC_CONFIG", None)  # a config file would change every output
    print("\n".join(output_hashes(WORKLOADS[args.workload], args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
