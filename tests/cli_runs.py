"""Run ermine command lines in one interpreter and keep what each prints.

Run as a script, it reads a JSON list of command lines on stdin and
writes their results as JSON on stdout, so that a test can run the same
commands in a fresh interpreter, for example under another
``PYTHONHASHSEED``.  It imports nothing but ``ermine`` and the standard
library, to start quickly.
"""

import contextlib
import io
import json
import sys

from ermine.cli import main


def run_commands(argvs):
    """(exit code, stdout, stderr) of each command line, run in turn.  A
    usage error's exit code is the one argparse exits with."""
    out = []
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        out.append((code, stdout.getvalue(), stderr.getvalue()))
    return out


if __name__ == "__main__":
    json.dump(run_commands(json.load(sys.stdin)), sys.stdout)
