"""Helpers shared by the test modules."""

import os
from pathlib import Path

import ocbsim


def cli_env() -> dict:
    """Environment for a child ``python -m ocbsim`` started from any directory.

    The absolute parent directory of the imported ``ocbsim`` package goes
    first on PYTHONPATH, so the child runs the same package as the tests
    whether or not it is installed and whatever its working directory.
    A RuntimeWarning in the child is an error, as it is in the tests.
    """
    env = dict(os.environ)
    src = str(Path(ocbsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return env
