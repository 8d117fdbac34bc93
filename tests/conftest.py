"""Helpers shared by the test modules."""

import os
from pathlib import Path

from hypothesis import settings

import ocbsim

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and prints the
# blob that replays a failure; otherwise each run explores new examples
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


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
