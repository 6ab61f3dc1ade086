import os
import subprocess
import sys

import pytest

import reset_sde

SRC = os.path.dirname(os.path.dirname(reset_sde.__file__))


@pytest.fixture
def child_python():
    """Runs python source in a fresh process that imports this checkout's
    ``reset_sde``, for a measure that belongs to a whole process: its peak
    resident size, the modules it loads, or an address-space limit.  A
    RuntimeWarning fails the child, as the filter in pyproject.toml fails a
    test.  Returns the completed process, with its output as text."""
    def run(code):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                              capture_output=True, text=True, timeout=120, env=env)
    return run
