import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import coxshuffle

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def fresh_json():
    """Runs Python code in a fresh interpreter that imports the package the
    tests import, and returns the JSON value the code prints: what a
    module's import loads is seen only where nothing was loaded before."""
    src = str(Path(coxshuffle.__file__).resolve().parents[1])

    def run(code: str):
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        return json.loads(out)

    return run
