"""The CI workflow's installed-console-script step runs as written.

The step installs the package and runs ``bidfm`` commands from outside the
checkout.  Here its script runs as the workflow holds it, under ``bash -e``
in a temporary directory, with only the install line replaced: ``bidfm``
becomes a shell function over ``python -m bidfm`` on the source tree.  So a
command or a check that the step would fail on fails here too.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
INSTALL = 'python -m pip install "$GITHUB_WORKSPACE"'


def test_console_script_step_runs(tmp_path):
    yaml = pytest.importorskip("yaml")
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("bash is not installed")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (step,) = [step for step in workflow["jobs"]["test"]["steps"]
               if step.get("name") == "Installed console script"]
    assert step["run"].count(INSTALL) == 1
    script = step["run"].replace(INSTALL, 'bidfm() { python -m bidfm "$@"; }')
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           # ``python`` is this interpreter, as it is the workflow's
           "PATH": os.pathsep.join([os.path.dirname(sys.executable), os.environ.get("PATH", "")])}
    result = subprocess.run([bash, "-e", "-c", script], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, f"{result.stdout[-3000:]}\n{result.stderr[-3000:]}"
