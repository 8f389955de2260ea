"""Every demo script and the README quick start run against the source tree,
with numpy unimportable: the package and its demos need no numpy.

Each script is copied to a temporary directory first, so the files a demo
writes next to itself land there and not in the checkout.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


_WITHOUT_NUMPY = """
import runpy
import sys
sys.modules["numpy"] = None   # any `import numpy` now raises ImportError
runpy.run_path(sys.argv[1], run_name="__main__")
"""


def _run_script(script, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, str(script)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    _run_script(shutil.copy(demo, tmp_path / demo.name), tmp_path)


def test_readme_quick_start_runs(tmp_path):
    # the README's python block shows public names; a deleted one fails here
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    script = tmp_path / "quick_start.py"
    script.write_text(blocks[0])
    _run_script(script, tmp_path)
