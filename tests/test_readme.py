"""Every python block in README.md runs as written, with src on the path."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_python_blocks_run():
    tour = README.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    (tour_block,) = _python_blocks(tour)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    printed = {}
    for block in _python_blocks(README):
        done = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, f"README block failed:\n{block}\n{done.stderr}"
        printed[block] = done.stdout
    assert printed[tour_block] == "1.0\n"
