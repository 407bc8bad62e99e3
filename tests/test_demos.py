from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-3]_*.py"))


def test_three_demos_present():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_python_blocks_run_in_order():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert blocks and len(blocks) == text.count("```python")
    namespace: dict = {}
    for block in blocks:  # later blocks use the names earlier ones define
        exec(compile(block, str(ROOT / "README.md"), "exec"), namespace)
