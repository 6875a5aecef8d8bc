"""The fast demos run to completion against the current API.

Demos 04 and 05 train the full synthetic setting (about 22 s each on a
2-CPU machine), so they run as their own CI step rather than here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = ["01_tensor_engine.py", "02_synthetic_data_and_bm25.py",
              "03_compressed_reranking.py"]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_exits_cleanly(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
