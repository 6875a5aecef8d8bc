"""The fast demos run to completion against the current API, and the slow
ones import only names that exist.

Demos 04 and 05 train the full synthetic setting (about 10 s each on a
2-CPU machine), so they run as their own CI step rather than here; their
imports are checked here without running them.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = ["01_tensor_engine.py", "02_synthetic_data_and_bm25.py",
              "03_compressed_reranking.py"]
SLOW_DEMOS = ["04_training_pipeline.py", "05_retrieval_fusion.py"]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_exits_cleanly(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"  # as CI runs the slow demos
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", SLOW_DEMOS)
def test_slow_demo_imports_exist(name):
    tree = ast.parse((ROOT / "demos" / name).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "embrank"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [alias.name for alias in node.names if not hasattr(module, alias.name)]
        assert not missing, f"{name} imports {missing} from {node.module}"
