"""The per-layer tracer in bench/layers.py wraps tagforge functions by name.
Installing it on the current sources must succeed, so that removing or
renaming a wrapped function fails here instead of in a traced benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_current_sources():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    )
    script = "import tagforge.cli\nfrom layers import Tracer\nTracer().install(tagforge.cli)\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
