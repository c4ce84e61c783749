"""Every per-layer hook of the benchmark binds to a name the package has.

`perfbench/layers.py` times hyperlab functions by rebinding them by name
(for example `axioms.check_canonical_hypergroup`, or `scaled` where
`harness` imports it).  When a hooked name is deleted or renamed, the
benchmark reports the metrics that need it as unmeasured and reads them as
0 instead of failing; this test fails instead.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_perfbench_hook_binds():
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import hyperlab.cli, layers, json\n"
        "t = layers.Tracer(); t.install()\n"
        "print(json.dumps(t.missing()))\n"
    ) % (str(ROOT / "perfbench"), str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {}
