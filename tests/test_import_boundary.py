"""The from-scratch oracles stay outside the serving import graph.

:mod:`repro.oracles` exists for the equivalence tests and the scenario rig;
importing the serving surfaces must not pull it in.  The check runs in a
fresh interpreter so modules imported by other tests cannot mask a leak.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_serving_modules_do_not_import_the_oracles():
    probe = (
        "import sys\n"
        "import repro.api, repro.service, repro.cluster, repro.cli\n"
        "assert 'repro.api' in sys.modules\n"
        "print('repro.oracles' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    assert completed.stdout.strip() == "False", completed.stdout + completed.stderr
