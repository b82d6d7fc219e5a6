import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; the CLI pays its import time otherwise.
    # The top-level API is what the benchmark imports: it does not pull in the
    # graph, the field, EM or the CLI.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c",
         "import coact, sys; "
         "loaded = {'scipy', 'coact.graph', 'coact.crf', 'coact.em', 'coact.cli'} & set(sys.modules); "
         "assert not loaded, sorted(loaded)"],
        env=env, check=True, timeout=60,
    )
