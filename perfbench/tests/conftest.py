import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

for var in run.THREAD_VARS:
    os.environ[var] = "1"
problem = run.locate_package()
if problem:
    raise RuntimeError(problem)
