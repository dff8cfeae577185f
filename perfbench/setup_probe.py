"""Time the set-up every CLI invocation pays, in this fresh process.

Usage: python3 perfbench/setup_probe.py CONFIG.json
Prints the seconds spent on `import switchsde`, RunConfig.from_dict and
building the model and the Levy measure.  run.py pins the BLAS threads in
the environment it passes down.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

raw = json.loads(Path(sys.argv[1]).read_text())
sys.path.insert(0, str(SRC))
t0 = time.perf_counter()
import switchsde  # noqa: E402

cfg = switchsde.RunConfig.from_dict(raw)
cfg.model.build()
cfg.levy.build()
print(time.perf_counter() - t0)
