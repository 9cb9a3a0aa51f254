"""The 128^3 ladder check of an archived solution, in a process of its own.

    python3 perfbench/ladder128.py solution.json

Run as a separate process so that its peak RSS is its own. Prints the
check's wall time and residuals as one JSON line.
"""
import json
import sys
import time

from solitonlab import archive
from solitonlab.spingrid import GridSpec, ladder_residuals

sol = archive.solution_from_document(archive.read_json(sys.argv[1]))[0]
t0 = time.perf_counter()
report = ladder_residuals(sol, GridSpec(n=128, extent=10.0))
print(json.dumps({"seconds": time.perf_counter() - t0, "residuals": report.as_dict()}))
