"""Set-up probe, run in a fresh interpreter by run.py: time `import levyid`
plus loading and resolving a suite config, and print the seconds.

    python3 perfbench/setup_probe.py CONFIG.json    (with src/ on PYTHONPATH)
"""

import sys
import time

start = time.perf_counter()
import levyid  # noqa: E402,F401
from levyid import cli  # noqa: E402

config = cli.load_config(sys.argv[1])
for job in config["jobs"]:
    cli.parse_process(job["config"]["process"])
print(time.perf_counter() - start)
