"""Set-up probe: time ``import bistoch`` plus decoding one run's input files.

Run in a fresh interpreter so the import is cold; prints the seconds.

    PYTHONPATH=src:perfbench python3 perfbench/probe.py WORKDIR
"""

import sys
from time import perf_counter


def main(workdir):
    start = perf_counter()
    import jobs  # imports bistoch, inside the timed region

    jobs.load(workdir)
    return perf_counter() - start


if __name__ == "__main__":
    print(main(sys.argv[1]))
