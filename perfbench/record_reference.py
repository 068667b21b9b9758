"""Record ``reference.json``: the simulated digest of every default-config cell.

The benchmark fails any default-config cell whose digest differs from the
one recorded here. Re-record only in a change that is meant to move
simulated behaviour, and say so in that change; a simulator-only speed-up
must pass against the existing file. Run from the repository root::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.experiments.harness import run_workload_direct  # noqa: E402

from workloads import PINNED, REFERENCE_PATH, default_cells, sim_digest  # noqa: E402


def main() -> None:
    reference: dict = {}
    for name in PINNED:
        reference[name] = {}
        for cell in default_cells(name, seed=0):
            result = run_workload_direct(cell.backend, cell.threads,
                                         cell.spawn, cell.params)
            reference[name][cell.name] = {"elapsed": result.elapsed,
                                          "digest": sim_digest(result)}
            print(f"{name} {cell.name} elapsed={result.elapsed!r}",
                  file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
