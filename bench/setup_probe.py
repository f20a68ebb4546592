"""Build a HamiltonianSystem for each config, from a fresh interpreter.

Usage: python bench/setup_probe.py CONFIG_JSON...

Covers what every `quatflow run` pays before it integrates: importing the
package, load_config, parse and HamiltonianSystem.build.  Prints the
time.monotonic() reading taken once the last system is built; monotonic is
one system-wide clock on Linux, so the caller subtracts its own reading
from just before it started this process.
"""

import sys
import time

# through quatflow.cli, so the probe pays the same imports as `quatflow run`
from quatflow.cli import BlockDim, HamiltonianSystem, load_config, parse


def main(paths: list[str]) -> None:
    for path in paths:
        config = load_config(path)
        field = parse(config.hamiltonian, BlockDim(config.n))
        HamiltonianSystem.build(config.structure, field)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1:])
