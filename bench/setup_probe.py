"""Set-up cost of the benchmark: import ``contagion`` and warm every layer.

``warm_up()`` imports the package from the checkout's ``src`` directory and
makes one tiny call through each layer, so lazy imports and first-call
costs are paid before any timed body. Run as a script it does the same in
a fresh interpreter and prints the elapsed seconds, which is how the
benchmark takes more than one set-up sample per run.

    python3 bench/setup_probe.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class DiscardStream(io.TextIOBase):
    """Text sink that drops everything, used to mute the harness's progress lines."""

    def write(self, text: str) -> int:
        return len(text)


def import_contagion():
    """Import the package from the checkout, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import contagion

    if Path(contagion.__file__).resolve().parent != SRC / "contagion":
        raise ImportError(f"contagion imported from {contagion.__file__}, not {SRC}")
    return contagion


def warm_up() -> float:
    """Import and exercise every layer once; return the elapsed seconds."""
    start = time.perf_counter()
    contagion = import_contagion()
    from contagion import harness, powerlaw

    powerlaw.fit_discrete([1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5, 7, 9, 14])
    spec = harness.ExperimentSpec("GD", 3, n_nodes=30, replications=2, master_seed=1)
    with contextlib.redirect_stderr(DiscardStream()):
        contagion.run_experiment(spec, workers=1)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(f"{warm_up():.6f}")
