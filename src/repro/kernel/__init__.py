"""Name of the simulator's request path, for tools that label their runs.

The request path is the single loop in :meth:`repro.gpu.gpusim.GpuSim.run`.
This module survives only because the benchmark (``perfbench/bench.py``)
imports :func:`resolve_kernel` to label its reports with the engine it
ran.
"""


def resolve_kernel(choice=None) -> str:
    """The request path every run takes: always ``"scalar"``."""
    return "scalar"
