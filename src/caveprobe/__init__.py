"""caveprobe: fault-free memory probing and pivot verification toolkit.

The package models a paused 64-bit victim address space, probes it through
simulated transactions that suppress faults, reconstructs the memory map,
finds gadgets and zero-filled caves, injects a fake stack frame, and runs
the result on a small machine model to check that control flow lands back
where the victim would have returned anyway.
"""

__version__ = "0.1.0"
