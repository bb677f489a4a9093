"""Scan-curve schedules, state-space scan kernels, block forwards, and a
seven-metric anomaly-detection evaluation protocol."""

# The root binds no names of its own: each is imported from its module.
# It still loads the library modules, because perfbench's tracer looks up
# traced functions only in ssmad modules that are already loaded.
from . import blocks, metrics, pipeline, scans, ssm, tensor
