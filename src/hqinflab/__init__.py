"""Infinite-server queues as two-parameter random fields.

Simulation of G/GI/infinity systems, the arrival- and service-noise split of
their CLT-scaled residual field, the analytic fluid and Gaussian-variance
surfaces of the heavy-traffic limit, direct simulation of the limit
processes, and a config-driven validation harness comparing the two.
"""

__version__ = "0.1.0"
