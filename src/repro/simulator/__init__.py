"""Discrete-event heterogeneous cluster simulator (the paper's testbed)."""
