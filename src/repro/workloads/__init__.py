"""Workloads: the 16 model specs, trace generators, SeBS co-location."""
