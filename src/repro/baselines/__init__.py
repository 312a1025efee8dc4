"""Baseline schemes the paper compares against (Section V)."""
