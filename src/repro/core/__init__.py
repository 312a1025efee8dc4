"""Paldia's core: Equation (1), Algorithm 1, autoscaling, the policy."""
