"""Exact simulator of a three-party secret-sharing protocol on a reusable
entangled carrier, the entanglement-splitting attack against it, and the
angle-parametrized toggle defense, with a Monte Carlo detection harness."""

__version__ = "0.1.0"
