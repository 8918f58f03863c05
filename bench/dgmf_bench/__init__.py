"""Benchmark of the dgmf library: seeded workloads, oracles that do not use
the library's arithmetic, and a traced run that times each layer."""
