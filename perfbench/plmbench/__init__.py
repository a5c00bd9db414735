"""Benchmark harness for plmonoid: workloads, tracing, and the run loop."""
