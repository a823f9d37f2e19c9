"""Benchmark of the stochinv library and CLI; see README.md in this directory."""
