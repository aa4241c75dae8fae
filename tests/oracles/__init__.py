"""Slow reference implementations that the test suite compares the
optimised kernels against, bit for bit."""
