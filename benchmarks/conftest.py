"""Shared benchmark configuration."""


def pytest_configure(config):
    # Benchmarks print the regenerated tables/figures; keep output visible.
    config.option.verbose = max(config.option.verbose, 0)
