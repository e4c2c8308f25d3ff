"""Package version, importable without triggering heavy imports."""

__version__ = "1.15.0"
