"""Two-layer lake dissolved-oxygen prediction with mass-balance guidance.

The API lives in the submodules (synthetic, series, physics, training,
adaptive, evaluate, cli, ...); the package root holds only the version, so
importing one submodule loads no others it does not need.
"""

__version__ = "0.1.0"
