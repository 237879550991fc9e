"""Exponential product formulas: construction, verification, solving, and use.

Subpackages:

- ``ncalg``      exact noncommutative series, Lyndon-basis Lie projection,
                 the dense commutator
- ``schemes``    named splitting schemes and their catalog, fractal
                 compositions, shift-time expansion, JSON serialization
- ``orders``     order-condition generation, verification, Newton solving
- ``propagate``  unitary / symplectic / time-ordered stepping and the demo runs
- ``qmc``        world-line quantum Monte Carlo, exact references, annealing
- ``cli``        the ``expprod`` command-line front end
"""

from . import ncalg, orders, propagate, qmc, schemes

__version__ = "0.1.0"

__all__ = ["ncalg", "schemes", "orders", "propagate", "qmc", "__version__"]
