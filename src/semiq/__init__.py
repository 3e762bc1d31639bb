"""semiq: semiclassical time, tunneling, and observer-network toolkit.

Four physics layers plus I/O utilities:

- ``clock``: stochastic reparametrization clocks and the dephasing they
  imprint on quantum coherences; retention times and equivalence classes.
- ``wkb``: barrier penetration through an inverted-parabola interaction,
  closed form against quadrature, matched semiclassical wavefunctions.
- ``oracle``: independent transfer-matrix transmission through the capped
  barrier, ``transfer_matrix_transmission(cap_barrier(bp))`` at bp's hbar
  and mu, used to cross-check the semiclassical rates.
- ``network``: gauge-covariant couplings on a ring of units, reduced
  single-site comparisons, quenched pattern memories, spike entropy.
- ``minisuperspace``: phase/amplitude transport for a one-dimensional
  constraint, clock maps, driven matter evolution, residual scaling.
"""

from . import clock, minisuperspace, network, oracle, wkb

__version__ = "0.1.0"

# the package exports what each layer's __all__ lists, and nothing else
_LAYERS = (clock, wkb, oracle, network, minisuperspace)
globals().update((name, getattr(mod, name)) for mod in _LAYERS
                 for name in mod.__all__)
__all__ = ["__version__"] + [name for mod in _LAYERS for name in mod.__all__]
