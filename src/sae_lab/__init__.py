"""Self-adjoint-extension laboratory: Robin walls, quantum dots, wall fermions.

Subpackages by physical setting:

* :mod:`sae_lab.box1d` - exact 1-d interval spectra for the Robin wall family
* :mod:`sae_lab.wall_models` - scattering phase shifts and thin-well wall limits
* :mod:`sae_lab.qdot_fd` - finite-difference dots of arbitrary shape in d = 1..3
* :mod:`sae_lab.hetero` - interface matrices for junctions between regions
* :mod:`sae_lab.dirac_wall` - reflecting walls for Dirac/Pauli and domain-wall fermions
* :mod:`sae_lab.cli` - the ``sae-lab`` command-line front end
"""

from . import errors

__version__ = "0.1.0"

__all__ = ["errors", "__version__"]
