"""Limit-cycle counting for a piecewise-smooth cubic center.

The package computes the first-order averaged function of the piecewise
planar system

    (x', y') = (-y (x+a)^2 + eps f(x,y),  x (x+a)^2 + eps g(x,y))   x >= 0
    (x', y') = (-y (x+b)^2 + eps f(x,y),  x (x+b)^2 + eps g(x,y))   x <  0

for polynomial perturbations, counts and places simple zeros of that
function on the period annulus (each simple zero spawns a limit cycle for
small eps), and verifies the prediction by direct Poincare return-map
integration of the perturbed system.

The root holds only `__version__`: names are imported from the layer
modules (`pwcycles.kernels`, `.averaging`, `.zeros`, ...), and importing
one layer loads only the layers it builds on.
"""

# numpy loads numpy.random on first use; the surveys, placement's null-space
# draws and verify draw from it, so it is loaded here, with the package, and
# not inside the first run.
import numpy.random  # noqa: F401

__version__ = "0.1.0"
