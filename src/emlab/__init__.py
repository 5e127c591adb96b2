"""Numerical laboratory for radially structured variational problems.

Solves the optimality equation of integrands F(|grad u|, u) on embedded 2D
grids, assembles the associated divergence-free tensor field, and verifies
its claimed properties at desk scale: symmetry, closed-form spectrum,
definiteness, the maximum location of the principal eigenvalue, integral
identities of Rellich/Pohozaev type, and pointwise gradient bounds.
"""

__version__ = "0.1.0"
