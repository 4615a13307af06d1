"""Numerical verification of bosonic phase-space geometric inequalities.

The API is the seven modules `fock_core`, `semigroups`, `fisher`,
`gaussian`, `classical`, `verify` and `cli`; the package re-exports nothing.
"""

__version__ = "0.1.0"
