"""Semidefinite and spectral bounds for independence in uniform hypergraphs.

Subpackages and modules:

- hypercore: hypergraph combinatorics, brute-force oracles, file I/O
- numlin: eigendecomposition, simplex LP (exact or float), block SDP solver
- thetabody: the recursive PSD relaxation of the independent-set polytope
- symmetry: orbit reduction for symmetric instances, triangle-family pipeline
- hamming: cube triangle hypergraphs, Krawtchouk/Hahn closed forms, decay scan
- hoffman: edge-weighted hypergraphs and the spectral product bound
- checks: the property suite that `hypertheta check` runs
- cli: command-line front end
"""

__version__ = "0.1.0"
