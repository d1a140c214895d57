"""cmfields: exact arithmetic for the finite objects of complex multiplication.

Layers (one module per subsystem):
  unipoly    - rational polynomials (ratfactor, modpoly: factoring over Q, F_p)
  linalg     - exact linear algebra over Q, F_p and Z (Gauss-Jordan, HNF)
  numfield   - number fields, elements, morphisms, the primitive-element search
  closure    - automorphisms and Galois closures
  embeddings - certified complex embeddings
  ideals     - maximal orders (orders.py) and fractional-ideal HNF calculus
  cmreflex   - CM-types, reflex fields, reflex norms and their identity suite
  polar      - Riemann-form elements and type quadruples
  latticeav  - lattice models of CM abelian varieties, a-multiplications
  stverify   - Frobenius elements, Shimura-Taniyama checks
  rayclass   - ray class groups and the reflex transport check
  cli        - reproducible command-line pipelines
"""

__version__ = "0.1.0"
