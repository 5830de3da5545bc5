"""envlab: exact computational algebra for finite matrix groups.

Modules:
    gf          arithmetic in GF(ell^d) on integer-encoded numpy arrays
    fieldcore   matrix groups, modules, MeatAxe splitting, commutants
    nori        truncated exp/log and exponentially generated subgroups
    charlattice formal characters and bi-characters over Z
    smallrep    root data, Freudenthal over dominant weights, the case table
    tame        tame inertia characters and weight multisets
    mackey      induction, Mackey's criterion, Clifford decomposition
    pipeline    envelope reports and case elimination
    cli         command-line front end
"""

__version__ = "0.1.0"
