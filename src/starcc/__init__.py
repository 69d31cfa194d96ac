"""Star central configurations of five equal masses, reduced to (r3, r5).

Every name lives in its module and is imported from there; this module
imports nothing.  The modules follow the layering: geometry (constants,
R2 points), kernel (the one closure, domain test, multiplier formulas and
the local square system F), forces (floating evaluation), intervals
(outward-rounded arithmetic and the interval backends of the kernel),
regions (the 16-piece partition and its proof plans), certify
(branch-and-bound + local uniqueness certificates and their verifier),
solver (floating companion), pool (the process pool certify, verify and
scan share), cli (console entry point).
"""
