"""One module per paper artifact: Table 1, Figures 6/7, Table 2, Section 4.3.

:data:`repro.experiments.runner.SWEEP` indexes them: each artifact's
tasks, how their results assemble, and how it prints.
"""
