"""Exact induced-graph-matching toolkit for claw-free and circular-arc graphs.

Each question has one entry:

- claw-free hosts: ``color_coding.solve_igm_claw_free``
- clique patterns: ``kernel.kernelize``, then ``graphs.brute_force_wis`` on its instance
- proper interval hosts: ``interval_solvers.solve_igm_proper_interval``
- long proper circular-arc hosts: ``interval_solvers.solve_igm_long_proper_ca``
- disconnected patterns on proper arcs: ``interval_solvers.solve_igm_proper_ca_disconnected``
- fuzzy circular-arc hosts: ``fuzzy_solver.solve_igm_fuzzy_ca``
- hosts of independence number at most 4: ``fuzzy_solver.solve_igm_small_alpha``
"""

__version__ = "0.1.0"
