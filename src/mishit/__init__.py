"""mishit: hitting numbers of maximum-independent-set families.

Exact independence numbers and complete MIS enumeration on bitmask graphs,
the shift and Hamming graph families with their structural MIS descriptions,
exact minimum hitting sets and the covering-code correspondence, kernel and
corona structure, and the random-deletion process behind the averaged
independence-number bound.

Each name is imported from the module that defines it, e.g.
``from mishit.graph import alpha``.
"""
