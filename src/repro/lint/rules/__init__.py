"""Built-in simlint rules.

Importing this package registers every rule with the registry in
:mod:`repro.lint.base`.  Add new rules by dropping a module here and
importing it below.
"""

from repro.lint.rules import determinism, ordering, printing, typing, usm

__all__ = ["determinism", "ordering", "printing", "typing", "usm"]
