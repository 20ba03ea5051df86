"""simflow: the whole-program half of simlint's one rule registry.

Where a per-file rule (:mod:`repro.lint.rules`) checks one module's
syntax at a time, the program rules here see the whole ``src/repro``
tree, parsed once into a symbol table and call graph, and follow values
*interprocedurally*:

* **SF001** — RNG stream provenance: every ``RandomStreams.stream(...)``
  name must resolve to a literal, and the same name must not be claimed
  by distinct components (stream names are part of the seed contract).
* **SF002** — the wall clock: no wall-clock read (or from-import of a
  wall-clock name) in a simulation component, and no wall-clock value
  read elsewhere may flow into sim-time state, USM windows, or report
  fields other than the declared wall-metadata sinks.
* **SF003** — cross-process capture: payloads shipped to the sweep pool
  must be picklable module-level callables; no mutation-after-submit or
  worker-side mutation of shared module globals.
* **SF004** — engine-owned escapes: ``LockManager`` state is mutated
  only inside ``db/locks.py``, whatever name the reference travels under.

They run with every other rule from the one command::

    python -m repro.lint src/repro

Suppressions are the shared inline comments: ``# simlint: disable=SF002``
on the flagged line (or ``disable-file=`` in the module header) with a
``--`` justification.
"""
