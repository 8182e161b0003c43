"""Reference implementations the production paths are tested against.

``repro.core`` has one diagnosis path: numpy index, columnar trace; the
live merge has one clocked drain.  The straightforward code the production
paths were optimised from lives here,
moved without algorithmic edits, so tests can assert equality against it:

* :mod:`tests.oracles.queuing` — the event-by-event queuing index loop,
* :mod:`tests.oracles.propagation` — the per-packet path decomposition,
* :mod:`tests.oracles.victims` — the per-hop victim selection loops,
* :mod:`tests.oracles.engine` — an engine wired through all of the above,
* :mod:`tests.oracles.journal` — the two-pass journal line encoder,
* :mod:`tests.oracles.ingest` — the per-record-scan clocked merge of
  ``IncrementalTrace`` (an ``IncrementalTrace`` subclass).

Nothing under ``src/`` imports this package.
"""
