"""Reference implementations the production paths are tested against.

``repro.core`` has one diagnosis path: numpy index, columnar trace.  The
straightforward object-walking code it was vectorized from lives here,
moved without algorithmic edits, so tests can assert equality against it:

* :mod:`tests.oracles.queuing` — the event-by-event queuing index loop,
* :mod:`tests.oracles.propagation` — the per-packet path decomposition,
* :mod:`tests.oracles.victims` — the per-hop victim selection loops,
* :mod:`tests.oracles.engine` — an engine wired through all of the above.

Nothing under ``src/`` imports this package.
"""
