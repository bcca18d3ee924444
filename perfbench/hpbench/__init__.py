"""End-to-end benchmark of the HeapTherapy+ reproduction.

The package measures the program from outside: it calls the public
constructors and functions of ``repro.serving``, ``repro.core.pipeline``,
``repro.parallel``, ``repro.fleet`` and ``repro.workloads`` and times
those calls.  ``perfbench/run.py`` is the command; ``README.md`` beside
it explains the workloads and metrics.
"""
