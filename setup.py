"""Packaging for the ``repro`` library.

The core install is dependency-light on purpose: the python execution
backend, the protocol catalog, the simulators, the verification
machinery, the campaigns and the built-in ring, star and complete-graph
topologies import nothing beyond the standard library.  ``networkx`` stays
a requirement, but only three paths load it, at call time: the Figure 1
digraph (``hierarchy_graph()`` and ``topological_order()``), the
Erdős–Rényi topology (``random_graph_scheduler``) and graphs a caller
builds with it.  The columnar numpy array engine (``--engine-backend array``,
:mod:`repro.engine.backends.array_backend`) lives behind the ``fast``
extra::

    pip install repro          # core, python backend only
    pip install 'repro[fast]'  # + numpy for the array engine

Without the extra, everything imports and runs; requesting the array
backend then fails with an actionable
:class:`~repro.engine.backends.base.BackendUnavailableError`.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Fault-tolerant simulation of population protocols "
        "(ICDCS 2017 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "networkx>=2.6",
    ],
    extras_require={
        # The array engine: Generator.integers chunk draws and the
        # SeedSequence.spawn stream-splitting contract it relies on are
        # stable from numpy 1.22 onward.
        "fast": ["numpy>=1.22"],
    },
    entry_points={
        "console_scripts": ["repro=repro.cli:main"],
    },
)
