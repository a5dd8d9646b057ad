"""Build config for the optional compiled DES kernels.

The repo is pure-python by default (``PYTHONPATH=src``); this setup
script exists to build the one optional C extension,
``repro.sim._kernels``, in place::

    python setup.py build_ext --inplace

which drops the shared object next to ``src/repro/sim/engine.py``.
Everything degrades gracefully when the extension is absent — the
pure-python scheduler and engine are the reference implementations —
so building is an optional speed-up, never a requirement (CI runs one
job with the build deliberately skipped to enforce that).

Dependencies: numpy is required everywhere.  The extras are
``scipy`` (``repro.analysis.optimum``), ``z3`` (``repro.verify``, which
degrades to skips without it) and ``test`` (pytest + hypothesis, which
the ``tests/test_prop_*.py`` suites import).
"""

from setuptools import Extension, find_packages, setup

setup(
    name="repro",
    version="0.6.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    extras_require={
        "scipy": ["scipy"],
        "z3": ["z3-solver"],
        "test": ["pytest", "hypothesis"],
    },
    ext_modules=[
        Extension(
            "repro.sim._kernels",
            sources=["src/repro/sim/_kernels.c"],
            extra_compile_args=["-O2"],
        ),
    ],
)
