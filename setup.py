"""Package metadata: the ``repro`` library under ``src/`` and its CLI.

Install in place with::

    pip install --no-build-isolation -e .

which puts ``repro`` on the path and a ``repro`` command (``repro.cli:main``)
on ``PATH``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Houdini: predictive modeling for transaction execution in parallel "
        "OLTP systems, reproduced on a deterministic cluster simulator"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.analysis": ["baseline.json"]},
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
