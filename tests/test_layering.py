"""Import layering: the training stack never loads offline analytics.

``repro.core`` and ``repro.fl`` run inside every training process and
every pool worker; trace analysis, Chrome-trace export and the report
CLI are offline tools. Importing the former must not drag in the
latter. A fresh interpreter is used so modules imported by other tests
cannot mask (or fake) a violation.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

FORBIDDEN_PREFIXES = (
    "repro.obs.analysis",
    "repro.obs.chrome_trace",
    "repro.obs.report",
)


def loaded_repro_modules(*packages):
    code = (
        "import importlib, sys\n"
        f"for name in {packages!r}:\n"
        "    importlib.import_module(name)\n"
        "print('\\n'.join(m for m in sys.modules if m.startswith('repro')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(out.split())


def test_core_and_fl_do_not_load_offline_analytics():
    loaded = loaded_repro_modules("repro.core", "repro.fl")
    assert "repro.fl.trainer" in loaded  # the import really happened
    leaked = sorted(
        name
        for name in loaded
        if any(
            name == prefix or name.startswith(prefix + ".")
            for prefix in FORBIDDEN_PREFIXES
        )
    )
    assert leaked == []
