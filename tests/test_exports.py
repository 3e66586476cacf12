import os
import subprocess
import sys
from pathlib import Path


def test_every_export_resolves_to_its_module_object():
    """Each name in hbsolve.__all__, looked up lazily on a fresh import, is
    the object its submodule defines under that name; a lazy export left
    pointing at a moved or removed name fails here."""
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    code = ("import importlib\n"
            "import hbsolve as hb\n"
            "for name in hb.__all__:\n"
            "    module = importlib.import_module('hbsolve.' + hb._EXPORTS[name])\n"
            "    if getattr(hb, name) is not getattr(module, name):\n"
            "        print(name)\n")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""
