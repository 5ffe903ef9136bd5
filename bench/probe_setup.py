"""Set-up time of one fresh process: import fancob, then load every input
document of a run directory with the library loaders.

usage: python3 bench/probe_setup.py <repo root> <run directory> [cli]

With "cli" the command-line module is imported too.  Prints the elapsed
seconds; interpreter start-up and the standard-library imports below are
outside the timed span.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    root, work = Path(sys.argv[1]), Path(sys.argv[2])
    paths = sorted(p for p in work.rglob("*") if p.suffix in (".fan", ".cob") and "out" not in p.relative_to(work).parts)
    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import fancob

    if sys.argv[3:] == ["cli"]:
        import fancob.cli  # noqa: F401

    for path in paths:
        doc = json.loads(path.read_text())
        if path.suffix == ".fan":
            fancob.fan_from_doc(doc)
        else:
            fancob.cobordism_from_doc(doc)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
