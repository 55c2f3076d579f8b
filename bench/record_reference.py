"""Record the top-node value of every solve variant into reference.json.

    python3 bench/record_reference.py

The solve check compares each op's value against this file, so run it only
on the code the benchmark's reference is meant to pin, and commit the file.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from execsched import cli  # noqa: E402

import inputs  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "config.json")
        for model, values in inputs.VARIANTS.items():
            reference[model] = []
            for value in values:
                with open(cfg_path, "w", encoding="utf-8") as f:
                    json.dump(inputs.solve_config(model, value), f)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(["solve", cfg_path, "--output-dir", tmp])
                if rc != 0:
                    print(f"solve {model} {value} exited {rc}", file=sys.stderr)
                    return 1
                with open(os.path.join(tmp, "policy.json"), encoding="utf-8") as f:
                    reference[model].append(json.load(f)["value_samples"][0][-1][1])
                print(model, value, reference[model][-1])
    with open(inputs.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
