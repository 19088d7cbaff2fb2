"""The pin files beside this module: values captured from the package
once, which the tests recompute and compare. SOURCES names the test
function that computes each file, and the tests read each file through
load. Run from the repository root,

  PYTHONPATH=src:tests python tests/pins.py

recaptures every file. It computes all values before it writes any file,
then writes each through NAME.new renamed over NAME, one entry per line
with keys sorted, so pins that did not move keep their bytes.
"""

import importlib
import json
from pathlib import Path

DIR = Path(__file__).parent

# file name -> (test module, function computing the file's values)
SOURCES = {
    "builder_pins.json": ("test_builders", "formulation_pins"),
    "search_pins.json": ("test_builders", "search_pins"),
    "generated_builder_pins.json": ("test_builders", "generated_digests"),
    "cli_pins.json": ("test_cli", "cli_pin_digests"),
    "instance_pins.json": ("test_instance", "instance_pins"),
    "schema_pins.json": ("test_instance", "schema_messages"),
    "oracle_pins.json": ("test_oracle", "report_digests"),
    "oracle_path_pins.json": ("test_oracle", "path_report_digests"),
}


def load(name: str) -> dict:
    return json.loads((DIR / name).read_text(encoding="utf-8"))


def dumps(pins: dict) -> str:
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                              for k, v in sorted(pins.items())) + "\n}\n"


def main() -> None:
    # imported here, not at the top, so that each test module can import
    # this one
    texts = {name: dumps(getattr(importlib.import_module(module), function)())
             for name, (module, function) in SOURCES.items()}
    for name, text in texts.items():
        new = DIR / f"{name}.new"
        new.write_text(text, encoding="utf-8")
        new.replace(DIR / name)


if __name__ == "__main__":
    main()
