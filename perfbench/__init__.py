"""perfbench: one wire-to-verdict benchmark with per-layer spans.

Everything here measures ``repro`` from the outside through its public
API; nothing under ``src/`` knows this package exists.  See README.md.
"""

from pathlib import Path

#: Root of the checkout (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where the program under test lives.
SRC = ROOT / "src"
#: Scratch and result directory (git-ignored; everything the benchmark
#: writes lands here so a run never touches files outside its checkout).
OUT = ROOT / "perfbench" / "out"
