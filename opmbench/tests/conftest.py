import sys
from pathlib import Path

# the benchmark's modules are plain scripts beside this directory, and the
# program's sources sit under src/ of the same checkout
HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
