import sys
from pathlib import Path

# the benchmark's modules are scripts in perfbench/, not a package
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
