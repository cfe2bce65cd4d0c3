import sys
from pathlib import Path

# the checkout's sources come first, even over an installed copy
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
