import subprocess
import sys
from pathlib import Path

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "demo_protocol.py"


def test_demo_walkthrough_passes_its_checks():
    done = subprocess.run(
        [sys.executable, str(DEMO)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "[revealed] validation via bound-root binding: ok" in done.stdout
    assert "[concealed] validation via star binding: ok" in done.stdout
