import subprocess
import sys

# Imports the kit, runs the commands and oracles that used to need scipy,
# checks that no multiprocessing came with them and that mpmath loads only
# with the quadrature oracle, and prints every scipy module left in
# sys.modules.
PROBE = """
import sys
import numpy as np
import expsum_kit
import expsum_kit.cli
from expsum_kit.audit import van_der_corput_report
from expsum_kit.bounds import integral_sqrt_ratio_quadrature
assert expsum_kit.cli.main(["bound", "--x", "1000000", "--q-range", "3", "3",
                            "-o", sys.argv[1]]) == 0
van_der_corput_report(np.random.default_rng(0))
assert "mpmath" not in sys.modules
integral_sqrt_ratio_quadrature(0.3, 0.9, 0.2)
assert "mpmath" in sys.modules
assert "multiprocessing" not in sys.modules
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_kit_never_loads_scipy(tmp_path, kit_env):
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path / "b.json")],
                          capture_output=True, text=True, env=kit_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
